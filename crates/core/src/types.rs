//! Shared request descriptor.

use sweb_cluster::{FileId, NodeId};

/// What kind of work fulfilling a request entails. The broker carries this
/// in routing decisions so dynamic requests are priced per handler class
/// (the oracle's tuned `t_cpu` table is keyed on the class name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// A plain static-document fetch: bytes from disk or the file cache.
    Static,
    /// Dynamic content produced by a registered in-process handler. The
    /// payload names the handler class used to key the oracle's
    /// measured-`t_cpu` table (e.g. `"burn"`, `"search"`).
    Dynamic(&'static str),
}

impl RequestClass {
    /// Handler class name, or `None` for static fetches.
    pub fn name(&self) -> Option<&'static str> {
        match self {
            RequestClass::Static => None,
            RequestClass::Dynamic(class) => Some(class),
        }
    }
}

/// Everything the scheduler needs to know about one HTTP request after
/// preprocessing (§3.2 step 1): the document, its size and home disk, the
/// oracle's CPU estimate, and whether the request was already redirected.
#[derive(Debug, Clone, Copy)]
pub struct RequestInfo {
    /// Requested document.
    pub file: FileId,
    /// Document size in bytes (known from the file map / stat).
    pub size: u64,
    /// Node whose local disk stores the document.
    pub home: NodeId,
    /// Oracle-estimated CPU operations to fulfill the request (fork, disk
    /// read syscalls, packetization; plus CGI compute when applicable).
    pub cpu_ops: f64,
    /// True when the request carries the redirect-once marker and must be
    /// served where it landed.
    pub redirected: bool,
    /// True for requests the broker must always fulfill locally regardless
    /// of load (errors, moved documents, non-retrievals — §3.2 step 2).
    pub pinned_local: bool,
    /// True when the node evaluating the request holds the document in its
    /// own page cache. The paper's cost model has no cache term (this is
    /// the *extension* behind `SwebConfig::cache_aware_cost`); when the
    /// flag is enabled, a cached local copy zeroes `t_data` at the origin.
    pub cached_at_origin: bool,
    /// Static fetch or dynamic handler invocation (and which handler
    /// class).
    pub class: RequestClass,
}

impl RequestInfo {
    /// A plain static-document fetch.
    pub fn fetch(file: FileId, size: u64, home: NodeId, cpu_ops: f64) -> Self {
        RequestInfo {
            file,
            size,
            home,
            cpu_ops,
            redirected: false,
            pinned_local: false,
            cached_at_origin: false,
            class: RequestClass::Static,
        }
    }

    /// A dynamic-handler invocation of the named class.
    pub fn dynamic(mut self, class: &'static str) -> Self {
        self.class = RequestClass::Dynamic(class);
        self
    }

    /// Mark as already-redirected (must serve locally).
    pub fn redirected(mut self) -> Self {
        self.redirected = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let r = RequestInfo::fetch(FileId(3), 1024, NodeId(1), 5e5);
        assert!(!r.redirected && !r.pinned_local);
        assert_eq!(r.class, RequestClass::Static);
        let r = r.redirected();
        assert!(r.redirected);
        assert_eq!(r.size, 1024);
    }

    #[test]
    fn dynamic_builder_sets_class() {
        let r = RequestInfo::fetch(FileId(7), 4096, NodeId(0), 4e6).dynamic("burn");
        assert_eq!(r.class, RequestClass::Dynamic("burn"));
        assert_eq!(r.class.name(), Some("burn"));
        assert_eq!(RequestClass::Static.name(), None);
    }
}
