//! Request representation.

use std::borrow::Cow;

use crate::headers::Headers;
use crate::url::{is_redirected, sanitize_path, split_query};

/// HTTP methods SWEB understands. The paper (§3.2 footnote): "SWEB
/// currently focuses on GET and related commands... Other commands (e.g.,
/// POST) are not handled, but SWEB could be extended to do so in the
/// future" — this implementation carries out that extension: POST is
/// served (to CGI programs, always locally — a 302 would make a 1996
/// browser re-issue it unsafely). Anything else is `501 Not Implemented`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve a document (the paper's focus).
    Get,
    /// Like GET without a body.
    Head,
    /// Submit data to a CGI program (the paper's named future work).
    Post,
    /// Parsed but unserved methods (PUT, DELETE, ...), kept for 501.
    Other,
}

impl Method {
    /// Parse a method token.
    pub fn from_token(tok: &str) -> Method {
        match tok {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            _ => Method::Other,
        }
    }

    /// Whether SWEB fulfills this method.
    pub fn is_supported(self) -> bool {
        matches!(self, Method::Get | Method::Head | Method::Post)
    }

    /// Whether the broker may reassign this method to another node. POST
    /// is non-idempotent: a 302 asks the client to re-submit, which 1996
    /// user agents downgraded to GET — so POSTs pin to the node they hit.
    pub fn is_redirectable(self) -> bool {
        matches!(self, Method::Get | Method::Head)
    }
}

/// A parsed HTTP request: the method, and the target, the version and
/// the header lines held in one buffer, the header set's.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Where the target, then the version, end in the buffer.
    ends: [usize; 2],
    /// Header lines (and, in front of them, the target and version).
    headers: Headers,
}

impl Request {
    /// A request for `target` with no header lines yet. `version` is e.g.
    /// "HTTP/1.0", or empty for an HTTP/0.9 simple request.
    pub fn new(method: Method, target: &str, version: &str) -> Request {
        Request::with_headers(method, target, version, Headers::new())
    }

    pub(crate) fn with_headers(
        method: Method,
        target: &str,
        version: &str,
        mut headers: Headers,
    ) -> Request {
        let ends = headers.keep_in_front([target, version]);
        Request { method, ends, headers }
    }

    /// Raw request target as received (path + optional query).
    pub fn target(&self) -> &str {
        &self.headers.front()[..self.ends[0]]
    }

    /// HTTP version string, e.g. "HTTP/1.0". Empty for HTTP/0.9 simple
    /// requests (`GET /path` with no version).
    pub fn version(&self) -> &str {
        &self.headers.front()[self.ends[0]..self.ends[1]]
    }

    /// Header lines.
    pub fn headers(&self) -> &Headers {
        &self.headers
    }

    /// Header lines, to add to.
    pub fn headers_mut(&mut self) -> &mut Headers {
        &mut self.headers
    }

    /// Decoded, normalized filesystem-safe path (no query, no `..`),
    /// borrowed from the target when it is already in that form.
    /// `None` when the target attempts directory traversal.
    pub fn path(&self) -> Option<Cow<'_, str>> {
        let (path, _) = split_query(self.target());
        sanitize_path(path)
    }

    /// Query string, if any (without the `?`).
    pub fn query(&self) -> Option<&str> {
        split_query(self.target()).1
    }

    /// Whether this request already carries SWEB's redirected marker and
    /// therefore must be served locally (redirect-once rule, §3.1).
    pub fn already_redirected(&self) -> bool {
        is_redirected(self.target())
    }

    /// Whether the target names a CGI program (NCSA convention:
    /// under `/cgi-bin/`).
    pub fn is_cgi(&self) -> bool {
        let (path, _) = split_query(self.target());
        path.starts_with("/cgi-bin/")
    }

    /// Serialize to wire format (request line, headers, blank line). The
    /// inverse of [`crate::parse_request`] for requests we build ourselves.
    pub fn to_bytes(&self) -> Vec<u8> {
        let method = match self.method {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Other => "PUT",
        };
        let version = if self.version().is_empty() { "HTTP/1.0" } else { self.version() };
        let mut out = Vec::with_capacity(64 + self.headers.as_wire().len());
        out.extend_from_slice(format!("{method} {} {version}\r\n", self.target()).as_bytes());
        out.extend_from_slice(self.headers.as_wire());
        out.extend_from_slice(b"\r\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(target: &str) -> Request {
        Request::new(Method::Get, target, "HTTP/1.0")
    }

    #[test]
    fn method_tokens() {
        assert_eq!(Method::from_token("GET"), Method::Get);
        assert_eq!(Method::from_token("HEAD"), Method::Head);
        assert_eq!(Method::from_token("POST"), Method::Post);
        assert_eq!(Method::from_token("PUT"), Method::Other);
        assert!(Method::Get.is_supported());
        assert!(Method::Post.is_supported());
        assert!(!Method::Other.is_supported());
        assert!(Method::Get.is_redirectable());
        assert!(!Method::Post.is_redirectable(), "POST must pin to its node");
    }

    #[test]
    fn path_strips_query() {
        let r = req("/maps/goleta.gif?zoom=3");
        assert_eq!(r.path().as_deref(), Some("/maps/goleta.gif"));
        assert_eq!(r.query(), Some("zoom=3"));
    }

    #[test]
    fn traversal_rejected() {
        assert_eq!(req("/../etc/passwd").path(), None);
        assert_eq!(req("/a/../../etc").path(), None);
        assert_eq!(req("/a/../b").path().as_deref(), Some("/b"));
    }

    #[test]
    fn cgi_detection() {
        assert!(req("/cgi-bin/search?q=x").is_cgi());
        assert!(!req("/index.html").is_cgi());
    }

    #[test]
    fn to_bytes_round_trips_through_the_parser() {
        let mut r = req("/maps/goleta.gif?zoom=2");
        r.headers_mut().push("Host", "alexandria.ucsb.edu");
        r.headers_mut().push("Connection", "Keep-Alive");
        let wire = r.to_bytes();
        let (parsed, used) = crate::parse::parse_request(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed.method, Method::Get);
        assert_eq!(parsed.target(), r.target());
        assert_eq!(parsed.headers().get("host"), Some("alexandria.ucsb.edu"));
        assert_eq!(parsed.headers().get("connection"), Some("Keep-Alive"));
    }

    #[test]
    fn redirect_marker_detection() {
        assert!(!req("/index.html").already_redirected());
        assert!(req("/index.html?sweb-redirect=1").already_redirected());
        assert!(req("/index.html?a=b&sweb-redirect=1").already_redirected());
    }
}
