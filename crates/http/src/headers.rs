//! Case-insensitive header multimap, held as the bytes it is sent as.

/// An ordered list of HTTP headers with case-insensitive name lookup.
///
/// The lines are kept as they go on the wire, `Name: value\r\n` one after
/// another in one buffer: a reply's own lines are written into its head
/// by copying the buffer as it is, and a parsed request's headers are one
/// allocation, not two per line. Requests and replies carry a handful of
/// headers, so a lookup scans the lines; insertion order is wire order.
/// Names hold no `:` and values no line break.
#[derive(Clone, Default)]
pub struct Headers {
    /// `skip` bytes the set's owner keeps here (a request's target and
    /// version), then the lines.
    buf: String,
    skip: usize,
}

/// The capacity the first line of an empty set reserves: room for the
/// lines a reply writes for itself (trace, node, cache, connection) and,
/// for a head serialized on its own, its status line and tail.
const FIRST_CAPACITY: usize = 256;

impl Headers {
    /// Empty header set (allocates nothing until the first line).
    pub fn new() -> Self {
        Headers::default()
    }

    /// An empty set with room for `bytes` bytes of lines.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Headers { buf: String::with_capacity(bytes), skip: 0 }
    }

    /// Keep `parts` in front of the lines, in the same buffer; returns
    /// where each part ends. Once per set.
    pub(crate) fn keep_in_front<const N: usize>(&mut self, parts: [&str; N]) -> [usize; N] {
        debug_assert_eq!(self.skip, 0, "one prefix per set");
        let mut ends = [0; N];
        let mut front = 0;
        for (end, part) in ends.iter_mut().zip(parts) {
            self.buf.insert_str(front, part);
            front += part.len();
            *end = front;
        }
        self.skip = front;
        ends
    }

    /// The bytes [`Headers::keep_in_front`] kept.
    pub(crate) fn front(&self) -> &str {
        &self.buf[..self.skip]
    }

    fn lines(&self) -> &str {
        &self.buf[self.skip..]
    }

    /// Append a header (duplicates allowed, e.g. `Set-Cookie`).
    pub fn push(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let (name, value) = (name.as_ref(), value.as_ref());
        debug_assert!(!name.contains(':') && !value.contains('\n'), "{name}: {value}");
        if self.buf.capacity() == 0 {
            self.buf.reserve(FIRST_CAPACITY.max(name.len() + value.len() + 4));
        }
        self.buf.push_str(name);
        self.buf.push_str(": ");
        self.buf.push_str(value);
        self.buf.push_str("\r\n");
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v)
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.iter().filter(move |(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v)
    }

    /// Replace all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        while let Some(at) = self.find(name) {
            let at = self.skip + at;
            let end = self.buf[at..].find("\r\n").map_or(self.buf.len(), |e| at + e + 2);
            self.buf.replace_range(at..end, "");
        }
        self.push(name, value);
    }

    /// Byte offset of the first line named `name`.
    fn find(&self, name: &str) -> Option<usize> {
        let mut at = 0;
        for line in self.lines().split_inclusive("\r\n") {
            if line.split_once(':').is_some_and(|(n, _)| n.eq_ignore_ascii_case(name)) {
                return Some(at);
            }
            at += line.len();
        }
        None
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.lines().matches("\r\n").count()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.lines().is_empty()
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.lines().split_terminator("\r\n").map(|l| l.split_once(": ").unwrap_or((l, "")))
    }

    /// `Content-Length`, when present and numeric.
    pub fn content_length(&self) -> Option<u64> {
        self.get("content-length")?.trim().parse().ok()
    }

    /// The lines as they go on the wire, each ending in `\r\n`.
    pub fn as_wire(&self) -> &[u8] {
        self.lines().as_bytes()
    }

    /// The buffer behind [`Headers::as_wire`], to write more bytes around
    /// the lines (a head serialized on its own).
    pub(crate) fn into_string(mut self) -> String {
        self.buf.drain(..self.skip);
        self.buf
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Headers) -> bool {
        self.lines() == other.lines()
    }
}

impl Eq for Headers {}

impl std::fmt::Debug for Headers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = Headers::new();
        h.push("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn duplicates_preserved_and_get_all() {
        let mut h = Headers::new();
        h.push("X-A", "1");
        h.push("x-a", "2");
        assert_eq!(h.get("X-A"), Some("1"));
        assert_eq!(h.get_all("X-a").collect::<Vec<_>>(), vec!["1", "2"]);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn set_replaces_all() {
        let mut h = Headers::new();
        h.push("X-A", "1");
        h.push("X-A", "2");
        h.set("x-a", "3");
        assert_eq!(h.get_all("X-A").collect::<Vec<_>>(), vec!["3"]);
    }

    #[test]
    fn content_length_parsing() {
        let mut h = Headers::new();
        assert_eq!(h.content_length(), None);
        h.set("Content-Length", " 1234 ");
        assert_eq!(h.content_length(), Some(1234));
        h.set("Content-Length", "bogus");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mut h = Headers::new();
        h.push("B", "2");
        h.push("A", "1");
        let names: Vec<_> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["B", "A"]);
    }
}
