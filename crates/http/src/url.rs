//! URL path handling: query splitting, normalization, traversal guard, and
//! SWEB's redirect-once marker.

use std::borrow::Cow;

/// The query marker SWEB appends when issuing a 302 to a peer, so the
/// receiving node knows the request must be served locally. The paper
/// (§3.1): "Any HTTP request is not allowed to be redirected more than once
/// to avoid the ping-pong effect."
pub const REDIRECT_MARKER: &str = "sweb-redirect=1";

/// Split a request target into `(path, query)` at the first `?`.
pub fn split_query(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    }
}

/// Normalize a URL path: resolve `.` and `..` segments, collapse duplicate
/// slashes, percent-decode, and reject anything escaping the document root.
/// Returns `None` for traversal attempts or malformed escapes. A path
/// already in normal form (what a client almost always sends) is returned
/// as it is, borrowed.
pub fn sanitize_path(path: &str) -> Option<Cow<'_, str>> {
    if is_normal(path) {
        return Some(Cow::Borrowed(path));
    }
    let decoded = percent_decode(path)?;
    if decoded.contains('\0') {
        return None;
    }
    let mut out: Vec<&str> = Vec::new();
    for seg in decoded.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop()?;
            }
            s => out.push(s),
        }
    }
    let mut s = String::with_capacity(decoded.len() + 1);
    s.push('/');
    s.push_str(&out.join("/"));
    Some(Cow::Owned(s))
}

/// Whether `path` is its own normal form: `/`, or `/`-separated segments
/// none of which is empty, `.` or `..`, with no escape and no NUL.
fn is_normal(path: &str) -> bool {
    let Some(rest) = path.strip_prefix('/') else { return false };
    rest.is_empty()
        || (!path.contains(['%', '\0'])
            && rest.split('/').all(|seg| !matches!(seg, "" | "." | "..")))
}

/// Percent-decode (`%41` → `A`). Returns `None` on malformed escapes.
/// ASCII-only decoding is enough for the paper's file-path URLs.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = char::from(*bytes.get(i + 1)?).to_digit(16)?;
            let lo = char::from(*bytes.get(i + 2)?).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The query key carrying a request's trace id across a 302 hop. Clients
/// do not forward response headers, so the only channel that survives a
/// redirect is the Location URL itself; the receiving node lifts the id
/// back out and both nodes log the same trace for one logical request.
pub const TRACE_KEY: &str = "sweb-trace";

/// Append `sweb-trace=<id>` to a request target.
pub fn mark_trace(target: &str, id: &str) -> String {
    if target.contains('?') {
        format!("{target}&{TRACE_KEY}={id}")
    } else {
        format!("{target}?{TRACE_KEY}={id}")
    }
}

/// The trace id carried by a request target, if any.
pub fn trace_of(target: &str) -> Option<&str> {
    split_query(target).1?.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == TRACE_KEY && !v.is_empty()).then_some(v)
    })
}

/// Append the redirect-once marker to a request target.
pub fn mark_redirected(target: &str) -> String {
    if target.contains('?') {
        format!("{target}&{REDIRECT_MARKER}")
    } else {
        format!("{target}?{REDIRECT_MARKER}")
    }
}

/// Whether a request target carries the redirect-once marker.
pub fn is_redirected(target: &str) -> bool {
    match split_query(target).1 {
        Some(q) => q.split('&').any(|kv| kv == REDIRECT_MARKER),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_query_basics() {
        assert_eq!(split_query("/a/b"), ("/a/b", None));
        assert_eq!(split_query("/a?x=1"), ("/a", Some("x=1")));
        assert_eq!(split_query("/a?x=1?y=2"), ("/a", Some("x=1?y=2")));
    }

    #[test]
    fn sanitize_normalizes() {
        assert_eq!(sanitize_path("/a/b/c").as_deref(), Some("/a/b/c"));
        assert_eq!(sanitize_path("//a///b/").as_deref(), Some("/a/b"));
        assert_eq!(sanitize_path("/a/./b").as_deref(), Some("/a/b"));
        assert_eq!(sanitize_path("/a/x/../b").as_deref(), Some("/a/b"));
        assert_eq!(sanitize_path("/").as_deref(), Some("/"));
        assert_eq!(sanitize_path("").as_deref(), Some("/"));
    }

    #[test]
    fn a_normal_path_is_borrowed() {
        for path in ["/", "/a", "/maps/goleta.gif", "/a.b/c..d"] {
            assert!(matches!(sanitize_path(path), Some(Cow::Borrowed(p)) if p == path), "{path}");
        }
        for path in ["", "//a", "/a/", "/a/./b", "/a/../b", "/%41"] {
            assert!(matches!(sanitize_path(path), None | Some(Cow::Owned(_))), "{path}");
        }
    }

    #[test]
    fn sanitize_rejects_traversal() {
        assert_eq!(sanitize_path("/.."), None);
        assert_eq!(sanitize_path("/../x"), None);
        assert_eq!(sanitize_path("/a/../../x"), None);
        // Encoded traversal must also be caught.
        assert_eq!(sanitize_path("/%2e%2e/etc"), None);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(sanitize_path("/a%20b").as_deref(), Some("/a b"));
        assert_eq!(sanitize_path("/%41").as_deref(), Some("/A"));
        assert_eq!(sanitize_path("/bad%zz"), None);
        assert_eq!(sanitize_path("/trunc%4"), None);
        assert_eq!(sanitize_path("/nul%00"), None);
    }

    #[test]
    fn redirect_marker_round_trip() {
        let t = "/maps/x.gif";
        let m = mark_redirected(t);
        assert_eq!(m, "/maps/x.gif?sweb-redirect=1");
        assert!(is_redirected(&m));
        let t2 = "/maps/x.gif?zoom=2";
        let m2 = mark_redirected(t2);
        assert_eq!(m2, "/maps/x.gif?zoom=2&sweb-redirect=1");
        assert!(is_redirected(&m2));
        assert!(!is_redirected(t2));
        // Unrelated keys do not count.
        assert!(!is_redirected("/x?sweb-redirect=2"));
        assert!(!is_redirected("/x?asweb-redirect=1"));
    }

    #[test]
    fn trace_marker_round_trip() {
        let m = mark_trace("/maps/x.gif", "n0-1a2b-3c");
        assert_eq!(m, "/maps/x.gif?sweb-trace=n0-1a2b-3c");
        assert_eq!(trace_of(&m), Some("n0-1a2b-3c"));
        // Composes with the redirect-once marker in either order.
        let both = mark_redirected(&m);
        assert!(is_redirected(&both));
        assert_eq!(trace_of(&both), Some("n0-1a2b-3c"));
        assert_eq!(trace_of("/maps/x.gif"), None);
        assert_eq!(trace_of("/x?sweb-trace="), None, "empty id does not count");
        assert_eq!(trace_of("/x?asweb-trace=1"), None);
    }
}
