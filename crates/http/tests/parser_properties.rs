//! Property tests: parser robustness and round-trips.

use proptest::prelude::*;
use sweb_http::{mark_redirected, parse_request, sanitize_path, try_parse_request, Response};

/// Build a syntactically valid request from generated parts.
fn build_request(path_segs: &[String], header_vals: &[String]) -> (String, String) {
    let target = format!("/{}", path_segs.join("/"));
    let mut raw = format!("GET {target} HTTP/1.0\r\n");
    for (i, v) in header_vals.iter().enumerate() {
        raw.push_str(&format!("X-H{i}: {v}\r\n"));
    }
    raw.push_str("\r\n");
    (raw, target)
}

proptest! {
    /// The parser never panics on arbitrary bytes.
    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_request(&bytes);
    }

    /// try_parse_request never panics and never reports Malformed on a
    /// prefix that some suffix could still complete into a valid request
    /// (unless the prefix already exceeds the size cap).
    #[test]
    fn incremental_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = try_parse_request(&bytes);
    }

    /// Splitting a valid request at EVERY byte boundary: the prefix must
    /// parse as incomplete (no false Malformed, no premature success), and
    /// the reassembled whole must parse to the same request.
    #[test]
    fn valid_request_split_at_every_boundary(
        path_segs in proptest::collection::vec("[a-z0-9]{1,8}", 1..4),
        header_vals in proptest::collection::vec("[ -~&&[^:\r\n]]{0,16}", 0..4),
    ) {
        let (raw, target) = build_request(&path_segs, &header_vals);
        let bytes = raw.as_bytes();
        for cut in 0..bytes.len() {
            match try_parse_request(&bytes[..cut]) {
                Ok(None) => {}
                Ok(Some((req, used))) => {
                    // Only acceptable if the head genuinely ends early —
                    // it never does for our canonical builder.
                    return Err(TestCaseError::fail(format!(
                        "premature parse at {cut}/{}: {req:?} used={used}",
                        bytes.len()
                    )));
                }
                Err(m) => {
                    return Err(TestCaseError::fail(format!(
                        "false malformed {m:?} at prefix {cut}/{}",
                        bytes.len()
                    )));
                }
            }
        }
        let (req, used) = try_parse_request(bytes).unwrap().expect("whole request parses");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(req.target(), target.as_str());
    }

    /// Feeding a valid request in random chunks: accumulating into a carry
    /// buffer and re-trying after each chunk must succeed exactly once the
    /// last needed byte arrives, and agree with the one-shot parse.
    #[test]
    fn random_chunking_agrees_with_oneshot(
        path_segs in proptest::collection::vec("[a-z0-9]{1,8}", 1..4),
        header_vals in proptest::collection::vec("[ -~&&[^:\r\n]]{0,16}", 0..4),
        chunk_sizes in proptest::collection::vec(1usize..24, 1..64),
    ) {
        let (raw, _) = build_request(&path_segs, &header_vals);
        let bytes = raw.as_bytes();
        let (whole, whole_used) = parse_request(bytes).expect("one-shot parses");

        let mut carry: Vec<u8> = Vec::new();
        let mut offset = 0;
        let mut sizes = chunk_sizes.iter().cycle();
        let mut parsed = None;
        while offset < bytes.len() {
            let n = (*sizes.next().unwrap()).min(bytes.len() - offset);
            carry.extend_from_slice(&bytes[offset..offset + n]);
            offset += n;
            match try_parse_request(&carry) {
                Ok(None) => prop_assert!(offset < bytes.len(), "complete buffer must parse"),
                Ok(Some(done)) => {
                    prop_assert_eq!(offset, bytes.len(), "must finish exactly at the end");
                    parsed = Some(done);
                    break;
                }
                Err(m) => return Err(TestCaseError::fail(format!("malformed mid-stream: {m:?}"))),
            }
        }
        let (req, used) = parsed.expect("chunked parse completed");
        prop_assert_eq!(used, whole_used);
        prop_assert_eq!(req.target(), whole.target());
        prop_assert_eq!(req.version(), whole.version());
    }

    /// Any request we serialize ourselves parses back to the same target
    /// and headers.
    #[test]
    fn request_round_trip(
        path_segs in proptest::collection::vec("[a-z0-9]{1,8}", 1..5),
        header_vals in proptest::collection::vec("[ -~&&[^:\r\n]]{0,20}", 0..5),
    ) {
        let (raw, target) = build_request(&path_segs, &header_vals);
        let (req, used) = parse_request(raw.as_bytes()).expect("self-built request must parse");
        prop_assert_eq!(used, raw.len());
        prop_assert_eq!(req.target(), target.as_str());
        for (i, v) in header_vals.iter().enumerate() {
            prop_assert_eq!(req.headers().get(&format!("X-H{i}")), Some(v.trim()));
        }
    }

    /// sanitize_path output, when Some, never contains `..` segments and
    /// always starts with `/`.
    #[test]
    fn sanitized_paths_are_rooted_and_clean(path in "[ -~]{0,64}") {
        if let Some(p) = sanitize_path(&path) {
            prop_assert!(p.starts_with('/'), "not rooted: {p}");
            prop_assert!(!p.split('/').any(|s| s == ".."), "traversal survived: {p}");
            prop_assert!(!p.contains("//"), "duplicate slash survived: {p}");
            // Idempotent: sanitizing again is a no-op (percent-decoding
            // aside, our outputs contain no escapes to re-decode unless the
            // decoded text itself contains '%', which we skip).
            if !p.contains('%') {
                let again = sanitize_path(&p);
                prop_assert_eq!(again.as_deref(), Some(&*p));
            }
        }
    }

    /// Marked targets are always detected as redirected, and serialized
    /// redirect responses parse as valid Location headers.
    #[test]
    fn redirect_marker_detected(path_segs in proptest::collection::vec("[a-z0-9]{1,6}", 1..4)) {
        let target = format!("/{}", path_segs.join("/"));
        let marked = mark_redirected(&target);
        prop_assert!(sweb_http::is_redirected(&marked));
        let resp = Response::redirect_to_peer("http://127.0.0.1:9000", &target);
        let loc = resp.location().unwrap();
        prop_assert!(loc.starts_with("http://127.0.0.1:9000/"));
        prop_assert!(loc.ends_with("sweb-redirect=1"));
    }
}
