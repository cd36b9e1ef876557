//! Request parsing from raw bytes.

use crate::headers::Headers;
use crate::request::{Method, Request};

/// Why a request failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The byte buffer does not yet contain the terminating blank line.
    Incomplete,
    /// Request line or headers are not valid ASCII/UTF-8.
    NotUtf8,
    /// The request line is malformed.
    BadRequestLine,
    /// A header line has no `:` separator.
    BadHeader,
    /// The request exceeds sane size limits (guards memory).
    TooLarge,
}

impl ParseError {
    /// True for the terminal errors — ones more bytes cannot cure.
    pub fn is_malformed(&self) -> bool {
        !matches!(self, ParseError::Incomplete)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ParseError::Incomplete => "incomplete request (no blank line yet)",
            ParseError::NotUtf8 => "request is not valid UTF-8",
            ParseError::BadRequestLine => "malformed request line",
            ParseError::BadHeader => "malformed header line",
            ParseError::TooLarge => "request head too large",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParseError {}

/// A *terminal* parse failure: the bytes seen so far already prove the
/// request can never parse, no matter what arrives next. Distinct from
/// [`ParseError::Incomplete`], which only means "read more".
///
/// Incremental callers (the reactor's per-connection state machine) use
/// [`try_parse_request`], which separates the two cases in its type:
/// `Ok(None)` to keep reading, `Err(Malformed)` to answer 400 and close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// Request line or headers are not valid ASCII/UTF-8.
    NotUtf8,
    /// The request line is malformed.
    BadRequestLine,
    /// A header line has no `:` separator.
    BadHeader,
    /// The head exceeds `MAX_HEAD_BYTES` — terminal even without a blank
    /// line, since further bytes only grow it.
    TooLarge,
}

impl From<Malformed> for ParseError {
    fn from(m: Malformed) -> ParseError {
        match m {
            Malformed::NotUtf8 => ParseError::NotUtf8,
            Malformed::BadRequestLine => ParseError::BadRequestLine,
            Malformed::BadHeader => ParseError::BadHeader,
            Malformed::TooLarge => ParseError::TooLarge,
        }
    }
}

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        ParseError::from(*self).fmt(f)
    }
}

impl std::error::Error for Malformed {}

/// Maximum size of the request head (request line + headers) we accept.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Parse an HTTP/1.0 request head from `buf`.
///
/// On success returns the request and the number of bytes consumed
/// (including the blank line). Supports both `\r\n` and bare `\n` line
/// endings (old clients), and HTTP/0.9 simple requests (`GET /path` with no
/// version and no headers).
///
/// ```
/// use sweb_http::{parse_request, Method};
///
/// let raw = b"GET /maps/goleta.gif HTTP/1.0\r\nHost: alexandria\r\n\r\n";
/// let (req, used) = parse_request(raw).unwrap();
/// assert_eq!(req.method, Method::Get);
/// assert_eq!(req.path().as_deref(), Some("/maps/goleta.gif"));
/// assert_eq!(used, raw.len());
/// ```
pub fn parse_request(buf: &[u8]) -> Result<(Request, usize), ParseError> {
    match try_parse_request(buf) {
        Ok(Some(parsed)) => Ok(parsed),
        Ok(None) => Err(ParseError::Incomplete),
        Err(m) => Err(m.into()),
    }
}

/// Incremental variant of [`parse_request`] for callers that feed the
/// parser partial reads: `Ok(None)` means the head is not finished yet
/// (keep the buffer, read more bytes, call again); `Err` means the bytes
/// already seen can never become a valid request.
///
/// ```
/// use sweb_http::try_parse_request;
///
/// let raw = b"GET /doc HTTP/1.0\r\nHost: sweb\r\n\r\n";
/// assert!(try_parse_request(&raw[..10]).unwrap().is_none()); // keep reading
/// let (req, used) = try_parse_request(raw).unwrap().unwrap();
/// assert_eq!(req.target(), "/doc");
/// assert_eq!(used, raw.len());
/// ```
pub fn try_parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, Malformed> {
    // Find end of head: \r\n\r\n or \n\n (or a lone request line for 0.9 —
    // handled by the caller reading until EOF; we still require a newline).
    let Some(head_end) = find_head_end(buf) else {
        return if buf.len() > MAX_HEAD_BYTES { Err(Malformed::TooLarge) } else { Ok(None) };
    };
    if head_end.consumed > MAX_HEAD_BYTES {
        return Err(Malformed::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end.head_len]).map_err(|_| Malformed::NotUtf8)?;

    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().ok_or(Malformed::BadRequestLine)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method_tok = parts.next().ok_or(Malformed::BadRequestLine)?;
    let target = parts.next().ok_or(Malformed::BadRequestLine)?;
    let version = parts.next().unwrap_or(""); // HTTP/0.9 simple request
    if parts.next().is_some() {
        return Err(Malformed::BadRequestLine);
    }
    if !version.is_empty() && !version.starts_with("HTTP/") {
        return Err(Malformed::BadRequestLine);
    }
    if !target.starts_with('/') && target != "*" {
        return Err(Malformed::BadRequestLine);
    }

    // One buffer for every line: the head's own bytes, trimmed, bound it.
    let mut headers = Headers::with_capacity(head.len() + 16);
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(Malformed::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(Malformed::BadHeader);
        }
        headers.push(name.trim(), value.trim());
    }

    let method = Method::from_token(method_tok);
    Ok(Some((Request::with_headers(method, target, version, headers), head_end.consumed)))
}

struct HeadEnd {
    /// Length of the head excluding the terminating blank line.
    head_len: usize,
    /// Bytes consumed including the terminator.
    consumed: usize,
}

fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    // Scan for \n\r\n or \n\n after the first line.
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(HeadEnd { head_len: i + 1, consumed: i + 2 });
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(HeadEnd { head_len: i + 1, consumed: i + 3 });
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_get() {
        let raw = b"GET /index.html HTTP/1.0\r\nHost: sweb.ucsb.edu\r\nUser-Agent: Netscape/2.0\r\n\r\n";
        let (req, used) = parse_request(raw).unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target(), "/index.html");
        assert_eq!(req.version(), "HTTP/1.0");
        assert_eq!(req.headers().get("host"), Some("sweb.ucsb.edu"));
        assert_eq!(used, raw.len());
    }

    #[test]
    fn parses_bare_lf_lines() {
        let raw = b"GET /a HTTP/1.0\nHost: x\n\n";
        let (req, used) = parse_request(raw).unwrap();
        assert_eq!(req.target(), "/a");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn parses_http09_simple_request() {
        let raw = b"GET /plain\n\n";
        let (req, _) = parse_request(raw).unwrap();
        assert_eq!(req.version(), "");
        assert_eq!(req.target(), "/plain");
    }

    #[test]
    fn incomplete_returns_incomplete() {
        assert_eq!(parse_request(b"GET / HTTP/1.0\r\nHost:").unwrap_err(), ParseError::Incomplete);
        assert_eq!(parse_request(b"").unwrap_err(), ParseError::Incomplete);
    }

    #[test]
    fn trailing_bytes_not_consumed() {
        let raw = b"GET / HTTP/1.0\r\n\r\nEXTRA";
        let (_, used) = parse_request(raw).unwrap();
        assert_eq!(used, raw.len() - 5);
    }

    #[test]
    fn malformed_request_lines_rejected() {
        assert_eq!(parse_request(b"GET\r\n\r\n").unwrap_err(), ParseError::BadRequestLine);
        assert_eq!(
            parse_request(b"GET / HTTP/1.0 junk\r\n\r\n").unwrap_err(),
            ParseError::BadRequestLine
        );
        assert_eq!(
            parse_request(b"GET nopath HTTP/1.0\r\n\r\n").unwrap_err(),
            ParseError::BadRequestLine
        );
        assert_eq!(
            parse_request(b"GET / FTP/1.0\r\n\r\n").unwrap_err(),
            ParseError::BadRequestLine
        );
    }

    #[test]
    fn malformed_headers_rejected() {
        assert_eq!(
            parse_request(b"GET / HTTP/1.0\r\nNoColonHere\r\n\r\n").unwrap_err(),
            ParseError::BadHeader
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.0\r\nBad Name: x\r\n\r\n").unwrap_err(),
            ParseError::BadHeader
        );
    }

    #[test]
    fn post_and_unknown_methods_parse() {
        let raw = b"POST /form HTTP/1.0\r\n\r\n";
        let (req, _) = parse_request(raw).unwrap();
        assert_eq!(req.method, Method::Post);
        assert!(req.method.is_supported());
        let raw = b"DELETE /x HTTP/1.0\r\n\r\n";
        let (req, _) = parse_request(raw).unwrap();
        assert_eq!(req.method, Method::Other);
        assert!(!req.method.is_supported());
    }

    #[test]
    fn oversized_head_rejected() {
        let mut raw = b"GET / HTTP/1.0\r\n".to_vec();
        for i in 0..2000 {
            raw.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(20)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse_request(&raw).unwrap_err(), ParseError::TooLarge);
    }

    #[test]
    fn non_utf8_rejected() {
        let raw = b"GET /\xff\xfe HTTP/1.0\r\n\r\n";
        assert_eq!(parse_request(raw).unwrap_err(), ParseError::NotUtf8);
    }

    #[test]
    fn try_parse_separates_incomplete_from_malformed() {
        // Every proper prefix of a valid request is Ok(None), never Err.
        let raw = b"GET /maps/goleta.gif HTTP/1.0\r\nHost: alexandria\r\n\r\n";
        for cut in 0..raw.len() {
            assert!(
                matches!(try_parse_request(&raw[..cut]), Ok(None)),
                "prefix of {cut} bytes"
            );
        }
        let (req, used) = try_parse_request(raw).unwrap().unwrap();
        assert_eq!(req.target(), "/maps/goleta.gif");
        assert_eq!(used, raw.len());
        // A completed-but-bad head is terminal.
        assert_eq!(
            try_parse_request(b"GET nopath HTTP/1.0\r\n\r\n").unwrap_err(),
            Malformed::BadRequestLine
        );
        // Oversize without a terminator is terminal too: more bytes only grow it.
        let huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(try_parse_request(&huge).unwrap_err(), Malformed::TooLarge);
    }

    #[test]
    fn malformed_maps_onto_parse_error() {
        for (m, e) in [
            (Malformed::NotUtf8, ParseError::NotUtf8),
            (Malformed::BadRequestLine, ParseError::BadRequestLine),
            (Malformed::BadHeader, ParseError::BadHeader),
            (Malformed::TooLarge, ParseError::TooLarge),
        ] {
            assert_eq!(ParseError::from(m), e);
            assert!(ParseError::from(m).is_malformed());
            assert_eq!(m.to_string(), e.to_string());
        }
        assert!(!ParseError::Incomplete.is_malformed());
    }
}
