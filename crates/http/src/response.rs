//! Response construction and wire serialization.
//!
//! Serialization comes in two shapes:
//!
//! * [`Response::to_bytes`] — one contiguous buffer, head and body. Simple,
//!   but it copies the body: a cached 1.5 MB document is duplicated for
//!   every concurrent response, which is exactly the memory traffic the
//!   `Bytes`-sharing file cache exists to avoid.
//! * [`Response::to_wire_parts`] — header bytes plus the body as a borrowed
//!   [`Bytes`] handle (an O(1) refcount clone). A vectored transmit path
//!   (`sendmsg`) sends both without ever materializing the concatenation,
//!   so the only per-response allocation is the ~hundred-byte head.
//!
//! A head that many replies share — a cached document's — is serialized
//! once as a [`Head`]: a reply built on one ([`Response::with_head`])
//! writes only its own header lines, into the head's gap, and a vectored
//! transmit gathers the shared bytes as they are
//! ([`Response::into_wire`]). A reply's own lines are held as they go on
//! the wire ([`Headers::as_wire`]), so that gap is the lines' buffer
//! itself, and the error and redirect replies share heads built once per
//! status. Either way the bytes on the wire are the ones
//! [`Response::head_bytes`] writes.

use std::cell::Cell;

use bytes::Bytes;

use crate::headers::Headers;
use crate::status::StatusCode;

thread_local! {
    /// Per-thread count of body payloads copied into a contiguous wire
    /// buffer (test instrumentation for the zero-copy transmit path).
    static BODY_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// How many non-empty response bodies the **current thread** has copied
/// into a contiguous buffer via [`Response::to_bytes`]. The zero-copy
/// serialization ([`Response::to_wire_parts`]) never increments this;
/// tests use the delta to prove a transmit path performed no body copy.
pub fn body_copies() -> u64 {
    BODY_COPIES.with(|c| c.get())
}

/// An HTTP/1.0 response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line code.
    pub status: StatusCode,
    /// Header lines (Content-Length is filled in by [`Response::to_bytes`]).
    /// With a [`Response::shared_head`], only the lines this reply adds,
    /// which go in that head's gap.
    pub headers: Headers,
    /// Body payload. `Bytes` so large file payloads are shared, not copied,
    /// between the cache and concurrent responses.
    pub body: Bytes,
    /// The head serialized once for every reply of a cached document, or
    /// `None`: the head is serialized from `status` and `headers`.
    pub shared_head: Option<Head>,
}

/// A response head serialized once and shared by many replies: the status
/// line and the headers fixed for the document, a gap where each reply's
/// own lines go, then `Server`, `Content-Length` and the blank line.
#[derive(Debug, Clone)]
pub struct Head {
    status: StatusCode,
    bytes: Bytes,
    gap: usize,
}

impl Head {
    /// Serialize `resp`'s head once, with the gap after its header lines.
    /// The lines a reply later writes into the gap must not include
    /// `Server` or `Content-Length`: the part after the gap already has
    /// them.
    pub fn of(resp: &Response) -> Head {
        let mut out = String::with_capacity(160);
        out.push_str(resp.status.line());
        out.push_str(std::str::from_utf8(resp.headers.as_wire()).expect("header lines are text"));
        let gap = out.len();
        push_tail(&mut out, Pinned::of(&resp.headers), resp.body.len());
        Head { status: resp.status, bytes: Bytes::from(out), gap }
    }

    /// The bytes before the gap.
    pub fn before_gap(&self) -> &[u8] {
        &self.bytes[..self.gap]
    }

    /// The bytes after the gap, through the blank line.
    pub fn after_gap(&self) -> &[u8] {
        &self.bytes[self.gap..]
    }
}

/// Which of the lines [`push_tail`] adds a header set already pinned.
#[derive(Clone, Copy)]
struct Pinned {
    server: bool,
    length: bool,
}

impl Pinned {
    fn of(headers: &Headers) -> Pinned {
        let mut pinned = Pinned { server: false, length: false };
        for (name, _) in headers.iter() {
            pinned.server |= name.eq_ignore_ascii_case("server");
            pinned.length |= name.eq_ignore_ascii_case("content-length");
        }
        pinned
    }
}

/// Append `n` in decimal, with no allocation of its own.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append the `Server` and `Content-Length` lines the header set did not
/// pin, and the blank line that ends the head.
fn push_tail(out: &mut String, pinned: Pinned, body_len: usize) {
    if !pinned.server {
        out.push_str("Server: SWEB/0.1 (NCSA-derived)\r\n");
    }
    if !pinned.length {
        out.push_str("Content-Length: ");
        push_decimal(out, body_len as u64);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
}

/// The head and body `build` makes for `status`, made once per process
/// and shared by every reply of that status after.
fn built_once(
    status: StatusCode,
    build: impl FnOnce() -> Response,
) -> (Head, Bytes) {
    use std::sync::OnceLock;
    static BUILT: [OnceLock<(Head, Bytes)>; StatusCode::COUNT] =
        [const { OnceLock::new() }; StatusCode::COUNT];
    let (head, body) = BUILT[status.index()].get_or_init(|| {
        let resp = build();
        (Head::of(&resp), resp.body)
    });
    (head.clone(), body.clone())
}

impl Response {
    /// A `200 OK` carrying `body` with the given MIME type.
    pub fn ok(body: impl Into<Bytes>, content_type: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Response { status: StatusCode::Ok, headers, body: body.into(), shared_head: None }
    }

    /// A reply with `head`'s status and head, carrying `body` (the body
    /// the head was serialized for), with no header lines of its own yet.
    pub fn with_head(head: Head, body: Bytes) -> Response {
        Response { status: head.status, headers: Headers::new(), body, shared_head: Some(head) }
    }

    /// A bodiless reply with `status` and no header lines yet.
    pub fn empty(status: StatusCode) -> Response {
        Response { status, headers: Headers::new(), body: Bytes::new(), shared_head: None }
    }

    /// SWEB's scheduling primitive: a `302 Found` sending the client to the
    /// same document on `peer_base` (e.g. `http://node3.cluster:8080`),
    /// with the redirect-once marker appended to the target. The status
    /// line, the tail and the body are one head shared by every 302; the
    /// reply writes its `Location` and `Content-Type` into the gap.
    pub fn redirect_to_peer(peer_base: &str, target: &str) -> Response {
        let (head, body) = built_once(StatusCode::Found, || {
            let body = "<HTML><HEAD><TITLE>302 Found</TITLE></HEAD>\
                 <BODY>Document relocated to a less loaded server.</BODY></HTML>";
            Response { body: Bytes::from_static(body.as_bytes()), ..Response::empty(StatusCode::Found) }
        });
        let base = peer_base.trim_end_matches('/');
        let mut location = String::with_capacity(base.len() + target.len() + 24);
        location.push_str(base);
        location.push_str(target);
        location.push(if target.contains('?') { '&' } else { '?' });
        location.push_str(crate::url::REDIRECT_MARKER);
        let mut resp = Response::with_head(head, body);
        resp.headers.push("Location", &location);
        resp.headers.push("Content-Type", "text/html");
        resp
    }

    /// An error response with a small HTML body: one head and body per
    /// status, built once and shared.
    pub fn error(status: StatusCode) -> Response {
        let (head, body) = built_once(status, || {
            let mut headers = Headers::new();
            headers.set("Content-Type", "text/html");
            let body = format!(
                "<HTML><HEAD><TITLE>{status}</TITLE></HEAD><BODY><H1>{status}</H1></BODY></HTML>"
            );
            Response { status, headers, body: body.into(), shared_head: None }
        });
        Response::with_head(head, body)
    }

    /// The load-shedding answer: `503` telling the client to come back in
    /// `retry_after_secs`, on a connection about to close. A definite
    /// refusal the client can act on beats an open socket that never
    /// answers.
    pub fn unavailable(retry_after_secs: u64) -> Response {
        let mut resp = Response::error(StatusCode::ServiceUnavailable);
        resp.headers.set("Retry-After", retry_after_secs.to_string());
        resp.headers.set("Connection", "close");
        resp
    }

    /// Serialize the status line, headers (with `Content-Length` and
    /// `Server` filled in) and the terminating blank line — no body bytes.
    /// `Content-Length` still describes the body (HEAD semantics), unless
    /// an explicit header already pinned it (e.g. a streamed file body).
    ///
    /// With a [`Response::shared_head`], that head with `headers` written
    /// into its gap.
    pub fn head_bytes(&self) -> Vec<u8> {
        let lines = self.headers.as_wire();
        match &self.shared_head {
            Some(head) => [head.before_gap(), lines, head.after_gap()].concat(),
            None => {
                let mut out = String::with_capacity(lines.len() + 96);
                out.push_str(self.status.line());
                out.push_str(std::str::from_utf8(lines).expect("header lines are text"));
                push_tail(&mut out, Pinned::of(&self.headers), self.body.len());
                out.into_bytes()
            }
        }
    }

    /// The reply in the pieces a vectored write gathers: the shared head,
    /// if there is one; the bytes serialized for this reply alone — its
    /// header lines as they are, which go in the shared head's gap, or
    /// without one the whole head, written around those lines in their
    /// own buffer; and the body.
    pub fn into_wire(self) -> (Option<Head>, Vec<u8>, Bytes) {
        if self.shared_head.is_some() {
            return (self.shared_head, self.headers.into_string().into_bytes(), self.body);
        }
        let pinned = Pinned::of(&self.headers);
        let mut out = self.headers.into_string();
        out.insert_str(0, self.status.line());
        push_tail(&mut out, pinned, self.body.len());
        (None, out.into_bytes(), self.body)
    }

    /// Zero-copy serialization: the head as owned bytes and the body as a
    /// shared [`Bytes`] handle (refcount bump, no byte copy). `head_only`
    /// yields an empty body (HEAD) while `Content-Length` keeps describing
    /// the full document.
    pub fn to_wire_parts(&self, head_only: bool) -> (Vec<u8>, Bytes) {
        let head = self.head_bytes();
        let body = if head_only { Bytes::new() } else { self.body.clone() };
        (head, body)
    }

    /// Serialize status line, headers (with `Content-Length` and `Server`
    /// filled in), blank line and body. `head_only` omits the body (HEAD).
    pub fn to_bytes(&self, head_only: bool) -> Vec<u8> {
        let mut out = self.head_bytes();
        if !head_only && !self.body.is_empty() {
            BODY_COPIES.with(|c| c.set(c.get() + 1));
            out.reserve(self.body.len());
            out.extend_from_slice(&self.body);
        }
        out
    }

    /// The `Location` header, for redirect responses.
    pub fn location(&self) -> Option<&str> {
        self.headers.get("location")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_response_serializes() {
        let r = Response::ok("hello", "text/plain");
        let wire = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(wire.starts_with("HTTP/1.0 200 OK\r\n"), "{wire}");
        assert!(wire.contains("Content-Type: text/plain\r\n"));
        assert!(wire.contains("Content-Length: 5\r\n"));
        assert!(wire.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn head_omits_body_but_keeps_length() {
        let r = Response::ok("hello", "text/plain");
        let wire = String::from_utf8(r.to_bytes(true)).unwrap();
        assert!(wire.contains("Content-Length: 5\r\n"));
        assert!(wire.ends_with("\r\n\r\n"));
    }

    #[test]
    fn redirect_carries_marked_location() {
        let r = Response::redirect_to_peer("http://127.0.0.1:9002/", "/maps/g.gif?zoom=2");
        assert_eq!(r.status, StatusCode::Found);
        assert_eq!(
            r.location(),
            Some("http://127.0.0.1:9002/maps/g.gif?zoom=2&sweb-redirect=1")
        );
        let wire = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(wire.starts_with("HTTP/1.0 302 Found\r\n"));
    }

    #[test]
    fn error_bodies_mention_status() {
        let r = Response::error(StatusCode::NotFound);
        assert!(std::str::from_utf8(&r.body).unwrap().contains("404 Not Found"));
    }

    #[test]
    fn wire_parts_share_the_body_without_copying() {
        let payload = vec![b'z'; 64 * 1024];
        let r = Response::ok(payload.clone(), "application/octet-stream");
        let before = body_copies();
        let (head, body) = r.to_wire_parts(false);
        // No body copy happened (thread-local counter unmoved) and the
        // returned handle aliases the response's own buffer.
        assert_eq!(body_copies(), before, "to_wire_parts must not copy the body");
        assert_eq!(body.as_ptr(), r.body.as_ptr(), "body must be shared, not copied");
        // Head ‖ body is byte-identical to the contiguous serialization.
        let mut joined = head.clone();
        joined.extend_from_slice(&body);
        assert_eq!(joined, r.to_bytes(false));
        assert_eq!(body_copies(), before + 1, "to_bytes pays the copy");
        // HEAD keeps the length header but drops the payload.
        let (head, body) = r.to_wire_parts(true);
        assert!(body.is_empty());
        assert!(String::from_utf8(head).unwrap().contains("Content-Length: 65536\r\n"));
    }

    #[test]
    fn head_bytes_respects_explicit_content_length() {
        // A streamed-file response carries an empty in-memory body but an
        // explicit Content-Length for the file; head_bytes must not clobber
        // it with the body length (0).
        let mut r = Response::ok("", "application/octet-stream");
        r.headers.set("Content-Length", "1500000");
        let head = String::from_utf8(r.head_bytes()).unwrap();
        assert!(head.contains("Content-Length: 1500000\r\n"), "{head}");
        assert_eq!(head.matches("Content-Length").count(), 1, "{head}");
    }

    #[test]
    fn a_shared_head_takes_per_reply_lines_in_its_gap() {
        // What a cached document's reply looked like before its head was
        // shared: fixed lines, then the per-reply ones, then the tail.
        let mut whole = Response::ok("body bytes", "text/plain");
        whole.headers.set("X-Fixed", "1");
        let head = Head::of(&whole);
        whole.headers.set("X-Per-Reply", "abc");
        whole.headers.set("Connection", "Keep-Alive");

        let mut shared = Response::with_head(head.clone(), whole.body.clone());
        shared.headers.set("X-Per-Reply", "abc");
        shared.headers.set("Connection", "Keep-Alive");
        assert_eq!(shared.status, StatusCode::Ok);
        assert_eq!(shared.head_bytes(), whole.head_bytes());
        assert_eq!(shared.to_bytes(false), whole.to_bytes(false));
        assert_eq!(shared.to_wire_parts(true), whole.to_wire_parts(true));
        let (piece, lines, _) = shared.into_wire();
        let piece = piece.unwrap();
        assert_eq!(piece.before_gap().as_ptr(), head.before_gap().as_ptr(), "shared, not copied");
        assert_eq!(lines, b"X-Per-Reply: abc\r\nConnection: Keep-Alive\r\n");
        assert!(piece.after_gap().starts_with(b"Server: "));
        assert!(piece.after_gap().ends_with(b"Content-Length: 10\r\n\r\n"));
    }

    #[test]
    fn explicit_content_length_not_duplicated() {
        let mut r = Response::ok("abc", "text/plain");
        r.headers.set("Content-Length", "3");
        let wire = String::from_utf8(r.to_bytes(false)).unwrap();
        assert_eq!(wire.matches("Content-Length").count(), 1);
    }
}
