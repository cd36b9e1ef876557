//! The peer transfer channel: node-to-node movement of document bytes.
//!
//! SWEB's only remedy for a misrouted request is a 302 back to the
//! client (§3.1), which charges every cost-model miss a full client
//! round trip. This crate gives nodes a second option: a persistent TCP
//! channel between cluster members carrying a small length-prefixed,
//! versioned protocol with two verbs —
//!
//! * `FETCH` — pull one document by `FileId`-and-path from a peer's
//!   cache/disk (the losing side of a placement decision pulls the bytes
//!   instead of bouncing the client), and
//! * `PUSH` — proactively replicate a hot document into a peer's cache
//!   ahead of demand (the digest-driven replicator).
//!
//! The channel is deliberately dumb: no multiplexing, one outstanding
//! request per pooled connection, explicit deadlines on every phase.
//! Robustness rules mirror the loadd datagram codec: unknown versions
//! are a skew error (counted, never fatal to the node), truncated or
//! garbled frames close the connection, and every decode failure is
//! typed so the server can count it like `loadd_decode_errors`.
//!
//! (`FileId`s are u64 file keys — the same FNV-1a namespace the striped
//! file cache and the loadd Bloom digests use.)

#![warn(missing_docs)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Frame magic: distinguishes the peer channel from a stray HTTP client
/// ("SP" = SWEB peer; loadd datagrams use "SW").
pub const MAGIC: [u8; 2] = *b"SP";

/// Current protocol version. A receiver drops the connection (with a
/// typed [`FrameError::VersionSkew`]) on any other value rather than
/// guessing at an unknown layout.
pub const VERSION: u8 = 1;

/// Fixed header: magic (2) + version (1) + opcode (1) + payload length
/// (4, little-endian).
pub const HEADER_LEN: usize = 8;

/// Upper bound on one frame's payload. Documents bigger than this are
/// never peer-transferred (they would not fit a cache segment anyway);
/// a larger declared length is a garbled or hostile frame.
pub const MAX_PAYLOAD: u32 = 8 << 20;

const OP_FETCH_REQ: u8 = 1;
const OP_FETCH_OK: u8 = 2;
const OP_FETCH_ERR: u8 = 3;
const OP_PUSH: u8 = 4;
const OP_PUSH_OK: u8 = 5;

/// `FETCH` error codes carried by [`Frame::FetchErr`].
pub mod fetch_err {
    /// The peer could not read the document (missing, unreadable).
    pub const NOT_FOUND: u8 = 1;
    /// The document exceeds [`super::MAX_PAYLOAD`].
    pub const TOO_LARGE: u8 = 2;
    /// The peer is draining or shutting down.
    pub const UNAVAILABLE: u8 = 3;
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Pull a document. `trace` is the originating request's
    /// `X-SWEB-Trace` id so the serving peer's access log carries the
    /// same id as the origin's (cross-node request tracing).
    FetchReq {
        /// FNV-1a key of `path` (integrity cross-check).
        file: u64,
        /// Originating request's trace id (may be empty).
        trace: String,
        /// Docroot-relative path of the document.
        path: String,
    },
    /// Successful fetch: document body plus the metadata the striped
    /// cache needs to insert it (exact nanosecond mtime, so a later
    /// local `stat` revalidation hits).
    FetchOk {
        /// Echo of the requested file key.
        file: u64,
        /// File mtime, nanoseconds since the Unix epoch.
        mtime_ns: u64,
        /// Document bytes.
        body: Vec<u8>,
    },
    /// Fetch failed on the serving side (see [`fetch_err`]).
    FetchErr {
        /// One of the [`fetch_err`] codes.
        code: u8,
    },
    /// Replicate a document into the receiver's cache.
    Push {
        /// FNV-1a key of `path`.
        file: u64,
        /// File mtime, nanoseconds since the Unix epoch.
        mtime_ns: u64,
        /// Docroot-relative path of the document.
        path: String,
        /// Document bytes.
        body: Vec<u8>,
    },
    /// Push acknowledged. `accepted` is false when the receiver declined
    /// (body larger than a cache segment, key mismatch, draining).
    PushOk {
        /// Whether the document was inserted into the receiver's cache.
        accepted: bool,
    },
}

/// Why a byte sequence failed to decode as a [`Frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet (or the stream died mid-frame).
    Truncated,
    /// First two bytes are not [`MAGIC`] — not a peer-channel speaker.
    BadMagic,
    /// The version byte names a protocol we do not speak.
    VersionSkew(u8),
    /// Unknown opcode within a known version — a garbled frame.
    BadOpcode(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Header was well-formed but the payload did not parse.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("truncated frame"),
            FrameError::BadMagic => f.write_str("bad magic"),
            FrameError::VersionSkew(v) => write!(f, "unknown protocol version {v}"),
            FrameError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            FrameError::Oversized(n) => write!(f, "payload length {n} over limit"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Channel-level failure: protocol trouble or the socket underneath.
#[derive(Debug)]
pub enum PeerError {
    /// Socket-level failure (includes timeouts and mid-frame EOF).
    Io(io::Error),
    /// The peer sent bytes that do not decode.
    Protocol(FrameError),
    /// The peer answered `FETCH` with an error code (see [`fetch_err`]).
    Refused(u8),
    /// The peer closed the connection cleanly between frames.
    Closed,
}

impl From<io::Error> for PeerError {
    fn from(e: io::Error) -> Self {
        PeerError::Io(e)
    }
}

impl From<FrameError> for PeerError {
    fn from(e: FrameError) -> Self {
        PeerError::Protocol(e)
    }
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Io(e) => write!(f, "peer io: {e}"),
            PeerError::Protocol(e) => write!(f, "peer protocol: {e}"),
            PeerError::Refused(code) => write!(f, "peer refused fetch (code {code})"),
            PeerError::Closed => f.write_str("peer closed the connection"),
        }
    }
}

impl std::error::Error for PeerError {}

/// `SystemTime` → nanoseconds since the Unix epoch (saturating; the
/// epoch itself and anything before it encode as 0).
pub fn mtime_to_ns(t: SystemTime) -> u64 {
    t.duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
}

/// Nanoseconds since the Unix epoch → `SystemTime` (inverse of
/// [`mtime_to_ns`]).
pub fn ns_to_mtime(ns: u64) -> SystemTime {
    UNIX_EPOCH + Duration::from_nanos(ns)
}

fn opcode_of(frame: &Frame) -> u8 {
    match frame {
        Frame::FetchReq { .. } => OP_FETCH_REQ,
        Frame::FetchOk { .. } => OP_FETCH_OK,
        Frame::FetchErr { .. } => OP_FETCH_ERR,
        Frame::Push { .. } => OP_PUSH,
        Frame::PushOk { .. } => OP_PUSH_OK,
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// Serialize one frame (header + payload).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::FetchReq { file, trace, path } => {
            payload.extend_from_slice(&file.to_le_bytes());
            put_str(&mut payload, trace);
            put_str(&mut payload, path);
        }
        Frame::FetchOk { file, mtime_ns, body } => {
            payload.extend_from_slice(&file.to_le_bytes());
            payload.extend_from_slice(&mtime_ns.to_le_bytes());
            payload.extend_from_slice(body);
        }
        Frame::FetchErr { code } => payload.push(*code),
        Frame::Push { file, mtime_ns, path, body } => {
            payload.extend_from_slice(&file.to_le_bytes());
            payload.extend_from_slice(&mtime_ns.to_le_bytes());
            put_str(&mut payload, path);
            payload.extend_from_slice(body);
        }
        Frame::PushOk { accepted } => payload.push(u8::from(*accepted)),
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(opcode_of(frame));
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Malformed("field past payload end"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")) as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| FrameError::Malformed("non-utf8 string"))
    }

    fn rest(&mut self) -> Vec<u8> {
        let s = self.buf[self.pos..].to_vec();
        self.pos = self.buf.len();
        s
    }
}

fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor { buf: payload, pos: 0 };
    let frame = match opcode {
        OP_FETCH_REQ => {
            Frame::FetchReq { file: c.u64()?, trace: c.str()?, path: c.str()? }
        }
        OP_FETCH_OK => Frame::FetchOk { file: c.u64()?, mtime_ns: c.u64()?, body: c.rest() },
        OP_FETCH_ERR => Frame::FetchErr { code: c.u8()? },
        OP_PUSH => Frame::Push {
            file: c.u64()?,
            mtime_ns: c.u64()?,
            path: c.str()?,
            body: c.rest(),
        },
        OP_PUSH_OK => Frame::PushOk {
            accepted: match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(FrameError::Malformed("push ack is neither 0 nor 1")),
            },
        },
        other => return Err(FrameError::BadOpcode(other)),
    };
    if c.pos != payload.len() {
        return Err(FrameError::Malformed("trailing bytes in payload"));
    }
    Ok(frame)
}

/// Decode one frame from the front of `buf`. Returns the frame and how
/// many bytes it consumed; [`FrameError::Truncated`] means "not enough
/// bytes yet" (callers reading a stream can wait for more).
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    if buf[..2] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if buf[2] != VERSION {
        return Err(FrameError::VersionSkew(buf[2]));
    }
    let opcode = buf[3];
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let frame = decode_payload(opcode, &buf[HEADER_LEN..total])?;
    Ok((frame, total))
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8]) -> Result<(), PeerError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            // The peer died mid-frame: a truncated frame, not plain io.
            PeerError::Protocol(FrameError::Truncated)
        } else {
            PeerError::Io(e)
        }
    })
}

/// Read exactly one frame off a stream. A read timeout configured on the
/// stream bounds every phase: a peer that dies mid-frame produces
/// [`FrameError::Truncated`] (EOF) or an [`io::Error`] timeout — never a
/// hang. A clean EOF *before any header byte* is [`PeerError::Closed`]
/// (the peer hung up between frames — e.g. a stale pooled connection).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, PeerError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(PeerError::Closed),
            Ok(0) => return Err(FrameError::Truncated.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(PeerError::Io(e)),
        }
    }
    read_frame_after_header(r, &header)
}

/// Like [`read_frame`] but idle-tolerant: a timeout or `WouldBlock`
/// *before the first header byte* returns `Ok(None)` (nothing arrived —
/// check shutdown flags and poll again); a clean EOF before the first
/// byte returns [`PeerError::Closed`]. Once a frame has started, every
/// failure is an error — a peer must never stall mid-frame.
pub fn read_frame_or_idle(r: &mut impl Read) -> Result<Option<Frame>, PeerError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(PeerError::Closed),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(PeerError::Io(e)),
        }
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    read_exact_or(r, &mut header[1..])?;
    read_frame_after_header(r, &header).map(Some)
}

fn read_frame_after_header(r: &mut impl Read, header: &[u8]) -> Result<Frame, PeerError> {
    if header[..2] != MAGIC {
        return Err(FrameError::BadMagic.into());
    }
    if header[2] != VERSION {
        return Err(FrameError::VersionSkew(header[2]).into());
    }
    let opcode = header[3];
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len).into());
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload)?;
    Ok(decode_payload(opcode, &payload)?)
}

/// A successfully fetched document.
#[derive(Debug, Clone)]
pub struct FetchedDoc {
    /// Document bytes.
    pub body: Vec<u8>,
    /// File mtime (exact, nanosecond granularity).
    pub mtime: SystemTime,
}

/// Pooled connections to every peer, keyed by node index.
///
/// One slot per peer holds at most [`PeerPool::KEEP`] idle connections.
/// A request takes a pooled connection if one exists (it may be stale —
/// the peer restarted, an idle timeout fired), and on any socket error
/// retries exactly once on a freshly dialed connection before giving
/// up — unless a retry gate (see [`PeerPool::set_retry_gate`]) refuses
/// the retry. All reads and writes are bounded by the caller's deadline;
/// the pool never blocks longer than `deadline` per attempt.
pub struct PeerPool {
    addrs: Vec<SocketAddr>,
    slots: Vec<Mutex<Vec<TcpStream>>>,
    /// Called with the peer index before the stale-connection retry;
    /// `false` vetoes it (e.g. a drained retry budget). `None` = always
    /// retry, the pre-gate behavior.
    retry_gate: Mutex<Option<RetryGate>>,
}

type RetryGate = Box<dyn Fn(usize) -> bool + Send + Sync>;

impl std::fmt::Debug for PeerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerPool").field("addrs", &self.addrs).finish_non_exhaustive()
    }
}

impl PeerPool {
    /// Idle connections kept per peer.
    pub const KEEP: usize = 2;

    /// A pool over the cluster's peer-channel addresses (index = node id).
    pub fn new(addrs: Vec<SocketAddr>) -> PeerPool {
        let slots = addrs.iter().map(|_| Mutex::new(Vec::new())).collect();
        PeerPool { addrs, slots, retry_gate: Mutex::new(None) }
    }

    /// Install the retry gate: consulted (with the peer index) before the
    /// pool's single stale-connection retry, so callers can budget
    /// retries instead of granting one unconditionally.
    pub fn set_retry_gate(&self, gate: impl Fn(usize) -> bool + Send + Sync + 'static) {
        *self.retry_gate.lock().expect("gate lock") = Some(Box::new(gate));
    }

    fn retry_allowed(&self, peer: usize) -> bool {
        self.retry_gate
            .lock()
            .expect("gate lock")
            .as_ref()
            .is_none_or(|gate| gate(peer))
    }

    /// Number of peers the pool knows about.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    fn checkout(&self, peer: usize, deadline: Duration) -> Result<TcpStream, PeerError> {
        if let Some(stream) = self.slots[peer].lock().expect("pool lock").pop() {
            stream.set_read_timeout(Some(deadline))?;
            stream.set_write_timeout(Some(deadline))?;
            return Ok(stream);
        }
        self.dial(peer, deadline)
    }

    fn dial(&self, peer: usize, deadline: Duration) -> Result<TcpStream, PeerError> {
        let stream = TcpStream::connect_timeout(&self.addrs[peer], deadline)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        Ok(stream)
    }

    fn checkin(&self, peer: usize, stream: TcpStream) {
        let mut slot = self.slots[peer].lock().expect("pool lock");
        if slot.len() < Self::KEEP {
            slot.push(stream);
        }
    }

    /// One request/response exchange on a connection.
    fn exchange(stream: &mut TcpStream, req: &Frame) -> Result<Frame, PeerError> {
        write_frame(stream, req)?;
        read_frame(stream)
    }

    /// Run `req` against `peer`, retrying once on a fresh connection if
    /// a (possibly stale) pooled connection fails at the socket level.
    /// Protocol errors and explicit refusals are never retried — the
    /// peer is alive and has answered.
    fn request(&self, peer: usize, req: &Frame, deadline: Duration) -> Result<Frame, PeerError> {
        let deadline = deadline.max(Duration::from_millis(1));
        let pooled = !self.slots[peer].lock().expect("pool lock").is_empty();
        let mut stream = self.checkout(peer, deadline)?;
        match Self::exchange(&mut stream, req) {
            Ok(reply) => {
                self.checkin(peer, stream);
                Ok(reply)
            }
            Err(PeerError::Io(_)) | Err(PeerError::Closed) if pooled && self.retry_allowed(peer) => {
                // The idle connection was dead; one retry, freshly dialed.
                let mut fresh = self.dial(peer, deadline)?;
                let reply = Self::exchange(&mut fresh, req)?;
                self.checkin(peer, fresh);
                Ok(reply)
            }
            Err(e) => Err(e),
        }
    }

    /// `FETCH` one document from `peer`. `deadline` bounds the whole
    /// attempt (connect + write + read), per phase.
    pub fn fetch(
        &self,
        peer: usize,
        file: u64,
        path: &str,
        trace: &str,
        deadline: Duration,
    ) -> Result<FetchedDoc, PeerError> {
        let req = Frame::FetchReq { file, trace: trace.to_string(), path: path.to_string() };
        match self.request(peer, &req, deadline)? {
            Frame::FetchOk { file: got, mtime_ns, body } => {
                if got != file {
                    return Err(FrameError::Malformed("fetch reply names a different file").into());
                }
                Ok(FetchedDoc { body, mtime: ns_to_mtime(mtime_ns) })
            }
            Frame::FetchErr { code } => Err(PeerError::Refused(code)),
            _ => Err(FrameError::Malformed("unexpected reply to FETCH").into()),
        }
    }

    /// `PUSH` a document into `peer`'s cache. Returns whether the peer
    /// accepted (inserted) it.
    pub fn push(
        &self,
        peer: usize,
        file: u64,
        path: &str,
        mtime: SystemTime,
        body: &[u8],
        deadline: Duration,
    ) -> Result<bool, PeerError> {
        let req = Frame::Push {
            file,
            mtime_ns: mtime_to_ns(mtime),
            path: path.to_string(),
            body: body.to_vec(),
        };
        match self.request(peer, &req, deadline)? {
            Frame::PushOk { accepted } => Ok(accepted),
            _ => Err(FrameError::Malformed("unexpected reply to PUSH").into()),
        }
    }

    /// Drop every pooled connection (a peer was declared Dead, or the
    /// node is shutting down).
    pub fn disconnect(&self, peer: usize) {
        self.slots[peer].lock().expect("pool lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::FetchReq {
                file: 0xfeed_beef_dead_cafe,
                trace: "n0-5f3a-1".into(),
                path: "maps/goleta.gif".into(),
            },
            Frame::FetchOk { file: 7, mtime_ns: 1_234_567_890_123, body: b"abc".to_vec() },
            Frame::FetchErr { code: fetch_err::NOT_FOUND },
            Frame::Push {
                file: 42,
                mtime_ns: 99,
                path: "docs/doc3.txt".into(),
                body: vec![0u8; 1024],
            },
            Frame::PushOk { accepted: true },
            Frame::PushOk { accepted: false },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let wire = encode(&frame);
            let (back, used) = decode(&wire).expect("decode");
            assert_eq!(back, frame);
            assert_eq!(used, wire.len());
        }
    }

    #[test]
    fn every_truncation_is_reported_not_misparsed() {
        for frame in sample_frames() {
            let wire = encode(&frame);
            for cut in 0..wire.len() {
                assert_eq!(
                    decode(&wire[..cut]).unwrap_err(),
                    FrameError::Truncated,
                    "prefix of {cut} bytes"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let mut wire = encode(&Frame::PushOk { accepted: true });
        wire[2] = 9;
        assert_eq!(decode(&wire).unwrap_err(), FrameError::VersionSkew(9));
    }

    #[test]
    fn garbage_is_rejected_with_reasons() {
        assert_eq!(decode(b"GET / HTTP/1.0\r\n").unwrap_err(), FrameError::BadMagic);
        let mut wire = encode(&Frame::FetchErr { code: 1 });
        wire[3] = 0xAA;
        assert_eq!(decode(&wire).unwrap_err(), FrameError::BadOpcode(0xAA));
        let mut huge = encode(&Frame::PushOk { accepted: true });
        huge[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(decode(&huge).unwrap_err(), FrameError::Oversized(MAX_PAYLOAD + 1));
    }

    #[test]
    fn malformed_payloads_are_typed() {
        // A FetchReq whose path length points past the payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes()); // empty trace
        payload.extend_from_slice(&500u16.to_le_bytes()); // path claims 500 bytes
        payload.extend_from_slice(b"short");
        let mut wire = vec![];
        wire.extend_from_slice(&MAGIC);
        wire.push(VERSION);
        wire.push(OP_FETCH_REQ);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        assert!(matches!(decode(&wire).unwrap_err(), FrameError::Malformed(_)));
        // Trailing junk after a fixed-size payload.
        let mut trailing = encode(&Frame::FetchErr { code: 1 });
        let len = (2u32).to_le_bytes();
        trailing[4..8].copy_from_slice(&len);
        trailing.push(0xFF);
        assert!(matches!(decode(&trailing).unwrap_err(), FrameError::Malformed(_)));
    }

    #[test]
    fn mtime_round_trips_exactly() {
        let now = SystemTime::now();
        let ns = mtime_to_ns(now);
        assert_eq!(mtime_to_ns(ns_to_mtime(ns)), ns);
    }

    #[test]
    fn mid_stream_death_errors_within_the_deadline_never_hangs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read the request, then die after half a reply frame.
            let _ = read_frame(&mut conn);
            let reply = encode(&Frame::FetchOk {
                file: 1,
                mtime_ns: 0,
                body: vec![0u8; 4096],
            });
            conn.write_all(&reply[..reply.len() / 2]).unwrap();
            // Dropping the stream closes it mid-frame.
        });
        let pool = PeerPool::new(vec![addr]);
        let started = Instant::now();
        let err = pool.fetch(0, 1, "a.txt", "t", Duration::from_millis(500)).unwrap_err();
        assert!(matches!(err, PeerError::Protocol(FrameError::Truncated)), "{err}");
        assert!(started.elapsed() < Duration::from_secs(2), "must fail fast, not hang");
        server.join().unwrap();
    }

    #[test]
    fn pool_fetch_and_push_round_trip_against_a_live_speaker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Serve two sequential connections worth of frames.
            let (mut conn, _) = listener.accept().unwrap();
            loop {
                match read_frame(&mut conn) {
                    Ok(Frame::FetchReq { file, trace, path }) => {
                        assert_eq!(path, "docs/doc1.txt");
                        assert_eq!(trace, "n1-aa-3");
                        let reply =
                            Frame::FetchOk { file, mtime_ns: 777, body: b"hello".to_vec() };
                        write_frame(&mut conn, &reply).unwrap();
                    }
                    Ok(Frame::Push { file, body, .. }) => {
                        assert_eq!(file, 9);
                        assert_eq!(body.len(), 64);
                        write_frame(&mut conn, &Frame::PushOk { accepted: true }).unwrap();
                    }
                    _ => break,
                }
            }
        });
        let pool = PeerPool::new(vec![addr]);
        let deadline = Duration::from_secs(2);
        let doc = pool.fetch(0, 5, "docs/doc1.txt", "n1-aa-3", deadline).unwrap();
        assert_eq!(doc.body, b"hello");
        assert_eq!(mtime_to_ns(doc.mtime), 777);
        // Second exchange reuses the pooled connection.
        let accepted = pool.push(0, 9, "docs/doc9.txt", ns_to_mtime(1), &[7u8; 64], deadline);
        assert!(accepted.unwrap());
        drop(pool);
        server.join().unwrap();
    }

    #[test]
    fn stale_pooled_connection_is_retried_on_a_fresh_dial() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: accept and immediately drop (stale pool
            // entry). Second connection: answer properly.
            let (conn, _) = listener.accept().unwrap();
            drop(conn);
            let (mut conn, _) = listener.accept().unwrap();
            if let Ok(Frame::FetchReq { file, .. }) = read_frame(&mut conn) {
                let reply = Frame::FetchOk { file, mtime_ns: 1, body: b"ok".to_vec() };
                write_frame(&mut conn, &reply).unwrap();
            }
        });
        let pool = PeerPool::new(vec![addr]);
        // Seed the pool with a connection the server has already closed.
        let dead = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        pool.slots[0].lock().unwrap().push(dead);
        let doc = pool.fetch(0, 3, "x", "t", Duration::from_secs(2)).unwrap();
        assert_eq!(doc.body, b"ok");
        server.join().unwrap();
    }
}
