//! The peer frame codec: the length-prefixed, versioned `FETCH`/`PUSH`
//! protocol of a node-to-node document channel.
//!
//! No node speaks it. The live channel (a per-node listener, pooled
//! connections, pulls on a lost placement decision and a hot-file
//! replicator) lost every measured scenario to the paper's own 302 on
//! co-located nodes and was deleted; what is left is the codec the
//! benchmark's layer replay times ([`encode`], [`decode`], [`Frame`]).
//! Unknown versions are a typed skew error and truncated or garbled
//! frames are typed [`FrameError`]s, never a misread.
//!
//! (`FileId`s are u64 file keys — the same FNV-1a namespace the striped
//! file cache and the loadd Bloom digests use.)

#![warn(missing_docs)]

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
