//! The closed-loop HTTP client, its correctness oracle, and the null
//! responder that measures the client's own ceiling. Plain blocking
//! `std::net`; one `Client` per thread, one request in flight per client.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::gen::{self, fnv1a, Manifest, Req, FNV_OFFSET};
use crate::trace::Tracer;

/// Connect, read and write timeout; a request that hits it has failed.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Bodies up to this size are hashed on every response.
const HASH_ALWAYS: u64 = 64 << 10;
/// One in this many larger bodies is hashed.
const HASH_LARGE_EVERY: u32 = 16;
const MAX_HEAD: usize = 16 << 10;
const SCRATCH: usize = 64 << 10;

/// Latency recorded for a failed request: it misses every limit.
pub const FAILED: u64 = u64::MAX;

/// One completed (or failed) request, timed from connect (or from send, on
/// a reused connection) to the last body byte of the final response.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// [`FAILED`] for a failed request.
    pub lat_ns: u64,
    /// Verified body bytes of the final 200 (redirect bodies excluded).
    pub bytes: u64,
}

struct Head {
    status: u16,
    content_length: u64,
    location: Option<String>,
    keep_alive: bool,
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_head(head: &[u8]) -> io::Result<Head> {
    let text = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.")?.get(2..5)?.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut content_length, mut location, mut keep_alive) = (None, None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("location") {
            location = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    let content_length = content_length.ok_or_else(|| bad("no Content-Length"))?;
    Ok(Head { status, content_length, location, keep_alive })
}

/// `http://127.0.0.1:<port><target>` split into port and target.
fn parse_location(location: &str) -> Option<(u16, &str)> {
    let rest = location.strip_prefix("http://127.0.0.1:")?;
    let slash = rest.find('/')?;
    Some((rest[..slash].parse().ok()?, &rest[slash..]))
}

/// When each step of one request/response exchange finished.
struct Timing {
    start: Instant,
    /// `None` on a reused keep-alive connection.
    connected: Option<Instant>,
    sent: Instant,
    first_byte: Instant,
    end: Instant,
}

pub struct Client<'a> {
    manifest: &'a Manifest,
    ports: &'a [u16],
    keep_alive: bool,
    /// Against the null responder only framing can be checked.
    canned: bool,
    conn: Option<(u16, TcpStream)>,
    wire: Vec<u8>,
    head: Vec<u8>,
    body: Vec<u8>,
    scratch: Vec<u8>,
    turn: usize,
    large_seen: u32,
    /// The clock of every sample; records spans while `tracing` is set.
    pub tracer: Tracer,
    pub tracing: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Client<'a> {
    /// `index` staggers the round-robin over `ports` between clients;
    /// `epoch` is the zero of span times.
    pub fn new(
        manifest: &'a Manifest,
        ports: &'a [u16],
        keep_alive: bool,
        canned: bool,
        index: usize,
        epoch: Instant,
    ) -> Client<'a> {
        Client {
            manifest,
            ports,
            keep_alive,
            canned,
            conn: None,
            wire: Vec::new(),
            head: Vec::new(),
            body: Vec::new(),
            scratch: vec![0; SCRATCH],
            turn: index,
            large_seen: 0,
            tracer: Tracer::new(index, epoch),
            tracing: false,
            attempted: 0,
            failed: 0,
        }
    }

    /// Issue `req`, follow at most one 302, verify the answer.
    pub fn run(&mut self, req: Req) -> Sample {
        self.attempted += 1;
        let port = self.ports[self.turn % self.ports.len()];
        self.turn += 1;
        let keep_body = match req {
            Req::Get(rank) if self.manifest.files[rank].len > HASH_ALWAYS => {
                self.large_seen += 1;
                self.large_seen.is_multiple_of(HASH_LARGE_EVERY)
            }
            _ => !self.canned,
        };
        match self.fetch(req, port, keep_body) {
            Ok((start, end, bytes)) => {
                Sample { lat_ns: end.duration_since(start).as_nanos() as u64, bytes }
            }
            Err(_) => {
                self.failed += 1;
                self.conn = None;
                Sample { lat_ns: FAILED, bytes: 0 }
            }
        }
    }

    /// Start and end of the request, and the verified body bytes.
    fn fetch(
        &mut self,
        req: Req,
        port: u16,
        keep_body: bool,
    ) -> io::Result<(Instant, Instant, u64)> {
        let mut wire = std::mem::take(&mut self.wire);
        gen::wire(req, self.manifest, self.keep_alive, &mut wire);
        let request_id = if self.tracing { self.tracer.next_id() } else { 0 };
        let first = self.exchange(port, &wire, keep_body);
        self.wire = wire;
        let (mut head, mut timing) = first?;
        let start = timing.start;
        self.record(request_id, request_id, &timing);
        if head.status == 302 {
            // The paper's invariant: a request is redirected at most once,
            // so whatever answers the second hop must be the document.
            let location = head.location.take().ok_or_else(|| bad("302 without Location"))?;
            let (port, target) =
                parse_location(&location).ok_or_else(|| bad("Location is not a node URL"))?;
            let hop = format!("GET {target} HTTP/1.0\r\n\r\n");
            self.conn = None;
            (head, timing) = self.exchange(port, hop.as_bytes(), keep_body)?;
            if self.tracing {
                let hop_id = self.tracer.push(
                    request_id,
                    request_id,
                    "redirect_hop",
                    timing.start,
                    timing.end,
                );
                self.record(hop_id, request_id, &timing);
            }
        }
        self.finish(req, &head, keep_body)?;
        if self.tracing {
            self.tracer.push_with_id(request_id, 0, request_id, "request", start, timing.end);
        }
        Ok((start, timing.end, head.content_length))
    }

    /// Child spans of one exchange under `parent`.
    fn record(&mut self, parent: u64, request_id: u64, timing: &Timing) {
        if !self.tracing {
            return;
        }
        let t = &mut self.tracer;
        let mut cursor = timing.start;
        if let Some(connected) = timing.connected {
            t.push(parent, request_id, "connect", cursor, connected);
            cursor = connected;
        }
        t.push(parent, request_id, "send", cursor, timing.sent);
        t.push(parent, request_id, "ttfb", timing.sent, timing.first_byte);
        t.push(parent, request_id, "body", timing.first_byte, timing.end);
    }

    /// The correctness oracle for the final response.
    fn finish(&mut self, req: Req, head: &Head, kept: bool) -> io::Result<()> {
        if head.status != 200 {
            return Err(bad("final status is not 200"));
        }
        if self.canned {
            return Ok(());
        }
        match req {
            Req::Get(rank) => {
                let file = &self.manifest.files[rank];
                if head.content_length != file.len {
                    return Err(bad("length differs from the manifest"));
                }
                if kept && fnv1a(FNV_OFFSET, &self.body) != file.fnv {
                    return Err(bad("checksum differs from the manifest"));
                }
            }
            Req::Search(key) => {
                let text = std::str::from_utf8(&self.body).map_err(|_| bad("search body"))?;
                if !text.contains(&gen::search_query(key)) {
                    return Err(bad("search reply does not quote the query"));
                }
            }
            Req::Echo(id) => {
                let sent = gen::echo_body(id);
                let text = std::str::from_utf8(&self.body).map_err(|_| bad("echo body"))?;
                if !text.contains(std::str::from_utf8(&sent).expect("echo bodies are ASCII")) {
                    return Err(bad("echo reply does not carry the posted body"));
                }
            }
        }
        Ok(())
    }

    /// One request and its response on `port`. A keep-alive connection the
    /// server closed between requests is reopened once: that close is the
    /// server's 64-request cap, not a failure.
    fn exchange(&mut self, port: u16, wire: &[u8], keep_body: bool) -> io::Result<(Head, Timing)> {
        let start = Instant::now();
        let reused = match self.conn.take() {
            Some((p, stream)) if p == port => Some(stream),
            _ => None,
        };
        if let Some(mut stream) = reused {
            match self.converse(&mut stream, wire, keep_body, start, None) {
                Ok(done) => return self.settle(port, stream, done),
                // No response byte arrived: the server had closed.
                Err(e) if self.head.is_empty() => drop(e),
                Err(e) => return Err(e),
            }
        }
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        let connected = Instant::now();
        let done = self.converse(&mut stream, wire, keep_body, start, Some(connected))?;
        self.settle(port, stream, done)
    }

    /// Keep the connection for the next request, or see it closed.
    fn settle(
        &mut self,
        port: u16,
        mut stream: TcpStream,
        done: (Head, Timing),
    ) -> io::Result<(Head, Timing)> {
        if self.keep_alive && done.0.keep_alive {
            self.conn = Some((port, stream));
        } else if stream.read(&mut self.scratch)? != 0 {
            // Waiting for the server's FIN makes the server the active
            // closer, so TIME_WAIT sockets do not eat the client's
            // ephemeral ports; it also proves nothing follows the body.
            return Err(bad("bytes after the declared body"));
        }
        Ok(done)
    }

    fn converse(
        &mut self,
        stream: &mut TcpStream,
        wire: &[u8],
        keep_body: bool,
        start: Instant,
        connected: Option<Instant>,
    ) -> io::Result<(Head, Timing)> {
        self.head.clear();
        stream.write_all(wire)?;
        let sent = Instant::now();
        let mut first_byte = None;
        let head_end = loop {
            let n = stream.read(&mut self.scratch)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            let scan_from = self.head.len().saturating_sub(3);
            self.head.extend_from_slice(&self.scratch[..n]);
            if let Some(i) = find(&self.head[scan_from..], b"\r\n\r\n") {
                break scan_from + i + 4;
            }
            if self.head.len() > MAX_HEAD {
                return Err(bad("response head too long"));
            }
        };
        let head = parse_head(&self.head[..head_end - 4])?;
        let early = &self.head[head_end..];
        if early.len() as u64 > head.content_length {
            return Err(bad("bytes after the declared body"));
        }
        let mut remaining = head.content_length - early.len() as u64;
        if keep_body {
            self.body.clear();
            self.body.extend_from_slice(early);
            self.body.resize(head.content_length as usize, 0);
            let at = early.len();
            stream.read_exact(&mut self.body[at..])?;
        } else {
            while remaining > 0 {
                let want = remaining.min(SCRATCH as u64) as usize;
                let n = stream.read(&mut self.scratch[..want])?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                remaining -= n as u64;
            }
        }
        let end = Instant::now();
        let first_byte = first_byte.expect("the head loop read at least once");
        Ok((head, Timing { start, connected, sent, first_byte, end }))
    }
}

/// One `GET` on a fresh connection, read to EOF: the admin endpoints
/// (`/metrics`, `/sweb-status`). Returns the status and the body.
pub fn http_get(port: u16, target: &str) -> io::Result<(u16, Vec<u8>)> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = find(&raw, b"\r\n\r\n").ok_or_else(|| bad("no response head"))?;
    let head = parse_head(&raw[..head_end])?;
    let body = raw.split_off(head_end + 4);
    if body.len() as u64 != head.content_length {
        return Err(bad("body length differs from Content-Length"));
    }
    Ok((head.status, body))
}

/// The loopback floor: both ends of the workload's HTTP exchange in the
/// calling thread. It connects to its own listener, accepts, writes the
/// request, reads it on the other end, writes a head and a filler body of
/// the real reply's length back and reads that, closing (or keeping) the
/// connection the way the workload does. No other thread is involved, so
/// nothing sleeps or is woken: an exchange takes the time the kernel's
/// loopback TCP and the copies need on this box at this moment, which is
/// what the timed window's metrics are measured against.
pub struct Floor<'a> {
    manifest: &'a Manifest,
    keep_alive: bool,
    listener: TcpListener,
    addr: SocketAddr,
    /// Client end and server end of a kept connection.
    pair: Option<(TcpStream, TcpStream)>,
    wire: Vec<u8>,
    reply: Vec<u8>,
    filler: Vec<u8>,
    scratch: Vec<u8>,
    pub attempted: u64,
    pub failed: u64,
}

/// Body length of swebd's `search` reply, and what its `echo` adds to the
/// posted body.
const SEARCH_BODY: usize = 114;
const ECHO_EXTRA: usize = 15;
/// A reply head the size of swebd's.
const FLOOR_HEAD: &str = "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nX-SWEB-Node: 0\r\n\
    X-SWEB-Trace: n0-00000000-0\r\nServer: SWEB/0.1 (NCSA-derived)\r\n";

impl<'a> Floor<'a> {
    pub fn new(manifest: &'a Manifest, keep_alive: bool) -> io::Result<Floor<'a>> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let longest = manifest.files.iter().map(|f| f.len as usize).max().unwrap_or(0);
        Ok(Floor {
            manifest,
            keep_alive,
            listener,
            addr,
            pair: None,
            wire: Vec::new(),
            reply: Vec::new(),
            filler: vec![b'n'; longest.max(SCRATCH)],
            scratch: vec![0; SCRATCH],
            attempted: 0,
            failed: 0,
        })
    }

    /// One exchange for `req`, timed like a request.
    pub fn run(&mut self, req: Req) -> Sample {
        self.attempted += 1;
        let start = Instant::now();
        match self.exchange(req) {
            Ok(bytes) => Sample { lat_ns: start.elapsed().as_nanos() as u64, bytes },
            Err(_) => {
                self.failed += 1;
                self.pair = None;
                Sample { lat_ns: FAILED, bytes: 0 }
            }
        }
    }

    /// Returns the body bytes moved.
    fn exchange(&mut self, req: Req) -> io::Result<u64> {
        gen::wire(req, self.manifest, self.keep_alive, &mut self.wire);
        let body_len = match req {
            Req::Get(rank) => self.manifest.files[rank].len as usize,
            Req::Search(_) => SEARCH_BODY,
            Req::Echo(_) => gen::ECHO_BODY + ECHO_EXTRA,
        };
        let (mut client, mut server) = match self.pair.take() {
            Some(pair) => pair,
            None => {
                // On loopback the handshake completes inside `connect`.
                let client = TcpStream::connect(self.addr)?;
                let (server, _) = self.listener.accept()?;
                for end in [&client, &server] {
                    end.set_nodelay(true)?;
                    end.set_nonblocking(true)?;
                }
                (client, server)
            }
        };
        let deadline = Instant::now() + TIMEOUT;
        pump(&mut client, &mut server, &[&self.wire], &mut self.scratch, deadline)?;
        self.reply.clear();
        self.reply.extend_from_slice(
            format!("{FLOOR_HEAD}Content-Length: {body_len}\r\n\r\n").as_bytes(),
        );
        // A small body leaves in one write with its head, as swebd's does.
        let body = &self.filler[..body_len];
        let parts: [&[u8]; 2] = if body_len <= SCRATCH {
            self.reply.extend_from_slice(body);
            [&self.reply, &[]]
        } else {
            [&self.reply, body]
        };
        pump(&mut server, &mut client, &parts, &mut self.scratch, deadline)?;
        if self.keep_alive {
            self.pair = Some((client, server));
        } else {
            // The server end closes first, as swebd does.
            drop(server);
        }
        Ok(body_len as u64)
    }
}

/// Move `parts` from `tx` to `rx`, both non-blocking ends of one loopback
/// connection owned by this thread: write what the socket takes, read what
/// has arrived, until everything written has been read.
fn pump(
    tx: &mut TcpStream,
    rx: &mut TcpStream,
    parts: &[&[u8]],
    scratch: &mut [u8],
    deadline: Instant,
) -> io::Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let (mut part, mut sent, mut got) = (0, 0, 0);
    while got < total {
        while part < parts.len() {
            if sent == parts[part].len() {
                (part, sent) = (part + 1, 0);
                continue;
            }
            match tx.write(&parts[part][sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        match rx.read(scratch) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The cheapest possible server: [`gen::CLIENTS`] blocking threads that
/// answer every request with a canned 200 of a fixed body size. What the
/// client reaches against it is the generator's own ceiling.
pub struct NullResponder {
    pub port: u16,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NullResponder {
    pub fn start(body_len: usize) -> io::Result<NullResponder> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let port = listener.local_addr()?.port();
        let stop = Arc::new(AtomicBool::new(false));
        let body = vec![b'n'; body_len];
        let reply = |extra: &str| {
            let mut r = format!("HTTP/1.0 200 OK\r\n{extra}Content-Length: {body_len}\r\n\r\n")
                .into_bytes();
            r.extend_from_slice(&body);
            Arc::<[u8]>::from(r)
        };
        let (close, keep) = (reply(""), reply("Connection: Keep-Alive\r\n"));
        let threads = (0..gen::CLIENTS)
            .map(|_| {
                let listener = listener.try_clone()?;
                let (stop, close, keep) =
                    (Arc::clone(&stop), Arc::clone(&close), Arc::clone(&keep));
                Ok(std::thread::spawn(move || {
                    while let Ok((stream, _)) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A client that hangs up mid-session is not an error.
                        let _ = serve_canned(stream, &close, &keep);
                    }
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(NullResponder { port, stop, threads })
    }
}

impl Drop for NullResponder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each connect wakes one thread, whichever, out of `accept`.
        for _ in &self.threads {
            let _ = TcpStream::connect((Ipv4Addr::LOCALHOST, self.port));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn serve_canned(mut stream: TcpStream, close: &[u8], keep: &[u8]) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let head_end = loop {
            if let Some(i) = find(&buf, b"\r\n\r\n") {
                break i + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
        let body_len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:")?.trim().parse().ok())
            .unwrap_or(0);
        while buf.len() < head_end + body_len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        buf.drain(..head_end + body_len);
        if head.contains("connection: keep-alive") {
            stream.write_all(keep)?;
        } else {
            stream.write_all(close)?;
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::FileEntry;

    #[test]
    fn head_parser_reads_what_the_oracle_needs() {
        let h = parse_head(
            b"HTTP/1.0 302 Found\r\nLocation: http://127.0.0.1:4410/a.html?sweb-redirect=1\r\n\
              content-length: 12\r\nConnection: Keep-Alive",
        )
        .unwrap();
        assert_eq!((h.status, h.content_length, h.keep_alive), (302, 12, true));
        assert_eq!(
            parse_location(h.location.as_deref().unwrap()),
            Some((4410, "/a.html?sweb-redirect=1"))
        );
        assert!(parse_head(b"HTTP/1.0 200 OK\r\nServer: x").is_err(), "no Content-Length");
        assert!(parse_head(b"garbage").is_err());
        assert_eq!(parse_location("http://example.com/x"), None);
    }

    #[test]
    fn floor_moves_every_exchange_inside_one_thread() {
        // The second file is larger than any socket buffer: writing it all
        // before reading any would never return.
        let file = |path: &str, len| FileEntry { path: path.into(), len, fnv: 0 };
        let manifest = Manifest { files: vec![file("/a.html", 700), file("/b.html", 3_000_000)] };
        for keep_alive in [false, true] {
            let mut floor = Floor::new(&manifest, keep_alive).unwrap();
            let echoed = (gen::ECHO_BODY + ECHO_EXTRA) as u64;
            let sent = [Req::Get(0), Req::Get(1), Req::Echo(5), Req::Search(9), Req::Get(1)];
            for (req, bytes) in sent.into_iter().zip([700, 3_000_000, echoed, 114, 3_000_000]) {
                let s = floor.run(req);
                assert_ne!(s.lat_ns, FAILED);
                assert_eq!(s.bytes, bytes);
            }
            assert_eq!((floor.attempted, floor.failed), (5, 0));
            assert_eq!(floor.pair.is_some(), keep_alive);
        }
    }

    #[test]
    fn client_and_null_responder_agree_on_framing() {
        let manifest =
            Manifest { files: vec![FileEntry { path: "/a.html".into(), len: 700, fnv: 0 }] };
        let null = NullResponder::start(700).unwrap();
        let ports = [null.port];
        let epoch = Instant::now();
        for keep_alive in [false, true] {
            let mut c = Client::new(&manifest, &ports, keep_alive, true, 0, epoch);
            c.tracing = true;
            for req in [Req::Get(0), Req::Echo(5), Req::Search(9), Req::Get(0)] {
                let s = c.run(req);
                assert_ne!(s.lat_ns, FAILED);
                assert_eq!(s.bytes, 700);
            }
            assert_eq!((c.attempted, c.failed), (4, 0));
            let spans = c.tracer.spans;
            let connects = spans.iter().filter(|s| s.name == "connect").count();
            assert_eq!(connects, if keep_alive { 1 } else { 4 });
            assert_eq!(spans.iter().filter(|s| s.name == "request").count(), 4);
        }
        // With the oracle on, a canned body is a wrong body.
        let mut strict = Client::new(&manifest, &ports, false, false, 0, epoch);
        assert_eq!(strict.run(Req::Get(0)).lat_ns, FAILED);
        assert_eq!(strict.failed, 1);
        let (status, body) = http_get(null.port, "/anything").unwrap();
        assert_eq!((status, body.len()), (200, 700));
    }
}
