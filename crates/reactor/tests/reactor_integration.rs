//! End-to-end tests of the event loop against real sockets: serving,
//! keep-alive, pipelining, slow-client eviction, and 503 shedding.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sweb_http::{Request, Response};
use sweb_reactor::{
    AcceptGate, App, Counters, FileBody, FirstLook, ReactorConfig, ReactorHandle, Reply, Service,
};
use sweb_telemetry::Phase;

/// Minimal app: answers with the request target; the reactor counts the
/// rest. `/big` serves the configured in-memory body (the cached-file
/// shape); `/file` serves the configured file as a streamed [`FileBody`].
#[derive(Default)]
struct EchoApp {
    /// The loop thread's scheduling policy at the last first look.
    loop_policy: Mutex<Option<u32>>,
    big: Mutex<Option<Bytes>>,
    file_path: Mutex<Option<PathBuf>>,
    /// `/meet` continuations that have started.
    met: Arc<AtomicUsize>,
}

impl App for EchoApp {
    /// `/meet` takes a continuation that counts itself in, then waits up
    /// to 2 s for a second one to start: it answers `together` if one did
    /// and `alone` if not.
    fn first_look(&self, _peer: &str, req: &Request, _body: &[u8]) -> Option<FirstLook> {
        *self.loop_policy.lock().unwrap() = Some(sched_policy());
        let met = Arc::clone(&self.met);
        (req.target() == "/meet").then(|| {
            FirstLook::Blocking(Box::new(move |_, _, _| {
                met.fetch_add(1, Ordering::SeqCst);
                let two = wait_until(Duration::from_secs(2), || met.load(Ordering::SeqCst) >= 2);
                Response::ok(if two { "together" } else { "alone" }, "text/plain").into()
            }))
        })
    }
    fn respond(&self, _peer: &str, req: &Request, body: &[u8]) -> Reply {
        if req.target() == "/big" {
            if let Some(b) = self.big.lock().unwrap().clone() {
                return Response::ok(b, "application/octet-stream").into();
            }
        }
        if req.target() == "/file" {
            if let Some(p) = self.file_path.lock().unwrap().clone() {
                let file = std::fs::File::open(&p).unwrap();
                let len = file.metadata().unwrap().len();
                return Reply {
                    response: Response::ok("", "application/octet-stream"),
                    file: Some(FileBody { file, len }),
                };
            }
        }
        Response::ok(format!("target={} body={}", req.target(), body.len()), "text/plain").into()
    }
}

struct TestServer<A: App = EchoApp> {
    app: Arc<A>,
    /// What its loop counted.
    counters: Arc<Counters>,
    handle: Option<ReactorHandle>,
    shutdown: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl TestServer {
    fn start(cfg: ReactorConfig) -> TestServer {
        TestServer::start_app(EchoApp::default(), cfg)
    }
}

impl<A: App> TestServer<A> {
    fn start_app(app: A, cfg: ReactorConfig) -> TestServer<A> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let app = Arc::new(app);
        let counters = Arc::clone(&cfg.counters);
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = sweb_reactor::spawn(
            listener,
            Arc::clone(&app) as Arc<dyn App>,
            cfg,
            Arc::clone(&shutdown),
        )
        .unwrap();
        let addr = handle.addr;
        TestServer { app, counters, handle: Some(handle), shutdown, addr }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    /// One full HTTP/1.0 exchange: write `raw`, read to EOF.
    fn exchange(&self, raw: &[u8]) -> String {
        let mut s = self.connect();
        s.write_all(raw).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }
}

impl<A: App> Drop for TestServer<A> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

/// The calling thread's scheduling policy: field 41 of its `stat` (0 is
/// `SCHED_OTHER`, 3 `SCHED_BATCH`).
fn sched_policy() -> u32 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
    // Fields 1 and 2 (pid, comm) end at the last `)`.
    let rest: Vec<&str> = stat.rsplit_once(')').unwrap().1.split_whitespace().collect();
    rest[41 - 3].parse().unwrap()
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn serves_a_simple_get() {
    let srv = TestServer::start(ReactorConfig::default());
    let reply = srv.exchange(b"GET /hello HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
    assert!(reply.contains("target=/hello"), "{reply}");
    assert_eq!(srv.counters.served.get(), 1);
}

#[test]
fn serves_post_bodies_and_rejects_missing_length() {
    let srv = TestServer::start(ReactorConfig::default());
    let reply = srv.exchange(b"POST /cgi HTTP/1.0\r\nContent-Length: 4\r\n\r\nabcd");
    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
    assert!(reply.contains("body=4"), "{reply}");
    let reply = srv.exchange(b"POST /cgi HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 400"), "{reply}");
    assert_eq!(srv.counters.bad_requests.get(), 1);
    // Only the app's own reply counts as served, and splits by its body;
    // the reactor's 400 is a bad request alone.
    assert_eq!(srv.counters.served.get(), 1);
    assert_eq!(srv.counters.zero_copy.get(), 1);
}

#[test]
fn malformed_request_gets_400_and_close() {
    let srv = TestServer::start(ReactorConfig::default());
    let reply = srv.exchange(b"GET nopath HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 400"), "{reply}");
    assert_eq!(srv.counters.bad_requests.get(), 1);
}

#[test]
fn keepalive_reuses_the_connection_and_pipelines() {
    let srv = TestServer::start(ReactorConfig::default());
    let mut s = srv.connect();
    // Two pipelined keep-alive requests in a single write.
    s.write_all(
        b"GET /a HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n\
          GET /b HTTP/1.0\r\n\r\n",
    )
    .unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(out.contains("target=/a"), "{out}");
    assert!(out.contains("target=/b"), "{out}");
    assert_eq!(out.matches("HTTP/1.0 200").count(), 2, "{out}");
    // One connection carried both requests.
    assert_eq!(srv.counters.accepted.get(), 1);
    assert_eq!(srv.counters.served.get(), 2);
}

#[test]
fn slow_client_is_evicted_without_stalling_others() {
    let cfg = ReactorConfig {
        read_timeout: Duration::from_millis(250),
        timer_tick_ms: 10,
        ..ReactorConfig::default()
    };
    let srv = TestServer::start(cfg);

    // The slow client sends half a request line and then goes silent.
    let mut slow = srv.connect();
    slow.write_all(b"GET /never-fin").unwrap();

    // Healthy clients keep being served the whole time.
    let t0 = Instant::now();
    let mut healthy_rounds = 0;
    while t0.elapsed() < Duration::from_millis(400) {
        let reply = srv.exchange(b"GET /healthy HTTP/1.0\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.0 200"), "healthy request failed: {reply}");
        healthy_rounds += 1;
    }
    assert!(healthy_rounds >= 3, "healthy clients stalled: {healthy_rounds} rounds");

    // The wheel must have evicted the slow client by now: its socket
    // reads EOF and the eviction counter moved.
    assert!(
        wait_until(Duration::from_secs(2), || srv.counters.evicted.get() >= 1),
        "slow client never evicted"
    );
    let mut buf = [0u8; 64];
    let n = slow.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF on the evicted connection");
    // The slow client never completed a request, so nothing was served
    // on its behalf.
    assert_eq!(srv.counters.bad_requests.get(), 0);
}

#[test]
fn connections_beyond_the_cap_are_shed_with_503() {
    let cfg = ReactorConfig { max_conns: 2, ..ReactorConfig::default() };
    let srv = TestServer::start(cfg);

    // Two idle connections fill the admission cap.
    let _a = srv.connect();
    let _b = srv.connect();
    assert!(
        wait_until(Duration::from_secs(2), || srv.counters.open.get() == 2),
        "first two connections not tracked"
    );

    // The third is refused with 503 and closed.
    let mut c = srv.connect();
    let mut out = String::new();
    let _ = c.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.0 503"), "expected shed, got: {out:?}");
    assert_eq!(srv.counters.shed.get(), 1);

    // Dropping one admitted connection frees a slot for new work.
    drop(_a);
    assert!(
        wait_until(Duration::from_secs(2), || srv.counters.open.get() <= 1),
        "freed slot never noticed"
    );
    let reply = srv.exchange(b"GET /after HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
}

/// Holds every request on a worker until the test sends a release, so
/// the pool fills with no clock in the way.
struct GateApp {
    looked: AtomicUsize,
    entered: AtomicUsize,
    release: Mutex<std::sync::mpsc::Receiver<()>>,
}

impl App for GateApp {
    fn respond(&self, _peer: &str, req: &Request, _body: &[u8]) -> Reply {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let _ = self.release.lock().unwrap().recv();
        Response::ok(format!("target={}", req.target()), "text/plain").into()
    }
    fn first_look(&self, _peer: &str, _req: &Request, _body: &[u8]) -> Option<FirstLook> {
        // Counted on the loop thread just before the request is submitted.
        self.looked.fetch_add(1, Ordering::SeqCst);
        None
    }
    fn retry_after_secs(&self) -> u64 {
        7
    }
}

#[test]
fn a_request_that_finds_the_worker_queue_full_is_shed_with_503() {
    let (release, gate) = std::sync::mpsc::channel();
    let app = GateApp {
        looked: AtomicUsize::new(0),
        entered: AtomicUsize::new(0),
        release: Mutex::new(gate),
    };
    let cfg = ReactorConfig { workers: 1, worker_queue: 1, ..ReactorConfig::default() };
    let srv = TestServer::start_app(app, cfg);
    // Dropped before `srv`, so a failed assert cannot leave the worker
    // blocked in `respond` while `srv` joins it.
    let release = release;
    let send = |target: &str| {
        let mut s = srv.connect();
        s.write_all(format!("GET {target} HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").as_bytes())
            .unwrap();
        s
    };
    // The one worker takes the first request and blocks in it; the second
    // fills the one queue slot (the loop submits it right after its first
    // look, before it reads anything else).
    let mut running = send("/running");
    assert!(wait_until(Duration::from_secs(2), || srv.app.entered.load(Ordering::SeqCst) == 1));
    let mut queued = send("/queued");
    assert!(wait_until(Duration::from_secs(2), || srv.app.looked.load(Ordering::SeqCst) == 2));

    // The third finds the queue full: a 503 carrying the app's
    // Retry-After, and the connection closes although it asked to stay.
    let mut refused = send("/refused");
    let mut out = String::new();
    refused.read_to_string(&mut out).expect("the shed connection must close");
    assert!(out.starts_with("HTTP/1.0 503"), "{out}");
    assert!(out.contains("\r\nRetry-After: 7\r\n"), "{out}");
    // Closed: two of the three connections are left open.
    assert!(wait_until(Duration::from_secs(2), || srv.counters.open.get() == 2));
    assert_eq!(srv.counters.shed.get(), 1);

    // Released, the two admitted requests are answered in turn; nothing
    // else was shed.
    for (s, target) in [(&mut running, "/running"), (&mut queued, "/queued")] {
        release.send(()).unwrap();
        let mut buf = [0u8; 512];
        let mut reply = Vec::new();
        while !reply.ends_with(format!("target={target}").as_bytes()) {
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "closed before answering {target}");
            reply.extend_from_slice(&buf[..n]);
        }
        assert!(reply.starts_with(b"HTTP/1.0 200"), "{}", String::from_utf8_lossy(&reply));
    }
    assert_eq!(srv.app.entered.load(Ordering::SeqCst), 2);
    assert_eq!(srv.counters.shed.get(), 1);
}

#[test]
fn clean_shutdown_closes_open_connections() {
    let srv = TestServer::start(ReactorConfig::default());
    let counters = Arc::clone(&srv.counters);
    let mut idle = srv.connect();
    assert!(wait_until(Duration::from_secs(2), || counters.open.get() == 1));
    drop(srv); // flags shutdown and joins the loop
    let mut buf = [0u8; 8];
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "open connection must be closed on shutdown");
    assert_eq!(counters.open.get(), 0, "the drain's close went uncounted");
}

// ---------------------------------------------------------------- outcomes

/// One reply kind per target. On the loop: `/inline` (a 200), `/302` and
/// `/503` (the app's own redirect and refusal), `/stuck` (an 8 MiB body).
/// On a worker: `/file` (a 200 streamed by `sendfile`), `/late` (a reply
/// that takes `late`), `/hold` (waits for a release).
struct KindApp {
    file: PathBuf,
    late: Duration,
    looked: AtomicUsize,
    entered: AtomicUsize,
    release: Mutex<std::sync::mpsc::Receiver<()>>,
}

impl KindApp {
    fn new(file: PathBuf, late: Duration, release: std::sync::mpsc::Receiver<()>) -> KindApp {
        let (looked, entered) = (AtomicUsize::new(0), AtomicUsize::new(0));
        KindApp { file, late, looked, entered, release: Mutex::new(release) }
    }
}

impl App for KindApp {
    fn first_look(&self, _peer: &str, req: &Request, _body: &[u8]) -> Option<FirstLook> {
        self.looked.fetch_add(1, Ordering::SeqCst);
        let reply: Reply = match req.target() {
            "/inline" => Response::ok("inline", "text/plain").into(),
            "/302" => Response::redirect_to_peer("http://127.0.0.1:9", "/302").into(),
            "/503" => Response::unavailable(3).into(),
            "/stuck" => Response::ok(payload(8 << 20), "application/octet-stream").into(),
            _ => return None,
        };
        Some(FirstLook::Done(reply))
    }
    fn respond(&self, _peer: &str, req: &Request, _body: &[u8]) -> Reply {
        match req.target() {
            "/file" => {
                let file = std::fs::File::open(&self.file).unwrap();
                let len = file.metadata().unwrap().len();
                let response = Response::ok("", "application/octet-stream");
                Reply { response, file: Some(FileBody { file, len }) }
            }
            "/late" => {
                std::thread::sleep(self.late);
                Response::ok("late", "text/plain").into()
            }
            _ => {
                self.entered.fetch_add(1, Ordering::SeqCst);
                let _ = self.release.lock().unwrap().recv();
                Response::ok("held", "text/plain").into()
            }
        }
    }
}

/// The five outcome counters: served, redirected, shed, bad requests,
/// deadline overruns.
fn outcomes(c: &Counters) -> [u64; 5] {
    [
        c.served.get(),
        c.redirected.get(),
        c.shed.get(),
        c.bad_requests.get(),
        c.deadline_overruns.get(),
    ]
}

#[test]
fn every_reply_moves_exactly_one_outcome_counter() {
    const SERVED: [u64; 5] = [1, 0, 0, 0, 0];
    const REDIRECTED: [u64; 5] = [0, 1, 0, 0, 0];
    const SHED: [u64; 5] = [0, 0, 1, 0, 0];
    const BAD: [u64; 5] = [0, 0, 0, 1, 0];
    const OVERRUN: [u64; 5] = [0, 0, 0, 0, 1];
    let dir = std::env::temp_dir().join(format!("sweb-reactor-kinds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.bin");
    std::fs::write(&path, vec![b'f'; 64 << 10]).unwrap();

    // One worker, one queue slot, three connections.
    let (release, gate) = std::sync::mpsc::channel();
    let cfg = ReactorConfig { max_conns: 3, workers: 1, worker_queue: 1, ..Default::default() };
    let srv = TestServer::start_app(KindApp::new(path.clone(), Duration::ZERO, gate), cfg);
    // Dropped before `srv`, so a failed assert cannot leave the worker
    // blocked in `respond` while `srv` joins it.
    let release = release;
    let counters = Arc::clone(&srv.counters);
    let mut before = outcomes(&counters);
    let mut moved = |kind: &str, reply: &str, status: &str, want: [u64; 5]| {
        assert!(reply.starts_with(status), "{kind}: {reply:?}");
        let now = outcomes(&counters);
        let delta: Vec<u64> = now.iter().zip(before).map(|(now, then)| now - then).collect();
        assert_eq!(delta, want, "{kind}");
        before = now;
    };
    let get = |target: &str| srv.exchange(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes());

    moved("inline 200", &get("/inline"), "HTTP/1.0 200", SERVED);
    moved("400", &srv.exchange(b"GET nopath HTTP/1.0\r\n\r\n"), "HTTP/1.0 400", BAD);
    moved("app 302", &get("/302"), "HTTP/1.0 302", REDIRECTED);
    moved("app 503", &get("/503"), "HTTP/1.0 503", SHED);
    moved("pooled sendfile 200", &get("/file"), "HTTP/1.0 200", SERVED);
    assert_eq!((counters.zero_copy.get(), counters.sendfile.get()), (1, 1));

    // The worker holds one request and the queue the next: a third that
    // needs the pool finds the queue full.
    let looked = srv.app.looked.load(Ordering::SeqCst);
    let hold = || {
        let mut s = srv.connect();
        s.write_all(b"GET /hold HTTP/1.0\r\n\r\n").unwrap();
        s
    };
    let mut held = vec![hold()];
    assert!(wait_until(Duration::from_secs(2), || srv.app.entered.load(Ordering::SeqCst) == 1));
    held.push(hold());
    let queued = || srv.app.looked.load(Ordering::SeqCst) == looked + 2;
    assert!(wait_until(Duration::from_secs(2), queued));
    moved("full-queue 503", &get("/file"), "HTTP/1.0 503", SHED);

    // Two held and one idle connection fill the cap: the next is refused.
    assert!(wait_until(Duration::from_secs(2), || counters.open.get() == 2));
    let idle = srv.connect();
    assert!(wait_until(Duration::from_secs(2), || counters.open.get() == 3));
    let mut refused = String::new();
    let _ = srv.connect().read_to_string(&mut refused);
    moved("cap 503", &refused, "HTTP/1.0 503", SHED);

    for mut s in held {
        release.send(()).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        moved("released 200", &reply, "HTTP/1.0 200", SERVED);
    }

    // A reply past the fetch checkpoint (80% of a 200 ms budget) is
    // replaced, and counted once, as an overrun.
    let (_, gate) = std::sync::mpsc::channel();
    let cfg = ReactorConfig { request_budget: Duration::from_millis(200), ..Default::default() };
    let late = TestServer::start_app(KindApp::new(path, Duration::from_millis(250), gate), cfg);
    let reply = late.exchange(b"GET /late HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 503"), "{reply:?}");
    assert_eq!(outcomes(&late.counters), OVERRUN, "fetch-checkpoint 503");

    // Shutdown drains what is left: an idle connection and one whose
    // 8 MiB reply its client never reads. Neither stays counted.
    let mut stuck = srv.connect();
    stuck.write_all(b"GET /stuck HTTP/1.0\r\n\r\n").unwrap();
    assert!(wait_until(Duration::from_secs(2), || counters.bytes_in_flight.get() > 0));
    drop(srv);
    assert_eq!(counters.open.get(), 0, "open connections after join");
    assert_eq!(counters.bytes_in_flight.get(), 0, "bytes in flight after join");
    drop((idle, stuck, release));
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------- transmit

/// Deterministic binary payload (no `rand` needed; not valid UTF-8).
fn payload(len: usize) -> Vec<u8> {
    let mut state = 0x9e3779b97f4a7c15u64;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// Read a whole response, draining the body in `chunk`-byte nibbles with
/// `pause` between reads (a deliberately slow client), and return
/// (head, body) split at the header terminator.
fn slow_read_response(s: &mut TcpStream, chunk: usize, pause: Duration) -> (String, Vec<u8>) {
    let mut raw = Vec::new();
    let mut buf = vec![0u8; chunk];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                std::thread::sleep(pause);
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator in response");
    let head = String::from_utf8(raw[..split + 4].to_vec()).unwrap();
    (head, raw[split + 4..].to_vec())
}

#[test]
fn large_cached_body_resumes_across_partial_writes() {
    // A body far bigger than any socket buffer forces EAGAIN resumption,
    // and a slow-but-live reader inside the request budget survives.
    let srv = TestServer::start(ReactorConfig::default());
    let body = payload(8 << 20);
    *srv.app.big.lock().unwrap() = Some(Bytes::from(body.clone()));

    let mut s = srv.connect();
    s.write_all(b"GET /big HTTP/1.0\r\n\r\n").unwrap();
    let t0 = Instant::now();
    let (head, got) = slow_read_response(&mut s, 256 << 10, Duration::from_millis(20));
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{head}");
    assert_eq!(got.len(), body.len(), "body truncated after {:?}", t0.elapsed());
    assert_eq!(got, body, "body corrupted in transit");
    assert_eq!(srv.counters.zero_copy.get(), 1, "zero-copy path not taken");
    assert_eq!(srv.counters.evicted.get(), 0, "live reader was evicted");
}

#[test]
fn file_body_streams_intact_with_a_slow_reader() {
    let dir = std::env::temp_dir().join(format!("sweb-reactor-sf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("large.bin");
    let body = payload(8 << 20);
    std::fs::write(&path, &body).unwrap();

    let srv = TestServer::start(ReactorConfig::default());
    *srv.app.file_path.lock().unwrap() = Some(path);

    let mut s = srv.connect();
    s.write_all(b"GET /file HTTP/1.0\r\n\r\n").unwrap();
    let (head, got) = slow_read_response(&mut s, 256 << 10, Duration::from_millis(20));
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{head}");
    assert_eq!(got.len(), body.len(), "file body truncated");
    assert_eq!(got, body, "file body corrupted in transit");
    assert_eq!(srv.counters.evicted.get(), 0, "live reader was evicted");
    assert_eq!(srv.counters.sendfile.get(), 1, "sendfile path not taken");
    let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!(
        "sweb-reactor-sf-{}",
        std::process::id()
    )));
}

#[test]
fn head_on_file_body_reports_length_without_body() {
    let dir = std::env::temp_dir().join(format!("sweb-reactor-head-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.bin");
    std::fs::write(&path, payload(1 << 20)).unwrap();

    let srv = TestServer::start(ReactorConfig::default());
    *srv.app.file_path.lock().unwrap() = Some(path);

    let reply = srv.exchange(b"HEAD /file HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
    assert!(reply.contains(&format!("Content-Length: {}\r\n", 1 << 20)), "{reply}");
    assert!(reply.ends_with("\r\n\r\n"), "HEAD must carry no body: {reply:?}");
    let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!(
        "sweb-reactor-head-{}",
        std::process::id()
    )));
}

// ---------------------------------------------------------------- sharded

/// One HTTP/1.0 exchange against `addr` on a fresh connection.
fn exchange_at(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(raw).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn sharded_group_serves_every_request_and_runs_all_loops() {
    let listener = sweb_reactor::sys::bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
    let apps: Vec<Arc<dyn App>> =
        (0..4).map(|_| Arc::new(EchoApp::default()) as Arc<dyn App>).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let cfg = ReactorConfig::default();
    let counters = Arc::clone(&cfg.counters);
    let handle = sweb_reactor::spawn_sharded(listener, apps, cfg, Arc::clone(&shutdown)).unwrap();
    assert_eq!(handle.shard_count(), 4);
    let addr = handle.addr;

    let live = || (0..4).map(|shard| counters.live.cell_value(shard)).collect::<Vec<_>>();
    assert!(wait_until(Duration::from_secs(2), || live() == [1; 4]), "shards never started");

    for i in 0..24 {
        let reply = exchange_at(addr, format!("GET /r{i} HTTP/1.0\r\n\r\n").as_bytes());
        assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
        assert!(reply.contains(&format!("target=/r{i}")), "{reply}");
    }
    assert_eq!(
        counters.served.get(),
        24,
        "every request must be served exactly once across shards"
    );

    shutdown.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    assert_eq!(live(), [0; 4], "every shard loop must report stopping");
}

#[test]
fn shards_cannot_join_a_listener_bound_without_reuseport() {
    // A plain bind refuses the SO_REUSEPORT group: the second shard's
    // bind fails, and it fails before any loop starts.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let apps: Vec<Arc<EchoApp>> = (0..2).map(|_| Arc::new(EchoApp::default())).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let cfg = ReactorConfig::default();
    let counters = Arc::clone(&cfg.counters);
    let result = sweb_reactor::spawn_sharded(
        listener,
        apps.iter().map(|a| Arc::clone(a) as Arc<dyn App>).collect(),
        cfg,
        Arc::clone(&shutdown),
    );
    let err = result.err().expect("a plain listener cannot host a shard group");
    assert!(err.to_string().contains("sys::bind_reuseport"), "{err}");
    // No loop thread ran: nothing came up, and every app was handed
    // back (the only references left are ours).
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(counters.live.get(), 0, "a shard loop started");
    for app in &apps {
        assert_eq!(Arc::strong_count(app), 1, "a shard loop still holds its app");
    }
}

/// A running two-shard group: one [`EchoApp`] per shard, and what the
/// loops count.
struct Pair {
    handle: ReactorHandle,
    apps: Vec<Arc<EchoApp>>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
}

impl Pair {
    /// Each shard's cell of `cells`.
    fn per_shard<T>(&self, cells: impl Fn(usize) -> T) -> Vec<T> {
        (0..2).map(cells).collect()
    }

    fn join(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.handle.join().unwrap();
    }
}

/// Two shards on one port, once both loops run.
fn start_pair(cfg: ReactorConfig) -> Pair {
    let listener = sweb_reactor::sys::bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
    let apps: Vec<Arc<EchoApp>> = (0..2).map(|_| Arc::new(EchoApp::default())).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::clone(&cfg.counters);
    let handle = sweb_reactor::spawn_sharded(
        listener,
        apps.iter().map(|a| Arc::clone(a) as Arc<dyn App>).collect(),
        cfg,
        Arc::clone(&shutdown),
    )
    .unwrap();
    let started = || counters.live.get() == 2;
    assert!(wait_until(Duration::from_secs(2), started), "shards never started");
    Pair { handle, apps, counters, shutdown }
}

/// The CPUs a two-shard group steers to, or `None` (with the reason
/// printed) where this process may run on fewer than two.
fn two_cpus() -> Option<[usize; 2]> {
    let cpus = sweb_reactor::sys::cpus().unwrap();
    if cpus.len() < 2 {
        eprintln!("skipped: this process may run on {cpus:?}; steering needs two CPUs");
        return None;
    }
    Some([cpus[0], cpus[1]])
}

/// Confine the calling thread to `cpu`.
fn pin_to(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `mask`, live for the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity: {}", std::io::Error::last_os_error());
}

#[test]
fn each_shard_serves_the_connections_that_arrive_on_its_cpu() {
    let Some(cpus) = two_cpus() else { return };
    let pair = start_pair(ReactorConfig::default());
    let addr = pair.handle.addr;
    let opened = || pair.per_shard(|shard| pair.counters.accepted.cell_value(shard));
    for (shard, cpu) in cpus.into_iter().enumerate() {
        let before = opened();
        std::thread::spawn(move || {
            pin_to(cpu);
            for i in 0..200 {
                let reply =
                    exchange_at(addr, format!("GET /c{cpu}/{i} HTTP/1.0\r\n\r\n").as_bytes());
                assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
            }
        })
        .join()
        .unwrap();
        let took: Vec<u64> = opened().iter().zip(&before).map(|(now, then)| now - then).collect();
        let mut want = vec![0; 2];
        want[shard] = 200;
        assert_eq!(took, want, "a client on CPU {cpu} belongs to shard {shard}");
    }
    pair.join();
}

/// A connection opened from a thread confined to `cpu`, so its SYN is
/// processed there.
fn connect_from(cpu: usize, addr: std::net::SocketAddr) -> TcpStream {
    std::thread::spawn(move || {
        pin_to(cpu);
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    })
    .join()
    .unwrap()
}

#[test]
fn a_steered_group_shares_one_admission_cap() {
    // Steering sends every connection from one CPU to one shard, so that
    // shard may hold the group's whole cap, and the group no more.
    let Some(cpus) = two_cpus() else { return };
    let cfg = ReactorConfig { max_conns: 4, ..ReactorConfig::default() };
    let pair = start_pair(cfg);
    let addr = pair.handle.addr;
    let opened = || pair.per_shard(|shard| pair.counters.open.cell_value(shard));
    let shed = || pair.counters.shed.get();

    let idle: Vec<TcpStream> = (0..4).map(|_| connect_from(cpus[0], addr)).collect();
    assert!(
        wait_until(Duration::from_secs(2), || opened() == [4, 0]),
        "4 connections from CPU {} must all be admitted by shard 0: opened {:?}, shed {}",
        cpus[0],
        opened(),
        shed()
    );
    assert_eq!(shed(), 0);

    // The fifth is refused, and so is one from the other CPU, though its
    // shard holds nothing: the cap is the group's.
    for (n, cpu) in [cpus[0], cpus[1]].into_iter().enumerate() {
        let mut extra = connect_from(cpu, addr);
        let mut out = String::new();
        let _ = extra.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.0 503"), "CPU {cpu}: expected shed, got {out:?}");
        assert_eq!(shed(), n as u64 + 1);
    }
    assert_eq!(opened(), [4, 0]);

    drop(idle);
    pair.join();
}

#[test]
fn a_steered_shard_has_every_worker_of_its_group() {
    // Steering puts both connections from one CPU on one shard; the
    // group's two workers must both be free to take its jobs.
    let Some(cpus) = two_cpus() else { return };
    let pair = start_pair(ReactorConfig { workers: 2, ..Default::default() });
    let mut conns: Vec<TcpStream> =
        (0..2).map(|_| connect_from(cpus[0], pair.handle.addr)).collect();
    for s in &mut conns {
        s.write_all(b"GET /meet HTTP/1.0\r\n\r\n").unwrap();
    }
    for s in &mut conns {
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.ends_with("together"), "one shard's jobs met one worker: {out:?}");
    }
    let opened = pair.per_shard(|shard| pair.counters.accepted.cell_value(shard));
    assert_eq!(opened, [2, 0], "both connections belong to shard 0");
    pair.join();
}

/// How many of this process's threads have a `comm` starting `prefix`.
fn threads_named(prefix: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn a_shard_group_runs_its_workers_once_and_join_leaves_no_thread() {
    let listener = sweb_reactor::sys::bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
    let apps: Vec<Arc<dyn App>> =
        (0..3).map(|_| Arc::new(EchoApp::default()) as Arc<dyn App>).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let cfg = ReactorConfig { workers: 2, ..ReactorConfig::default() };
    let handle = sweb_reactor::spawn_sharded(listener, apps, cfg, Arc::clone(&shutdown)).unwrap();
    let port = handle.addr.port();
    let (loops, workers) = (format!("sweb-{port}-s"), format!("sweb-{port}-w"));
    assert_eq!(handle.shard_count(), 3);
    // A thread names itself as it starts: give the last one a moment.
    let named = || threads_named(&loops) == 3 && threads_named(&workers) >= 2;
    assert!(wait_until(Duration::from_secs(2), named), "the group never came up");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(threads_named(&workers), 2, "the group's workers are divided per shard");
    shutdown.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    // An exited thread can outlive its join in `/proc` by a moment.
    let gone = || threads_named(&loops) + threads_named(&workers) == 0;
    assert!(wait_until(Duration::from_secs(1), gone), "join left a thread");
}

#[test]
fn steered_loops_run_in_the_batch_class_and_a_lone_loop_does_not() {
    const SCHED_OTHER: u32 = 0;
    const SCHED_BATCH: u32 = 3;
    // Each loop's first look records the policy it runs under.
    if let Some(cpus) = two_cpus() {
        let pair = start_pair(ReactorConfig::default());
        for cpu in cpus {
            let mut s = connect_from(cpu, pair.handle.addr);
            s.write_all(b"GET /policy HTTP/1.0\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.0 200"), "{out}");
        }
        for app in &pair.apps {
            assert_eq!(*app.loop_policy.lock().unwrap(), Some(SCHED_BATCH));
        }
        pair.join();
    }
    let server = TestServer::start(ReactorConfig::default());
    assert!(server.exchange(b"GET /policy HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 200"));
    assert_eq!(*server.app.loop_policy.lock().unwrap(), Some(SCHED_OTHER));
}

// -------------------------------------------------------------- first look

/// Which of the three ways through `dispatch` a [`LookApp`] takes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// No first look: every request goes to `respond` on a worker.
    Respond,
    /// The first look finishes the reply on the loop thread.
    Inline,
    /// The first look hands back a continuation for the pool.
    Blocking,
}

/// Answers every request the same way in every [`Mode`], and records
/// which thread produced each answer.
struct LookApp {
    mode: Mode,
    /// Served at `/big` (the resident-document shape).
    big: Bytes,
    /// How long `respond` and an inline first look take to answer.
    delay: Duration,
    /// `accept_gate` answers `Pause` on every n-th call; 0 never does.
    pause_every: usize,
    /// `accept_gate` sleeps this long before letting an accept through:
    /// long enough for the client's request to be in the socket when
    /// accept returns, as it is when connect and request arrive together.
    accept_delay: Duration,
    /// Names of the threads `respond` ran on.
    responded_on: Mutex<Vec<String>>,
    /// Names of the threads `first_look` ran on.
    looked_on: Mutex<Vec<String>>,
    /// Names of the threads continuations ran on.
    continued_on: Arc<Mutex<Vec<String>>>,
    gate_calls: AtomicUsize,
}

impl LookApp {
    fn new(mode: Mode) -> LookApp {
        LookApp {
            mode,
            big: Bytes::new(),
            delay: Duration::ZERO,
            pause_every: 0,
            accept_delay: Duration::ZERO,
            responded_on: Mutex::default(),
            looked_on: Mutex::default(),
            continued_on: Arc::default(),
            gate_calls: AtomicUsize::new(0),
        }
    }
}

fn here() -> String {
    std::thread::current().name().unwrap_or("?").to_string()
}

fn answer(big: &Bytes, req: &Request, body: &[u8]) -> Reply {
    if req.target() == "/big" {
        return Response::ok(big.clone(), "application/octet-stream").into();
    }
    Response::ok(format!("target={} body={}", req.target(), body.len()), "text/plain").into()
}

impl App for LookApp {
    fn respond(&self, _peer: &str, req: &Request, body: &[u8]) -> Reply {
        self.responded_on.lock().unwrap().push(here());
        std::thread::sleep(self.delay);
        answer(&self.big, req, body)
    }
    fn first_look(&self, _peer: &str, req: &Request, body: &[u8]) -> Option<FirstLook> {
        self.looked_on.lock().unwrap().push(here());
        match self.mode {
            Mode::Respond => None,
            Mode::Inline => {
                std::thread::sleep(self.delay);
                Some(FirstLook::Done(answer(&self.big, req, body)))
            }
            Mode::Blocking => {
                let (big, continued_on) = (self.big.clone(), Arc::clone(&self.continued_on));
                Some(FirstLook::Blocking(Box::new(move |_peer, req, body| {
                    continued_on.lock().unwrap().push(here());
                    answer(&big, req, body)
                })))
            }
        }
    }
    fn accept_gate(&self) -> AcceptGate {
        let n = self.gate_calls.fetch_add(1, Ordering::SeqCst) + 1;
        std::thread::sleep(self.accept_delay);
        if self.pause_every > 0 && n.is_multiple_of(self.pause_every) {
            AcceptGate::Pause
        } else {
            AcceptGate::Proceed
        }
    }
}

/// One `read`, retried when a signal interrupts it.
fn read_some(s: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match s.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// The script every mode must answer byte for byte the same: a GET, a
/// HEAD, a POST, two keep-alive requests written one after the other's
/// reply, and 64 keep-alive requests pipelined in one segment (the
/// default `keepalive_limit`, so the server closes after the last).
fn run_script(addr: std::net::SocketAddr) -> Vec<String> {
    let mut out = vec![
        exchange_at(addr, b"GET /one HTTP/1.0\r\n\r\n"),
        exchange_at(addr, b"HEAD /head HTTP/1.0\r\n\r\n"),
        exchange_at(addr, b"POST /post HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello"),
    ];
    // Keep-alive, request by request: the second is only written once
    // the first reply has been read.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /ka1 HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
    let mut first = Vec::new();
    let mut buf = [0u8; 512];
    while !first.ends_with(b"target=/ka1 body=0") {
        let n = read_some(&mut s, &mut buf).unwrap();
        assert!(n > 0, "connection closed under keep-alive: {:?}", String::from_utf8_lossy(&first));
        first.extend_from_slice(&buf[..n]);
    }
    s.write_all(b"GET /ka2 HTTP/1.0\r\n\r\n").unwrap();
    let _ = s.read_to_end(&mut first);
    out.push(String::from_utf8(first).unwrap());
    let pipelined: String =
        (0..64).map(|i| format!("GET /p{i} HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")).collect();
    out.push(exchange_at(addr, pipelined.as_bytes()));
    out
}

#[test]
fn inline_first_look_is_byte_identical_to_respond() {
    let pooled = TestServer::start_app(LookApp::new(Mode::Respond), ReactorConfig::default());
    let inline = TestServer::start_app(LookApp::new(Mode::Inline), ReactorConfig::default());
    let (want, got) = (run_script(pooled.addr), run_script(inline.addr));
    for (i, (want, got)) in want.iter().zip(&got).enumerate() {
        assert_eq!(got, want, "exchange {i} differs from respond's");
    }
    // The script itself: 64 pipelined replies, in request order.
    let pipelined = &got[4];
    let order: Vec<usize> = pipelined
        .match_indices("target=/p")
        .map(|(at, _)| {
            let digits = &pipelined[at + "target=/p".len()..];
            digits[..digits.find(' ').unwrap()].parse().unwrap()
        })
        .collect();
    assert_eq!(order, (0..64).collect::<Vec<_>>(), "{pipelined}");
    assert!(got[1].ends_with("\r\n\r\n"), "HEAD carried a body");
    // 3 + 2 + 64 requests: all answered on the loop thread, none by
    // `respond`; the other server never answered inline.
    let loop_thread = format!("sweb-{}-s0", inline.addr.port());
    let looked = inline.app.looked_on.lock().unwrap();
    assert_eq!(looked.len(), 69);
    assert!(looked.iter().all(|t| *t == loop_thread), "{looked:?}");
    assert_eq!(inline.counters.inline.get(), 69);
    assert!(inline.app.responded_on.lock().unwrap().is_empty());
    assert_eq!(pooled.app.responded_on.lock().unwrap().len(), 69);
    assert_eq!(pooled.counters.inline.get(), 0);
}

#[test]
fn blocking_continuation_runs_once_on_a_worker_and_respond_never() {
    let pooled = TestServer::start_app(LookApp::new(Mode::Respond), ReactorConfig::default());
    let srv = TestServer::start_app(LookApp::new(Mode::Blocking), ReactorConfig::default());
    assert_eq!(run_script(srv.addr), run_script(pooled.addr));
    let continued = srv.app.continued_on.lock().unwrap();
    let workers = format!("sweb-{}-w", srv.addr.port());
    assert_eq!(continued.len(), 69, "one continuation per request");
    assert!(
        continued.iter().all(|t| t.starts_with(&workers)),
        "continuation off the pool: {continued:?}"
    );
    assert!(srv.app.responded_on.lock().unwrap().is_empty(), "respond ran as well");
    assert_eq!(srv.counters.inline.get(), 0);
}

#[test]
fn large_inline_body_resumes_across_partial_writes() {
    // The inline path leaves the socket's interest alone until a write
    // blocks; an 8 MiB body blocks many times, and its slow reader stays
    // inside the request budget.
    let body = payload(8 << 20);
    let app = LookApp { big: Bytes::from(body.clone()), ..LookApp::new(Mode::Inline) };
    let srv = TestServer::start_app(app, ReactorConfig::default());
    let mut s = srv.connect();
    s.write_all(b"GET /big HTTP/1.0\r\n\r\n").unwrap();
    let (head, got) = slow_read_response(&mut s, 256 << 10, Duration::from_millis(20));
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert_eq!(got.len(), body.len(), "body truncated");
    assert!(got == body, "body corrupted in transit");
    assert_eq!(srv.counters.evicted.get(), 0, "live reader was evicted");
    assert_eq!(srv.counters.inline.get(), 1);
}

#[test]
fn a_reader_that_stalls_mid_body_is_evicted_at_the_budgets_end() {
    // The reply is ready 300 ms into a 600 ms budget, and its reader
    // stops after the first bytes. The write deadline is the budget's
    // end, fixed at dispatch: the eviction lands 600 ms after the request,
    // not a budget after the write began (900 ms).
    const TICK: u128 = 10;
    const SLACK: u128 = 150;
    let body = payload(16 << 20);
    let app = LookApp {
        big: Bytes::from(body.clone()),
        delay: Duration::from_millis(300),
        ..LookApp::new(Mode::Respond)
    };
    let cfg = ReactorConfig {
        request_budget: Duration::from_millis(600),
        timer_tick_ms: TICK as u64,
        ..ReactorConfig::default()
    };
    let srv = TestServer::start_app(app, cfg);
    let mut s = srv.connect();
    s.write_all(b"GET /big HTTP/1.0\r\n\r\n").unwrap();
    let sent = Instant::now();
    let mut buf = vec![0u8; 64 << 10];
    let first = read_some(&mut s, &mut buf).unwrap();
    assert!(first > 0, "closed before the body began");
    // Stalled: the test reads nothing more until the loop evicts.
    assert!(wait_until(Duration::from_secs(3), || srv.counters.evicted.get() == 1));
    let took = sent.elapsed().as_millis();
    assert!(
        (600 - TICK..=600 + TICK + SLACK).contains(&took),
        "stalled reader evicted after {took} ms, the budget ends at 600"
    );
    let mut got = first;
    while let Ok(n @ 1..) = read_some(&mut s, &mut buf) {
        got += n;
    }
    assert!(got < body.len(), "the whole body arrived: {got} bytes");
    assert_eq!(srv.counters.evicted.get(), 1);
}

/// Milliseconds from `since` until the server closes `s` (EOF, or a
/// reset when it closed over bytes it had not read yet).
fn ms_to_close(s: &mut TcpStream, since: Instant) -> u128 {
    let mut buf = [0u8; 256];
    while !matches!(read_some(s, &mut buf), Ok(0) | Err(_)) {}
    since.elapsed().as_millis()
}

#[test]
fn evictions_land_on_the_same_deadlines_with_lazy_rearm() {
    // Lazy re-arming changes which wheel entries exist, not when a
    // connection is evicted. Parse deadline: a quarter of the budget
    // after the first byte, however the head is dribbled. Idle deadline:
    // one read timeout after the last response — here reached by an
    // entry that was scheduled at admit and re-armed itself.
    const TICK: u128 = 10;
    // Scheduling slack on a shared box; both bounds stay well inside the
    // next-looser deadline (600 ms idle, 1 s budget).
    const SLACK: u128 = 150;
    for mode in [Mode::Respond, Mode::Inline] {
        let cfg = ReactorConfig {
            read_timeout: Duration::from_millis(600),
            request_budget: Duration::from_millis(1000),
            timer_tick_ms: TICK as u64,
            ..ReactorConfig::default()
        };
        let srv = TestServer::start_app(LookApp::new(mode), cfg);
        let tag = format!("{mode:?}");

        // Slowloris: a byte every 40 ms never completes the head.
        let mut slow = srv.connect();
        slow.write_all(b"GET /never").unwrap();
        let first_byte = Instant::now();
        let dribbler = {
            let mut w = slow.try_clone().unwrap();
            std::thread::spawn(move || {
                while w.write_all(b"x").is_ok() {
                    std::thread::sleep(Duration::from_millis(40));
                }
            })
        };
        let took = ms_to_close(&mut slow, first_byte);
        assert!(
            (250 - TICK..=250 + TICK + SLACK).contains(&took),
            "{tag}: slowloris evicted after {took} ms, parse deadline is 250"
        );
        dribbler.join().unwrap();

        // Idle keep-alive: connect, wait, one request, then silence.
        let mut idle = srv.connect();
        std::thread::sleep(Duration::from_millis(200));
        idle.write_all(b"GET /ka HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        let mut reply = Vec::new();
        let mut buf = [0u8; 512];
        while !reply.ends_with(b"target=/ka body=0") {
            let n = read_some(&mut idle, &mut buf).unwrap();
            assert!(n > 0, "{tag}: closed before answering");
            reply.extend_from_slice(&buf[..n]);
        }
        let answered = Instant::now();
        let took = ms_to_close(&mut idle, answered);
        assert!(
            (600 - TICK..=600 + TICK + SLACK).contains(&took),
            "{tag}: idle connection evicted {took} ms after its reply, read timeout is 600"
        );
        assert_eq!(srv.counters.evicted.get(), 2, "{tag}");
    }
}

// ------------------------------------------------------- fresh connections
//
// A connection is read straight after accept and reaches the poller and
// the timer wheel only once something would block. These pin what that
// must not change.

#[test]
fn a_silent_connection_is_evicted_at_the_read_timeout() {
    // Nothing to read after accept: the connection registers and arms
    // its deadline then, one read timeout after admission.
    const TICK: u128 = 10;
    const SLACK: u128 = 150;
    let cfg = ReactorConfig {
        read_timeout: Duration::from_millis(300),
        timer_tick_ms: TICK as u64,
        ..ReactorConfig::default()
    };
    let srv = TestServer::start_app(LookApp::new(Mode::Inline), cfg);
    let mut silent = srv.connect();
    let took = ms_to_close(&mut silent, Instant::now());
    assert!(
        (300 - TICK..=300 + TICK + SLACK).contains(&took),
        "silent connection evicted after {took} ms, read timeout is 300"
    );
    assert_eq!(srv.counters.evicted.get(), 1);
}

#[test]
fn a_head_split_across_two_writes_is_served() {
    for mode in [Mode::Respond, Mode::Inline] {
        let cfg = ReactorConfig::default();
        let srv = TestServer::start_app(LookApp::new(mode), cfg);
        let mut s = srv.connect();
        s.write_all(b"GET /split HTTP/1.0\r\nX-Half: 1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"\r\n").unwrap();
        let mut reply = String::new();
        let _ = s.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.0 200"), "{mode:?}: {reply}");
        assert!(reply.ends_with("target=/split body=0"), "{mode:?}: {reply}");
    }
}

#[test]
fn a_request_followed_by_a_write_shutdown_is_answered() {
    // A half-closed client still wants its answer, however it is made.
    for mode in [Mode::Respond, Mode::Inline, Mode::Blocking] {
        let cfg = ReactorConfig::default();
        let srv = TestServer::start_app(LookApp::new(mode), cfg);
        let mut s = srv.connect();
        s.write_all(b"POST /half HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc").unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        let _ = s.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.0 200"), "{mode:?}: {reply:?}");
        assert!(reply.ends_with("target=/half body=3"), "{mode:?}: {reply}");
    }
}

#[test]
fn a_client_that_hangs_up_on_a_worker_is_closed_exactly_once() {
    let cfg = ReactorConfig::default();
    let app = LookApp { delay: Duration::from_millis(200), ..LookApp::new(Mode::Respond) };
    let srv = TestServer::start_app(app, cfg);
    let mut s = srv.connect();
    s.write_all(b"GET /gone HTTP/1.0\r\n\r\n").unwrap();
    assert!(
        wait_until(Duration::from_secs(2), || !srv.app.responded_on.lock().unwrap().is_empty()),
        "the worker never took the request"
    );
    drop(s);
    // The worker finishes, its answer meets a closed peer, and the
    // slot is freed once: a second close would take the gauge below 0.
    let open = || srv.counters.open.get();
    assert!(wait_until(Duration::from_secs(2), || open() == 0));
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(open(), 0, "closed twice");
    assert_eq!(srv.counters.accepted.get(), 1);
    // And the loop still serves.
    let reply = exchange_at(srv.addr, b"GET /after HTTP/1.0\r\n\r\n");
    assert!(reply.ends_with("target=/after body=0"), "{reply}");
}

#[test]
fn pipelined_requests_on_a_fresh_connection_match_a_registered_one() {
    // 64 keep-alive requests in one segment, sent as soon as connect
    // returns (read straight after accept) or after the server has
    // registered the idle socket: the same bytes either way, in order.
    let pipelined: String =
        (0..64).map(|i| format!("GET /p{i} HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")).collect();
    for mode in [Mode::Respond, Mode::Inline] {
        let cfg = ReactorConfig::default();
        let srv = TestServer::start_app(LookApp::new(mode), cfg);
        let fresh = exchange_at(srv.addr, pipelined.as_bytes());
        let mut s = srv.connect();
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(pipelined.as_bytes()).unwrap();
        let mut registered = String::new();
        let _ = s.read_to_string(&mut registered);
        let tag = format!("{mode:?}");
        assert_eq!(fresh, registered, "{tag}");
        let order: Vec<usize> = fresh
            .match_indices("target=/p")
            .map(|(at, _)| {
                let digits = &fresh[at + "target=/p".len()..];
                digits[..digits.find(' ').unwrap()].parse().unwrap()
            })
            .collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>(), "{tag}");
    }
}

#[test]
fn accept_phase_times_admission_not_the_answer_behind_it() {
    // The first look takes 30 ms and runs in the same loop call as the
    // accept; `Phase::Accept` must still stop at admission.
    let cfg = ReactorConfig::default();
    let app = LookApp { delay: Duration::from_millis(30), ..LookApp::new(Mode::Inline) };
    let srv = TestServer::start_app(app, cfg);
    for i in 0..3 {
        let t0 = Instant::now();
        let reply = exchange_at(srv.addr, format!("GET /a{i} HTTP/1.0\r\n\r\n").as_bytes());
        assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }
    let accept_us = srv.counters.phases.histogram(Phase::Accept);
    assert_eq!(accept_us.count(), 3);
    // Together under the 15 ms each one was allowed: no sample holds an
    // answer's 30 ms.
    assert!(
        accept_us.sum() < 15_000,
        "accept phase took the answer's time: {} µs in all",
        accept_us.sum()
    );
}

#[test]
fn inline_http10_gets_reach_the_poller_about_once_each() {
    // What a connection answered inline straight after accept costs the
    // poller when its request is already in the socket: epoll pays the
    // `epoll_wait` wake-up for the accept and nothing else (no
    // `epoll_ctl` ADD or DEL), so N requests stay within 1.2 N poller
    // syscalls.
    const N: usize = 200;
    let cfg = ReactorConfig {
        // Idle waits time out at the 50 ms cap, not every 20 ms tick.
        timer_tick_ms: 1000,
        ..ReactorConfig::default()
    };
    let app = LookApp { accept_delay: Duration::from_millis(2), ..LookApp::new(Mode::Inline) };
    let srv = TestServer::start_app(app, cfg);
    let get = |target: String| {
        let reply = exchange_at(srv.addr, format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes());
        assert!(reply.ends_with(&format!("target={target} body=0")), "{reply}");
    };
    let syscalls = || srv.counters.poller_syscalls.get();
    get("/warm".into());
    std::thread::sleep(Duration::from_millis(20));
    let before = syscalls();
    for i in 0..N {
        get(format!("/s{i}"));
    }
    std::thread::sleep(Duration::from_millis(20));
    let spent = syscalls() - before;
    assert!(spent * 10 <= N as u64 * 12, "{spent} poller syscalls for {N} requests");
}

/// Read one keep-alive reply of a [`LookApp`] to `target` off `s`.
fn read_reply(s: &mut TcpStream, target: &str) {
    let want = format!("target={target} body=0");
    let mut reply = Vec::new();
    let mut buf = [0u8; 512];
    while !reply.ends_with(want.as_bytes()) {
        let n = read_some(s, &mut buf).unwrap();
        assert!(n > 0, "closed before answering {target}: {:?}", String::from_utf8_lossy(&reply));
        reply.extend_from_slice(&buf[..n]);
    }
}

#[test]
fn held_keepalive_connections_cost_the_poller_nothing_while_idle() {
    // 1,000 keep-alive connections on one shard, each answered once and
    // then left idle. A held connection is registered and sits in the
    // wheel, but the poller is not asked about it until it has bytes: a
    // 500 ms idle window costs the loop's own tick wake-ups (one per
    // timer tick), whatever the number of connections held. One more
    // request on each then costs a share of an `epoll_wait` — no
    // `epoll_ctl`, since the interest is already READ.
    const CONNS: usize = 1000;
    let cfg = ReactorConfig {
        // Idle waits time out once a second, not every 20 ms.
        timer_tick_ms: 1000,
        ..ReactorConfig::default()
    };
    let srv = TestServer::start_app(LookApp::new(Mode::Inline), cfg);
    let ask = |s: &mut TcpStream, target: &str| {
        let req = format!("GET {target} HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        s.write_all(req.as_bytes()).unwrap();
    };
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|i| {
            let mut s = srv.connect();
            ask(&mut s, &format!("/c{i}"));
            read_reply(&mut s, &format!("/c{i}"));
            s
        })
        .collect();
    assert_eq!(srv.counters.accepted.get(), CONNS as u64);
    let syscalls = || srv.counters.poller_syscalls.get();

    std::thread::sleep(Duration::from_millis(100));
    let before = syscalls();
    std::thread::sleep(Duration::from_millis(500));
    let idle = syscalls() - before;
    assert!(idle <= 20, "{idle} poller syscalls in 500 ms with {CONNS} idle connections");

    let before = syscalls();
    for (i, s) in conns.iter_mut().enumerate() {
        ask(s, &format!("/again{i}"));
    }
    for (i, s) in conns.iter_mut().enumerate() {
        read_reply(s, &format!("/again{i}"));
    }
    std::thread::sleep(Duration::from_millis(20));
    let spent = syscalls() - before;
    assert!(
        spent * 10 <= CONNS as u64 * 12,
        "{spent} poller syscalls for one request on each of {CONNS} held connections"
    );
    assert_eq!(srv.counters.accepted.get(), CONNS as u64, "a held connection was replaced");
    assert_eq!(srv.counters.open.get(), CONNS as i64, "a held connection was closed");
}

#[test]
fn a_stream_of_connects_does_not_starve_the_loop() {
    // Six clients reconnect as fast as they are answered, and each
    // answer runs inside the accept loop. The loop must still come round
    // to its timers: a silent connection is evicted on time.
    const TICK: u128 = 10;
    const SLACK: u128 = 150;
    let cfg = ReactorConfig {
        read_timeout: Duration::from_millis(200),
        timer_tick_ms: TICK as u64,
        ..ReactorConfig::default()
    };
    let app = LookApp { delay: Duration::from_millis(1), ..LookApp::new(Mode::Inline) };
    let srv = TestServer::start_app(app, cfg);
    let (addr, stop) = (srv.addr, Arc::new(AtomicBool::new(false)));
    let hammers: Vec<_> = (0..6)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    exchange_at(addr, b"GET /busy HTTP/1.0\r\n\r\n");
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let mut silent = srv.connect();
    let took = ms_to_close(&mut silent, Instant::now());
    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().unwrap();
    }
    assert!(
        took <= 200 + TICK + SLACK,
        "silent connection evicted after {took} ms under a connect storm, read timeout \
         is 200"
    );
}

#[test]
fn a_parked_listener_loses_no_connection_in_flight() {
    // The gate pauses every other accept while eight clients connect,
    // each answer taking 2 ms of loop time: parking and re-arming the
    // listener with connects in flight must lose none of them.
    const CLIENTS: usize = 8;
    const EACH: usize = 25;
    let cfg = ReactorConfig::default();
    let app = LookApp {
        pause_every: 2,
        delay: Duration::from_millis(2),
        ..LookApp::new(Mode::Inline)
    };
    let srv = TestServer::start_app(app, cfg);
    let addr = srv.addr;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                for i in 0..EACH {
                    // Staggered, so connects land while the loop is
                    // busy with someone else's answer.
                    std::thread::sleep(Duration::from_millis(((c + i) % 4) as u64));
                    let target = format!("/c{c}r{i}");
                    let reply =
                        exchange_at(addr, format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes());
                    assert!(
                        reply.ends_with(&format!("target={target} body=0")),
                        "{target}: {reply:?}"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("a request was lost");
    }
    assert_eq!(srv.counters.inline.get(), (CLIENTS * EACH) as u64);
    assert!(srv.app.gate_calls.load(Ordering::SeqCst) >= 3);
}

/// Joins `handle` on another thread; `None` if that takes over a second.
fn join_within_a_second(handle: ReactorHandle) -> Option<Duration> {
    let (tx, rx) = std::sync::mpsc::channel();
    let t0 = Instant::now();
    std::thread::spawn(move || tx.send(handle.join()).unwrap());
    let joined = rx.recv_timeout(Duration::from_secs(1)).ok()?;
    joined.unwrap();
    Some(t0.elapsed())
}

#[test]
fn shutdown_wakes_an_idle_loop() {
    // No connection, no timer, no job: the loop sleeps until an event,
    // with no timeout at all. `join` rings its doorbell, which is what
    // makes it look at the flag; without that this join never returns.
    let shutdown = Arc::new(AtomicBool::new(false));
    let cfg = ReactorConfig::default();
    let live = Arc::clone(&cfg.counters.live);
    let handle = sweb_reactor::spawn(
        TcpListener::bind("127.0.0.1:0").unwrap(),
        Arc::new(EchoApp::default()),
        cfg,
        Arc::clone(&shutdown),
    )
    .unwrap();
    assert!(wait_until(Duration::from_secs(2), || live.get() == 1));
    std::thread::sleep(Duration::from_millis(200)); // well into its sleep
    shutdown.store(true, Ordering::Relaxed);
    let took = join_within_a_second(handle).expect("an idle loop did not see the shutdown");
    eprintln!("an idle loop joined in {took:?}");
    assert_eq!(live.get(), 0);
}

/// A service over one UDP socket: counts the datagrams it drains and the
/// deadlines that woke it, and asks to be woken every 30 ms.
struct Ticker {
    sock: UdpSocket,
    reads: Arc<AtomicUsize>,
    deadlines: Arc<AtomicUsize>,
}

impl Service for Ticker {
    fn fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }
    fn run(&mut self, readable: bool) -> Option<Instant> {
        if readable {
            let mut buf = [0u8; 16];
            while self.sock.recv(&mut buf).is_ok() {
                self.reads.fetch_add(1, Ordering::SeqCst);
            }
        } else {
            self.deadlines.fetch_add(1, Ordering::SeqCst);
        }
        Some(Instant::now() + Duration::from_millis(30))
    }
}

/// Serves nothing but the request target, and hands its loop a [`Ticker`].
struct TickerApp(Mutex<Option<Ticker>>);

impl App for TickerApp {
    fn respond(&self, _peer: &str, req: &Request, _body: &[u8]) -> Reply {
        Response::ok(req.target().to_string(), "text/plain").into()
    }
    fn service(&self) -> Option<Box<dyn Service>> {
        let ticker = self.0.lock().unwrap().take()?;
        Some(Box::new(ticker))
    }
}

#[test]
fn a_service_shares_the_loop_with_its_connections() {
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_nonblocking(true).unwrap();
    let to = sock.local_addr().unwrap();
    let (reads, deadlines) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let ticker = Ticker { sock, reads: Arc::clone(&reads), deadlines: Arc::clone(&deadlines) };
    let srv = TestServer::start_app(TickerApp(Mutex::new(Some(ticker))), ReactorConfig::default());
    // It runs as the loop starts, then at every deadline it asks for...
    assert!(wait_until(Duration::from_secs(2), || deadlines.load(Ordering::SeqCst) >= 3));
    // ...and whenever its fd is readable, beside the connections.
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..3 {
        sender.send_to(b"ping", to).unwrap();
    }
    assert!(wait_until(Duration::from_secs(2), || reads.load(Ordering::SeqCst) == 3));
    assert!(srv.exchange(b"GET /served HTTP/1.0\r\n\r\n").ends_with("/served"));
}
