//! End-to-end tests of the event loop against real sockets: serving,
//! keep-alive, pipelining, slow-client eviction, and 503 shedding.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sweb_http::{Request, Response, StatusCode};
use sweb_reactor::{
    AcceptGate, App, FileBody, FirstLook, Payload, ReactorConfig, ReactorHandle, Reply, Service,
};
use sweb_telemetry::Phase;

/// Minimal app: answers with the request target, counts every hook.
/// `/big` serves the configured in-memory body (the cached-file shape);
/// `/file` serves the configured file as a streamed [`FileBody`].
#[derive(Default)]
struct EchoApp {
    served: AtomicUsize,
    evicted: AtomicUsize,
    shed: AtomicUsize,
    bad: AtomicUsize,
    open: AtomicUsize,
    closed: AtomicUsize,
    zero_copy: AtomicUsize,
    sendfile: AtomicUsize,
    shard_starts: AtomicUsize,
    shard_stops: AtomicUsize,
    /// The loop thread's scheduling policy as it started.
    loop_policy: Mutex<Option<u32>>,
    big: Mutex<Option<Bytes>>,
    file_path: Mutex<Option<PathBuf>>,
}

impl App for EchoApp {
    fn respond(&self, _peer: &str, req: &Request, body: &[u8]) -> Reply {
        self.served.fetch_add(1, Ordering::SeqCst);
        if req.target == "/big" {
            if let Some(b) = self.big.lock().unwrap().clone() {
                return Response::ok(b, "application/octet-stream").into();
            }
        }
        if req.target == "/file" {
            if let Some(p) = self.file_path.lock().unwrap().clone() {
                let file = std::fs::File::open(&p).unwrap();
                let len = file.metadata().unwrap().len();
                return Reply {
                    response: Response::ok("", "application/octet-stream"),
                    file: Some(FileBody { file, len }),
                };
            }
        }
        Response::ok(format!("target={} body={}", req.target, body.len()), "text/plain").into()
    }
    fn on_conn_open(&self) {
        self.open.fetch_add(1, Ordering::SeqCst);
    }
    fn on_conn_close(&self) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
    fn on_evict(&self) {
        self.evicted.fetch_add(1, Ordering::SeqCst);
    }
    fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::SeqCst);
    }
    fn on_bad_request(&self) {
        self.bad.fetch_add(1, Ordering::SeqCst);
    }
    fn on_reply(&self, _status: StatusCode, payload: Payload) {
        let counter = match payload {
            Payload::Bytes => &self.zero_copy,
            Payload::File => &self.sendfile,
            Payload::None => return,
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }
    fn on_shard_start(&self) {
        *self.loop_policy.lock().unwrap() = Some(sched_policy());
        self.shard_starts.fetch_add(1, Ordering::SeqCst);
    }
    fn on_shard_stop(&self) {
        self.shard_stops.fetch_add(1, Ordering::SeqCst);
    }
}

struct TestServer<A: App = EchoApp> {
    app: Arc<A>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = sweb_reactor::spawn(
            listener,
            Arc::clone(&app) as Arc<dyn App>,
            cfg,
            Arc::clone(&shutdown),
        )
        .unwrap();
        let addr = handle.addr;
        TestServer { app, handle: Some(handle), shutdown, addr }
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
    assert_eq!(srv.app.served.load(Ordering::SeqCst), 1);
}

#[test]
fn serves_post_bodies_and_rejects_missing_length() {
    let srv = TestServer::start(ReactorConfig::default());
    let reply = srv.exchange(b"POST /cgi HTTP/1.0\r\nContent-Length: 4\r\n\r\nabcd");
    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
    assert!(reply.contains("body=4"), "{reply}");
    let reply = srv.exchange(b"POST /cgi HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 400"), "{reply}");
    assert_eq!(srv.app.bad.load(Ordering::SeqCst), 1);
    // Only the app's own reply reaches `on_reply`; the reactor's 400 is
    // counted by `on_bad_request` alone.
    assert_eq!(srv.app.zero_copy.load(Ordering::SeqCst), 1);
}

#[test]
fn malformed_request_gets_400_and_close() {
    let srv = TestServer::start(ReactorConfig::default());
    let reply = srv.exchange(b"GET nopath HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 400"), "{reply}");
    assert_eq!(srv.app.bad.load(Ordering::SeqCst), 1);
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
    assert_eq!(srv.app.open.load(Ordering::SeqCst), 1);
    assert_eq!(srv.app.served.load(Ordering::SeqCst), 2);
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
        wait_until(Duration::from_secs(2), || srv.app.evicted.load(Ordering::SeqCst) >= 1),
        "slow client never evicted"
    );
    let mut buf = [0u8; 64];
    let n = slow.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF on the evicted connection");
    // The slow client never completed a request, so nothing was served
    // on its behalf.
    assert_eq!(srv.app.bad.load(Ordering::SeqCst), 0);
}

#[test]
fn connections_beyond_the_cap_are_shed_with_503() {
    let cfg = ReactorConfig { max_conns: 2, ..ReactorConfig::default() };
    let srv = TestServer::start(cfg);

    // Two idle connections fill the admission cap.
    let _a = srv.connect();
    let _b = srv.connect();
    assert!(
        wait_until(Duration::from_secs(2), || srv.app.open.load(Ordering::SeqCst) == 2),
        "first two connections not tracked"
    );

    // The third is refused with 503 and closed.
    let mut c = srv.connect();
    let mut out = String::new();
    let _ = c.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.0 503"), "expected shed, got: {out:?}");
    assert_eq!(srv.app.shed.load(Ordering::SeqCst), 1);

    // Dropping one admitted connection frees a slot for new work.
    drop(_a);
    assert!(
        wait_until(Duration::from_secs(2), || srv.app.closed.load(Ordering::SeqCst) >= 1),
        "freed slot never noticed"
    );
    let reply = srv.exchange(b"GET /after HTTP/1.0\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
}

#[test]
fn clean_shutdown_closes_open_connections() {
    let srv = TestServer::start(ReactorConfig::default());
    let mut idle = srv.connect();
    assert!(wait_until(Duration::from_secs(2), || srv.app.open.load(Ordering::SeqCst) == 1));
    drop(srv); // flags shutdown and joins the loop
    let mut buf = [0u8; 8];
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "open connection must be closed on shutdown");
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
    // and a write timeout shorter than the total transfer proves the
    // deadline re-arms on progress (a slow-but-live reader survives).
    let cfg = ReactorConfig {
        write_timeout: Duration::from_millis(400),
        timer_tick_ms: 10,
        ..ReactorConfig::default()
    };
    let srv = TestServer::start(cfg);
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
    assert_eq!(srv.app.zero_copy.load(Ordering::SeqCst), 1, "zero-copy path not taken");
    assert_eq!(srv.app.evicted.load(Ordering::SeqCst), 0, "live reader was evicted");
}

#[test]
fn file_body_streams_intact_with_a_slow_reader() {
    let dir = std::env::temp_dir().join(format!("sweb-reactor-sf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("large.bin");
    let body = payload(8 << 20);
    std::fs::write(&path, &body).unwrap();

    let cfg = ReactorConfig {
        write_timeout: Duration::from_millis(400),
        timer_tick_ms: 10,
        ..ReactorConfig::default()
    };
    let srv = TestServer::start(cfg);
    *srv.app.file_path.lock().unwrap() = Some(path);

    let mut s = srv.connect();
    s.write_all(b"GET /file HTTP/1.0\r\n\r\n").unwrap();
    let (head, got) = slow_read_response(&mut s, 256 << 10, Duration::from_millis(20));
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{head}");
    assert_eq!(got.len(), body.len(), "file body truncated");
    assert_eq!(got, body, "file body corrupted in transit");
    assert_eq!(srv.app.evicted.load(Ordering::SeqCst), 0, "live reader was evicted");
    assert_eq!(srv.app.sendfile.load(Ordering::SeqCst), 1, "sendfile path not taken");
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
    // Four shards, one app per shard so per-shard activity is visible.
    let listener = sweb_reactor::sys::bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
    let apps: Vec<Arc<EchoApp>> = (0..4).map(|_| Arc::new(EchoApp::default())).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = sweb_reactor::spawn_sharded(
        listener,
        apps.iter().map(|a| Arc::clone(a) as Arc<dyn App>).collect(),
        ReactorConfig::default(),
        Arc::clone(&shutdown),
    )
    .unwrap();
    assert_eq!(handle.shard_count(), 4);
    let addr = handle.addr;

    let total_started =
        || apps.iter().map(|a| a.shard_starts.load(Ordering::SeqCst)).sum::<usize>();
    assert!(wait_until(Duration::from_secs(2), || total_started() == 4), "shards never started");

    for i in 0..24 {
        let reply = exchange_at(addr, format!("GET /r{i} HTTP/1.0\r\n\r\n").as_bytes());
        assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
        assert!(reply.contains(&format!("target=/r{i}")), "{reply}");
    }
    let total_served = apps.iter().map(|a| a.served.load(Ordering::SeqCst)).sum::<usize>();
    assert_eq!(total_served, 24, "every request must be served exactly once across shards");

    shutdown.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    let total_stopped = apps.iter().map(|a| a.shard_stops.load(Ordering::SeqCst)).sum::<usize>();
    assert_eq!(total_stopped, 4, "every shard loop must report stopping");
}

#[test]
fn shards_cannot_join_a_listener_bound_without_reuseport() {
    // A plain bind refuses the SO_REUSEPORT group: the second shard's
    // bind fails, and it fails before any loop starts.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let apps: Vec<Arc<EchoApp>> = (0..2).map(|_| Arc::new(EchoApp::default())).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let result = sweb_reactor::spawn_sharded(
        listener,
        apps.iter().map(|a| Arc::clone(a) as Arc<dyn App>).collect(),
        ReactorConfig::default(),
        Arc::clone(&shutdown),
    );
    let err = result.err().expect("a plain listener cannot host a shard group");
    assert!(err.to_string().contains("sys::bind_reuseport"), "{err}");
    // No loop thread ran: nothing came up, and every app was handed
    // back (the only references left are ours).
    std::thread::sleep(Duration::from_millis(50));
    for app in &apps {
        assert_eq!(app.shard_starts.load(Ordering::SeqCst), 0, "a shard loop started");
        assert_eq!(Arc::strong_count(app), 1, "a shard loop still holds its app");
    }
}

/// Two shards on one port, one [`EchoApp`] each, once both loops run.
fn start_pair() -> (sweb_reactor::ShardedHandle, Vec<Arc<EchoApp>>, Arc<AtomicBool>) {
    let listener = sweb_reactor::sys::bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
    let apps: Vec<Arc<EchoApp>> = (0..2).map(|_| Arc::new(EchoApp::default())).collect();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = sweb_reactor::spawn_sharded(
        listener,
        apps.iter().map(|a| Arc::clone(a) as Arc<dyn App>).collect(),
        ReactorConfig::default(),
        Arc::clone(&shutdown),
    )
    .unwrap();
    let started = || apps.iter().all(|a| a.shard_starts.load(Ordering::SeqCst) == 1);
    assert!(wait_until(Duration::from_secs(2), started), "shards never started");
    (handle, apps, shutdown)
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
    let (handle, apps, shutdown) = start_pair();
    let addr = handle.addr;
    let opened = || apps.iter().map(|a| a.open.load(Ordering::SeqCst)).collect::<Vec<_>>();
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
        let took: Vec<usize> = opened().iter().zip(&before).map(|(now, then)| now - then).collect();
        let mut want = vec![0; 2];
        want[shard] = 200;
        assert_eq!(took, want, "a client on CPU {cpu} belongs to shard {shard}");
    }
    shutdown.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

#[test]
fn steered_loops_run_in_the_batch_class_and_a_lone_loop_does_not() {
    const SCHED_OTHER: u32 = 0;
    const SCHED_BATCH: u32 = 3;
    if two_cpus().is_some() {
        let (handle, apps, shutdown) = start_pair();
        for app in &apps {
            assert_eq!(*app.loop_policy.lock().unwrap(), Some(SCHED_BATCH));
        }
        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
    let server = TestServer::start(ReactorConfig::default());
    let started = || server.app.shard_starts.load(Ordering::SeqCst) == 1;
    assert!(wait_until(Duration::from_secs(2), started), "the loop never started");
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
    inline: AtomicUsize,
    evicted: AtomicUsize,
    opened: AtomicUsize,
    closed: AtomicUsize,
    gate_calls: AtomicUsize,
    /// Every `Phase::Accept` sample, µs.
    accept_us: Mutex<Vec<u64>>,
    /// Poller syscalls, summed from `on_poller_syscalls`.
    poller_syscalls: AtomicU64,
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
            inline: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
            opened: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
            gate_calls: AtomicUsize::new(0),
            accept_us: Mutex::default(),
            poller_syscalls: AtomicU64::new(0),
        }
    }
}

fn here() -> String {
    std::thread::current().name().unwrap_or("?").to_string()
}

fn answer(big: &Bytes, req: &Request, body: &[u8]) -> Reply {
    if req.target == "/big" {
        return Response::ok(big.clone(), "application/octet-stream").into();
    }
    Response::ok(format!("target={} body={}", req.target, body.len()), "text/plain").into()
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
    fn on_inline(&self, _micros: u64) {
        self.inline.fetch_add(1, Ordering::SeqCst);
    }
    fn on_evict(&self) {
        self.evicted.fetch_add(1, Ordering::SeqCst);
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
    fn on_conn_open(&self) {
        self.opened.fetch_add(1, Ordering::SeqCst);
    }
    fn on_conn_close(&self) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
    fn on_phase(&self, phase: Phase, micros: u64) {
        if phase == Phase::Accept {
            self.accept_us.lock().unwrap().push(micros);
        }
    }
    fn on_poller_syscalls(&self, count: u64) {
        self.poller_syscalls.fetch_add(count, Ordering::SeqCst);
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
    let cfg = ReactorConfig::default();
    let pooled = TestServer::start_app(LookApp::new(Mode::Respond), cfg.clone());
    let inline = TestServer::start_app(LookApp::new(Mode::Inline), cfg);
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
    let loop_thread = format!("sweb-reactor-{}-s0", inline.addr.port());
    let looked = inline.app.looked_on.lock().unwrap();
    assert_eq!(looked.len(), 69);
    assert!(looked.iter().all(|t| *t == loop_thread), "{looked:?}");
    assert_eq!(inline.app.inline.load(Ordering::SeqCst), 69);
    assert!(inline.app.responded_on.lock().unwrap().is_empty());
    assert_eq!(pooled.app.responded_on.lock().unwrap().len(), 69);
    assert_eq!(pooled.app.inline.load(Ordering::SeqCst), 0);
}

#[test]
fn blocking_continuation_runs_once_on_a_worker_and_respond_never() {
    let cfg = ReactorConfig::default();
    let pooled = TestServer::start_app(LookApp::new(Mode::Respond), cfg.clone());
    let srv = TestServer::start_app(LookApp::new(Mode::Blocking), cfg);
    assert_eq!(run_script(srv.addr), run_script(pooled.addr));
    let continued = srv.app.continued_on.lock().unwrap();
    assert_eq!(continued.len(), 69, "one continuation per request");
    assert!(
        continued.iter().all(|t| t.starts_with("sweb-worker-")),
        "continuation off the pool: {continued:?}"
    );
    assert!(srv.app.responded_on.lock().unwrap().is_empty(), "respond ran as well");
    assert_eq!(srv.app.inline.load(Ordering::SeqCst), 0);
}

#[test]
fn large_inline_body_resumes_across_partial_writes() {
    // The inline path leaves the socket's interest alone until a write
    // blocks; an 8 MiB body blocks many times, and the write timeout is
    // shorter than the transfer, so this also proves the lazily re-armed
    // deadline keeps moving with progress.
    let cfg = ReactorConfig {
        write_timeout: Duration::from_millis(400),
        timer_tick_ms: 10,
        ..ReactorConfig::default()
    };
    let body = payload(8 << 20);
    let app = LookApp { big: Bytes::from(body.clone()), ..LookApp::new(Mode::Inline) };
    let srv = TestServer::start_app(app, cfg);
    let mut s = srv.connect();
    s.write_all(b"GET /big HTTP/1.0\r\n\r\n").unwrap();
    let (head, got) = slow_read_response(&mut s, 256 << 10, Duration::from_millis(20));
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert_eq!(got.len(), body.len(), "body truncated");
    assert!(got == body, "body corrupted in transit");
    assert_eq!(srv.app.evicted.load(Ordering::SeqCst), 0, "live reader was evicted");
    assert_eq!(srv.app.inline.load(Ordering::SeqCst), 1);
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
        assert_eq!(srv.app.evicted.load(Ordering::SeqCst), 2, "{tag}");
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
    assert_eq!(srv.app.evicted.load(Ordering::SeqCst), 1);
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
    // slot is freed once.
    let closed = || srv.app.closed.load(Ordering::SeqCst);
    assert!(wait_until(Duration::from_secs(2), || closed() == 1));
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(closed(), 1, "closed twice");
    assert_eq!(srv.app.opened.load(Ordering::SeqCst), 1);
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
    let accept_us = srv.app.accept_us.lock().unwrap().clone();
    assert_eq!(accept_us.len(), 3);
    assert!(
        accept_us.iter().all(|&us| us < 15_000),
        "accept phase took the answer's time: {accept_us:?} µs"
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
    let syscalls = || srv.app.poller_syscalls.load(Ordering::SeqCst);
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
    assert_eq!(srv.app.opened.load(Ordering::SeqCst), CONNS);
    let syscalls = || srv.app.poller_syscalls.load(Ordering::SeqCst);

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
    assert_eq!(srv.app.opened.load(Ordering::SeqCst), CONNS, "a held connection was replaced");
    assert_eq!(srv.app.closed.load(Ordering::SeqCst), 0, "a held connection was closed");
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
    assert_eq!(srv.app.inline.load(Ordering::SeqCst), CLIENTS * EACH);
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
    let app = Arc::new(EchoApp::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = sweb_reactor::spawn(
        TcpListener::bind("127.0.0.1:0").unwrap(),
        Arc::clone(&app) as Arc<dyn App>,
        ReactorConfig::default(),
        Arc::clone(&shutdown),
    )
    .unwrap();
    assert!(wait_until(Duration::from_secs(2), || app.shard_starts.load(Ordering::SeqCst) == 1));
    std::thread::sleep(Duration::from_millis(200)); // well into its sleep
    shutdown.store(true, Ordering::Relaxed);
    let took = join_within_a_second(handle).expect("an idle loop did not see the shutdown");
    eprintln!("an idle loop joined in {took:?}");
    assert_eq!(app.shard_stops.load(Ordering::SeqCst), 1);
}

/// A service over one UDP socket: counts the datagrams it drains and the
/// deadlines that woke it, and asks to be woken every 30 ms.
struct Ticker {
    sock: UdpSocket,
    reads: Arc<AtomicUsize>,
    deadlines: Arc<AtomicUsize>,
}

impl Service for Ticker {
    fn fds(&self) -> Vec<RawFd> {
        vec![self.sock.as_raw_fd()]
    }
    fn run(&mut self, ready: Option<RawFd>) -> Option<Instant> {
        if ready.is_some() {
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
        Response::ok(req.target.clone(), "text/plain").into()
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
