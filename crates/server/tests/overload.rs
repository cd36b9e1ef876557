//! Overload-control suite: adaptive admission, retry budgets, and the
//! slowloris defence, end to end on the live cluster.
//!
//! The degradation invariant under test extends the chaos suite's "no
//! request may hang": under overload every *shed* response must carry a
//! load-derived `Retry-After`, and a client dribbling header bytes must
//! be evicted on the parse clock. Overload is real: more clients than the
//! node has workers, each holding a worker with `/cgi-bin/burn`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sweb_core::{AdmitClass, Policy};
use sweb_des::SimTime;
use sweb_server::{client, ClusterConfig, Fault, FaultPlan, LiveCluster, StatusReport};

mod support;

/// Build a docroot with a few documents.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-overload-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.txt"), b"served under pressure").unwrap();
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("overload doc {i}").repeat(40))
            .unwrap();
    }
    dir
}

/// The plan seed: fixed for reproducibility, overridable for soak runs.
fn plan_seed() -> u64 {
    std::env::var("SWEB_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Fast failure detection so a crashed peer is marked Dead within a test
/// run, and one loop per node: all of a node's workers then share one
/// 512-job queue, which a [`crowd`] cannot fill, so every 503 is the
/// controller's.
fn overload_config(fault_plan: Option<FaultPlan>) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        policy: Policy::Sweb,
        shards: 1,
        fault_plan,
        ..ClusterConfig::default()
    };
    cfg.sweb.loadd_period = SimTime::from_millis(100);
    cfg.sweb.stale_timeout = SimTime::from_millis(500);
    cfg
}

/// Poll until `check` passes or the deadline expires; panics with `what`
/// on expiry.
fn await_true(deadline: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out after {deadline:?} waiting for: {what}");
}

/// Fetch node `i`'s status report through the JSON API (schema-checked).
fn status(cluster: &LiveCluster, i: usize) -> StatusReport {
    let resp =
        client::get(&format!("{}/sweb-status?format=json", cluster.base_url(i))).unwrap();
    let json = sweb_telemetry::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let report = StatusReport::from_json(&json).expect("status must parse");
    support::assert_current_schema(&report);
    report
}

/// Requests the admission controller refused, summed over classes.
fn admission_sheds(report: &StatusReport) -> i64 {
    let family = "sweb_admission_sheds_total{";
    report.metrics.iter().filter(|(k, _)| k.starts_with(family)).map(|(_, v)| v).sum()
}

/// Unique query values, so the dynamic cache never answers a `burn`.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A real standing queue on the node at `base`: `clients` threads, each
/// sending its next `burn` request (a worker held `ms` milliseconds,
/// unique so the response cache cannot absorb it) as soon as the last one
/// is answered, until `stop`. More clients than the node has workers keep
/// every worker busy and the rest waiting in the queue. Every reply is a
/// definite outcome, and every 503 carries a `Retry-After` of 1–8 s; each
/// client returns the 503s it got.
fn flood(base: &str, clients: usize, ms: u64, stop: &Arc<AtomicBool>) -> Vec<JoinHandle<u64>> {
    (0..clients)
        .map(|_| {
            let (base, stop) = (base.to_string(), Arc::clone(stop));
            std::thread::spawn(move || {
                let mut refused = 0;
                while !stop.load(Ordering::SeqCst) {
                    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
                    let url = format!("{base}/cgi-bin/burn?ms={ms}&cost=1&n={n}");
                    let resp = client::get_with_timeout(&url, Duration::from_secs(5))
                        .unwrap_or_else(|e| panic!("{url}: {e}"));
                    match resp.status {
                        200 | 302 => {}
                        503 => {
                            let retry_after: u64 = resp
                                .headers
                                .get("retry-after")
                                .expect("shed response must carry Retry-After")
                                .parse()
                                .expect("Retry-After must be numeric");
                            assert!((1..=8).contains(&retry_after), "Retry-After {retry_after}");
                            refused += 1;
                        }
                        s => panic!("unexpected status {s} under a standing queue"),
                    }
                }
                refused
            })
        })
        .collect()
}

/// Clients enough for a standing queue on any node: four per worker a
/// node of a one-node cluster runs.
fn crowd() -> usize {
    4 * sweb_reactor::default_workers()
}

/// Stop a [`flood`] and total the 503s its clients got.
fn drain(stop: &AtomicBool, clients: Vec<JoinHandle<u64>>) -> u64 {
    stop.store(true, Ordering::SeqCst);
    clients.into_iter().map(|c| c.join().unwrap()).sum()
}

/// Four clients per worker, each request holding a worker 50 ms: even
/// the luckiest request waits past the 5 ms CoDel target all window, so
/// the controller must shed within a few 100 ms windows. Every
/// 503 carries a load-derived `Retry-After`, and each is counted once by
/// class and once among the node's 503s.
#[test]
fn standing_queue_sheds_with_retry_after() {
    let cluster = LiveCluster::start(1, docroot("shed"), overload_config(None)).unwrap();
    let node = cluster.node(0);
    let stop = Arc::new(AtomicBool::new(false));
    let clients = flood(cluster.base_url(0), crowd(), 50, &stop);
    await_true(Duration::from_secs(10), "the controller shed a dynamic request", || {
        node.stats.admission_sheds_of(AdmitClass::Dynamic).get() >= 1
    });
    // The admin endpoints are never shed: the status API answers while
    // the queue stands.
    let level = status(&cluster, 0).metric("sweb_admission_shed_level").unwrap();
    assert!((0..=3).contains(&level), "level {level}");
    let refused = drain(&stop, clients);

    let report = status(&cluster, 0);
    assert!(refused >= 1, "no client saw a 503");
    assert_eq!(admission_sheds(&report), refused as i64, "{:?}", report.metrics);
    assert_eq!(report.metric("sweb_connections_shed_total"), Some(refused as i64));
    cluster.shutdown();
}

/// A slowloris client dribbling one header byte at a time must be
/// evicted on the absolute parse deadline (budget/4), not kept alive by
/// its own trickle until the full read timeout.
#[test]
fn slowloris_dribble_is_evicted_on_the_parse_clock() {
    let dir = docroot("loris");
    let cfg = ClusterConfig {
        policy: Policy::RoundRobin,
        request_budget: Duration::from_secs(1), // parse budget: 250 ms
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, dir, cfg).unwrap();
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();
    let evicted_before = cluster.node(0).reactor.counters.evicted.get();

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    stream.write_all(b"GET /ok.txt HTTP/1.0\r\n").unwrap();
    let t0 = Instant::now();
    let dribble = b"X-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    let mut closed = false;
    'outer: for byte in dribble.iter().cycle() {
        // A write can succeed into the socket buffer after the server
        // closes; the read is the reliable close detector.
        let _ = stream.write_all(std::slice::from_ref(byte));
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(0) | Err(_) if t0.elapsed() > Duration::from_secs(4) => break 'outer,
            Ok(0) => {
                closed = true;
                break 'outer;
            }
            Ok(_) => {} // an eviction response (503/400) still counts as closed next read
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if t0.elapsed() > Duration::from_secs(4) {
                    break 'outer;
                }
            }
            Err(_) => {
                closed = true;
                break 'outer;
            }
        }
    }
    assert!(closed, "slowloris connection survived {:?}", t0.elapsed());
    assert!(
        t0.elapsed() < Duration::from_millis(900),
        "eviction took {:?}; the parse deadline (250 ms) never fired",
        t0.elapsed()
    );
    await_true(Duration::from_secs(2), "eviction counted", || {
        cluster.node(0).reactor.counters.evicted.get() > evicted_before
    });
    // The server is unharmed: a well-formed request still answers.
    let resp = client::get(&format!("http://{addr}/ok.txt")).unwrap();
    assert_eq!(resp.status, 200);
    cluster.shutdown();
}

/// Seeded chaos composition: a crashed peer *and* a real standing queue
/// at once. Every request reaches a definite outcome, every shed carries
/// `Retry-After`, and failure detection marks the crashed peer Dead.
#[test]
fn crash_under_overload_keeps_every_outcome_definite() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::Crash { node: 1, at_ms: 300 })
        .with(Fault::Revive { node: 1, at_ms: 2_500 });
    let dir = docroot("crash");
    let cluster = LiveCluster::start(2, dir, overload_config(Some(plan))).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));

    // Node 0 queues real work from 600 ms to 2 s of the run.
    let stop = Arc::new(AtomicBool::new(false));
    let mut queue = None;
    let mut sheds_with_header = 0u64;
    let mut outcomes = 0u32;
    while cluster.chaos().now_ms() < 2_300 {
        // Scripted crash/revive ops fire from the workload loop, not a
        // background thread — drive them to their due time.
        cluster.drive_scripted();
        let now = cluster.chaos().now_ms();
        if queue.is_none() && (600..2_000).contains(&now) {
            queue = Some(flood(cluster.base_url(0), crowd(), 50, &stop));
        }
        if now >= 2_000 {
            stop.store(true, Ordering::SeqCst);
        }
        let url = format!("{}/doc{}.txt", cluster.base_url(0), outcomes % 8);
        match client::get_with_timeout(&url, Duration::from_secs(5)) {
            Ok(resp) => {
                assert!(
                    matches!(resp.status, 200 | 302 | 503),
                    "unexpected status {}",
                    resp.status
                );
                if resp.status == 503 {
                    assert!(
                        resp.headers.get("retry-after").is_some(),
                        "503 without Retry-After under overload"
                    );
                    sheds_with_header += 1;
                }
            }
            Err(client::ClientError::Io(e)) => assert!(
                e.kind() != std::io::ErrorKind::TimedOut
                    && e.kind() != std::io::ErrorKind::WouldBlock,
                "request hung: {e}"
            ),
            Err(client::ClientError::BadResponse(_)) => {} // slammed mid-response: definite
            Err(e) => panic!("unexpected failure: {e}"),
        }
        outcomes += 1;
        std::thread::sleep(Duration::from_millis(15));
    }
    let queue = queue.expect("the run never reached the queue's window");
    sheds_with_header += drain(&stop, queue);
    assert!(outcomes >= 20, "only {outcomes} requests completed");
    assert!(sheds_with_header >= 1, "the standing queue never shed");
    // The crash was detected on silence alone.
    assert!(cluster.node(0).stats.peer_dead.get() >= 1, "the crashed peer was never marked dead");
    cluster.shutdown();
}
