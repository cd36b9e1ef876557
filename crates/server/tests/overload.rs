//! Overload-control suite: adaptive admission, circuit breakers, retry
//! budgets, and the slowloris defence, end to end on the live cluster.
//!
//! The degradation invariant under test extends the chaos suite's "no
//! request may hang": under overload every *shed* response must carry a
//! load-derived `Retry-After`, a blackholed peer must stop costing
//! forwards their full deadline once its breaker opens, and a client
//! dribbling header bytes must be evicted on the parse clock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sweb_cluster::NodeId;
use sweb_core::{BreakerState, Policy};
use sweb_des::SimTime;
use sweb_server::{
    client, ClusterConfig, Fault, FaultPlan, LiveCluster, StatusReport, Window,
};

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

/// Fast failure detection so breaker force-opens fit in a test run.
fn overload_config(plan: FaultPlan) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        policy: Policy::Sweb,
        fault_plan: Some(plan),
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

/// A synthetic standing queue (the `overload` fault inflates every
/// sojourn sample by 500 ms against the 5 ms CoDel target) must drive
/// the controller to shedding within a few 100 ms windows — and every
/// shed response must carry a load-derived `Retry-After`.
#[test]
fn injected_overload_sheds_with_retry_after() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::Overload { node: 0, sojourn_us: 500_000, window: Window::ALWAYS });
    let dir = docroot("shed");
    let cluster = LiveCluster::start(1, dir, overload_config(plan)).unwrap();
    let url = format!("{}/ok.txt", cluster.base_url(0));

    let mut shed = None;
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let resp = client::get_with_timeout(&url, Duration::from_secs(5)).unwrap();
        match resp.status {
            200 => std::thread::sleep(Duration::from_millis(10)),
            503 => {
                shed = Some(resp);
                break;
            }
            s => panic!("unexpected status {s} under injected overload"),
        }
    }
    let shed = shed.expect("controller never escalated to shedding");
    let retry_after: u64 = shed
        .headers
        .get("retry-after")
        .expect("shed response must carry Retry-After")
        .parse()
        .expect("Retry-After must be numeric");
    assert!((1..=8).contains(&retry_after), "Retry-After out of range: {retry_after}");

    // The admin endpoints are never shed: the status API answers even at
    // level 3, and its v7 overload block shows what just happened.
    let report = status(&cluster, 0);
    let metric = |series: &str| report.metric(series).unwrap();
    assert!(report.overload.enabled);
    let level = metric("sweb_admission_shed_level");
    assert!(level >= 2, "level {level} after sustained overload");
    assert!(admission_sheds(&report) >= 1, "no class was shed: {:?}", report.metrics);
    assert!(metric("sweb_connections_shed_total") >= 1);
    let inflated = metric("sweb_faults_injected_total{kind=\"overload_samples\"}");
    assert!(inflated >= 1, "the fault never inflated a sample");
    cluster.shutdown();
}

/// The A/B baseline: the same injected overload with `--overload off`
/// never sheds by admission — the static path (`max_conns`) is all
/// that's left, and these sequential requests never hit it.
#[test]
fn controller_off_is_the_static_baseline() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::Overload { node: 0, sojourn_us: 500_000, window: Window::ALWAYS });
    let dir = docroot("baseline");
    let cfg = ClusterConfig { overload_control: false, ..overload_config(plan) };
    let cluster = LiveCluster::start(1, dir, cfg).unwrap();
    let url = format!("{}/ok.txt", cluster.base_url(0));

    for i in 0..30 {
        let resp = client::get_with_timeout(&url, Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200, "request {i} shed with the controller off");
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = status(&cluster, 0);
    assert!(!report.overload.enabled);
    assert_eq!(report.metric("sweb_admission_shed_level"), Some(0));
    assert_eq!(admission_sheds(&report), 0);
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
    let evicted_before = cluster.node(0).stats.evicted.get();

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
        cluster.node(0).stats.evicted.get() > evicted_before
    });
    // The server is unharmed: a well-formed request still answers.
    let resp = client::get(&format!("http://{addr}/ok.txt")).unwrap();
    assert_eq!(resp.status, 200);
    cluster.shutdown();
}

/// A peer whose channel blackholes (every transfer delayed past the
/// request budget) costs each forward its full deadline — until the
/// breaker opens. After that, requests to the same documents must come
/// back fast: the broker reprices the peer out and `fetch_via_peer`
/// refuses up front instead of sleeping into the injected delay.
#[test]
fn open_breaker_stops_paying_the_peer_deadline() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::PeerDelay { from: 1, to: 0, delay_ms: 1_500, window: Window::ALWAYS });
    let dir = docroot("breaker");
    let mut cfg = overload_config(plan);
    cfg.policy = Policy::FileLocality; // deterministic pull targets: the home
    cfg.sweb.peer_transfer = true;
    cfg.request_budget = Duration::from_millis(500);
    let cluster = LiveCluster::start(2, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));

    // Phase 1: drive forwards into the delayed channel until the breaker
    // trips (3 strikes). Every request still ends definitively.
    let t0 = Instant::now();
    while cluster.node(0).breakers.state(NodeId(1)) != BreakerState::Open {
        assert!(t0.elapsed() < Duration::from_secs(20), "breaker never opened");
        for i in 0..8 {
            let url = format!("{}/doc{i}.txt", cluster.base_url(0));
            let resp = client::get_with_timeout(&url, Duration::from_secs(10)).unwrap();
            assert!(
                resp.status == 200 || resp.status == 503 || resp.status == 302,
                "doc{i}: {}",
                resp.status
            );
            if cluster.node(0).breakers.state(NodeId(1)) == BreakerState::Open {
                break;
            }
        }
    }
    assert!(cluster.node(0).breakers.opens_total() >= 1);

    // Phase 2: with the breaker open, the same documents must be served
    // without paying the 1.5 s injected delay or the 500 ms budget —
    // the peer is repriced out before any channel work starts.
    for i in 0..8 {
        let url = format!("{}/doc{i}.txt", cluster.base_url(0));
        let t1 = Instant::now();
        let resp = client::get_with_timeout(&url, Duration::from_secs(5)).unwrap();
        let elapsed = t1.elapsed();
        assert_eq!(resp.status, 200, "doc{i} after breaker opened");
        assert!(
            elapsed < Duration::from_millis(400),
            "doc{i} still paying the blackholed peer: {elapsed:?}"
        );
    }
    let report = status(&cluster, 0);
    assert_eq!(report.overload.breakers[1], "open");
    assert!(report.metric("sweb_breaker_opens_total") >= Some(1));
    cluster.shutdown();
}

/// Seeded chaos composition: a crashed peer *and* injected overload at
/// once. Every request reaches a definite outcome, every shed carries
/// `Retry-After`, and the dead peer's breaker is forced open by failure
/// detection (no forward has to pay to find out).
#[test]
fn crash_under_overload_keeps_every_outcome_definite() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::Overload { node: 0, sojourn_us: 100_000, window: Window::between(600, 2_000) })
        .with(Fault::Crash { node: 1, at_ms: 300 })
        .with(Fault::Revive { node: 1, at_ms: 2_500 });
    let dir = docroot("crash");
    let cluster = LiveCluster::start(2, dir, overload_config(plan)).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));

    let mut sheds_with_header = 0u32;
    let mut outcomes = 0u32;
    while cluster.chaos().now_ms() < 2_300 {
        // Scripted crash/revive ops fire from the workload loop, not a
        // background thread — drive them to their due time.
        cluster.drive_scripted();
        let url = format!("{}/doc{}.txt", cluster.base_url(0), outcomes % 8);
        match client::get_with_timeout(&url, Duration::from_secs(5)) {
            Ok(resp) => {
                assert!(
                    resp.status == 200 || resp.status == 503,
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
    assert!(outcomes >= 20, "only {outcomes} requests completed");
    assert!(sheds_with_header >= 1, "overload window never shed");
    // The crash was detected and the breaker force-opened without a
    // single forward having to time out against the corpse.
    assert!(cluster.node(0).breakers.opens_total() >= 1, "dead peer's breaker never opened");
    cluster.shutdown();
}
