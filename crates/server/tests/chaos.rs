//! Chaos suite: deterministic fault injection against the live cluster.
//!
//! The invariant under test is always the same: **no request may hang**
//! — whatever faults are active, a client with a sane timeout gets a
//! definite outcome (a 2xx/3xx/5xx response, a refused connection, or a
//! clean close), and the cluster's failure-domain machinery
//! (Suspect/Dead marking, drain eviction, deadline shedding) reacts
//! within its documented windows.
//!
//! Each test writes its `FaultPlan` to `target/chaos/` before running, so
//! a CI failure leaves a replayable artifact (`swebd --fault-plan FILE`).
//! `SWEB_CHAOS_SEED` overrides the plan seed for soak runs.

use std::io::ErrorKind;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sweb_cluster::NodeId;
use sweb_core::{PeerHealth, Policy};
use sweb_des::SimTime;
use sweb_server::client::Session;
use sweb_server::{
    client, home_of, AccessLog, ClusterConfig, Fault, FaultPlan, LiveCluster, StatusReport, Window,
};

mod support;

/// Build a docroot with a few documents.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.txt"), b"definitely served").unwrap();
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("chaos doc {i}").repeat(50))
            .unwrap();
    }
    dir
}

/// The plan seed: fixed for reproducibility, overridable for soak runs.
fn plan_seed() -> u64 {
    std::env::var("SWEB_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Persist the plan where CI can pick it up on failure (`target/chaos/`),
/// and prove the on-disk artifact round-trips to the plan we are running.
fn save_plan(name: &str, plan: &FaultPlan) {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "../../target".to_string());
    let dir = std::path::Path::new(&target).join("chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.plan"));
    std::fs::write(&path, plan.to_text()).unwrap();
    let back = FaultPlan::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(&back, plan, "saved plan must replay identically");
}

/// Short gossip windows so failure detection fits in a test run: Suspect
/// after 100 ms of silence, Dead after 500 ms.
fn chaos_config(plan: FaultPlan) -> ClusterConfig {
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
/// on expiry. Returns how long it took.
fn await_true(deadline: Duration, what: &str, mut check: impl FnMut() -> bool) -> Duration {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if check() {
            return t0.elapsed();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out after {deadline:?} waiting for: {what}");
}

/// Health of `peer` as `observer` sees it.
fn health_seen(cluster: &LiveCluster, observer: usize, peer: usize) -> PeerHealth {
    cluster.node(observer).loads.read().health(NodeId(peer as u32))
}

/// Kill a node under live traffic, revive it, and require every single
/// request to reach a definite outcome — a response or a refused
/// connection, never a socket timeout (the client-visible face of a
/// hang). After revival the victim must rejoin the scheduling pool. Runs
/// with one shard per core, then with four shards per node, so a killed
/// node has more loops than CPUs to stop and restart.
#[test]
fn hard_kill_mid_workload_never_hangs() {
    for shards in [0, 4] {
        hard_kill_mid_workload(shards);
    }
}

fn hard_kill_mid_workload(shards: usize) {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::Crash { node: 2, at_ms: 400 })
        .with(Fault::Revive { node: 2, at_ms: 1_400 });
    save_plan("hard-kill", &plan);
    let dir = docroot("kill");
    let cfg = ClusterConfig { shards, ..chaos_config(plan) };
    let cluster = LiveCluster::start(3, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)), "mesh must converge first");

    let mut outcomes = 0u32;
    let mut refused = 0u32;
    while cluster.chaos().now_ms() < 2_200 {
        cluster.drive_scripted();
        for target in [0usize, 1] {
            let url = format!("{}/doc{}.txt", cluster.base_url(target), outcomes % 8);
            match client::get_with_timeout(&url, Duration::from_secs(5)) {
                Ok(resp) => assert!(
                    resp.status == 200 || resp.status == 503,
                    "unexpected status {} from node {target}",
                    resp.status
                ),
                // A 302 aimed at the victim inside the sub-period race
                // window lands on a closed port: refused, not hung.
                Err(client::ClientError::Io(e)) => {
                    assert!(
                        e.kind() != ErrorKind::TimedOut && e.kind() != ErrorKind::WouldBlock,
                        "request to node {target} hung: {e}"
                    );
                    refused += 1;
                }
                Err(e) => panic!("non-IO client failure: {e}"),
            }
            outcomes += 1;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    while cluster.drive_scripted() {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(outcomes > 20, "workload too thin to mean anything: {outcomes}");
    // The failure detector must actually have fired on the survivors...
    for observer in [0, 1] {
        assert!(
            cluster.node(observer).stats.peer_dead.get() >= 1,
            "node {observer} never declared the victim dead"
        );
    }
    // ...and revival must restore the victim to everyone's candidate pool.
    await_true(Duration::from_secs(5), "peers see revived node as alive", || {
        (0..2).all(|obs| health_seen(&cluster, obs, 2) == PeerHealth::Alive)
            && cluster.is_running(2)
    });
    let direct = client::get(&format!("{}/ok.txt", cluster.base_url(2))).unwrap();
    assert_eq!(direct.status, 200, "revived node must serve again");
    assert!(
        refused < outcomes / 4,
        "too many refused connections ({refused}/{outcomes}): broker still \
         redirects to a peer it should have marked Suspect"
    );
    cluster.shutdown();
}

/// Cut the loadd link between two nodes: each walks the other through
/// Alive → Suspect → Dead on pure silence, emits the membership counters
/// and log lines, and — once the partition heals — revives the peer from
/// its first fresh packet. The status API must report the whole story.
#[test]
fn partition_marks_suspect_then_dead_then_heals() {
    // The cut opens at 500 ms: late enough that the mesh has converged
    // (peers never heard from get boot grace and would not be marked),
    // early enough to keep the test short.
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::Partition { a: 0, b: 1, window: Window::between(500, 2_500) });
    save_plan("partition", &plan);
    let dir = docroot("part");
    let log_path = dir.join("access.log");
    let mut cfg = chaos_config(plan);
    cfg.access_log = Some(AccessLog::to_file(&log_path).unwrap());
    let cluster = LiveCluster::start(2, dir.clone(), cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_millis(450)), "mesh must converge pre-cut");

    // Silence > two loadd periods: Suspect. Silence > stale timeout: Dead.
    await_true(Duration::from_secs(3), "partitioned peers suspect each other", || {
        health_seen(&cluster, 0, 1) == PeerHealth::Suspect
            || health_seen(&cluster, 0, 1) == PeerHealth::Dead
    });
    await_true(Duration::from_secs(4), "partitioned peers declare each other dead", || {
        health_seen(&cluster, 0, 1) == PeerHealth::Dead
            && health_seen(&cluster, 1, 0) == PeerHealth::Dead
    });
    // Both nodes still serve their own clients throughout the partition.
    for i in 0..2 {
        let resp = client::get(&format!("{}/ok.txt", cluster.base_url(i))).unwrap();
        assert_eq!(resp.status, 200);
    }
    // Window closes at 1.5 s; the first delivered packet revives the peer.
    await_true(Duration::from_secs(5), "healed partition revives both peers", || {
        health_seen(&cluster, 0, 1) == PeerHealth::Alive
            && health_seen(&cluster, 1, 0) == PeerHealth::Alive
    });

    // Satellite: the transitions surfaced as counters...
    for i in 0..2 {
        let stats = &cluster.node(i).stats;
        assert!(stats.peer_suspect.get() >= 1, "node {i} counted no Suspect transition");
        assert!(stats.peer_dead.get() >= 1, "node {i} counted no Dead transition");
        assert!(stats.peer_revived.get() >= 1, "node {i} counted no revival");
    }
    // ...as membership lines in the access log...
    let log = std::fs::read_to_string(&log_path).unwrap();
    for event in ["suspect", "dead", "revived"] {
        assert!(
            log.lines().any(|l| l.contains("MEMBER") && l.contains(&format!("/{event}"))),
            "no {event} membership line in access log:\n{log}"
        );
    }
    // ...and in the versioned status API: per-peer health, plus the
    // injected packet drops that caused all of this.
    let resp = client::get(&format!("{}/sweb-status?format=json", cluster.base_url(0))).unwrap();
    let json = sweb_telemetry::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let report = StatusReport::from_json(&json).expect("status must parse under the current schema");
    support::assert_current_schema(&report);
    assert_eq!(report.load.len(), 2);
    assert!(report.load.iter().all(|row| row.health == "alive"), "{:?}", report.load);
    let dropped = report.metric("sweb_faults_injected_total{kind=\"packets_dropped\"}");
    assert!(dropped > Some(0), "partition dropped no packets?");
    assert!(report.metric("sweb_peer_dead_total") >= Some(1));
    cluster.shutdown();
}

/// Graceful shutdown: drain, final `leaving` packet, stop. Peers must
/// evict the leaver *immediately* on the announcement — well inside one
/// loadd period — instead of waiting out the staleness timeout.
#[test]
fn graceful_stop_evicts_within_one_loadd_period() {
    let dir = docroot("drain");
    let mut cfg = ClusterConfig { policy: Policy::Sweb, ..ClusterConfig::default() };
    cfg.sweb.loadd_period = SimTime::from_millis(200);
    cfg.sweb.stale_timeout = SimTime::from_millis(5_000); // silence alone is far too slow
    let cluster = LiveCluster::start(3, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));

    let drained = cluster.stop_gracefully(2, Duration::from_secs(5));
    assert!(drained, "idle node must drain instantly");
    // The leaving packet is already on the wire when stop_gracefully
    // returns: peers must mark Dead in receive-loop time, an order of
    // magnitude under the 5 s staleness timeout they'd otherwise need.
    let evicted_in = await_true(
        Duration::from_millis(400), // 2 × loadd period of grace for a busy CI box
        "peers evict the announced leaver",
        || (0..2).all(|obs| health_seen(&cluster, obs, 2) == PeerHealth::Dead),
    );
    assert!(!cluster.is_running(2));
    // Survivors keep serving, and never redirect at the corpse.
    for _ in 0..10 {
        for i in 0..2 {
            let resp = client::get(&format!("{}/ok.txt", cluster.base_url(i))).unwrap();
            assert_eq!(resp.status, 200);
            assert_ne!(resp.served_by, Some(2), "request redirected to a drained node");
        }
    }
    // And the slot is reusable: revive rejoins on the same address.
    cluster.revive(2).unwrap();
    await_true(Duration::from_secs(5), "revived leaver rejoins the pool", || {
        (0..2).all(|obs| health_seen(&cluster, obs, 2) == PeerHealth::Alive)
    });
    assert_eq!(client::get(&format!("{}/ok.txt", cluster.base_url(2))).unwrap().status, 200);
    eprintln!("eviction latency after leaving packet: {evicted_in:?}");
    cluster.shutdown();
}

/// Kill and revive an idle node of a three-node cluster. Its loops sleep
/// with nothing to do, so the kill must wake them (joining a loop rings
/// its doorbell) instead of waiting for a tick; the survivors mark it Dead
/// on silence, and once revived it rejoins every node's table.
#[test]
fn an_idle_node_dies_at_once_and_rejoins() {
    let dir = docroot("idle-kill");
    let mut cfg = ClusterConfig { policy: Policy::Sweb, ..ClusterConfig::default() };
    cfg.sweb.loadd_period = SimTime::from_millis(100);
    cfg.sweb.stale_timeout = SimTime::from_millis(500);
    let cluster = LiveCluster::start(3, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(50)); // between broadcasts
    let t0 = Instant::now();
    cluster.kill(2);
    let killed_in = t0.elapsed();
    assert!(!cluster.is_running(2));
    assert!(killed_in < Duration::from_millis(500), "killing an idle node took {killed_in:?}");
    await_true(Duration::from_secs(5), "survivors mark the killed node dead", || {
        (0..2).all(|obs| health_seen(&cluster, obs, 2) == PeerHealth::Dead)
    });
    cluster.revive(2).unwrap();
    let rejoined_in = await_true(Duration::from_secs(5), "the revived node rejoins", || {
        (0..3).all(|obs| (0..3).all(|peer| health_seen(&cluster, obs, peer) == PeerHealth::Alive))
    });
    assert_eq!(client::get(&format!("{}/ok.txt", cluster.base_url(2))).unwrap().status, 200);
    eprintln!("idle kill took {killed_in:?}; the revived node rejoined in {rejoined_in:?}");
    cluster.shutdown();
}

/// How many of `rounds` passes over `paths` node 0 answers with a 302 to
/// node 2 (each request on a fresh connection; redirects not followed).
fn redirected_to_node_2(cluster: &LiveCluster, paths: &[String], rounds: usize) -> usize {
    let to_node_2 = format!("{}/", cluster.base_url(2));
    let mut redirected = 0;
    for path in paths.iter().cycle().take(rounds) {
        let resp = Session::connect(cluster.base_url(0)).unwrap().get(path).unwrap();
        let location = resp.headers.get("location").unwrap_or("");
        if resp.status == 302 && location.starts_with(&to_node_2) {
            redirected += 1;
        }
    }
    redirected
}

/// A node that dies and comes back is a redirect target again as soon as
/// its peers hear it: under `FileLocality`, once node 0 sees node 2 Alive,
/// every request for a document homed on node 2 is a 302 there within one
/// loadd period. (Per-peer circuit breakers once kept a revived peer
/// half-open for good — their only close signal was a successful pull
/// over the peer channel — and node 0 then redirected to it at most once
/// per probe interval.)
#[test]
fn a_revived_home_gets_every_redirect_again() {
    let dir = docroot("revived-home");
    let mut paths = Vec::new();
    for i in 0.. {
        let path = format!("/home{i}.txt");
        if home_of(&path, 3) == NodeId(2) {
            std::fs::write(dir.join(&path[1..]), format!("homed on node 2: {i}")).unwrap();
            paths.push(path);
            if paths.len() == 8 {
                break;
            }
        }
    }
    let cfg = ClusterConfig { policy: Policy::FileLocality, ..ClusterConfig::default() };
    let period = Duration::from_micros(cfg.sweb.loadd_period.as_micros());
    let cluster = LiveCluster::start(3, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));
    assert_eq!(redirected_to_node_2(&cluster, &paths, 40), 40, "before the kill");

    cluster.kill(2);
    await_true(Duration::from_secs(10), "node 0 marks node 2 dead", || {
        health_seen(&cluster, 0, 2) == PeerHealth::Dead
    });
    cluster.revive(2).unwrap();
    await_true(Duration::from_secs(10), "node 0 sees node 2 alive again", || {
        health_seen(&cluster, 0, 2) == PeerHealth::Alive
    });
    std::thread::sleep(period);
    assert_eq!(redirected_to_node_2(&cluster, &paths, 40), 40, "after the revival");
    cluster.shutdown();
}

/// A disk serving reads 800 ms late against a 250 ms request budget: the
/// node must answer `503` + `Retry-After` (and close the connection)
/// rather than let the client wait out a read that cannot finish in time.
#[test]
fn slow_disk_blows_deadline_and_sheds_503() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::SlowDisk { node: 0, extra_ms: 800, window: Window::ALWAYS });
    save_plan("slow-disk", &plan);
    let dir = docroot("slow");
    let mut cfg = chaos_config(plan);
    cfg.request_budget = Duration::from_millis(250);
    let cluster = LiveCluster::start(1, dir, cfg).unwrap();

    let resp = client::get_with_timeout(
        &format!("{}/ok.txt", cluster.base_url(0)),
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(resp.status, 503, "overrun must shed, not stall");
    assert_eq!(resp.headers.get("retry-after"), Some("1"), "503 must tell the client when");
    let stats = &cluster.node(0).stats;
    assert!(stats.deadline_overruns.get() >= 1, "overrun not counted");
    let slow_reads = cluster.chaos().counts().slow_reads.load(Ordering::Relaxed);
    assert!(slow_reads >= 1, "injected stall not counted");
    cluster.shutdown();
}

/// Garbage on the loadd port: every undecodable packet increments the
/// decode-error counter, corrupts no load table, and kills nothing.
#[test]
fn garbled_loadd_packets_counted_never_fatal() {
    let dir = docroot("garble");
    let cluster = LiveCluster::start(2, dir, chaos_config(FaultPlan::seeded(0))).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));

    let victim = cluster.node(0).peer_udp[0];
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    // Empty, truncated, wrong-magic, and a valid-looking v2 header whose
    // node id points far outside the cluster.
    let mut out_of_range = vec![0u8; 64];
    out_of_range[0] = b'S';
    out_of_range[1] = b'W';
    out_of_range[2] = 2;
    out_of_range[3] = 200; // node id 200 in a 2-node cluster
    let attacks: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0xff; 7],
        b"not a loadd packet at all".to_vec(),
        vec![0xab; 64],
        out_of_range,
    ];
    for pkt in &attacks {
        sock.send_to(pkt, victim).unwrap();
    }
    await_true(Duration::from_secs(5), "decode errors counted", || {
        cluster.node(0).stats.loadd_decode_errors.get() >= 2
    });
    // The garbage changed nobody's view and broke nobody's service.
    assert_eq!(health_seen(&cluster, 0, 1), PeerHealth::Alive);
    let resp = client::get(&format!("{}/ok.txt", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    cluster.shutdown();
}

/// The harness itself is deterministic: a plan survives the text round
/// trip byte-for-byte, and two injectors built from the same plan hand
/// out identical verdict streams (so a CI artifact truly replays).
#[test]
fn fault_plans_replay_deterministically() {
    let plan = FaultPlan::seeded(plan_seed())
        .with(Fault::LoaddLoss { from: 0, to: 1, rate_ppm: 500_000, window: Window::ALWAYS })
        .with(Fault::Partition { a: 1, b: 2, window: Window::between(100, 900) })
        .with(Fault::Crash { node: 2, at_ms: 500 })
        .with(Fault::Revive { node: 2, at_ms: 1_500 });
    save_plan("replay", &plan);
    let text = plan.to_text();
    let back = FaultPlan::from_text(&text).unwrap();
    assert_eq!(back, plan);
    assert_eq!(back.to_text(), text, "re-serialization must be byte-stable");

    let a = sweb_server::Injector::from_plan(&plan);
    let b = sweb_server::Injector::from_plan(&back);
    let verdicts = |inj: &sweb_server::Injector| {
        (0..500).map(|i| inj.loadd_tx_at(0, 1, i * 3)).collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&a), verdicts(&b), "same plan, same verdict stream");
    assert_eq!(a.scripted_ops(), b.scripted_ops());
}
