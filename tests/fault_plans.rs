//! A short fault-plan run against the live server, in tier-1: the accept
//! gate (`App::accept_gate`) that every shard's own `SO_REUSEPORT`
//! listener consults. The rest of the chaos suite lives in
//! `crates/server/tests/chaos.rs`.

use std::io::ErrorKind;
use std::sync::atomic::Ordering;
use std::time::Duration;

use sweb::core::Policy;
use sweb::des::SimTime;
use sweb::server::{client, ClusterConfig, Fault, FaultPlan, LiveCluster, Window};

/// Synthetic fd exhaustion, then an accept pause, on a node with two
/// shards: during either fault a client gets a definite outcome (an error
/// or a delayed success once the backlog drains) and afterwards the node
/// serves normally again. The kernel hashes each connection to one of the
/// two listeners, so the test passes only if both honour the gate.
#[test]
fn fd_pressure_and_pause_give_definite_outcomes() {
    let plan = FaultPlan::seeded(42)
        .with(Fault::FdPressure { node: 0, window: Window::between(0, 400) })
        .with(Fault::Pause { node: 0, window: Window::between(600, 900) });
    let dir = std::env::temp_dir().join(format!("sweb-fault-plans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.txt"), b"definitely served").unwrap();
    let mut cfg = ClusterConfig {
        policy: Policy::Sweb,
        shards: 2,
        fault_plan: Some(plan),
        ..ClusterConfig::default()
    };
    cfg.sweb.loadd_period = SimTime::from_millis(100);
    cfg.sweb.stale_timeout = SimTime::from_millis(500);
    let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
    assert_eq!(cluster.node(0).shards, 2);
    let url = format!("{}/ok.txt", cluster.base_url(0));

    // Phase 1: fd pressure. Accepted-then-slammed or queued-then-served —
    // either way the call returns; it must never time out.
    while cluster.chaos().now_ms() < 400 {
        match client::get_with_timeout(&url, Duration::from_secs(5)) {
            Ok(resp) => assert!(resp.status == 200 || resp.status == 503, "{}", resp.status),
            Err(client::ClientError::Io(e)) => assert!(
                e.kind() != ErrorKind::TimedOut && e.kind() != ErrorKind::WouldBlock,
                "hung under fd pressure: {e}"
            ),
            Err(client::ClientError::BadResponse(_)) => {} // slammed mid-response: definite
            Err(e) => panic!("unexpected failure under fd pressure: {e}"),
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    // Phase 2: paused accepts. Connections sit in the kernel backlog and
    // complete once the window closes — late, but definite.
    while cluster.chaos().now_ms() < 900 {
        let resp = client::get_with_timeout(&url, Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200, "backlogged request must complete after the pause");
    }
    // Fully recovered, and both faults left their fingerprints.
    let resp = client::get(&url).unwrap();
    assert_eq!(resp.status, 200);
    let faults = cluster.chaos().counts();
    assert!(faults.fd_rejections.load(Ordering::Relaxed) >= 1, "fd fault never fired");
    assert!(faults.accepts_paused.load(Ordering::Relaxed) >= 1, "pause fault never fired");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
