//! End-to-end tests for the io_uring reactor backend.
//!
//! Everything here runs the *full* server stack — live cluster, HTTP/1.0
//! handler, sharded reactor — with `ClusterConfig::io_backend` pinned to
//! [`IoBackend::Uring`], and checks the two promises the backend makes:
//!
//! 1. **Byte identity**: every response body served under io_uring is
//!    byte-for-byte what epoll serves for the same document, on every
//!    fallback of its transmit ladder, under an accept-pause fault and
//!    through linked keep-alive chains.
//! 2. **Observability**: `/sweb-status` reports `"uring"` for every live
//!    shard (schema v6), and the `sweb_io_*` telemetry counters move.
//!
//! It does not promise fewer poller syscalls than epoll: epoll pays no
//! `epoll_ctl` for a connection that never waits, so for HTTP/1.0
//! traffic it does not. What each backend pays per inline request is
//! counted by `sweb-reactor`'s
//! `inline_http10_gets_reach_the_poller_about_once_each`.
//!
//! On kernels without io_uring the suite skips (with a note) rather than
//! failing: the production path for those kernels is the epoll fallback,
//! which `sys.rs` unit tests and the conformance suite already cover.

use std::time::{Duration, Instant};

use sweb_core::Policy;
use sweb_reactor::sys::Poller;
use sweb_reactor::IoBackend;
use sweb_server::{
    client, ClusterConfig, Fault, FaultPlan, LiveCluster, ServerOptions, Window,
};

mod support;

/// True when this kernel can actually open an io_uring ring (no silent
/// fallback — `strict` refuses to downgrade).
fn uring_available() -> bool {
    match Poller::strict(IoBackend::Uring) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("uring tests: skipping, io_uring unavailable: {e}");
            false
        }
    }
}

/// Build a docroot exercising all three write paths: inline writev
/// (small text), the queued uring fast path (cache-hit medium file), and
/// sendfile (large binary, which stays on the readiness path).
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-uring-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("maps")).unwrap();
    std::fs::write(dir.join("index.html"), b"<html>uring backend test</html>").unwrap();
    let mut big = Vec::with_capacity(200 * 1024);
    for i in 0..(200 * 1024 / 4) {
        big.extend_from_slice(&(i as u32).to_le_bytes());
    }
    std::fs::write(dir.join("maps/goleta.gif"), &big).unwrap();
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("uring doc {i} ").repeat(100))
            .unwrap();
    }
    dir
}

fn config(io_backend: IoBackend) -> ClusterConfig {
    ServerOptions::new()
        .policy(Policy::RoundRobin)
        .io_backend(io_backend)
        .shards(1)
        .build()
}

const PATHS: &[&str] =
    &["/index.html", "/maps/goleta.gif", "/doc0.txt", "/doc3.txt", "/doc7.txt", "/missing.txt"];

/// The same documents fetched through a uring cluster and an epoll
/// cluster must match byte for byte — status and body — across the
/// small-writev, queued-write, and sendfile paths, plus a 404.
#[test]
fn uring_serves_byte_identical_responses() {
    if !uring_available() {
        return;
    }
    let uring =
        LiveCluster::start(1, docroot("ident-u"), config(IoBackend::Uring)).unwrap();
    let epoll =
        LiveCluster::start(1, docroot("ident-e"), config(IoBackend::Epoll)).unwrap();
    for path in PATHS {
        let a = client::get(&format!("{}{path}", uring.base_url(0))).unwrap();
        let b = client::get(&format!("{}{path}", epoll.base_url(0))).unwrap();
        assert_eq!(a.status, b.status, "{path}: status diverged");
        assert_eq!(a.body, b.body, "{path}: body diverged between uring and epoll");
    }
    // Let each shard finish its tick so the last stats drain lands.
    std::thread::sleep(Duration::from_millis(50));
    let (u, e) = (&uring.node(0).stats, &epoll.node(0).stats);
    assert!(u.io_sqe_submitted.get() > 0, "uring submitted no SQEs");
    assert!(u.io_cqe_completed.get() > 0, "uring completed no CQEs");
    assert!(u.io_syscalls_saved.get() > 0, "uring reported no syscalls saved");
    // A readiness backend has no submission queue and saves nothing.
    assert_eq!((e.io_sqe_submitted.get(), e.io_syscalls_saved.get()), (0, 0));
    uring.shutdown();
    epoll.shutdown();
}

/// `/sweb-status` must expose the backend actually chosen: schema v6,
/// every shard row reporting `"uring"`.
#[test]
fn status_reports_uring_backend_per_shard() {
    if !uring_available() {
        return;
    }
    let mut cfg = config(IoBackend::Uring);
    cfg.shards = 2;
    let cluster = LiveCluster::start(1, docroot("status"), cfg).unwrap();
    // Make sure every shard has actually started before reading.
    let deadline = Instant::now() + Duration::from_secs(5);
    let report = loop {
        let resp =
            client::get(&format!("{}/sweb-status?format=json", cluster.base_url(0))).unwrap();
        let json = sweb_telemetry::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let report = sweb_server::StatusReport::from_json(&json).unwrap();
        if report.shards.iter().all(|s| s.io_backend != "none") {
            break report;
        }
        assert!(Instant::now() < deadline, "shards never reported a backend: {report:?}");
        std::thread::sleep(Duration::from_millis(25));
    };
    support::assert_current_schema(&report);
    assert_eq!(report.shards.len(), 2);
    for row in &report.shards {
        assert_eq!(row.io_backend, "uring", "shard {} not on uring", row.shard);
    }
    cluster.shutdown();
}

/// Serializes the env-flag tests below: `SWEB_URING_*` variables are
/// process-global and the harness runs tests threaded. Clusters read
/// the flags when their shards open the ring, so each test holds the
/// lock from `set_var` until its clusters are done serving.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// With `SWEB_URING_NO_BUFS=1` the full stack must serve byte-identical
/// responses over plain `WRITEV` — zero `WRITE_FIXED` submissions.
#[test]
fn no_bufs_fallback_serves_byte_identical_responses() {
    if !uring_available() {
        return;
    }
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("SWEB_URING_NO_BUFS", "1");
    let uring = LiveCluster::start(1, docroot("nobufs-u"), config(IoBackend::Uring)).unwrap();
    let epoll = LiveCluster::start(1, docroot("nobufs-e"), config(IoBackend::Epoll)).unwrap();
    for path in PATHS {
        let a = client::get(&format!("{}{path}", uring.base_url(0))).unwrap();
        let b = client::get(&format!("{}{path}", epoll.base_url(0))).unwrap();
        assert_eq!(a.status, b.status, "{path}: status diverged under NO_BUFS");
        assert_eq!(a.body, b.body, "{path}: body diverged under NO_BUFS");
    }
    std::thread::sleep(Duration::from_millis(50));
    let fixed = uring.node(0).stats.io_write_fixed.get();
    uring.shutdown();
    epoll.shutdown();
    std::env::remove_var("SWEB_URING_NO_BUFS");
    assert_eq!(fixed, 0, "SWEB_URING_NO_BUFS=1 still submitted WRITE_FIXED");
}

/// With `SWEB_URING_NO_ZC=1` — the same fallback a kernel whose probe
/// lacks `SEND_ZC` takes — large cached documents must arrive
/// byte-identical over the plain queued-write path, zero `SEND_ZC`.
#[test]
fn no_zc_probe_fallback_serves_byte_identical_responses() {
    if !uring_available() {
        return;
    }
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("SWEB_URING_NO_ZC", "1");
    let uring = LiveCluster::start(1, docroot("nozc-u"), config(IoBackend::Uring)).unwrap();
    let epoll = LiveCluster::start(1, docroot("nozc-e"), config(IoBackend::Epoll)).unwrap();
    // The 200 KiB gif is the SEND_ZC-shaped response; fetch it twice so
    // the second hit is served from cache (the zero-copy-eligible path).
    for path in ["/maps/goleta.gif", "/maps/goleta.gif", "/doc0.txt", "/index.html"] {
        let a = client::get(&format!("{}{path}", uring.base_url(0))).unwrap();
        let b = client::get(&format!("{}{path}", epoll.base_url(0))).unwrap();
        assert_eq!(a.status, b.status, "{path}: status diverged under NO_ZC");
        assert_eq!(a.body, b.body, "{path}: body diverged under NO_ZC");
    }
    std::thread::sleep(Duration::from_millis(50));
    let zc = uring.node(0).stats.io_send_zc.get();
    uring.shutdown();
    epoll.shutdown();
    std::env::remove_var("SWEB_URING_NO_ZC");
    assert_eq!(zc, 0, "SWEB_URING_NO_ZC=1 still submitted SEND_ZC");
}

/// A scripted accept-pause fault must behave identically under uring:
/// connections queue in the kernel backlog during the pause window and
/// complete afterwards — no hangs, no drops — and the injector records
/// the pause firing. This pins the multishot-accept gate handling
/// (Pause parks the listener but still admits the in-flight stream).
#[test]
fn accept_pause_fault_replays_under_uring() {
    if !uring_available() {
        return;
    }
    let plan = FaultPlan::seeded(42)
        .with(Fault::Pause { node: 0, window: Window::between(0, 300) });
    let mut cfg = config(IoBackend::Uring);
    cfg.fault_plan = Some(plan);
    let cluster = LiveCluster::start(1, docroot("pause"), cfg).unwrap();
    let url = format!("{}/doc0.txt", cluster.base_url(0));
    while cluster.chaos().now_ms() < 300 {
        let resp = client::get_with_timeout(&url, Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200, "backlogged request must complete after the pause");
    }
    // Recovered: normal service, and the fault left its fingerprint.
    let resp = client::get(&url).unwrap();
    assert_eq!(resp.status, 200);
    let faults = cluster.chaos().counts().snapshot();
    assert!(faults.accepts_paused >= 1, "pause fault never fired under uring");
    cluster.shutdown();
}

/// Keep-alive pipelining through one connection exercises the linked
/// write→poll chain (response queued as WRITEV, next request's readiness
/// riding the linked poll). Every response must still be correct.
#[test]
fn keep_alive_pipeline_survives_linked_chains() {
    if !uring_available() {
        return;
    }
    let cluster = LiveCluster::start(1, docroot("ka"), config(IoBackend::Uring)).unwrap();
    let mut conn = client::Session::connect(cluster.base_url(0)).unwrap();
    for round in 0..20 {
        let path = format!("/doc{}.txt", round % 8);
        let resp = conn.get(&path).unwrap();
        assert_eq!(resp.status, 200, "round {round} failed");
        assert!(
            resp.body.starts_with(format!("uring doc {} ", round % 8).as_bytes()),
            "round {round}: wrong body"
        );
    }
    cluster.shutdown();
}
