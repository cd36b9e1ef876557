//! Cluster-level tests of the reactor's connection handling:
//! admission control, eviction counters on the status page, and a bounded
//! thread count under high connection concurrency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

use sweb_core::Policy;
use sweb_server::{client, ClusterConfig, LiveCluster};

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-rtest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), "<html>Alexandria</html>").unwrap();
    dir
}

/// Threads of this test process, from `/proc/self/status` (Linux only;
/// `None` elsewhere, letting callers skip the bound check).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn admission_control_sheds_with_503_and_counts_it() {
    let cfg = ClusterConfig { policy: Policy::RoundRobin, max_conns: 4, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, docroot("shed"), cfg).unwrap();
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();

    // Fill the admission cap with idle connections.
    let idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while cluster.node(0).reactor.counters.open.get() < 4 {
        assert!(std::time::Instant::now() < deadline, "cap never filled");
        std::thread::sleep(Duration::from_millis(10));
    }

    // One more is turned away with 503.
    let mut extra = TcpStream::connect(&addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = extra.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.0 503"), "expected shed, got {out:?}");
    assert!(cluster.node(0).reactor.counters.shed.get() >= 1);

    // Freeing a slot restores service, and the status page reports the
    // shed (the admission signal the load vector reflects via `active`).
    drop(idle);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while cluster.node(0).reactor.counters.open.get() > 0 {
        assert!(std::time::Instant::now() < deadline, "idle conns never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = client::get(&format!("{}/sweb-status", cluster.base_url(0))).unwrap();
    let text = String::from_utf8(status.body).unwrap();
    assert!(text.contains("\n  sweb_connections_shed_total 1\n"), "{text}");
    assert!(text.contains("\n  sweb_accept_errors_total 0\n"), "{text}");
    assert!(text.contains("\n  sweb_connections_evicted_total "), "{text}");
    cluster.shutdown();
}

#[test]
fn many_concurrent_connections_with_bounded_threads() {
    const CONNS: usize = 256;
    let cluster = LiveCluster::start(1, docroot("many"), ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() }).unwrap();
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();
    let before = process_threads();

    // Open many connections and hold them all open concurrently.
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    let during = process_threads();

    // Every one of them gets served.
    for s in &mut conns {
        s.write_all(b"GET /index.html HTTP/1.0\r\n\r\n").unwrap();
    }
    let mut ok = 0;
    for s in &mut conns {
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        if out.starts_with("HTTP/1.0 200") {
            ok += 1;
        }
    }
    assert_eq!(ok, CONNS, "every concurrent connection must be served");

    // The engine multiplexes: thread count must not scale with the number
    // of open connections (thread-per-conn would add one each).
    if let (Some(before), Some(during)) = (before, during) {
        let grown = during.saturating_sub(before);
        assert!(
            grown < CONNS / 8,
            "thread count grew by {grown} for {CONNS} connections — not multiplexing"
        );
    }
    cluster.shutdown();
}

/// Deterministic pseudo-random payload, so truncation and reordering are
/// both caught by a byte-for-byte comparison.
fn payload(len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut x: u64 = 0x5eed_cafe;
    for b in out.iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    out
}

#[test]
fn a_large_document_streams_from_the_page_cache_and_skips_the_file_cache() {
    // One size rule: a document over 32 KiB always streams from its fd
    // (`sendfile`) and is never copied into the FileCache. A file
    // just written is all in the OS page cache, so the loop thread that
    // parsed each request streams it, no worker involved.
    let dir = docroot("stream");
    let body = payload(1_500_000);
    std::fs::write(dir.join("big.bin"), &body).unwrap();
    let probe = std::fs::File::open(dir.join("big.bin")).unwrap();
    let cachestat = sweb_reactor::sys::page_cached(probe.as_raw_fd(), body.len() as u64).is_ok();
    let cluster = LiveCluster::start(1, dir, ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() }).unwrap();
    for pass in 0..2 {
        let resp = client::get(&format!("{}/big.bin", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200, "pass {pass}");
        assert_eq!(resp.body.len(), body.len(), "pass {pass}: truncated body");
        assert!(resp.body == body, "pass {pass}: corrupted body");
    }
    let node = cluster.node(0);
    assert_eq!(node.reactor.counters.sendfile.get(), 2, "both replies stream from the fd");
    // Without `cachestat` every large document takes a worker instead.
    if cachestat {
        assert_eq!(
            node.reactor.counters.inline.get(),
            2,
            "a resident document streams from the loop"
        );
    }
    assert_eq!(node.file_cache.used(), 0, "a large document must not enter the cache");
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (0, 0));
    cluster.shutdown();
}

#[test]
fn a_full_cache_never_prices_a_large_peer_document_at_ram_speed() {
    // A node prices residency only from its own cache, and only for the
    // document in hand. Hundreds of small residents must not make a 1.5 MB
    // document homed on a peer (too large for any file cache) look like a
    // RAM copy: its data time stays the NFS read from its home.
    use sweb_cluster::NodeId;
    use sweb_core::{CostInputs, CostModel, RequestInfo, SwebConfig};
    use sweb_server::{file_cache::key_of, home_of};

    let dir = docroot("residency");
    let paths: Vec<String> = (0..300).map(|i| format!("/small{i}.html")).collect();
    for p in &paths {
        std::fs::write(dir.join(&p[1..]), format!("resident {p}")).unwrap();
    }
    // Round robin never redirects: every fetch makes its document resident
    // on node 0.
    let cluster = LiveCluster::start(2, dir, ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() }).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let node = cluster.node(0);
    for p in &paths {
        assert_eq!(client::get(&format!("{}{p}", cluster.base_url(0))).unwrap().status, 200);
        assert!(node.file_cache.resident(p), "{p} is not resident");
    }
    std::thread::sleep(2 * Duration::from_micros(node.sweb.loadd_period.as_micros()));

    let size = 1_500_000u64;
    let blind = CostModel::new(SwebConfig { cache_aware_cost: false, ..node.sweb.clone() });
    let loads = node.loads.read();
    let inputs = CostInputs { cluster: &node.cluster, loads: &loads };
    let peer_homed = (0..).map(|i| format!("/big{i}.bin")).filter(|p| home_of(p, 2) == NodeId(1));
    for big in peer_homed.take(16) {
        let req = RequestInfo::fetch(key_of(&big), size, NodeId(1), 1e6);
        let priced = node.broker.model().breakdown(&req, NodeId(0), NodeId(0), &inputs).t_data;
        let nfs = blind.t_data(&req, NodeId(0), NodeId(0), &inputs);
        assert!((priced - nfs).abs() < 1e-12, "{big}: t_data {priced} s, the NFS read {nfs} s");
        assert!(priced > 2.0 * size as f64 / 40e6, "{big} priced as a RAM copy: {priced} s");
    }
    drop(loads);
    cluster.shutdown();
}

#[test]
fn reactor_cluster_follows_redirects_under_locality() {
    // The §3.2 redirect path, end to end, specifically on the reactor: a
    // doc homed off node 0 must 302 once and be served by its home.
    let dir = docroot("redir");
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("doc {i}")).unwrap();
    }
    let cfg = ClusterConfig { policy: Policy::FileLocality, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(3, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let mut redirected = 0;
    for i in 0..8 {
        let resp = client::get(&format!("{}/doc{i}.txt", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200);
        redirected += resp.redirects;
    }
    assert!(redirected > 0, "at least one of 8 hashed docs must bounce off node 0");
    cluster.shutdown();
}
