//! Cluster-level tests of the reactor's connection handling:
//! admission control, eviction counters on the status page, and a bounded
//! thread count under high connection concurrency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sweb_core::Policy;
use sweb_server::{client, ServerOptions};

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
    let cluster = ServerOptions::new()
        .policy(Policy::RoundRobin)
        .max_conns(4)
        .shards(1) // the cap is divided across shards; pin for determinism
        .start(1, docroot("shed"))
        .unwrap();
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();

    // Fill the admission cap with idle connections.
    let idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while cluster.node(0).stats.active.get() < 4 {
        assert!(std::time::Instant::now() < deadline, "cap never filled");
        std::thread::sleep(Duration::from_millis(10));
    }

    // One more is turned away with 503.
    let mut extra = TcpStream::connect(&addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = extra.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.0 503"), "expected shed, got {out:?}");
    assert!(cluster.node(0).stats.shed.get() >= 1);

    // Freeing a slot restores service, and the status page reports the
    // shed (the admission signal the load vector reflects via `active`).
    drop(idle);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while cluster.node(0).stats.active.get() > 0 {
        assert!(std::time::Instant::now() < deadline, "idle conns never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = client::get(&format!("{}/sweb-status", cluster.base_url(0))).unwrap();
    let text = String::from_utf8(status.body).unwrap();
    assert!(text.contains("shed-503"), "{text}");
    assert!(text.contains("accept-errors"), "{text}");
    assert!(text.contains("evicted"), "{text}");
    cluster.shutdown();
}

#[test]
fn many_concurrent_connections_with_bounded_threads() {
    const CONNS: usize = 256;
    let cluster = ServerOptions::new()
        .policy(Policy::RoundRobin)
        .start(1, docroot("many"))
        .unwrap();
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
fn large_cached_file_served_intact_with_zero_copy() {
    // The CI smoke target: a 1.5 MB document that fits in the cache must
    // come back byte-identical through the reactor's writev path, with
    // the body leaving as shared `Bytes` (no per-request copy) both on
    // the cold read and on the cache hit.
    let dir = docroot("zcopy");
    let body = payload(1_500_000);
    std::fs::write(dir.join("big.bin"), &body).unwrap();
    let cluster = ServerOptions::new()
        .policy(Policy::RoundRobin)
        .start(1, dir)
        .unwrap();
    for pass in 0..2 {
        let resp = client::get(&format!("{}/big.bin", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200, "pass {pass}");
        assert_eq!(resp.body.len(), body.len(), "pass {pass}: truncated body");
        assert!(resp.body == body, "pass {pass}: corrupted body");
    }
    let node = cluster.node(0);
    assert!(node.stats.zero_copy.get() >= 2, "bodies must go zero-copy");
    assert_eq!(node.stats.sendfile.get(), 0, "cacheable file must not stream");
    assert_eq!(node.file_cache.hits(), 1, "second fetch must hit the cache");
    cluster.shutdown();
}

#[test]
fn oversized_file_streams_intact() {
    // A document larger than the whole cache takes the sendfile path
    // and must still arrive byte-identical, without displacing anything
    // in the cache.
    let dir = docroot("stream");
    let body = payload(1 << 20);
    std::fs::write(dir.join("huge.bin"), &body).unwrap();
    let cluster = ServerOptions::new()
        .policy(Policy::RoundRobin)
        .file_cache_bytes(256 << 10)
        .start(1, dir)
        .unwrap();
    let resp = client::get(&format!("{}/huge.bin", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body == body, "streamed body corrupted or truncated");
    let node = cluster.node(0);
    assert_eq!(node.stats.sendfile.get(), 1, "expected a sendfile transmit");
    assert_eq!(node.file_cache.used(), 0, "oversized file must not enter the cache");
    cluster.shutdown();
}

#[test]
fn loadd_gossips_cache_digests_across_the_mesh() {
    // Residency on one node must become visible in every peer's load
    // table via the v2 loadd packets, so the cost model can price the
    // holder's cache hit (§3.2 t_data at RAM speed).
    use sweb_cluster::NodeId;
    use sweb_server::file_cache::key_of;

    let dir = docroot("gossip");
    std::fs::write(dir.join("hot.html"), "cached and gossiped").unwrap();
    let cluster = ServerOptions::new()
        .policy(Policy::RoundRobin) // never redirects: the fetch pins residency
        .start(2, dir)
        .unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));

    let resp = client::get(&format!("{}/hot.html", cluster.base_url(1))).unwrap();
    assert_eq!(resp.status, 200);
    assert!(cluster.node(1).file_cache.resident("/hot.html"));

    // Node 0 learns of node 1's residency within a few loadd periods.
    let key = key_of("/hot.html");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if cluster.node(0).loads.read().digest(NodeId(1)).contains(key) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "digest never reached node 0");
        std::thread::sleep(Duration::from_millis(20));
    }
    // A file nobody fetched is not advertised.
    assert!(
        !cluster.node(0).loads.read().digest(NodeId(1)).contains(key_of("/cold.html")),
        "digest advertises a non-resident file"
    );
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
    let cluster = ServerOptions::new()
        .policy(Policy::FileLocality)
        .start(3, dir)
        .unwrap();
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
