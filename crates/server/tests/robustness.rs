//! Adversarial-input robustness for the live server: malformed bytes,
//! oversized requests, partial writes, and connection churn must never
//! wedge a node.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sweb_core::Policy;
use sweb_server::{client, ClusterConfig, LiveCluster};

fn start(tag: &str) -> (LiveCluster, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("sweb-robust-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.txt"), b"still alive").unwrap();
    let cfg = ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
    (cluster, dir)
}

fn addr(cluster: &LiveCluster) -> String {
    cluster.base_url(0).strip_prefix("http://").unwrap().to_string()
}

/// After any abuse, the server must still answer a normal request.
fn assert_still_serving(cluster: &LiveCluster) {
    let resp = client::get(&format!("{}/ok.txt", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"still alive");
}

#[test]
fn random_binary_garbage_gets_400_not_a_hang() {
    let (cluster, _dir) = start("garbage");
    for seed in 0..8u8 {
        let mut stream = TcpStream::connect(addr(&cluster)).unwrap();
        let junk: Vec<u8> = (0..512).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
        let _ = stream.write_all(&junk);
        let _ = stream.write_all(b"\r\n\r\n");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        // Whatever came back (400 or nothing after close), the server lives.
    }
    assert_still_serving(&cluster);
    cluster.shutdown();
}

#[test]
fn oversized_request_head_is_rejected() {
    let (cluster, _dir) = start("oversize");
    let mut stream = TcpStream::connect(addr(&cluster)).unwrap();
    stream.write_all(b"GET /ok.txt HTTP/1.0\r\n").unwrap();
    // 1 MB of headers, far beyond MAX_HEAD_BYTES.
    for i in 0..20_000 {
        if stream.write_all(format!("X-Flood-{i}: {}\r\n", "z".repeat(32)).as_bytes()).is_err() {
            break; // server already slammed the door — fine
        }
    }
    let _ = stream.write_all(b"\r\n");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    if !out.is_empty() {
        assert!(out.starts_with("HTTP/1.0 400"), "{out}");
    }
    assert_still_serving(&cluster);
    cluster.shutdown();
}

#[test]
fn half_open_connections_time_out_without_blocking_others() {
    let (cluster, _dir) = start("halfopen");
    // Open sockets that send a partial request line and go silent.
    let mut zombies = Vec::new();
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr(&cluster)).unwrap();
        stream.write_all(b"GET /ok").unwrap();
        zombies.push(stream); // keep alive, never finish
    }
    // Normal clients are unaffected (thread-per-connection isolation).
    for _ in 0..5 {
        assert_still_serving(&cluster);
    }
    drop(zombies);
    cluster.shutdown();
}

#[test]
fn immediate_disconnects_do_not_leak_slots() {
    let (cluster, _dir) = start("churn");
    for _ in 0..50 {
        // Connect and slam shut without sending anything.
        let stream = TcpStream::connect(addr(&cluster)).unwrap();
        drop(stream);
    }
    // Give the connection threads a moment to notice.
    std::thread::sleep(Duration::from_millis(200));
    assert_still_serving(&cluster);
    let active = cluster.node(0).reactor.counters.open.get();
    assert!(active <= 1, "connection slots leaked: {active}");
    cluster.shutdown();
}

#[test]
fn very_long_urls_are_handled() {
    let (cluster, _dir) = start("longurl");
    // Within head limits: a clean 404.
    let long_path = format!("/{}", "a".repeat(4000));
    let resp = client::get(&format!("{}{}", cluster.base_url(0), long_path)).unwrap();
    assert_eq!(resp.status, 404);
    // Beyond head limits: 400 or closed, but never a hang.
    let mut stream = TcpStream::connect(addr(&cluster)).unwrap();
    let _ = stream.write_all(format!("GET /{} HTTP/1.0\r\n\r\n", "b".repeat(40_000)).as_bytes());
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert_still_serving(&cluster);
    cluster.shutdown();
}

#[test]
fn null_bytes_and_traversal_tricks_rejected() {
    let (cluster, _dir) = start("tricks");
    for path in ["/%00", "/ok.txt%00.html", "/%2e%2e/%2e%2e/etc/passwd", "/..%2fetc%2fpasswd"] {
        let resp = client::get(&format!("{}{}", cluster.base_url(0), path)).unwrap();
        assert!(
            resp.status == 403 || resp.status == 404 || resp.status == 400,
            "{path} must be rejected, got {}",
            resp.status
        );
    }
    assert_still_serving(&cluster);
    cluster.shutdown();
}
