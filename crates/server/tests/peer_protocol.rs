//! Robustness tests for the cluster-internal peer transfer channel: the
//! wire protocol must shrug off garbage, version skew, and peers dying
//! mid-frame — counted, degraded, never fatal and never hung.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sweb_core::Policy;
use sweb_des::SimTime;
use sweb_peer::{fetch_err, read_frame, write_frame, Frame, PeerPool};
use sweb_server::file_cache::key_of;
use sweb_server::{client, ClusterConfig, LiveCluster};

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-peerproto-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.txt"), b"peer channel payload").unwrap();
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("peer doc {i}").repeat(40))
            .unwrap();
    }
    dir
}

fn start(tag: &str, n: usize) -> (LiveCluster, std::path::PathBuf) {
    let dir = docroot(tag);
    let mut cfg = ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() };
    cfg.sweb.peer_transfer = true;
    let cluster = LiveCluster::start(n, dir.clone(), cfg).unwrap();
    (cluster, dir)
}

/// The peer listener's TCP address for node `i`.
fn peer_addr(cluster: &LiveCluster, i: usize) -> std::net::SocketAddr {
    cluster.node(i).peer_tcp[i]
}

fn await_counter(deadline: Duration, what: &str, mut read: impl FnMut() -> u64, want: u64) {
    let t0 = Instant::now();
    while read() < want {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}: {} < {want}", read());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Garbage on the peer port: wrong magic, an unknown protocol version,
/// an oversized length prefix, and an unprompted reply frame. Every one
/// increments `peer_frames_bad` and costs only that connection — the
/// node keeps serving both its peer channel and its HTTP clients.
#[test]
fn garbled_peer_frames_counted_never_fatal() {
    let (cluster, _dir) = start("garble", 1);
    let addr = peer_addr(&cluster, 0);
    let bad = |frame: &[u8]| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(frame).unwrap();
        // The server must close on us (not reply, not hang).
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no reply expected to a garbled frame, got {rest:?}");
    };
    // Wrong magic.
    bad(b"XXxxxxxxxxxx");
    // Version skew: a frame from a future protocol revision.
    bad(&[b'S', b'P', 99, 1, 4, 0, 0, 0, 1, 2, 3, 4]);
    // A length prefix beyond MAX_PAYLOAD.
    bad(&[b'S', b'P', 1, 1, 0xff, 0xff, 0xff, 0xff]);
    // An unprompted reply opcode (PUSH_OK out of nowhere).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &Frame::PushOk { accepted: true }).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty());
    }
    await_counter(
        Duration::from_secs(5),
        "bad peer frames counted",
        || cluster.node(0).stats.peer_frames_bad.get(),
        4,
    );

    // The listener is unharmed: a well-formed FETCH on a fresh connection
    // returns the document, and HTTP clients never noticed.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        &Frame::FetchReq {
            file: key_of("/ok.txt").0,
            trace: "t-proto".to_string(),
            path: "/ok.txt".to_string(),
        },
    )
    .unwrap();
    match read_frame(&mut s).unwrap() {
        Frame::FetchOk { body, .. } => assert_eq!(body, b"peer channel payload"),
        other => panic!("expected FetchOk, got {other:?}"),
    }
    let resp = client::get(&format!("{}/ok.txt", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    cluster.shutdown();
}

/// FETCH-side validation: traversal paths, key/path mismatches, and
/// missing documents come back as typed errors, not bodies and not
/// connection drops.
#[test]
fn fetch_rejects_bad_paths_with_typed_errors() {
    let (cluster, _dir) = start("fetchval", 1);
    let addr = peer_addr(&cluster, 0);
    let fetch = |file: u64, path: &str| -> Frame {
        let mut s = TcpStream::connect(addr).unwrap();
        let req =
            Frame::FetchReq { file, trace: String::new(), path: path.to_string() };
        write_frame(&mut s, &req).unwrap();
        read_frame(&mut s).unwrap()
    };
    // A key that does not match the path is a protocol violation.
    assert_eq!(
        fetch(0xdead_beef, "/ok.txt"),
        Frame::FetchErr { code: fetch_err::NOT_FOUND },
        "key/path mismatch must be refused"
    );
    // Traversal is refused even with a correct key.
    let evil = "/../etc/passwd";
    assert_eq!(fetch(key_of(evil).0, evil), Frame::FetchErr { code: fetch_err::NOT_FOUND });
    // A valid key for a document that does not exist.
    assert_eq!(
        fetch(key_of("/missing.txt").0, "/missing.txt"),
        Frame::FetchErr { code: fetch_err::NOT_FOUND }
    );
    cluster.shutdown();
}

/// A peer dying mid-FETCH — header sent, body never arriving — must fail
/// the pull within its deadline, not hang the puller.
#[test]
fn mid_stream_death_fails_fast_never_hangs() {
    // A fake peer that accepts, reads the request, sends half a reply
    // header, and drops the connection.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Detached on purpose: the thread blocks in accept() until the test
    // process exits; joining it would be the hang this test forbids.
    std::thread::spawn(move || {
        while let Ok((mut s, _)) = listener.accept() {
            let _ = read_frame(&mut s);
            let _ = s.write_all(&[b'S', b'P', 1, 2]); // half a FETCH_OK header
            drop(s); // mid-stream death
        }
    });
    let pool = PeerPool::new(vec![addr]);
    let t0 = Instant::now();
    let result = pool.fetch(0, 1234, "/x.txt", "t-dead", Duration::from_secs(2));
    assert!(result.is_err(), "a half-written reply must be an error, got {result:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "pull must fail within its deadline, took {:?}",
        t0.elapsed()
    );
}

/// Cluster-level mid-death: with the remote home hard-killed and marked
/// Dead, requests for its documents are served locally — no pull, no
/// 302 at a corpse, no hang.
#[test]
fn dead_peer_is_excluded_from_forward_targets() {
    let dir = docroot("deadpeer");
    let mut cfg = ClusterConfig { policy: Policy::FileLocality, ..ClusterConfig::default() };
    cfg.sweb.peer_transfer = true;
    cfg.sweb.loadd_period = SimTime::from_millis(100);
    cfg.sweb.stale_timeout = SimTime::from_millis(500);
    let cluster = LiveCluster::start(2, dir.clone(), cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)));

    cluster.kill(1);
    // Wait out the staleness window: node 0 must mark node 1 Dead.
    let t0 = Instant::now();
    while cluster.node(0).loads.read().is_alive(sweb_cluster::NodeId(1)) {
        assert!(t0.elapsed() < Duration::from_secs(5), "victim never marked Dead");
        std::thread::sleep(Duration::from_millis(20));
    }
    let pulls_before = cluster.node(0).stats.peer_fetches.get();
    for i in 0..8 {
        let resp = client::get_with_timeout(
            &format!("{}/doc{i}.txt", cluster.base_url(0)),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "doc{i}");
        assert_eq!(resp.redirects, 0, "no 302 may aim at a dead node");
        assert_eq!(resp.served_by, Some(0));
        assert_eq!(resp.body, std::fs::read(dir.join(format!("doc{i}.txt"))).unwrap());
    }
    assert_eq!(
        cluster.node(0).stats.peer_fetches.get(),
        pulls_before,
        "a Dead home must be excluded from pull sources entirely"
    );
    cluster.shutdown();
}

/// Property: bodies PUSHed over the peer channel come back byte-identical
/// through the striped cache, across sizes and patterns. The on-disk
/// decoy differs from the pushed body, so a matching response *proves*
/// the bytes travelled peer channel → cache → HTTP, not disk → HTTP.
#[test]
fn pushed_bodies_read_back_byte_identical_over_http() {
    let (cluster, dir) = start("pushprop", 1);
    let addr = peer_addr(&cluster, 0);
    let pool = PeerPool::new(vec![addr]);

    // Deterministic pseudo-random bytes (splitmix64 stream).
    let body_of = |seed: u64, len: usize| -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    };

    for (case, len) in [1usize, 37, 4096, 100_000].into_iter().enumerate() {
        let path = format!("/pushed{case}.bin");
        let rel = &path[1..];
        // The decoy on disk shares the path and mtime but not the bytes.
        std::fs::write(dir.join(rel), vec![b'D'; len]).unwrap();
        let mtime = std::fs::metadata(dir.join(rel)).unwrap().modified().unwrap();
        let body = body_of(0xC0FFEE + case as u64, len);
        let accepted = pool
            .push(0, key_of(&path).0, &path, mtime, &body, Duration::from_secs(5))
            .unwrap();
        assert!(accepted, "{path}: push must be accepted");
        let resp = client::get(&format!("{}{path}", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200, "{path}");
        assert_eq!(resp.body, body, "{path}: pushed body must serve byte-identical from RAM");
    }
    await_counter(
        Duration::from_secs(2),
        "pushes counted",
        || cluster.node(0).stats.pushes_received.get(),
        4,
    );
    // A PUSH whose key does not match its path is declined and counted.
    let declined = pool
        .push(0, 0x1234, "/mismatch.bin", std::time::SystemTime::now(), b"x", Duration::from_secs(5))
        .unwrap();
    assert!(!declined, "key/path mismatch must be declined");
    assert!(cluster.node(0).stats.peer_frames_bad.get() >= 1);
    cluster.shutdown();
}
