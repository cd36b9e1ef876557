//! End-to-end tests of the live TCP cluster.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use sweb_core::Policy;
use sweb_server::{client, ClusterConfig, LiveCluster};

mod support;

/// Build a docroot with a few documents of varying sizes.
fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("maps")).unwrap();
    std::fs::write(dir.join("index.html"), "<html><body>Alexandria</body></html>").unwrap();
    std::fs::write(dir.join("maps/goleta.gif"), vec![0x47u8; 200_000]).unwrap();
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("document {i}").repeat(100))
            .unwrap();
    }
    dir
}

fn start(tag: &str, n: usize, policy: Policy) -> (LiveCluster, std::path::PathBuf) {
    let dir = docroot(tag);
    let cluster =
        LiveCluster::start(n, dir.clone(), ClusterConfig { policy, ..ClusterConfig::default() })
            .unwrap();
    (cluster, dir)
}

#[test]
fn serves_documents_with_correct_body_and_mime() {
    let (cluster, dir) = start("basic", 2, Policy::RoundRobin);
    let resp = client::get(&format!("{}/index.html", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("content-type"), Some("text/html"));
    assert_eq!(resp.body, std::fs::read(dir.join("index.html")).unwrap());
    let gif = client::get(&format!("{}/maps/goleta.gif", cluster.base_url(1))).unwrap();
    assert_eq!(gif.status, 200);
    assert_eq!(gif.headers.get("content-type"), Some("image/gif"));
    assert_eq!(gif.body.len(), 200_000);
    cluster.shutdown();
}

#[test]
fn missing_documents_get_404_and_traversal_gets_403() {
    let (cluster, _dir) = start("errors", 1, Policy::RoundRobin);
    let resp = client::get(&format!("{}/nope.html", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::get(&format!("{}/../etc/passwd", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 403);
    cluster.shutdown();
}

#[test]
fn unsupported_methods_get_501_and_garbage_gets_400() {
    let (cluster, _dir) = start("methods", 1, Policy::RoundRobin);
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"PUT /index.html HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 501"), "{out}");

    // POST without Content-Length is malformed.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"POST /cgi-bin/echo HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 400"), "{out}");

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"totally not http\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 400"), "{out}");
    cluster.shutdown();
}

#[test]
fn head_returns_headers_without_body() {
    let (cluster, _dir) = start("head", 1, Policy::RoundRobin);
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"HEAD /index.html HTTP/1.0\r\n\r\n").unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("HTTP/1.0 200"), "{text}");
    assert!(text.contains("Content-Length:"));
    assert!(text.ends_with("\r\n\r\n"), "HEAD must carry no body");
    cluster.shutdown();
}

#[test]
fn loadd_mesh_converges() {
    let (cluster, _dir) = start("loadd", 3, Policy::Sweb);
    assert!(
        cluster.await_loadd_mesh(Duration::from_secs(5)),
        "every node should hear from every node within 5s"
    );
    cluster.shutdown();
}

#[test]
fn file_locality_redirects_to_home_and_client_follows() {
    let (cluster, _dir) = start("locality", 3, Policy::FileLocality);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    // Find a path whose home is NOT node 0, then fetch it from node 0.
    let mut found = false;
    for i in 0..8 {
        let path = format!("/doc{i}.txt");
        let resp = client::get(&format!("{}{}", cluster.base_url(0), path)).unwrap();
        assert_eq!(resp.status, 200);
        if resp.redirects == 1 {
            found = true;
            let served = resp.served_by.expect("X-SWEB-Node header");
            assert_ne!(served, 0, "redirect must land on the home node, not the origin");
        }
    }
    assert!(found, "at least one of 8 hashed docs must be homed off node 0");
    // The origin recorded redirects; some target recorded marked arrivals.
    assert!(cluster.node(0).stats.redirected.get() > 0);
    let marked: u64 = (0..3)
        .map(|i| cluster.node(i).stats.received_redirects.get())
        .sum();
    assert!(marked > 0, "targets must observe the redirect-once marker");
    cluster.shutdown();
}

#[test]
fn redirect_once_rule_is_enforced_end_to_end() {
    let (cluster, _dir) = start("once", 3, Policy::FileLocality);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    // Send a marked request for every doc to the "wrong" node: it must be
    // served locally (no second 302) regardless of where its home is.
    for i in 0..8 {
        let url = format!("{}/doc{i}.txt?sweb-redirect=1", cluster.base_url(0));
        let resp = client::get(&url).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.redirects, 0, "marked request must never bounce again");
        assert_eq!(resp.served_by, Some(0), "marked request must be served where it landed");
    }
    cluster.shutdown();
}

#[test]
fn round_robin_policy_never_redirects() {
    let (cluster, _dir) = start("rr", 3, Policy::RoundRobin);
    for i in 0..8 {
        let resp = client::get(&format!("{}/doc{i}.txt", cluster.base_url(i % 3))).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.redirects, 0);
    }
    for i in 0..3 {
        assert_eq!(cluster.node(i).stats.redirected.get(), 0);
    }
    cluster.shutdown();
}

#[test]
fn concurrent_clients_all_succeed() {
    let (cluster, _dir) = start("concurrent", 3, Policy::Sweb);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let urls: Vec<String> =
        (0..3).map(|i| cluster.base_url(i).to_string()).collect();
    let mut handles = Vec::new();
    for t in 0..8 {
        let urls = urls.clone();
        handles.push(std::thread::spawn(move || {
            let mut ok = 0;
            for r in 0..10 {
                let url = format!("{}/doc{}.txt", urls[(t + r) % 3], (t * 3 + r) % 8);
                match client::get(&url) {
                    Ok(resp) if resp.status == 200 => ok += 1,
                    other => panic!("fetch failed: {other:?}"),
                }
            }
            ok
        }));
    }
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 80);
    let served: u64 =
        (0..3).map(|i| cluster.node(i).stats.served.get()).sum();
    assert!(served >= 80, "all requests must be served somewhere, got {served}");
    cluster.shutdown();
}

#[test]
fn file_cache_serves_repeats_from_memory() {
    let (cluster, dir) = start("filecache", 1, Policy::RoundRobin);
    let url = format!("{}/maps/goleta.gif", cluster.base_url(0));
    for _ in 0..4 {
        let resp = client::get(&url).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 200_000);
    }
    let node = cluster.node(0);
    assert_eq!(node.file_cache.misses(), 1, "only the first read touches disk");
    assert_eq!(node.file_cache.hits(), 3);
    // Modify the document: next fetch must serve the new bytes.
    std::thread::sleep(Duration::from_millis(20));
    std::fs::write(dir.join("maps/goleta.gif"), vec![0x50u8; 1000]).unwrap();
    let resp = client::get(&url).unwrap();
    assert_eq!(resp.body.len(), 1000, "stale cache entry must be invalidated");
    // The status page reports the cache counters.
    let status = client::get(&format!("{}/sweb-status", cluster.base_url(0))).unwrap();
    let text = String::from_utf8(status.body).unwrap();
    let hits = format!("\n  sweb_file_cache_hits_total {}\n", node.file_cache.hits());
    assert!(text.contains(&hits), "{text}");
    cluster.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_all_answered() {
    let (cluster, _dir) = start("pipeline", 1, Policy::RoundRobin);
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    // Two requests written back-to-back before reading anything.
    stream
        .write_all(
            b"GET /doc0.txt HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n\
              GET /doc1.txt HTTP/1.0\r\n\r\n",
        )
        .unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.0 200 OK").count(),
        2,
        "both pipelined requests must be answered: {text}"
    );
    // Second request had no Keep-Alive, so the connection closed after it.
    assert_eq!(cluster.node(0).stats.served.get(), 2);
    cluster.shutdown();
}

#[test]
fn pipelined_keepalive_requests_answered_in_order() {
    // Both requests keep the connection alive, so the server must answer
    // them *in order* on the same socket — the client tells them apart
    // only by position.
    let (cluster, _dir) = start("pipeorder", 1, Policy::RoundRobin);
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(
            b"GET /doc0.txt HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n\
              GET /doc1.txt HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        )
        .unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Peel complete responses off the front of the byte stream.
    let mut buf = Vec::new();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut chunk = [0u8; 4096];
    while bodies.len() < 2 {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before both responses arrived");
        buf.extend_from_slice(&chunk[..n]);
        while let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            assert!(head.starts_with("HTTP/1.0 200"), "{head}");
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let low = l.to_ascii_lowercase();
                    low.strip_prefix("content-length:")
                        .map(|v| v.trim().parse().unwrap())
                })
                .expect("Content-Length header");
            let total = head_end + 4 + len;
            if buf.len() < total {
                break;
            }
            bodies.push(buf[head_end + 4..total].to_vec());
            buf.drain(..total);
        }
    }
    assert!(
        bodies[0].starts_with(b"document 0"),
        "first response must be doc0, got {:?}",
        String::from_utf8_lossy(&bodies[0][..20.min(bodies[0].len())])
    );
    assert!(
        bodies[1].starts_with(b"document 1"),
        "second response must be doc1, got {:?}",
        String::from_utf8_lossy(&bodies[1][..20.min(bodies[1].len())])
    );
    drop(stream);
    assert_eq!(cluster.node(0).stats.accepted.get(), 1, "both requests share one connection");
    assert_eq!(cluster.node(0).stats.served.get(), 2);
    cluster.shutdown();
}

#[test]
fn admission_cap_sheds_excess_connections_with_503() {
    // Over-cap connections are refused with a counted 503 — the
    // scheduler reads `shed` as a node-pressure signal.
    let dir = docroot("shedcap");
    let cfg = ClusterConfig { policy: Policy::RoundRobin, max_conns: 4, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, dir, cfg).unwrap();
    let addr = cluster.base_url(0).strip_prefix("http://").unwrap().to_string();

    // Fill the admission cap with idle connections.
    let idle: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.node(0).stats.active.get() < 4 {
        assert!(std::time::Instant::now() < deadline, "cap never filled");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The next connection is turned away, counted as shed — not served.
    let mut extra = TcpStream::connect(&addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = extra.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.0 503"), "expected shed, got {out:?}");
    let stats = &cluster.node(0).stats;
    assert!(stats.shed.get() >= 1, "shed must be counted");
    assert_eq!(stats.served.get(), 0, "a shed connection is not a served request");
    drop(idle);
    cluster.shutdown();
}

#[test]
fn graceful_drain_removes_node_from_scheduling_but_keeps_it_serving() {
    let (cluster, _dir) = start("drain", 3, Policy::FileLocality);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    // Find a doc homed on node 1 (fetching from node 0 must redirect there).
    let homed_on_1: Vec<String> = (0..8)
        .map(|i| format!("/doc{i}.txt"))
        .filter(|path| {
            client::get(&format!("{}{}", cluster.base_url(0), path))
                .map(|r| r.served_by == Some(1))
                .unwrap_or(false)
        })
        .collect();
    assert!(!homed_on_1.is_empty(), "need at least one doc homed on node 1");

    // Drain node 1 and wait for the announcement to propagate.
    cluster.drain(1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.node(0).loads.read().is_alive(sweb_cluster::NodeId(1)) {
        assert!(std::time::Instant::now() < deadline, "drain announcement never arrived");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Peers no longer redirect to it...
    for path in &homed_on_1 {
        let resp = client::get(&format!("{}{}", cluster.base_url(0), path)).unwrap();
        assert_eq!(resp.status, 200);
        assert_ne!(resp.served_by, Some(1), "{path} must not be scheduled onto a draining node");
    }
    // ...but direct requests to it are still served.
    let resp = client::get(&format!("{}/index.html?sweb-redirect=1", cluster.base_url(1))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.served_by, Some(1));

    // Undrain: peers revive it and locality redirects resume.
    cluster.undrain(1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let back = client::get(&format!("{}{}", cluster.base_url(0), &homed_on_1[0]))
            .unwrap()
            .served_by
            == Some(1);
        if back {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "node never rejoined the pool");
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

#[test]
fn post_runs_cgi_and_pins_local() {
    // FileLocality would redirect a GET whose hashed home is elsewhere;
    // POST must always be served where it lands.
    let (cluster, _dir) = start("post", 3, Policy::FileLocality);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    for i in 0..4 {
        let url = format!("{}/cgi-bin/echo?try={i}", cluster.base_url(0));
        let resp = client::post(&url, b"q=goleta&cost=100", "application/x-www-form-urlencoded")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.served_by, Some(0), "POST must never be reassigned");
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("posted: q=goleta&cost=100"), "{text}");
    }
    // POST to a static document is 405.
    let resp = client::post(
        &format!("{}/doc0.txt", cluster.base_url(0)),
        b"x",
        "text/plain",
    )
    .unwrap();
    assert_eq!(resp.status, 405);
    cluster.shutdown();
}

#[test]
fn conditional_get_returns_304_for_fresh_copies() {
    let (cluster, _dir) = start("conditional", 1, Policy::RoundRobin);
    let url = format!("{}/index.html", cluster.base_url(0));
    let first = client::get(&url).unwrap();
    assert_eq!(first.status, 200);
    let last_modified = first.headers.get("last-modified").expect("Last-Modified on 200").to_string();

    // Fresh copy: 304, no body.
    let resp = client::get_with_headers(
        &url,
        &[("If-Modified-Since", &last_modified)],
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 304);
    assert!(resp.body.is_empty());

    // Stale copy (long before the file's mtime): full 200.
    let resp = client::get_with_headers(
        &url,
        &[("If-Modified-Since", "Sun, 06 Nov 1994 08:49:37 GMT")],
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.body.is_empty());

    // Unparseable date: safe fallback to 200.
    let resp = client::get_with_headers(
        &url,
        &[("If-Modified-Since", "Sunday, 06-Nov-94 08:49:37 GMT")],
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    cluster.shutdown();
}

#[test]
fn keepalive_session_reuses_one_connection() {
    let (cluster, _dir) = start("keepalive", 1, Policy::RoundRobin);
    let mut session = client::Session::connect(cluster.base_url(0)).unwrap();
    for i in 0..6 {
        let resp = session.get(&format!("/doc{}.txt", i % 8)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("connection").map(|s| s.to_ascii_lowercase()).as_deref(), Some("keep-alive"));
    }
    assert!(session.reused >= 5, "connection must be reused, got {}", session.reused);
    // Exactly one connection was accepted for all six requests.
    assert_eq!(
        cluster.node(0).stats.accepted.get(),
        1,
        "keep-alive must not open new connections"
    );
    cluster.shutdown();
}

#[test]
fn non_keepalive_clients_still_close_per_request() {
    let (cluster, _dir) = start("closing", 1, Policy::RoundRobin);
    for i in 0..3 {
        let resp = client::get(&format!("{}/doc{i}.txt", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200);
        assert_ne!(
            resp.headers.get("connection").map(|s| s.to_ascii_lowercase()).as_deref(),
            Some("keep-alive")
        );
    }
    assert_eq!(cluster.node(0).stats.accepted.get(), 3);
    cluster.shutdown();
}

#[test]
fn status_endpoint_reports_cluster_view() {
    let (cluster, _dir) = start("status", 3, Policy::Sweb);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let resp = client::get(&format!("{}/sweb-status", cluster.base_url(1))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.redirects, 0, "status must be served where it landed");
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("SWEB node n1"), "{text}");
    assert!(text.contains("n0") && text.contains("n2"), "table must list all peers: {text}");
    assert!(text.contains("\n  sweb_connections_accepted_total "), "{text}");
}

#[test]
fn cgi_programs_run_and_echo() {
    let (cluster, _dir) = start("cgi", 2, Policy::RoundRobin);
    let resp =
        client::get(&format!("{}/cgi-bin/echo?zoom=3&layer=roads", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(std::str::from_utf8(&resp.body).unwrap(), "echo: zoom=3&layer=roads\n");
    let resp = client::get(&format!("{}/cgi-bin/search?cost=5000", cluster.base_url(1))).unwrap();
    assert_eq!(resp.status, 200);
    assert!(std::str::from_utf8(&resp.body).unwrap().contains("Alexandria search"));
    // Unknown CGI programs 404.
    let resp = client::get(&format!("{}/cgi-bin/missing", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 404);
    cluster.shutdown();
}

#[test]
fn cgi_requests_participate_in_scheduling() {
    let (cluster, _dir) = start("cgisched", 3, Policy::FileLocality);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    // Under FileLocality, CGI paths have hashed homes too; at least one of
    // several program paths should redirect away from node 0.
    let mut redirected = 0;
    for q in 0..6 {
        let resp =
            client::get(&format!("{}/cgi-bin/echo?q={q}", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200);
        redirected += resp.redirects;
    }
    // All six share one path => identical home; either all or none
    // redirect. Check consistency rather than a specific count.
    assert!(redirected == 0 || redirected == 6, "got {redirected}");
    cluster.shutdown();
}

/// Reactor-only: with `--shards 4` every shard must come up live and the
/// v3 status report's per-shard breakdown must account for every request
/// exactly (the rows are read from the same shard-local cells the summed
/// counters are).
#[test]
fn sharded_reactor_reports_every_shard_live_and_exact() {
    let dir = docroot("shards4");
    let cfg = ClusterConfig { policy: Policy::RoundRobin, shards: 4, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
    let expected = std::fs::read(dir.join("doc3.txt")).unwrap();
    for i in 0..12 {
        let resp = client::get(&format!("{}/doc{}.txt", cluster.base_url(0), i % 8)).unwrap();
        assert_eq!(resp.status, 200, "request {i}");
        if i % 8 == 3 {
            assert_eq!(resp.body, expected, "sharded reactor must serve identical bytes");
        }
    }
    let resp = client::get(&format!("{}/sweb-status?format=json", cluster.base_url(0))).unwrap();
    let json = sweb_telemetry::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let report = sweb_server::StatusReport::from_json(&json).unwrap();
    support::assert_current_schema(&report);
    assert_eq!(report.shards.len(), 4, "{:?}", report.shards);
    assert!(report.shards.iter().all(|s| s.live), "{:?}", report.shards);
    let served: u64 = report.shards.iter().map(|s| s.served).sum();
    assert!(served >= 12, "per-shard served must cover all requests: {:?}", report.shards);
    assert_eq!(
        Some(served as i64),
        report.metric("sweb_requests_served_total"),
        "shard breakdown must sum to the node counter exactly"
    );
    cluster.shutdown();
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

/// Requests each shard of the node at `base` has served, from its status
/// page.
fn served_by_shard(base: &str) -> Vec<u64> {
    let resp = client::get(&format!("{base}/sweb-status?format=json")).unwrap();
    let json = sweb_telemetry::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let report = sweb_server::StatusReport::from_json(&json).unwrap();
    report.shards.iter().map(|s| s.served).collect()
}

#[test]
fn co_located_nodes_serve_each_connection_on_the_cpu_it_arrived_on() {
    // Three nodes in one process, default shards: every node runs one
    // loop per CPU, so each node steers what arrives on CPU `c` to its
    // shard `c`.
    let cpus = sweb_reactor::sys::cpus().unwrap();
    if cpus.len() < 2 {
        eprintln!("skipped: this process may run on {cpus:?}; steering needs two CPUs");
        return;
    }
    let (cluster, _dir) = start("colocated", 3, Policy::RoundRobin);
    let bases: Vec<String> = (0..3).map(|i| cluster.base_url(i).to_string()).collect();
    for (shard, &cpu) in cpus.iter().enumerate().take(2) {
        let bases = bases.clone();
        let took = std::thread::spawn(move || {
            pin_to(cpu);
            bases
                .iter()
                .map(|base| {
                    let before = served_by_shard(base);
                    for i in 0..50 {
                        let resp = client::get(&format!("{base}/doc{}.txt", i % 8)).unwrap();
                        assert_eq!(resp.status, 200);
                    }
                    let after = served_by_shard(base);
                    after.iter().zip(&before).map(|(a, b)| a - b).collect::<Vec<u64>>()
                })
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        for (node, took) in took.iter().enumerate() {
            let shards = cpus.len().min(sweb_telemetry::MAX_SHARD_CELLS);
            assert_eq!(took.len(), shards, "node {node} runs one shard per CPU");
            // The first status page counts itself once sent, on that
            // shard too.
            let mut want = vec![0; shards];
            want[shard] = 51;
            assert_eq!(took, &want, "node {node}: a client on CPU {cpu} belongs to shard {shard}");
        }
    }
    cluster.shutdown();
}

#[test]
fn sweb_policy_serves_under_load_spread() {
    // Drive enough traffic at one node that redirect decisions fire, then
    // verify every response still arrives intact.
    let (cluster, _dir) = start("spread", 3, Policy::Sweb);
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    for round in 0..30 {
        let resp =
            client::get(&format!("{}/maps/goleta.gif", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200, "round {round}");
        assert_eq!(resp.body.len(), 200_000);
    }
    cluster.shutdown();
}
