//! Telemetry-surface tests: `/metrics` exposition, the JSON status view,
//! and the `X-SWEB-Trace` id joining one logical request across nodes.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sweb_cluster::NodeId;
use sweb_core::Policy;
use sweb_server::{client, home_of, AccessLog, ClusterConfig, LiveCluster, StatusReport};
use sweb_telemetry::{line_is_well_formed, Json};

mod support;

/// A `Vec<u8>` log sink shared with the test so it can read back what the
/// cluster wrote (stand-in for an NFS-shared access log file).
#[derive(Clone)]
struct VecSink(Arc<Mutex<Vec<u8>>>);

impl Write for VecSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-tel-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), "<html><body>Alexandria</body></html>").unwrap();
    for i in 0..8 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("document {i}").repeat(100))
            .unwrap();
    }
    dir
}

/// A redirected request must carry one trace id end to end: the origin's
/// `302` log line and the home node's `200` log line cite the same token,
/// and the client sees it in the `X-SWEB-Trace` response header.
#[test]
fn trace_id_joins_access_logs_across_a_redirect_hop() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let dir = docroot("trace");
    let cfg = ClusterConfig {
        policy: Policy::FileLocality,
        access_log: Some(AccessLog::new(Box::new(VecSink(Arc::clone(&buf))))),
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(2, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));

    // Find a document homed on node 1 by asking node 0 until one bounces.
    let mut trace = None;
    for i in 0..8 {
        let resp = client::get(&format!("{}/doc{i}.txt", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200);
        if resp.redirects == 1 {
            trace = Some(
                resp.headers
                    .get("x-sweb-trace")
                    .expect("redirected response must carry X-SWEB-Trace")
                    .to_string(),
            );
            break;
        }
    }
    let trace = trace.expect("at least one of 8 hashed docs must be homed off node 0");

    // Both hops log asynchronously with respect to the response; poll.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (mut saw_302, mut saw_200) = (false, false);
    while Instant::now() < deadline && !(saw_302 && saw_200) {
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        for line in text.lines().filter(|l| l.ends_with(&trace)) {
            saw_302 |= line.contains(" 302 ");
            saw_200 |= line.contains(" 200 ");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_302, "origin's 302 line must carry the trace id");
    assert!(saw_200, "home node's 200 line must carry the same trace id");
    cluster.shutdown();
}

/// Golden-shape test for the Prometheus exposition: after a little traffic
/// every line must match the text format, and the node must export a
/// non-trivial number of distinct series.
#[test]
fn metrics_exposition_is_well_formed_and_rich() {
    let dir = docroot("metrics");
    let cluster = LiveCluster::start(1, dir, ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() }).unwrap();

    // Touch several code paths so counters and histograms have samples.
    for i in 0..4 {
        let resp = client::get(&format!("{}/doc{i}.txt", cluster.base_url(0))).unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = client::get(&format!("{}/missing.html", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 404);

    let resp = client::get(&format!("{}/metrics", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("content-type"), Some("text/plain; version=0.0.4"));
    let text = String::from_utf8(resp.body).unwrap();

    let mut series = 0usize;
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert!(line_is_well_formed(line), "malformed exposition line: {line:?}");
        if !line.starts_with('#') {
            series += 1;
        }
    }
    assert!(series >= 20, "expected >= 20 series, got {series}:\n{text}");
    for must in ["sweb_requests_served_total", "sweb_request_phase_us", "sweb_active_requests"] {
        assert!(text.contains(must), "missing {must}:\n{text}");
    }
    cluster.shutdown();
}

/// `/sweb-status?format=json` must parse back into the same typed
/// [`StatusReport`] the text view renders from.
#[test]
fn status_json_round_trips_through_the_typed_report() {
    let dir = docroot("json");
    let cluster = LiveCluster::start(2, dir, ClusterConfig::default()).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let _ = client::get(&format!("{}/index.html", cluster.base_url(1))).unwrap();

    let resp = client::get(&format!("{}/sweb-status?format=json", cluster.base_url(1))).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("content-type"), Some("application/json"));
    let value = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let report = StatusReport::from_json(&value).unwrap();
    support::assert_current_schema(&report);
    assert_eq!(report.node, 1);
    assert_eq!(report.load.len(), 2, "load table must list every node");
    assert!(report.metric("sweb_requests_served_total") >= Some(1));

    // The text endpoint is a *view* of the same report, not a fork.
    let text_resp = client::get(&format!("{}/sweb-status", cluster.base_url(1))).unwrap();
    let text = String::from_utf8(text_resp.body).unwrap();
    assert!(text.contains("SWEB node n1"), "{text}");
    assert!(text.contains(&format!("policy {}", report.policy)), "{text}");
    assert!(text.contains("\n  sweb_requests_served_total "), "{text}");
    cluster.shutdown();
}

/// The scalar series of an exposition, `(series, value)`: every sample
/// line except a histogram's `_bucket`, `_sum` and `_count`.
fn scalar_series(exposition: &str) -> BTreeMap<String, i64> {
    let histograms: Vec<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap();
            !histograms.iter().any(|h| {
                name.strip_prefix(h).is_some_and(|s| ["_bucket", "_sum", "_count"].contains(&s))
            })
        })
        .map(|(series, value)| (series.to_string(), value.parse().unwrap()))
        .collect()
}

/// The status report's `metrics` and the scalar series of `/metrics` are
/// one list, read off one registry: the same keys, and the same values
/// for every series the two fetches cannot move.
#[test]
fn status_metrics_are_the_scalar_series_of_the_exposition() {
    let dir = docroot("same");
    let cluster = LiveCluster::start(1, dir, ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() }).unwrap();
    let base = cluster.base_url(0);
    for path in ["/doc0.txt", "/doc0.txt", "/cgi-bin/echo?x=1", "/missing.html"] {
        client::get(&format!("{base}{path}")).unwrap();
    }
    let exposition = String::from_utf8(client::get(&format!("{base}/metrics")).unwrap().body);
    let exposed = scalar_series(&exposition.unwrap());
    let resp = client::get(&format!("{base}/sweb-status?format=json")).unwrap();
    let report =
        StatusReport::from_json(&Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap())
            .unwrap();
    let listed: BTreeMap<String, i64> = report.metrics.iter().cloned().collect();
    assert_eq!(listed.len(), report.metrics.len(), "a series listed twice");
    assert_eq!(listed.keys().collect::<Vec<_>>(), exposed.keys().collect::<Vec<_>>());
    for series in [
        "sweb_file_cache_hits_total",
        "sweb_file_cache_misses_total",
        "sweb_dynamic_invocations_total{handler=\"echo\"}",
    ] {
        assert_eq!(listed[series], exposed[series], "{series}");
    }
    assert_eq!((listed["sweb_file_cache_hits_total"], listed["sweb_file_cache_misses_total"]), (1, 1));
    // The `/metrics` reply is itself served, once its body is rendered:
    // it is the one reply between the two snapshots.
    let served = "sweb_requests_served_total";
    assert_eq!(listed[served], exposed[served] + 1);
    assert_eq!(exposed[served], 4);
    cluster.shutdown();
}

/// One raw HTTP/1.0 exchange on a fresh connection, read to EOF (or to a
/// reset: a server refusing a request may close with it unread).
fn exchange(base_url: &str, request: &[u8]) -> String {
    let mut s = TcpStream::connect(base_url.strip_prefix("http://").unwrap()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = s.write_all(request);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Every reply lands in exactly one outcome counter, and `zero_copy` and
/// `sendfile` count the served replies by how their body left (DESIGN.md
/// §10): one request of each kind, then the sums.
#[test]
fn every_reply_lands_in_exactly_one_outcome_counter() {
    let dir = docroot("outcomes");
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let homed = |node: u32| {
        (0..64).map(|i| format!("/doc{i}.txt")).find(|p| home_of(p, 2) == NodeId(node)).unwrap()
    };
    let (local, remote) = (homed(0), homed(1));
    std::fs::write(dir.join(&local[1..]), "local document").unwrap();
    std::fs::write(dir.join(&remote[1..]), "remote document").unwrap();
    let big = (0..64).map(|i| format!("/big{i}.bin")).find(|p| home_of(p, 2) == NodeId(0));
    let big = big.unwrap();
    std::fs::write(dir.join(&big[1..]), vec![b'b'; 300_000]).unwrap();
    let cfg = ClusterConfig {
        policy: Policy::FileLocality,
        shards: 1,
        max_conns: 1,
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(2, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let base = cluster.base_url(0);
    let get = |target: &str| format!("GET {target} HTTP/1.0\r\n\r\n");
    let fresh = "If-Modified-Since: Fri, 01 Jan 2100 00:00:00 GMT";
    let script = [
        (get("/metrics"), 200),
        (get(&local), 200),
        (format!("HEAD {local} HTTP/1.0\r\n\r\n"), 200),
        (format!("GET {local} HTTP/1.0\r\n{fresh}\r\n\r\n"), 304),
        (get(&big), 200),
        (get("/cgi-bin/echo?x=1&sweb-redirect=1"), 200),
        (get("/missing.txt"), 404),
        (get("/"), 404),
        (get("/cgi-bin/nope"), 404),
        (get("/../etc/passwd"), 403),
        (get("/sub"), 403),
        (format!("POST {local} HTTP/1.0\r\nContent-Length: 2\r\n\r\nhi"), 405),
        (format!("BREW {local} HTTP/1.0\r\n\r\n"), 501),
        (get(&remote), 302),
        ("garbage\r\n\r\n".to_string(), 400),
    ];
    for (request, status) in &script {
        let reply = exchange(base, request.as_bytes());
        assert!(reply.starts_with(&format!("HTTP/1.0 {status} ")), "{request:?}: {reply}");
    }
    // The reactor's own 503: the one connection slot is held idle.
    let node = cluster.node(0);
    let idle = TcpStream::connect(base.strip_prefix("http://").unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.reactor.counters.open.get() < 1 {
        assert!(Instant::now() < deadline, "the idle connection was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(exchange(base, b"GET / HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 503 "));
    drop(idle);

    let s = &node.reactor.counters;
    let outcomes =
        [s.served.get(), s.redirected.get(), s.shed.get(), s.bad_requests.get(), s.deadline_overruns.get()];
    assert_eq!(outcomes, [13, 1, 1, 1, 0], "served, redirected, shed, 400, overruns");
    assert_eq!(outcomes.iter().sum::<u64>(), script.len() as u64 + 1, "one counter per reply");
    // Served replies with a body: all but the HEAD, the 304 and the
    // streamed document.
    assert_eq!((s.zero_copy.get(), s.sendfile.get()), (10, 1));
    cluster.shutdown();
}
