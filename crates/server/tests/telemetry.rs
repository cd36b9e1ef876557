//! Telemetry-surface tests: `/metrics` exposition, the JSON status view,
//! and the `X-SWEB-Trace` id joining one logical request across nodes.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sweb_core::Policy;
use sweb_server::{client, AccessLog, ServerOptions, StatusReport};
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
    let cluster = ServerOptions::new()
        .policy(Policy::FileLocality)
        .access_log(AccessLog::new(Box::new(VecSink(Arc::clone(&buf)))))
        .start(2, dir)
        .unwrap();
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
    let cluster =
        ServerOptions::new().policy(Policy::RoundRobin).start(1, dir).unwrap();

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
    let cluster =
        ServerOptions::new().policy(Policy::Sweb).start(2, dir).unwrap();
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
    assert!(report.counters.served >= 1);

    // The text endpoint is a *view* of the same report, not a fork.
    let text_resp = client::get(&format!("{}/sweb-status", cluster.base_url(1))).unwrap();
    let text = String::from_utf8(text_resp.body).unwrap();
    assert!(text.contains("SWEB node n1"), "{text}");
    assert!(text.contains(&format!("policy {}", report.policy)), "{text}");
    cluster.shutdown();
}
