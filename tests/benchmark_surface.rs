//! The surface `benchmark/` stands on ("Pinned surface" in
//! `benchmark/README.md`), checked in tier-1: the `/metrics` series the
//! traced run reads, and the three behaviours its correctness oracle
//! checks on every response. A change that breaks one of these makes the
//! benchmark report `"correct": false`; this test says so first.

use std::time::Duration;

use sweb::server::client::{self, Session};
use sweb::server::{ClusterConfig, LiveCluster};

/// Series names the benchmark's `/metrics` scrape looks up. A trailing
/// `{` marks a labelled family (any label value will do).
const PINNED_SERIES: &[&str] = &[
    "sweb_requests_served_total ",
    "sweb_redirects_issued_total ",
    "sweb_connections_shed_total ",
    "sweb_admission_sheds_total{class=",
    "sweb_zero_copy_responses_total ",
    "sweb_sendfile_responses_total ",
    "sweb_io_syscalls_total ",
    "sweb_peer_fetches_total ",
    "sweb_pushes_sent_total ",
    "sweb_request_phase_us_sum{phase=",
    "sweb_request_phase_us_count{phase=",
    "sweb_cost_error_pct_sum ",
    "sweb_cost_error_pct_count ",
    "sweb_dynamic_invocations_total{handler=",
    "sweb_dynamic_cache_hits_total{handler=",
    "sweb_dynamic_tcpu_us_sum{handler=",
    "sweb_dynamic_tcpu_us_count{handler=",
    "sweb_file_cache_hits_total ",
    "sweb_file_cache_misses_total ",
];

#[test]
fn default_cluster_keeps_the_benchmarks_pinned_surface() {
    let dir = std::env::temp_dir().join(format!("sweb-bench-surface-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The paper's 1.5 MB document: big enough that the default policy
    // sends a request for it to its home node instead of reading it over
    // the (modelled) NFS mount.
    let doc = vec![b'd'; 1_500_000];
    for i in 0..12 {
        std::fs::write(dir.join(format!("big{i}.bin")), &doc).unwrap();
    }
    std::fs::write(dir.join("small.txt"), "small").unwrap();
    let cluster = LiveCluster::start(3, dir.clone(), ClusterConfig::default()).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let node0 = cluster.base_url(0);

    // (b) search quotes its query, echo quotes the posted body, and a
    // keep-alive request is answered keep-alive.
    let resp = client::get(&format!("{node0}/cgi-bin/search?q=needle-7&cost=1")).unwrap();
    assert_eq!(resp.status, 200);
    assert!(String::from_utf8_lossy(&resp.body).contains("needle-7"), "search must quote its query");
    let posted = "posted-body-0123456789";
    let resp = client::post(&format!("{node0}/cgi-bin/echo"), posted.as_bytes(), "text/plain").unwrap();
    assert_eq!(resp.status, 200);
    assert!(String::from_utf8_lossy(&resp.body).contains(posted), "echo must quote the posted body");
    let mut kept = Session::connect(node0).unwrap();
    for _ in 0..2 {
        let resp = kept.get("/small.txt").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("connection"), Some("Keep-Alive"));
        assert_eq!(resp.body, b"small");
    }
    assert_eq!(kept.reused, 1, "the second request must ride the kept connection");

    // (c) a 302 names its target as `http://127.0.0.1:<port>/…`, and the
    // followed request is served, never bounced again. (`Session` returns
    // redirects instead of following them.)
    let peers = [cluster.base_url(1), cluster.base_url(2)];
    let mut followed = 0;
    for i in 0..12 {
        let first = Session::connect(node0).unwrap().get(&format!("/big{i}.bin")).unwrap();
        if first.status != 302 {
            assert_eq!(first.status, 200);
            continue;
        }
        let location = first.headers.get("location").expect("a 302 carries Location");
        let peer = peers
            .iter()
            .find(|base| location.starts_with(&format!("{base}/big{i}.bin")))
            .unwrap_or_else(|| panic!("Location is not http://127.0.0.1:<peer port>/big{i}.bin…: {location}"));
        assert!(peer.starts_with("http://127.0.0.1:"), "{peer}");
        let target = &location[peer.len()..];
        let second = Session::connect(peer).unwrap().get(target).unwrap();
        assert_eq!(second.status, 200, "redirected at most once");
        assert_eq!(second.body.len(), doc.len());
        followed += 1;
    }
    assert!(followed > 0, "no 1.5 MB document homed on a peer was redirected");

    // (a) every series the traced run reads is exposed by node 0.
    let resp = client::get(&format!("{node0}/metrics")).unwrap();
    assert_eq!(resp.status, 200);
    let metrics = String::from_utf8(resp.body).unwrap();
    for series in PINNED_SERIES {
        assert!(
            metrics.lines().any(|l| l.starts_with(series)),
            "/metrics lacks the pinned series {series:?}"
        );
    }
    let resp = client::get(&format!("{node0}/sweb-status?format=json")).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with(b"{"), "status JSON endpoint");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
