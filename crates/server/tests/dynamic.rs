//! End-to-end tests of the dynamic-content fast path: the in-process
//! handler ABI, the `(handler, canonicalized args)` response cache with
//! TTL expiry, a handler that overruns the request deadline, and dynamic
//! handlers under injected disk faults.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweb_core::Policy;
use sweb_http::{Request, Response};
use sweb_server::dynamic::canonicalize_args;
use sweb_server::{
    client, ClusterConfig, DynamicHandler, DynamicRegistry, Fault, FaultPlan, LiveCluster,
    NodeShared, Window,
};

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-dyn-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("static.txt"), b"a static doc for contrast").unwrap();
    dir
}

/// `/cgi-bin/count`: a fresh number per *real* invocation — cache hits
/// are exactly the repeated bodies — cached for `ttl`.
struct Count {
    counter: Arc<AtomicU64>,
    ttl: Duration,
}

impl DynamicHandler for Count {
    fn class(&self) -> &'static str {
        "count"
    }
    fn cache_key(&self, req: &Request, body: &[u8]) -> Option<String> {
        Some(canonicalize_args(req.query().unwrap_or(""), body))
    }
    fn ttl(&self) -> Option<Duration> {
        Some(self.ttl)
    }
    fn handle(&self, _shared: &NodeShared, _req: &Request, _body: &[u8]) -> Response {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        Response::ok(format!("count: {n}\n"), "text/plain")
    }
}

/// The demo registry plus a [`Count`] handler cached for `ttl`.
fn counting_registry(counter: Arc<AtomicU64>, ttl: Duration) -> DynamicRegistry {
    let mut reg = DynamicRegistry::demo();
    reg.register("count", Arc::new(Count { counter, ttl }));
    reg
}

/// Same handler, same args: the second request must be answered from the
/// response cache (identical body, no new invocation); after the TTL the
/// handler must actually run again.
#[test]
fn response_cache_serves_repeats_and_expires_on_ttl() {
    let counter = Arc::new(AtomicU64::new(0));
    let cfg = ClusterConfig {
        policy: Policy::RoundRobin,
        handlers: counting_registry(Arc::clone(&counter), Duration::from_millis(150)),
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, docroot("ttl"), cfg).unwrap();
    let url = format!("{}/cgi-bin/count?run=1", cluster.base_url(0));

    let first = client::get(&url).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(std::str::from_utf8(&first.body).unwrap(), "count: 0\n");
    assert_eq!(first.headers.get("x-sweb-dynamic-cache"), Some("miss"));

    let second = client::get(&url).unwrap();
    assert_eq!(second.body, first.body, "within TTL the cache must answer");
    assert_eq!(second.headers.get("x-sweb-dynamic-cache"), Some("hit"));
    assert_eq!(counter.load(Ordering::SeqCst), 1, "cache hit must not invoke");

    std::thread::sleep(Duration::from_millis(300));
    let third = client::get(&url).unwrap();
    assert_eq!(std::str::from_utf8(&third.body).unwrap(), "count: 1\n", "TTL must expire");
    assert_eq!(third.headers.get("x-sweb-dynamic-cache"), Some("miss"));

    // The per-class stats the status page reports must agree.
    let stats = cluster.node(0).dynamic.class_stats("count").unwrap();
    assert_eq!(stats.invocations.get(), 2);
    assert_eq!(stats.cache_hits.get(), 1);
    cluster.shutdown();
}

/// A POST's reply is never cached: nobody can reuse it (two identical
/// POSTs are two actions), so an entry would only evict one somebody can.
/// The handler runs each time, no reply carries the cache marker and the
/// cache does not grow. A GET with arguments still misses, then hits.
#[test]
fn post_replies_are_not_cached_but_get_replies_are() {
    let cfg = ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, docroot("post"), cfg).unwrap();
    let base = cluster.base_url(0);
    let node = cluster.node(0);
    let echo = node.dynamic.class_stats("echo").unwrap();
    for _ in 0..2 {
        let r = client::post(&format!("{base}/cgi-bin/echo?x=1"), b"same body", "text/plain")
            .unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(std::str::from_utf8(&r.body).unwrap(), "echo: x=1\nposted: same body\n");
        assert_eq!(r.headers.get("x-sweb-dynamic-cache"), None, "a POST reply is not cached");
    }
    assert_eq!(echo.invocations.get(), 2, "both POSTs ran the handler");
    let cache = &node.dynamic.cache;
    assert_eq!((cache.entries(), cache.hits(), cache.misses()), (0, 0, 0));

    let url = format!("{base}/cgi-bin/echo?a=1");
    let miss = client::get(&url).unwrap();
    assert_eq!(miss.headers.get("x-sweb-dynamic-cache"), Some("miss"));
    let hit = client::get(&url).unwrap();
    assert_eq!(hit.headers.get("x-sweb-dynamic-cache"), Some("hit"));
    assert_eq!(hit.body, miss.body);
    assert_eq!(echo.invocations.get(), 3);
    assert_eq!(cache.entries(), 1);
    cluster.shutdown();
}

/// The cache key is `(handler class, canonicalized args)`: reordered
/// query parameters hit the same entry, different args or a different
/// handler never collide.
#[test]
fn cache_keys_isolate_handlers_and_canonicalize_args() {
    let counter = Arc::new(AtomicU64::new(0));
    let cfg = ClusterConfig {
        policy: Policy::RoundRobin,
        handlers: counting_registry(Arc::clone(&counter), Duration::from_secs(30)),
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, docroot("keys"), cfg).unwrap();
    let base = cluster.base_url(0);

    let ab = client::get(&format!("{base}/cgi-bin/count?a=1&b=2")).unwrap();
    let ba = client::get(&format!("{base}/cgi-bin/count?b=2&a=1")).unwrap();
    assert_eq!(ab.body, ba.body, "reordered args must canonicalize to one key");
    assert_eq!(ba.headers.get("x-sweb-dynamic-cache"), Some("hit"));
    assert_eq!(counter.load(Ordering::SeqCst), 1);

    let other = client::get(&format!("{base}/cgi-bin/count?a=2&b=2")).unwrap();
    assert_ne!(other.body, ab.body, "different args must be a different entry");
    assert_eq!(counter.load(Ordering::SeqCst), 2);

    // Same args, different handler: the echo handler must not be served
    // the count handler's cached body (class is part of the key).
    let echo = client::get(&format!("{base}/cgi-bin/echo?a=1&b=2")).unwrap();
    assert_eq!(echo.status, 200);
    assert_ne!(echo.body, ab.body, "handlers must never share cache entries");
    cluster.shutdown();
}

/// A blocking handler that outruns the request deadline (`burn` sleeping
/// 1 s under a 300 ms budget) gets the client a definitive 503 +
/// `Retry-After` in place of its reply — never a hang.
#[test]
fn blocking_handler_overrunning_deadline_gets_503() {
    let cfg = ClusterConfig {
        policy: Policy::RoundRobin,
        request_budget: Duration::from_millis(300),
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, docroot("overrun"), cfg).unwrap();

    let t0 = Instant::now();
    let resp = client::get_with_timeout(
        &format!("{}/cgi-bin/burn?ms=1000&cost=1", cluster.base_url(0)),
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 503, "an overrunning handler must fail definitively");
    assert_eq!(resp.headers.get("retry-after"), Some("1"));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the request must be answered promptly: {:?}",
        t0.elapsed()
    );
    assert!(cluster.node(0).stats.deadline_overruns.get() >= 1);
    cluster.shutdown();
}

/// Chaos: a slow disk stalls *static* fetches, while in-process dynamic
/// handlers — which never touch the docroot — keep answering, and every
/// request reaches a definite outcome.
#[test]
fn dynamic_handlers_survive_slow_disk_chaos() {
    let plan = FaultPlan::seeded(7)
        .with(Fault::SlowDisk { node: 0, extra_ms: 800, window: Window::ALWAYS });
    let dir = docroot("chaos");
    let cfg = ClusterConfig {
        policy: Policy::RoundRobin,
        fault_plan: Some(plan),
        request_budget: Duration::from_millis(400),
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, dir, cfg).unwrap();
    let base = cluster.base_url(0);

    let mut dynamic_ok = 0u32;
    for i in 0..10 {
        // Static fetches crawl through the injected 800 ms stall and may
        // legitimately shed 503 on the 400 ms budget — but never hang.
        let s = client::get_with_timeout(&format!("{base}/static.txt"), Duration::from_secs(5))
            .unwrap();
        assert!(s.status == 200 || s.status == 503, "static got {}", s.status);
        // Dynamic requests take the in-process path: no disk, no stall.
        let t0 = Instant::now();
        let d = client::get_with_timeout(
            &format!("{base}/cgi-bin/echo?i={i}"),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(d.status, 200, "dynamic request {i} failed under slow disk");
        assert!(
            t0.elapsed() < Duration::from_millis(700),
            "dynamic request {i} was stalled by the disk fault: {:?}",
            t0.elapsed()
        );
        dynamic_ok += 1;
    }
    assert_eq!(dynamic_ok, 10);
    cluster.shutdown();
}

/// The burn handler's measured cost must feed the oracle: after a run of
/// invocations the tuned per-class estimate exists and the status page's
/// handler table reports it alongside the measured quantiles.
#[test]
fn oracle_learns_burn_cost_from_measurements() {
    let cfg = ClusterConfig { policy: Policy::RoundRobin, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, docroot("oracle"), cfg).unwrap();
    let base = cluster.base_url(0);
    for i in 0..12 {
        // Unique args per request: every one is a real invocation.
        let r = client::get(&format!("{base}/cgi-bin/burn?cost=200000&i={i}")).unwrap();
        assert_eq!(r.status, 200);
    }
    let shared = cluster.node(0);
    let tuned = shared.oracle.tuned_ops("burn").expect("burn measurements must tune the oracle");
    assert!(tuned > 0.0);
    let stats = shared.dynamic.class_stats("burn").unwrap();
    assert_eq!(stats.invocations.get(), 12);
    assert!(stats.tcpu_us.quantile(0.5) > 0, "median measured t_cpu must be recorded");

    // And the JSON status view carries the same table (schema v6).
    let resp = client::get(&format!("{base}/sweb-status?format=json")).unwrap();
    let text = std::str::from_utf8(&resp.body).unwrap();
    let json = sweb_telemetry::Json::parse(text).unwrap();
    let report = sweb_server::StatusReport::from_json(&json).unwrap();
    let row = report
        .handlers
        .iter()
        .find(|r| r.class == "burn")
        .expect("status handler table must list the burn class");
    assert_eq!(report.metric("sweb_dynamic_invocations_total{handler=\"burn\"}"), Some(12));
    assert!(row.p50_us > 0);
    assert!((row.oracle_ops - tuned).abs() < tuned * 0.5, "table must show the tuned estimate");
    cluster.shutdown();
}

/// Redirect marking: dynamic requests participate in scheduling — a
/// 2-node locality cluster keeps serving them correctly end to end,
/// through the 302 to their home node.
#[test]
fn dynamic_requests_work_across_a_locality_cluster() {
    let dir = docroot("cluster");
    let cfg = ClusterConfig { policy: Policy::FileLocality, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(2, dir, cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    for node in 0..2 {
        for i in 0..4 {
            let r = client::get(&format!(
                "{}/cgi-bin/template?title=T{i}&name=n{node}",
                cluster.base_url(node)
            ))
            .unwrap();
            assert_eq!(r.status, 200);
            let body = std::str::from_utf8(&r.body).unwrap();
            assert!(body.contains(&format!("T{i}")), "{body}");
        }
    }
    cluster.shutdown();
}

/// `LiveCluster` is still constructible without the builder (API compat).
#[test]
fn plain_cluster_config_still_works() {
    let dir = docroot("compat");
    let cfg = sweb_server::ClusterConfig::default();
    let cluster = LiveCluster::start(1, dir, cfg).unwrap();
    let r = client::get(&format!("{}/cgi-bin/echo?q=old-api", cluster.base_url(0))).unwrap();
    assert_eq!(r.status, 200);
    assert!(std::str::from_utf8(&r.body).unwrap().contains("old-api"));
    cluster.shutdown();
}
