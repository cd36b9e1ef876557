//! The inline first look against the worker path, end to end.
//!
//! A reactor loop thread answers whatever cannot block — resident
//! documents, documents of at most 32 KiB all in the OS page cache (read
//! there and cached), larger ones all in it (streamed from their fd),
//! dynamic-cache hits, 302s, 304s, 4xx, and non-blocking handlers whose
//! class has measured cheap — without a worker; everything else, and *every*
//! request while a fault plan is active, takes the pool. The two paths
//! run one pipeline, so they must agree: byte for byte on the wire,
//! count for count in the metrics, bump for bump in the load table — and
//! the admission controller, which only hears from the pool, must still
//! recover while inline traffic flows.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweb_cluster::NodeId;
use sweb_core::{AdmitClass, Policy};
use sweb_http::{Request, Response};
use sweb_server::{
    home_of, ClusterConfig, DynamicHandler, DynamicRegistry, Fault, FaultPlan, LiveCluster,
    NodeShared, Window,
};
use sweb_telemetry::Phase;

/// The server's inline budget for a handler class's measured p99 (µs).
const INLINE_BUDGET_US: u64 = 256;

/// The server's size rule: a document of at most this many bytes is
/// copied into the `FileCache`, a larger one streams from its fd.
const CACHE_MAX: usize = 32 << 10;

/// A plan that is active (`Injector::is_active`) and never fires: its one
/// fault opens an hour after start. An active plan keeps every request on
/// the worker pool, so this is the switch-free way to run the pool path.
fn pool_only() -> FaultPlan {
    let hour = 3_600_000;
    FaultPlan::seeded(7).with(Fault::Brownout {
        node: 0,
        delay_ms: 1,
        window: Window::between(hour, hour + 1),
    })
}

fn config(plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig { shards: 1, fault_plan: plan, ..ClusterConfig::default() }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-firstlook-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One raw HTTP/1.0 exchange (no redirect following): write, then read
/// to EOF — or, when the server keeps the connection open, to the end
/// of the body `Content-Length` announces.
fn raw(base_url: &str, request: &str) -> String {
    let addr = base_url.strip_prefix("http://").unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let text = String::from_utf8_lossy(&out);
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let length = head
                .split("\r\n")
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse::<usize>().ok());
            if head.contains("Connection: Keep-Alive") && length == Some(body.len()) {
                break;
            }
        }
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => panic!("reading the reply to {request:?}: {e}"),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn get(base_url: &str, path: &str) -> String {
    raw(base_url, &format!("GET {path} HTTP/1.0\r\n\r\n"))
}

/// Whether this kernel answers `cachestat(2)` on `path`. Without it no
/// page counts as resident, and every document the cache misses takes
/// the pool.
fn has_cachestat(path: &std::path::Path) -> bool {
    let file = std::fs::File::open(path).unwrap();
    sweb_reactor::sys::page_cached(file.as_raw_fd(), 1).is_ok()
}

fn status_of(reply: &str) -> u16 {
    reply.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| panic!("{reply:?}"))
}

fn body_of(reply: &str) -> &str {
    reply.split_once("\r\n\r\n").map(|(_, body)| body).unwrap_or("")
}

/// `reply` with what legitimately differs between two runs taken out:
/// the trace id (header, and the copy a 302 carries in its `Location`),
/// a `Date` header, and the clusters' port numbers.
fn normalized(reply: &str, cluster: &LiveCluster) -> String {
    let (head, body) = reply.split_once("\r\n\r\n").unwrap_or((reply, ""));
    let mut lines: Vec<String> = Vec::new();
    for line in head.split("\r\n") {
        if line.starts_with("X-SWEB-Trace:") || line.starts_with("Date:") {
            continue;
        }
        let mut line = line.to_string();
        for i in 0..cluster.len() {
            line = line.replace(cluster.base_url(i), &format!("http://node{i}"));
        }
        if let Some(at) = line.find("sweb-trace=") {
            let end = line[at..].find('&').map_or(line.len(), |e| at + e);
            line.replace_range(at..end, "sweb-trace=T");
        }
        lines.push(line);
    }
    format!("{}\r\n\r\n{body}", lines.join("\r\n"))
}

/// The counters both paths must move identically (read on a cluster that
/// has served nothing but the script, so totals are the script's).
#[derive(Debug, PartialEq)]
struct Counts {
    served: u64,
    redirected: u64,
    received_redirects: u64,
    cache_hits: u64,
    cache_misses: u64,
    dynamic_hits: u64,
    dynamic_misses: u64,
    decides: u64,
    fetches: u64,
    feedback: u64,
}

fn counts(node: &NodeShared) -> Counts {
    Counts {
        served: node.reactor.counters.served.get(),
        redirected: node.reactor.counters.redirected.get(),
        received_redirects: node.stats.received_redirects.get(),
        cache_hits: node.file_cache.hits(),
        cache_misses: node.file_cache.misses(),
        dynamic_hits: node.dynamic.cache.hits(),
        dynamic_misses: node.dynamic.cache.misses(),
        decides: node.stats.phases.histogram(Phase::Decide).count(),
        fetches: node.stats.phases.histogram(Phase::Fetch).count(),
        feedback: node.stats.feedback.decisions(),
    }
}

/// Twenty requests at node 0 of a 3-node file-locality cluster, covering
/// every way the first look can end. `local` documents are homed on node
/// 0, `remote` on another node.
fn script(local: &[String], remote: &str) -> Vec<String> {
    let (a, b, c) = (&local[0], &local[1], &local[2]);
    let get = |path: &str| format!("GET {path} HTTP/1.0\r\n\r\n");
    vec![
        get(a),                                                             // miss
        get(a),                                                             // hit
        format!("HEAD {a} HTTP/1.0\r\n\r\n"),                               // HEAD of a hit
        format!("GET {a} HTTP/1.0\r\nIf-Modified-Since: Fri, 01 Jan 2100 00:00:00 GMT\r\n\r\n"),
        get("/missing.txt"),                                                // 404 from the stat
        get("/../etc/passwd"),                                              // 403 traversal
        format!("POST {a} HTTP/1.0\r\nContent-Length: 2\r\n\r\nhi"),        // 405
        format!("BREW {a} HTTP/1.0\r\n\r\n"),                               // 501
        get("/cgi-bin/search?q=maps&cost=100"),                             // dynamic miss
        get("/cgi-bin/search?cost=100&q=maps"),                             // dynamic hit
        "POST /cgi-bin/echo?x=1 HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello".to_string(),
        get(remote),                                                        // 302
        get("/"),                                                           // 404, no document
        get("/cgi-bin/nope"),                                               // 404 from the registry
        get("/sub"),                                                        // 403, a directory
        get(b),                                                             // miss
        get(b),                                                             // hit
        format!("HEAD {c} HTTP/1.0\r\n\r\n"),                               // HEAD of a miss
        get(&format!("{remote}?sweb-redirect=1")),                          // arrives redirected
        format!("GET {b} HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"),      // hit, kept open
    ]
}

/// Run `requests` at node 0 of a freshly started cluster and return
/// (normalized replies, counters, inline answers).
fn run_script(cluster: &LiveCluster, requests: &[String]) -> (Vec<String>, Counts, u64) {
    let node = cluster.node(0);
    let replies =
        requests.iter().map(|r| normalized(&raw(cluster.base_url(0), r), cluster)).collect();
    (replies, counts(node), node.reactor.counters.inline.get())
}

/// Documents homed on node 0 of a 3-node cluster, and one that is not.
fn placed_docs(dir: &std::path::Path) -> (Vec<String>, String) {
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let (mut local, mut remote) = (Vec::new(), None);
    for i in 0..64 {
        let path = format!("/doc{i}.txt");
        if home_of(&path, 3) == NodeId(0) {
            local.push(path.clone());
        } else if remote.is_none() {
            remote = Some(path.clone());
        }
        std::fs::write(dir.join(&path[1..]), format!("document {i} ").repeat(50 + i)).unwrap();
    }
    assert!(local.len() >= 3, "hash placement left node 0 without documents");
    (local, remote.expect("some document is homed off node 0"))
}

#[test]
fn inline_and_pool_paths_agree_on_bytes_and_counts() {
    let dir = fresh_dir("script");
    let (local, remote) = placed_docs(&dir);
    let cachestat = has_cachestat(&dir.join(&local[0][1..]));
    let requests = script(&local, &remote);
    assert_eq!(requests.len(), 20);
    let run = |plan: Option<FaultPlan>| {
        let cfg = ClusterConfig { policy: Policy::FileLocality, ..config(plan) };
        let cluster = LiveCluster::start(3, dir.clone(), cfg).unwrap();
        assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
        let out = run_script(&cluster, &requests);
        cluster.shutdown();
        out
    };
    let (inline_replies, inline_counts, inline_answers) = run(None);
    let (pool_replies, pool_counts, pool_answers) = run(Some(pool_only()));

    let statuses: Vec<u16> = inline_replies.iter().map(|r| status_of(r)).collect();
    assert_eq!(
        statuses,
        [
            200, 200, 200, 304, 404, 403, 405, 501, 200, 200, 200, 302, 404, 404, 403, 200, 200,
            200, 200, 200
        ]
    );
    for (i, (inline, pool)) in inline_replies.iter().zip(&pool_replies).enumerate() {
        assert_eq!(inline, pool, "request {i} ({:?}) differs between the paths", requests[i]);
    }
    assert!(inline_replies[9].contains("X-SWEB-Dynamic-Cache: hit"), "{}", inline_replies[9]);
    assert!(inline_replies[11].contains("Location: http://node"), "{}", inline_replies[11]);
    assert_eq!(inline_counts, pool_counts, "the two paths moved the counters differently");
    assert_eq!(inline_counts.decides, 12, "one decision per scheduled request");
    assert_eq!((inline_counts.cache_hits, inline_counts.cache_misses), (4, 4));
    // The POST is never looked up: nobody can reuse its reply.
    assert_eq!((inline_counts.dynamic_hits, inline_counts.dynamic_misses), (1, 1));
    assert_eq!((inline_counts.redirected, inline_counts.received_redirects), (1, 1));
    // Inline: the four document misses (each small and just written, so
    // all in the page cache), both hits and the HEAD and keep-alive ones,
    // the 304, five 4xx/501, the dynamic hit and the 302. To the pool: two
    // handler invocations. The search miss and the POSTed echo are
    // handlers that cannot block, but each is its class's first call: an
    // unmeasured class is not trusted on the loop. Without `cachestat`
    // the four misses take the pool too.
    let expected = if cachestat { 18 } else { 14 };
    assert_eq!(inline_answers, expected, "requests answered without a worker");
    assert_eq!(pool_answers, 0, "an active fault plan must keep the loop out of it");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_redirect_bumps_the_chosen_peer_once_on_both_paths() {
    let dir = fresh_dir("bump");
    let (_, remote) = placed_docs(&dir);
    let target = home_of(&remote, 3);
    for plan in [None, Some(pool_only())] {
        let pooled = plan.is_some();
        let cfg = ClusterConfig { policy: Policy::FileLocality, ..config(plan) };
        let cluster = LiveCluster::start(3, dir.clone(), cfg).unwrap();
        assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
        let node = cluster.node(0);
        let view = || {
            let loads = node.loads.read();
            (loads.load(target).cpu, loads.updated_at(target))
        };
        // A loadd packet from the peer overwrites its entry (that is how
        // the bump decays): measure between two packets.
        let bump = (0..50)
            .find_map(|_| {
                let (before, heard_before) = view();
                let reply = get(cluster.base_url(0), &remote);
                assert_eq!(status_of(&reply), 302, "{reply}");
                let (after, heard_after) = view();
                (heard_before == heard_after).then_some(after - before)
            })
            .expect("no redirect fit between two loadd packets");
        assert!(
            (bump - node.sweb.delta).abs() < 1e-9,
            "pooled={pooled}: one redirect moved the peer's load by {bump}, Δ is {}",
            node.sweb.delta
        );
        cluster.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rewritten_file_is_served_fresh_by_the_inline_path() {
    let dir = fresh_dir("fresh");
    std::fs::write(dir.join("page.html"), "version one").unwrap();
    // Without `cachestat` each miss takes the pool instead.
    let read_inline = u64::from(has_cachestat(&dir.join("page.html")));
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let node = cluster.node(0);
    let fetch = || {
        let reply = get(cluster.base_url(0), "/page.html");
        assert_eq!(status_of(&reply), 200, "{reply}");
        body_of(&reply).to_string()
    };
    assert_eq!(fetch(), "version one");
    assert_eq!(fetch(), "version one");
    assert_eq!(
        node.reactor.counters.inline.get(),
        read_inline + 1,
        "the miss is read inline, the resident copy served inline"
    );
    // Rewrite with a strictly newer mtime.
    std::thread::sleep(Duration::from_millis(20));
    std::fs::write(dir.join("page.html"), "version two, longer").unwrap();
    assert_eq!(fetch(), "version two, longer", "stale body served");
    assert_eq!(
        node.reactor.counters.inline.get(),
        2 * read_inline + 1,
        "a stale entry is a miss: re-read inline from the page cache"
    );
    assert_eq!(fetch(), "version two, longer");
    assert_eq!(node.reactor.counters.inline.get(), 2 * read_inline + 2);
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (2, 2));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The admission controller's level moves only when a worker dequeues a
/// job. Inline answers never queue, so they must neither move the level
/// nor — by producing refusals the controller never hears of — pin it.
#[test]
fn admission_level_recovers_with_inline_traffic_in_between() {
    let dir = fresh_dir("control");
    std::fs::write(dir.join("hot.txt"), "resident and cheap").unwrap();
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let base = cluster.base_url(0).to_string();
    let node = cluster.node(0);
    assert_eq!(status_of(&get(&base, "/hot.txt")), 200);
    assert_eq!(status_of(&get(&base, "/hot.txt")), 200);

    // A real standing queue: more sleeping handlers than workers, every
    // request unique so the response cache cannot absorb them. Stop as
    // soon as the level reads 2.
    let unique = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(30);
    while node.admission.level() < 2 {
        assert!(Instant::now() < deadline, "a standing queue never raised the shed level to 2");
        let stop = Arc::new(AtomicBool::new(false));
        let burners: Vec<_> = (0..8)
            .map(|_| {
                let (base, stop, unique) = (base.clone(), Arc::clone(&stop), Arc::clone(&unique));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let u = unique.fetch_add(1, Ordering::SeqCst);
                        let reply = get(&base, &format!("/cgi-bin/burn?ms=300&cost=1&u={u}"));
                        assert!(matches!(status_of(&reply), 200 | 503), "{reply}");
                    }
                })
            })
            .collect();
        let attempt = Instant::now();
        while node.admission.level() < 2 && attempt.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        for b in burners {
            b.join().unwrap();
        }
    }
    // The queue's last samples may have carried the level to 3, where
    // even resident documents are refused — through the pool, so those
    // refusals are themselves the samples that bring it back to 2.
    while node.admission.level() > 2 {
        assert!(Instant::now() < deadline, "level 3 never relaxed");
        assert!(matches!(status_of(&get(&base, "/hot.txt")), 200 | 503));
        std::thread::sleep(Duration::from_millis(20));
    }
    // (The level is read from the controller, not `/sweb-status`: a status
    // request is a pool job, and the first sample after a quiet window is
    // exactly what moves the level.)

    // Resident hits only, for half a second: all served, all inline, and
    // the level does not move because nothing observes a queue.
    let sheds = || {
        [AdmitClass::Dynamic, AdmitClass::StaticMiss, AdmitClass::StaticHit]
            .map(|class| node.stats.admission_sheds_of(class).get())
    };
    let (inline_before, shed_before) = (node.reactor.counters.inline.get(), sheds());
    let started = Instant::now();
    let mut hits = 0u64;
    while started.elapsed() < Duration::from_millis(500) {
        let reply = get(&base, "/hot.txt");
        assert_eq!(status_of(&reply), 200, "a resident hit was refused below level 3: {reply}");
        hits += 1;
    }
    assert_eq!(
        node.reactor.counters.inline.get() - inline_before,
        hits,
        "hits must be answered inline"
    );
    assert_eq!(node.admission.level(), 2, "inline traffic moved the shed level");
    assert_eq!(sheds(), shed_before, "inline traffic was refused by class");

    // Dynamic requests, one per observation window: each refusal goes
    // through the pool, is a sample of an empty queue, and takes the level
    // down a step — so at most two are refused before one succeeds.
    let mut refused = 0;
    loop {
        let u = unique.fetch_add(1, Ordering::SeqCst);
        let reply = get(&base, &format!("/cgi-bin/search?q=recover&cost=10&u={u}"));
        match status_of(&reply) {
            200 => break,
            503 => refused += 1,
            other => panic!("unexpected status {other}: {reply}"),
        }
        assert!(refused <= 2, "level 2 has two steps, {refused} requests were refused");
        std::thread::sleep(Duration::from_millis(120));
    }
    assert!(refused >= 1, "level 2 must refuse dynamic work at least once");
    assert_eq!(node.admission.level(), 0, "the control loop did not close");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-class handler state both paths must move identically.
#[derive(Debug, PartialEq)]
struct ClassCounts {
    invocations: u64,
    cache_hits: u64,
    tcpu_samples: u64,
    tuned: bool,
}

fn class_counts(node: &NodeShared) -> Vec<(&'static str, ClassCounts)> {
    node.dynamic
        .class_rows()
        .into_iter()
        .map(|(class, s)| {
            let counts = ClassCounts {
                invocations: s.invocations.get(),
                cache_hits: s.cache_hits.get(),
                tcpu_samples: s.tcpu_us.count(),
                tuned: node.oracle.tuned_ops(class).is_some(),
            };
            (class, counts)
        })
        .collect()
}

/// Whether the class's measured p99 lets a non-blocking call run inline.
fn measured_cheap(node: &NodeShared, class: &str) -> bool {
    let tcpu = &node.dynamic.class_stats(class).unwrap().tcpu_us;
    tcpu.count() > 0 && tcpu.quantile(0.99) <= INLINE_BUDGET_US
}

#[test]
fn every_demo_handler_agrees_inline_and_on_the_pool_once_warmed() {
    let dir = fresh_dir("handlers");
    std::fs::write(dir.join("doc.txt"), "a document").unwrap();
    let get = |path: &str| format!("GET {path} HTTP/1.0\r\n\r\n");
    let post = |path: &str, body: &str| {
        format!("POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}", body.len())
    };
    // (class, warm-up, measured, may run inline): the warm-up is the
    // class's first call, so the measured request meets a class with one
    // sample and distinct arguments, a response-cache miss.
    let cases = [
        ("echo", get("/cgi-bin/echo?warm=1"), get("/cgi-bin/echo?a=1&b=2"), true),
        ("echo", get("/cgi-bin/echo?warm=2"), post("/cgi-bin/echo?p=1", "posted body"), true),
        ("search", get("/cgi-bin/search?q=warm&cost=100"), get("/cgi-bin/search?q=maps&cost=2000"), true),
        ("template", get("/cgi-bin/template?title=warm"), get("/cgi-bin/template?title=T&name=n"), true),
        ("introspect", get("/cgi-bin/introspect"), get("/cgi-bin/introspect?again"), true),
        ("burn", get("/cgi-bin/burn?cost=1000&w=1"), get("/cgi-bin/burn?cost=1000"), false),
        ("search", get("/cgi-bin/search?q=warm2&cost=100"), get("/cgi-bin/search?q=big&cost=2000000"), false),
    ];
    let run = |plan: Option<FaultPlan>| {
        let pooled = plan.is_some();
        let cluster = LiveCluster::start(1, dir.clone(), config(plan)).unwrap();
        let base = cluster.base_url(0).to_string();
        let node = cluster.node(0);
        let mut replies = Vec::new();
        for (class, warm, measured, may_inline) in &cases {
            assert_eq!(status_of(&raw(&base, warm)), 200);
            let expect_inline = !pooled && *may_inline && measured_cheap(node, class);
            let before = node.reactor.counters.inline.get();
            let reply = raw(&base, measured);
            assert_eq!(status_of(&reply), 200, "{reply}");
            // A POST's reply and introspect's are never cached.
            let cached = !measured.starts_with("POST") && *class != "introspect";
            assert_eq!(reply.contains("X-SWEB-Dynamic-Cache: miss"), cached, "{reply}");
            assert_eq!(
                node.reactor.counters.inline.get() - before,
                u64::from(expect_inline),
                "pooled={pooled}: {measured:?} inline"
            );
            replies.push(normalized(&reply, &cluster));
        }
        let out = (replies, counts(node), class_counts(node), node.reactor.counters.inline.get());
        cluster.shutdown();
        out
    };
    let (inline_replies, inline_counts, inline_classes, inline_answers) = run(None);
    let (pool_replies, pool_counts, pool_classes, pool_answers) = run(Some(pool_only()));
    for (i, (inline, pool)) in inline_replies.iter().zip(&pool_replies).enumerate() {
        assert_eq!(inline, pool, "{:?} differs between the paths", cases[i].2);
    }
    assert_eq!(inline_counts, pool_counts, "the two paths moved the counters differently");
    assert_eq!(inline_classes, pool_classes, "the two paths moved the class stats differently");
    assert_eq!(pool_answers, 0);
    assert!(inline_answers >= 1, "no handler ran on the loop thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A search too expensive for the loop thread (`cost` over the cap) takes
/// the pool even though its class measured cheap, and the shard keeps
/// answering: a resident document on the same single-shard node comes
/// back while the search burns.
#[test]
fn an_expensive_search_does_not_park_the_shard() {
    let dir = fresh_dir("park");
    std::fs::write(dir.join("hot.txt"), "resident").unwrap();
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let base = cluster.base_url(0).to_string();
    let node = cluster.node(0);
    assert_eq!(status_of(&get(&base, "/hot.txt")), 200);
    assert_eq!(status_of(&get(&base, "/hot.txt")), 200);
    assert_eq!(status_of(&get(&base, "/cgi-bin/search?q=warm&cost=100")), 200);
    let search = node.dynamic.class_stats("search").unwrap();
    let inline_before = node.reactor.counters.inline.get();
    let parsed = || node.stats.phases.histogram(Phase::Parse).count();
    let parsed_before = parsed();

    let slow = {
        let base = base.clone();
        std::thread::spawn(move || status_of(&get(&base, "/cgi-bin/search?q=slow&cost=50000000")))
    };
    // Wait until the slow request has been dispatched.
    let deadline = Instant::now() + Duration::from_secs(10);
    while parsed() == parsed_before {
        assert!(Instant::now() < deadline, "the slow search never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let started = Instant::now();
    let reply = get(&base, "/hot.txt");
    let took = started.elapsed();
    assert_eq!(status_of(&reply), 200, "{reply}");
    assert!(took < Duration::from_millis(50), "a resident GET waited {took:?} behind a search");
    assert!(matches!(slow.join().unwrap(), 200 | 503));
    assert_eq!(
        node.reactor.counters.inline.get() - inline_before,
        1,
        "only the GET is an inline answer"
    );
    assert_eq!(search.invocations.get(), 2, "the slow search ran, on the pool");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-blocking handler that turns slow: it spins for 2 ms per call
/// once `slow` is set.
struct Turning {
    slow: Arc<AtomicBool>,
}

impl DynamicHandler for Turning {
    fn class(&self) -> &'static str {
        "turning"
    }
    fn blocking(&self, _req: &Request, _body: &[u8]) -> bool {
        false
    }
    fn handle(&self, _shared: &NodeShared, _req: &Request, _body: &[u8]) -> Response {
        if self.slow.load(Ordering::SeqCst) {
            let started = Instant::now();
            while started.elapsed() < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
        }
        Response::ok("turned", "text/plain")
    }
}

/// The inline decision follows the measurement: once a class's p99 rises
/// over the budget it goes back to the pool.
#[test]
fn a_class_whose_p99_rises_over_budget_goes_back_to_the_pool() {
    let dir = fresh_dir("turning");
    let slow = Arc::new(AtomicBool::new(false));
    let mut handlers = DynamicRegistry::new();
    handlers.register("turning", Arc::new(Turning { slow: Arc::clone(&slow) }));
    let cluster = LiveCluster::start(1, dir.clone(), ClusterConfig { handlers, ..config(None) }).unwrap();
    let base = cluster.base_url(0).to_string();
    let node = cluster.node(0);
    let unique = AtomicU64::new(0);
    let inline = || {
        let before = node.reactor.counters.inline.get();
        let u = unique.fetch_add(1, Ordering::SeqCst);
        assert_eq!(status_of(&get(&base, &format!("/cgi-bin/turning?u={u}"))), 200);
        node.reactor.counters.inline.get() - before == 1
    };
    assert!(!inline(), "an unmeasured class takes the pool");
    // A fast class runs inline. (One sample preempted past the budget
    // holds the p99 up for a hundred more, so allow a few hundred.)
    assert!((0..300).any(|_| inline()), "a cheap class never ran inline");
    let tcpu = &node.dynamic.class_stats("turning").unwrap().tcpu_us;
    assert!(tcpu.quantile(0.99) <= INLINE_BUDGET_US);

    slow.store(true, Ordering::SeqCst);
    assert!(inline(), "the first slow call still meets a cheap p99");
    assert!(tcpu.quantile(0.99) > INLINE_BUDGET_US, "a 2 ms sample must lift the p99");
    for _ in 0..3 {
        assert!(!inline(), "an expensive class stayed on the loop thread");
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An ASCII body of `len` bytes, so replies compare as text.
fn large_body(len: usize) -> String {
    (0..len).map(|i| char::from(b'a' + (i % 23) as u8)).collect()
}

#[test]
fn a_large_document_agrees_inline_and_on_the_pool() {
    for len in [2 * CACHE_MAX, 300 << 10] {
        large_document_agrees_inline_and_on_the_pool(len);
    }
}

fn large_document_agrees_inline_and_on_the_pool(len: usize) {
    let dir = fresh_dir(&format!("large-{len}"));
    std::fs::write(dir.join("big.txt"), large_body(len)).unwrap();
    let cachestat = has_cachestat(&dir.join("big.txt"));
    let requests = [
        "GET /big.txt HTTP/1.0\r\n\r\n",
        "HEAD /big.txt HTTP/1.0\r\n\r\n",
        "GET /big.txt HTTP/1.0\r\nIf-Modified-Since: Fri, 01 Jan 2100 00:00:00 GMT\r\n\r\n",
        "GET /big.txt?sweb-redirect=1 HTTP/1.0\r\n\r\n",
    ];
    let run = |plan: Option<FaultPlan>| {
        let cluster = LiveCluster::start(1, dir.clone(), config(plan)).unwrap();
        let requests: Vec<String> = requests.iter().map(|r| r.to_string()).collect();
        let out = run_script(&cluster, &requests);
        cluster.shutdown();
        out
    };
    let (inline_replies, inline_counts, inline_answers) = run(None);
    let (pool_replies, pool_counts, pool_answers) = run(Some(pool_only()));
    for (i, (inline, pool)) in inline_replies.iter().zip(&pool_replies).enumerate() {
        assert_eq!(inline, pool, "{len} B: {:?} differs between the paths", requests[i]);
    }
    let statuses: Vec<u16> = inline_replies.iter().map(|r| status_of(r)).collect();
    assert_eq!(statuses, [200, 200, 304, 200], "{len} B");
    for reply in [&inline_replies[0], &inline_replies[3]] {
        assert_eq!(body_of(reply).len(), len, "a GET streams the whole document");
    }
    let head = &inline_replies[1];
    assert!(head.contains(&format!("Content-Length: {len}\r\n")), "{head}");
    assert_eq!(body_of(head), "", "a HEAD carries no body");
    assert_eq!(inline_counts, pool_counts, "{len} B: the two paths moved the counters differently");
    assert_eq!((inline_counts.cache_hits, inline_counts.cache_misses), (0, 0), "{len} B");
    assert_eq!(inline_counts.received_redirects, 1);
    // Every one of them on the loop: the GETs and the HEAD stream from
    // the page cache (a file just written is in it), the 304 is the stat's.
    // Without `cachestat` only the 304 is.
    let expected = if cachestat { 4 } else { 1 };
    assert_eq!(inline_answers, expected, "{len} B: requests answered without a worker");
    assert_eq!(pool_answers, 0, "an active fault plan must keep the loop out of it");
    let _ = std::fs::remove_dir_all(&dir);
}

extern "C" {
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
}

const POSIX_FADV_DONTNEED: i32 = 4;

/// Write `body` to `path`, then `fsync` it and drop its pages from the
/// OS page cache. Whether they are gone: `None` where the kernel has no
/// `cachestat`, `Some(false)` where they stayed (tmpfs has no disk to
/// drop them to).
fn write_cold(path: &std::path::Path, body: &str) -> Option<bool> {
    std::fs::write(path, body).unwrap();
    let file = std::fs::File::open(path).unwrap();
    file.sync_all().unwrap();
    // SAFETY: the fd is open for the whole call, which takes no pointers.
    let rc = unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
    assert_eq!(rc, 0, "posix_fadvise failed");
    let resident = sweb_reactor::sys::page_cached(file.as_raw_fd(), body.len() as u64);
    resident.ok().map(|resident| !resident)
}

/// A large document whose pages are not in memory is opened and read in
/// on a worker, so the loop's `sendfile` never waits on the disk; once it
/// is resident the loop streams it.
#[test]
fn a_cold_large_document_is_read_in_on_a_worker_then_streamed_inline() {
    for len in [2 * CACHE_MAX, 300 << 10, 1 << 20] {
        cold_large_document_is_read_in_on_a_worker_then_streamed_inline(len);
    }
}

fn cold_large_document_is_read_in_on_a_worker_then_streamed_inline(len: usize) {
    let dir = fresh_dir(&format!("cold-{len}"));
    let body = large_body(len);
    let cold = write_cold(&dir.join("cold.bin"), &body);
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let node = cluster.node(0);
    let fetch = || {
        let before = node.reactor.counters.inline.get();
        let reply = get(cluster.base_url(0), "/cold.bin");
        assert_eq!(status_of(&reply), 200);
        (body_of(&reply).to_string(), node.reactor.counters.inline.get() - before)
    };
    // A HEAD streams nothing, so only the worker can have read it in.
    let head = raw(cluster.base_url(0), "HEAD /cold.bin HTTP/1.0\r\n\r\n");
    assert_eq!(status_of(&head), 200);
    if cold == Some(true) {
        assert_eq!(node.reactor.counters.inline.get(), 0, "a cold document must take the pool");
        let file = std::fs::File::open(dir.join("cold.bin")).unwrap();
        let resident = sweb_reactor::sys::page_cached(file.as_raw_fd(), body.len() as u64);
        assert!(resident.unwrap(), "{len} B: the worker left the document cold");
    }
    let cold = write_cold(&dir.join("cold.bin"), &body);
    let (first, first_inline) = fetch();
    let (second, second_inline) = fetch();
    assert!(first == body, "{len} B: the cold read corrupted or truncated the body");
    assert!(second == body, "{len} B: the streamed body differs from the cold read");
    if cold == Some(true) {
        assert_eq!(first_inline, 0, "a cold document must take the pool");
        assert_eq!(second_inline, 1, "the worker read it in: the repeat streams inline");
    }
    assert_eq!(node.reactor.counters.sendfile.get(), 2, "{len} B");
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (0, 0), "{len} B");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fetch `path` from node 0, returning the reply and how many inline
/// answers it added.
fn fetch_counted(cluster: &LiveCluster, path: &str) -> (String, u64) {
    let inline = || cluster.node(0).reactor.counters.inline.get();
    let before = inline();
    let reply = get(cluster.base_url(0), path);
    assert_eq!(status_of(&reply), 200, "{reply}");
    (reply, inline() - before)
}

/// A small document the cache misses but the OS page cache holds is read
/// on the loop: its first request is answered without a worker and builds
/// the entry its repeat is served from.
#[test]
fn a_small_document_in_the_page_cache_is_read_inline_on_its_first_request() {
    let dir = fresh_dir("small");
    let body = large_body(4 << 10);
    std::fs::write(dir.join("small.txt"), &body).unwrap();
    let cachestat = has_cachestat(&dir.join("small.txt"));
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let node = cluster.node(0);
    let (first, first_inline) = fetch_counted(&cluster, "/small.txt");
    assert!(body_of(&first) == body, "the inline read corrupted or truncated the body");
    if cachestat {
        assert_eq!(first_inline, 1, "a resident miss is read on the loop");
    }
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (0, 1));
    assert!(node.file_cache.resident("/small.txt"), "the miss did not build an entry");
    let (second, second_inline) = fetch_counted(&cluster, "/small.txt");
    assert_eq!(second_inline, 1, "the repeat is a resident hit");
    // The hit is served with the head the miss built its entry with.
    assert_eq!(normalized(&second, &cluster), normalized(&first, &cluster));
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (1, 1));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cold twin: a small document whose pages are not in memory is read
/// on a worker, from the fd the first look opened, and cached there; its
/// repeat is a resident hit on the loop.
#[test]
fn a_cold_small_document_is_read_on_a_worker_then_served_inline() {
    let dir = fresh_dir("cold-small");
    let body = large_body(4 << 10);
    let cold = write_cold(&dir.join("cold.txt"), &body);
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let node = cluster.node(0);
    let (first, first_inline) = fetch_counted(&cluster, "/cold.txt");
    let (second, second_inline) = fetch_counted(&cluster, "/cold.txt");
    assert!(body_of(&first) == body, "the worker's read corrupted or truncated the body");
    assert!(body_of(&second) == body, "the cached body differs from the worker's read");
    // Skipped where the kernel has no `cachestat` or the pages stayed.
    if cold == Some(true) {
        assert_eq!(first_inline, 0, "a cold document must take the pool");
    }
    assert_eq!(second_inline, 1, "the worker cached it: the repeat is inline");
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (1, 1));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The edge of the size rule, from below: a resident document of
/// exactly [`CACHE_MAX`] bytes is read on the loop and copied into the
/// cache on its miss, and its repeat is a hit.
#[test]
fn a_document_of_exactly_the_bound_is_a_miss_then_a_hit() {
    let dir = fresh_dir("at-bound");
    let body = large_body(CACHE_MAX);
    std::fs::write(dir.join("at.txt"), &body).unwrap();
    let cachestat = has_cachestat(&dir.join("at.txt"));
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let node = cluster.node(0);
    let (first, first_inline) = fetch_counted(&cluster, "/at.txt");
    assert!(body_of(&first) == body, "the miss corrupted or truncated the body");
    if cachestat {
        assert_eq!(first_inline, 1, "a resident miss at the bound is read on the loop");
    }
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (0, 1));
    assert!(node.file_cache.resident("/at.txt"), "the miss did not build an entry");
    let (second, second_inline) = fetch_counted(&cluster, "/at.txt");
    assert_eq!(second_inline, 1, "the repeat is a resident hit");
    assert_eq!(normalized(&second, &cluster), normalized(&first, &cluster));
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (1, 1));
    assert_eq!(node.reactor.counters.sendfile.get(), 0, "a cached document is not streamed");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The edge from above: a resident document one byte over [`CACHE_MAX`]
/// streams from the loop with `sendfile` and never touches the cache.
#[test]
fn a_resident_document_one_byte_over_the_bound_streams_inline() {
    let dir = fresh_dir("over-bound");
    let body = large_body(CACHE_MAX + 1);
    std::fs::write(dir.join("over.txt"), &body).unwrap();
    let cachestat = has_cachestat(&dir.join("over.txt"));
    let cluster = LiveCluster::start(1, dir.clone(), config(None)).unwrap();
    let node = cluster.node(0);
    for pass in 0..2 {
        let (reply, inline) = fetch_counted(&cluster, "/over.txt");
        assert!(body_of(&reply) == body, "pass {pass}: corrupted or truncated body");
        // Without `cachestat` no page counts as resident: the pool streams it.
        if cachestat {
            assert_eq!(inline, 1, "pass {pass}: a resident document streams from the loop");
        }
    }
    assert_eq!(node.reactor.counters.sendfile.get(), 2, "both replies stream from the fd");
    assert_eq!((node.file_cache.hits(), node.file_cache.misses()), (0, 0));
    assert!(!node.file_cache.resident("/over.txt"), "a streamed document entered the cache");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
