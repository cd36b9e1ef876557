//! Cross-crate integration: the simulator, the scheduler library, and the
//! live TCP server agree with each other.

use std::time::Duration;

use sweb::cluster::{presets, FileId, NodeId};
use sweb::core::{analytic, Broker, CostModel, LoadTable, Policy, RequestInfo, Route, SwebConfig};
use sweb::server::{client, ClusterConfig, LiveCluster};
use sweb::sim::{ClusterSim, SimConfig};
use sweb::workload::{ArrivalSchedule, FilePopulation};

/// The same `Broker` object drives both the simulator and the live server;
/// its decisions on an identical load picture must agree with what the sim
/// produces statistically: round robin never redirects, file locality
/// redirects ~(p-1)/p of requests.
#[test]
fn redirect_rates_match_policy_semantics() {
    let p = 4;
    let cluster = presets::meiko(p);
    let corpus = FilePopulation::uniform(64, 10_000).build(p);
    let arrivals = ArrivalSchedule::burst_30s(8).generate(&corpus);

    let rr = ClusterSim::new(cluster.clone(), corpus.clone(), SimConfig::with_policy(Policy::RoundRobin))
        .run(&arrivals);
    assert_eq!(rr.redirected, 0);

    let fl = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::FileLocality))
        .run(&arrivals);
    let expected = (p as f64 - 1.0) / p as f64;
    let rate = fl.redirect_rate();
    assert!(
        (rate - expected).abs() < 0.1,
        "file locality should redirect ~{expected:.2} of requests, got {rate:.2}"
    );
}

/// The broker's pure decision function agrees with what the live server
/// does over real sockets for the file-locality policy.
#[test]
fn live_server_redirects_match_broker_decisions() {
    let dir = std::env::temp_dir().join(format!("sweb-xstack-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..6 {
        std::fs::write(dir.join(format!("x{i}.txt")), vec![b'x'; 5000]).unwrap();
    }
    let n = 3;
    let cluster =
        LiveCluster::start(n, dir.clone(), ClusterConfig { policy: Policy::FileLocality, ..Default::default() })
            .unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));

    for i in 0..6 {
        let path = format!("/x{i}.txt");
        let resp = client::get(&format!("{}{}", cluster.base_url(0), path)).unwrap();
        assert_eq!(resp.status, 200);
        // Rebuild the decision offline with the same inputs the node used.
        let home = sweb_server_home(&path, n);
        if home == 0 {
            assert_eq!(resp.redirects, 0, "{path} is homed at the origin");
            assert_eq!(resp.served_by, Some(0));
        } else {
            assert_eq!(resp.redirects, 1, "{path} is homed on node {home}");
            assert_eq!(resp.served_by, Some(home));
        }
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reactor's loop threads answer what cannot block without a worker:
/// a small document all in the OS page cache, then its cached copy, a 302
/// and a 404 each count as an inline answer, and the hit carries the bytes
/// the first read took from the file.
#[test]
fn loop_threads_answer_hits_redirects_and_404s_inline() {
    let dir = std::env::temp_dir().join(format!("sweb-xstack-inline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = 3;
    let paths: Vec<String> = (0..16).map(|i| format!("/y{i}.txt")).collect();
    for (i, path) in paths.iter().enumerate() {
        std::fs::write(dir.join(&path[1..]), format!("inline {i} ").repeat(100)).unwrap();
    }
    let local = paths.iter().find(|p| sweb_server_home(p, n) == 0).expect("a document on node 0");
    let remote = paths.iter().find(|p| sweb_server_home(p, n) != 0).expect("one off node 0");
    let cfg = ClusterConfig { policy: Policy::FileLocality, ..Default::default() };
    let cluster = LiveCluster::start(n, dir.clone(), cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)));
    let inline = || cluster.node(0).reactor.counters.inline.get();
    let url = |path: &str| format!("{}{path}", cluster.base_url(0));

    // A document just written is all in the OS page cache, so its cache
    // miss is read on the loop thread too (`cachestat`, Linux 6.5).
    let first = client::get(&url(local)).unwrap();
    assert_eq!((first.status, inline()), (200, 1), "a resident cache miss is read inline");
    let warm = client::get(&url(local)).unwrap();
    assert_eq!((warm.status, inline()), (200, 2), "a resident document is answered inline");
    assert_eq!(warm.body, first.body);
    let bounced = client::get(&url(remote)).unwrap();
    assert_eq!((bounced.status, bounced.redirects), (200, 1));
    assert_eq!(inline(), 3, "the 302 is answered inline");
    let missing = client::get(&url("/nope.txt")).unwrap();
    assert_eq!((missing.status, inline()), (404, 4), "a 404 is answered inline");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reimplementation of the server's hash-placement (exercised against it
/// through the public redirect behaviour above). FNV-1a in shape, but the
/// multiplier is the server's 2³² + 0x1b3, not the 64-bit FNV prime.
fn sweb_server_home(path: &str, nodes: usize) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    sweb::cluster::Placement::Hashed.home(FileId(h), nodes).0
}

/// The analytic model, the cost model, and the cluster presets share
/// calibration: §3.3's worked example must be expressible through all of
/// them.
#[test]
fn calibration_is_consistent_across_crates() {
    let cluster = presets::meiko(6);
    let params = analytic::AnalyticParams::from_cluster(&cluster, 1.5e6, 0.0, 0.020, 0.0);
    assert!((analytic::max_sustained_rps(&params) - 17.3).abs() < 0.2);

    // The cost model on an idle cluster prices a local 1.5 MB fetch at the
    // analytic b1 rate.
    let model = CostModel::new(SwebConfig::default());
    let loads = LoadTable::new(6);
    let inputs = sweb::core::CostInputs { cluster: &cluster, loads: &loads };
    let req = RequestInfo::fetch(FileId(0), 1_500_000, NodeId(0), 0.0);
    let t = model.t_data(&req, NodeId(0), NodeId(0), &inputs);
    assert!((t - 0.3).abs() < 1e-9, "1.5MB / 5MB/s = 0.3s, got {t}");
}

/// Broker decisions respect node death end-to-end in the simulator: a
/// cluster where half the nodes leave mid-run still completes the load.
#[test]
fn simulator_survives_rolling_membership_changes() {
    let cluster = presets::meiko(4);
    let corpus = FilePopulation::uniform(32, 50_000).build(4);
    let arrivals = ArrivalSchedule::burst_30s(6).generate(&corpus);
    let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::Sweb));
    use sweb::des::SimTime;
    sim.schedule_leave(NodeId(1), SimTime::from_secs(5));
    sim.schedule_leave(NodeId(2), SimTime::from_secs(10));
    sim.schedule_join(NodeId(1), SimTime::from_secs(15));
    sim.schedule_join(NodeId(2), SimTime::from_secs(20));
    let stats = sim.run(&arrivals);
    assert!(stats.drop_rate() < 0.1, "drop rate {:.2}", stats.drop_rate());
    assert_eq!(stats.conservation_slack(), 0);
}

/// Full loop: the live server writes a CLF access log; the workload crate
/// parses it; the simulator replays it. Production logs feed capacity
/// planning with zero glue code.
#[test]
fn live_access_log_replays_through_the_simulator() {
    let dir = std::env::temp_dir().join(format!("sweb-clf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for i in 0..4 {
        std::fs::write(dir.join(format!("page{i}.html")), vec![b'x'; 4000 + i * 1000]).unwrap();
    }
    let log_path = dir.join("access.log");
    let cfg = ClusterConfig {
        policy: Policy::RoundRobin,
        access_log: Some(sweb::server::AccessLog::to_file(&log_path).unwrap()),
        ..Default::default()
    };
    let cluster = LiveCluster::start(2, dir.clone(), cfg).unwrap();
    for round in 0..3 {
        for i in 0..4 {
            let resp =
                client::get(&format!("{}/page{i}.html", cluster.base_url((round + i) % 2)))
                    .unwrap();
            assert_eq!(resp.status, 200);
        }
    }
    // One 404 (logged, not replayed).
    let resp = client::get(&format!("{}/missing.html", cluster.base_url(0))).unwrap();
    assert_eq!(resp.status, 404);
    cluster.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let (records, skipped) = sweb::workload::parse_clf(&text);
    assert_eq!(skipped, 0, "our own log must parse cleanly:\n{text}");
    assert_eq!(records.len(), 13);
    let (files, arrivals) =
        sweb::workload::trace_to_workload(&records, 4, sweb::cluster::Placement::Hashed);
    assert_eq!(files.len(), 4, "4 distinct replayable documents");
    assert_eq!(arrivals.len(), 12, "12 successful GETs");
    let stats = ClusterSim::new(presets::meiko(4), files, SimConfig::with_policy(Policy::Sweb))
        .run(&arrivals);
    assert_eq!(stats.completed, 12);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A broker facing an *entirely* dead peer set degrades to local service.
#[test]
fn broker_with_dead_peers_serves_locally() {
    let cluster = presets::meiko(3);
    let mut loads = LoadTable::new(3);
    loads.mark_dead(NodeId(1));
    loads.mark_dead(NodeId(2));
    let broker = Broker::new(Policy::FileLocality, CostModel::new(SwebConfig::default()));
    let req = RequestInfo::fetch(FileId(0), 1_500_000, NodeId(2), 1e6);
    let d = broker.decide(&req, NodeId(0), &sweb::core::CostInputs { cluster: &cluster, loads: &loads });
    assert_eq!(d.route, Route::Local);
}
