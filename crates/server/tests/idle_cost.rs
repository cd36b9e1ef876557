//! An idle cluster costs next to nothing: every node runs one loop per
//! CPU and one worker pool that its loops share, co-located nodes split
//! the default pool between them, and a node with no requests sleeps. Its
//! own file, so it runs in its own process, and one test, so every thread
//! it counts beyond the harness's own belongs to the cluster under test.

use std::time::{Duration, Instant};

use sweb_des::SimTime;
use sweb_server::{ClusterConfig, LiveCluster};

/// Every thread of this process, by `comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// The scheduling policy of every thread whose `comm` starts with
/// `prefix`: field 41 of its `stat` (0 is `SCHED_OTHER`, 3 `SCHED_BATCH`).
fn policies(prefix: &str) -> Vec<u32> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path();
            if !std::fs::read_to_string(path.join("comm")).ok()?.starts_with(prefix) {
                return None;
            }
            let stat = std::fs::read_to_string(path.join("stat")).ok()?;
            // Fields 1 and 2 (pid, comm) end at the last `)`.
            stat.rsplit_once(')')?.1.split_whitespace().nth(41 - 3)?.parse().ok()
        })
        .collect()
}

/// Context switches, voluntary and not, summed over every thread.
fn context_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Worker threads one node of an `nodes`-node process runs: its share of
/// the default pool, at least two, whatever its shard count.
fn workers_per_node(nodes: usize) -> usize {
    (sweb_reactor::default_workers() / nodes).max(2)
}

/// What `swebd --nodes N` runs, idle: default shards, the 2.5 s loadd
/// period, converged and every shard live. Checks that every node runs a
/// loop per CPU, steered and in the batch class when there are two or
/// more, that its threads are its loops and workers and nothing else, and
/// that over one second the whole process switches at most 20 times.
fn idle_swebd(nodes: usize) {
    let harness = thread_names().len();
    let dir = std::env::temp_dir().join(format!("sweb-idle-{nodes}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), "idle").unwrap();
    let mut cfg = ClusterConfig::default();
    cfg.sweb.loadd_period = SimTime::from_millis(2_500);
    cfg.sweb.stale_timeout = SimTime::from_millis(10_000);
    let cluster = LiveCluster::start(nodes, dir.clone(), cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)), "mesh must converge");
    let live = |i: usize| {
        let node = cluster.node(i);
        (0..node.shards).all(|shard| node.reactor.counters.live.cell_value(shard) > 0)
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(0..nodes).all(live) {
        assert!(Instant::now() < deadline, "a shard never came up");
        std::thread::sleep(Duration::from_millis(1));
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shards = cluster.node(0).shards;
    assert_eq!(shards, cores.min(sweb_telemetry::MAX_SHARD_CELLS), "one shard per core");
    let workers = workers_per_node(nodes);
    let names = thread_names();
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    for i in 0..nodes {
        // A node's threads carry its port: `sweb-<port>-s<k>`, `sweb-<port>-w<k>`.
        let port = cluster.base_url(i).rsplit(':').next().unwrap();
        assert_eq!(count(&format!("sweb-{port}-s")), shards, "node {i}: {names:?}");
        assert_eq!(count(&format!("sweb-{port}-w")), workers, "node {i}: {names:?}");
        if shards >= 2 {
            const SCHED_BATCH: u32 = 3;
            let loops = policies(&format!("sweb-{port}-s"));
            assert!(loops.iter().all(|&p| p == SCHED_BATCH), "node {i}: loop policies {loops:?}");
        }
        let pool = policies(&format!("sweb-{port}-w"));
        assert!(pool.iter().all(|&p| p == 0), "node {i}: worker policies {pool:?}");
    }
    assert_eq!(
        names.len(),
        harness + nodes * (shards + workers),
        "a thread beyond the loops and the workers: {names:?}"
    );

    let before = context_switches();
    std::thread::sleep(Duration::from_secs(1));
    let per_second = context_switches().saturating_sub(before);
    let threads = names.len() - harness;
    eprintln!("{nodes} idle node(s): {threads} threads, {per_second} context switches/s");
    assert!(per_second <= 20, "{per_second} context switches in a second while idle");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_nodes_run_a_loop_per_cpu_and_sleep() {
    // swebd's default: three nodes share the box and split its pool.
    idle_swebd(3);
    // A single node gets the whole pool.
    idle_swebd(1);
}
