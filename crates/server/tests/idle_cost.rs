//! An idle cluster costs nothing: co-located nodes split the machine, and
//! a node with no requests sleeps. Its own file, so it runs in its own
//! process, and one test, so every thread it counts beyond the harness's
//! own belongs to the cluster under test.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sweb_server::ServerOptions;

/// Every thread of this process, by `comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
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

/// Worker threads one node of an `nodes`-node process runs over `shards`:
/// its share of the default pool (at least two), split evenly over its
/// shards (at least one each).
fn workers_per_node(nodes: usize, shards: usize) -> usize {
    let pool = (sweb_reactor::default_workers() / nodes).max(2);
    shards * (pool / shards).max(1)
}

/// What `swebd --nodes N` runs, idle: default shards, the 2.5 s loadd
/// period, converged and every shard live. Checks that its threads are
/// its loops and workers and nothing else, and that over one second the
/// whole process switches at most 20 times.
fn idle_swebd(nodes: usize) {
    let harness = thread_names().len();
    let dir = std::env::temp_dir().join(format!("sweb-idle-{nodes}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), "idle").unwrap();
    let cluster = ServerOptions::new().loadd_ms(2_500).start(nodes, dir.clone()).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)), "mesh must converge");
    let live = |i: usize| cluster.node(i).shard_live.iter().all(|l| l.load(Ordering::Relaxed));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(0..nodes).all(live) {
        assert!(Instant::now() < deadline, "a shard never came up");
        std::thread::sleep(Duration::from_millis(1));
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let shards = cluster.node(0).shards;
    assert_eq!(shards, (cores / nodes).max(1), "{nodes} nodes divide {cores} cores");
    let workers = workers_per_node(nodes, shards);
    let names = thread_names();
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!(count("sweb-reactor"), nodes * shards, "{names:?}");
    assert_eq!(count("sweb-worker"), nodes * workers, "{names:?}");
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
fn idle_nodes_split_the_machine_and_sleep() {
    // swebd's default: three nodes share the box.
    idle_swebd(3);
    // A single node still gets a shard per core and the whole pool.
    idle_swebd(1);
}
