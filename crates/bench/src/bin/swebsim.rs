//! `swebsim` — run one simulated SWEB scenario from the command line.
//!
//! ```text
//! swebsim --testbed meiko --nodes 6 --policy sweb --rps 16 \
//!         --duration 30 --file-size 1500000 --files 24
//! swebsim --testbed now --nodes 4 --policy rr --rps 8 --zipf 1.0
//! swebsim --testbed hetero --nodes 4 --rps 2 --file-size 100000 --cgi 0.5 --compare
//! ```
//!
//! Prints the run summary, per-node breakdown, utilizations, and the
//! per-second sparklines.

use sweb_cluster::{presets, ClusterSpec};
use sweb_core::Policy;
use sweb_des::SimTime;
use sweb_sim::{ClusterSim, SimConfig};
use sweb_workload::{ArrivalSchedule, FilePopulation, Popularity};

struct Args {
    testbed: String,
    nodes: usize,
    policy: Policy,
    rps: u32,
    duration_s: u64,
    file_size: u64,
    files: usize,
    zipf: Option<f64>,
    cgi_fraction: f64,
    seed: u64,
    timeout_s: f64,
    compare: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: swebsim [--testbed meiko|now|hetero] [--nodes N] \
         [--policy sweb|rr|locality|cpu] [--rps N] [--duration SECS] \
         [--file-size BYTES] [--files N] [--zipf S] [--cgi FRACTION] \
         [--seed N] [--timeout SECS] [--compare]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        testbed: "meiko".into(),
        nodes: 6,
        policy: Policy::Sweb,
        rps: 16,
        duration_s: 30,
        file_size: 1_500_000,
        files: 24,
        zipf: None,
        cgi_fraction: 0.0,
        seed: 0xa11ce,
        timeout_s: 300.0,
        compare: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut v = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--testbed" => a.testbed = v(),
            "--nodes" => a.nodes = v().parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                a.policy = match v().as_str() {
                    "sweb" => Policy::Sweb,
                    "rr" | "round-robin" => Policy::RoundRobin,
                    "locality" => Policy::FileLocality,
                    "cpu" => Policy::LeastLoadedCpu,
                    _ => usage(),
                }
            }
            "--rps" => a.rps = v().parse().unwrap_or_else(|_| usage()),
            "--duration" => a.duration_s = v().parse().unwrap_or_else(|_| usage()),
            "--file-size" => a.file_size = v().parse().unwrap_or_else(|_| usage()),
            "--files" => a.files = v().parse().unwrap_or_else(|_| usage()),
            "--zipf" => a.zipf = Some(v().parse().unwrap_or_else(|_| usage())),
            "--cgi" => a.cgi_fraction = v().parse().unwrap_or_else(|_| usage()),
            "--compare" => a.compare = true,
            "--seed" => a.seed = v().parse().unwrap_or_else(|_| usage()),
            "--timeout" => a.timeout_s = v().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    a
}

fn cluster_for(a: &Args) -> ClusterSpec {
    match a.testbed.as_str() {
        "meiko" => presets::meiko(a.nodes),
        "now" => presets::now_lx(a.nodes),
        "hetero" => presets::heterogeneous_now(a.nodes),
        _ => usage(),
    }
}

fn run_stats(a: &Args, policy: Policy) -> (usize, sweb_metrics::RunStats) {
    let cluster = cluster_for(a);
    let n = cluster.len();
    let corpus = FilePopulation::uniform(a.files, a.file_size).build(n);
    let schedule = ArrivalSchedule {
        rps: a.rps,
        duration: SimTime::from_secs(a.duration_s),
        popularity: match a.zipf {
            Some(s) => Popularity::Zipf(s),
            None => Popularity::Uniform,
        },
        seed: a.seed,
        bursty: true,
    };
    let arrivals = schedule.generate(&corpus);
    let mut cfg = SimConfig::with_policy(policy);
    cfg.cgi_fraction = a.cgi_fraction;
    cfg.seed = a.seed;
    cfg.client.timeout = a.timeout_s;
    (n, ClusterSim::new(cluster, corpus, cfg).run(&arrivals))
}

fn main() {
    let a = parse_args();
    if a.compare {
        let mut table = sweb_metrics::TextTable::new(format!(
            "Policy comparison: {} x{} nodes, {} rps x {}s, {} x {} bytes",
            a.testbed, cluster_for(&a).len(), a.rps, a.duration_s, a.files, a.file_size
        ))
        .header(&["policy", "mean (s)", "p95 (s)", "drop", "redirects", "cache hits"]);
        for policy in
            [Policy::RoundRobin, Policy::FileLocality, Policy::LeastLoadedCpu, Policy::Sweb]
        {
            let (_, stats) = run_stats(&a, policy);
            table.row(vec![
                policy.label().to_string(),
                format!("{:.3}", stats.mean_response_secs()),
                format!("{:.2}", stats.response_quantile_secs(0.95)),
                format!("{:.1}%", stats.drop_rate() * 100.0),
                format!("{:.1}%", stats.redirect_rate() * 100.0),
                format!("{:.1}%", stats.cache_hit_ratio() * 100.0),
            ]);
        }
        println!("{}", table.render());
        return;
    }
    let (n, stats) = run_stats(&a, a.policy);

    println!(
        "swebsim: {} x{} nodes, {} policy, {} rps x {}s, {} x {} bytes",
        a.testbed, n, a.policy, a.rps, a.duration_s, a.files, a.file_size
    );
    println!();
    println!("offered:      {}", stats.offered);
    println!("completed:    {} ({:.1}% dropped)", stats.completed, stats.drop_rate() * 100.0);
    println!("mean resp:    {:.3} s", stats.mean_response_secs());
    println!("p50/p95/p99:  {:.2} / {:.2} / {:.2} s",
        stats.response_quantile_secs(0.50),
        stats.response_quantile_secs(0.95),
        stats.response_quantile_secs(0.99));
    println!("redirected:   {:.1}%", stats.redirect_rate() * 100.0);
    println!("cache hits:   {:.1}%", stats.cache_hit_ratio() * 100.0);
    println!("cpu util:     {:.1}%", stats.mean_cpu_utilization() * 100.0);
    println!("disk util:    {:.1}%", stats.mean_disk_utilization() * 100.0);
    println!();
    println!("node  arrived  served  redirected  refused  cpu-busy  disk-busy");
    for (i, node) in stats.nodes.iter().enumerate() {
        println!(
            "{:<5} {:>7}  {:>6}  {:>10}  {:>7}  {:>7.1}s  {:>8.1}s",
            i, node.arrived, node.served, node.redirected_away, node.refused,
            node.cpu_busy_secs, node.disk_busy_secs
        );
    }
    println!();
    println!("response/s:   {}", stats.timeline.response_sparkline());
    println!("throughput/s: {}", stats.timeline.throughput_sparkline());
}
