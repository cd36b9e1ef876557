//! `swebd` — run a live SWEB cluster from the command line.
//!
//! ```text
//! swebd --nodes 4 --docroot ./htdocs --policy sweb --port-base 8100
//! ```
//!
//! Starts `nodes` HTTP/1.0 servers on consecutive localhost ports (or
//! ephemeral ports when `--port-base` is omitted), wires their loadd
//! daemons together, prints each node's URL, and serves until killed.
//! `GET /sweb-status` on any node shows its view of the cluster.
//!
//! The flags are the whole configuration: [`parse_args`] maps them onto
//! a [`ClusterConfig`], and nothing else (no environment, no config
//! file) is consulted. Each node's reactor shards poll with epoll; there
//! is no other I/O backend.

use std::path::PathBuf;
use std::time::Duration;

use sweb_core::Policy;
use sweb_des::SimTime;
use sweb_server::{ClusterConfig, LiveCluster};

const USAGE: &str = "usage: swebd [--nodes N] [--docroot DIR] [--policy sweb|rr|locality|cpu] \
    [--shards N] [--port-base P] [--loadd-ms MS] [--access-log FILE] [--oracle FILE] \
    [--fault-plan FILE] [--overload on|off]";

/// A parsed command line: the cluster's configuration, what
/// [`LiveCluster::start`] takes beside it, and the files `main` loads
/// into the configuration.
struct Args {
    nodes: usize,
    docroot: PathBuf,
    cfg: ClusterConfig,
    access_log: Option<PathBuf>,
    oracle: Option<PathBuf>,
    fault_plan: Option<PathBuf>,
}

/// Why [`parse_args`] returned no command line to run.
#[derive(Debug, PartialEq)]
enum Stop {
    /// `--help`: print the usage and exit 0.
    Help,
    /// An unknown flag, a missing or bad value: print the usage, exit 2.
    Usage,
}

/// Map the flags onto a [`ClusterConfig`]. Without flags: 3 nodes
/// serving `.`, policy `Sweb`, the paper's 2.5 s loadd period with a
/// staleness timeout of four periods, and the [`ClusterConfig`] default
/// for everything else.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
    fn number<T: std::str::FromStr>(v: String) -> Result<T, Stop> {
        v.parse().map_err(|_| Stop::Usage)
    }
    let mut args = Args {
        nodes: 3,
        docroot: PathBuf::from("."),
        cfg: ClusterConfig::default(),
        access_log: None,
        oracle: None,
        fault_plan: None,
    };
    let mut loadd_ms: u64 = 2500;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(Stop::Usage);
        match flag.as_str() {
            "--nodes" => args.nodes = number(value()?)?,
            "--docroot" => args.docroot = value()?.into(),
            "--policy" => {
                args.cfg.policy = match value()?.as_str() {
                    "sweb" => Policy::Sweb,
                    "rr" | "round-robin" => Policy::RoundRobin,
                    "locality" => Policy::FileLocality,
                    "cpu" => Policy::LeastLoadedCpu,
                    _ => return Err(Stop::Usage),
                }
            }
            "--shards" => args.cfg.shards = number(value()?)?,
            "--port-base" => args.cfg.port_base = Some(number(value()?)?),
            "--loadd-ms" => loadd_ms = number(value()?)?,
            "--access-log" => args.access_log = Some(value()?.into()),
            "--oracle" => args.oracle = Some(value()?.into()),
            "--fault-plan" => args.fault_plan = Some(value()?.into()),
            "--overload" => {
                args.cfg.overload_control = match value()?.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err(Stop::Usage),
                }
            }
            "--help" | "-h" => return Err(Stop::Help),
            _ => return Err(Stop::Usage),
        }
    }
    // No nodes is no cluster; a zero loadd period would broadcast on
    // every loop turn and mark every peer Dead at once.
    if args.nodes == 0 || loadd_ms == 0 {
        return Err(Stop::Usage);
    }
    args.cfg.sweb.loadd_period = SimTime::from_millis(loadd_ms);
    args.cfg.sweb.stale_timeout = SimTime::from_millis(loadd_ms * 4);
    Ok(args)
}

fn main() {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(Stop::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(Stop::Usage) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if !args.docroot.is_dir() {
        eprintln!("swebd: docroot {:?} is not a directory", args.docroot);
        std::process::exit(1);
    }
    if let Some(path) = &args.oracle {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("swebd: cannot read oracle config {path:?}: {e}");
            std::process::exit(1);
        });
        match sweb_core::Oracle::from_config_str(&text) {
            Ok(oracle) => args.cfg.oracle = oracle,
            Err(line) => {
                eprintln!("swebd: malformed oracle config {path:?} at line {line}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.access_log {
        match sweb_server::AccessLog::to_file(path) {
            Ok(log) => args.cfg.access_log = Some(log),
            Err(e) => {
                eprintln!("swebd: cannot open access log {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.fault_plan {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("swebd: cannot read fault plan {path:?}: {e}");
            std::process::exit(1);
        });
        match sweb_server::FaultPlan::from_text(&text) {
            Ok(plan) => {
                eprintln!(
                    "swebd: CHAOS MODE — injecting {} fault(s) from {path:?} (seed {})",
                    plan.faults.len(),
                    plan.seed
                );
                args.cfg.fault_plan = Some(plan);
            }
            Err(e) => {
                eprintln!("swebd: malformed fault plan {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }

    let policy = args.cfg.policy;
    let shards_desc = match args.cfg.shards {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    let cluster = match LiveCluster::start(args.nodes, args.docroot.clone(), args.cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("swebd: failed to start cluster: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "swebd: {}-node SWEB cluster, policy {:?}, shards {}, docroot {:?}",
        cluster.len(),
        policy,
        shards_desc,
        args.docroot
    );
    for i in 0..cluster.len() {
        println!("  node {i}: {}  (status: {}/sweb-status)", cluster.base_url(i), cluster.base_url(i));
    }
    if cluster.await_loadd_mesh(Duration::from_secs(10)) {
        println!("loadd mesh converged; serving (Ctrl-C to stop)");
    } else {
        println!("warning: loadd mesh did not converge within 10s; serving anyway");
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, Stop> {
        parse_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn no_flags_give_the_benchmarks_cluster() {
        // `benchmark/` spawns `swebd --nodes N --docroot DIR` and measures
        // exactly this configuration.
        let args = parse(&["--nodes", "3", "--docroot", "/srv/www"]).unwrap();
        assert_eq!(args.nodes, 3);
        assert_eq!(args.docroot, PathBuf::from("/srv/www"));
        let cfg = args.cfg;
        assert_eq!(cfg.policy, Policy::Sweb);
        assert_eq!(cfg.sweb.loadd_period, SimTime::from_millis(2_500));
        assert_eq!(cfg.sweb.stale_timeout, SimTime::from_millis(10_000));
        assert_eq!(cfg.shards, 0, "auto shards");
        assert!(cfg.overload_control);
        assert_eq!(cfg.port_base, None);
        assert!(cfg.fault_plan.is_none() && cfg.access_log.is_none());
        // Everything the flags do not name is the library default.
        let plain = ClusterConfig::default();
        assert_eq!(cfg.max_conns, plain.max_conns);
        assert_eq!(cfg.request_budget, plain.request_budget);
        assert_eq!(cfg.sweb.cache_aware_cost, plain.sweb.cache_aware_cost);
        assert_eq!(parse(&[]).unwrap().nodes, 3);
    }

    #[test]
    fn loadd_ms_sets_the_period_and_four_periods_of_staleness() {
        let cfg = parse(&["--loadd-ms", "150"]).unwrap().cfg;
        assert_eq!(cfg.sweb.loadd_period, SimTime::from_millis(150));
        assert_eq!(cfg.sweb.stale_timeout, SimTime::from_millis(600));
    }

    #[test]
    fn each_flag_sets_its_field() {
        let cfg = parse(&[
            "--shards",
            "2",
            "--policy",
            "locality",
            "--overload",
            "off",
            "--port-base",
            "9000",
        ])
        .unwrap()
        .cfg;
        assert_eq!(cfg.shards, 2);
        assert_eq!(cfg.policy, Policy::FileLocality);
        assert!(!cfg.overload_control);
        assert_eq!(cfg.port_base, Some(9000));
        for (name, policy) in [("rr", Policy::RoundRobin), ("cpu", Policy::LeastLoadedCpu)] {
            assert_eq!(parse(&["--policy", name]).unwrap().cfg.policy, policy);
        }
    }

    #[test]
    fn bad_flags_are_usage_errors_and_help_is_not() {
        assert_eq!(parse(&["--help"]).err(), Some(Stop::Help));
        for flags in [
            &["--nodes", "0"][..],
            &["--loadd-ms", "0"][..],
            &["--nodes"][..],
            &["--nodes", "three"][..],
            &["--policy", "random"][..],
            &["--overload", "maybe"][..],
            &["--port-base", "65536"][..],
            &["--bogus"][..],
        ] {
            assert_eq!(parse(flags).err(), Some(Stop::Usage), "{flags:?}");
        }
    }

    #[test]
    fn the_peer_channel_flags_are_gone_not_ignored() {
        // No node pulls or pushes documents any more: asking for it is a
        // usage error, not a cluster that silently runs without it.
        for flag in ["--peer-transfer", "--replicate-hot"] {
            assert_eq!(parse(&[flag]).err(), Some(Stop::Usage), "{flag}");
            assert_eq!(parse(&["--nodes", "3", flag]).err(), Some(Stop::Usage), "{flag}");
        }
        assert!(!USAGE.contains("--peer-transfer") && !USAGE.contains("--replicate-hot"));
    }

    #[test]
    fn a_port_range_past_65535_does_not_start() {
        let args = parse(&["--port-base", "65535", "--nodes", "2"]).unwrap();
        let err = LiveCluster::start(args.nodes, std::env::temp_dir(), args.cfg).err().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
