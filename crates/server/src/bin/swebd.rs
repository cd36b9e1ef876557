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
//! Configuration resolves through [`sweb_server::ServerOptions`]:
//! **CLI flags > environment > defaults.** The env-overridable knobs are
//! `SWEB_SHARDS`, `SWEB_PEER_TRANSFER`, `SWEB_REPLICATE_HOT` and
//! `SWEB_OVERLOAD`; their flags always win when given. Each node's
//! reactor shards poll with epoll; there is no other I/O backend.

use std::time::Duration;

use sweb_core::Policy;
use sweb_server::{LiveCluster, ServerOptions};

struct Args {
    nodes: usize,
    docroot: std::path::PathBuf,
    policy: Policy,
    port_base: Option<u16>,
    loadd_ms: u64,
    access_log: Option<std::path::PathBuf>,
    oracle: Option<std::path::PathBuf>,
    fault_plan: Option<std::path::PathBuf>,
    shards: Option<usize>,
    peer_transfer: bool,
    replicate_hot: bool,
    overload: Option<bool>,
}

fn usage() -> ! {
    eprintln!(
        "usage: swebd [--nodes N] [--docroot DIR] [--policy sweb|rr|locality|cpu] [--shards N] \
         [--port-base P] [--loadd-ms MS] [--access-log FILE] [--oracle FILE] \
         [--fault-plan FILE] [--peer-transfer] [--replicate-hot] [--overload on|off]\n\
         env: SWEB_SHARDS, SWEB_PEER_TRANSFER, SWEB_REPLICATE_HOT, SWEB_OVERLOAD \
         (flags win over env)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 3,
        docroot: std::path::PathBuf::from("."),
        policy: Policy::Sweb,
        port_base: None,
        loadd_ms: 2500,
        access_log: None,
        oracle: None,
        fault_plan: None,
        shards: None,
        peer_transfer: false,
        replicate_hot: false,
        overload: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--nodes" => args.nodes = value().parse().unwrap_or_else(|_| usage()),
            "--docroot" => args.docroot = value().into(),
            "--policy" => {
                args.policy = match value().as_str() {
                    "sweb" => Policy::Sweb,
                    "rr" | "round-robin" => Policy::RoundRobin,
                    "locality" => Policy::FileLocality,
                    "cpu" => Policy::LeastLoadedCpu,
                    _ => usage(),
                }
            }
            "--shards" => args.shards = Some(value().parse().unwrap_or_else(|_| usage())),
            "--port-base" => args.port_base = Some(value().parse().unwrap_or_else(|_| usage())),
            "--loadd-ms" => args.loadd_ms = value().parse().unwrap_or_else(|_| usage()),
            "--access-log" => args.access_log = Some(value().into()),
            "--oracle" => args.oracle = Some(value().into()),
            "--fault-plan" => args.fault_plan = Some(value().into()),
            "--peer-transfer" => args.peer_transfer = true,
            "--replicate-hot" => args.replicate_hot = true,
            "--overload" => {
                args.overload = Some(match value().as_str() {
                    "on" => true,
                    "off" => false,
                    _ => usage(),
                })
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if !args.docroot.is_dir() {
        eprintln!("swebd: docroot {:?} is not a directory", args.docroot);
        std::process::exit(1);
    }
    // CLI tier: only flags the user actually passed become explicit
    // settings, so the environment keeps its say over everything else.
    let mut opts = ServerOptions::new().policy(args.policy).loadd_ms(args.loadd_ms);
    if let Some(shards) = args.shards {
        opts = opts.shards(shards);
    }
    if args.peer_transfer {
        opts = opts.peer_transfer(true);
    }
    if args.replicate_hot {
        opts = opts.replicate_hot(true);
    }
    if let Some(on) = args.overload {
        opts = opts.overload_control(on);
    }
    if let Some(port) = args.port_base {
        opts = opts.port_base(port);
    }
    if let Some(path) = &args.oracle {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("swebd: cannot read oracle config {path:?}: {e}");
            std::process::exit(1);
        });
        match sweb_core::Oracle::from_config_str(&text) {
            Ok(oracle) => opts = opts.oracle(oracle),
            Err(line) => {
                eprintln!("swebd: malformed oracle config {path:?} at line {line}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.access_log {
        match sweb_server::AccessLog::to_file(path) {
            Ok(log) => opts = opts.access_log(log),
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
                opts = opts.fault_plan(Some(plan));
            }
            Err(e) => {
                eprintln!("swebd: malformed fault plan {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }

    let cfg = opts.build();
    let shards_desc = match cfg.shards {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    let cluster = match LiveCluster::start(args.nodes, args.docroot.clone(), cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("swebd: failed to start cluster: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "swebd: {}-node SWEB cluster, policy {:?}, shards {}, docroot {:?}",
        cluster.len(),
        args.policy,
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
