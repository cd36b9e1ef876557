//! Regenerate every table and figure of the SWEB paper (§4).
//!
//! ```text
//! cargo run --release -p sweb-bench --bin reproduce              # everything
//! cargo run --release -p sweb-bench --bin reproduce -- table3    # one table
//! cargo run --release -p sweb-bench --bin reproduce -- quick     # fast pass
//! cargo run --release -p sweb-bench --bin reproduce -- --csv out # + CSVs
//! cargo run --release -p sweb-bench --bin reproduce -- --md results.md
//! ```

use std::path::PathBuf;
use std::time::Instant;

use sweb_metrics::TextTable;
use sweb_sim::experiments::{self, Scale};

/// Every selector this binary answers to, in output order (`overhead` is
/// `table5` under its §4.3 name). No selector means all of them; any other
/// argument besides `quick` and the flags is a usage error.
const SELECTORS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "overhead",
    "skewed",
    "analytic",
    "eastcoast",
    "figure1",
    "dnsttl",
    "forwarding",
    "scaling",
    "zipf",
    "failover",
    "dispatcher",
    "warmup",
    "ablations",
];

struct Reporter {
    t0: Instant,
    csv_dir: Option<PathBuf>,
    md: std::cell::RefCell<String>,
    md_path: Option<PathBuf>,
}

impl Reporter {
    fn emit(&self, name: &str, table: &TextTable) {
        self.emit_text(name, &table.render());
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("warning: cannot write {path:?}: {e}");
            }
        }
        if self.md_path.is_some() {
            self.md.borrow_mut().push_str(&table.to_markdown());
        }
    }

    fn emit_text(&self, name: &str, rendered: &str) {
        println!("[{name}] (t+{:.1}s)", self.t0.elapsed().as_secs_f64());
        println!("{rendered}");
    }

    /// Non-tabular output (traces, sparklines) goes into the report as a
    /// fenced code block.
    fn emit_block(&self, name: &str, rendered: &str) {
        self.emit_text(name, rendered);
        if self.md_path.is_some() {
            self.md
                .borrow_mut()
                .push_str(&format!("### {name}\n\n```text\n{rendered}\n```\n\n"));
        }
    }

    fn finish(&self) {
        if let Some(path) = &self.md_path {
            let mut doc = String::from("# SWEB reproduction — generated results\n\n");
            doc.push_str(&self.md.borrow());
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("warning: cannot write {path:?}: {e}");
            } else {
                println!("markdown report written to {path:?}");
            }
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "quick") { Scale::Quick } else { Scale::Full };
    let mut take_flag = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            let v = PathBuf::from(args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            }));
            args.drain(i..=i + 1);
            v
        })
    };
    let csv_dir = take_flag("--csv");
    let md_path = take_flag("--md");
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir:?}: {e}");
            std::process::exit(1);
        }
    }
    let selectors: Vec<&str> = args.iter().map(String::as_str).filter(|&a| a != "quick").collect();
    if let Some(unknown) = selectors.iter().find(|a| !SELECTORS.contains(a)) {
        eprintln!("reproduce: unknown selector {unknown:?}; known: quick {}", SELECTORS.join(" "));
        std::process::exit(2);
    }
    let want = |name: &str| {
        assert!(SELECTORS.contains(&name), "selector {name:?} missing from SELECTORS");
        selectors.is_empty() || selectors.contains(&name)
    };

    let reporter = Reporter {
        t0: Instant::now(),
        csv_dir,
        md: std::cell::RefCell::new(String::new()),
        md_path,
    };
    println!("SWEB reproduction — regenerating the paper's evaluation ({scale:?} scale)\n");

    if want("table1") {
        let (_, table) = experiments::table1(scale);
        reporter.emit("table1", &table);
    }
    if want("table2") {
        let (_, table) = experiments::table2(scale);
        reporter.emit("table2", &table);
    }
    if want("table3") {
        let (_, table) = experiments::table3(scale);
        reporter.emit("table3", &table);
    }
    if want("table4") {
        let (_, table) = experiments::table4(scale);
        reporter.emit("table4", &table);
        let (_, control) = experiments::table4_meiko_control(scale);
        reporter.emit("table4-control", &control);
    }
    if want("table5") || want("overhead") {
        let (_, table) = experiments::overhead_breakdown(scale);
        reporter.emit("table5", &table);
    }
    if want("skewed") {
        let (_, table) = experiments::skewed_hotfile(scale);
        reporter.emit("skewed", &table);
    }
    if want("analytic") {
        let (_, table) = experiments::analytic_vs_simulated(scale);
        reporter.emit("analytic", &table);
    }
    if want("eastcoast") {
        let (_, table) = experiments::east_coast(scale);
        reporter.emit("eastcoast", &table);
    }
    if want("figure1") {
        reporter.emit_block("figure1", &experiments::figure1_trace());
    }
    if want("dnsttl") {
        let (_, table) = experiments::dns_ttl_sweep(scale);
        reporter.emit("dnsttl", &table);
    }
    if want("forwarding") {
        let (_, table) = experiments::forwarding_comparison(scale);
        // `forwarding.csv` is the live-cluster A/B kept as history
        // (EXPERIMENTS.md); the simulator's model-level comparison lands
        // beside it as `forwarding_model.csv`.
        reporter.emit("forwarding_model", &table);
    }
    if want("scaling") {
        let (_, table) = experiments::scaling_surface(scale);
        reporter.emit("scaling", &table);
    }
    if want("zipf") {
        let (_, table) = experiments::zipf_sweep(scale);
        reporter.emit("zipf", &table);
    }
    if want("failover") {
        let (_, table) = experiments::failover_sweep(scale);
        reporter.emit("failover", &table);
    }
    if want("dispatcher") {
        let (_, table) = experiments::centralized_dispatcher(scale);
        reporter.emit("dispatcher", &table);
    }
    if want("warmup") {
        let (timeline, rendered) = experiments::warmup_timeline(scale);
        reporter.emit_block("warmup", &rendered);
        if let Some(dir) = &reporter.csv_dir {
            let _ = std::fs::write(dir.join("warmup.csv"), timeline.to_csv());
        }
    }
    if want("ablations") {
        let (_, table) = experiments::ablations(scale);
        reporter.emit("ablations", &table);
    }

    reporter.finish();
    println!("done in {:.1}s", reporter.t0.elapsed().as_secs_f64());
}
