//! The SWEB benchmark. See README.md.
//!
//! ```text
//! sweb-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! sweb-benchmark [--seed N] [--seconds S]                          one set, then the traced run
//! sweb-benchmark --check [--seed N] [--seconds S]                  two sides of three sets, compared
//! ```

mod client;
mod contract;
mod gen;
mod probe;
mod replay;
mod run;
mod stats;
mod swebd;
mod trace;

use std::io;
use std::path::Path;
use std::process::ExitCode;

use contract::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use gen::{Spec, WORKLOADS};
use run::RunResult;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweb-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args =
        Args { workload: None, seed: 1, seconds: RUN_SECONDS as f64, trace: false, check: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(gen::workload(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--check" => args.check = true,
            _ => usage(),
        }
    }
    // Each of a timed run's blocks must hold whole periods of swebd and floor.
    if !(args.seconds >= 2.0 && args.seconds <= 60.0) {
        usage();
    }
    args
}

/// Generate, run and report one workload. Returns the result and its JSON
/// line, which also lands in `out/`.
fn one_run(
    bin: &Path,
    spec: &'static Spec,
    args: &Args,
    traced: bool,
) -> io::Result<(RunResult, String)> {
    let p = run::prepare(spec, args.seed)?;
    println!(
        "{} seed {} workload_hash {:016x} ({}, loopback, closed loop, {} clients)",
        spec.name,
        args.seed,
        p.hash,
        if traced { "traced run" } else { "timed blocks, tracing off" },
        gen::CLIENTS
    );
    println!("  why: {}", spec.why);
    let (table, result): (&[Metric], _) = if traced {
        (&PER_LAYER, run::traced_run(bin, &p, args.seconds)?)
    } else {
        (&END_TO_END, run::timed_run(bin, &p, args.seconds)?)
    };
    run::print_values(table, &result);
    let line = contract::result_line(table, &result.values, result.attempted, result.failed);
    let file = format!("result-{}-trace{}.json", spec.name, u8::from(traced));
    std::fs::write(swebd::out_dir().join(file), format!("{line}\n"))?;
    Ok((result, line))
}

/// One set: every workload's timed window, in the declared order.
fn one_set(bin: &Path, args: &Args) -> io::Result<Vec<RunResult>> {
    WORKLOADS.iter().map(|spec| Ok(one_run(bin, spec, args, false)?.0)).collect()
}

/// Sets on each side of `--check`.
const CHECK_SETS: usize = 3;

/// Two sides of [`CHECK_SETS`] sets each, of the same code, alternating so
/// that the host's drift falls on both alike; fails when the two medians of
/// any end-to-end metric on any workload differ by more than its bound.
fn check(bin: &Path, args: &Args) -> io::Result<bool> {
    let mut sides: [Vec<Vec<RunResult>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * CHECK_SETS {
        sides[i % 2].push(one_set(bin, args)?);
    }
    let mut within = sides.iter().flatten().flatten().all(|r| r.failed == 0);
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "side 1", "side 2", "diff", "bound"
    );
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (k, m) in END_TO_END.iter().enumerate() {
            let [x, y] = [&sides[0], &sides[1]].map(|side| {
                stats::median(&side.iter().map(|set| set[w].values[k].1).collect::<Vec<_>>())
            });
            let diff = (x - y).abs() / x.min(y);
            let ok = diff <= m.bound;
            within &= ok;
            println!(
                "{:<18} {:<22} {x:>14.4} {y:>14.4} {:>7.1}% {:>5.0}%{}",
                spec.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = swebd::build().and_then(|bin| {
        std::fs::create_dir_all(swebd::out_dir())?;
        if args.check {
            return check(&bin, &args);
        }
        if let Some(spec) = args.workload {
            // The driver reads the last line of stdout.
            println!("{}", one_run(&bin, spec, &args, args.trace)?.1);
            return Ok(true);
        }
        let mut failed = one_set(&bin, &args)?.iter().map(|r| r.failed).sum::<u64>();
        for spec in &WORKLOADS {
            failed += one_run(&bin, spec, &args, true)?.0.failed;
        }
        Ok(failed == 0)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sweb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
