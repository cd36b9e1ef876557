//! The benchmark's declared surface: metric names, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root says the
//! same, and a unit test keeps the two from drifting apart.

/// Seconds one run's timed windows cover together (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    /// Unused for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// What a user of the server sees. Definitions are in README.md.
///
/// This box runs 15-40% faster or slower for minutes at a time, so the
/// four metrics of speed and cost are ratios to the loopback floor
/// measured in the same run (`client::Floor`), which moves with the box.
/// Ten runs of one binary then spread (quartile distance over median) by
/// 0.01-0.10 where the plain req/s of the same runs spread by 0.08-0.17,
/// and by up to 0.46 on a worse day; README.md has the table.
pub const END_TO_END: [Metric; 6] = [
    e2e("rps_vs_floor", "ratio", "higher", 0.25),
    e2e("p50_vs_floor", "ratio", "lower", 0.25),
    e2e("p95_vs_floor", "ratio", "lower", 0.25),
    e2e("server_cpu_vs_floor", "ratio", "lower", 0.25),
    e2e("server_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer metrics from the traced run. Sources: C client span,
/// M `/metrics` delta, R layer replay, P `/proc`.
pub const PER_LAYER: [Metric; 55] = [
    // client (the benchmark itself): these locate a change.
    layer("client.connect_us", "us", "lower"),
    layer("client.ttfb_us", "us", "lower"),
    layer("client.body_us", "us", "lower"),
    layer("client.redirect_hop_us", "us", "lower"),
    layer("client.p999_ms", "ms", "lower"),
    layer("client.cpu_us_per_req", "us", "lower"),
    layer("client.ceiling_rps", "req/s", "higher"),
    layer("client.unexplained_share", "ratio", "lower"),
    // proc
    layer("proc.user_us_per_req", "us", "lower"),
    layer("proc.sys_us_per_req", "us", "lower"),
    layer("proc.ctx_switches_per_req", "count", "lower"),
    layer("proc.threads", "count", "lower"),
    // reactor
    layer("reactor.accept_us", "us", "lower"),
    layer("reactor.parse_us", "us", "lower"),
    layer("reactor.write_us", "us", "lower"),
    layer("reactor.syscalls_per_req", "count", "lower"),
    layer("reactor.zero_copy_share", "ratio", "higher"),
    layer("reactor.sendfile_share", "ratio", "higher"),
    layer("reactor.shed_count", "count", "lower"),
    layer("reactor.echo_rtt_us", "us", "lower"),
    layer("reactor.worker_handoff_us", "us", "lower"),
    layer("reactor.timer_ns", "ns", "lower"),
    layer("reactor.slab_ns", "ns", "lower"),
    // http
    layer("http.parse_ns", "ns", "lower"),
    layer("http.serialize_ns", "ns", "lower"),
    layer("http.body_copies_per_resp", "count", "lower"),
    // core
    layer("core.decide_ns_p3", "ns", "lower"),
    layer("core.decide_ns_p32", "ns", "lower"),
    layer("core.decide_ns_p128", "ns", "lower"),
    layer("core.oracle_ns", "ns", "lower"),
    layer("core.admit_ns", "ns", "lower"),
    layer("core.breaker_ns", "ns", "lower"),
    layer("core.loadtable_update_ns", "ns", "lower"),
    layer("core.redirect_share", "ratio", "lower"),
    layer("core.predict_err_pct", "%", "lower"),
    // server
    layer("server.decide_us", "us", "lower"),
    layer("server.fetch_us", "us", "lower"),
    layer("server.forward_us", "us", "lower"),
    layer("file_cache.hit_ns", "ns", "lower"),
    layer("file_cache.read_miss_us", "us", "lower"),
    layer("file_cache.hit_ratio", "ratio", "higher"),
    layer("dynamic.cache_get_ns", "ns", "lower"),
    layer("dynamic.canon_args_ns", "ns", "lower"),
    layer("dynamic.cache_hit_ratio", "ratio", "higher"),
    layer("dynamic.tcpu_us", "us", "lower"),
    layer("status.metrics_scrape_us", "us", "lower"),
    layer("status.status_json_us", "us", "lower"),
    // peer
    layer("peer.encode_ns", "ns", "lower"),
    layer("peer.decode_ns", "ns", "lower"),
    layer("peer.fetches_per_req", "count", "higher"),
    layer("peer.pushes_per_req", "count", "higher"),
    // telemetry
    layer("telemetry.hist_record_ns", "ns", "lower"),
    layer("telemetry.counter_inc_ns", "ns", "lower"),
    layer("telemetry.render_us", "us", "lower"),
    // trace
    layer("trace.overhead_share", "ratio", "lower"),
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The one JSON object that ends a `--workload` run: every metric of
/// `table`, in table order, with its value as measured.
pub fn result_line(
    table: &[Metric],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                .1;
            assert!(value.is_finite(), "metric {} is not a number: {value}", m.name);
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quoted(m.name), quoted(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;
    use std::collections::HashSet;

    /// The command the driver runs from the repository root; it appends
    /// `--workload … --seed … --seconds … --trace …`.
    const COMMAND: [&str; 7] =
        ["cargo", "run", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--"];

    /// The text of `BENCHMARK.json`.
    fn benchmark_json() -> String {
        let command: Vec<String> = COMMAND.iter().map(|c| quoted(c)).collect();
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better),
                    m.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            command.join(", "),
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n"),
        )
    }

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_respect_the_declared_limits() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_one_these_tables_print() {
        let path = crate::swebd::repo_root().join("BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, benchmark_json());
    }

    #[test]
    fn result_line_carries_every_metric_of_its_table() {
        let values: Vec<(&'static str, f64)> =
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, i as f64 + 0.5)).collect();
        let line = result_line(&END_TO_END, &values, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        assert!(result_line(&END_TO_END, &values, 10, 1).starts_with("{\"correct\": false"));
    }
}
