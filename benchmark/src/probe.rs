//! What the benchmark reads about swebd from outside it: `/proc/<pid>` and
//! the Prometheus text of `/metrics`.

use std::collections::HashMap;
use std::io;

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 on every
/// mainstream architecture.
pub const TICKS_PER_SEC: f64 = 100.0;

/// CPU time and thread count from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcStat {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub threads: u64,
}

impl ProcStat {
    /// CPU time in user and in kernel mode, µs.
    pub fn cpu_us(&self) -> [f64; 2] {
        [self.utime_ticks, self.stime_ticks].map(|ticks| ticks as f64 / TICKS_PER_SEC * 1e6)
    }
}

/// Parse `/proc/<pid>/stat`. The command name may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15,
    // num_threads 20.
    Some(ProcStat {
        utime_ticks: fields.get(11)?.parse().ok()?,
        stime_ticks: fields.get(12)?.parse().ok()?,
        threads: fields.get(17)?.parse().ok()?,
    })
}

/// A `Name:   value [kB]` line of `/proc/<pid>/status`.
pub fn status_field(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

pub fn read_stat(pid: u32) -> io::Result<ProcStat> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| io::Error::other("unparseable /proc stat"))
}

/// Peak resident set of the process, MB.
pub fn read_hwm_mb(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_field(&text, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Voluntary + involuntary context switches summed over every thread (the
/// process-level `status` file counts the main thread only).
pub fn read_ctx_switches(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between readdir and read.
        let Ok(text) = std::fs::read_to_string(task?.path().join("status")) else { continue };
        total += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok(total)
}

/// One scrape of `/metrics` (or several nodes' scrapes added together):
/// series text, labels included, to value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut series = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            // A label value may hold spaces; the sample value never does.
            if let Some((name, value)) = line.trim_end().rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(name.to_string(), v);
                }
            }
        }
        Scrape(series)
    }

    /// Fold another node's scrape into this one.
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// `self - before`, series by series.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0.iter().map(|(k, v)| (k.clone(), v - before.0.get(k).unwrap_or(&0.0))).collect(),
        )
    }

    /// One series, spelled exactly as rendered (`name{label="v"}`); 0 when
    /// absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Every series of metric `name`, whatever its labels, summed.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of a histogram: `_sum / _count` of the series carrying
    /// `labels` (`""` or `{phase="accept"}`), 0 with no observations.
    pub fn hist_mean(&self, name: &str, labels: &str) -> f64 {
        ratio(self.get(&format!("{name}_sum{labels}")), self.get(&format!("{name}_count{labels}")))
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_a_hostile_comm() {
        let line = "4242 (swebd (x) y) S 1 4242 4242 0 -1 4194560 2581 0 0 0 \
                    1234 567 0 0 20 0 25 0 8765432 123456789 4321 18446744073709551615";
        let s = parse_stat(line).unwrap();
        assert_eq!(s, ProcStat { utime_ticks: 1234, stime_ticks: 567, threads: 25 });
        assert_eq!(s.cpu_us(), [12_340_000.0, 5_670_000.0]);
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn status_parser_reads_kb_and_counters() {
        let text = "Name:\tswebd\nVmPeak:\t  999 kB\nVmHWM:\t   46712 kB\nThreads:\t25\n\
                    voluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t9\n";
        assert_eq!(status_field(text, "VmHWM"), Some(46712));
        assert_eq!(status_field(text, "Threads"), Some(25));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(812));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), Some(9));
        assert_eq!(status_field(text, "VmSwap"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        let pid = std::process::id();
        assert!(read_stat(pid).unwrap().threads >= 1);
        assert!(read_hwm_mb(pid).unwrap() > 0.0);
        read_ctx_switches(pid).unwrap();
    }

    const TEXT: &str = "# HELP sweb_requests_served_total Requests fulfilled locally\n\
        # TYPE sweb_requests_served_total counter\n\
        sweb_requests_served_total 40\n\
        sweb_admission_sheds_total{class=\"dynamic\"} 2\n\
        sweb_admission_sheds_total{class=\"static_miss\"} 3\n\
        sweb_request_phase_us_bucket{phase=\"accept\",le=\"+Inf\"} 5\n\
        sweb_request_phase_us_sum{phase=\"accept\"} 50\n\
        sweb_request_phase_us_count{phase=\"accept\"} 5\n\
        sweb_cost_error_pct_sum 396\n\
        sweb_cost_error_pct_count 4\n\
        sweb_odd{path=\"a b\"} 1.5\n";

    #[test]
    fn metrics_text_parser_handles_sum_count_and_labels() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.get("sweb_requests_served_total"), 40.0);
        assert_eq!(s.get("sweb_admission_sheds_total{class=\"dynamic\"}"), 2.0);
        assert_eq!(s.sum("sweb_admission_sheds_total"), 5.0);
        // A name that is a prefix of another metric's name is not summed in.
        assert_eq!(s.sum("sweb_request_phase_us"), 0.0);
        assert_eq!(s.hist_mean("sweb_request_phase_us", "{phase=\"accept\"}"), 10.0);
        assert_eq!(s.hist_mean("sweb_cost_error_pct", ""), 99.0);
        assert_eq!(s.hist_mean("sweb_missing", ""), 0.0);
        assert_eq!(s.get("sweb_odd{path=\"a b\"}"), 1.5);
    }

    #[test]
    fn scrapes_add_across_nodes_and_subtract_across_time() {
        let before = Scrape::parse("a 1\nb{x=\"1\"} 2\n");
        let mut after = Scrape::parse("a 4\nb{x=\"1\"} 2\nc 7\n");
        after.add(&Scrape::parse("a 10\n"));
        let delta = after.since(&before);
        assert_eq!(delta.get("a"), 13.0);
        assert_eq!(delta.get("b{x=\"1\"}"), 0.0);
        assert_eq!(delta.get("c"), 7.0);
    }
}
