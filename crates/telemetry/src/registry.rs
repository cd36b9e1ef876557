//! The metric registry: named handles plus Prometheus text exposition.
//!
//! Registration is the only locking operation (a `Mutex<Vec<_>>` push at
//! node construction); the returned `Arc` handles are incremented
//! lock-free from connection threads and the reactor loop. Metric names
//! follow the `sweb_<subsystem>_<what>[_total]` convention, lowercase
//! `[a-z_]` only, so every exposition line matches
//! `^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::AtomicHistogram;
use crate::sharded::{ShardedCounter, ShardedGauge};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value read at scrape time, for numbers a subsystem already keeps in
/// its own atomics (a cache's hit count, a controller's level).
struct Reader(Box<dyn Fn() -> u64 + Send + Sync>);

impl std::fmt::Debug for Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reader")
    }
}

/// What kind of handle a registry entry points at.
#[derive(Debug)]
enum Handle {
    Counter(Arc<Counter>),
    ShardedCounter(Arc<ShardedCounter>),
    ShardedGauge(Arc<ShardedGauge>),
    Histogram(Arc<AtomicHistogram>),
    /// A counter (`counter: true`) or gauge whose value a closure reads.
    Read { counter: bool, read: Reader },
}

impl Handle {
    /// The one value of a counter or gauge; `None` for a histogram.
    fn scalar(&self) -> Option<i64> {
        Some(match self {
            Handle::Counter(c) => c.get() as i64,
            Handle::ShardedCounter(c) => c.get() as i64,
            Handle::ShardedGauge(g) => g.get(),
            Handle::Read { read, .. } => (read.0)() as i64,
            Handle::Histogram(_) => return None,
        })
    }
}

/// One registered metric: name, label pairs, help text, live handle.
#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    handle: Handle,
}

/// A set of named metrics with a Prometheus-style text exposition.
///
/// ```
/// use sweb_telemetry::Registry;
/// let reg = Registry::new();
/// let served = reg.counter("sweb_requests_served_total", &[], "Requests fulfilled locally");
/// served.inc();
/// let text = reg.render_prometheus();
/// assert!(text.contains("sweb_requests_served_total 1"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a counter; later registrations of the same (name, labels)
    /// produce additional series under one HELP/TYPE header.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.push(name, labels, help, Handle::Counter(Arc::clone(&c)));
        c
    }

    /// Register a shard-local counter with `cells` per-shard cells. The
    /// exposition renders one series carrying the summed value, so sharded
    /// and plain counters are indistinguishable to scrapers.
    pub fn sharded_counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        cells: usize,
    ) -> Arc<ShardedCounter> {
        let c = Arc::new(ShardedCounter::new(cells));
        self.push(name, labels, help, Handle::ShardedCounter(Arc::clone(&c)));
        c
    }

    /// Register a shard-local gauge with `cells` per-shard cells (summed
    /// into one exposition series, like [`Registry::sharded_counter`]).
    pub fn sharded_gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        cells: usize,
    ) -> Arc<ShardedGauge> {
        let g = Arc::new(ShardedGauge::new(cells));
        self.push(name, labels, help, Handle::ShardedGauge(Arc::clone(&g)));
        g
    }

    /// Register a histogram over the standard log-scale bucket ladder.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<AtomicHistogram> {
        self.sharded_histogram(name, labels, help, 1)
    }

    /// Register a histogram with `cells` per-shard cells, rendered as one
    /// series of summed counts, like [`Registry::sharded_counter`].
    pub fn sharded_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        cells: usize,
    ) -> Arc<AtomicHistogram> {
        let h = Arc::new(AtomicHistogram::with_cells(cells));
        self.push(name, labels, help, Handle::Histogram(Arc::clone(&h)));
        h
    }

    /// Register a counter whose value `read` returns at scrape time.
    pub fn counter_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let read = Reader(Box::new(read));
        self.push(name, labels, help, Handle::Read { counter: true, read });
    }

    /// Register a (non-negative) gauge whose value `read` returns at
    /// scrape time.
    pub fn gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let read = Reader(Box::new(read));
        self.push(name, labels, help, Handle::Read { counter: false, read });
    }

    fn push(&self, name: &str, labels: &[(&str, &str)], help: &str, handle: Handle) {
        debug_assert!(
            name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
            "metric names are lowercase [a-z_]: {name}"
        );
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).push(Entry {
            name: name.to_string(),
            labels: labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            help: help.to_string(),
            handle,
        });
    }

    /// Every counter and gauge as `(series key, value)`, in registration
    /// order; histograms are left out. The key is the series as
    /// [`Registry::render_prometheus`] prints it, `name{k="v",...}`.
    pub fn scalars(&self) -> Vec<(String, i64)> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries
            .iter()
            .filter_map(|e| Some((series_key(&e.name, &e.labels, None), e.handle.scalar()?)))
            .collect()
    }

    /// Prometheus text exposition (format version 0.0.4): `# HELP` and
    /// `# TYPE` once per metric name, then one `name{labels} value` line
    /// per series. Histograms expose cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::with_capacity(4096);
        let mut described: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if !described.contains(&e.name.as_str()) {
                described.push(&e.name);
                let ty = match e.handle {
                    Handle::Counter(_)
                    | Handle::ShardedCounter(_)
                    | Handle::Read { counter: true, .. } => "counter",
                    Handle::Histogram(_) => "histogram",
                    _ => "gauge",
                };
                out.push_str(&format!("# HELP {} {}\n# TYPE {} {}\n", e.name, e.help, e.name, ty));
            }
            match &e.handle {
                Handle::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in h.snapshot() {
                        cumulative += count;
                        let le = match bound {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&series_line(
                            &format!("{}_bucket", e.name),
                            &e.labels,
                            Some(("le", &le)),
                            &cumulative.to_string(),
                        ));
                    }
                    out.push_str(&series_line(
                        &format!("{}_sum", e.name),
                        &e.labels,
                        None,
                        &h.sum().to_string(),
                    ));
                    out.push_str(&series_line(
                        &format!("{}_count", e.name),
                        &e.labels,
                        None,
                        &h.count().to_string(),
                    ));
                }
                _ => {
                    let value = e.handle.scalar().unwrap_or_default();
                    out.push_str(&series_line(&e.name, &e.labels, None, &value.to_string()));
                }
            }
        }
        out
    }
}

/// A series as the exposition names it: `name{k="v",...}`, or the bare
/// name when label-free.
fn series_key(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", pairs.join(","))
    }
}

/// One exposition line: the series key, a space, the value.
fn series_line(
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) -> String {
    format!("{} {value}\n", series_key(name, labels, extra))
}

/// Whether one exposition line is well-formed: a comment, or
/// `^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$` — the shape the CI smoke job
/// enforces with grep. Exported so integration tests share one validator.
pub fn line_is_well_formed(line: &str) -> bool {
    if line.starts_with('#') {
        return true;
    }
    let (series, value) = match line.rsplit_once(' ') {
        Some(parts) => parts,
        None => return false,
    };
    let name_end = series.find('{').unwrap_or(series.len());
    let name = &series[..name_end];
    if name.is_empty() || !name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
        return false;
    }
    let labels_ok = match series[name_end..].len() {
        0 => true,
        _ => {
            series[name_end..].starts_with('{')
                && series.ends_with('}')
                && !series[name_end + 1..series.len() - 1].contains('}')
        }
    };
    let value_ok = !value.is_empty()
        && value
            .bytes()
            .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'));
    labels_ok && value_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_lock_free_after_registration() {
        let reg = Registry::new();
        let c = reg.counter("sweb_test_total", &[], "test");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4_000);
    }

    /// Golden test: the exposition format is part of the API.
    #[test]
    fn prometheus_exposition_golden() {
        let reg = Registry::new();
        let served = reg.counter("sweb_requests_served_total", &[], "Requests fulfilled locally");
        served.add(7);
        reg.gauge_fn("sweb_active_requests", &[], "Requests in flight", || 3);
        let h = reg.histogram(
            "sweb_request_phase_us",
            &[("phase", "parse")],
            "Per-phase latency, microseconds",
        );
        h.record(3); // ≤ 4
        h.record(100); // ≤ 256
        let text = reg.render_prometheus();
        let expected = "\
# HELP sweb_requests_served_total Requests fulfilled locally
# TYPE sweb_requests_served_total counter
sweb_requests_served_total 7
# HELP sweb_active_requests Requests in flight
# TYPE sweb_active_requests gauge
sweb_active_requests 3
# HELP sweb_request_phase_us Per-phase latency, microseconds
# TYPE sweb_request_phase_us histogram
sweb_request_phase_us_bucket{phase=\"parse\",le=\"1\"} 0
sweb_request_phase_us_bucket{phase=\"parse\",le=\"4\"} 1
sweb_request_phase_us_bucket{phase=\"parse\",le=\"16\"} 1
sweb_request_phase_us_bucket{phase=\"parse\",le=\"64\"} 1
sweb_request_phase_us_bucket{phase=\"parse\",le=\"256\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"1024\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"4096\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"16384\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"65536\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"262144\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"1048576\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"4194304\"} 2
sweb_request_phase_us_bucket{phase=\"parse\",le=\"+Inf\"} 2
sweb_request_phase_us_sum{phase=\"parse\"} 103
sweb_request_phase_us_count{phase=\"parse\"} 2
";
        assert_eq!(text, expected);
        assert!(text.lines().all(line_is_well_formed), "{text}");
    }

    #[test]
    fn help_and_type_emitted_once_per_name() {
        let reg = Registry::new();
        reg.counter("sweb_multi_total", &[("kind", "a")], "multi");
        reg.counter("sweb_multi_total", &[("kind", "b")], "multi");
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# HELP sweb_multi_total").count(), 1);
        assert_eq!(text.matches("# TYPE sweb_multi_total").count(), 1);
        assert!(text.contains("sweb_multi_total{kind=\"a\"} 0"));
        assert!(text.contains("sweb_multi_total{kind=\"b\"} 0"));
    }

    #[test]
    fn line_validator_matches_the_ci_regex() {
        assert!(line_is_well_formed("sweb_requests_served_total 7"));
        assert!(line_is_well_formed("sweb_x_bucket{le=\"+Inf\"} 2"));
        assert!(line_is_well_formed("# HELP anything at all"));
        assert!(!line_is_well_formed("Bad_Name 1"));
        assert!(!line_is_well_formed("sweb_no_value"));
        assert!(!line_is_well_formed("sweb_bad_value x7"));
    }

    #[test]
    fn sharded_handles_render_as_single_summed_series() {
        let reg = Registry::new();
        let c = reg.sharded_counter("sweb_sharded_total", &[], "sharded", 4);
        let g = reg.sharded_gauge("sweb_sharded_active", &[], "sharded", 4);
        c.inc_at(0);
        c.add_at(3, 6);
        g.inc_at(1);
        g.inc_at(2);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sweb_sharded_total counter"), "{text}");
        assert!(text.contains("sweb_sharded_total 7"), "{text}");
        assert!(text.contains("# TYPE sweb_sharded_active gauge"), "{text}");
        assert!(text.contains("sweb_sharded_active 2"), "{text}");
        assert!(text.lines().all(line_is_well_formed), "{text}");
        assert_eq!(reg.scalars(), [("sweb_sharded_total".into(), 7), ("sweb_sharded_active".into(), 2)]);
    }

    #[test]
    fn readers_render_and_scalars_list_what_the_exposition_prints() {
        let reg = Registry::new();
        reg.counter("sweb_a_total", &[("k", "v")], "a").add(2);
        reg.histogram("sweb_b_us", &[], "b").record(5);
        let level = Arc::new(AtomicU64::new(0));
        let read = Arc::clone(&level);
        reg.gauge_fn("sweb_level", &[], "level", move || read.load(Ordering::Relaxed));
        reg.counter_fn("sweb_read_total", &[], "read", || 9);
        level.store(4, Ordering::Relaxed);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sweb_level gauge\nsweb_level 4\n"), "{text}");
        assert!(text.contains("# TYPE sweb_read_total counter\nsweb_read_total 9\n"), "{text}");
        let scalars = reg.scalars();
        let keys: Vec<&str> = scalars.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["sweb_a_total{k=\"v\"}", "sweb_level", "sweb_read_total"]);
        for (key, value) in &scalars {
            assert!(text.lines().any(|l| l == format!("{key} {value}")), "{key}: {text}");
        }
    }
}
