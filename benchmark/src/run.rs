//! Running one workload: generate, spawn swebd, warm up, drive the closed
//! loop, and turn what was observed into the declared metrics.
//!
//! Traffic is loopback, closed-loop, [`gen::CLIENTS`] clients: each client
//! sends its next request when the previous reply is complete. In a timed
//! run the clients also measure, every fifth of a second, what the same
//! requests cost with no server at all ([`Floor`]), and the metrics of
//! speed and cost are reported as ratios to that: the box changes speed by
//! tens of percent for minutes at a time, and the floor changes with it.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::client::{self, Client, Floor, NullResponder, Sample, FAILED};
use crate::gen::{self, Manifest, Req, RequestGen, Spec};
use crate::probe::{self, ratio, Scrape};
use crate::stats::{mean, median, quantile_sorted};
use crate::swebd::{self, Swebd};
use crate::trace::{self, Span};
use crate::{contract, replay};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untimed closed-loop spin before a timed window, as a share of it.
const SPIN_SHARE: f64 = 0.1;
/// How a traced run divides its `--seconds`: the alternating windows, the
/// null-responder ceiling, the layer replay.
const TRACE_SHARES: [f64; 3] = [0.70, 0.10, 0.20];
/// Untraced/traced window pairs in a traced run.
const TRACE_PAIRS: usize = 7;
/// GETs of each admin endpoint behind the `status.*` medians.
const STATUS_PROBES: usize = 50;

/// A workload generated from a seed: docroot on disk, manifest in memory.
pub struct Prepared {
    pub spec: &'static Spec,
    pub seed: u64,
    pub manifest: Manifest,
    pub dir: PathBuf,
    pub docroot: PathBuf,
    pub hash: u64,
}

pub fn prepare(spec: &'static Spec, seed: u64) -> io::Result<Prepared> {
    let dir = swebd::out_dir().join(spec.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let (manifest, docroot) = Manifest::generate(spec, seed, &dir)?;
    let hash = gen::workload_hash(spec, seed, &manifest);
    Ok(Prepared { spec, seed, manifest, dir, docroot, hash })
}

/// A timed run is [`BLOCKS`] windows ("blocks") one after the other; each
/// metric measured against the floor is the median of the blocks' values,
/// so a stall of the box that falls into fewer than half of them is not
/// reported as the server's.
const BLOCKS: usize = 8;
/// Every [`PERIOD_MS`] of a window with a floor in it, the clients spend
/// the first [`SWEBD_MS`] on swebd and the rest on the loopback floor:
/// often enough that both see the box at the same speed.
const PERIOD_MS: u128 = 200;
const SWEBD_MS: u128 = 150;

/// What the clients did on one side (swebd, or the loopback floor) of a
/// window.
#[derive(Default)]
pub struct Side {
    samples: Vec<Sample>,
    /// Time spent on this side, added over the clients.
    busy_ns: u64,
}

impl Side {
    /// Time one client spent on this side: the clients are busy all the
    /// time, so this is the window's length on this side.
    fn seconds(&self) -> f64 {
        self.busy_ns as f64 / 1e9 / gen::CLIENTS as f64
    }

    fn completed(&self) -> f64 {
        self.samples.iter().filter(|s| s.lat_ns != FAILED).count() as f64
    }

    pub fn rps(&self) -> f64 {
        self.completed() / self.seconds()
    }

    fn bytes(&self) -> f64 {
        self.samples.iter().map(|s| s.bytes as f64).sum()
    }

    /// Mean verified body size, bytes.
    fn mean_body(&self) -> f64 {
        ratio(self.bytes(), self.completed())
    }

    /// Mean time of one completed exchange, ms: the floor's yardstick.
    fn mean_ms(&self) -> f64 {
        self.seconds() * 1e3 * gen::CLIENTS as f64 / self.completed()
    }

    /// The exact `q`-quantile of the latencies, ms. A failed request
    /// enters as [`FAILED`], beyond every successful one.
    fn quantile_ms(&self, q: f64) -> f64 {
        let mut lat: Vec<u64> = self.samples.iter().map(|s| s.lat_ns).collect();
        assert!(!lat.is_empty(), "no request completed inside the window");
        lat.sort_unstable();
        quantile_sorted(&lat, q) as f64 / 1e6
    }

    fn append(&mut self, other: &mut Side) {
        self.samples.append(&mut other.samples);
        self.busy_ns += other.busy_ns;
    }
}

/// Everything one closed-loop window observed.
#[derive(Default)]
pub struct Window {
    pub swebd: Side,
    /// Empty when the session has no floor.
    floor: Side,
    /// CPU time of the swebd process across the window, in user and in
    /// kernel mode, µs.
    user_us: f64,
    sys_us: f64,
    pub spans: Vec<Span>,
    /// The benchmark's own CPU time over the window, µs.
    client_cpu_us: f64,
}

impl Window {
    fn server_cpu_us_per_req(&self) -> f64 {
        ratio(self.user_us + self.sys_us, self.swebd.completed())
    }

    fn append(&mut self, other: &mut Window) {
        self.swebd.append(&mut other.swebd);
        self.floor.append(&mut other.floor);
        self.user_us += other.user_us;
        self.sys_us += other.sys_us;
        self.spans.append(&mut other.spans);
        self.client_cpu_us += other.client_cpu_us;
    }
}

/// Several windows of one session as one: samples, spans, time and CPU
/// time added together.
fn merged(windows: Vec<Window>) -> Window {
    let mut all = Window::default();
    for mut w in windows {
        all.append(&mut w);
    }
    all
}

/// One block's four numbers against its own floor: what swebd delivered
/// and what it cost, in units of what the kernel alone needed, on the same
/// box in the same seconds, for the same requests.
pub fn against_floor(block: &Window) -> [f64; 4] {
    let floor_ms = block.floor.mean_ms();
    [
        block.swebd.rps() / block.floor.rps(),
        block.swebd.quantile_ms(0.50) / floor_ms,
        block.swebd.quantile_ms(0.95) / floor_ms,
        block.server_cpu_us_per_req() / 1e3 / floor_ms,
    ]
}

struct Worker<'a> {
    client: Client<'a>,
    /// The loopback floor this worker measures between its requests.
    floor: Option<Floor<'a>>,
    gen: RequestGen,
}

/// The client side of one server lifetime: [`gen::CLIENTS`] workers whose
/// connections and request streams carry over from warm-up to window.
pub struct Session<'a> {
    p: &'a Prepared,
    workers: Vec<Worker<'a>>,
    /// Zero of every span time of this session.
    epoch: Instant,
}

impl<'a> Session<'a> {
    /// `canned` drives the null responder: framing is checked, bodies not.
    pub fn new(p: &'a Prepared, ports: &'a [u16], canned: bool) -> Session<'a> {
        let epoch = Instant::now();
        let workers = (0..gen::CLIENTS)
            .map(|i| Worker {
                client: Client::new(&p.manifest, ports, p.spec.dynamic, canned, i, epoch),
                floor: None,
                gen: RequestGen::new(p.spec, p.seed, i),
            })
            .collect();
        Session { p, workers, epoch }
    }

    /// Share every later window between swebd and the loopback floor,
    /// which gets the same request stream.
    pub fn with_floor(mut self) -> io::Result<Session<'a>> {
        for w in &mut self.workers {
            w.floor = Some(Floor::new(&self.p.manifest, self.p.spec.dynamic)?);
        }
        Ok(self)
    }

    /// The fixed warm-up pass: every static file once, then, for the
    /// dynamic mix, [`gen::DYNAMIC_WARMUP`] requests of the stream.
    pub fn warm_up(&mut self) {
        let (files, dynamic) = (self.p.manifest.files.len(), self.p.spec.dynamic);
        std::thread::scope(|s| {
            for (i, w) in self.workers.iter_mut().enumerate() {
                s.spawn(move || {
                    for rank in (i..files).step_by(gen::CLIENTS) {
                        w.client.run(Req::Get(rank));
                    }
                    if dynamic {
                        for _ in 0..gen::DYNAMIC_WARMUP / gen::CLIENTS {
                            w.client.run(w.gen.next_req());
                        }
                    }
                });
            }
        });
    }

    /// Drive the closed loop for `seconds`. `pid` names the swebd process,
    /// whose CPU time is read as the window starts and when its last
    /// request is complete.
    pub fn drive(&mut self, seconds: f64, pid: Option<u32>, traced: bool) -> Window {
        // User and kernel CPU time of a process so far, µs.
        let cpu = |pid: Option<u32>| {
            pid.and_then(|pid| probe::read_stat(pid).ok()).unwrap_or_default().cpu_us()
        };
        let own = || cpu(Some(std::process::id())).iter().sum::<f64>();
        let total = Duration::from_secs_f64(seconds);
        for w in &mut self.workers {
            w.client.tracing = traced;
        }
        let (own_before, before) = (own(), cpu(pid));
        let started = Instant::now();
        let sides: Vec<[Side; 2]> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .map(|w| {
                    s.spawn(move || {
                        let mut sides = [Side::default(), Side::default()];
                        let mut now = Instant::now();
                        loop {
                            let at = now.duration_since(started);
                            if at >= total {
                                break sides;
                            }
                            let req = w.gen.next_req();
                            let (side, sample) = match &mut w.floor {
                                Some(f) if at.as_millis() % PERIOD_MS >= SWEBD_MS => {
                                    (1, f.run(req))
                                }
                                _ => (0, w.client.run(req)),
                            };
                            let then = now;
                            now = Instant::now();
                            sides[side].samples.push(sample);
                            sides[side].busy_ns += now.duration_since(then).as_nanos() as u64;
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
        });
        let after = cpu(pid);
        let mut window = Window {
            user_us: after[0] - before[0],
            sys_us: after[1] - before[1],
            client_cpu_us: own() - own_before,
            ..Window::default()
        };
        for [mut swebd, mut floor] in sides {
            window.swebd.append(&mut swebd);
            window.floor.append(&mut floor);
        }
        for w in &mut self.workers {
            window.spans.append(&mut w.client.tracer.spans);
        }
        window
    }

    /// Requests issued and failed since the session began, warm-up included.
    pub fn counts(&self) -> (u64, u64) {
        self.workers.iter().fold((0, 0), |(a, f), w| {
            let r = w.floor.as_ref().map_or((0, 0), |f| (f.attempted, f.failed));
            (a + w.client.attempted + r.0, f + w.client.failed + r.1)
        })
    }
}

/// The outcome of one `--workload` run.
pub struct RunResult {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Start swebd on the prepared docroot and run the fixed warm-up pass.
/// Returns the server, how long start-up and warm-up took together, and
/// the warm-up's attempted and failed counts.
fn set_up(bin: &Path, p: &Prepared) -> io::Result<(Swebd, f64, (u64, u64))> {
    let started = Instant::now();
    let server = Swebd::spawn(bin, p.spec.nodes, &p.docroot)?;
    let mut session = Session::new(p, &server.ports, false);
    session.warm_up();
    let took = started.elapsed().as_secs_f64();
    let counts = session.counts();
    Ok((server, took, counts))
}

/// The end-to-end run (`--trace 0`): [`SETUPS`] start-ups, a spin, then
/// [`BLOCKS`] blocks of `seconds / BLOCKS` with tracing off.
pub fn timed_run(bin: &Path, p: &Prepared, seconds: f64) -> io::Result<RunResult> {
    let (mut attempted, mut failed) = (0, 0);
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        // Kill and reap the previous server before the next one starts.
        drop(server.take());
        let (started, took, counts) = set_up(bin, p)?;
        server = Some(started);
        setups.push(took);
        attempted += counts.0;
        failed += counts.1;
    }
    let server = server.expect("SETUPS is at least 1");
    let pid = Some(server.pid());
    let mut session = Session::new(p, &server.ports, false).with_floor()?;
    session.drive(seconds * SPIN_SHARE, None, false);
    let blocks: Vec<Window> =
        (0..BLOCKS).map(|_| session.drive(seconds / BLOCKS as f64, pid, false)).collect();
    let rss_mb = probe::read_hwm_mb(server.pid())?;
    let counts = session.counts();
    drop(session);
    drop(server);

    let per_block: Vec<[f64; 4]> = blocks.iter().map(against_floor).collect();
    let [rps, p50, p95, cpu] =
        [0, 1, 2, 3].map(|k| median(&per_block.iter().map(|b| b[k]).collect::<Vec<_>>()));
    // What the ratios were taken from, over the whole run, in plain units.
    let all = merged(blocks);
    println!(
        "  swebd {:.1} req/s, {:.1} MB/s, p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms, \
         {:.2} us CPU/req; floor {:.1} exchanges/s, {:.4} ms each",
        all.swebd.rps(),
        all.swebd.bytes() / 1e6 / all.swebd.seconds(),
        all.swebd.quantile_ms(0.50),
        all.swebd.quantile_ms(0.95),
        all.swebd.quantile_ms(0.99),
        all.server_cpu_us_per_req(),
        all.floor.rps(),
        all.floor.mean_ms()
    );
    Ok(RunResult {
        values: vec![
            ("rps_vs_floor", rps),
            ("p50_vs_floor", p50),
            ("p95_vs_floor", p95),
            ("server_cpu_vs_floor", cpu),
            ("server_rss_mb", rss_mb),
            ("setup_s", median(&setups)),
        ],
        attempted: attempted + counts.0,
        failed: failed + counts.1,
    })
}

/// `/metrics` of every node, added together.
fn scrape(ports: &[u16]) -> io::Result<Scrape> {
    let mut all = Scrape::default();
    for &port in ports {
        let (status, body) = client::http_get(port, "/metrics")?;
        if status != 200 {
            return Err(io::Error::other("/metrics did not answer 200"));
        }
        all.add(&Scrape::parse(&String::from_utf8_lossy(&body)));
    }
    Ok(all)
}

/// Median latency, µs, of [`STATUS_PROBES`] GETs of an admin endpoint.
fn probe_endpoint(port: u16, target: &str) -> io::Result<f64> {
    let mut took = Vec::with_capacity(STATUS_PROBES);
    for _ in 0..STATUS_PROBES {
        let started = Instant::now();
        let (status, _) = client::http_get(port, target)?;
        took.push(started.elapsed().as_nanos() as f64 / 1e3);
        if status != 200 {
            return Err(io::Error::other(format!("{target} did not answer 200")));
        }
    }
    Ok(median(&took))
}

fn p50_us(spans: &[Span], name: &str) -> f64 {
    let mut d = trace::durations(spans, name);
    if d.is_empty() {
        return 0.0;
    }
    d.sort_unstable();
    quantile_sorted(&d, 0.50) as f64 / 1e3
}

/// The traced run (`--trace 1`): [`TRACE_PAIRS`] pairs of an untraced and
/// a traced window, alternating so that host drift hits both alike, the
/// whole bracketed by exactly two `/metrics` scrapes; then the
/// admin-endpoint probes, the null-responder ceiling and the layer replay.
pub fn traced_run(bin: &Path, p: &Prepared, seconds: f64) -> io::Result<RunResult> {
    let [windows_s, ceiling_s, replay_s] = TRACE_SHARES.map(|share| share * seconds);
    let window_s = windows_s / (2 * TRACE_PAIRS) as f64;
    let server = Swebd::spawn(bin, p.spec.nodes, &p.docroot)?;
    let pid = server.pid();
    let mut session = Session::new(p, &server.ports, false);
    session.warm_up();
    session.drive(windows_s * SPIN_SHARE, None, false);

    let before = scrape(&server.ports)?;
    let switches_before = probe::read_ctx_switches(pid)?;
    let (mut untraced, mut traced, mut slowdown) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        let off = session.drive(window_s, Some(pid), false);
        let on = session.drive(window_s, Some(pid), true);
        slowdown.push(1.0 - ratio(on.swebd.rps(), off.swebd.rps()));
        untraced.push(off);
        traced.push(on);
    }
    let switches = probe::read_ctx_switches(pid)? - switches_before;
    let threads = probe::read_stat(pid)?.threads;
    let m = scrape(&server.ports)?.since(&before);

    let metrics_scrape_us = probe_endpoint(server.ports[0], "/metrics")?;
    let status_json_us = probe_endpoint(server.ports[0], "/sweb-status?format=json")?;
    let (attempted, failed) = session.counts();
    let epoch = session.epoch;
    drop(session);
    drop(server);

    let (untraced, mut traced) = (merged(untraced), merged(traced));
    let mut spans = std::mem::take(&mut traced.spans);
    // Everything between the two scrapes, traced or not: the server cannot
    // tell, so its counters and the client's clock cover the same requests.
    let Window { swebd: both, user_us, sys_us, client_cpu_us, .. } = merged(vec![untraced, traced]);

    let null = NullResponder::start(both.mean_body() as usize)?;
    let null_ports = [null.port];
    let mut null_session = Session::new(p, &null_ports, true);
    null_session.drive(ceiling_s * SPIN_SHARE, None, false);
    let ceiling = null_session.drive(ceiling_s, None, false).swebd;
    let null_counts = null_session.counts();
    drop(null_session);
    drop(null);

    let requests = both.completed();
    let served = m.get("sweb_requests_served_total");
    let phase = |name: &str| m.hist_mean("sweb_request_phase_us", &format!("{{phase=\"{name}\"}}"));
    // Every phase of every node a request touched, per client request: a
    // followed 302 pays accept, parse and decide twice.
    let server_us_per_req = ratio(m.sum("sweb_request_phase_us_sum"), requests);
    let mut latencies: Vec<u64> =
        both.samples.iter().filter(|s| s.lat_ns != FAILED).map(|s| s.lat_ns).collect();
    let mean_latency_us = mean(&latencies) / 1e3;
    latencies.sort_unstable();
    let file_hits = m.get("sweb_file_cache_hits_total");
    let dynamic_hits = m.sum("sweb_dynamic_cache_hits_total");
    let rps = both.rps();
    let generator_limited = rps > 0.8 * ceiling.rps();
    let traced_requests = spans.iter().filter(|s| s.name == "request").count() as f64;

    let mut values = vec![
        ("client.connect_us", p50_us(&spans, "connect")),
        ("client.ttfb_us", p50_us(&spans, "ttfb")),
        ("client.body_us", p50_us(&spans, "body")),
        ("client.redirect_hop_us", p50_us(&spans, "redirect_hop")),
        ("client.p999_ms", quantile_sorted(&latencies, 0.999) as f64 / 1e6),
        ("client.cpu_us_per_req", ratio(client_cpu_us, requests)),
        ("client.ceiling_rps", ceiling.rps()),
        ("client.unexplained_share", ratio(mean_latency_us - server_us_per_req, mean_latency_us)),
        ("proc.user_us_per_req", ratio(user_us, requests)),
        ("proc.sys_us_per_req", ratio(sys_us, requests)),
        ("proc.ctx_switches_per_req", ratio(switches as f64, requests)),
        ("proc.threads", threads as f64),
        ("reactor.accept_us", phase("accept")),
        ("reactor.parse_us", phase("parse")),
        ("reactor.write_us", phase("write")),
        ("reactor.syscalls_per_req", ratio(m.get("sweb_io_syscalls_total"), served)),
        ("reactor.zero_copy_share", ratio(m.get("sweb_zero_copy_responses_total"), served)),
        ("reactor.sendfile_share", ratio(m.get("sweb_sendfile_responses_total"), served)),
        (
            "reactor.shed_count",
            m.get("sweb_connections_shed_total") + m.sum("sweb_admission_sheds_total"),
        ),
        ("core.redirect_share", ratio(m.get("sweb_redirects_issued_total"), served)),
        ("core.predict_err_pct", m.hist_mean("sweb_cost_error_pct", "")),
        ("server.decide_us", phase("decide")),
        ("server.fetch_us", phase("fetch")),
        ("server.forward_us", phase("forward")),
        (
            "file_cache.hit_ratio",
            ratio(file_hits, file_hits + m.get("sweb_file_cache_misses_total")),
        ),
        (
            "dynamic.cache_hit_ratio",
            ratio(dynamic_hits, dynamic_hits + m.sum("sweb_dynamic_invocations_total")),
        ),
        (
            "dynamic.tcpu_us",
            ratio(m.sum("sweb_dynamic_tcpu_us_sum"), m.sum("sweb_dynamic_tcpu_us_count")),
        ),
        ("status.metrics_scrape_us", metrics_scrape_us),
        ("status.status_json_us", status_json_us),
        ("peer.fetches_per_req", ratio(m.get("sweb_peer_fetches_total"), served)),
        ("peer.pushes_per_req", ratio(m.get("sweb_pushes_sent_total"), served)),
        ("trace.overhead_share", median(&slowdown)),
    ];

    // The replay's spans share the session's clock and the file.
    spans.extend(replay::span_pass(p.spec, p.seed, &p.manifest, &p.docroot, epoch)?);
    trace::write_jsonl(&swebd::out_dir().join(format!("trace-{}.jsonl", p.spec.name)), &spans)?;
    values.extend(replay::timing_pass(
        p.spec,
        p.seed,
        &p.manifest,
        &p.docroot,
        &p.dir,
        Duration::from_secs_f64(replay_s),
    )?);

    // Name the layers the traced windows' time went to.
    println!("self time by span, traced windows and replay ({} spans):", spans.len());
    for (name, ns) in trace::self_time_by_name(&spans) {
        println!("  {name:<16} {:>12.3} ms", ns as f64 / 1e6);
    }
    // The two terms of `client.unexplained_share`, and the load the other
    // numbers were taken under.
    println!(
        "client mean latency {mean_latency_us:.1} us, server phases {server_us_per_req:.1} us/req; \
         traced windows {:.0} rps, untraced {:.0} rps",
        traced_requests / (window_s * TRACE_PAIRS as f64),
        (requests - traced_requests) / (window_s * TRACE_PAIRS as f64)
    );
    println!(
        "generator_limited: {generator_limited} (rps {rps:.0}, ceiling {:.0}, client cpu {:.1} us/req)",
        ceiling.rps(),
        ratio(client_cpu_us, requests)
    );
    Ok(RunResult { values, attempted: attempted + null_counts.0, failed: failed + null_counts.1 })
}

/// Print a run the way a person reads it: one metric per line, by name,
/// with its unit.
pub fn print_values(table: &[contract::Metric], r: &RunResult) {
    for m in table {
        if let Some((_, v)) = r.values.iter().find(|(name, _)| *name == m.name) {
            println!("  {:<28} {v:>16.4} {:<6} ({} is better)", m.name, m.unit, m.better);
        }
    }
    println!("  attempted {} failed {}", r.attempted, r.failed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(requests: usize, lat_ns: u64, bytes: u64, busy_ms: u64) -> Side {
        Side { samples: vec![Sample { lat_ns, bytes }; requests], busy_ns: busy_ms * 1_000_000 }
    }

    #[test]
    fn a_block_reads_against_its_own_floor() {
        // Two clients, each 1.5 s on swebd and 0.5 s on the floor: swebd
        // answers 99 requests of 2 ms and 1 MB and fails one, burning 11
        // ticks of 10 ms; the floor makes 2,000 exchanges.
        let mut swebd = side(99, 2_000_000, 1_000_000, 3000);
        swebd.samples.push(Sample { lat_ns: FAILED, bytes: 0 });
        let block = Window {
            swebd,
            floor: side(2000, 400_000, 1_000_000, 1000),
            user_us: 100_000.0,
            sys_us: 10_000.0,
            ..Window::default()
        };
        assert_eq!(block.swebd.rps(), 66.0);
        assert_eq!(block.swebd.mean_body(), 1_000_000.0);
        assert_eq!(block.floor.rps(), 4000.0);
        assert_eq!(block.floor.mean_ms(), 0.5);
        // The failure is the slowest of 100 samples: beyond p99, not p100.
        assert_eq!(block.swebd.quantile_ms(0.99), 2.0);
        assert_eq!(against_floor(&block), [66.0 / 4000.0, 4.0, 4.0, 110_000.0 / 99.0 / 1e3 / 0.5]);
        let both = merged(vec![
            block,
            Window { swebd: side(1, 7, 1, 1000), sys_us: 5.0, ..Window::default() },
        ]);
        assert_eq!((both.swebd.seconds(), both.swebd.completed()), (2.0, 100.0));
        assert_eq!(
            (both.user_us, both.sys_us, both.floor.completed()),
            (100_000.0, 10_005.0, 2000.0)
        );
    }
}
