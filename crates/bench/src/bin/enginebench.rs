//! `enginebench` — live-cluster A/B benchmarks for the connection engine.
//!
//! Six scenarios:
//!
//! ```text
//! enginebench [--scenario zerocopy] [--size 1500000] [--workers 16]
//!             [--requests 600] [--out results/zerocopy.csv]
//! enginebench --scenario shards [--workers 16] [--requests 2000]
//!             [--out results/shard_scaling.csv]
//! enginebench --scenario forward [--workers 8] [--requests 1200]
//!             [--out results/forwarding.csv]
//! enginebench --scenario uring [--hold 10000] [--workers 16]
//!             [--requests 3000] [--out results/uring.csv]
//! enginebench --scenario dynamic [--workers 8] [--requests 1200]
//!             [--out results/dynamic.csv]
//! enginebench --scenario overload [--workers 96] [--out results/overload.csv]
//! ```
//!
//! The reactor-vs-thread-per-connection scenario and the `copy` transmit
//! leg are gone with the code they measured; their last results stay in
//! `BENCH_engine.json` / `results/engine.csv` and in the `copy` row of
//! `BENCH_zerocopy.json` / `results/zerocopy.csv` (see EXPERIMENTS.md).
//!
//! **zerocopy** (the default): a single reactor node serving one
//! `--size`-byte document, measured two ways — `writev` (cached body
//! shared as `Bytes`, gathered at the socket) and `sendfile` (cache
//! disabled so the document streams from its fd). One CSV row per mode:
//!
//! ```text
//! mode,size_bytes,requests,workers,errors,duration_s,rps,mb_per_s,p50_ms,p99_ms
//! ```
//!
//! **shards**: intra-node scaling — a single reactor node is restarted
//! with 1, 2, 4 and 8 shards and driven with a warmed, cache-resident
//! small-file workload (the regime where the old single epoll loop
//! serializes). One CSV row per shard count; on a multi-core host the
//! rps column should grow with the shard count until it hits the
//! physical core count:
//!
//! ```text
//! shards,requests,workers,errors,duration_s,rps,p50_ms,p99_ms
//! ```
//!
//! **forward**: the peer transfer A/B — a 2-node `FileLocality` cluster
//! driven from node 0 with a Zipf(1.1) request stream whose hottest
//! documents live on node 1, measured three ways: `redirect` (the
//! baseline: every remote document costs the client a 302 round trip),
//! `peer_fetch` (cluster-internal pull over the peer channel, cache
//! disabled so every remote request pays the relay), and `replicated`
//! (peer transfer + digest-driven hot-file replication, warmed, so the
//! hot set serves from local RAM). One CSV row per mode, and a
//! machine-readable `BENCH_forwarding.json` beside the repo root for the
//! committed perf trajectory:
//!
//! ```text
//! mode,nodes,requests,workers,zipf_alpha,errors,duration_s,rps,p50_ms,p99_ms,client_redirects,peer_fetches,pushes
//! ```
//!
//! **uring**: the I/O backend A/B — two legs (epoll and io_uring), each
//! a fleet of `ceil(hold / helper_cap)` re-exec'd single-node server processes
//! paired with hold-helper client processes. Both ends of every held
//! keep-alive connection live in helper processes with their own
//! `RLIMIT_NOFILE` (sources spread over `127.0.0.x` so ephemeral ports
//! never run out), which is how `--hold 100000` fits a 20k-fd world.
//! The measured window drives `--requests` fresh-connection fetches
//! round-robined across the servers; every 16th pulls a 256 KiB payload
//! so the zero-copy `SEND_ZC` path is exercised alongside `WRITE_FIXED`.
//! Besides latency, each row sums the fleet's poller-syscall telemetry
//! over a `STATS` pipe protocol — the point of the completion backend is
//! the `io_syscalls` column shrinking while `syscalls_saved` grows, and
//! of the registered-buffer pool the `write_fixed`/`send_zc` columns
//! covering the responses. One CSV row per leg, and the run lands in
//! `BENCH_uring.json` (schema 2, with the kernel version) for the
//! committed perf trajectory:
//!
//! ```text
//! backend,chosen,helpers,held_conns,workers,requests,errors,duration_s,rps,p50_ms,p99_ms,io_syscalls,sqe_submitted,cqe_completed,syscalls_saved,write_fixed,buf_pool_exhausted,send_zc,zc_copies_avoided,sqe_backlogged
//! ```
//!
//! **dynamic**: the dynamic-content dispatch A/B — a single reactor node
//! driving `/cgi-bin/` three ways: `fork` (the legacy fork-per-request
//! CGI path, a trivial shell script behind [`ForkCgiHandler`]), `inproc`
//! (the in-process `burn` handler with unique arguments, so every request
//! invokes the handler), and `cached` (the same handler with a small
//! repeated argument set, so the response cache absorbs the work). Before
//! the A/B, a sequential convergence pass drives the `burn` handler with
//! unique arguments and drains the cost-model feedback ring: the oracle's
//! per-class `t_cpu` table starts from the static prior and learns the
//! measured handler cost, so the prediction-error p50 of the *last*
//! quartile of requests should land well under the *first* quartile's.
//! One CSV row per mode in `--out`, per-request prediction rows appended
//! to `prediction_error.csv` beside it, and the run lands in
//! `BENCH_dynamic.json` for the committed perf trajectory:
//!
//! ```text
//! mode,requests,workers,errors,duration_s,rps,p50_ms,p99_ms,invocations,cache_hits
//! ```
//!
//! **overload**: the admission-controller A/B — a single reactor node
//! with a pinned 4-thread worker pool, every request 10 ms of handler
//! spin, driven *open-loop* at 0.5/1/2/3x its measured capacity, once
//! with the adaptive controller and once with only the static shed
//! points (full worker queue, deadline overruns). The figure of merit is
//! goodput: 200s delivered inside a 1 s SLO per second. One CSV row per
//! (mode, offered-load) pair, and the ramp lands in
//! `BENCH_overload.json` for the committed perf trajectory:
//!
//! ```text
//! mode,offered_x,offered_rps,sent,ok200,good,shed503,errors,duration_s,goodput_rps,p50_ms,p99_ms
//! ```

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sweb_metrics::Histogram;
use sweb_server::{
    client, ClusterConfig, DynamicRegistry, ForkCgiHandler, LiveCluster, ServerOptions,
};
use sweb_telemetry::PredictionSample;

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    ZeroCopy,
    Shards,
    Forward,
    Uring,
    Dynamic,
    Overload,
}

struct Args {
    scenario: Scenario,
    hold: Option<usize>,
    workers: Option<usize>,
    requests: Option<u64>,
    size: u64,
    out: Option<std::path::PathBuf>,
    /// Measured repeats of every leg (statistics across them land in the
    /// BENCH JSON).
    repeats: usize,
    /// Unmeasured warm-up passes before the measured repeats.
    warmup: usize,
    /// Held connections per helper-process pair (uring scenario): both
    /// the client end and the server end of a held connection cost an fd
    /// in their process, so each pair stays under one RLIMIT_NOFILE.
    helper_cap: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: enginebench [--scenario zerocopy|shards|forward|uring|dynamic|overload] \
         [--hold N] [--workers N] [--requests N] [--size BYTES] \
         [--repeats N] [--warmup N] [--helper-cap N] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scenario: Scenario::ZeroCopy,
        hold: None,
        workers: None,
        requests: None,
        size: 1_500_000,
        out: None,
        repeats: 1,
        warmup: 0,
        helper_cap: 15_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scenario" => {
                args.scenario = match value().as_str() {
                    "zerocopy" => Scenario::ZeroCopy,
                    "shards" => Scenario::Shards,
                    "forward" => Scenario::Forward,
                    "uring" => Scenario::Uring,
                    "dynamic" => Scenario::Dynamic,
                    "overload" => Scenario::Overload,
                    _ => usage(),
                };
            }
            "--hold" => args.hold = Some(value().parse().unwrap_or_else(|_| usage())),
            "--workers" => args.workers = Some(value().parse().unwrap_or_else(|_| usage())),
            "--requests" => args.requests = Some(value().parse().unwrap_or_else(|_| usage())),
            "--size" => args.size = value().parse().unwrap_or_else(|_| usage()),
            "--repeats" => {
                args.repeats = value().parse().unwrap_or_else(|_| usage());
                if args.repeats == 0 {
                    usage();
                }
            }
            "--warmup" => args.warmup = value().parse().unwrap_or_else(|_| usage()),
            "--helper-cap" => {
                args.helper_cap = value().parse().unwrap_or_else(|_| usage());
                if args.helper_cap == 0 {
                    usage();
                }
            }
            "--out" => args.out = Some(value().into()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Per-repeat samples of one metric; summarised as mean/stddev/min/max
/// in every BENCH_*.json so a single noisy window can't masquerade as
/// a regression (or a fix).
struct RepeatStats {
    vals: Vec<f64>,
}

impl RepeatStats {
    fn new() -> Self {
        RepeatStats { vals: Vec::new() }
    }

    fn push(&mut self, v: f64) {
        self.vals.push(v);
    }

    fn mean(&self) -> f64 {
        if self.vals.is_empty() {
            return 0.0;
        }
        self.vals.iter().sum::<f64>() / self.vals.len() as f64
    }

    fn stddev(&self) -> f64 {
        if self.vals.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (self.vals.len() - 1) as f64;
        var.sqrt()
    }

    fn min(&self) -> f64 {
        self.vals.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max(&self) -> f64 {
        self.vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// JSON object literal: `{"mean": .., "stddev": .., "min": .., "max": .., "repeats": N}`.
    fn json(&self) -> String {
        if self.vals.is_empty() {
            return "{\"mean\": 0, \"stddev\": 0, \"min\": 0, \"max\": 0, \"repeats\": 0}".into();
        }
        format!(
            "{{\"mean\": {:.3}, \"stddev\": {:.3}, \"min\": {:.3}, \"max\": {:.3}, \"repeats\": {}}}",
            self.mean(),
            self.stddev(),
            self.min(),
            self.max(),
            self.vals.len()
        )
    }
}

/// A benchmark leg outcome that can be merged across repeats: latency
/// histograms union, monotonic counters add.
trait BenchLeg {
    fn hist(&self) -> &Histogram;
    fn duration(&self) -> Duration;
    fn absorb(&mut self, other: Self);
}

/// Errors + wall-clock + latency histogram: the minimum a measured leg
/// produces. Legs with no extra counters return this directly.
struct BasicOutcome {
    errors: u64,
    duration: Duration,
    hist: Histogram,
}

impl BenchLeg for BasicOutcome {
    fn hist(&self) -> &Histogram {
        &self.hist
    }
    fn duration(&self) -> Duration {
        self.duration
    }
    fn absorb(&mut self, other: Self) {
        self.errors += other.errors;
        self.duration += other.duration;
        self.hist.merge(&other.hist);
    }
}

/// Per-leg aggregate across warm-up + measured repeats.
struct Repeated<T> {
    /// All measured repeats merged: unioned histogram, summed counters
    /// and wall-clock. CSV rows report this view.
    merged: T,
    rps: RepeatStats,
    p99_ms: RepeatStats,
}

/// Run `leg` `warmup + repeats` times, discard the warm-up passes, and
/// fold the measured ones. Every scenario funnels its legs through
/// here so repeat statistics come for free.
fn run_repeated<T: BenchLeg>(warmup: usize, repeats: usize, mut leg: impl FnMut() -> T) -> Repeated<T> {
    let mut merged: Option<T> = None;
    let mut rps = RepeatStats::new();
    let mut p99_ms = RepeatStats::new();
    for rep in 0..warmup + repeats.max(1) {
        let r = leg();
        if rep < warmup {
            continue;
        }
        let secs = r.duration().as_secs_f64().max(1e-9);
        rps.push(r.hist().count() as f64 / secs);
        p99_ms.push(r.hist().quantile(0.99) as f64 / 1000.0);
        match merged.as_mut() {
            None => merged = Some(r),
            Some(m) => m.absorb(r),
        }
    }
    Repeated { merged: merged.expect("at least one measured repeat"), rps, p99_ms }
}

/// Build a docroot of hashed documents so locality scheduling has
/// something to route.
fn make_docroot() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-enginebench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create docroot");
    for i in 0..16 {
        let body = format!("document {i} ").repeat(64 * (1 + i % 4));
        std::fs::write(dir.join(format!("doc{i}.txt")), body).expect("write doc");
    }
    dir
}

/// One zero-copy transmit measurement: a single reactor node serving one
/// `size`-byte document. `cache_bytes: 0` disables the cache, which (for
/// documents past the streaming threshold) forces the sendfile path.
fn run_transmit_mode(
    cache_bytes: u64,
    workers: usize,
    requests: u64,
    docroot: &std::path::Path,
) -> BasicOutcome {
    let cfg = ClusterConfig {
        policy: sweb_core::Policy::RoundRobin, // one node; never redirect
        file_cache_bytes: cache_bytes,
        max_conns: workers + 64,
        shards: 1, // compare transmit paths, not loop counts
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, docroot.to_path_buf(), cfg).expect("start cluster");
    let url = format!("{}/payload.bin", cluster.base_url(0));

    // Warm pass: populate the cache (a no-op when the cache is disabled)
    // so the measured window compares transmit paths, not disk reads.
    let warm = client::get(&url).expect("warm fetch");
    assert_eq!(warm.status, 200, "warm fetch failed");

    let remaining = Arc::new(AtomicU64::new(requests));
    let errors = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..workers {
        let url = url.clone();
        let remaining = Arc::clone(&remaining);
        let errors = Arc::clone(&errors);
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            let mut local = Histogram::new();
            let expected = warm_len_hint();
            loop {
                if remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_err()
                {
                    break;
                }
                let t = Instant::now();
                match client::get_with_timeout(&url, Duration::from_secs(30)) {
                    Ok(resp) if resp.status == 200 && (expected == 0 || resp.body.len() == expected) => {
                        local.record(t.elapsed().as_micros() as u64);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            hist.lock().unwrap().merge(&local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration = t0.elapsed();
    cluster.shutdown();
    let hist = Arc::try_unwrap(hist).expect("workers joined").into_inner().unwrap();
    BasicOutcome { errors: errors.load(Ordering::Relaxed), duration, hist }
}

/// Expected body length for response validation, stashed by `main` before
/// the worker threads spawn (0 disables the check).
static EXPECTED_LEN: AtomicU64 = AtomicU64::new(0);
fn warm_len_hint() -> usize {
    EXPECTED_LEN.load(Ordering::Relaxed) as usize
}

fn open_csv(path: &std::path::Path, header: &str) -> std::fs::File {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    let new_file = !path.exists();
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open output csv");
    if new_file {
        writeln!(out, "{header}").unwrap();
    }
    out
}

fn main_zerocopy(args: &Args) {
    let workers = args.workers.unwrap_or(16);
    let requests = args.requests.unwrap_or(600);
    let out_path =
        args.out.clone().unwrap_or_else(|| std::path::PathBuf::from("results/zerocopy.csv"));

    // One pseudo-random document of the requested size (compressible
    // constant bytes would flatter loopback less realistically).
    let dir = std::env::temp_dir().join(format!("sweb-zerocopy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create docroot");
    let mut body = vec![0u8; args.size as usize];
    let mut x: u64 = 0x5eed_cafe;
    for b in body.iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    std::fs::write(dir.join("payload.bin"), &body).expect("write payload");
    EXPECTED_LEN.store(args.size, Ordering::Relaxed);

    let mut out = open_csv(
        &out_path,
        "mode,size_bytes,requests,workers,errors,duration_s,rps,mb_per_s,p50_ms,p99_ms",
    );
    // The cache is lock-striped: a document must fit its *segment's*
    // share of the capacity, so scale the headroom by the segment count.
    let cache = (args.size + (64 << 10)) * sweb_server::file_cache::DEFAULT_SEGMENTS as u64;
    let mut json_rows = Vec::new();
    for (name, cache_bytes) in [("writev", cache), ("sendfile", 0)] {
        eprintln!(
            "enginebench: zerocopy mode={name} size={} workers={workers} requests={requests}",
            args.size
        );
        let rep = run_repeated(args.warmup, args.repeats, || {
            run_transmit_mode(cache_bytes, workers, requests, &dir)
        });
        let (errors, duration, hist) = (rep.merged.errors, rep.merged.duration, &rep.merged.hist);
        let served = hist.count();
        let secs = duration.as_secs_f64().max(1e-9);
        let rps = served as f64 / secs;
        let mbps = served as f64 * args.size as f64 / 1e6 / secs;
        let p50 = hist.quantile(0.50) as f64 / 1000.0;
        let p99 = hist.quantile(0.99) as f64 / 1000.0;
        let row = format!(
            "{name},{},{requests},{workers},{errors},{:.3},{rps:.1},{mbps:.1},{p50:.3},{p99:.3}",
            args.size,
            duration.as_secs_f64(),
        );
        writeln!(out, "{row}").unwrap();
        eprintln!("enginebench: {row}");
        json_rows.push(format!(
            "    {{\"mode\": \"{name}\", \"errors\": {errors}, \"duration_s\": {:.3}, \
             \"rps\": {rps:.1}, \"mb_per_s\": {mbps:.1}, \"p50_ms\": {p50:.3}, \
             \"p99_ms\": {p99:.3}, \"rps_stats\": {}, \"p99_ms_stats\": {}}}",
            duration.as_secs_f64(),
            rep.rps.json(),
            rep.p99_ms.json(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"zerocopy\",\n  \"schema_version\": 1,\n  \"size_bytes\": {},\n  \
         \"requests\": {requests},\n  \"workers\": {workers},\n  \
         \"warmup\": {},\n  \"repeats\": {},\n  \"modes\": [\n{}\n  ]\n}}\n",
        args.size,
        args.warmup,
        args.repeats,
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_zerocopy.json", json).expect("write BENCH_zerocopy.json");
    println!("enginebench: wrote {}", out_path.display());
    println!("enginebench: wrote BENCH_zerocopy.json");
}

/// One shard-scaling measurement: a single reactor node with `shards`
/// event loops serving a warmed small-file workload.
fn run_shards(
    shards: usize,
    workers: usize,
    requests: u64,
    docroot: &std::path::Path,
) -> BasicOutcome {
    let cfg = ClusterConfig {
        policy: sweb_core::Policy::RoundRobin, // one node; never redirect
        shards,
        // Generous node-wide cap: under SO_REUSEPORT the kernel hashes
        // connections across shards unevenly, and the cap divides by the
        // shard count — leave room so admission never sheds the workload.
        max_conns: 4096,
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, docroot.to_path_buf(), cfg).expect("start cluster");
    let base = cluster.base_url(0).to_string();

    // Warm pass: pull every document into the striped cache so the
    // measured window exercises the event loops, not the disk.
    for i in 0..16 {
        let resp = client::get(&format!("{base}/doc{i}.txt")).expect("warm fetch");
        assert_eq!(resp.status, 200, "warm fetch of doc{i} failed");
    }

    let remaining = Arc::new(AtomicU64::new(requests));
    let errors = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..workers {
        let base = base.clone();
        let remaining = Arc::clone(&remaining);
        let errors = Arc::clone(&errors);
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            let mut local = Histogram::new();
            let mut r = w;
            loop {
                if remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_err()
                {
                    break;
                }
                let url = format!("{base}/doc{}.txt", r % 16);
                r += 1;
                let t = Instant::now();
                match client::get_with_timeout(&url, Duration::from_secs(30)) {
                    Ok(resp) if resp.status == 200 => {
                        local.record(t.elapsed().as_micros() as u64);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            hist.lock().unwrap().merge(&local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration = t0.elapsed();
    cluster.shutdown();
    let hist = Arc::try_unwrap(hist).expect("workers joined").into_inner().unwrap();
    BasicOutcome { errors: errors.load(Ordering::Relaxed), duration, hist }
}

fn main_shards(args: &Args) {
    let workers = args.workers.unwrap_or(16);
    let requests = args.requests.unwrap_or(2000);
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results/shard_scaling.csv"));
    let docroot = make_docroot();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("enginebench: shards sweep on a {cores}-core host");
    let mut out = open_csv(
        &out_path,
        "shards,requests,workers,errors,duration_s,rps,p50_ms,p99_ms",
    );
    for shards in [1usize, 2, 4, 8] {
        eprintln!("enginebench: shards={shards} workers={workers} requests={requests}");
        let rep = run_repeated(args.warmup, args.repeats, || {
            run_shards(shards, workers, requests, &docroot)
        });
        let (errors, duration, hist) = (rep.merged.errors, rep.merged.duration, &rep.merged.hist);
        let served = hist.count();
        let secs = duration.as_secs_f64().max(1e-9);
        let row = format!(
            "{shards},{requests},{workers},{errors},{:.3},{:.1},{:.3},{:.3}",
            duration.as_secs_f64(),
            served as f64 / secs,
            hist.quantile(0.50) as f64 / 1000.0,
            hist.quantile(0.99) as f64 / 1000.0,
        );
        writeln!(out, "{row}").unwrap();
        eprintln!("enginebench: {row}");
        eprintln!("enginebench: shards={shards} rps_stats={}", rep.rps.json());
    }
    println!("enginebench: wrote {}", out_path.display());
}

/// One forward-scenario configuration: how remote documents reach the
/// client.
struct ForwardMode {
    name: &'static str,
    /// Pull remote documents over the peer channel instead of 302ing.
    peer_transfer: bool,
    /// Run the digest-driven replicator (implies a warm-up phase).
    replicate_hot: bool,
    /// Document cache on: pulls and pushes seed local RAM. Off isolates
    /// the per-request relay cost.
    cache: bool,
}

struct ForwardOutcome {
    errors: u64,
    duration: Duration,
    hist: Histogram,
    /// 302 hops the *client* paid during the measured window.
    client_redirects: u64,
    /// Peer-channel pulls node 0 performed during the measured window.
    peer_fetches: u64,
    /// Replication pushes sent cluster-wide during the measured window.
    pushes: u64,
}

impl BenchLeg for ForwardOutcome {
    fn hist(&self) -> &Histogram {
        &self.hist
    }
    fn duration(&self) -> Duration {
        self.duration
    }
    fn absorb(&mut self, other: Self) {
        self.errors += other.errors;
        self.duration += other.duration;
        self.hist.merge(&other.hist);
        self.client_redirects += other.client_redirects;
        self.peer_fetches += other.peer_fetches;
        self.pushes += other.pushes;
    }
}

/// Cumulative distribution of a Zipf(`alpha`) law over ranks `1..=n`.
fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            acc += 1.0 / (rank as f64).powf(alpha);
            acc
        })
        .collect();
    for c in cdf.iter_mut() {
        *c /= acc;
    }
    cdf
}

/// splitmix64: deterministic per-worker request stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_forward(
    mode: &ForwardMode,
    workers: usize,
    requests: u64,
    docroot: &std::path::Path,
    ranked: &[String],
    cdf: &[f64],
) -> ForwardOutcome {
    let mut cfg = ClusterConfig {
        policy: sweb_core::Policy::FileLocality,
        shards: 1,
        max_conns: workers * 2 + 64,
        ..ClusterConfig::default()
    };
    cfg.sweb.peer_transfer = mode.peer_transfer;
    cfg.sweb.replicate_hot = mode.replicate_hot;
    if !mode.cache {
        cfg.file_cache_bytes = 0;
    }
    if mode.replicate_hot {
        // Tighten the gossip period so replication sweeps (2× loadd)
        // land inside the warm-up window.
        cfg.sweb.loadd_period = sweb_des::SimTime::from_millis(100);
        cfg.sweb.stale_timeout = sweb_des::SimTime::from_millis(1000);
    }
    let cluster =
        LiveCluster::start(2, docroot.to_path_buf(), cfg).expect("start cluster");
    if !cluster.await_loadd_mesh(Duration::from_secs(10)) {
        eprintln!("enginebench: warning: loadd mesh did not converge");
    }
    let base = cluster.base_url(0).to_string();

    // Pushes are counted from cluster start: replication runs *ahead of
    // demand*, so its work happens during warm-up, not the measured
    // window. Pulls and 302s are measured-window deltas.
    let pushes_before: u64 =
        (0..2).map(|i| cluster.node(i).stats.pushes_sent.get()).sum();

    if mode.replicate_hot {
        // Warm-up drives the *home* of the hot set (node 1) with the same
        // Zipf stream: its popularity counters rise, its cache fills, and
        // the replicator pushes the hot documents to idle node 0 — whose
        // digest misses them — *ahead of demand*. The measured window then
        // arrives at node 0 and finds the hot set already RAM-resident.
        let home_base = cluster.base_url(1).to_string();
        let mut rng = 0x5eed_f0f0u64;
        for _ in 0..requests / 4 {
            let u = splitmix64(&mut rng) as f64 / u64::MAX as f64;
            let idx = cdf.iter().position(|&c| u <= c).unwrap_or(ranked.len() - 1);
            let _ = client::get_with_timeout(
                &format!("{home_base}{}", ranked[idx]),
                Duration::from_secs(10),
            );
        }
        // A few replication sweeps (2× the 100 ms loadd period each).
        std::thread::sleep(Duration::from_millis(700));
    }

    let fetches_before = cluster.node(0).stats.peer_fetches.get();

    let remaining = Arc::new(AtomicU64::new(requests));
    let errors = Arc::new(AtomicU64::new(0));
    let redirects = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..workers {
        let base = base.clone();
        let ranked = ranked.to_vec();
        let cdf = cdf.to_vec();
        let remaining = Arc::clone(&remaining);
        let errors = Arc::clone(&errors);
        let redirects = Arc::clone(&redirects);
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            let mut local = Histogram::new();
            let mut rng = 0x00C0_FFEE ^ (w as u64).wrapping_mul(0x9E37_79B9);
            loop {
                if remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_err()
                {
                    break;
                }
                let u = splitmix64(&mut rng) as f64 / u64::MAX as f64;
                let idx = cdf.iter().position(|&c| u <= c).unwrap_or(ranked.len() - 1);
                let url = format!("{base}{}", ranked[idx]);
                let t = Instant::now();
                match client::get_with_timeout(&url, Duration::from_secs(30)) {
                    Ok(resp) if resp.status == 200 => {
                        local.record(t.elapsed().as_micros() as u64);
                        redirects.fetch_add(resp.redirects as u64, Ordering::Relaxed);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            hist.lock().unwrap().merge(&local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration = t0.elapsed();
    let peer_fetches = cluster.node(0).stats.peer_fetches.get() - fetches_before;
    let pushes: u64 =
        (0..2).map(|i| cluster.node(i).stats.pushes_sent.get()).sum::<u64>() - pushes_before;
    cluster.shutdown();
    let hist = Arc::try_unwrap(hist).expect("workers joined").into_inner().unwrap();
    ForwardOutcome {
        errors: errors.load(Ordering::Relaxed),
        duration,
        hist,
        client_redirects: redirects.load(Ordering::Relaxed),
        peer_fetches,
        pushes,
    }
}

fn main_forward(args: &Args) {
    let workers = args.workers.unwrap_or(8);
    let requests = args.requests.unwrap_or(1200);
    let alpha = 1.1;
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results/forwarding.csv"));
    let docroot = make_docroot();

    // Rank the working set remote-first: Zipf rank 1 (the hottest
    // document) must live on node 1, so the baseline actually pays the
    // 302 and the peer modes actually forward. Home assignment is the
    // same path hash the servers use.
    let mut ranked: Vec<String> = (0..16).map(|i| format!("/doc{i}.txt")).collect();
    ranked.sort_by_key(|p| sweb_server::home_of(p, 2) != sweb_cluster::NodeId(1));
    let cdf = zipf_cdf(ranked.len(), alpha);

    let modes = [
        ForwardMode { name: "redirect", peer_transfer: false, replicate_hot: false, cache: true },
        ForwardMode { name: "peer_fetch", peer_transfer: true, replicate_hot: false, cache: false },
        ForwardMode { name: "replicated", peer_transfer: true, replicate_hot: true, cache: true },
    ];
    let mut out = open_csv(
        &out_path,
        "mode,nodes,requests,workers,zipf_alpha,errors,duration_s,rps,p50_ms,p99_ms,\
         client_redirects,peer_fetches,pushes",
    );
    let mut json_rows = Vec::new();
    for mode in &modes {
        eprintln!(
            "enginebench: forward mode={} workers={workers} requests={requests}",
            mode.name
        );
        let rep = run_repeated(args.warmup, args.repeats, || {
            run_forward(mode, workers, requests, &docroot, &ranked, &cdf)
        });
        let r = &rep.merged;
        let served = r.hist.count();
        let secs = r.duration.as_secs_f64().max(1e-9);
        let rps = served as f64 / secs;
        let p50 = r.hist.quantile(0.50) as f64 / 1000.0;
        let p99 = r.hist.quantile(0.99) as f64 / 1000.0;
        let row = format!(
            "{},2,{requests},{workers},{alpha},{},{:.3},{rps:.1},{p50:.3},{p99:.3},{},{},{}",
            mode.name,
            r.errors,
            r.duration.as_secs_f64(),
            r.client_redirects,
            r.peer_fetches,
            r.pushes,
        );
        writeln!(out, "{row}").unwrap();
        eprintln!("enginebench: {row}");
        json_rows.push(format!(
            "    {{\"mode\": \"{}\", \"errors\": {}, \"duration_s\": {:.3}, \"rps\": {rps:.1}, \
             \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \"client_redirects\": {}, \
             \"peer_fetches\": {}, \"pushes\": {}, \"rps_stats\": {}, \"p99_ms_stats\": {}}}",
            mode.name,
            r.errors,
            r.duration.as_secs_f64(),
            r.client_redirects,
            r.peer_fetches,
            r.pushes,
            rep.rps.json(),
            rep.p99_ms.json(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"forwarding\",\n  \"schema_version\": 1,\n  \"nodes\": 2,\n  \
         \"requests\": {requests},\n  \"workers\": {workers},\n  \"zipf_alpha\": {alpha},\n  \
         \"warmup\": {},\n  \"repeats\": {},\n  \"modes\": [\n{}\n  ]\n}}\n",
        args.warmup,
        args.repeats,
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_forwarding.json", json).expect("write BENCH_forwarding.json");
    println!("enginebench: wrote {}", out_path.display());
    println!("enginebench: wrote BENCH_forwarding.json");
}

/// Raise `RLIMIT_NOFILE` to at least `target` (both ends of every held
/// connection live in this process, so the default 1024 dies at ~500).
/// Returns the effective soft limit.
fn raise_nofile(target: u64) -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Rlimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        }
        const RLIMIT_NOFILE: i32 = 7;
        unsafe {
            let mut cur = Rlimit { cur: 0, max: 0 };
            if getrlimit(RLIMIT_NOFILE, &mut cur) != 0 {
                return 1024;
            }
            if cur.cur >= target {
                return cur.cur;
            }
            // Privileged processes may raise the hard cap too.
            let want = Rlimit { cur: target, max: target.max(cur.max) };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return target;
            }
            let want = Rlimit { cur: cur.max, max: cur.max };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return cur.max;
            }
            cur.cur
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = target;
        1024
    }
}

struct UringOutcome {
    chosen: String,
    errors: u64,
    held: usize,
    /// Server/holder process pairs the leg ran across.
    helpers: usize,
    duration: Duration,
    hist: Histogram,
    io: sweb_reactor::IoStats,
}

impl BenchLeg for UringOutcome {
    fn hist(&self) -> &Histogram {
        &self.hist
    }
    fn duration(&self) -> Duration {
        self.duration
    }
    fn absorb(&mut self, other: Self) {
        self.errors += other.errors;
        self.duration += other.duration;
        self.hist.merge(&other.hist);
        self.io.add(&other.io);
        self.held = self.held.max(other.held);
        self.helpers = self.helpers.max(other.helpers);
    }
}

/// A re-exec'd single-node server (see `serve_helper`): its own process,
/// so its own `RLIMIT_NOFILE` budget, controlled over pipes.
struct ServeHelper {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: std::net::SocketAddr,
    chosen: String,
}

fn spawn_serve_helper(
    exe: &std::path::Path,
    backend: &str,
    docroot: &std::path::Path,
    max_conns: usize,
) -> ServeHelper {
    use std::io::BufRead as _;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--serve-helper")
        .arg(backend)
        .arg(docroot)
        .arg(max_conns.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped());
    let mut child = cmd.spawn().expect("spawn serve helper");
    let stdin = child.stdin.take().expect("serve helper stdin");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("serve helper stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("serve helper READY");
    let mut parts = line.split_whitespace();
    assert_eq!(parts.next(), Some("READY"), "serve helper said {line:?}");
    let addr = parts.next().expect("serve helper addr").parse().expect("serve helper addr");
    let chosen = parts.next().unwrap_or("unknown").to_string();
    ServeHelper { child, stdin, stdout, addr, chosen }
}

impl ServeHelper {
    /// One `STATS` round-trip: the node's io counters, space-separated
    /// in `IoStats` field order.
    fn stats(&mut self) -> sweb_reactor::IoStats {
        use std::io::{BufRead as _, Write as _};
        writeln!(self.stdin, "STATS").expect("serve helper stdin");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("serve helper stats");
        let mut vals =
            line.split_whitespace().map(|t| t.parse::<u64>().expect("stats field"));
        let mut next = || vals.next().expect("nine stats fields");
        sweb_reactor::IoStats {
            syscalls: next(),
            sqe_submitted: next(),
            cqe_completed: next(),
            syscalls_saved: next(),
            write_fixed: next(),
            buf_pool_exhausted: next(),
            send_zc: next(),
            zc_copies_avoided: next(),
            sqe_backlogged: next(),
        }
    }

    fn shutdown(self) {
        let ServeHelper { mut child, stdin, .. } = self;
        drop(stdin); // EOF: the helper's command loop exits
        let _ = child.wait();
    }
}

/// One leg of the A/B: `ceil(hold / helper_cap)` server processes, each
/// pinned to `backend` and loaded with its share of the held population
/// by a paired hold-helper process, then driven with `requests`
/// fresh-connection fetches round-robined across the servers. Both ends
/// of every held connection live in helper processes, so the population
/// scales past any single process's `RLIMIT_NOFILE` (hard-capped at 20k
/// here) — 100k held connections is 7 server/holder pairs.
fn run_uring_leg(
    backend: &str,
    hold: usize,
    helper_cap: usize,
    workers: usize,
    requests: u64,
    docroot: &std::path::Path,
) -> UringOutcome {
    use std::io::BufRead as _;
    let servers = hold.div_ceil(helper_cap).max(1);
    let per = hold.div_ceil(servers);
    let exe = std::env::current_exe().expect("own executable path");

    let mut serve: Vec<ServeHelper> = (0..servers)
        .map(|_| spawn_serve_helper(&exe, backend, docroot, per + workers + 256))
        .collect();
    let chosen = serve[0].chosen.clone();

    // Pair holder i with server i. The explicit start index keeps the
    // loopback source-address rotation global across holders, exactly as
    // the old single-process rig rotated it.
    let mut holders = Vec::new();
    let mut held_total = 0usize;
    for (i, s) in serve.iter().enumerate() {
        let want = per.min(hold.saturating_sub(i * per));
        if want == 0 {
            break;
        }
        let mut h = std::process::Command::new(&exe)
            .arg("--hold-helper")
            .arg(s.addr.to_string())
            .arg(want.to_string())
            .arg((i * per).to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn hold helper");
        let held = {
            let out = h.stdout.take().expect("hold helper stdout");
            let mut line = String::new();
            std::io::BufReader::new(out).read_line(&mut line).expect("hold helper report");
            line.trim().parse::<usize>().expect("hold helper count")
        };
        held_total += held;
        holders.push(h);
    }
    if held_total < hold {
        eprintln!("enginebench: helpers could only hold {held_total} of {hold} connections");
    }
    // Let every shard admit its whole population before the measured window.
    std::thread::sleep(Duration::from_millis(500));

    // Counter baseline: the columns cover exactly the measured window
    // (startup arming and held-population admission differ between
    // backends and would blur the per-request comparison).
    let mut io0 = sweb_reactor::IoStats::default();
    for s in serve.iter_mut() {
        io0.add(&s.stats());
    }

    let urls: Vec<String> = serve.iter().map(|s| format!("http://{}", s.addr)).collect();
    let remaining = Arc::new(AtomicU64::new(requests));
    let errors = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..workers {
        let urls = urls.clone();
        let remaining = Arc::clone(&remaining);
        let errors = Arc::clone(&errors);
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            let mut local = Histogram::new();
            let mut r = w;
            loop {
                if remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_err()
                {
                    break;
                }
                // Every 16th fetch pulls the large payload so the leg
                // exercises SEND_ZC (bodies past the staging-slot size)
                // alongside WRITE_FIXED small documents.
                let base = &urls[r % urls.len()];
                let url = if r % 16 == 0 {
                    format!("{base}/payload.bin")
                } else {
                    format!("{base}/doc{}.txt", r % 16)
                };
                r += 1;
                let t = Instant::now();
                match client::get_with_timeout(&url, Duration::from_secs(30)) {
                    Ok(resp) if resp.status == 200 => {
                        local.record(t.elapsed().as_micros() as u64);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            hist.lock().unwrap().merge(&local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration = t0.elapsed();
    // One stats-drain period so each shard's final tick lands.
    std::thread::sleep(Duration::from_millis(100));
    let mut io1 = sweb_reactor::IoStats::default();
    for s in serve.iter_mut() {
        io1.add(&s.stats());
    }
    let io = sweb_reactor::IoStats {
        syscalls: io1.syscalls - io0.syscalls,
        sqe_submitted: io1.sqe_submitted - io0.sqe_submitted,
        cqe_completed: io1.cqe_completed - io0.cqe_completed,
        syscalls_saved: io1.syscalls_saved - io0.syscalls_saved,
        write_fixed: io1.write_fixed - io0.write_fixed,
        buf_pool_exhausted: io1.buf_pool_exhausted - io0.buf_pool_exhausted,
        send_zc: io1.send_zc - io0.send_zc,
        zc_copies_avoided: io1.zc_copies_avoided - io0.zc_copies_avoided,
        sqe_backlogged: io1.sqe_backlogged - io0.sqe_backlogged,
    };
    for mut h in holders {
        drop(h.stdin.take()); // EOF releases the held population
        let _ = h.wait();
    }
    for s in serve {
        s.shutdown();
    }
    let hist = Arc::try_unwrap(hist).expect("workers joined").into_inner().unwrap();
    UringOutcome {
        chosen,
        errors: errors.load(Ordering::Relaxed),
        held: held_total,
        helpers: servers,
        duration,
        hist,
        io,
    }
}

/// The server-side re-exec target (see `run_uring_leg`): one
/// single-shard node pinned to `backend` in its own process (its own
/// `RLIMIT_NOFILE` budget). Prints `READY <addr> <chosen-backend>` once
/// serving, answers each `STATS` stdin line with the node's io counters
/// (space-separated, `IoStats` field order), and shuts down on EOF.
fn serve_helper(backend_arg: &str, docroot_arg: &str, max_conns_arg: &str) {
    use std::io::BufRead as _;
    let backend = sweb_reactor::IoBackend::parse(backend_arg).expect("serve helper backend");
    let max_conns: usize = max_conns_arg.parse().expect("serve helper max-conns");
    raise_nofile(max_conns as u64 + 4096);
    let cfg = ClusterConfig {
        policy: sweb_core::Policy::RoundRobin, // one node; never redirect
        io_backend: backend,
        shards: 1, // one loop: the syscall columns compare like for like
        max_conns,
        // Room for the large SEND_ZC payload in every cache segment.
        file_cache_bytes: 32 << 20,
        ..ClusterConfig::default()
    };
    let cluster = LiveCluster::start(1, docroot_arg.into(), cfg).expect("start helper node");
    // The shard publishes its chosen backend from its own thread; wait
    // for it so READY reports what actually runs, not the placeholder.
    let chosen = {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let c = cluster.node(0).shard_io_backend[0].read().to_string();
            if c != "none" || Instant::now() >= deadline {
                break c;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let addr = cluster.base_url(0).strip_prefix("http://").expect("base url").to_string();
    println!("READY {addr} {chosen}");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // parent hung up
        }
        match line.trim() {
            "STATS" => {
                let s = &cluster.node(0).stats;
                println!(
                    "{} {} {} {} {} {} {} {} {}",
                    s.io_syscalls.get(),
                    s.io_sqe_submitted.get(),
                    s.io_cqe_completed.get(),
                    s.io_syscalls_saved.get(),
                    s.io_write_fixed.get(),
                    s.io_buf_pool_exhausted.get(),
                    s.io_send_zc.get(),
                    s.io_zc_copies_avoided.get(),
                    s.io_sqe_backlogged.get(),
                );
            }
            "EXIT" => break,
            _ => {}
        }
    }
    cluster.shutdown();
}

/// The client-side re-exec target (see `run_uring_leg`): plant `count`
/// idle connections to `dest`, report the number planted on stdout, hold
/// them until stdin reaches EOF. `start` offsets the source-address
/// rotation so the population stays globally sharded across helpers.
fn hold_helper(dest_arg: &str, count_arg: &str, start_arg: Option<&str>) {
    let dest: std::net::SocketAddr = dest_arg.parse().expect("helper dest");
    let count: usize = count_arg.parse().expect("helper count");
    let start: usize = start_arg.map(|s| s.parse().expect("helper start")).unwrap_or(0);
    raise_nofile(count as u64 + 1024);
    // A single (source, destination) pair runs out of ephemeral ports
    // around 28k; shard the clients across loopback source addresses so
    // the population can grow past that.
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        let source = std::net::Ipv4Addr::new(127, 0, 0, 1 + ((start + i) / 8192) as u8);
        match sweb_reactor::sys::connect_from(dest, source) {
            Ok(s) => held.push(s),
            Err(e) => {
                eprintln!("enginebench hold-helper: stopped at {i}: {e}");
                break;
            }
        }
    }
    println!("{}", held.len());
    let mut sink = String::new();
    let _ = std::io::stdin().read_line(&mut sink);
}

/// Large-document size for the uring scenario: past the staging-slot
/// size (so it can't ride `WRITE_FIXED`) and past `ZC_MIN_BODY` (so a
/// `SEND_ZC`-capable kernel sends it zero-copy).
const URING_PAYLOAD_LEN: usize = 256 << 10;

fn main_uring(args: &Args) {
    let hold = args.hold.unwrap_or(10_000);
    let workers = args.workers.unwrap_or(16);
    let requests = args.requests.unwrap_or(3000);
    let helper_cap = args.helper_cap;
    let out_path =
        args.out.clone().unwrap_or_else(|| std::path::PathBuf::from("results/uring.csv"));
    // The parent only carries the driver workers' sockets and the helper
    // pipes; both ends of every held connection live in helper processes.
    let limit = raise_nofile(workers as u64 + 4096);
    let servers = hold.div_ceil(helper_cap).max(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    eprintln!(
        "enginebench: uring A/B on kernel {kernel}: hold {hold} across {servers} \
         server/holder pair(s) (cap {helper_cap}/process, parent nofile {limit})"
    );
    let docroot = make_docroot();
    // A cache-resident large document so the SEND_ZC path is exercised
    // alongside WRITE_FIXED (see `run_uring_leg`'s request mix).
    let mut body = vec![0u8; URING_PAYLOAD_LEN];
    let mut x: u64 = 0x5eb0_c0de;
    for b in body.iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    std::fs::write(docroot.join("payload.bin"), &body).expect("write payload");
    let mut out = open_csv(
        &out_path,
        "backend,chosen,helpers,held_conns,workers,requests,errors,duration_s,rps,p50_ms,p99_ms,\
         io_syscalls,sqe_submitted,cqe_completed,syscalls_saved,write_fixed,buf_pool_exhausted,\
         send_zc,zc_copies_avoided,sqe_backlogged",
    );
    let mut json_rows = Vec::new();
    for leg in ["epoll", "uring"] {
        eprintln!(
            "enginebench: leg={leg} hold={hold} servers={servers} workers={workers} \
             requests={requests}"
        );
        let rep = run_repeated(args.warmup, args.repeats, || {
            run_uring_leg(leg, hold, helper_cap, workers, requests, &docroot)
        });
        let r = &rep.merged;
        let served = r.hist.count();
        let secs = r.duration.as_secs_f64().max(1e-9);
        let rps = served as f64 / secs;
        let p50 = r.hist.quantile(0.50) as f64 / 1000.0;
        let p99 = r.hist.quantile(0.99) as f64 / 1000.0;
        let row = format!(
            "{leg},{},{},{},{workers},{requests},{},{:.3},{rps:.1},{p50:.3},{p99:.3},\
             {},{},{},{},{},{},{},{},{}",
            r.chosen,
            r.helpers,
            r.held,
            r.errors,
            r.duration.as_secs_f64(),
            r.io.syscalls,
            r.io.sqe_submitted,
            r.io.cqe_completed,
            r.io.syscalls_saved,
            r.io.write_fixed,
            r.io.buf_pool_exhausted,
            r.io.send_zc,
            r.io.zc_copies_avoided,
            r.io.sqe_backlogged,
        );
        writeln!(out, "{row}").unwrap();
        eprintln!("enginebench: {row}");
        json_rows.push(format!(
            "    {{\"backend\": \"{leg}\", \"chosen\": \"{}\", \"held_conns\": {}, \
             \"helpers\": {}, \"errors\": {}, \"duration_s\": {:.3}, \"rps\": {rps:.1}, \
             \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \"rps_stats\": {}, \
             \"p99_ms_stats\": {},\n     \"io\": {{\"syscalls\": {}, \"sqe_submitted\": {}, \
             \"cqe_completed\": {}, \"syscalls_saved\": {}, \"write_fixed\": {}, \
             \"buf_pool_exhausted\": {}, \"send_zc\": {}, \"zc_copies_avoided\": {}, \
             \"sqe_backlogged\": {}}}}}",
            r.chosen,
            r.held,
            r.helpers,
            r.errors,
            r.duration.as_secs_f64(),
            rep.rps.json(),
            rep.p99_ms.json(),
            r.io.syscalls,
            r.io.sqe_submitted,
            r.io.cqe_completed,
            r.io.syscalls_saved,
            r.io.write_fixed,
            r.io.buf_pool_exhausted,
            r.io.send_zc,
            r.io.zc_copies_avoided,
            r.io.sqe_backlogged,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"uring\",\n  \"schema_version\": 2,\n  \"kernel\": \"{kernel}\",\n  \
         \"hold\": {hold},\n  \"helper_cap\": {helper_cap},\n  \
         \"payload_bytes\": {URING_PAYLOAD_LEN},\n  \"requests\": {requests},\n  \
         \"workers\": {workers},\n  \"warmup\": {},\n  \"repeats\": {},\n  \
         \"backends\": [\n{}\n  ]\n}}\n",
        args.warmup,
        args.repeats,
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_uring.json", json).expect("write BENCH_uring.json");
    println!("enginebench: wrote {}", out_path.display());
    println!("enginebench: wrote BENCH_uring.json");
}

/// One dynamic-scenario dispatch shape: how `/cgi-bin/` work reaches the
/// handler.
struct DynMode {
    name: &'static str,
    /// Handler class whose invocation/cache counters the row reports.
    class: &'static str,
    /// Request path for global request index `i`.
    path: fn(u64) -> String,
    /// Prime the repeated-argument working set before the measured window.
    warm: bool,
    /// Mount the fork-CGI probe script (the legacy path under test).
    fork: bool,
}

struct DynOutcome {
    errors: u64,
    duration: Duration,
    hist: Histogram,
    /// Real handler invocations during the run (cache hits excluded).
    invocations: u64,
    /// Requests answered from the dynamic response cache.
    cache_hits: u64,
}

impl BenchLeg for DynOutcome {
    fn hist(&self) -> &Histogram {
        &self.hist
    }
    fn duration(&self) -> Duration {
        self.duration
    }
    fn absorb(&mut self, other: Self) {
        self.errors += other.errors;
        self.duration += other.duration;
        self.hist.merge(&other.hist);
        self.invocations += other.invocations;
        self.cache_hits += other.cache_hits;
    }
}

/// The fork-CGI probe: a trivial shell script, so the `fork` row prices
/// the dispatch mechanism (fork + exec + pipe + reap), not script work.
fn write_probe_script(docroot: &std::path::Path) -> std::path::PathBuf {
    let script = docroot.join("probe.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\necho \"Content-Type: text/plain\"\necho\necho \"fork probe: $QUERY_STRING\"\n",
    )
    .expect("write probe script");
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt as _;
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("chmod probe script");
    }
    script
}

/// One dispatch-mode leg of the dynamic A/B: a fresh single-node reactor
/// (fresh counters and an empty response cache) driven with `requests`
/// fetches shaped by `mode.path`.
fn run_dynamic_mode(mode: &DynMode, workers: usize, requests: u64, docroot: &std::path::Path) -> DynOutcome {
    let mut handlers = DynamicRegistry::demo();
    if mode.fork {
        let script = write_probe_script(docroot);
        handlers.register("forkprobe", Arc::new(ForkCgiHandler::new(script)));
    }
    let cluster = ServerOptions::new()
        .policy(sweb_core::Policy::RoundRobin) // one node; never redirect
        .shards(1)
        .max_conns(workers * 2 + 64)
        .handlers(handlers)
        .start(1, docroot.to_path_buf())
        .expect("start cluster");
    let base = cluster.base_url(0).to_string();

    if mode.warm {
        // Prime the repeated working set so the measured window is all
        // cache hits (the regime the response cache exists for).
        for i in 0..8 {
            let resp = client::get(&format!("{base}{}", (mode.path)(i))).expect("warm fetch");
            assert_eq!(resp.status, 200, "warm fetch {i} failed");
        }
    }

    let remaining = Arc::new(AtomicU64::new(requests));
    let errors = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..workers {
        let base = base.clone();
        let path = mode.path;
        let remaining = Arc::clone(&remaining);
        let errors = Arc::clone(&errors);
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            let mut local = Histogram::new();
            // `prev` descends requests..=1; flip it so every request gets
            // a unique ascending index for the path shaper.
            while let Ok(prev) =
                remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            {
                let url = format!("{base}{}", path(requests - prev));
                let t = Instant::now();
                match client::get_with_timeout(&url, Duration::from_secs(30)) {
                    Ok(resp) if resp.status == 200 => {
                        local.record(t.elapsed().as_micros() as u64);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            hist.lock().unwrap().merge(&local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration = t0.elapsed();
    let (invocations, cache_hits) = cluster
        .node(0)
        .dynamic
        .class_stats(mode.class)
        .map(|s| (s.invocations.get(), s.cache_hits.get()))
        .unwrap_or((0, 0));
    cluster.shutdown();
    let hist = Arc::try_unwrap(hist).expect("workers joined").into_inner().unwrap();
    DynOutcome {
        errors: errors.load(Ordering::Relaxed),
        duration,
        hist,
        invocations,
        cache_hits,
    }
}

/// Sequential convergence pass: drive the `burn` handler with unique
/// arguments (every request a cache miss, so every request feeds the
/// oracle), then drain the cost-model feedback ring in arrival order and
/// split the per-request |error| stream into quartiles. Returns
/// `(error_pcts, first_quartile_p50, last_quartile_p50)`.
fn run_dynamic_convergence(
    probes: u64,
    docroot: &std::path::Path,
) -> (Vec<(PredictionSample, u64)>, u64, u64) {
    let cluster = ServerOptions::new()
        .policy(sweb_core::Policy::RoundRobin)
        .shards(1)
        .start(1, docroot.to_path_buf())
        .expect("start cluster");
    let base = cluster.base_url(0).to_string();
    for i in 0..probes {
        let url = format!("{base}/cgi-bin/burn?cost=2000000&u=c{i}");
        match client::get_with_timeout(&url, Duration::from_secs(10)) {
            Ok(resp) => assert_eq!(resp.status, 200, "convergence probe {i} failed"),
            Err(e) => panic!("convergence probe {i} failed: {e}"),
        }
    }
    // Sequential single-connection probes under the 1024-slot ring: the
    // drained samples are the whole run, in arrival order.
    let samples: Vec<(PredictionSample, u64)> = cluster
        .node(0)
        .stats
        .feedback
        .samples()
        .into_iter()
        .map(|s| {
            let err = s.error_pct();
            (s, err)
        })
        .collect();
    cluster.shutdown();

    let p50_of = |window: &[(PredictionSample, u64)]| -> u64 {
        let mut errs: Vec<u64> = window.iter().map(|(_, e)| *e).collect();
        errs.sort_unstable();
        errs.get(errs.len() / 2).copied().unwrap_or(0)
    };
    let q = samples.len() / 4;
    let first = p50_of(&samples[..q.max(1).min(samples.len())]);
    let last = p50_of(&samples[samples.len() - q.max(1).min(samples.len())..]);
    (samples, first, last)
}

fn main_dynamic(args: &Args) {
    let workers = args.workers.unwrap_or(8);
    let requests = args.requests.unwrap_or(1200);
    let out_path =
        args.out.clone().unwrap_or_else(|| std::path::PathBuf::from("results/dynamic.csv"));
    let docroot = make_docroot();

    // Convergence pass first, on its own node: the A/B below must start
    // from the same cold oracle the convergence run measures. The probe
    // count is sized to the oracle's EWMA (alpha 0.25 converges in ~15
    // requests): the first quartile must still contain the warm-up
    // samples, or both quartile medians just measure the steady state.
    let probes = 96u64;
    eprintln!("enginebench: dynamic convergence, {probes} sequential burn probes");
    let (samples, err_first, err_last) = run_dynamic_convergence(probes, &docroot);
    eprintln!(
        "enginebench: oracle convergence: {} samples, |error| p50 first quartile {err_first}% \
         -> last quartile {err_last}%",
        samples.len(),
    );
    let pred_path = out_path
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("prediction_error.csv");
    let mut pred_out =
        open_csv(&pred_path, "scenario,engine,node,predicted_us,measured_us,error_pct");
    for (s, err) in &samples {
        writeln!(pred_out, "dynamic,reactor,0,{},{},{err}", s.predicted_us, s.measured_us)
            .unwrap();
    }

    // The A/B: same request budget through each dispatch shape. `fork`
    // and `inproc` get unique arguments (every request does real work);
    // `cached` cycles 8 argument sets so the response cache absorbs it.
    let modes = [
        DynMode {
            name: "fork",
            class: "fork",
            path: |i| format!("/cgi-bin/forkprobe?u={i}"),
            warm: false,
            fork: true,
        },
        DynMode {
            name: "inproc",
            class: "burn",
            path: |i| format!("/cgi-bin/burn?cost=20000&u={i}"),
            warm: false,
            fork: false,
        },
        DynMode {
            name: "cached",
            class: "burn",
            path: |i| format!("/cgi-bin/burn?cost=20000&u={}", i % 8),
            warm: true,
            fork: false,
        },
    ];
    let mut out = open_csv(
        &out_path,
        "mode,requests,workers,errors,duration_s,rps,p50_ms,p99_ms,invocations,cache_hits",
    );
    let mut json_rows = Vec::new();
    for mode in &modes {
        eprintln!(
            "enginebench: dynamic mode={} workers={workers} requests={requests}",
            mode.name
        );
        let rep = run_repeated(args.warmup, args.repeats, || {
            run_dynamic_mode(mode, workers, requests, &docroot)
        });
        let r = &rep.merged;
        let served = r.hist.count();
        let secs = r.duration.as_secs_f64().max(1e-9);
        let rps = served as f64 / secs;
        let p50 = r.hist.quantile(0.50) as f64 / 1000.0;
        let p99 = r.hist.quantile(0.99) as f64 / 1000.0;
        let row = format!(
            "{},{requests},{workers},{},{:.3},{rps:.1},{p50:.3},{p99:.3},{},{}",
            mode.name,
            r.errors,
            r.duration.as_secs_f64(),
            r.invocations,
            r.cache_hits,
        );
        writeln!(out, "{row}").unwrap();
        eprintln!("enginebench: {row}");
        json_rows.push(format!(
            "    {{\"mode\": \"{}\", \"errors\": {}, \"duration_s\": {:.3}, \"rps\": {rps:.1}, \
             \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \"invocations\": {}, \
             \"cache_hits\": {}, \"rps_stats\": {}, \"p99_ms_stats\": {}}}",
            mode.name,
            r.errors,
            r.duration.as_secs_f64(),
            r.invocations,
            r.cache_hits,
            rep.rps.json(),
            rep.p99_ms.json(),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"dynamic\",\n  \"schema_version\": 1,\n  \"nodes\": 1,\n  \
         \"requests\": {requests},\n  \"workers\": {workers},\n  \"warmup\": {},\n  \
         \"repeats\": {},\n  \"convergence\": {{\n    \
         \"probes\": {},\n    \"error_p50_first_quartile_pct\": {err_first},\n    \
         \"error_p50_last_quartile_pct\": {err_last}\n  }},\n  \"modes\": [\n{}\n  ]\n}}\n",
        args.warmup,
        args.repeats,
        samples.len(),
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_dynamic.json", json).expect("write BENCH_dynamic.json");
    println!("enginebench: wrote {}", out_path.display());
    println!("enginebench: wrote {}", pred_path.display());
    println!("enginebench: wrote BENCH_dynamic.json");
}

/// One leg of the overload ramp: `sent` open-loop arrivals, outcomes
/// bucketed by what the client saw.
struct OverloadOutcome {
    sent: u64,
    ok200: u64,
    /// 200s that also landed inside the goodput SLO.
    good: u64,
    shed503: u64,
    /// 503s that carried `Retry-After` (must equal `shed503`).
    shed_with_retry_after: u64,
    /// Client-side timeouts and transport errors — definite badput.
    errors: u64,
    duration: Duration,
    /// Latency of the 200s only (shed responses return in microseconds
    /// and would flatter the percentile columns).
    hist: Histogram,
}

impl BenchLeg for OverloadOutcome {
    fn hist(&self) -> &Histogram {
        &self.hist
    }
    fn duration(&self) -> Duration {
        self.duration
    }
    fn absorb(&mut self, other: Self) {
        self.sent += other.sent;
        self.ok200 += other.ok200;
        self.good += other.good;
        self.shed503 += other.shed503;
        self.shed_with_retry_after += other.shed_with_retry_after;
        self.errors += other.errors;
        self.duration += other.duration;
        self.hist.merge(&other.hist);
    }
}

/// Drive one cluster leg at `offered_rps` for `window` with an open-loop
/// arrival schedule: request `i` launches at `t0 + i/offered_rps`
/// whether or not earlier requests have finished — offered load is a
/// property of the *clients*, which is what makes overload possible.
/// Each request is a unique-argument `burn` invocation occupying a
/// server worker for `burn_ms` (a sleep, so capacity is the pool's and
/// identical on every host), and the response cache never absorbs the
/// ramp.
fn run_overload_leg(
    controller: bool,
    offered_rps: f64,
    window: Duration,
    burn_ms: u64,
    slo: Duration,
    client_pool: usize,
    docroot: &std::path::Path,
) -> OverloadOutcome {
    let cluster = ServerOptions::new()
        .policy(sweb_core::Policy::RoundRobin) // one node; never redirect
        .shards(1)
        .max_conns(4096)
        .handlers(DynamicRegistry::demo())
        .overload_control(controller)
        // Tight enough that the baseline's standing queue converts to
        // definite 503 overruns instead of 10 s client waits.
        .request_budget(Duration::from_secs(2))
        .start(1, docroot.to_path_buf())
        .expect("start cluster");
    let base = cluster.base_url(0).to_string();

    let total = (offered_rps * window.as_secs_f64()) as u64;
    let interval_ns = (1e9 / offered_rps) as u64;
    let next = Arc::new(AtomicU64::new(0));
    let ok200 = Arc::new(AtomicU64::new(0));
    let good = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let shed_ra = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..client_pool {
        let base = base.clone();
        let next = Arc::clone(&next);
        let ok200 = Arc::clone(&ok200);
        let good = Arc::clone(&good);
        let shed = Arc::clone(&shed);
        let shed_ra = Arc::clone(&shed_ra);
        let errors = Arc::clone(&errors);
        let hist = Arc::clone(&hist);
        let builder = std::thread::Builder::new().stack_size(128 * 1024);
        handles.push(builder.spawn(move || {
            let mut local = Histogram::new();
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    break;
                }
                let due = t0 + Duration::from_nanos(i * interval_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let url = format!("{base}/cgi-bin/burn?cost=1&ms={burn_ms}&u=ov{i}");
                match client::get_with_timeout(&url, Duration::from_secs(3)) {
                    Ok(resp) if resp.status == 200 => {
                        // Latency from the *scheduled* arrival, not the
                        // send: when the pool falls behind the schedule
                        // the wait in line is response time the offered
                        // load experienced (no coordinated omission).
                        let lat = due.elapsed();
                        local.record(lat.as_micros() as u64);
                        ok200.fetch_add(1, Ordering::Relaxed);
                        if lat <= slo {
                            good.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(resp) if resp.status == 503 => {
                        shed.fetch_add(1, Ordering::Relaxed);
                        if resp.headers.get("retry-after").is_some() {
                            shed_ra.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            hist.lock().unwrap().merge(&local);
        }).expect("spawn client"));
    }
    for h in handles {
        let _ = h.join();
    }
    let duration = t0.elapsed();
    cluster.shutdown();
    let hist = Arc::try_unwrap(hist).expect("workers joined").into_inner().unwrap();
    OverloadOutcome {
        sent: total,
        ok200: ok200.load(Ordering::Relaxed),
        good: good.load(Ordering::Relaxed),
        shed503: shed.load(Ordering::Relaxed),
        shed_with_retry_after: shed_ra.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        duration,
        hist,
    }
}

/// Closed-loop calibration: a handful of clients hammer the node
/// back-to-back for `window`; the 200 rate they sustain is the worker
/// pool's delivered capacity (nominally `workers * 1000 / burn_ms` rps).
/// Runs with the controller *off* — mild closed-loop queueing at 2x the
/// pool is the measurement, not something to shed.
fn run_overload_calibration(burn_ms: u64, docroot: &std::path::Path) -> f64 {
    let cluster = ServerOptions::new()
        .policy(sweb_core::Policy::RoundRobin)
        .shards(1)
        .max_conns(4096)
        .handlers(DynamicRegistry::demo())
        .overload_control(false)
        .start(1, docroot.to_path_buf())
        .expect("start cluster");
    let base = cluster.base_url(0).to_string();
    let window = Duration::from_secs(2);
    let ok200 = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..8 {
        let base = base.clone();
        let ok200 = Arc::clone(&ok200);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while t0.elapsed() < window {
                let url = format!("{base}/cgi-bin/burn?cost=1&ms={burn_ms}&u=cal{w}x{i}");
                i += 1;
                if let Ok(resp) = client::get_with_timeout(&url, Duration::from_secs(3)) {
                    if resp.status == 200 {
                        ok200.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    cluster.shutdown();
    ok200.load(Ordering::Relaxed) as f64 / secs
}

/// **overload**: the admission-controller A/B — a single reactor node
/// whose only workload occupies a worker for `burn_ms` per request,
/// driven open-loop at multiples of its measured capacity, once with the
/// adaptive controller (`overload on`) and once with only the static
/// shed points (full worker queue, deadline overruns — `overload off`).
/// The figure of merit is *goodput*: 200s delivered inside the SLO per
/// second. Past capacity the baseline's standing queue pushes every
/// response over the SLO, while the controller sheds early (fast 503 +
/// `Retry-After`) and keeps the admitted fraction fast.
fn main_overload(args: &Args) {
    // Pin the server worker pool so capacity is the same on every host
    // (and small enough to saturate from one process).
    std::env::set_var("SWEB_REACTOR_WORKERS", "4");
    let burn_ms: u64 = 10; // per-request worker occupancy
    let slo = Duration::from_millis(1000);
    let window = Duration::from_secs(4);
    // Enough client threads that in-flight demand can exceed the worker
    // submission queue (512): the baseline's static shed point must be
    // reachable, not fenced off by client-side concurrency.
    let client_pool = args.workers.unwrap_or(700);
    let out_path =
        args.out.clone().unwrap_or_else(|| std::path::PathBuf::from("results/overload.csv"));
    let docroot = make_docroot();

    let capacity = run_overload_calibration(burn_ms, &docroot);
    eprintln!(
        "enginebench: overload calibration: {capacity:.0} rps capacity \
         (4 workers x {burn_ms} ms)"
    );

    let mut out = open_csv(
        &out_path,
        "mode,offered_x,offered_rps,sent,ok200,good,shed503,errors,duration_s,goodput_rps,\
         p50_ms,p99_ms",
    );
    let mut json_steps = Vec::new();
    for offered_x in [0.5f64, 1.0, 2.0, 3.0] {
        let offered = (capacity * offered_x).max(10.0);
        let mut json_legs = Vec::new();
        for (mode, controller) in [("controller", true), ("static503", false)] {
            eprintln!(
                "enginebench: overload {mode} offered {offered:.0} rps ({offered_x}x capacity)"
            );
            let rep = run_repeated(args.warmup, args.repeats, || {
                run_overload_leg(controller, offered, window, burn_ms, slo, client_pool, &docroot)
            });
            let r = &rep.merged;
            // Goodput is normalized by the *scheduled* window: the
            // offered load is defined over those seconds, and a leg
            // that stretches past them (clients queueing behind a
            // saturated server) earns no denominator relief for it.
            // Repeats each schedule their own window, so the
            // denominator scales with the measured repeat count.
            let goodput =
                r.good as f64 / (window.as_secs_f64() * args.repeats.max(1) as f64);
            let p50 = r.hist.quantile(0.50) as f64 / 1000.0;
            let p99 = r.hist.quantile(0.99) as f64 / 1000.0;
            let row = format!(
                "{mode},{offered_x},{offered:.0},{},{},{},{},{},{:.3},{goodput:.1},\
                 {p50:.3},{p99:.3}",
                r.sent,
                r.ok200,
                r.good,
                r.shed503,
                r.errors,
                r.duration.as_secs_f64(),
            );
            writeln!(out, "{row}").unwrap();
            eprintln!("enginebench: {row}");
            if r.shed_with_retry_after != r.shed503 {
                eprintln!(
                    "enginebench: WARNING: {} of {} 503s lacked Retry-After",
                    r.shed503 - r.shed_with_retry_after,
                    r.shed503
                );
            }
            json_legs.push(format!(
                "      \"{mode}\": {{\"sent\": {}, \"ok200\": {}, \"good\": {}, \
                 \"shed503\": {}, \"shed_with_retry_after\": {}, \"errors\": {}, \
                 \"duration_s\": {:.3}, \"goodput_rps\": {goodput:.1}, \"p50_ms\": {p50:.3}, \
                 \"p99_ms\": {p99:.3}, \"rps_stats\": {}, \"p99_ms_stats\": {}}}",
                r.sent,
                r.ok200,
                r.good,
                r.shed503,
                r.shed_with_retry_after,
                r.errors,
                r.duration.as_secs_f64(),
                rep.rps.json(),
                rep.p99_ms.json(),
            ));
        }
        json_steps.push(format!(
            "    {{\n      \"offered_x\": {offered_x},\n      \"offered_rps\": {offered:.0},\n\
             {}\n    }}",
            json_legs.join(",\n")
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"overload\",\n  \"schema_version\": 1,\n  \"nodes\": 1,\n  \
         \"server_workers\": 4,\n  \"burn_ms\": {burn_ms},\n  \"slo_ms\": {},\n  \
         \"window_s\": {},\n  \"client_pool\": {client_pool},\n  \"warmup\": {},\n  \
         \"repeats\": {},\n  \"capacity_rps\": {capacity:.0},\n  \"steps\": [\n{}\n  ]\n}}\n",
        slo.as_millis(),
        window.as_secs(),
        args.warmup,
        args.repeats,
        json_steps.join(",\n")
    );
    std::fs::write("BENCH_overload.json", json).expect("write BENCH_overload.json");
    println!("enginebench: wrote {}", out_path.display());
    println!("enginebench: wrote BENCH_overload.json");
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--hold-helper") {
        hold_helper(&argv[2], &argv[3], argv.get(4).map(String::as_str));
        return;
    }
    if argv.get(1).map(String::as_str) == Some("--serve-helper") {
        serve_helper(&argv[2], &argv[3], &argv[4]);
        return;
    }
    let args = parse_args();
    match args.scenario {
        Scenario::ZeroCopy => main_zerocopy(&args),
        Scenario::Shards => main_shards(&args),
        Scenario::Forward => main_forward(&args),
        Scenario::Uring => main_uring(&args),
        Scenario::Dynamic => main_dynamic(&args),
        Scenario::Overload => main_overload(&args),
    }
}
