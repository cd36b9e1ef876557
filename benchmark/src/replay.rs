//! Layer replay: the generated requests pushed through each crate's public
//! functions, timed from outside. This is the only module that imports
//! `sweb_*` crates; every function it calls is part of the benchmark's
//! pinned surface (see README.md).
//!
//! Two passes. The *span pass* walks a few thousand requests through the
//! request-path stages with a span around every call, for the trace file.
//! The *timing pass* runs each function in a tight loop, in
//! [`BATCHES`] batches of at most [`BATCH_CALLS`] calls, and reports the
//! median batch's time per call.

use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sweb_cluster::{presets, NodeId};
use sweb_core::{
    AdmissionController, AdmitClass, Broker, CostInputs, CostModel, LoadTable, LoadVector, Oracle,
    PeerBreakers, Policy, RequestInfo, SwebConfig,
};
use sweb_des::SimTime;
use sweb_http::{body_copies, try_parse_request, Request, Response};
use sweb_peer::Frame;
use sweb_reactor::slab::Slab;
use sweb_reactor::timer::{TimerEntry, TimerWheel};
use sweb_reactor::workers::WorkerPool;
use sweb_reactor::{App, ReactorConfig, Reply};
use sweb_server::dynamic::{canonicalize_args, DynamicCache};
use sweb_server::file_cache::{key_of, FileCache};
use sweb_telemetry::{AtomicHistogram, Phase, PhaseTimes, Registry, ShardedCounter};

use crate::client::http_get;
use crate::gen::{self, Manifest, Req, RequestGen, Spec};
use crate::stats::median;
use crate::trace::{Span, Tracer};

const BATCHES: u32 = 5;
/// Calls at which a batch is long enough whatever time is left: 200,000
/// calls over the batches. A nanosecond-scale function stops here, and what
/// it leaves of its share goes to the slower ones after it.
const BATCH_CALLS: u64 = 40_000;
/// Requests walked through the span pass.
const SPAN_REQUESTS: usize = 2_000;
/// Distinct request byte strings the timing pass cycles over.
const SAMPLE_REQUESTS: usize = 1_024;
/// swebd's shipped file-cache capacity.
const FILE_CACHE_BYTES: u64 = 16 << 20;
const BULK_BYTES: usize = 1_500_000;

/// Median over [`BATCHES`] batches of the nanoseconds one call of `f`
/// takes, spending at most about `budget` in total.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let per_batch = budget / (BATCHES + 1);
    // Calibrate the batch size on doubling runs (these also warm caches).
    let mut calls: u64 = 1;
    let calls = loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = t.elapsed();
        if took >= per_batch / 8 || calls >= 1 << 28 {
            let scale = per_batch.as_secs_f64() / took.as_secs_f64().max(1e-9);
            break ((calls as f64 * scale) as u64).clamp(1, BATCH_CALLS);
        }
        calls *= 2;
    };
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// The timing pass's time, handed out as it goes: each timed function may
/// spend an equal share of what is left, so time a fast one returns is
/// spent by the slow ones after it.
struct Budget {
    deadline: Instant,
    /// Timed functions still to come.
    left: u32,
}

impl Budget {
    fn share(&mut self) -> Duration {
        let share = self.deadline.saturating_duration_since(Instant::now()) / self.left.max(1);
        self.left = self.left.saturating_sub(1);
        share
    }
}

/// Path, response size and handler class of one generated request, as the
/// server's preprocessing step would find them.
fn target(manifest: &Manifest, req: Req) -> (&str, u64, Option<&'static str>) {
    match req {
        Req::Get(rank) => (&manifest.files[rank].path, manifest.files[rank].len, None),
        Req::Search(_) => ("/cgi-bin/search", 4096, Some("search")),
        Req::Echo(_) => ("/cgi-bin/echo", 4096, Some("echo")),
    }
}

/// What the scheduler is told about one generated request.
fn request_info(spec: &Spec, manifest: &Manifest, oracle: &Oracle, req: Req) -> RequestInfo {
    let (path, size, class) = target(manifest, req);
    match class {
        None => {
            let home = sweb_server::home_of(path, spec.nodes);
            RequestInfo::fetch(key_of(path), size, home, oracle.characterize(path, size))
        }
        Some(class) => {
            let ops = oracle.characterize_dynamic(class, path, size);
            RequestInfo::fetch(key_of(path), size, NodeId(0), ops).dynamic(class)
        }
    }
}

/// A load table in which all `p` peers reported recently and are alive.
fn live_loads(p: usize) -> LoadTable {
    let mut loads = LoadTable::new(p);
    for i in 0..p {
        let load = LoadVector::new(0.1 + (i % 7) as f64 * 0.1, 0.2, 0.1);
        loads.update(NodeId(i as u32), load, SimTime::from_millis(100));
    }
    loads
}

fn sweb_broker() -> Broker {
    Broker::new(Policy::Sweb, CostModel::new(SwebConfig::default()))
}

/// The head of client 0's request stream: requests and their wire bytes.
fn sample_requests(spec: &Spec, seed: u64, manifest: &Manifest, n: usize) -> Vec<(Req, Vec<u8>)> {
    let mut gen = RequestGen::new(spec, seed, 0);
    (0..n)
        .map(|_| {
            let req = gen.next_req();
            let mut wire = Vec::new();
            gen::wire(req, manifest, spec.dynamic, &mut wire);
            (req, wire)
        })
        .collect()
}

/// The span pass: `replay -> http.parse | core.oracle | core.decide |
/// file_cache.get | http.serialize | telemetry.record` per request.
pub fn span_pass(
    spec: &Spec,
    seed: u64,
    manifest: &Manifest,
    docroot: &Path,
    epoch: Instant,
) -> io::Result<Vec<Span>> {
    let requests = sample_requests(spec, seed, manifest, SPAN_REQUESTS);
    let oracle = Oracle::ncsa_default();
    let broker = sweb_broker();
    let cluster = presets::meiko(spec.nodes);
    let loads = live_loads(spec.nodes);
    let cache = FileCache::new(FILE_CACHE_BYTES);
    for (req, _) in &requests {
        if let Req::Get(rank) = *req {
            let path = &manifest.files[rank].path;
            cache.read(path, &docroot.join(&path[1..]))?;
        }
    }
    let registry = Registry::new();
    let phases = PhaseTimes::register(&registry);
    let served = registry.counter("bench_served_total", &[], "replayed requests");
    // Owner index past the client threads'.
    let mut t = Tracer::new(gen::CLIENTS, epoch);
    for (req, wire) in &requests {
        let root = t.next_id();
        let start = Instant::now();
        let stage = |t: &mut Tracer, name: &'static str, from: Instant| {
            let now = Instant::now();
            t.push(root, root, name, from, now);
            now
        };
        let parsed = try_parse_request(wire);
        let at = stage(&mut t, "http.parse", start);
        let (path, size, _) = target(manifest, *req);
        black_box(oracle.characterize(path, size));
        let at = stage(&mut t, "core.oracle", at);
        let info = request_info(spec, manifest, &oracle, *req);
        black_box(broker.decide(
            &info,
            NodeId(0),
            &CostInputs { cluster: &cluster, loads: &loads },
        ));
        let at = stage(&mut t, "core.decide", at);
        let hit = cache.get(key_of(path));
        let at = stage(&mut t, "file_cache.get", at);
        let body = hit.map(|(body, _, _)| body).unwrap_or_default();
        black_box(Response::ok(body, "text/html").to_wire_parts(false));
        let at = stage(&mut t, "http.serialize", at);
        for phase in Phase::ALL {
            phases.record(phase, 10);
        }
        served.inc();
        let end = stage(&mut t, "telemetry.record", at);
        t.push_with_id(root, 0, root, "replay", start, end);
        black_box(parsed.is_ok());
    }
    Ok(t.spans)
}

/// A reactor application that answers everything with one fixed reply:
/// the bare-forwarding floor under every swebd request.
struct ConstantReply(Response);

impl App for ConstantReply {
    fn respond(&self, _peer: &str, _req: &Request, _body: &[u8]) -> Reply {
        Reply::from(self.0.clone())
    }
}

/// The timing pass. Returns `(metric name, value)` for every replay-sourced
/// per-layer metric, spending about `budget` in total.
pub fn timing_pass(
    spec: &Spec,
    seed: u64,
    manifest: &Manifest,
    docroot: &Path,
    scratch_dir: &Path,
    budget: Duration,
) -> io::Result<Vec<(&'static str, f64)>> {
    // 22 timed functions, the microsecond-scale ones last.
    let mut budget = Budget { deadline: Instant::now() + budget, left: 22 };
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let requests = sample_requests(spec, seed, manifest, SAMPLE_REQUESTS);
    let mut turn = 0usize;
    let mut next = move || {
        turn = (turn + 1) % SAMPLE_REQUESTS;
        turn
    };

    // ---- http
    out.push((
        "http.parse_ns",
        time_ns(budget.share(), || {
            black_box(try_parse_request(black_box(&requests[next()].1)).is_ok());
        }),
    ));
    let mean_body = manifest.files.iter().map(|f| f.len).sum::<u64>() / manifest.files.len() as u64;
    let body: Vec<u8> = vec![b'b'; mean_body.min(64 << 10) as usize];
    let shared = Response::ok(body, "text/html").body;
    let copies_before = body_copies();
    let mut responses = 0u64;
    out.push((
        "http.serialize_ns",
        time_ns(budget.share(), || {
            responses += 1;
            black_box(Response::ok(shared.clone(), "text/html").to_wire_parts(false));
        }),
    ));
    out.push((
        "http.body_copies_per_resp",
        (body_copies() - copies_before) as f64 / responses as f64,
    ));

    // ---- core
    let oracle = Oracle::ncsa_default();
    let infos: Vec<RequestInfo> =
        requests.iter().map(|(req, _)| request_info(spec, manifest, &oracle, *req)).collect();
    let broker = sweb_broker();
    for (name, p) in
        [("core.decide_ns_p3", 3), ("core.decide_ns_p32", 32), ("core.decide_ns_p128", 128)]
    {
        let cluster = presets::meiko(p);
        let loads = live_loads(p);
        // Homes spread over all p nodes, as hashing would place them.
        let spread: Vec<RequestInfo> = infos
            .iter()
            .map(|i| RequestInfo { home: NodeId((i.file.0 % p as u64) as u32), ..*i })
            .collect();
        out.push((
            name,
            time_ns(budget.share(), || {
                let inputs = CostInputs { cluster: &cluster, loads: &loads };
                black_box(broker.decide(black_box(&spread[next()]), NodeId(0), &inputs));
            }),
        ));
    }
    let paths: Vec<(&str, u64)> = manifest.files.iter().map(|f| (f.path.as_str(), f.len)).collect();
    out.push((
        "core.oracle_ns",
        time_ns(budget.share(), || {
            let (path, len) = paths[next() % paths.len()];
            black_box(oracle.characterize(black_box(path), len));
        }),
    ));
    let admission = AdmissionController::new();
    out.push((
        "core.admit_ns",
        time_ns(budget.share(), || {
            admission.observe(black_box(40));
            black_box(admission.admit(AdmitClass::StaticHit));
        }),
    ));
    let breakers = PeerBreakers::new(3);
    out.push((
        "core.breaker_ns",
        time_ns(budget.share(), || {
            black_box(breakers.allow(black_box(NodeId(1))));
        }),
    ));
    let mut loads = live_loads(3);
    let mut now_ms = 100;
    out.push((
        "core.loadtable_update_ns",
        time_ns(budget.share(), || {
            now_ms += 1;
            let load = LoadVector::new(0.5, 0.2, 0.1);
            black_box(loads.update(NodeId(1), black_box(load), SimTime::from_millis(now_ms)));
        }),
    ));

    // ---- server: file cache
    let cache = FileCache::new(FILE_CACHE_BYTES);
    let head = &manifest.files[..manifest.files.len().min(64)];
    for f in head {
        cache.read(&f.path, &docroot.join(&f.path[1..]))?;
    }
    // Later reads may have evicted earlier ones: keep what stayed.
    let resident: Vec<_> =
        head.iter().filter(|f| cache.resident(&f.path)).map(|f| key_of(&f.path)).collect();
    if resident.is_empty() {
        return Err(io::Error::other("no generated file fits the file cache"));
    }
    out.push((
        "file_cache.hit_ns",
        time_ns(budget.share(), || {
            black_box(cache.get(resident[next() % resident.len()]).is_some());
        }),
    ));

    // ---- server: dynamic cache
    let dynamic = DynamicCache::new(1024, Duration::from_secs(3600));
    let queries: Vec<String> = (0..512).map(gen::search_query).collect();
    for q in &queries {
        dynamic.insert(
            "search",
            &canonicalize_args(q, b""),
            Response::ok("hit", "text/html"),
            None,
        );
    }
    let canon: Vec<String> = queries.iter().map(|q| canonicalize_args(q, b"")).collect();
    out.push((
        "dynamic.cache_get_ns",
        time_ns(budget.share(), || {
            black_box(dynamic.get("search", &canon[next() % canon.len()]).is_some());
        }),
    ));
    out.push((
        "dynamic.canon_args_ns",
        time_ns(budget.share(), || {
            black_box(canonicalize_args(black_box(&queries[next() % queries.len()]), b""));
        }),
    ));

    // ---- peer
    let fetch = Frame::FetchReq {
        file: 7,
        trace: "n0-5e80cb54-4".into(),
        path: manifest.files[0].path.clone(),
    };
    let document =
        Frame::FetchOk { file: 7, mtime_ns: 1_700_000_000_000_000_000, body: vec![b'd'; 16 << 10] };
    out.push((
        "peer.encode_ns",
        time_ns(budget.share(), || {
            black_box(sweb_peer::encode(black_box(&fetch)));
            black_box(sweb_peer::encode(black_box(&document)));
        }),
    ));
    let (fetch_wire, document_wire) = (sweb_peer::encode(&fetch), sweb_peer::encode(&document));
    out.push((
        "peer.decode_ns",
        time_ns(budget.share(), || {
            black_box(sweb_peer::decode(black_box(&fetch_wire)).is_ok());
            black_box(sweb_peer::decode(black_box(&document_wire)).is_ok());
        }),
    ));

    // ---- telemetry
    let hist = AtomicHistogram::new();
    let mut v = 1u64;
    out.push((
        "telemetry.hist_record_ns",
        time_ns(budget.share(), || {
            v = v % 4000 + 7;
            hist.record(black_box(v));
        }),
    ));
    let registry = Registry::new();
    let counter = registry.counter("bench_plain_total", &[], "plain counter");
    let sharded = ShardedCounter::new(2);
    out.push((
        "telemetry.counter_inc_ns",
        time_ns(budget.share(), || {
            counter.inc();
            sharded.inc();
        }),
    ));

    // ---- reactor
    let mut slab: Slab<u64> = Slab::new();
    for i in 0..64 {
        slab.insert(i);
    }
    out.push((
        "reactor.slab_ns",
        time_ns(budget.share(), || {
            let (index, _) = slab.insert(black_box(9));
            black_box(slab.remove(index));
        }),
    ));
    let mut wheel = TimerWheel::new(256, 20);
    let mut expired = Vec::new();
    let mut clock_ms = 0u64;
    out.push((
        "reactor.timer_ns",
        time_ns(budget.share(), || {
            clock_ms += 1;
            wheel.schedule(TimerEntry { token: 1, gen: 0, deadline_ms: clock_ms + 40 });
            expired.clear();
            wheel.advance(clock_ms, &mut expired);
            black_box(expired.len());
        }),
    ));

    // ---- the microsecond-scale functions, on what the others left
    // One 1.5 MB file on disk under two cache keys that share a stripe:
    // the stripe holds one such body, so alternating the keys makes every
    // read a miss that inserts one body and evicts the other.
    let bulk = scratch_dir.join("replay-bulk.bin");
    std::fs::write(&bulk, vec![b'z'; BULK_BYTES])?;
    let full = FileCache::new(FILE_CACHE_BYTES);
    full.read("/replay/0", &bulk)?;
    let rival = (1..10_000)
        .map(|i| format!("/replay/{i}"))
        .find(|key| {
            full.read(key, &bulk).is_ok() && {
                let evicted = !full.resident("/replay/0");
                let _ = full.read("/replay/0", &bulk);
                evicted
            }
        })
        .ok_or_else(|| io::Error::other("no two keys share a cache stripe"))?;
    let mut flip = false;
    let miss_ns = time_ns(budget.share(), || {
        flip = !flip;
        let key = if flip { rival.as_str() } else { "/replay/0" };
        black_box(full.read(key, &bulk).is_ok());
    });
    out.push(("file_cache.read_miss_us", miss_ns / 1e3));
    // About 150 series, the size of swebd's own registry.
    let _phases = PhaseTimes::register(&registry);
    for i in 0..60 {
        registry.counter("bench_series_total", &[("i", &i.to_string())], "filler").add(i);
    }
    let render_ns = time_ns(budget.share(), || {
        black_box(registry.render_prometheus());
    });
    out.push(("telemetry.render_us", render_ns / 1e3));
    out.push(("reactor.worker_handoff_us", worker_handoff_us(budget.share())));
    out.push(("reactor.echo_rtt_us", echo_rtt_us(budget.share())?));
    Ok(out)
}

/// `WorkerPool::try_submit` to the first instruction of the job, mean per
/// batch, median over batches.
fn worker_handoff_us(budget: Duration) -> f64 {
    let pool = WorkerPool::new(4, 512, "bench");
    let (tx, rx) = mpsc::channel::<Duration>();
    let per_batch = budget / BATCHES;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (batch_start, mut total, mut n) = (Instant::now(), Duration::ZERO, 0u32);
            while batch_start.elapsed() < per_batch {
                let (tx, submitted) = (tx.clone(), Instant::now());
                let job = Box::new(move || {
                    let _ = tx.send(submitted.elapsed());
                });
                if pool.try_submit(job).is_ok() {
                    total += rx.recv().expect("the job sends before it ends");
                    n += 1;
                }
            }
            total.as_secs_f64() * 1e6 / f64::from(n.max(1))
        })
        .collect();
    median(&batches)
}

/// Round trip of one HTTP/1.0 request on a fresh loopback connection to
/// `sweb_reactor::spawn` serving a constant reply.
fn echo_rtt_us(budget: Duration) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let port = listener.local_addr()?.port();
    let shutdown = Arc::new(AtomicBool::new(false));
    let app = Arc::new(ConstantReply(Response::ok(vec![b'e'; 1024], "text/plain")));
    let handle =
        sweb_reactor::spawn(listener, app, ReactorConfig::default(), Arc::clone(&shutdown))?;
    let mut failed = false;
    let ns = time_ns(budget, || failed |= http_get(port, "/echo").is_err());
    shutdown.store(true, Ordering::SeqCst);
    handle.join()?;
    if failed {
        return Err(io::Error::other("the echo reactor dropped a request"));
    }
    Ok(ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_scales_with_the_work() {
        let spin = |n: u64| {
            time_ns(Duration::from_millis(30), || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = black_box(acc.wrapping_mul(31).wrapping_add(i));
                }
                black_box(acc);
            })
        };
        let (small, large) = (spin(100), spin(10_000));
        assert!(large > small * 20.0, "{small} vs {large}");
    }
}
