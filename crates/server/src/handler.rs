//! Request handling: schedule (serve or 302) and fulfill a parsed request.
//!
//! The §3.2 pipeline is one pipeline, split where it can first block.
//! [`first_look`] is everything that cannot: steps 1–3, the
//! fulfillments that are memory only, a large document whose pages are
//! all in the OS page cache (streamed from its fd), and handlers that
//! declare they cannot block and whose class has measured cheap. It ends
//! in a reply, or in a [`Continuation`] carrying what it computed into
//! the part that can sleep (disk reads, every other handler invocation,
//! status renders, reading a cold large document in). A
//! reactor loop thread runs the first look on the shard that parsed the
//! request and sends only continuations to the worker pool; a
//! worker that is handed a whole request ([`respond_parts`]) runs the
//! same two stages back to back.

use std::fs::File;
use std::io::{Read, Seek};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use sweb_cluster::{FileId, NodeId, Placement};
use sweb_core::{AdmitClass, Decision, RequestClass, RequestInfo};
use sweb_http::{Method, Request, Response, StatusCode};
use sweb_telemetry::Phase;

use crate::dynamic::DynamicHandler;
use crate::file_cache::{document, Document};
use crate::node::NodeShared;

/// A document this large is never copied into user space or into the
/// `FileCache`: it streams from its fd (`sendfile`) out of the OS page
/// cache. Below it the fd bookkeeping costs more than the copy it saves.
const SENDFILE_MIN: u64 = 256 << 10;

/// A non-blocking handler runs on the loop thread only while its class's
/// measured p99 (`sweb_dynamic_tcpu_us`) is at most this. It is a bucket
/// bound of that power-of-four histogram, and about ten inline answers'
/// worth of loop time (`sweb_inline_us` reads ≈ 10–30 µs): a class that
/// costs more than that per call is cheaper to hand to a worker than to
/// make every other connection on the shard wait behind.
const INLINE_BUDGET_US: u64 = 256;

/// The document's "home" node. Every node shares one document root (the
/// NFS crossmount); homes are assigned by hashing the path — the same
/// hash the file cache keys on, so home placement, cache digests and
/// residency checks all live in one `FileId` namespace.
pub fn home_of(path: &str, nodes: usize) -> NodeId {
    Placement::Hashed.home(crate::file_cache::key_of(path), nodes)
}

/// CLF method tag for a parsed request.
pub(crate) fn method_str(method: Method) -> &'static str {
    match method {
        Method::Get => "GET",
        Method::Head => "HEAD",
        Method::Post => "POST",
        Method::Other => "OTHER",
    }
}

/// The one load-derived `Retry-After` value every 503 path stamps: the
/// admission controller scales it with how far the last closed window's
/// queue delay stood above target, so a client backs off longer the
/// deeper the overload.
pub(crate) fn retry_after_secs(shared: &NodeShared) -> u64 {
    shared.admission.retry_after_secs()
}

/// The load-shedding answer for a request that blew its budget or was
/// refused admission: `503` with a load-derived `Retry-After`, on a
/// connection we are about to close. A definite refusal the client can
/// act on beats an open socket that never answers.
pub(crate) fn overloaded(shared: &NodeShared) -> Response {
    let mut resp = Response::error(StatusCode::ServiceUnavailable);
    resp.headers.set("Retry-After", retry_after_secs(shared).to_string());
    resp.headers.set("Connection", "close");
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

/// A response plus, for a document streamed from its fd (`sendfile`),
/// the open file and its length; the reactor consumes this shape
/// directly.
pub(crate) type Parts = (Response, Option<(File, u64)>);

/// What the first look at a request concluded.
pub(crate) enum Look {
    /// The finished reply; its file, if any, is open and resident.
    Done(Parts),
    /// Everything that cannot block is done and decided; what is left
    /// can sleep.
    Blocking(Continuation),
}

/// The rest of a request whose first look is done, carrying what the
/// first look computed so that nothing is computed — or decided — twice.
pub(crate) struct Continuation {
    trace: String,
    work: Work,
}

enum Work {
    /// `/sweb-status`: a 0.2–0.7 ms render, too long for a loop thread.
    Status,
    /// `/metrics`: likewise.
    Metrics,
    /// The admission controller shed this class at the level the first
    /// look read. The 503 itself is produced by a worker, never on the
    /// loop: the controller's level moves only on worker-queue samples,
    /// and a refusal that skipped the queue would starve it of the very
    /// samples that let the level come back down.
    Refuse(AdmitClass),
    /// Scheduled onto this node: fulfill locally.
    Serve(Serve),
}

/// A request the broker placed on this node, after steps 1–3.
struct Serve {
    path: String,
    file: FileId,
    size: u64,
    decision: Decision,
    target: Target,
    /// [`Serve::try_memory`] ran. Its lookups count cache hits and
    /// misses, so they run once per request.
    probed: bool,
}

enum Target {
    /// A document under the docroot, with the mtime its stat read. `hit`
    /// is the resident document the request's one cache lookup found, if
    /// it was cached at that mtime. `opened` is a large document the
    /// first look opened and found not all in the page cache: the worker
    /// reads it in from this fd rather than opening it again.
    Document { modified: Option<SystemTime>, hit: Option<Document>, opened: Option<File> },
    /// A registered handler. `key` is its response-cache key, once
    /// [`Serve::try_memory`] has asked for it.
    Handler { handler: Arc<dyn DynamicHandler>, key: Option<String> },
}

/// §3.2 steps 1–4 over a real request on one thread: the first look,
/// then whatever it left, back to back. This is the worker path; the
/// reactor's loop threads call [`first_look`] themselves and send only a
/// [`Continuation`] to the pool.
pub(crate) fn respond_parts(shared: &NodeShared, req: &Request, body: &[u8]) -> Parts {
    match first_look(shared, req, body) {
        Look::Done(parts) => parts,
        Look::Blocking(rest) => rest.run(shared, req, body),
    }
}

/// The part of the pipeline that cannot block: preprocess, analyze,
/// schedule (steps 1–3), then the fulfillments that are memory only — a
/// resident document, a dynamic-cache hit, a large document all in the
/// OS page cache — or a short computation: a handler that cannot block,
/// of a class measured cheap. Its budget is one `stat`, short locks and
/// computation, plus one `open` and one `cachestat` for a large
/// document, so a reactor loop thread can run it between two socket
/// events.
///
/// Every response carries an `X-SWEB-Trace` header: the id the request
/// arrived with (carried through a 302 hop as a `sweb-trace` query
/// parameter) or a freshly minted one, so one logical request is joinable
/// across nodes in the access logs.
pub(crate) fn first_look(shared: &NodeShared, req: &Request, body: &[u8]) -> Look {
    let trace = sweb_http::trace_of(&req.target)
        .map(str::to_owned)
        .unwrap_or_else(|| shared.stats.new_trace_id(shared.id));
    let mut look = look(shared, req, body, &trace);
    if let Look::Done((resp, _)) = &mut look {
        resp.headers.set("X-SWEB-Trace", trace);
    }
    look
}

/// A finished reply with no file to stream.
fn done(resp: Response) -> Look {
    Look::Done((resp, None))
}

/// The pipeline behind [`first_look`]; a finished reply leaves here
/// without its trace header.
fn look(shared: &NodeShared, req: &Request, body: &[u8], trace: &str) -> Look {
    let rest = |work| Look::Blocking(Continuation { trace: trace.to_owned(), work });
    // Step 1: preprocess — method check, path completion, existence.
    if !req.method.is_supported() {
        return done(Response::error(StatusCode::NotImplemented));
    }
    let Some(path) = req.path() else {
        return done(Response::error(StatusCode::Forbidden)); // traversal attempt
    };
    // Administrative endpoints: always answered by the node they reached.
    if path == crate::status::STATUS_PATH {
        return rest(Work::Status);
    }
    if path == crate::status::METRICS_PATH {
        return rest(Work::Metrics);
    }
    let is_dynamic = req.is_cgi();
    if req.method == Method::Post && !is_dynamic {
        // POST targets programs, not documents.
        return done(Response::error(StatusCode::MethodNotAllowed));
    }
    let rel = relative(&path);
    if rel.is_empty() {
        return done(Response::error(StatusCode::NotFound));
    }
    // The request's one cache lookup: admission class, the scheduler's
    // residency term and the body served all come from it.
    let file = crate::file_cache::key_of(&path);
    let resident = if is_dynamic { None } else { shared.file_cache.peek(file, &path) };
    // Adaptive admission: classify the request by what it would cost us
    // and shed the expensive classes first as the controller's level
    // rises. Admin endpoints never reach this point — an operator must be
    // able to see an overloaded node.
    if shared.overload_control {
        let class = if is_dynamic {
            AdmitClass::Dynamic
        } else if resident.is_some() {
            AdmitClass::StaticHit
        } else {
            AdmitClass::StaticMiss
        };
        if !shared.admission.admit(class) {
            return rest(Work::Refuse(class));
        }
    }
    // Existence + size: a filesystem stat for documents, a registry lookup
    // (with the handler's own size hint) for dynamic requests. The
    // handler class rides into the scheduler so the oracle prices the
    // class, not just "CGI".
    let (size, target) = if is_dynamic {
        match shared.dynamic.registry().lookup(&path) {
            Some(handler) => {
                (handler.size_hint(), Target::Handler { handler: Arc::clone(handler), key: None })
            }
            None => return done(Response::error(StatusCode::NotFound)),
        }
    } else {
        let Ok(meta) = shared.stat(rel) else {
            return done(Response::error(StatusCode::NotFound));
        };
        if !meta.is_file {
            return done(Response::error(StatusCode::Forbidden));
        }
        let modified = meta.modified;
        // Conditional GET: a fresh client copy costs us only the stat —
        // answer 304 here, before any scheduling.
        let mtime = modified
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| d.as_secs());
        if let (Some(mtime), Some(ims)) = (
            mtime,
            req.headers.get("if-modified-since").and_then(sweb_http::parse_http_date),
        ) {
            if mtime <= ims {
                let mut resp = Response::empty(StatusCode::NotModified);
                resp.headers.set("Last-Modified", sweb_http::format_http_date(mtime));
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                return done(resp);
            }
        }
        // An edited document is never served stale: a resident document
        // counts only while its mtime is the file's.
        let hit = resident.filter(|doc| modified == Some(doc.mtime));
        (meta.len, Target::Document { modified, hit, opened: None })
    };
    let class = match &target {
        Target::Handler { handler, .. } => Some(handler.class()),
        Target::Document { .. } => None,
    };

    // Step 2: analyze — build the scheduler's view of the request.
    let nodes = shared.cluster.len();
    let redirected = req.already_redirected();
    if redirected {
        shared.stats.received_redirects.inc();
    }
    let info = RequestInfo {
        // Real identity: the same FileId the cache digests advertise, so
        // the broker can match this request against peers' digests.
        file,
        size,
        home: home_of(&path, nodes),
        // Dynamic classes are priced from the oracle's measured-feedback
        // table once it has samples; static paths from the rule table.
        cpu_ops: match class {
            Some(c) => shared.oracle.characterize_dynamic(c, &path, size),
            None => shared.oracle.characterize(&path, size),
        },
        redirected,
        // POST is non-idempotent: never reassign it (§3.2 step 2's
        // "always completed at x" class).
        pinned_local: !req.method.is_redirectable(),
        // Residency feeds the cache-aware cost terms.
        cached_at_origin: shared.sweb.cache_aware_cost
            && matches!(&target, Target::Document { hit: Some(_), .. }),
        class: class.map_or(RequestClass::Static, RequestClass::Dynamic),
    };
    let decide_started = Instant::now();
    let own_load = crate::loadd::sample_load(shared);
    let decision = {
        // One guard for both: refresh our own entry so local load is
        // never stale, then choose (which Δ-bumps the chosen entry).
        // Loop threads decide now, so this is the lock the shards and
        // loadd's receiver meet on.
        let mut loads = shared.loads.write();
        loads.update(shared.id, own_load, shared.now());
        shared.broker.choose(&info, shared.id, &shared.cluster, &mut loads)
    };
    shared.stats.phases.record(Phase::Decide, decide_started.elapsed().as_micros() as u64);

    // Step 3: redirection — the trace id rides the Location URL, because
    // clients do not forward response headers across a 302.
    if let Some(target) = decision.redirect_target() {
        return done(redirect(shared, req, target, trace));
    }

    // Step 4, the part of it that cannot block. While a fault plan is
    // active nothing is served from here: injected brownouts and slow
    // disks sleep in `fulfill`, ahead of every read.
    let mut serve = Serve { path, file, size, decision, target, probed: false };
    if !shared.chaos.is_active() {
        let fetch_started = Instant::now();
        let inline = serve
            .try_memory(shared, req, body)
            .or_else(|| serve.try_cheap(shared, req, body))
            .map(|resp| (resp, None))
            .or_else(|| serve.try_stream(shared));
        if let Some(parts) = inline {
            serve.fetched(shared, fetch_started);
            return Look::Done(parts);
        }
    }
    rest(Work::Serve(serve))
}

/// The 302 that sends `req` to `target`.
fn redirect(shared: &NodeShared, req: &Request, target: NodeId, trace: &str) -> Response {
    let base = &shared.peer_http[target.index()];
    let marked = sweb_http::mark_trace(&req.target, trace);
    let mut resp = Response::redirect_to_peer(base, &marked);
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

/// The docroot-relative path of a request path.
fn relative(path: &str) -> &str {
    path.trim_start_matches('/')
}

impl Continuation {
    /// Finish the request. May block: call from a worker thread.
    pub(crate) fn run(self, shared: &NodeShared, req: &Request, body: &[u8]) -> Parts {
        let (mut resp, file) = match self.work {
            Work::Status => (crate::status::render(shared, req.query()), None),
            Work::Metrics => (crate::status::render_metrics(shared), None),
            Work::Refuse(class) => {
                shared.admission.shed();
                shared.stats.admission_shed_counter(class).inc();
                (overloaded(shared), None)
            }
            Work::Serve(serve) => serve.run(shared, req, body),
        };
        resp.headers.set("X-SWEB-Trace", self.trace);
        (resp, file)
    }
}

impl Serve {
    /// Memory-only fulfillment: the resident document the request's
    /// lookup found (body and head as its entry holds them), or a
    /// dynamic-cache hit.
    fn try_memory(&mut self, shared: &NodeShared, req: &Request, body: &[u8]) -> Option<Response> {
        self.probed = true;
        match &mut self.target {
            Target::Document { hit, .. } => {
                let doc = hit.take()?;
                shared.file_cache.touch(self.file);
                Some(doc.reply())
            }
            Target::Handler { handler, key } => {
                // Nobody can reuse a POST's reply: caching it would only
                // evict replies that somebody can.
                *key = match req.method {
                    Method::Post => None,
                    _ => handler.cache_key(req, body),
                };
                let class = handler.class();
                let mut resp = shared.dynamic.cache.get(class, key.as_deref()?)?;
                if let Some(s) = shared.dynamic.class_stats(class) {
                    s.cache_hits.inc();
                }
                resp.headers.set("X-SWEB-Dynamic-Cache", "hit");
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                Some(resp)
            }
        }
    }

    /// The handler invoked on this thread, when it cannot block for this
    /// request and its class has measured cheap. A class with no samples
    /// yet is not trusted: its first invocation takes the pool and is
    /// measured there. Called after [`Serve::try_memory`] missed.
    fn try_cheap(&self, shared: &NodeShared, req: &Request, body: &[u8]) -> Option<Response> {
        let Target::Handler { handler, key } = &self.target else { return None };
        let tcpu = &shared.dynamic.class_stats(handler.class())?.tcpu_us;
        let cheap = tcpu.count() > 0 && tcpu.quantile(0.99) <= INLINE_BUDGET_US;
        (cheap && !handler.blocking(req, body))
            .then(|| invoke(shared, handler.as_ref(), key.as_deref(), req, body))
    }

    /// A document of at least [`SENDFILE_MIN`] all in the OS page cache,
    /// opened for the loop to `sendfile` without waiting on the disk. A
    /// cold range, or no `cachestat`, leaves the reading in to a worker,
    /// with the file already open.
    fn try_stream(&mut self, shared: &NodeShared) -> Option<Parts> {
        let Target::Document { modified, opened, .. } = &mut self.target else { return None };
        if self.size < SENDFILE_MIN {
            return None;
        }
        let file = File::open(shared.docroot.join(relative(&self.path))).ok()?;
        if let Ok(true) = sweb_reactor::sys::page_cached(file.as_raw_fd(), self.size) {
            let modified = *modified;
            return Some(self.streamed(shared, file, modified));
        }
        *opened = Some(file);
        None
    }

    /// `200` for the document streamed from `file` (`sendfile`): the head
    /// [`document`] builds, and the file's first `size` bytes as the body.
    fn streamed(&self, shared: &NodeShared, file: File, mtime: Option<SystemTime>) -> Parts {
        (document(shared.id, &self.path, Bytes::new(), mtime), Some((file, self.size)))
    }

    /// Step 4's accounting, once per request fulfilled here, timed against
    /// the broker's prediction: the chosen candidate's per-term estimate
    /// is what this very fetch was scheduled on, so the pair feeds the
    /// prediction-error histograms.
    fn fetched(&self, shared: &NodeShared, started: Instant) {
        let fetch_us = started.elapsed().as_micros() as u64;
        shared.stats.phases.record(Phase::Fetch, fetch_us);
        let cost = self.decision.cost;
        shared.stats.feedback.record(cost.t_redirection, cost.t_data, cost.t_cpu, fetch_us);
    }

    fn run(mut self, shared: &NodeShared, req: &Request, body: &[u8]) -> Parts {
        // Step 4: fulfillment.
        let fetch_started = Instant::now();
        let result = self.fulfill(shared, req, body);
        self.fetched(shared, fetch_started);
        result
    }

    /// Local fulfillment: invoke the dynamic handler or read the document.
    fn fulfill(&mut self, shared: &NodeShared, req: &Request, body: &[u8]) -> Parts {
        // Fault injection: a browned-out node serves *everything* late —
        // dynamic and static alike — unlike SlowDisk, which models one slow
        // device. The stall sits in the fetch phase, where the reactor's
        // deadline check after the reply sees it.
        if shared.chaos.is_active() {
            if let Some(extra) = shared.chaos.brownout_delay(shared.id.0) {
                std::thread::sleep(extra);
            }
            // A degraded disk/NFS mount serves reads late, not wrong.
            if matches!(self.target, Target::Document { .. }) {
                if let Some(extra) = shared.chaos.disk_delay(shared.id.0) {
                    std::thread::sleep(extra);
                }
            }
        }
        if !self.probed {
            if let Some(resp) = self.try_memory(shared, req, body) {
                return (resp, None);
            }
        }
        let (modified, mut opened) = match &mut self.target {
            Target::Handler { handler, key } => {
                return (invoke(shared, handler.as_ref(), key.as_deref(), req, body), None);
            }
            Target::Document { modified, opened, .. } => (*modified, opened.take()),
        };
        // The full path is built here, where a read or an open needs it.
        let full = shared.docroot.join(relative(&self.path));
        // One size rule: a large document streams from its fd, and the
        // FileCache keeps the smaller bodies repeat requests share.
        if self.size >= SENDFILE_MIN {
            let resident = read_with_retry(shared, || {
                let file = match opened.take() {
                    Some(file) => file,
                    None => File::open(&full)?,
                };
                read_in(file, self.size)
            });
            return match resident {
                Ok(file) => self.streamed(shared, file, modified),
                Err(_) => (Response::error(StatusCode::InternalServerError), None),
            };
        }
        match read_with_retry(shared, || shared.file_cache.load(&self.path, &full)) {
            Ok(doc) => (doc.reply(), None),
            Err(_) => (Response::error(StatusCode::InternalServerError), None),
        }
    }
}

/// `file` with its first `len` bytes in the OS page cache, reading a
/// cold range through once, into nothing, so the loop's `sendfile` never
/// waits on the disk for it. Blocks: a worker's job.
fn read_in(mut file: File, len: u64) -> std::io::Result<File> {
    if let Ok(false) = sweb_reactor::sys::page_cached(file.as_raw_fd(), len) {
        std::io::copy(&mut (&file).take(len), &mut std::io::sink())?;
        file.rewind()?;
    }
    Ok(file)
}

/// Run a filesystem read, retrying transient failures with bounded
/// backoff (two retries, 1 ms then 2 ms). `NotFound` is definitive — the
/// file will not appear because we waited — so it returns immediately;
/// anything else (EMFILE under fd pressure, EINTR, a flaky NFS mount)
/// gets a second and third chance before becoming a 500.
///
/// Each retry spends a token from the node's fetch retry budget (each
/// success deposits a fraction of one back): when most fetches are
/// failing, the budget drains and the node fails fast instead of
/// tripling the load on an already-struggling disk.
fn read_with_retry<T>(
    shared: &NodeShared,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut backoff = Duration::from_millis(1);
    for attempt in 0..3 {
        match op() {
            Ok(v) => {
                if shared.overload_control {
                    shared.fetch_retry_budget.on_success();
                }
                return Ok(v);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
            Err(e) if attempt == 2 => return Err(e),
            Err(e) => {
                if shared.overload_control && !shared.fetch_retry_budget.try_retry() {
                    shared.stats.retry_budget_exhausted.inc();
                    return Err(e);
                }
                shared.stats.fetch_retries.inc();
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
    unreachable!("loop returns on attempt == 2")
}

/// Invoke a dynamic handler whose response cache, keyed by `key`, has
/// already missed (on a worker, or on the loop thread for a cheap
/// non-blocking class: [`Serve::try_cheap`]), timed. The measurement
/// feeds the per-class `t_cpu` histogram *and* the oracle's tuned table
/// (converted to ops at this node's clock), closing the
/// predicted-vs-measured loop per handler class. Only real invocations
/// feed the oracle: a cache hit measures the cache, not the handler.
fn invoke(
    shared: &NodeShared,
    handler: &dyn DynamicHandler,
    key: Option<&str>,
    req: &Request,
    body: &[u8],
) -> Response {
    let class = handler.class();
    let invoke_started = Instant::now();
    let mut resp = handler.handle(shared, req, body);
    let elapsed = invoke_started.elapsed();
    if let Some(s) = shared.dynamic.class_stats(class) {
        s.invocations.inc();
        s.tcpu_us.record(elapsed.as_micros() as u64);
    }
    let ops_per_sec = shared.cluster.nodes[shared.id.index()].cpu_ops_per_sec;
    let cpu_load = shared.loads.read().load(shared.id).cpu;
    shared.oracle.observe(class, measured_ops(elapsed, ops_per_sec, cpu_load));
    if resp.status == StatusCode::Ok {
        if let Some(k) = key {
            // Cache the reply *before* the per-request headers go on: a
            // future hit stamps its own node and cache markers.
            shared.dynamic.cache.insert(class, k, resp.clone(), handler.ttl());
            resp.headers.set("X-SWEB-Dynamic-Cache", "miss");
        }
    }
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

/// One invocation's wall time as load-independent work for the oracle.
/// The invocation ran at the *effective* (load-degraded) rate, so that is
/// the rate that maps its duration back to operations. The cost model
/// re-divides by the same `1 + cpu_load` factor at prediction time (§3.2
/// t_cpu); feeding the idle rate here would double-count the load.
///
/// At nanosecond resolution, and never zero: a handler that returns in
/// under a microsecond still took time, and the oracle drops a zero.
fn measured_ops(elapsed: Duration, ops_per_sec: f64, cpu_load: f64) -> f64 {
    let secs = elapsed.as_nanos().max(1) as f64 * 1e-9;
    secs * ops_per_sec / (1.0 + cpu_load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sub_microsecond_handler_still_seeds_the_oracle() {
        let oracle = sweb_core::Oracle::ncsa_default();
        for (class, nanos) in [("quick", 400), ("instant", 0)] {
            let elapsed = Duration::from_nanos(nanos);
            assert_eq!(elapsed.as_micros(), 0, "what microsecond timing measured");
            oracle.observe(class, measured_ops(elapsed, 40e6, 0.5));
            assert!(oracle.tuned_ops(class).is_some_and(|ops| ops > 0.0), "{class}");
        }
        // 400 ns at 40 Mops/s is 16 ops; under a load of 0.5, two thirds of that.
        let ops = measured_ops(Duration::from_nanos(400), 40e6, 0.5);
        assert!((ops - 400e-9 * 40e6 / 1.5).abs() < 1e-9, "{ops}");
    }

    /// The reply the loop thread would send for `GET path`, if the first
    /// look finishes it.
    fn inline_reply(node: &NodeShared, path: &str) -> Option<Response> {
        let raw = format!("GET {path} HTTP/1.0\r\n\r\n");
        let (req, _) = sweb_http::parse_request(raw.as_bytes()).unwrap();
        match first_look(node, &req, b"") {
            Look::Done((resp, None)) => Some(resp),
            Look::Done((_, Some(_))) => panic!("a small document is never streamed"),
            Look::Blocking(_) => None,
        }
    }

    /// The reply the worker path sends for `GET path`.
    fn pooled_reply(node: &NodeShared, path: &str) -> Response {
        let raw = format!("GET {path} HTTP/1.0\r\n\r\n");
        let (req, _) = sweb_http::parse_request(raw.as_bytes()).unwrap();
        respond_parts(node, &req, b"").0
    }

    #[test]
    fn a_resident_documents_head_is_built_once_per_entry() {
        let dir = std::env::temp_dir().join(format!("sweb-head-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let page = dir.join("page.html");
        std::fs::write(&page, "version one").unwrap();
        let old = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
        std::fs::File::options().write(true).open(&page).unwrap().set_modified(old).unwrap();
        let cfg = crate::ClusterConfig { shards: 1, ..crate::ClusterConfig::default() };
        let cluster = crate::LiveCluster::start(1, dir.clone(), cfg).unwrap();
        let node = cluster.node(0);

        // The miss builds the entry, and is served with the entry's head.
        assert!(inline_reply(node, "/page.html").is_none(), "a miss goes to the pool");
        let miss = pooled_reply(node, "/page.html");
        let head = |resp: &Response| resp.shared_head.clone().expect("a document's head is shared");
        let entry_head = head(&miss);
        let a = inline_reply(node, "/page.html").expect("a resident hit is inline");
        let b = inline_reply(node, "/page.html").expect("a resident hit is inline");
        for hit in [&a, &b] {
            assert_eq!(head(hit).before_gap().as_ptr(), entry_head.before_gap().as_ptr());
            assert_eq!(&hit.body[..], b"version one");
        }
        // Each reply writes only its own trace line into the gap.
        let lines: Vec<&str> = a.headers.iter().map(|(name, _)| name).collect();
        assert_eq!(lines, ["X-SWEB-Trace"]);
        let wire = String::from_utf8(a.head_bytes()).unwrap();
        assert!(wire.contains("Last-Modified: Sun, 09 Sep 2001 01:46:40 GMT\r\n"), "{wire}");

        // A rewrite with a newer mtime: the stale head is never served.
        std::fs::write(&page, "version two").unwrap();
        let new = old + Duration::from_secs(3_600);
        std::fs::File::options().write(true).open(&page).unwrap().set_modified(new).unwrap();
        assert!(inline_reply(node, "/page.html").is_none(), "a stale entry is a miss");
        let reread = pooled_reply(node, "/page.html");
        let rebuilt = head(&reread);
        assert_ne!(rebuilt.before_gap().as_ptr(), entry_head.before_gap().as_ptr());
        let c = inline_reply(node, "/page.html").expect("the new entry is a hit");
        assert_eq!(head(&c).before_gap().as_ptr(), rebuilt.before_gap().as_ptr());
        for resp in [&reread, &c] {
            let wire = String::from_utf8(resp.head_bytes()).unwrap();
            assert!(wire.contains("Last-Modified: Sun, 09 Sep 2001 02:46:40 GMT\r\n"), "{wire}");
            assert_eq!(&resp.body[..], b"version two");
        }
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn home_assignment_is_stable_and_in_range() {
        for nodes in 1..8 {
            for path in ["/a.html", "/maps/goleta.gif", "/x/y/z"] {
                let a = home_of(path, nodes);
                let b = home_of(path, nodes);
                assert_eq!(a, b);
                assert!((a.0 as usize) < nodes);
            }
        }
    }

    #[test]
    fn distinct_paths_spread_over_nodes() {
        let nodes = 4;
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(home_of(&format!("/doc{i}.html"), nodes));
        }
        assert!(seen.len() >= 3, "hash placement too clumpy: {seen:?}");
    }
}
