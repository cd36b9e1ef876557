//! Request handling: schedule (serve or 302) and fulfill a parsed request.

use std::time::{Duration, Instant};

use sweb_cluster::{NodeId, Placement};
use sweb_core::{AdmitClass, RequestClass, RequestInfo};
use sweb_http::{mime_for_path, Method, Request, Response, StatusCode};
use sweb_telemetry::Phase;

use crate::node::NodeShared;

/// Smallest document worth streaming via `sendfile` instead of buffering:
/// below this the fd bookkeeping costs more than the copy it saves.
const SENDFILE_MIN: u64 = 256 << 10;

/// Wall-clock bound on one peer pull.
const FORWARD_BUDGET: Duration = Duration::from_secs(2);

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

/// §3.2 steps 1–4 over a real request, zero-copy form: large uncacheable
/// documents come back as `(head-only response, Some((open fd, length)))`
/// for the caller to stream (`sendfile`), everything else inline. The
/// reactor consumes this shape directly.
///
/// Every response carries an `X-SWEB-Trace` header: the id the request
/// arrived with (carried through a 302 hop as a `sweb-trace` query
/// parameter) or a freshly minted one, so one logical request is joinable
/// across nodes in the access logs.
pub(crate) fn respond_parts(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
) -> (Response, Option<(std::fs::File, u64)>) {
    let trace = sweb_http::trace_of(&req.target)
        .map(str::to_owned)
        .unwrap_or_else(|| shared.stats.new_trace_id(shared.id));
    let (mut resp, file) = respond_routed(shared, req, body, &trace);
    resp.headers.set("X-SWEB-Trace", trace);
    (resp, file)
}

/// The routed pipeline behind [`respond_parts`]: preprocess, analyze,
/// schedule, and either redirect (carrying `trace` in the Location URL)
/// or fulfill locally.
fn respond_routed(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    trace: &str,
) -> (Response, Option<(std::fs::File, u64)>) {
    // Step 1: preprocess — method check, path completion, existence.
    if !req.method.is_supported() {
        return (Response::error(StatusCode::NotImplemented), None);
    }
    let Some(path) = req.path() else {
        return (Response::error(StatusCode::Forbidden), None); // traversal attempt
    };
    // Administrative endpoints: always answered by the node they reached.
    if path == crate::status::STATUS_PATH {
        return (crate::status::render(shared, req.query()), None);
    }
    if path == crate::status::METRICS_PATH {
        return (crate::status::render_metrics(shared), None);
    }
    let is_dynamic = req.is_cgi();
    if req.method == Method::Post && !is_dynamic {
        // POST targets programs, not documents.
        return (Response::error(StatusCode::MethodNotAllowed), None);
    }
    let rel = path.trim_start_matches('/');
    if rel.is_empty() {
        return (Response::error(StatusCode::NotFound), None);
    }
    // Adaptive admission: classify the request by what it would cost us
    // and shed the expensive classes first as the controller's level
    // rises. Admin endpoints never reach this point — an operator must be
    // able to see an overloaded node.
    if shared.overload_control {
        let class = if is_dynamic {
            AdmitClass::Dynamic
        } else if shared.file_cache.resident(&path) {
            AdmitClass::StaticHit
        } else {
            AdmitClass::StaticMiss
        };
        if !shared.admission.admit(class) {
            shared.admission.shed();
            shared.stats.shed.inc();
            shared.stats.admission_shed_counter(class).inc();
            return (overloaded(shared), None);
        }
    }
    // Existence + size: a filesystem stat for documents, a registry lookup
    // (with the handler's own size hint) for dynamic requests. The
    // handler class rides into the scheduler so the oracle prices the
    // class, not just "CGI".
    let (full, size, class) = if is_dynamic {
        match shared.dynamic.registry().lookup(&path) {
            Some(handler) => (shared.docroot.clone(), handler.size_hint(), Some(handler.class())),
            None => {
                shared.stats.served.inc();
                return (Response::error(StatusCode::NotFound), None);
            }
        }
    } else {
        let full = shared.docroot.join(rel);
        let Ok(meta) = std::fs::metadata(&full) else {
            shared.stats.served.inc();
            return (Response::error(StatusCode::NotFound), None);
        };
        if !meta.is_file() {
            return (Response::error(StatusCode::Forbidden), None);
        }
        // Conditional GET: a fresh client copy costs us only the stat —
        // answer 304 here, before any scheduling.
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| d.as_secs());
        if let (Some(mtime), Some(ims)) = (
            mtime,
            req.headers.get("if-modified-since").and_then(sweb_http::parse_http_date),
        ) {
            if mtime <= ims {
                shared.stats.served.inc();
                let mut resp = Response {
                    status: StatusCode::NotModified,
                    headers: Default::default(),
                    body: Default::default(),
                };
                resp.headers.set("Last-Modified", sweb_http::format_http_date(mtime));
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                return (resp, None);
            }
        }
        (full, meta.len(), None)
    };

    // Step 2: analyze — build the scheduler's view of the request.
    let nodes = shared.cluster.len();
    let redirected = req.already_redirected();
    if redirected {
        shared.stats.received_redirects.inc();
    }
    let file = crate::file_cache::key_of(&path);
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
        // Residency feeds both the cache-aware cost terms and the
        // peer-transfer pull gate (a resident document is never pulled).
        cached_at_origin: !is_dynamic
            && (shared.sweb.cache_aware_cost || shared.sweb.peer_transfer)
            && shared.file_cache.resident(&path),
        class: class.map_or(RequestClass::Static, RequestClass::Dynamic),
    };
    let decide_started = Instant::now();
    // Refresh our own entry so local load is never stale.
    {
        let mut loads = shared.loads.write();
        let now = shared.now();
        loads.update(shared.id, crate::loadd::sample_load(shared), now);
    }
    let decision = {
        let mut loads = shared.loads.write();
        shared.broker.choose(&info, shared.id, &shared.cluster, &mut loads)
    };
    shared.stats.phases.record(Phase::Decide, decide_started.elapsed().as_micros() as u64);

    // Step 3: redirection — the trace id rides the Location URL, because
    // clients do not forward response headers across a 302.
    if let Some(target) = decision.redirect_target() {
        shared.stats.redirected.inc();
        let base = &shared.peer_http[target.index()];
        let marked = sweb_http::mark_trace(&req.target, trace);
        let mut resp = Response::redirect_to_peer(base, &marked);
        resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
        return (resp, None);
    }

    // Step 3½: peer pull — the comparison picked a peer that holds the
    // document in RAM, close enough to a tie that bouncing the client
    // (302) would cost more than it saves. Pull the body over the
    // cluster-internal peer channel instead: the client is answered by
    // the node it reached (no extra round trip, no Location chase), and
    // the pulled body seeds the local striped cache so repeats become
    // plain local hits. Dynamic requests never forward — the broker
    // doesn't propose it, and a Bloom false positive on a handler path
    // must not turn into a FETCH for a file that isn't one.
    if let (Some(source), false) = (decision.peer_source(), is_dynamic) {
        let forward_started = Instant::now();
        match crate::peer_transfer::fetch_via_peer(
            shared,
            source,
            info.file,
            &path,
            trace,
            FORWARD_BUDGET,
        ) {
            Ok(doc) => {
                let forward_us = forward_started.elapsed().as_micros() as u64;
                shared.stats.phases.record(Phase::Forward, forward_us);
                shared.stats.peer_fetches.inc();
                shared.popularity.record(info.file, &path);
                let body = bytes::Bytes::from(doc.body);
                shared.file_cache.insert(&path, body.clone(), doc.mtime);
                let cost = decision.cost;
                shared.stats.feedback.record(cost.t_redirection, cost.t_data, cost.t_cpu, forward_us);
                shared.stats.served.inc();
                let mut resp = Response::ok(body, mime_for_path(&path));
                if let Ok(secs) = doc.mtime.duration_since(std::time::UNIX_EPOCH) {
                    resp.headers
                        .set("Last-Modified", sweb_http::format_http_date(secs.as_secs()));
                }
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                return (resp, None);
            }
            Err(_) => {
                // Degrade, never hang: bounce the client to the source
                // with a classic 302 when it can still be bounced (not
                // already redirected, source not known dead); otherwise
                // fall through and serve from the shared docroot.
                shared.stats.forward_failures.inc();
                let source_up = shared.loads.read().is_alive(source);
                if !redirected && source_up {
                    shared.stats.redirected.inc();
                    let base = &shared.peer_http[source.index()];
                    let marked = sweb_http::mark_trace(&req.target, trace);
                    let mut resp = Response::redirect_to_peer(base, &marked);
                    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                    return (resp, None);
                }
            }
        }
    }

    // Step 4: fulfillment, timed against the broker's prediction: the
    // chosen candidate's per-term estimate is what this very fetch was
    // scheduled on, so the pair feeds the prediction-error histograms.
    let fetch_started = Instant::now();
    if !is_dynamic {
        // Count the serve toward this node's popularity table: these
        // counts feed loadd's hot-list piggyback and the replicator.
        shared.popularity.record(info.file, &path);
    }
    let result = fulfill(shared, req, body, &path, class, &full, size);
    let fetch_us = fetch_started.elapsed().as_micros() as u64;
    shared.stats.phases.record(Phase::Fetch, fetch_us);
    let cost = decision.cost;
    shared.stats.feedback.record(cost.t_redirection, cost.t_data, cost.t_cpu, fetch_us);
    result
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

/// Local fulfillment: invoke the dynamic handler or read the document.
fn fulfill(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    path: &str,
    class: Option<&'static str>,
    full: &std::path::Path,
    size: u64,
) -> (Response, Option<(std::fs::File, u64)>) {
    // Fault injection: a browned-out node serves *everything* late —
    // dynamic and static alike — unlike SlowDisk, which models one slow
    // device. The stall sits in the fetch phase, where the reactor's
    // deadline check after `respond` sees it.
    if shared.chaos.is_active() {
        if let Some(extra) = shared.chaos.brownout_delay(shared.id.0) {
            std::thread::sleep(extra);
        }
    }
    if class.is_some() {
        return (fulfill_dynamic(shared, req, body, path), None);
    }
    // A degraded disk/NFS mount serves reads late, not wrong.
    if shared.chaos.is_active() {
        if let Some(extra) = shared.chaos.disk_delay(shared.id.0) {
            std::thread::sleep(extra);
        }
    }
    // Documents too big to ever fit the cache stream straight from the fd
    // (`sendfile`): buffering them would evict the whole hot set for one
    // request and still pay a copy. Everything cacheable goes through the
    // FileCache so repeat requests share one in-memory body.
    if size >= SENDFILE_MIN && size > shared.file_cache.capacity() {
        match read_with_retry(shared, || std::fs::File::open(full)) {
            Ok(f) => {
                shared.stats.served.inc();
                let mut resp = Response::ok("", mime_for_path(path));
                if let Some(secs) = f
                    .metadata()
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                {
                    resp.headers
                        .set("Last-Modified", sweb_http::format_http_date(secs.as_secs()));
                }
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                return (resp, Some((f, size)));
            }
            Err(_) => return (Response::error(StatusCode::InternalServerError), None),
        }
    }
    match read_with_retry(shared, || shared.file_cache.read(path, full)) {
        Ok((body, mtime)) => {
            shared.stats.served.inc();
            let mut resp = Response::ok(body, mime_for_path(path));
            if let Ok(secs) = mtime.duration_since(std::time::UNIX_EPOCH) {
                resp.headers
                    .set("Last-Modified", sweb_http::format_http_date(secs.as_secs()));
            }
            resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
            (resp, None)
        }
        Err(_) => (Response::error(StatusCode::InternalServerError), None),
    }
}

/// Dynamic fulfillment on the worker-pool thread the engine dispatched
/// us to: response-cache lookup, then handler invocation, timed — the
/// measurement feeds the per-class `t_cpu` histogram *and* the oracle's
/// tuned table (converted to ops at this node's clock), closing the
/// predicted-vs-measured loop per handler class. Only real invocations
/// feed the oracle: a cache hit measures the cache, not the handler.
fn fulfill_dynamic(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    path: &str,
) -> Response {
    let handler = shared.dynamic.registry().lookup(path).expect("existence checked above");
    let class = handler.class();
    let class_stats = shared.dynamic.class_stats(class);
    let key = handler.cache_key(req, body);
    if let Some(k) = key.as_deref() {
        if let Some(mut resp) = shared.dynamic.cache.get(class, k) {
            if let Some(s) = class_stats {
                s.cache_hits.inc();
            }
            shared.stats.served.inc();
            resp.headers.set("X-SWEB-Dynamic-Cache", "hit");
            resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
            return resp;
        }
    }
    let ctx = crate::dynamic::HandlerCtx { shared };
    let invoke_started = Instant::now();
    let mut resp = handler.handle(&ctx, req, body);
    let invoke_us = invoke_started.elapsed().as_micros() as u64;
    if let Some(s) = class_stats {
        s.invocations.inc();
        s.tcpu_us.record(invoke_us);
    }
    // Convert wall time to load-independent work: the invocation ran at
    // the *effective* (load-degraded) rate, so that is the rate that maps
    // its duration back to operations. The cost model re-divides by the
    // same `1 + cpu_load` factor at prediction time (§3.2 t_cpu); feeding
    // the idle rate here would double-count the load.
    let ops_per_sec = shared.cluster.nodes[shared.id.index()].cpu_ops_per_sec;
    let cpu_load = shared.loads.read().load(shared.id).cpu;
    let effective = ops_per_sec / (1.0 + cpu_load);
    shared.oracle.observe(class, invoke_us as f64 * 1e-6 * effective);
    if resp.status == StatusCode::Ok {
        if let Some(k) = key.as_deref() {
            // Cache the reply *before* the per-request headers go on: a
            // future hit stamps its own node and cache markers.
            shared.dynamic.cache.insert(class, k, resp.clone(), handler.ttl());
            resp.headers.set("X-SWEB-Dynamic-Cache", "miss");
        }
    }
    shared.stats.served.inc();
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

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
