//! The dynamic-content fast path: an in-process handler ABI.
//!
//! NCSA httpd forked a process per `/cgi-bin/` request — the exact
//! bottleneck a scalable server must remove. Here dynamic content is
//! produced by registered in-process implementations of
//! [`DynamicHandler`]. A handler that declares itself non-blocking for a
//! request ([`DynamicHandler::blocking`]) and whose class has measured
//! cheap runs on the reactor loop thread that parsed the request; every
//! other invocation is dispatched on the reactor's bounded worker pool.
//!
//! Three pieces live here:
//!
//! * the [`DynamicHandler`] trait and [`DynamicRegistry`] (longest-prefix
//!   dispatch under `/cgi-bin/`, same namespace the 1996 server used);
//! * [`DynamicCache`], a lock-striped LRU response cache keyed on
//!   `(handler class, canonicalized args)` with a TTL and a bound in
//!   512-byte slots — the striped cache [`crate::file_cache::FileCache`]
//!   is built on, holding generated replies as documents are held: a head
//!   serialized once, and the body;
//! * [`DynamicState`] + [`ClassStats`], the per-handler-class telemetry
//!   (invocations, cache hits, measured `t_cpu` histogram) whose
//!   measurements feed the oracle's tuned table
//!   ([`sweb_core::Oracle::observe`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sweb_cluster::FileId;
use sweb_http::{Head, Request, Response};
use sweb_telemetry::{AtomicHistogram, Counter, Registry};

use crate::node::NodeShared;
use crate::striped::{Striped, SEGMENTS};

/// Default TTL for cacheable dynamic responses when the handler does not
/// override it.
pub const DEFAULT_TTL: Duration = Duration::from_secs(2);

/// Default bound of the dynamic response cache, in [`SLOT_BYTES`] slots:
/// 4,096 replies of up to 512 B, 2 MiB in all. It is the knee of the hit
/// rate over the benchmark's 20,000 Zipf(1.0) search keys (0.61 at 1,024,
/// 0.76 at 4,096, 0.79 at 8,192, where the TTL starts to bind).
pub const DEFAULT_MAX_ENTRIES: usize = 4096;

/// The unit the dynamic response cache is bounded in: an entry of `n`
/// bytes (args, head and body) takes `ceil(n / 512)` slots, so a large
/// reply displaces as many small ones as its bytes would hold.
pub const SLOT_BYTES: usize = 512;

/// An in-process dynamic-content handler. Implementations are registered
/// under `/cgi-bin/<name>` and invoked on the reactor's worker pool, or on
/// the loop thread when [`DynamicHandler::blocking`] allows it; the
/// `class` name keys both the response cache and the oracle's measured
/// `t_cpu` table.
pub trait DynamicHandler: Send + Sync {
    /// Handler class name: the key for per-class stats, the response
    /// cache, and the oracle's tuned table. Lowercase `[a-z_]` only (it
    /// becomes a metric label).
    fn class(&self) -> &'static str;

    /// Cache key for this invocation — the *canonicalized* argument
    /// string (sorted `k=v` pairs), or `None` when the response must not
    /// be cached (side effects, per-request output). Two requests with
    /// the same class and key are assumed interchangeable.
    fn cache_key(&self, req: &Request, body: &[u8]) -> Option<String> {
        let _ = (req, body);
        None
    }

    /// Per-handler TTL override for cached responses; `None` uses the
    /// cache-wide default.
    fn ttl(&self) -> Option<Duration> {
        None
    }

    /// Expected response size in bytes, used by the oracle's *prior*
    /// (before measured feedback arrives) and by the broker's `t_data`
    /// term.
    fn size_hint(&self) -> u64 {
        4 * 1024
    }

    /// Whether this invocation may block or run long. `false` promises
    /// pure computation bounded by the request itself (no sleep, no I/O,
    /// no lock held across either), which lets a class measured cheap run
    /// on the loop thread that parsed the request. The default is `true`:
    /// a handler nobody vouched for always takes the worker pool.
    fn blocking(&self, req: &Request, body: &[u8]) -> bool {
        let _ = (req, body);
        true
    }

    /// Produce the response. Runs on a worker-pool thread, or on a loop
    /// thread when [`DynamicHandler::blocking`] said `false` and the class
    /// measured cheap. A blocking handler may block, but the reactor
    /// answers 503 in its place once the request budget's fetch checkpoint
    /// has passed. `shared` is the serving node, for handlers that read
    /// its state.
    fn handle(&self, shared: &NodeShared, req: &Request, body: &[u8]) -> Response;
}

/// Sort a query/form string's `&`-separated pairs so that `a=1&b=2` and
/// `b=2&a=1` share a cache entry. Empty segments are dropped; the POST
/// body (when present) is appended after the query under a separator that
/// cannot appear in either.
pub fn canonicalize_args(query: &str, body: &[u8]) -> String {
    let mut pairs: Vec<&str> = query.split('&').filter(|s| !s.is_empty()).collect();
    pairs.sort_unstable();
    let mut key = pairs.join("&");
    if !body.is_empty() {
        key.push('\n');
        key.push_str(&String::from_utf8_lossy(body));
    }
    key
}

/// Registry of dynamic handlers by path prefix under `/cgi-bin/`:
/// longest prefix wins, and a prefix matches whole path segments only.
/// Shared by all nodes of a cluster (the same handler code would be
/// NFS-visible everywhere in 1996).
#[derive(Clone, Default)]
pub struct DynamicRegistry {
    handlers: HashMap<String, Arc<dyn DynamicHandler>>,
}

impl DynamicRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DynamicRegistry::default()
    }

    /// Register `handler` at `/cgi-bin/<name>`.
    pub fn register(&mut self, name: &str, handler: Arc<dyn DynamicHandler>) {
        self.handlers.insert(format!("/cgi-bin/{name}"), handler);
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// True when no handlers are registered.
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }

    /// Find the handler for `path`: the longest registered prefix that is
    /// the whole path or is followed by `/` (`echo` serves
    /// `/cgi-bin/echo/x`, never `/cgi-bin/echoes`).
    pub fn lookup(&self, path: &str) -> Option<&Arc<dyn DynamicHandler>> {
        self.handlers
            .iter()
            .filter(|(prefix, _)| {
                path.strip_prefix(prefix.as_str())
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
            })
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, h)| h)
    }

    /// All registered handler classes, sorted and deduplicated (stats are
    /// per class, and several names may share one).
    pub fn classes(&self) -> Vec<&'static str> {
        let mut classes: Vec<&'static str> =
            self.handlers.values().map(|h| h.class()).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// The demo handlers used by examples and tests:
    ///
    /// * `/cgi-bin/echo` — echoes the query string (and a POST body) back;
    /// * `/cgi-bin/search` — the toy Alexandria spatial-index search
    ///   (burns CPU per the `cost` parameter);
    /// * `/cgi-bin/burn` — delay/cpu-burn probe: `cost=N` LCG iterations
    ///   and optional `ms=N` sleep;
    /// * `/cgi-bin/template` — query-parameter templating into an HTML
    ///   page;
    /// * `/cgi-bin/introspect` — status-like node summary (never cached).
    pub fn demo() -> Self {
        let mut reg = DynamicRegistry::new();
        reg.register("echo", Arc::new(EchoHandler));
        reg.register("search", Arc::new(SearchHandler));
        reg.register("burn", Arc::new(BurnHandler));
        reg.register("template", Arc::new(TemplateHandler));
        reg.register("introspect", Arc::new(IntrospectHandler));
        reg
    }
}

impl std::fmt::Debug for DynamicRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.handlers.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("DynamicRegistry").field("handlers", &names).finish()
    }
}

/// `/cgi-bin/echo` — the query string (and a POST body) reflected back.
/// Pure formatting, so it never blocks.
struct EchoHandler;

impl DynamicHandler for EchoHandler {
    fn class(&self) -> &'static str {
        "echo"
    }
    fn cache_key(&self, req: &Request, body: &[u8]) -> Option<String> {
        Some(canonicalize_args(req.query().unwrap_or(""), body))
    }
    fn blocking(&self, _req: &Request, _body: &[u8]) -> bool {
        false
    }
    fn handle(&self, _shared: &NodeShared, req: &Request, body: &[u8]) -> Response {
        let q = req.query().unwrap_or("");
        if body.is_empty() {
            Response::ok(format!("echo: {q}\n"), "text/plain")
        } else {
            let posted = String::from_utf8_lossy(body);
            Response::ok(format!("echo: {q}\nposted: {posted}\n"), "text/plain")
        }
    }
}

/// The largest `search` cost that may run on a loop thread: five times
/// the benchmark's `cost=200000` (~40 µs optimised on a 2-vCPU x86 VM).
/// Above it a client could park a shard on one request (`lcg_burn`'s
/// 50 M-iteration cap is ~10 ms optimised, ~250 ms unoptimised), so the
/// request takes the pool whatever its class measured.
const SEARCH_INLINE_MAX_COST: u64 = 1_000_000;

/// The search's arguments: POSTed form data takes precedence over the
/// query string (an HTML search form submits either way).
fn search_query<'a>(req: &'a Request, body: &'a [u8]) -> std::borrow::Cow<'a, str> {
    if body.is_empty() {
        req.query().unwrap_or("").into()
    } else {
        String::from_utf8_lossy(body)
    }
}

/// The search's `cost` parameter (LCG iterations), 10,000 when absent.
fn search_cost(query: &str) -> u64 {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("cost="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// `/cgi-bin/search` — the toy Alexandria search: deterministic CPU
/// burn proportional to the `cost` parameter, HTML result page. It runs
/// on the loop only up to [`SEARCH_INLINE_MAX_COST`].
struct SearchHandler;

impl DynamicHandler for SearchHandler {
    fn class(&self) -> &'static str {
        "search"
    }
    fn cache_key(&self, req: &Request, body: &[u8]) -> Option<String> {
        Some(canonicalize_args(req.query().unwrap_or(""), body))
    }
    fn blocking(&self, req: &Request, body: &[u8]) -> bool {
        search_cost(&search_query(req, body)) > SEARCH_INLINE_MAX_COST
    }
    fn handle(&self, _shared: &NodeShared, req: &Request, body: &[u8]) -> Response {
        let query = search_query(req, body);
        let acc = lcg_burn(search_cost(&query));
        let body = format!(
            "<HTML><BODY><H1>Alexandria search</H1>\
             <P>query: {query}</P><P>digest: {acc:016x}</P></BODY></HTML>"
        );
        Response::ok(body, "text/html")
    }
}

/// Deterministic busy work standing in for real handler compute (an LCG,
/// so the optimizer cannot delete it and two runs agree on the digest).
fn lcg_burn(cost: u64) -> u64 {
    let mut acc: u64 = 0xdead_beef;
    for i in 0..cost.min(50_000_000) {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// `/cgi-bin/burn` — the delay/cpu-burn probe handler: `cost=N` LCG
/// iterations (default 250k, ~sub-ms) plus optional `ms=N` sleep (capped
/// at 1 s), so tests and benches can dial in any `t_cpu` they need.
struct BurnHandler;

impl DynamicHandler for BurnHandler {
    fn class(&self) -> &'static str {
        "burn"
    }
    fn cache_key(&self, req: &Request, body: &[u8]) -> Option<String> {
        Some(canonicalize_args(req.query().unwrap_or(""), body))
    }
    fn size_hint(&self) -> u64 {
        64
    }
    fn handle(&self, _shared: &NodeShared, req: &Request, _body: &[u8]) -> Response {
        let q = req.query().unwrap_or("");
        let param = |k: &str| q.split('&').find_map(|kv| kv.strip_prefix(k)).map(str::to_string);
        let cost: u64 = param("cost=").and_then(|v| v.parse().ok()).unwrap_or(250_000);
        let ms: u64 = param("ms=").and_then(|v| v.parse().ok()).unwrap_or(0);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms.min(1000)));
        }
        let acc = lcg_burn(cost);
        Response::ok(format!("burn: cost={cost} ms={ms} digest={acc:016x}\n"), "text/plain")
    }
}

/// `/cgi-bin/template` — query-parameter templating: `title` and `name`
/// parameters substituted into a fixed HTML page. Canonicalized-args
/// caching means `?name=x&title=y` and `?title=y&name=x` share an entry.
struct TemplateHandler;

impl DynamicHandler for TemplateHandler {
    fn class(&self) -> &'static str {
        "template"
    }
    fn cache_key(&self, req: &Request, body: &[u8]) -> Option<String> {
        Some(canonicalize_args(req.query().unwrap_or(""), body))
    }
    fn blocking(&self, _req: &Request, _body: &[u8]) -> bool {
        false
    }
    fn handle(&self, _shared: &NodeShared, req: &Request, _body: &[u8]) -> Response {
        let q = req.query().unwrap_or("");
        let param = |k: &str, default: &str| {
            q.split('&')
                .find_map(|kv| kv.strip_prefix(k))
                .filter(|v| !v.is_empty())
                .unwrap_or(default)
                .to_string()
        };
        let title = param("title=", "SWEB");
        let name = param("name=", "world");
        let body = format!(
            "<HTML><HEAD><TITLE>{title}</TITLE></HEAD>\
             <BODY><H1>{title}</H1><P>Hello, {name}.</P></BODY></HTML>"
        );
        Response::ok(body, "text/html")
    }
}

/// `/cgi-bin/introspect` — a status-like node summary produced by a
/// handler instead of the admin endpoint, demonstrating handlers that
/// read node state. Never cached: the numbers move between requests.
struct IntrospectHandler;

impl DynamicHandler for IntrospectHandler {
    fn class(&self) -> &'static str {
        "introspect"
    }
    fn blocking(&self, _req: &Request, _body: &[u8]) -> bool {
        false
    }
    fn handle(&self, shared: &NodeShared, _req: &Request, _body: &[u8]) -> Response {
        let body = format!(
            "{{\"node\":{},\"policy\":\"{}\",\
             \"served\":{},\"accepted\":{},\"handlers\":{}}}\n",
            shared.id.0,
            shared.broker.policy(),
            shared.reactor.counters.served.get(),
            shared.reactor.counters.accepted.get(),
            shared.dynamic.registry().len(),
        );
        Response::ok(body, "application/json")
    }
}

/// One cached dynamic reply, held the way [`crate::file_cache`] holds a
/// document: the head serialized once and the body, both shared with
/// every reply served from the entry.
struct CacheEntry {
    /// Handler class — verified on hit, so an FNV collision between two
    /// `(class, args)` identities can never serve the wrong body.
    class: &'static str,
    /// Canonicalized argument string — verified on hit, same reason.
    args: Box<str>,
    head: Head,
    body: Bytes,
    expires: Instant,
}

impl CacheEntry {
    /// The entry's size in slots: its args, head and body bytes, rounded
    /// up to whole [`SLOT_BYTES`].
    fn slots(&self) -> u64 {
        let head = self.head.before_gap().len() + self.head.after_gap().len();
        (self.args.len() + head + self.body.len()).div_ceil(SLOT_BYTES) as u64
    }

    /// A reply served from this entry: two reference counts, and no
    /// header lines of its own yet.
    fn reply(&self) -> Response {
        Response::with_head(self.head.clone(), self.body.clone())
    }
}

/// Lock-striped response cache for dynamic replies, keyed on
/// `(handler class, canonicalized args)` with TTL and a bound in
/// [`SLOT_BYTES`] slots. It is the striped LRU the
/// [`crate::file_cache::FileCache`] sits on, with each entry sized in
/// slots: the same key hash and segment spread, LRU eviction within a
/// segment, and identity verification on hit so hash collisions degrade
/// to misses instead of wrong bodies.
pub struct DynamicCache {
    /// `ceil(max_entries / 8)` slots per segment, at least one.
    stripes: Striped<CacheEntry>,
    /// Entries dropped at their TTL: one count for the whole cache, since
    /// few lookups find an entry expired.
    expired: AtomicU64,
    default_ttl: Duration,
    max_entries: usize,
}

impl DynamicCache {
    /// A cache bounded at `max_entries` one-slot replies (`max_entries ×`
    /// [`SLOT_BYTES`] bytes) with the given default TTL.
    pub fn new(max_entries: usize, default_ttl: Duration) -> Self {
        let per_segment = max_entries.div_ceil(SEGMENTS).max(1);
        DynamicCache {
            stripes: Striped::new(SEGMENTS, per_segment as u64),
            expired: AtomicU64::new(0),
            default_ttl,
            max_entries,
        }
    }

    /// The key of `(class, args)`: the hash behind
    /// [`crate::file_cache::key_of`], over `class NUL args`.
    fn key(class: &str, args: &str) -> FileId {
        crate::striped::key(&[class.as_bytes(), b"\0", args.as_bytes()])
    }

    /// Cached response for `(class, args)`, if present and unexpired; a
    /// hit makes the entry its segment's most recent.
    pub fn get(&self, class: &str, args: &str) -> Option<Response> {
        let key = Self::key(class, args);
        let seg = self.stripes.segment(key);
        let mut lru = seg.lock();
        // One probe: the touch comes before the identity check, so a
        // lookup that collides refreshes the entry it found, and serves
        // nothing from it.
        let fresh = match lru.touch(key) {
            Some(e) if e.class == class && *e.args == *args => {
                (e.expires > Instant::now()).then(|| e.reply())
            }
            _ => {
                seg.miss();
                return None;
            }
        };
        if fresh.is_some() {
            seg.hit();
        } else {
            lru.invalidate(key);
            self.expired.fetch_add(1, Ordering::Relaxed);
            seg.miss();
        }
        fresh
    }

    /// Insert a reply for `(class, args)`; `ttl` of `None` uses the
    /// cache default. Evicts the segment's least recently used entries
    /// until it fits.
    pub fn insert(&self, class: &'static str, args: &str, resp: Response, ttl: Option<Duration>) {
        self.store(class, args, resp, ttl);
    }

    /// [`DynamicCache::insert`], handing back the reply as a hit would
    /// serve it: on the head the entry holds. A reply larger than a
    /// segment's share is not cached, and is served the same way. A reply
    /// already on a shared head (a document's) is handed back as it is,
    /// uncached: its head cannot be serialized again from its lines.
    pub(crate) fn store(
        &self,
        class: &'static str,
        args: &str,
        resp: Response,
        ttl: Option<Duration>,
    ) -> Response {
        if resp.shared_head.is_some() {
            return resp;
        }
        let key = Self::key(class, args);
        let expires = Instant::now() + ttl.unwrap_or(self.default_ttl);
        let head = Head::of(&resp);
        let entry = CacheEntry { class, args: args.into(), head, body: resp.body, expires };
        let reply = entry.reply();
        self.stripes.segment(key).put(key, entry.slots(), entry);
        reply
    }

    /// Lookups answered from the cache, summed across segments.
    pub fn hits(&self) -> u64 {
        self.stripes.hits()
    }

    /// Lookups that found nothing, or only an expired entry.
    pub fn misses(&self) -> u64 {
        self.stripes.misses()
    }

    /// Entries dropped because their TTL had passed.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Entries evicted to hold the slot bound.
    pub fn evictions(&self) -> u64 {
        self.stripes.evictions()
    }

    /// Unexpired entries right now, whatever their slots: an entry past
    /// its TTL stays held until a lookup or LRU pressure drops it, but it
    /// is not counted.
    pub fn entries(&self) -> u64 {
        let now = Instant::now();
        self.stripes.count(|e| e.expires > now)
    }

    /// The configured bound, in one-slot entries.
    pub fn max_entries(&self) -> u64 {
        self.max_entries as u64
    }
}

/// Per-handler-class telemetry: registered on the node's metric registry
/// (labeled `{handler="<class>"}`) so `/metrics` and `/sweb-status` read
/// the same atomics.
pub struct ClassStats {
    /// Real handler invocations (cache hits excluded).
    pub invocations: Arc<Counter>,
    /// Requests answered from the dynamic response cache.
    pub cache_hits: Arc<Counter>,
    /// Measured handler wall time per invocation, microseconds.
    pub tcpu_us: Arc<AtomicHistogram>,
}

/// A node's dynamic-content state: the handler registry, the response
/// cache, and per-class stats.
pub struct DynamicState {
    registry: DynamicRegistry,
    /// The striped response cache (its counters are read by `metrics`).
    pub cache: Arc<DynamicCache>,
    stats: HashMap<&'static str, ClassStats>,
}

impl DynamicState {
    /// Build the node's dynamic state, registering per-class metrics for
    /// every handler class in `registry` on `metrics`, and readers of the
    /// response cache's counters. The cache holds [`DEFAULT_MAX_ENTRIES`]
    /// replies for [`DEFAULT_TTL`] unless a handler's
    /// [`DynamicHandler::ttl`] says otherwise.
    pub fn new(registry: DynamicRegistry, metrics: &Registry) -> Self {
        let stats = registry
            .classes()
            .into_iter()
            .map(|class| {
                let labels = [("handler", class)];
                (
                    class,
                    ClassStats {
                        invocations: metrics.counter(
                            "sweb_dynamic_invocations_total",
                            &labels,
                            "Dynamic handler invocations (cache hits excluded)",
                        ),
                        cache_hits: metrics.counter(
                            "sweb_dynamic_cache_hits_total",
                            &labels,
                            "Dynamic requests answered from the response cache",
                        ),
                        tcpu_us: metrics.histogram(
                            "sweb_dynamic_tcpu_us",
                            &labels,
                            "Measured handler wall time per invocation (us)",
                        ),
                    },
                )
            })
            .collect();
        let cache = Arc::new(DynamicCache::new(DEFAULT_MAX_ENTRIES, DEFAULT_TTL));
        let read = |number| crate::node::read(&cache, number);
        let lookups = "Dynamic response-cache lookups, by result";
        metrics.counter_fn(
            "sweb_dynamic_cache_lookups_total",
            &[("result", "hit")],
            lookups,
            read(DynamicCache::hits),
        );
        metrics.counter_fn(
            "sweb_dynamic_cache_lookups_total",
            &[("result", "miss")],
            lookups,
            read(DynamicCache::misses),
        );
        metrics.counter_fn(
            "sweb_dynamic_cache_expired_total",
            &[],
            "Dynamic response-cache entries dropped at their TTL",
            read(DynamicCache::expired),
        );
        metrics.counter_fn(
            "sweb_dynamic_cache_evictions_total",
            &[],
            "Dynamic response-cache entries evicted to hold the entry bound",
            read(DynamicCache::evictions),
        );
        metrics.gauge_fn(
            "sweb_dynamic_cache_entries",
            &[],
            "Live dynamic response-cache entries",
            read(DynamicCache::entries),
        );
        metrics.gauge_fn(
            "sweb_dynamic_cache_max_entries",
            &[],
            "Configured dynamic response-cache entry bound",
            read(DynamicCache::max_entries),
        );
        DynamicState { registry, cache, stats }
    }

    /// The handler registry.
    pub fn registry(&self) -> &DynamicRegistry {
        &self.registry
    }

    /// Stats for a handler class (present for every class registered at
    /// construction).
    pub fn class_stats(&self, class: &str) -> Option<&ClassStats> {
        self.stats.get(class)
    }

    /// All per-class stats, sorted by class name (for the status page).
    pub fn class_rows(&self) -> Vec<(&'static str, &ClassStats)> {
        let mut rows: Vec<_> = self.stats.iter().map(|(c, s)| (*c, s)).collect();
        rows.sort_unstable_by_key(|(c, _)| *c);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweb_http::{Headers, Method};

    fn req(target: &str) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            version: "HTTP/1.0".into(),
            headers: Headers::new(),
        }
    }

    fn post(target: &str) -> Request {
        Request {
            method: Method::Post,
            target: target.into(),
            version: "HTTP/1.0".into(),
            headers: Headers::new(),
        }
    }

    #[test]
    fn canonicalize_sorts_and_appends_body() {
        assert_eq!(canonicalize_args("b=2&a=1", b""), "a=1&b=2");
        assert_eq!(canonicalize_args("a=1&b=2", b""), "a=1&b=2");
        assert_eq!(canonicalize_args("", b"x=9"), "\nx=9");
        assert_ne!(canonicalize_args("a=1", b""), canonicalize_args("a=2", b""));
    }

    /// A handler known only by its class name.
    struct Named(&'static str);

    impl DynamicHandler for Named {
        fn class(&self) -> &'static str {
            self.0
        }
        fn handle(&self, _shared: &NodeShared, _req: &Request, _body: &[u8]) -> Response {
            Response::ok(self.0, "text/plain")
        }
    }

    #[test]
    fn registry_matches_longest_prefix() {
        let mut reg = DynamicRegistry::new();
        reg.register("a", Arc::new(Named("short")));
        reg.register("a/b", Arc::new(Named("long")));
        assert_eq!(reg.lookup("/cgi-bin/a/b/c").unwrap().class(), "long");
        assert_eq!(reg.lookup("/cgi-bin/a/x").unwrap().class(), "short");
        assert_eq!(reg.lookup("/cgi-bin/a").unwrap().class(), "short");
        assert!(reg.lookup("/cgi-bin/ab").is_none(), "a prefix matches whole segments");
        assert!(reg.lookup("/cgi-bin/zzz").is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn demo_classes_are_sorted_and_complete() {
        let reg = DynamicRegistry::demo();
        assert_eq!(reg.classes(), vec!["burn", "echo", "introspect", "search", "template"]);
    }

    #[test]
    fn burn_and_template_have_canonical_cache_keys() {
        let reg = DynamicRegistry::demo();
        let burn = reg.lookup("/cgi-bin/burn").unwrap();
        let a = burn.cache_key(&req("/cgi-bin/burn?cost=5&ms=0"), b"").unwrap();
        let b = burn.cache_key(&req("/cgi-bin/burn?ms=0&cost=5"), b"").unwrap();
        assert_eq!(a, b, "argument order must not split the cache");
        let tpl = reg.lookup("/cgi-bin/template").unwrap();
        assert!(tpl.cache_key(&req("/cgi-bin/template?x=1"), b"").is_some());
        let intro = reg.lookup("/cgi-bin/introspect").unwrap();
        assert!(intro.cache_key(&req("/cgi-bin/introspect"), b"").is_none());
    }

    #[test]
    fn cache_isolates_class_and_args() {
        let cache = DynamicCache::new(64, Duration::from_secs(60));
        cache.insert("burn", "cost=1", Response::ok("one", "text/plain"), None);
        cache.insert("burn", "cost=2", Response::ok("two", "text/plain"), None);
        cache.insert("echo", "cost=1", Response::ok("echo", "text/plain"), None);
        assert_eq!(&cache.get("burn", "cost=1").unwrap().body[..], b"one");
        assert_eq!(&cache.get("burn", "cost=2").unwrap().body[..], b"two");
        assert_eq!(&cache.get("echo", "cost=1").unwrap().body[..], b"echo");
        assert!(cache.get("burn", "cost=3").is_none());
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (3, 1, 3));
    }

    #[test]
    fn cache_expires_by_ttl() {
        let cache = DynamicCache::new(64, Duration::from_millis(20));
        cache.insert("burn", "k", Response::ok("v", "text/plain"), None);
        assert!(cache.get("burn", "k").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("burn", "k").is_none(), "entry must expire");
        assert_eq!((cache.expired(), cache.entries()), (1, 0));
        // Per-handler TTL override beats the default.
        cache.insert("burn", "k2", Response::ok("v", "text/plain"), Some(Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("burn", "k2").is_some());
    }

    #[test]
    fn expired_entries_are_not_counted_before_a_lookup_drops_them() {
        let cache = DynamicCache::new(64, Duration::from_millis(20));
        for i in 0..5 {
            cache.insert("burn", &format!("cost={i}"), Response::ok("v", "text/plain"), None);
        }
        let hour = Some(Duration::from_secs(3600));
        cache.insert("burn", "kept", Response::ok("v", "text/plain"), hour);
        assert_eq!(cache.entries(), 6);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(cache.entries(), 1, "five entries are past their TTL");
        // Nothing was looked up, so nothing was dropped yet.
        assert_eq!((cache.expired(), cache.stripes.count(|_| true)), (0, 6));
    }

    /// A `text/html` reply of `body_len` bytes.
    fn reply_of(body_len: usize) -> Response {
        Response::ok(vec![b'x'; body_len], "text/html")
    }

    /// `count` distinct `search` args whose keys share one segment.
    fn args_in_one_segment(cache: &DynamicCache, count: usize) -> Vec<String> {
        let home = cache.stripes.segment(DynamicCache::key("search", "q=0"));
        (0..)
            .map(|i| format!("q={i}"))
            .filter(|a| std::ptr::eq(cache.stripes.segment(DynamicCache::key("search", a)), home))
            .take(count)
            .collect()
    }

    #[test]
    fn a_reply_takes_a_slot_per_512_bytes() {
        // 40 slots per segment.
        let cache = DynamicCache::new(8 * 40, Duration::from_secs(60));
        let args = args_in_one_segment(&cache, 41);
        for a in &args[..40] {
            cache.insert("search", a, reply_of(100), None);
        }
        assert_eq!((cache.entries(), cache.evictions()), (40, 0));
        // A 16 KiB entry: its args, head and body are 32 slots exactly.
        let big = &args[40];
        let head_len = |body_len| {
            let head = Head::of(&reply_of(body_len));
            head.before_gap().len() + head.after_gap().len()
        };
        let body_len = 16 * 1024 - big.len() - head_len(16 * 1024);
        assert_eq!(big.len() + head_len(body_len) + body_len, 16 * 1024);
        cache.insert("search", big, reply_of(body_len), None);
        assert_eq!(cache.evictions(), 32, "it displaces 32 one-slot replies");
        assert_eq!(cache.entries(), 40 - 32 + 1);
        assert_eq!(cache.get("search", big).unwrap().body.len(), body_len);
        // The oldest went first: the 8 most recent small replies are held.
        assert!(args[..32].iter().all(|a| cache.get("search", a).is_none()));
        assert!(args[32..40].iter().all(|a| cache.get("search", a).is_some()));

        // Larger than a segment's share: served, never cached, and the
        // entry it would replace goes all the same.
        let huge = cache.store("search", big, reply_of(41 * SLOT_BYTES), None);
        assert_eq!(huge.body.len(), 41 * SLOT_BYTES);
        assert!(cache.get("search", big).is_none());
        assert_eq!((cache.entries(), cache.evictions()), (8, 32));
        // Already on a shared head: handed back as it is, never cached.
        let doc = reply_of(100);
        let shared = Response::with_head(Head::of(&doc), doc.body);
        let back = cache.store("search", big, shared, None);
        assert!(back.shared_head.is_some() && cache.get("search", big).is_none());
    }

    /// The cache under the benchmark's `dynamic_keepalive` search stream:
    /// Zipf(1.0) over 20,000 keys. The TTL is an hour so the figure does
    /// not depend on how fast the test runs.
    fn zipf_hit_rate(max_entries: usize) -> f64 {
        use rand::{Rng, SeedableRng};
        const KEYS: usize = 20_000;
        const REQUESTS: usize = 200_000;
        let mut cdf: Vec<f64> = (1..=KEYS).map(|k| 1.0 / k as f64).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for c in &mut cdf {
            acc += *c / total;
            *c = acc;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let cache = DynamicCache::new(max_entries, Duration::from_secs(3600));
        for _ in 0..REQUESTS {
            let u: f64 = rng.gen_range(0.0..1.0);
            let key = cdf.partition_point(|&c| c <= u).min(KEYS - 1);
            let args = format!("cost=200000&q=k{key}");
            if cache.get("search", &args).is_none() {
                let body = format!(
                    "<HTML><BODY><H1>Alexandria search</H1>\
                     <P>query: q=k{key}&cost=200000</P><P>digest: {key:016x}</P></BODY></HTML>"
                );
                cache.insert("search", &args, Response::ok(body, "text/html"), None);
            }
        }
        cache.hits() as f64 / (cache.hits() + cache.misses()) as f64
    }

    #[test]
    fn the_default_bound_holds_the_search_streams_knee() {
        // 0.782 here; 1,024 entries read 0.617.
        let rate = zipf_hit_rate(DEFAULT_MAX_ENTRIES);
        assert!(rate >= 0.75, "hit rate {rate:.3} at {DEFAULT_MAX_ENTRIES} entries");
    }

    #[test]
    fn cache_bounds_entries_lru() {
        // One segment's bound is max_entries/8; hammer one identity class
        // with distinct args until evictions must have happened.
        let cache = DynamicCache::new(8, Duration::from_secs(60));
        for i in 0..64 {
            cache.insert("burn", &format!("cost={i}"), Response::ok("x", "text/plain"), None);
        }
        assert!(cache.entries() <= 8, "bound violated: {} entries", cache.entries());
        assert!(cache.evictions() >= 56, "expected evictions, saw {}", cache.evictions());
    }

    #[test]
    fn key_collision_serves_correct_body_not_the_cached_entry() {
        // Each identity's reply planted under the other's key, as a hash
        // collision would leave it: a lookup misses rather than serve a
        // body that is not its own.
        let cache = DynamicCache::new(64, Duration::from_secs(60));
        let expires = Instant::now() + Duration::from_secs(60);
        let pairs =
            [(("burn", "cost=1"), ("echo", "cost=1")), (("echo", "cost=1"), ("echo", "cost=2"))];
        for ((class, args), (planted_class, planted_args)) in pairs {
            let key = DynamicCache::key(class, args);
            let resp = Response::ok("planted", "text/plain");
            let head = Head::of(&resp);
            let planted = CacheEntry {
                class: planted_class,
                args: planted_args.into(),
                head,
                body: resp.body,
                expires,
            };
            cache.stripes.segment(key).put(key, 1, planted);
            assert!(
                cache.get(class, args).is_none(),
                "{class}?{args} got {planted_class}?{planted_args}"
            );
            // Its own insert takes the slot back.
            cache.insert(class, args, Response::ok(args, "text/plain"), None);
            assert_eq!(&cache.get(class, args).unwrap().body[..], args.as_bytes());
        }
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (2, 2, 2));
    }

    #[test]
    fn demo_handlers_declare_what_can_block() {
        let reg = DynamicRegistry::demo();
        let blocking = |target: &str, body: &[u8]| {
            let r = if body.is_empty() { req(target) } else { post(target) };
            reg.lookup(target.split('?').next().unwrap()).unwrap().blocking(&r, body)
        };
        assert!(!blocking("/cgi-bin/echo?a=1", b""));
        assert!(!blocking("/cgi-bin/echo", &[b'x'; 2048]));
        assert!(!blocking("/cgi-bin/template?title=t", b""));
        assert!(!blocking("/cgi-bin/introspect", b""));
        assert!(blocking("/cgi-bin/burn?cost=1", b""), "burn sleeps: the trait's default");
        // search: cheap up to SEARCH_INLINE_MAX_COST, whichever of query
        // and body the handler reads.
        assert!(!blocking("/cgi-bin/search?q=maps", b""), "the default cost is 10,000");
        assert!(!blocking("/cgi-bin/search?q=maps&cost=200000", b""));
        assert!(!blocking("/cgi-bin/search?cost=1000000", b""));
        assert!(blocking("/cgi-bin/search?cost=1000001", b""));
        assert!(blocking("/cgi-bin/search?cost=50000000", b""));
        assert!(blocking("/cgi-bin/search?cost=10", b"q=x&cost=2000000"), "the body wins");
        assert!(!blocking("/cgi-bin/search?cost=50000000", b"cost=10"));
    }

    use proptest::prelude::*;

    proptest! {
        /// Against a per-segment LRU model sized in slots: after every
        /// step the cache holds exactly the model's entries, so the slot
        /// bound holds; a hit or a re-insert makes a key its segment's
        /// most recent, a miss moves nothing, a reply larger than a
        /// segment's share is never held, and an expired entry is never
        /// served.
        #[test]
        fn eviction_is_lru_per_segment(
            max_entries in 1usize..40,
            ops in proptest::collection::vec((0u32..48, 0u8..3, 1u64..4), 0..300),
        ) {
            let cache = DynamicCache::new(max_entries, Duration::from_secs(3600));
            let bound = max_entries.div_ceil(SEGMENTS).max(1) as u64;
            let segments = cache.stripes.segments();
            // Per segment, least recent first, with each entry's slots.
            let mut model: Vec<Vec<(String, u64)>> = vec![Vec::new(); SEGMENTS];
            for (k, op, slots) in ops {
                let args = format!("k={k}");
                let seg = cache.stripes.segment(DynamicCache::key("burn", &args));
                let lru = &mut model[segments.iter().position(|s| std::ptr::eq(s, seg)).unwrap()];
                let held = lru.iter().position(|(a, _)| *a == args).map(|i| lru.remove(i));
                if op == 0 {
                    prop_assert_eq!(cache.get("burn", &args).is_some(), held.is_some());
                    lru.extend(held);
                } else {
                    // An insert of `slots` slots (a head of about 100
                    // bytes, the body the rest), live (1) or already
                    // expired (2).
                    let body_len = slots as usize * SLOT_BYTES - 200;
                    let ttl = (op == 2).then_some(Duration::ZERO);
                    cache.insert("burn", &args, reply_of(body_len), ttl);
                    if slots <= bound {
                        lru.push((args.clone(), slots));
                        while lru.iter().map(|(_, n)| n).sum::<u64>() > bound {
                            lru.remove(0);
                        }
                    }
                    if op == 2 {
                        prop_assert!(cache.get("burn", &args).is_none());
                        lru.retain(|(a, _)| *a != args);
                    }
                }
                for (seg, want) in segments.iter().zip(&model) {
                    let lru = seg.lock();
                    prop_assert!(lru.used() <= bound);
                    prop_assert_eq!(lru.used(), want.iter().map(|(_, n)| n).sum::<u64>());
                    prop_assert_eq!(lru.len(), want.len());
                    prop_assert!(want.iter().all(|(a, _)| lru.contains(DynamicCache::key("burn", a))));
                }
            }
        }
    }

    #[test]
    fn state_registers_class_stats() {
        let metrics = Registry::new();
        let state = DynamicState::new(DynamicRegistry::demo(), &metrics);
        let burn = state.class_stats("burn").expect("burn stats");
        burn.invocations.inc();
        burn.tcpu_us.record(1234);
        assert!(state.class_stats("nope").is_none());
        let rows = state.class_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, "burn");
        assert_eq!(rows[0].1.invocations.get(), 1);
    }
}
