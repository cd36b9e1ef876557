//! The introspection API: a typed, versioned [`StatusReport`] served as
//! text or JSON from `/sweb-status`, and a Prometheus-style exposition at
//! `/metrics`. Both administrative endpoints are always answered by the
//! node they reached (never redirected).
//!
//! The report is one value with two serializers: the human text page and
//! the machine JSON document are views of the same struct, so they cannot
//! drift apart, and `StatusReport::from_json` gives API consumers a
//! schema-checked round trip.

use sweb_chaos::FaultCountsSnapshot;
use sweb_cluster::NodeId;
use sweb_http::Response;
use sweb_telemetry::Json;

use crate::node::NodeShared;

/// Path of the status endpoint (`?format=json` selects the JSON view).
pub const STATUS_PATH: &str = "/sweb-status";

/// Path of the Prometheus-style metric exposition.
pub const METRICS_PATH: &str = "/metrics";

/// Version stamped into every JSON report; consumers must check it.
///
/// v2 added per-peer `health` and the node's `draining` flag and
/// injected-fault counters (the failure-domain view).
/// v3 added the `shards` array: one row per reactor shard (liveness plus
/// the shard's slice of the hot counters).
/// v4 added the peer-transfer counters (`peer_fetches`,
/// `forward_failures`, `peer_frames_bad`, `pushes_sent`,
/// `pushes_received`) and the peer-channel fault counters (`peer_drops`,
/// `peer_delays`) in the faults block.
/// v5 added `io_backend` to each shard row: the poller backend the
/// shard's loop actually runs (`"uring"` or `"epoll"`, or `"none"` for
/// a not-yet-started loop).
/// v6 added the `handlers` array (one row per dynamic handler class:
/// invocations, cache hits, measured t_cpu p50/p99, and the oracle's
/// current per-class estimate) and the `dynamic_cache` block. The
/// per-class table is now the *only* dynamic-content accounting; no
/// aggregate top-level CGI counters were ever part of the schema, so
/// nothing is removed — consumers that summed `served` to approximate
/// CGI traffic should read `handlers[].invocations` instead.
/// v7 added the `overload` block (adaptive-admission shed level and
/// per-class shed counts, per-peer circuit-breaker states with open /
/// fast-fail totals, retry-budget exhaustions, and the current
/// load-derived `Retry-After` value) and two fault counters
/// (`overload_samples`, `brownout_delays`) for the injected overload /
/// brownout faults.
/// v8 added the `io` block: the poller's kernel-crossing counters
/// (syscalls, SQE/CQE traffic, syscalls saved) plus the zero-copy data
/// path introduced with registered buffers — `write_fixed`,
/// `buf_pool_exhausted`, `send_zc`, `zc_copies_avoided`, and the
/// SQ-pressure signal `sqe_backlogged`. Previously these lived only in
/// `/metrics`; the status document now carries them so bench tooling
/// can diff one JSON fetch.
/// v9 removed the top-level `engine` string: the reactor is the only
/// connection engine, so the field could only ever say `"reactor"`.
/// v10 removed what only the io_uring backend filled: the shard rows'
/// `io_backend` (epoll is the only poller) and the `io` block, whose one
/// number not pinned at zero moved to `counters.io_syscalls`.
pub const STATUS_SCHEMA_VERSION: u64 = 10;

/// One node's full introspection snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// JSON schema version ([`STATUS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Reporting node id.
    pub node: u32,
    /// Scheduling policy the node runs.
    pub policy: String,
    /// Whether this node is draining (leaving the scheduling pool).
    pub draining: bool,
    /// The node's view of every peer's load.
    pub load: Vec<LoadRow>,
    /// Lifetime request counters (sums across shards).
    pub counters: CounterSnapshot,
    /// Per-shard breakdown of the hot counters.
    pub shards: Vec<ShardRow>,
    /// Per-class dynamic handler accounting, sorted by class name.
    pub handlers: Vec<HandlerRow>,
    /// Dynamic response-cache state.
    pub dynamic_cache: crate::dynamic::DynamicCacheStats,
    /// File-cache state.
    pub cache: CacheSnapshot,
    /// Overload-control state: admission, breakers, retry budgets.
    pub overload: OverloadSnapshot,
    /// Faults injected so far by the chaos harness (all zero without one).
    pub faults: FaultCountsSnapshot,
}

/// The overload-control subsystem's introspection block (schema v7).
///
/// The structures always exist — `enabled: false` means the gates are
/// bypassed (`--overload off`), not that the numbers are absent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverloadSnapshot {
    /// Whether the admission/breaker/budget gates are active.
    pub enabled: bool,
    /// Current admission shed level (0 = admit everything, 3 = shed all
    /// non-admin traffic).
    pub shed_level: u64,
    /// The `Retry-After` seconds a shed response would carry right now.
    pub retry_after_secs: u64,
    /// Requests refused by the admission controller, by class, in shed
    /// order: `peer_serve`, `dynamic`, `static_miss`, `static_hit`.
    pub sheds_by_class: [u64; 4],
    /// Per-peer circuit-breaker states (`"closed"`, `"open"`,
    /// `"half-open"`), indexed by node id.
    pub breakers: Vec<String>,
    /// Closed→Open transitions across all peers, lifetime.
    pub breaker_opens: u64,
    /// Peer operations refused instantly by an open breaker, lifetime.
    pub breaker_fast_fails: u64,
    /// Retries refused because a retry budget was drained, lifetime.
    pub retry_exhausted: u64,
}

/// One reactor shard's slice of the node's hot counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// Shard index.
    pub shard: u32,
    /// Whether this shard's event loop is currently running.
    pub live: bool,
    /// Connections this shard accepted.
    pub accepted: u64,
    /// Requests this shard served.
    pub served: u64,
    /// Connections this shard refused 503.
    pub shed: u64,
    /// Requests in flight on this shard right now (may go negative for a
    /// single cell when a connection closes on a different shard's
    /// thread; only the sum is a true gauge).
    pub active: i64,
}

/// One dynamic handler class's accounting: how often it ran, how often
/// the response cache answered for it, what its invocations actually
/// cost, and what the oracle currently believes they cost.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerRow {
    /// Handler class name (`"echo"`, `"burn"`, `"fork"`, ...).
    pub class: String,
    /// Real handler invocations (cache hits excluded).
    pub invocations: u64,
    /// Requests answered from the dynamic response cache.
    pub cache_hits: u64,
    /// Median measured handler wall time, microseconds.
    pub p50_us: u64,
    /// 99th-percentile measured handler wall time, microseconds.
    pub p99_us: u64,
    /// The oracle's current CPU-demand estimate for this class, in ops —
    /// the tuned EWMA once measurements have fed back, the static prior
    /// until then. This is the `t_cpu` input the broker's cost model
    /// uses for the class.
    pub oracle_ops: f64,
}

/// One row of the load table as this node sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRow {
    /// Peer node id.
    pub node: u32,
    /// CPU channel load.
    pub cpu: f64,
    /// Disk channel load.
    pub disk: f64,
    /// Network channel load.
    pub net: f64,
    /// Whether the peer still counts toward cluster capacity (not Dead).
    pub alive: bool,
    /// Tri-state health: `"alive"`, `"suspect"` or `"dead"`.
    pub health: String,
    /// Milliseconds since the last report from this peer.
    pub age_ms: f64,
}

/// Lifetime counters, snapshotted atomically enough for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests fulfilled locally.
    pub served: u64,
    /// Requests answered with a 302 to a peer.
    pub redirected: u64,
    /// Requests that arrived already redirected once.
    pub received_redirects: u64,
    /// Malformed requests answered 400.
    pub bad_requests: u64,
    /// `accept(2)` failures.
    pub accept_errors: u64,
    /// Connections refused 503.
    pub shed: u64,
    /// Connections evicted on timeout.
    pub evicted: u64,
    /// Zero-copy transmits.
    pub zero_copy: u64,
    /// `sendfile(2)` transmits.
    pub sendfile: u64,
    /// Requests in flight right now.
    pub active: i64,
    /// Response bytes in flight right now.
    pub bytes_in_flight: i64,
    /// loadd packets that failed to decode (garbage, bad magic, bad id).
    pub loadd_decode_errors: u64,
    /// Peers marked Suspect after one silent loadd period.
    pub peer_suspect: u64,
    /// Peers marked Dead (staleness timeout or a leaving packet).
    pub peer_dead: u64,
    /// Dead/Suspect peers revived by a fresh loadd packet.
    pub peer_revived: u64,
    /// Requests refused 503 for blowing their per-phase deadline.
    pub deadline_overruns: u64,
    /// Transient fetch errors retried with backoff.
    pub fetch_retries: u64,
    /// Requests served by pulling the document over the peer channel.
    pub peer_fetches: u64,
    /// Peer pulls that failed (and degraded to a redirect or local read).
    pub forward_failures: u64,
    /// Garbled/unexpected peer-channel frames (counted, never fatal).
    pub peer_frames_bad: u64,
    /// Hot documents this node pushed to peers (replication).
    pub pushes_sent: u64,
    /// Replication pushes this node accepted into its cache.
    pub pushes_received: u64,
    /// Kernel entries the shards' pollers made (`epoll_wait` and
    /// `epoll_ctl`; `sweb_io_syscalls_total`).
    pub io_syscalls: u64,
}

/// File-cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Key collisions detected.
    pub collisions: u64,
    /// Bytes currently cached.
    pub used_bytes: u64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Bits set in the advertised Bloom digest.
    pub digest_bits: u64,
}

impl StatusReport {
    /// Snapshot `shared` into a report.
    pub fn gather(shared: &NodeShared) -> StatusReport {
        let now = shared.now();
        let load = {
            let loads = shared.loads.read();
            (0..loads.len())
                .map(|i| {
                    let id = NodeId(i as u32);
                    let l = loads.load(id);
                    LoadRow {
                        node: id.0,
                        cpu: l.cpu,
                        disk: l.disk,
                        net: l.net,
                        alive: loads.is_alive(id),
                        health: loads.health(id).name().to_string(),
                        age_ms: now.saturating_sub(loads.updated_at(id)).as_millis_f64(),
                    }
                })
                .collect()
        };
        let s = &shared.stats;
        StatusReport {
            schema_version: STATUS_SCHEMA_VERSION,
            node: shared.id.0,
            policy: shared.broker.policy().to_string(),
            draining: shared.draining.load(std::sync::atomic::Ordering::Relaxed),
            load,
            counters: CounterSnapshot {
                accepted: s.accepted.get(),
                served: s.served.get(),
                redirected: s.redirected.get(),
                received_redirects: s.received_redirects.get(),
                bad_requests: s.bad_requests.get(),
                accept_errors: s.accept_errors.get(),
                shed: s.shed.get(),
                evicted: s.evicted.get(),
                zero_copy: s.zero_copy.get(),
                sendfile: s.sendfile.get(),
                active: s.active.get(),
                bytes_in_flight: s.bytes_in_flight.get(),
                loadd_decode_errors: s.loadd_decode_errors.get(),
                peer_suspect: s.peer_suspect.get(),
                peer_dead: s.peer_dead.get(),
                peer_revived: s.peer_revived.get(),
                deadline_overruns: s.deadline_overruns.get(),
                fetch_retries: s.fetch_retries.get(),
                peer_fetches: s.peer_fetches.get(),
                forward_failures: s.forward_failures.get(),
                peer_frames_bad: s.peer_frames_bad.get(),
                pushes_sent: s.pushes_sent.get(),
                pushes_received: s.pushes_received.get(),
                io_syscalls: s.io_syscalls.get(),
            },
            shards: (0..shared.shards.max(1))
                .map(|i| ShardRow {
                    shard: i as u32,
                    live: shared
                        .shard_live
                        .get(i)
                        .is_some_and(|l| l.load(std::sync::atomic::Ordering::Relaxed)),
                    accepted: s.accepted.cell_value(i),
                    served: s.served.cell_value(i),
                    shed: s.shed.cell_value(i),
                    active: s.active.cell_value(i),
                })
                .collect(),
            handlers: shared
                .dynamic
                .class_rows()
                .into_iter()
                .map(|(class, cs)| HandlerRow {
                    class: class.to_string(),
                    invocations: cs.invocations.get(),
                    cache_hits: cs.cache_hits.get(),
                    p50_us: cs.tcpu_us.quantile(0.5),
                    p99_us: cs.tcpu_us.quantile(0.99),
                    oracle_ops: shared.oracle.characterize_dynamic(
                        class,
                        &format!("/cgi-bin/{class}"),
                        4096,
                    ),
                })
                .collect(),
            dynamic_cache: shared.dynamic.cache.stats(),
            cache: CacheSnapshot {
                hits: shared.file_cache.hits(),
                misses: shared.file_cache.misses(),
                collisions: shared.file_cache.collisions(),
                used_bytes: shared.file_cache.used(),
                capacity_bytes: shared.file_cache.capacity(),
                digest_bits: shared.file_cache.digest().ones() as u64,
            },
            overload: OverloadSnapshot {
                enabled: shared.overload_control,
                shed_level: shared.admission.level() as u64,
                retry_after_secs: shared.admission.retry_after_secs(),
                sheds_by_class: [
                    sweb_core::AdmitClass::PeerServe,
                    sweb_core::AdmitClass::Dynamic,
                    sweb_core::AdmitClass::StaticMiss,
                    sweb_core::AdmitClass::StaticHit,
                ]
                .map(|cl| s.admission_shed_counter(cl).get()),
                breakers: (0..shared.breakers.len())
                    .map(|i| shared.breakers.state(NodeId(i as u32)).name().to_string())
                    .collect(),
                breaker_opens: shared.breakers.opens_total(),
                breaker_fast_fails: shared.breakers.fast_fails_total(),
                retry_exhausted: s.retry_budget_exhausted.get(),
            },
            faults: shared.chaos.counts().snapshot(),
        }
    }

    /// The human-readable status page (the pre-JSON format, unchanged).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "SWEB node n{} — policy {}{}\n\nload table (this node's view):\n",
            self.node,
            self.policy,
            if self.draining { " — DRAINING" } else { "" },
        ));
        out.push_str("node   cpu     disk    net     health   age(ms)\n");
        for row in &self.load {
            out.push_str(&format!(
                "{:<6} {:<7.2} {:<7.2} {:<7.2} {:<8} {:.0}\n",
                format!("n{}", row.node),
                row.cpu,
                row.disk,
                row.net,
                row.health,
                row.age_ms,
            ));
        }
        let c = &self.counters;
        out.push_str(&format!(
            "\ncounters:\n  accepted          {}\n  served            {}\n  redirected-away   {}\n  \
             received-redirects {}\n  bad-requests      {}\n  accept-errors     {}\n  \
             shed-503          {}\n  evicted           {}\n  zero-copy         {}\n  \
             sendfile          {}\n  active-now        {}\n  \
             decode-errors     {}\n  peer-suspect      {}\n  peer-dead         {}\n  \
             peer-revived      {}\n  deadline-overruns {}\n  fetch-retries     {}\n  \
             peer-fetches      {}\n  forward-failures  {}\n  peer-frames-bad   {}\n  \
             pushes-sent       {}\n  pushes-received   {}\n  io-syscalls       {}\n",
            c.accepted,
            c.served,
            c.redirected,
            c.received_redirects,
            c.bad_requests,
            c.accept_errors,
            c.shed,
            c.evicted,
            c.zero_copy,
            c.sendfile,
            c.active,
            c.loadd_decode_errors,
            c.peer_suspect,
            c.peer_dead,
            c.peer_revived,
            c.deadline_overruns,
            c.fetch_retries,
            c.peer_fetches,
            c.forward_failures,
            c.peer_frames_bad,
            c.pushes_sent,
            c.pushes_received,
            c.io_syscalls,
        ));
        out.push_str(
            "\nshards:\nshard  live   accepted  served    shed      active\n",
        );
        for row in &self.shards {
            out.push_str(&format!(
                "{:<6} {:<6} {:<9} {:<9} {:<9} {}\n",
                format!("s{}", row.shard),
                if row.live { "yes" } else { "no" },
                row.accepted,
                row.served,
                row.shed,
                row.active,
            ));
        }
        out.push_str(
            "\nhandlers:\nclass       invoked   cache-hit p50(us)   p99(us)   oracle(ops)\n",
        );
        for row in &self.handlers {
            out.push_str(&format!(
                "{:<11} {:<9} {:<9} {:<9} {:<9} {:.0}\n",
                row.class, row.invocations, row.cache_hits, row.p50_us, row.p99_us, row.oracle_ops,
            ));
        }
        let d = &self.dynamic_cache;
        out.push_str(&format!(
            "dynamic cache: {} hits, {} misses, {} expired, {} evicted, {} / {} entries\n",
            d.hits, d.misses, d.expired, d.evictions, d.entries, d.max_entries,
        ));
        out.push_str(&format!(
            "\nfile cache: {} hits, {} misses, {} collisions, {} / {} bytes, digest {} bits set\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.collisions,
            self.cache.used_bytes,
            self.cache.capacity_bytes,
            self.cache.digest_bits,
        ));
        let o = &self.overload;
        out.push_str(&format!(
            "\noverload control: {} — shed level {}, retry-after {}s\n  \
             sheds: {} peer-serve, {} dynamic, {} static-miss, {} static-hit\n  \
             breakers: [{}] — {} opens, {} fast-fails\n  \
             retry budgets: {} exhausted\n",
            if o.enabled { "on" } else { "off" },
            o.shed_level,
            o.retry_after_secs,
            o.sheds_by_class[0],
            o.sheds_by_class[1],
            o.sheds_by_class[2],
            o.sheds_by_class[3],
            o.breakers.join(", "),
            o.breaker_opens,
            o.breaker_fast_fails,
            o.retry_exhausted,
        ));
        let f = &self.faults;
        if f != &FaultCountsSnapshot::default() {
            out.push_str(&format!(
                "\ninjected faults: {} pkts dropped, {} pkts delayed, {} accepts paused, \
                 {} fd rejections, {} slow reads\n",
                f.packets_dropped, f.packets_delayed, f.accepts_paused, f.fd_rejections, f.slow_reads,
            ));
            if f.peer_drops + f.peer_delays > 0 {
                out.push_str(&format!(
                    "peer channel: {} frames dropped, {} frames delayed\n",
                    f.peer_drops, f.peer_delays,
                ));
            }
            if f.overload_samples + f.brownout_delays > 0 {
                out.push_str(&format!(
                    "overload faults: {} sojourn samples inflated, {} brownout delays\n",
                    f.overload_samples, f.brownout_delays,
                ));
            }
        }
        out
    }

    /// The JSON view (`/sweb-status?format=json`).
    pub fn to_json(&self) -> Json {
        let obj = |members: Vec<(&str, Json)>| {
            Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let c = &self.counters;
        obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("node", Json::Num(self.node as f64)),
            ("policy", Json::Str(self.policy.clone())),
            ("draining", Json::Bool(self.draining)),
            (
                "load",
                Json::Arr(
                    self.load
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("node", Json::Num(row.node as f64)),
                                ("cpu", Json::Num(row.cpu)),
                                ("disk", Json::Num(row.disk)),
                                ("net", Json::Num(row.net)),
                                ("alive", Json::Bool(row.alive)),
                                ("health", Json::Str(row.health.clone())),
                                ("age_ms", Json::Num(row.age_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                obj(vec![
                    ("accepted", Json::Num(c.accepted as f64)),
                    ("served", Json::Num(c.served as f64)),
                    ("redirected", Json::Num(c.redirected as f64)),
                    ("received_redirects", Json::Num(c.received_redirects as f64)),
                    ("bad_requests", Json::Num(c.bad_requests as f64)),
                    ("accept_errors", Json::Num(c.accept_errors as f64)),
                    ("shed", Json::Num(c.shed as f64)),
                    ("evicted", Json::Num(c.evicted as f64)),
                    ("zero_copy", Json::Num(c.zero_copy as f64)),
                    ("sendfile", Json::Num(c.sendfile as f64)),
                    ("active", Json::Num(c.active as f64)),
                    ("bytes_in_flight", Json::Num(c.bytes_in_flight as f64)),
                    ("loadd_decode_errors", Json::Num(c.loadd_decode_errors as f64)),
                    ("peer_suspect", Json::Num(c.peer_suspect as f64)),
                    ("peer_dead", Json::Num(c.peer_dead as f64)),
                    ("peer_revived", Json::Num(c.peer_revived as f64)),
                    ("deadline_overruns", Json::Num(c.deadline_overruns as f64)),
                    ("fetch_retries", Json::Num(c.fetch_retries as f64)),
                    ("peer_fetches", Json::Num(c.peer_fetches as f64)),
                    ("forward_failures", Json::Num(c.forward_failures as f64)),
                    ("peer_frames_bad", Json::Num(c.peer_frames_bad as f64)),
                    ("pushes_sent", Json::Num(c.pushes_sent as f64)),
                    ("pushes_received", Json::Num(c.pushes_received as f64)),
                    ("io_syscalls", Json::Num(c.io_syscalls as f64)),
                ]),
            ),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("shard", Json::Num(row.shard as f64)),
                                ("live", Json::Bool(row.live)),
                                ("accepted", Json::Num(row.accepted as f64)),
                                ("served", Json::Num(row.served as f64)),
                                ("shed", Json::Num(row.shed as f64)),
                                ("active", Json::Num(row.active as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "handlers",
                Json::Arr(
                    self.handlers
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("class", Json::Str(row.class.clone())),
                                ("invocations", Json::Num(row.invocations as f64)),
                                ("cache_hits", Json::Num(row.cache_hits as f64)),
                                ("p50_us", Json::Num(row.p50_us as f64)),
                                ("p99_us", Json::Num(row.p99_us as f64)),
                                ("oracle_ops", Json::Num(row.oracle_ops)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "dynamic_cache",
                obj(vec![
                    ("hits", Json::Num(self.dynamic_cache.hits as f64)),
                    ("misses", Json::Num(self.dynamic_cache.misses as f64)),
                    ("expired", Json::Num(self.dynamic_cache.expired as f64)),
                    ("evictions", Json::Num(self.dynamic_cache.evictions as f64)),
                    ("entries", Json::Num(self.dynamic_cache.entries as f64)),
                    ("max_entries", Json::Num(self.dynamic_cache.max_entries as f64)),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", Json::Num(self.cache.hits as f64)),
                    ("misses", Json::Num(self.cache.misses as f64)),
                    ("collisions", Json::Num(self.cache.collisions as f64)),
                    ("used_bytes", Json::Num(self.cache.used_bytes as f64)),
                    ("capacity_bytes", Json::Num(self.cache.capacity_bytes as f64)),
                    ("digest_bits", Json::Num(self.cache.digest_bits as f64)),
                ]),
            ),
            (
                "overload",
                obj(vec![
                    ("enabled", Json::Bool(self.overload.enabled)),
                    ("shed_level", Json::Num(self.overload.shed_level as f64)),
                    ("retry_after_secs", Json::Num(self.overload.retry_after_secs as f64)),
                    (
                        "sheds_by_class",
                        obj(vec![
                            ("peer_serve", Json::Num(self.overload.sheds_by_class[0] as f64)),
                            ("dynamic", Json::Num(self.overload.sheds_by_class[1] as f64)),
                            ("static_miss", Json::Num(self.overload.sheds_by_class[2] as f64)),
                            ("static_hit", Json::Num(self.overload.sheds_by_class[3] as f64)),
                        ]),
                    ),
                    (
                        "breakers",
                        Json::Arr(
                            self.overload.breakers.iter().map(|s| Json::Str(s.clone())).collect(),
                        ),
                    ),
                    ("breaker_opens", Json::Num(self.overload.breaker_opens as f64)),
                    ("breaker_fast_fails", Json::Num(self.overload.breaker_fast_fails as f64)),
                    ("retry_exhausted", Json::Num(self.overload.retry_exhausted as f64)),
                ]),
            ),
            (
                "faults",
                obj(vec![
                    ("packets_dropped", Json::Num(self.faults.packets_dropped as f64)),
                    ("packets_delayed", Json::Num(self.faults.packets_delayed as f64)),
                    ("accepts_paused", Json::Num(self.faults.accepts_paused as f64)),
                    ("fd_rejections", Json::Num(self.faults.fd_rejections as f64)),
                    ("slow_reads", Json::Num(self.faults.slow_reads as f64)),
                    ("peer_drops", Json::Num(self.faults.peer_drops as f64)),
                    ("peer_delays", Json::Num(self.faults.peer_delays as f64)),
                    ("overload_samples", Json::Num(self.faults.overload_samples as f64)),
                    ("brownout_delays", Json::Num(self.faults.brownout_delays as f64)),
                ]),
            ),
        ])
    }

    /// Parse a JSON document back into a report, strictly checking the
    /// schema version. This is the consumer-side contract test: anything a
    /// node serves must round-trip through here unchanged.
    pub fn from_json(v: &Json) -> Result<StatusReport, String> {
        let field = |obj: &Json, key: &str| -> Result<Json, String> {
            obj.get(key).cloned().ok_or_else(|| format!("missing field {key:?}"))
        };
        let num_u64 = |obj: &Json, key: &str| -> Result<u64, String> {
            field(obj, key)?.as_u64().ok_or_else(|| format!("field {key:?} is not a u64"))
        };
        let num_i64 = |obj: &Json, key: &str| -> Result<i64, String> {
            field(obj, key)?.as_i64().ok_or_else(|| format!("field {key:?} is not an i64"))
        };
        let num_f64 = |obj: &Json, key: &str| -> Result<f64, String> {
            field(obj, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
        };
        let schema_version = num_u64(v, "schema_version")?;
        if schema_version != STATUS_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (want {STATUS_SCHEMA_VERSION})"
            ));
        }
        let load = field(v, "load")?
            .as_arr()
            .ok_or("load is not an array")?
            .iter()
            .map(|row| {
                Ok(LoadRow {
                    node: num_u64(row, "node")? as u32,
                    cpu: num_f64(row, "cpu")?,
                    disk: num_f64(row, "disk")?,
                    net: num_f64(row, "net")?,
                    alive: field(row, "alive")?.as_bool().ok_or("alive is not a bool")?,
                    health: field(row, "health")?
                        .as_str()
                        .ok_or("health is not a string")?
                        .to_string(),
                    age_ms: num_f64(row, "age_ms")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let c = field(v, "counters")?;
        let counters = CounterSnapshot {
            accepted: num_u64(&c, "accepted")?,
            served: num_u64(&c, "served")?,
            redirected: num_u64(&c, "redirected")?,
            received_redirects: num_u64(&c, "received_redirects")?,
            bad_requests: num_u64(&c, "bad_requests")?,
            accept_errors: num_u64(&c, "accept_errors")?,
            shed: num_u64(&c, "shed")?,
            evicted: num_u64(&c, "evicted")?,
            zero_copy: num_u64(&c, "zero_copy")?,
            sendfile: num_u64(&c, "sendfile")?,
            active: num_i64(&c, "active")?,
            bytes_in_flight: num_i64(&c, "bytes_in_flight")?,
            loadd_decode_errors: num_u64(&c, "loadd_decode_errors")?,
            peer_suspect: num_u64(&c, "peer_suspect")?,
            peer_dead: num_u64(&c, "peer_dead")?,
            peer_revived: num_u64(&c, "peer_revived")?,
            deadline_overruns: num_u64(&c, "deadline_overruns")?,
            fetch_retries: num_u64(&c, "fetch_retries")?,
            peer_fetches: num_u64(&c, "peer_fetches")?,
            forward_failures: num_u64(&c, "forward_failures")?,
            peer_frames_bad: num_u64(&c, "peer_frames_bad")?,
            pushes_sent: num_u64(&c, "pushes_sent")?,
            pushes_received: num_u64(&c, "pushes_received")?,
            io_syscalls: num_u64(&c, "io_syscalls")?,
        };
        let shards = field(v, "shards")?
            .as_arr()
            .ok_or("shards is not an array")?
            .iter()
            .map(|row| {
                Ok(ShardRow {
                    shard: num_u64(row, "shard")? as u32,
                    live: field(row, "live")?.as_bool().ok_or("live is not a bool")?,
                    accepted: num_u64(row, "accepted")?,
                    served: num_u64(row, "served")?,
                    shed: num_u64(row, "shed")?,
                    active: num_i64(row, "active")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let handlers = field(v, "handlers")?
            .as_arr()
            .ok_or("handlers is not an array")?
            .iter()
            .map(|row| {
                Ok(HandlerRow {
                    class: field(row, "class")?
                        .as_str()
                        .ok_or("class is not a string")?
                        .to_string(),
                    invocations: num_u64(row, "invocations")?,
                    cache_hits: num_u64(row, "cache_hits")?,
                    p50_us: num_u64(row, "p50_us")?,
                    p99_us: num_u64(row, "p99_us")?,
                    oracle_ops: num_f64(row, "oracle_ops")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let d = field(v, "dynamic_cache")?;
        let dynamic_cache = crate::dynamic::DynamicCacheStats {
            hits: num_u64(&d, "hits")?,
            misses: num_u64(&d, "misses")?,
            expired: num_u64(&d, "expired")?,
            evictions: num_u64(&d, "evictions")?,
            entries: num_u64(&d, "entries")?,
            max_entries: num_u64(&d, "max_entries")?,
        };
        let k = field(v, "cache")?;
        let cache = CacheSnapshot {
            hits: num_u64(&k, "hits")?,
            misses: num_u64(&k, "misses")?,
            collisions: num_u64(&k, "collisions")?,
            used_bytes: num_u64(&k, "used_bytes")?,
            capacity_bytes: num_u64(&k, "capacity_bytes")?,
            digest_bits: num_u64(&k, "digest_bits")?,
        };
        let o = field(v, "overload")?;
        let sheds = field(&o, "sheds_by_class")?;
        let overload = OverloadSnapshot {
            enabled: field(&o, "enabled")?.as_bool().ok_or("enabled is not a bool")?,
            shed_level: num_u64(&o, "shed_level")?,
            retry_after_secs: num_u64(&o, "retry_after_secs")?,
            sheds_by_class: [
                num_u64(&sheds, "peer_serve")?,
                num_u64(&sheds, "dynamic")?,
                num_u64(&sheds, "static_miss")?,
                num_u64(&sheds, "static_hit")?,
            ],
            breakers: field(&o, "breakers")?
                .as_arr()
                .ok_or("breakers is not an array")?
                .iter()
                .map(|s| {
                    s.as_str().map(str::to_string).ok_or_else(|| "breaker is not a string".into())
                })
                .collect::<Result<Vec<_>, String>>()?,
            breaker_opens: num_u64(&o, "breaker_opens")?,
            breaker_fast_fails: num_u64(&o, "breaker_fast_fails")?,
            retry_exhausted: num_u64(&o, "retry_exhausted")?,
        };
        let f = field(v, "faults")?;
        let faults = FaultCountsSnapshot {
            packets_dropped: num_u64(&f, "packets_dropped")?,
            packets_delayed: num_u64(&f, "packets_delayed")?,
            accepts_paused: num_u64(&f, "accepts_paused")?,
            fd_rejections: num_u64(&f, "fd_rejections")?,
            slow_reads: num_u64(&f, "slow_reads")?,
            peer_drops: num_u64(&f, "peer_drops")?,
            peer_delays: num_u64(&f, "peer_delays")?,
            overload_samples: num_u64(&f, "overload_samples")?,
            brownout_delays: num_u64(&f, "brownout_delays")?,
        };
        Ok(StatusReport {
            schema_version,
            node: num_u64(v, "node")? as u32,
            policy: field(v, "policy")?.as_str().ok_or("policy is not a string")?.to_string(),
            draining: field(v, "draining")?.as_bool().ok_or("draining is not a bool")?,
            load,
            counters,
            shards,
            handlers,
            dynamic_cache,
            cache,
            overload,
            faults,
        })
    }
}

/// Render the status endpoint: the text page, or the JSON document when
/// the query selects `format=json`.
pub fn render(shared: &NodeShared, query: Option<&str>) -> Response {
    let report = StatusReport::gather(shared);
    let json = query
        .map(|q| q.split('&').any(|kv| kv == "format=json"))
        .unwrap_or(false);
    if json {
        Response::ok(report.to_json().render(), "application/json")
    } else {
        Response::ok(report.to_text(), "text/plain")
    }
}

/// Render the `/metrics` exposition: every registry series, plus the
/// file-cache series (the cache predates the registry and keeps its own
/// atomics; it is rendered as first-class metrics here).
pub fn render_metrics(shared: &NodeShared) -> Response {
    let mut out = shared.stats.registry.render_prometheus();
    let cache = &shared.file_cache;
    out.push_str("# HELP sweb_file_cache_hits_total Document cache hits\n");
    out.push_str("# TYPE sweb_file_cache_hits_total counter\n");
    out.push_str(&format!("sweb_file_cache_hits_total {}\n", cache.hits()));
    out.push_str("# HELP sweb_file_cache_misses_total Document cache misses\n");
    out.push_str("# TYPE sweb_file_cache_misses_total counter\n");
    out.push_str(&format!("sweb_file_cache_misses_total {}\n", cache.misses()));
    out.push_str("# HELP sweb_file_cache_collisions_total Cache key collisions\n");
    out.push_str("# TYPE sweb_file_cache_collisions_total counter\n");
    out.push_str(&format!("sweb_file_cache_collisions_total {}\n", cache.collisions()));
    out.push_str("# HELP sweb_file_cache_used_bytes Bytes currently cached\n");
    out.push_str("# TYPE sweb_file_cache_used_bytes gauge\n");
    out.push_str(&format!("sweb_file_cache_used_bytes {}\n", cache.used()));
    out.push_str("# HELP sweb_file_cache_capacity_bytes Cache capacity\n");
    out.push_str("# TYPE sweb_file_cache_capacity_bytes gauge\n");
    out.push_str(&format!("sweb_file_cache_capacity_bytes {}\n", cache.capacity()));
    out.push_str("# HELP sweb_file_cache_digest_bits Bits set in the advertised Bloom digest\n");
    out.push_str("# TYPE sweb_file_cache_digest_bits gauge\n");
    out.push_str(&format!("sweb_file_cache_digest_bits {}\n", cache.digest().ones()));
    // Overload-control series: like the file cache, the admission
    // controller and breakers keep their own atomics, rendered here as
    // first-class metrics.
    out.push_str("# HELP sweb_admission_shed_level Current adaptive-admission shed level (0-3)\n");
    out.push_str("# TYPE sweb_admission_shed_level gauge\n");
    out.push_str(&format!("sweb_admission_shed_level {}\n", shared.admission.level()));
    out.push_str("# HELP sweb_breaker_open Peer circuit breakers currently open\n");
    out.push_str("# TYPE sweb_breaker_open gauge\n");
    out.push_str(&format!("sweb_breaker_open {}\n", shared.breakers.open_count()));
    out.push_str("# HELP sweb_breaker_opens_total Closed-to-open breaker transitions\n");
    out.push_str("# TYPE sweb_breaker_opens_total counter\n");
    out.push_str(&format!("sweb_breaker_opens_total {}\n", shared.breakers.opens_total()));
    out.push_str("# HELP sweb_breaker_fast_fails_total Peer operations refused by an open breaker\n");
    out.push_str("# TYPE sweb_breaker_fast_fails_total counter\n");
    out.push_str(&format!("sweb_breaker_fast_fails_total {}\n", shared.breakers.fast_fails_total()));
    Response::ok(out, "text/plain; version=0.0.4")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> StatusReport {
        StatusReport {
            schema_version: STATUS_SCHEMA_VERSION,
            node: 2,
            policy: "sweb".to_string(),
            draining: true,
            load: vec![
                LoadRow {
                    node: 0,
                    cpu: 1.5,
                    disk: 0.25,
                    net: 0.0,
                    alive: true,
                    health: "alive".to_string(),
                    age_ms: 12.0,
                },
                LoadRow {
                    node: 1,
                    cpu: 0.0,
                    disk: 0.0,
                    net: 3.5,
                    alive: false,
                    health: "dead".to_string(),
                    age_ms: 2000.0,
                },
            ],
            counters: CounterSnapshot {
                accepted: 100,
                served: 90,
                redirected: 8,
                received_redirects: 3,
                bad_requests: 1,
                accept_errors: 0,
                shed: 2,
                evicted: 1,
                zero_copy: 42,
                sendfile: 7,
                active: 5,
                bytes_in_flight: 123456,
                loadd_decode_errors: 4,
                peer_suspect: 3,
                peer_dead: 2,
                peer_revived: 1,
                deadline_overruns: 6,
                fetch_retries: 9,
                peer_fetches: 11,
                forward_failures: 2,
                peer_frames_bad: 1,
                pushes_sent: 4,
                pushes_received: 3,
                io_syscalls: 1234,
            },
            shards: vec![
                ShardRow {
                    shard: 0,
                    live: true,
                    accepted: 60,
                    served: 55,
                    shed: 2,
                    active: 3,
                },
                ShardRow {
                    shard: 1,
                    live: false,
                    accepted: 40,
                    served: 35,
                    shed: 0,
                    active: 2,
                },
            ],
            handlers: vec![
                HandlerRow {
                    class: "burn".to_string(),
                    invocations: 25,
                    cache_hits: 75,
                    p50_us: 1800,
                    p99_us: 4200,
                    oracle_ops: 250000.0,
                },
                HandlerRow {
                    class: "echo".to_string(),
                    invocations: 10,
                    cache_hits: 0,
                    p50_us: 30,
                    p99_us: 90,
                    oracle_ops: 5000.0,
                },
            ],
            dynamic_cache: crate::dynamic::DynamicCacheStats {
                hits: 75,
                misses: 35,
                expired: 4,
                evictions: 2,
                entries: 29,
                max_entries: 1024,
            },
            cache: CacheSnapshot {
                hits: 50,
                misses: 40,
                collisions: 0,
                used_bytes: 1 << 20,
                capacity_bytes: 16 << 20,
                digest_bits: 12,
            },
            overload: OverloadSnapshot {
                enabled: true,
                shed_level: 2,
                retry_after_secs: 4,
                sheds_by_class: [6, 5, 3, 0],
                breakers: vec!["closed".to_string(), "open".to_string(), "closed".to_string()],
                breaker_opens: 2,
                breaker_fast_fails: 9,
                retry_exhausted: 1,
            },
            faults: FaultCountsSnapshot {
                packets_dropped: 17,
                packets_delayed: 5,
                accepts_paused: 2,
                fd_rejections: 1,
                slow_reads: 3,
                peer_drops: 2,
                peer_delays: 1,
                overload_samples: 8,
                brownout_delays: 4,
            },
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let text = report.to_json().render();
        let parsed = Json::parse(&text).expect("our own JSON must parse");
        let back = StatusReport::from_json(&parsed).expect("schema round trip");
        assert_eq!(back, report);
        assert!(!text.contains("\"engine\""), "v9 dropped the engine key: {text}");
        assert!(!text.contains("\"io\""), "v10 dropped the io block: {text}");
        assert!(!text.contains("io_backend"), "v10 dropped the shard backend: {text}");
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let report = sample_report();
        // A future version, and the previous one (v9 still carried the
        // `io` block and each shard's `io_backend`).
        for version in [99.0, 9.0] {
            let mut v = report.to_json();
            if let Json::Obj(members) = &mut v {
                members[0].1 = Json::Num(version);
            }
            let err = StatusReport::from_json(&v).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "counters");
        }
        assert!(StatusReport::from_json(&v).is_err());
    }

    #[test]
    fn text_view_carries_the_same_numbers() {
        let report = sample_report();
        let text = report.to_text();
        assert!(
            text.contains("SWEB node n2 — policy sweb — DRAINING"),
            "{text}"
        );
        assert!(text.contains("zero-copy         42"), "{text}");
        assert!(text.contains("active-now        5"), "{text}");
        assert!(text.contains("deadline-overruns 6"), "{text}");
        assert!(text.contains("peer-fetches      11"), "{text}");
        assert!(text.contains("pushes-sent       4"), "{text}");
        assert!(text.contains("io-syscalls       1234"), "{text}");
        assert!(text.contains("file cache: 50 hits, 40 misses"), "{text}");
        // Two load rows, one per peer, with tri-state health.
        assert!(text.contains("n0") && text.contains("n1"), "{text}");
        assert!(text.contains("alive") && text.contains("dead"), "{text}");
        assert!(text.contains("17 pkts dropped"), "{text}");
        assert!(text.contains("peer channel: 2 frames dropped, 1 frames delayed"), "{text}");
        assert!(
            text.contains("overload faults: 8 sojourn samples inflated, 4 brownout delays"),
            "{text}"
        );
        assert!(
            text.contains("overload control: on — shed level 2, retry-after 4s"),
            "{text}"
        );
        assert!(text.contains("sheds: 6 peer-serve, 5 dynamic, 3 static-miss, 0 static-hit"), "{text}");
        assert!(text.contains("breakers: [closed, open, closed] — 2 opens, 9 fast-fails"), "{text}");
        assert!(text.contains("retry budgets: 1 exhausted"), "{text}");
        // The per-shard breakdown: one row per shard, liveness included.
        assert!(text.contains("shards:"), "{text}");
        assert!(text.contains("s0     yes    60        55        2         3"), "{text}");
        assert!(text.contains("s1     no     40        35        0         2"), "{text}");
    }

    #[test]
    fn from_json_rejects_missing_handlers() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "handlers");
        }
        assert!(StatusReport::from_json(&v).is_err(), "v6 requires the handlers array");
        let mut v = report.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "dynamic_cache");
        }
        assert!(StatusReport::from_json(&v).is_err(), "v6 requires the dynamic_cache block");
    }

    #[test]
    fn text_view_has_the_handler_table() {
        let text = sample_report().to_text();
        assert!(text.contains("handlers:"), "{text}");
        assert!(text.contains("burn        25        75        1800      4200      250000"), "{text}");
        assert!(text.contains("echo        10        0         30        90        5000"), "{text}");
        assert!(
            text.contains("dynamic cache: 75 hits, 35 misses, 4 expired, 2 evicted, 29 / 1024 entries"),
            "{text}"
        );
    }

    #[test]
    fn from_json_rejects_missing_overload() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "overload");
        }
        assert!(StatusReport::from_json(&v).is_err(), "v7 requires the overload block");
        let mut v = report.to_json();
        if let Json::Obj(members) = &mut v {
            if let Some((_, Json::Obj(faults))) = members.iter_mut().find(|(k, _)| k == "faults") {
                faults.retain(|(k, _)| k != "overload_samples");
            }
        }
        assert!(StatusReport::from_json(&v).is_err(), "v7 requires the new fault counters");
    }

    #[test]
    fn from_json_rejects_missing_io_syscalls() {
        let mut v = sample_report().to_json();
        if let Json::Obj(members) = &mut v {
            if let Some((_, Json::Obj(c))) = members.iter_mut().find(|(k, _)| k == "counters") {
                c.retain(|(k, _)| k != "io_syscalls");
            }
        }
        assert!(StatusReport::from_json(&v).is_err(), "v10 carries io_syscalls in counters");
    }

    #[test]
    fn from_json_rejects_missing_shards() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Obj(members) = &mut v {
            members.retain(|(k, _)| k != "shards");
        }
        assert!(StatusReport::from_json(&v).is_err(), "v3 requires the shards array");
    }

    #[test]
    fn fault_block_hidden_when_nothing_injected() {
        let mut report = sample_report();
        report.faults = FaultCountsSnapshot::default();
        let text = report.to_text();
        assert!(!text.contains("injected faults"), "{text}");
        // But the JSON keeps the (zero) block: the schema is unconditional.
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        let back = StatusReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
    }
}
