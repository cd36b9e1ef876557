//! Per-node state and its adapter onto the reactor connection engine.

use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use sweb_chaos::Injector;
use sweb_cluster::{ClusterSpec, NodeId};
use sweb_core::{
    AdmissionController, AdmitClass, Broker, LoadTable, Oracle, RetryBudget, SwebConfig,
};
use sweb_des::SimTime;
use sweb_http::{Request, StatusCode};
use sweb_reactor::Payload;
use sweb_telemetry::{
    AtomicHistogram, CostFeedback, Counter, Phase, PhaseTimes, Registry, ShardedCounter,
    ShardedGauge,
};

use crate::file_cache::FileCache;
use crate::handler;

/// A node's telemetry surface: every counter, gauge, and histogram the
/// server increments, all registered on one [`Registry`] — with readers of
/// the numbers other subsystems keep ([`NodeStats::read_from`]) — so the
/// status page, the JSON report, and the `/metrics` exposition are three
/// views of one registry.
///
/// Every reply lands in exactly one outcome counter: `served`,
/// `redirected`, `shed`, `bad_requests` or `deadline_overruns` (DESIGN.md
/// §10 states the rule).
pub struct NodeStats {
    /// The metric registry behind every handle below (renders `/metrics`).
    pub registry: Arc<Registry>,
    /// Connections accepted (shard-local cells: hot on every accept).
    pub accepted: Arc<ShardedCounter>,
    /// Replies the node produced that are neither a 302 nor a 503: every
    /// document, handler, admin page, 304 and 4xx/5xx (shard-local cells).
    pub served: Arc<ShardedCounter>,
    /// Replies that were a 302 to a peer.
    pub redirected: Arc<Counter>,
    /// Requests that arrived already carrying the redirect marker.
    pub received_redirects: Arc<Counter>,
    /// Malformed requests answered 400.
    pub bad_requests: Arc<Counter>,
    /// `accept(2)` failures (fd exhaustion, aborted handshakes, ...).
    pub accept_errors: Arc<Counter>,
    /// Replies that were a 503 refusal: the reactor's connection cap or
    /// full worker queue, the admission controller, a handler out of time
    /// (shard-local).
    pub shed: Arc<ShardedCounter>,
    /// Connections evicted by the reactor's timeout wheel (shard-local).
    pub evicted: Arc<ShardedCounter>,
    /// `served` replies whose body left via the zero-copy transmit path
    /// (shared `Bytes` gathered at the socket, no per-request body copy).
    pub zero_copy: Arc<ShardedCounter>,
    /// `served` replies streamed from an fd via `sendfile(2)`.
    pub sendfile: Arc<ShardedCounter>,
    /// loadd packets that failed to decode (garbage, short, bad node id).
    pub loadd_decode_errors: Arc<Counter>,
    /// Peers this node demoted Alive → Suspect (silent for two loadd periods).
    pub peer_suspect: Arc<Counter>,
    /// Peers this node marked Dead (staleness timeout or leaving packet).
    pub peer_dead: Arc<Counter>,
    /// Peers revived from Suspect/Dead by a fresh loadd packet.
    pub peer_revived: Arc<Counter>,
    /// Requests answered 503 by the reactor for missing a deadline phase.
    pub deadline_overruns: Arc<Counter>,
    /// Transient file-fetch errors retried under bounded backoff.
    pub fetch_retries: Arc<Counter>,
    /// Requests refused by the adaptive admission controller, one
    /// counter per class (`sweb_admission_sheds_total{class=...}`).
    /// Order matches [`NodeStats::admission_shed_counter`].
    admission_sheds: [Arc<Counter>; 3],
    /// Retries refused because a retry budget was empty.
    pub retry_budget_exhausted: Arc<Counter>,
    /// Requests currently in flight on this node (the live "CPU load";
    /// shard-local cells, summed on read).
    pub active: Arc<ShardedGauge>,
    /// Bytes currently being transferred (the live "net load", scaled;
    /// shard-local cells, summed on read).
    pub bytes_in_flight: Arc<ShardedGauge>,
    /// Kernel entries the connection engine's pollers made
    /// (`epoll_wait` / `epoll_ctl`; shard-local cells).
    pub io_syscalls: Arc<ShardedCounter>,
    /// Per-request phase latency (accept → parse → decide → fetch → write).
    pub phases: PhaseTimes,
    /// Requests answered on the loop thread that parsed them, without a
    /// worker (shard-local cells).
    pub inline: Arc<ShardedCounter>,
    /// Loop-thread time per inline answer, parsed request to first write
    /// (`sweb_inline_us`). This is what the first look costs a shard: it
    /// holds the decide and fetch time of those requests plus reply
    /// serialization, so it is deliberately not a [`Phase`] — the phase
    /// family partitions a request's time and is summed as such.
    pub inline_us: Arc<AtomicHistogram>,
    /// Cost-model feedback: predicted `t_s` terms vs measured wall time.
    pub feedback: CostFeedback,
    /// Trace-id epoch (wall-clock salt, so ids don't repeat across runs).
    trace_epoch: u32,
    /// Trace-id sequence number.
    trace_seq: AtomicU64,
}

impl NodeStats {
    /// Build a node's telemetry surface on a fresh registry. `shards` is
    /// the number of per-shard cells behind the hot counters (accept /
    /// serve / shed / in-flight): each reactor shard increments its own
    /// cacheline, and scrapes sum the cells, so totals stay exact without
    /// cross-core ping-pong.
    pub fn new(shards: usize) -> NodeStats {
        let registry = Arc::new(Registry::new());
        let c = |name: &str, help: &str| registry.counter(name, &[], help);
        let sc = |name: &str, help: &str| registry.sharded_counter(name, &[], help, shards);
        let epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() ^ d.as_secs() as u32)
            .unwrap_or(0);
        // The benchmark's traced run reads these two series. No node
        // pulls or pushes documents any more, so they stay at 0.
        c("sweb_peer_fetches_total", "Requests served after pulling the document from a peer");
        c("sweb_pushes_sent_total", "Documents pushed into peers' caches");
        NodeStats {
            accepted: sc("sweb_connections_accepted_total", "Connections accepted"),
            served: sc(
                "sweb_requests_served_total",
                "Replies produced here that were neither a 302 nor a 503",
            ),
            redirected: c("sweb_redirects_issued_total", "Replies that were a 302 to a peer"),
            received_redirects: c(
                "sweb_redirects_received_total",
                "Requests arriving already redirected once",
            ),
            bad_requests: c("sweb_bad_requests_total", "Malformed requests answered 400"),
            accept_errors: c("sweb_accept_errors_total", "accept(2) failures"),
            shed: sc("sweb_connections_shed_total", "Replies that were a 503 refusal"),
            evicted: sc("sweb_connections_evicted_total", "Connections evicted on timeout"),
            zero_copy: sc(
                "sweb_zero_copy_responses_total",
                "Served replies whose body left via a zero-copy gather write",
            ),
            sendfile: sc(
                "sweb_sendfile_responses_total",
                "Served replies streamed via sendfile(2)",
            ),
            loadd_decode_errors: c(
                "sweb_loadd_decode_errors_total",
                "loadd packets that failed to decode",
            ),
            peer_suspect: c(
                "sweb_peer_suspect_total",
                "Peers demoted Alive to Suspect after a missed loadd period",
            ),
            peer_dead: c(
                "sweb_peer_dead_total",
                "Peers marked Dead (staleness timeout or leaving packet)",
            ),
            peer_revived: c(
                "sweb_peer_revived_total",
                "Suspect/Dead peers revived by a fresh loadd packet",
            ),
            deadline_overruns: c(
                "sweb_deadline_overruns_total",
                "Requests answered 503 for missing a deadline phase",
            ),
            fetch_retries: c(
                "sweb_fetch_retries_total",
                "Transient file-fetch errors retried under bounded backoff",
            ),
            admission_sheds: ["dynamic", "static_miss", "static_hit"].map(|cl| {
                registry.counter(
                    "sweb_admission_sheds_total",
                    &[("class", cl)],
                    "Requests refused by the adaptive admission controller",
                )
            }),
            retry_budget_exhausted: c(
                "sweb_retry_budget_exhausted_total",
                "Retries refused because a retry budget was empty",
            ),
            io_syscalls: sc(
                "sweb_io_syscalls_total",
                "Kernel entries made by the connection engine's poller",
            ),
            active: registry.sharded_gauge(
                "sweb_active_requests",
                &[],
                "Requests currently in flight",
                shards,
            ),
            bytes_in_flight: registry.sharded_gauge(
                "sweb_bytes_in_flight",
                &[],
                "Response bytes currently being transmitted",
                shards,
            ),
            phases: PhaseTimes::register(&registry),
            inline: sc(
                "sweb_requests_inline_total",
                "Requests answered on the loop thread that parsed them, without a worker",
            ),
            inline_us: registry.histogram(
                "sweb_inline_us",
                &[],
                "Loop-thread time per inline answer, parsed request to first write (us)",
            ),
            feedback: CostFeedback::register(&registry),
            trace_epoch: epoch,
            trace_seq: AtomicU64::new(0),
            registry,
        }
    }

    /// Register readers of the numbers the node's other subsystems keep in
    /// their own atomics: the file cache, the admission controller and the
    /// (cluster-wide) fault injector.
    pub fn read_from(
        &self,
        file_cache: &Arc<FileCache>,
        admission: &Arc<AdmissionController>,
        chaos: &Arc<Injector>,
    ) {
        let reg = &self.registry;
        let cache = |number| read(file_cache, number);
        reg.counter_fn(
            "sweb_file_cache_hits_total",
            &[],
            "Document cache hits",
            cache(FileCache::hits),
        );
        reg.counter_fn(
            "sweb_file_cache_misses_total",
            &[],
            "Document cache misses",
            cache(FileCache::misses),
        );
        reg.counter_fn(
            "sweb_file_cache_collisions_total",
            &[],
            "Cache key collisions",
            cache(FileCache::collisions),
        );
        reg.gauge_fn(
            "sweb_file_cache_used_bytes",
            &[],
            "Bytes currently cached",
            cache(FileCache::used),
        );
        reg.gauge_fn(
            "sweb_file_cache_capacity_bytes",
            &[],
            "Cache capacity",
            cache(FileCache::capacity),
        );
        reg.gauge_fn(
            "sweb_file_cache_digest_bits",
            &[],
            "Bits set in the advertised Bloom digest",
            cache(|c| c.digest().ones() as u64),
        );
        reg.gauge_fn(
            "sweb_admission_shed_level",
            &[],
            "Current adaptive-admission shed level (0-3)",
            read(admission, |a| a.level() as u64),
        );
        reg.gauge_fn(
            "sweb_admission_retry_after_seconds",
            &[],
            "Retry-After seconds a 503 would carry now",
            read(admission, AdmissionController::retry_after_secs),
        );
        for (i, (kind, _)) in chaos.counts().each().into_iter().enumerate() {
            let chaos = Arc::clone(chaos);
            reg.counter_fn(
                "sweb_faults_injected_total",
                &[("kind", kind)],
                "Faults the chaos harness injected, cluster-wide",
                move || chaos.counts().each()[i].1.load(Ordering::Relaxed),
            );
        }
    }

    /// The admission-shed counter for one [`AdmitClass`].
    pub fn admission_shed_counter(&self, class: AdmitClass) -> &Arc<Counter> {
        &self.admission_sheds[match class {
            AdmitClass::Dynamic => 0,
            AdmitClass::StaticMiss => 1,
            AdmitClass::StaticHit => 2,
        }]
    }

    /// Mint a fresh trace id: `n<node>-<epoch>-<seq>` (node in decimal,
    /// epoch and sequence in lowercase hex), URL- and CLF-safe. Written
    /// digit by digit: this runs once per request.
    pub fn new_trace_id(&self, node: NodeId) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let mut id = String::with_capacity(32);
        id.push('n');
        push_digits(&mut id, node.0.into(), 10);
        id.push('-');
        push_digits(&mut id, self.trace_epoch.into(), 16);
        id.push('-');
        push_digits(&mut id, seq, 16);
        id
    }
}

/// Append `n` in `radix` (10 or 16), lowercase, with no leading zeros.
fn push_digits(out: &mut String, mut n: u64, radix: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b"0123456789abcdef"[(n % radix) as usize];
        n /= radix;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// A scrape-time reader of one number `of` keeps.
pub(crate) fn read<T: Send + Sync + 'static>(
    of: &Arc<T>,
    number: fn(&T) -> u64,
) -> impl Fn() -> u64 + Send + Sync + 'static {
    let of = Arc::clone(of);
    move || number(&of)
}

impl Default for NodeStats {
    fn default() -> NodeStats {
        NodeStats::new(1)
    }
}

/// Shared state of one live SWEB node.
pub struct NodeShared {
    /// This node's id.
    pub id: NodeId,
    /// Reactor shards this node runs.
    pub shards: usize,
    /// Liveness of each shard's event loop, set/cleared by the loop
    /// thread itself.
    pub shard_live: Vec<AtomicBool>,
    /// Node-wide admission cap (its shards share it in the reactor).
    pub max_conns: usize,
    /// Synthetic hardware description used by the cost model.
    pub cluster: ClusterSpec,
    /// HTTP base URLs of every node (http://127.0.0.1:port).
    pub peer_http: Vec<String>,
    /// UDP loadd addresses of every node.
    pub peer_udp: Vec<SocketAddr>,
    /// This node's view of everyone's load.
    pub loads: RwLock<LoadTable>,
    /// The scheduling broker.
    pub broker: Broker,
    /// Request CPU-demand oracle.
    pub oracle: Oracle,
    /// Scheduler configuration.
    pub sweb: SwebConfig,
    /// Document root (shared across nodes, standing in for NFS).
    pub docroot: PathBuf,
    /// The docroot, opened once (`O_PATH`) for this node's own lookups:
    /// a request's `stat` is relative to it ([`NodeShared::stat`]).
    pub docroot_dir: std::fs::File,
    /// Dynamic-content state: the handler registry (shared across nodes,
    /// as NFS-visible binaries would be), the striped response cache, and
    /// per-handler-class stats.
    pub dynamic: crate::dynamic::DynamicState,
    /// Optional CLF access log (shared across nodes, like an NFS logfile).
    pub access_log: Option<crate::access_log::AccessLog>,
    /// In-memory document cache (extension; mtime-validated).
    pub file_cache: Arc<FileCache>,
    /// Graceful-drain flag: while set, loadd announces "leaving" and peers
    /// stop choosing this node; it keeps serving what it receives.
    pub draining: AtomicBool,
    /// Shutdown flag for all of this node's threads.
    pub shutdown: AtomicBool,
    /// Server start, for load-table timestamps.
    pub start: Instant,
    /// The node's telemetry surface (counters, gauges, histograms).
    pub stats: NodeStats,
    /// Fault injector shared by every node of the cluster (disabled by
    /// default: every query short-circuits).
    pub chaos: Arc<sweb_chaos::Injector>,
    /// Wall-clock budget for one request; phase deadlines derive from it.
    pub request_budget: Duration,
    /// Adaptive admission controller: worker-queue sojourn feeds it, and
    /// the per-class gates in the handler consult its shed level.
    pub admission: Arc<AdmissionController>,
    /// Retry budget for local filesystem fetch retries.
    pub fetch_retry_budget: RetryBudget,
    /// Whether the overload-control gates are active (admission and the
    /// fetch retry budget). The structures above exist either way, so
    /// status can always report them.
    pub overload_control: bool,
}

impl NodeShared {
    /// Monotonic time since server start as a [`SimTime`] (the load table
    /// is engine-agnostic and wants microsecond timestamps).
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// `stat` of the document at `rel`, relative to the docroot: one
    /// `statx` on [`NodeShared::docroot_dir`], no path built.
    pub fn stat(&self, rel: &str) -> std::io::Result<sweb_reactor::sys::FileStat> {
        sweb_reactor::sys::stat_at(self.docroot_dir.as_raw_fd(), rel)
    }
}

/// Adapter exposing a node to the reactor: `first_look` and `respond`
/// run the §3.2 pipeline, and the reactor's hooks feed the node's live
/// load gauges that loadd advertises. One `ReactorApp` exists per shard;
/// loop-thread hooks attribute to this shard's metric cell explicitly,
/// and worker-side entry points pin the worker thread's shard hint so
/// handler-path increments attribute the same way.
struct ReactorApp {
    shared: Arc<NodeShared>,
    shard: usize,
    /// Shard 0's loop takes the node's loadd daemon as it starts
    /// ([`sweb_reactor::App::service`]); `None` on the others.
    service: Mutex<Option<crate::loadd::Daemon>>,
}

/// loadd rides shard 0's loop beside its connections, with no thread of
/// its own.
impl sweb_reactor::Service for crate::loadd::Daemon {
    fn fds(&self) -> Vec<RawFd> {
        vec![self.fd()]
    }
    fn run(&mut self, ready: Option<RawFd>) -> Option<Instant> {
        if ready.is_some() {
            self.receive();
        }
        Some(self.tick())
    }
}

/// Log a finished reply where it was produced and hand it to the reactor.
fn reply(
    shared: &NodeShared,
    peer: &str,
    req: &Request,
    parts: handler::Parts,
) -> sweb_reactor::Reply {
    let (resp, file) = parts;
    if let Some(log) = &shared.access_log {
        let body_len = file.as_ref().map(|(_, len)| *len).unwrap_or(resp.body.len() as u64);
        let trace = resp.headers.get("x-sweb-trace");
        log.log(
            peer,
            handler::method_str(req.method),
            &req.target,
            resp.status.code(),
            body_len,
            trace,
        );
    }
    sweb_reactor::Reply {
        response: resp,
        file: file.map(|(file, len)| sweb_reactor::FileBody { file, len }),
    }
}

impl sweb_reactor::App for ReactorApp {
    fn respond(&self, peer: &str, req: &Request, body: &[u8]) -> sweb_reactor::Reply {
        sweb_telemetry::set_shard(self.shard);
        reply(&self.shared, peer, req, handler::respond_parts(&self.shared, req, body))
    }
    fn first_look(
        &self,
        peer: &str,
        req: &Request,
        body: &[u8],
    ) -> Option<sweb_reactor::FirstLook> {
        // While a fault plan is active every request takes the worker
        // path whole: injected brownouts and slow disks sleep ahead of
        // every fulfillment, cache hits included, and the sojourn they
        // build up is what the chaos and overload suites measure.
        if self.shared.chaos.is_active() {
            return None;
        }
        Some(match handler::first_look(&self.shared, req, body) {
            // A large resident document arrives with its fd open: the
            // loop `sendfile`s it straight from the page cache.
            handler::Look::Done(parts) => {
                sweb_reactor::FirstLook::Done(reply(&self.shared, peer, req, parts))
            }
            handler::Look::Blocking(rest) => {
                let (shared, shard) = (Arc::clone(&self.shared), self.shard);
                sweb_reactor::FirstLook::Blocking(Box::new(move |peer, req, body| {
                    sweb_telemetry::set_shard(shard);
                    reply(&shared, peer, req, rest.run(&shared, req, body))
                }))
            }
        })
    }
    fn service(&self) -> Option<Box<dyn sweb_reactor::Service>> {
        let service = self.service.lock().take()?;
        Some(Box::new(service))
    }
    fn on_inline(&self, micros: u64) {
        self.shared.stats.inline.inc_at(self.shard);
        self.shared.stats.inline_us.record(micros);
    }
    fn accept_gate(&self) -> sweb_reactor::AcceptGate {
        let chaos = &self.shared.chaos;
        if !chaos.is_active() {
            return sweb_reactor::AcceptGate::Proceed;
        }
        let node = self.shared.id.0;
        if chaos.fd_pressure(node) {
            sweb_reactor::AcceptGate::FailFd
        } else if chaos.accept_paused(node) {
            sweb_reactor::AcceptGate::Pause
        } else {
            sweb_reactor::AcceptGate::Proceed
        }
    }
    fn on_deadline_overrun(&self) {
        self.shared.stats.deadline_overruns.inc();
    }
    fn on_queue_sojourn(&self, micros: u64) {
        if !self.shared.overload_control {
            return;
        }
        // An injected overload fault inflates the observed sojourn: the
        // controller reacts as if the queue were standing, which is the
        // point — the fault tests the control loop, not the queue.
        let inflated = if self.shared.chaos.is_active() {
            micros + self.shared.chaos.overload_sojourn(self.shared.id.0).unwrap_or(0)
        } else {
            micros
        };
        self.shared.admission.observe(inflated);
    }
    fn retry_after_secs(&self) -> u64 {
        self.shared.admission.retry_after_secs()
    }
    fn on_accept(&self) {
        self.shared.stats.accepted.inc_at(self.shard);
    }
    fn on_conn_open(&self) {
        self.shared.stats.active.inc_at(self.shard);
    }
    fn on_conn_close(&self) {
        self.shared.stats.active.dec_at(self.shard);
    }
    fn on_shed(&self) {
        self.shared.stats.shed.inc_at(self.shard);
    }
    fn on_evict(&self) {
        self.shared.stats.evicted.inc_at(self.shard);
    }
    fn on_bad_request(&self) {
        self.shared.stats.bad_requests.inc();
    }
    fn on_accept_error(&self, _err: &std::io::Error) {
        self.shared.stats.accept_errors.inc();
    }
    fn on_write_start(&self, bytes: usize) {
        self.shared.stats.bytes_in_flight.add_at(self.shard, bytes as i64);
    }
    fn on_write_end(&self, bytes: usize) {
        self.shared.stats.bytes_in_flight.sub_at(self.shard, bytes as i64);
    }
    fn on_reply(&self, status: StatusCode, payload: Payload) {
        let stats = &self.shared.stats;
        match status {
            StatusCode::Found => stats.redirected.inc(),
            StatusCode::ServiceUnavailable => stats.shed.inc_at(self.shard),
            _ => {
                stats.served.inc_at(self.shard);
                match payload {
                    Payload::Bytes => stats.zero_copy.inc_at(self.shard),
                    Payload::File => stats.sendfile.inc_at(self.shard),
                    Payload::None => {}
                }
            }
        }
    }
    fn on_phase(&self, phase: Phase, micros: u64) {
        self.shared.stats.phases.record(phase, micros);
    }
    fn on_shard_start(&self) {
        sweb_telemetry::set_shard(self.shard);
        if let Some(live) = self.shared.shard_live.get(self.shard) {
            live.store(true, Ordering::Relaxed);
        }
    }
    fn on_poller_syscalls(&self, count: u64) {
        self.shared.stats.io_syscalls.add_at(self.shard, count);
    }
    fn on_shard_stop(&self) {
        if let Some(live) = self.shared.shard_live.get(self.shard) {
            live.store(false, Ordering::Relaxed);
        }
    }
}

/// A running node: its shared state plus its event loops.
pub struct NodeHandle {
    /// Shared state (also held by the reactor's apps and workers).
    pub shared: Arc<NodeShared>,
    /// HTTP address the node listens on.
    pub http_addr: SocketAddr,
    /// The event loops; shard 0's also runs loadd.
    reactor: sweb_reactor::ShardedHandle,
    /// The reactor's own stop flag (its loops look at it when woken).
    reactor_shutdown: Arc<AtomicBool>,
}

impl NodeHandle {
    /// Spawn the connection engine for a node whose listener and UDP
    /// socket are already bound. Shard 0's loop runs loadd on the UDP
    /// socket.
    pub fn spawn(
        shared: Arc<NodeShared>,
        listener: TcpListener,
        udp: std::net::UdpSocket,
    ) -> std::io::Result<NodeHandle> {
        let http_addr = listener.local_addr()?;
        let mut service = Some(crate::loadd::Daemon::new(Arc::clone(&shared), udp)?);

        let reactor_shutdown = Arc::new(AtomicBool::new(false));
        let apps: Vec<Arc<dyn sweb_reactor::App>> = (0..shared.shards.max(1))
            .map(|shard| {
                let service = Mutex::new(service.take());
                Arc::new(ReactorApp { shared: Arc::clone(&shared), shard, service })
                    as Arc<dyn sweb_reactor::App>
            })
            .collect();
        // Nodes that share this process share its cores: each takes its
        // share of the default pool, and at least two workers. (Loops are
        // not split: every node runs one per core, see `resolve_shards`.)
        let nodes = shared.peer_http.len().max(1);
        let cfg = sweb_reactor::ReactorConfig {
            max_conns: shared.max_conns,
            workers: (sweb_reactor::default_workers() / nodes).max(2),
            request_budget: shared.request_budget,
            ..sweb_reactor::ReactorConfig::default()
        };
        let reactor =
            sweb_reactor::spawn_sharded(listener, apps, cfg, Arc::clone(&reactor_shutdown))?;

        Ok(NodeHandle { shared, http_addr, reactor, reactor_shutdown })
    }

    /// Signal shutdown and join the loops; open connections are closed by
    /// the reactor loops on their way out.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.reactor_shutdown.store(true, Ordering::Relaxed);
        let _ = self.reactor.join();
        // Shards clear their own flags on the way out; a loop that
        // panicked never got to.
        for live in self.shared.shard_live.iter() {
            live.store(false, Ordering::Relaxed);
        }
    }
}
