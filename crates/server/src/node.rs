//! Per-node state and its adapter onto the reactor connection engine.

use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use sweb_chaos::Injector;
use sweb_cluster::{ClusterSpec, NodeId};
use sweb_core::{
    AdmissionController, AdmitClass, Broker, LoadTable, Oracle, RetryBudget, SwebConfig,
};
use sweb_des::SimTime;
use sweb_http::Request;
use sweb_reactor::{Counters, ReactorConfig};
use sweb_telemetry::{CostFeedback, Counter, PhaseTimes, Registry, ShardedGauge};

use crate::file_cache::FileCache;
use crate::handler;

/// A node's telemetry surface: every counter, gauge, and histogram the
/// server increments, all registered on one [`Registry`] — with the
/// reactor's [`Counters`] and readers of the numbers other subsystems keep
/// ([`NodeStats::read_from`]) — so the status page, the JSON report, and
/// the `/metrics` exposition are three views of one registry.
///
/// Every reply lands in exactly one outcome counter of the reactor's
/// block: `served`, `redirected`, `shed`, `bad_requests` or
/// `deadline_overruns` (DESIGN.md §10 states the rule).
pub struct NodeStats {
    /// The metric registry behind every handle below (renders `/metrics`).
    pub registry: Arc<Registry>,
    /// Requests that arrived already carrying the redirect marker.
    pub received_redirects: Arc<Counter>,
    /// loadd packets that failed to decode (garbage, short, bad node id).
    pub loadd_decode_errors: Arc<Counter>,
    /// Peers this node demoted Alive → Suspect (silent for two loadd periods).
    pub peer_suspect: Arc<Counter>,
    /// Peers this node marked Dead (staleness timeout or leaving packet).
    pub peer_dead: Arc<Counter>,
    /// Peers revived from Suspect/Dead by a fresh loadd packet.
    pub peer_revived: Arc<Counter>,
    /// Transient file-fetch errors retried under bounded backoff.
    pub fetch_retries: Arc<Counter>,
    /// Requests refused by the adaptive admission controller, one
    /// counter per class (`sweb_admission_sheds_total{class=...}`).
    /// Order matches [`NodeStats::admission_sheds_of`].
    admission_sheds: [Arc<Counter>; 3],
    /// Retries refused because a retry budget was empty.
    pub retry_budget_exhausted: Arc<Counter>,
    /// Per-request phase latency (accept → parse → decide → fetch →
    /// write): the reactor times accept, parse and write through its
    /// [`Counters`], the handler decide and fetch.
    pub phases: Arc<PhaseTimes>,
    /// Cost-model feedback: predicted `t_s` terms vs measured wall time.
    pub feedback: CostFeedback,
    /// Trace-id epoch (wall-clock salt, so ids don't repeat across runs).
    trace_epoch: u32,
    /// Trace-id sequence number.
    trace_seq: AtomicU64,
}

impl NodeStats {
    /// Build a node's telemetry surface on a fresh registry, and the
    /// reactor's counter block on the same registry: this is where the
    /// engine's cells get their series names. `shards` is the number of
    /// per-shard cells behind the hot counters (accept / serve / shed /
    /// in-flight): each reactor shard increments its own cacheline, and
    /// scrapes sum the cells, so totals stay exact without cross-core
    /// ping-pong.
    pub fn new(shards: usize) -> (NodeStats, Counters) {
        let registry = Arc::new(Registry::new());
        let c = |name: &str, help: &str| registry.counter(name, &[], help);
        let sc = |name: &str, help: &str| registry.sharded_counter(name, &[], help, shards);
        let sg = |name: &str, help: &str| registry.sharded_gauge(name, &[], help, shards);
        let epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() ^ d.as_secs() as u32)
            .unwrap_or(0);
        // The benchmark's traced run reads these two series. No node
        // pulls or pushes documents any more, so they stay at 0.
        c("sweb_peer_fetches_total", "Requests served after pulling the document from a peer");
        c("sweb_pushes_sent_total", "Documents pushed into peers' caches");
        let counters = Counters {
            accepted: sc("sweb_connections_accepted_total", "Connections accepted"),
            served: sc(
                "sweb_requests_served_total",
                "Replies produced here that were neither a 302 nor a 503",
            ),
            redirected: c("sweb_redirects_issued_total", "Replies that were a 302 to a peer"),
            shed: sc("sweb_connections_shed_total", "Replies that were a 503 refusal"),
            bad_requests: c("sweb_bad_requests_total", "Malformed requests answered 400"),
            deadline_overruns: c(
                "sweb_deadline_overruns_total",
                "Requests answered 503 for missing a deadline phase",
            ),
            evicted: sc("sweb_connections_evicted_total", "Connections evicted on timeout"),
            accept_errors: c("sweb_accept_errors_total", "accept(2) failures"),
            zero_copy: sc(
                "sweb_zero_copy_responses_total",
                "Served replies whose body left via a zero-copy gather write",
            ),
            sendfile: sc(
                "sweb_sendfile_responses_total",
                "Served replies streamed via sendfile(2)",
            ),
            open: sg("sweb_active_requests", "Requests currently in flight"),
            bytes_in_flight: sg(
                "sweb_bytes_in_flight",
                "Response bytes currently being transmitted",
            ),
            poller_syscalls: sc(
                "sweb_io_syscalls_total",
                "Kernel entries made by the connection engine's poller",
            ),
            inline: sc(
                "sweb_requests_inline_total",
                "Requests answered on the loop thread that parsed them, without a worker",
            ),
            // What the first look costs a shard: it holds the decide and
            // fetch time of those requests plus reply serialization, so it
            // is deliberately not a phase — the phase family partitions a
            // request's time and is summed as such.
            inline_us: registry.histogram(
                "sweb_inline_us",
                &[],
                "Loop-thread time per inline answer, parsed request to first write (us)",
            ),
            phases: Arc::new(PhaseTimes::register(&registry)),
            // Read by the status page's shard rows, not a series.
            live: Arc::new(ShardedGauge::new(shards)),
        };
        let stats = NodeStats {
            received_redirects: c(
                "sweb_redirects_received_total",
                "Requests arriving already redirected once",
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
            phases: Arc::clone(&counters.phases),
            feedback: CostFeedback::register(&registry),
            trace_epoch: epoch,
            trace_seq: AtomicU64::new(0),
            registry,
        };
        (stats, counters)
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
        reg.counter_fn(
            "sweb_file_cache_evictions_total",
            &[],
            "Documents evicted to hold the byte bound",
            cache(FileCache::evictions),
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
    pub fn admission_sheds_of(&self, class: AdmitClass) -> &Arc<Counter> {
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

/// Shared state of one live SWEB node.
pub struct NodeShared {
    /// This node's id.
    pub id: NodeId,
    /// Reactor shards this node runs.
    pub shards: usize,
    /// The reactor configuration every spawn of this node uses: budgets,
    /// and the counter block its loops count in, so totals run on across
    /// a crash and a revive.
    pub reactor: ReactorConfig,
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
    /// The document root (shared across nodes, standing in for NFS),
    /// opened once (`O_PATH`) for this node's own lookups:
    /// a request's `stat` and `open` are relative to it
    /// ([`NodeShared::stat`], [`NodeShared::open`]).
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
    /// Server start, for load-table timestamps.
    pub start: Instant,
    /// The node's telemetry surface (counters, gauges, histograms).
    pub stats: NodeStats,
    /// Fault injector shared by every node of the cluster (disabled by
    /// default: every query short-circuits).
    pub chaos: Arc<sweb_chaos::Injector>,
    /// Adaptive admission controller: worker-queue sojourn feeds it, and
    /// the per-class gates in the handler consult its shed level.
    pub admission: Arc<AdmissionController>,
    /// Retry budget for local filesystem fetch retries.
    pub fetch_retry_budget: RetryBudget,
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

    /// The document at `rel`, relative to the docroot, opened for
    /// reading: one `openat` on [`NodeShared::docroot_dir`].
    pub fn open(&self, rel: &str) -> std::io::Result<std::fs::File> {
        sweb_reactor::sys::open_at(self.docroot_dir.as_raw_fd(), rel)
    }
}

/// Adapter exposing a node to the reactor: `first_look` and `respond`
/// run the §3.2 pipeline, and the admission controller hears each queue
/// sojourn and prices every 503's `Retry-After`. One `ReactorApp` exists
/// per shard.
struct ReactorApp {
    shared: Arc<NodeShared>,
    /// Shard 0's loop takes the node's loadd daemon as it starts
    /// ([`sweb_reactor::App::service`]); `None` on the others.
    service: Mutex<Option<crate::loadd::Daemon>>,
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
                let shared = Arc::clone(&self.shared);
                sweb_reactor::FirstLook::Blocking(Box::new(move |peer, req, body| {
                    reply(&shared, peer, req, rest.run(&shared, req, body))
                }))
            }
        })
    }
    fn service(&self) -> Option<Box<dyn sweb_reactor::Service>> {
        let service = self.service.lock().take()?;
        Some(Box::new(service))
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
    fn on_queue_sojourn(&self, micros: u64) {
        self.shared.admission.observe(micros);
    }
    fn retry_after_secs(&self) -> u64 {
        self.shared.admission.retry_after_secs()
    }
}

/// A running node: its shared state plus its event loops.
pub struct NodeHandle {
    /// Shared state (also held by the reactor's apps and workers).
    pub shared: Arc<NodeShared>,
    /// HTTP address the node listens on.
    pub http_addr: SocketAddr,
    /// The event loops; shard 0's also runs loadd.
    reactor: sweb_reactor::ReactorHandle,
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
            .map(|_| {
                let service = Mutex::new(service.take());
                Arc::new(ReactorApp { shared: Arc::clone(&shared), service })
                    as Arc<dyn sweb_reactor::App>
            })
            .collect();
        let cfg = shared.reactor.clone();
        let reactor =
            sweb_reactor::spawn_sharded(listener, apps, cfg, Arc::clone(&reactor_shutdown))?;

        Ok(NodeHandle { shared, http_addr, reactor, reactor_shutdown })
    }

    /// Signal shutdown and join the loops and the workers; open
    /// connections are closed by the reactor loops on their way out.
    pub fn shutdown(self) {
        self.reactor_shutdown.store(true, Ordering::Relaxed);
        let _ = self.reactor.join();
    }
}
