//! Per-node state and its adapter onto the reactor connection engine.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sweb_cluster::{ClusterSpec, NodeId};
use sweb_core::{
    AdmissionController, AdmitClass, Broker, LoadTable, Oracle, PeerBreakers, RetryBudget,
    SwebConfig,
};
use sweb_des::SimTime;
use sweb_http::Request;
use sweb_telemetry::{
    AtomicHistogram, CostFeedback, Counter, Phase, PhaseTimes, Registry, ShardedCounter,
    ShardedGauge,
};

use crate::handler;

/// A node's telemetry surface: every counter, gauge, and histogram the
/// server increments, all registered on one [`Registry`] so the status
/// page, the JSON report, and the `/metrics` exposition are three views of
/// the same atomics.
pub struct NodeStats {
    /// The metric registry behind every handle below (renders `/metrics`).
    pub registry: Arc<Registry>,
    /// Connections accepted (shard-local cells: hot on every accept).
    pub accepted: Arc<ShardedCounter>,
    /// Requests fulfilled locally with 200/404/... (shard-local cells).
    pub served: Arc<ShardedCounter>,
    /// Requests answered with a 302 to a peer.
    pub redirected: Arc<Counter>,
    /// Requests that arrived already carrying the redirect marker.
    pub received_redirects: Arc<Counter>,
    /// Malformed requests answered 400.
    pub bad_requests: Arc<Counter>,
    /// `accept(2)` failures (fd exhaustion, aborted handshakes, ...).
    pub accept_errors: Arc<Counter>,
    /// Connections refused with 503 by admission control (shard-local).
    pub shed: Arc<ShardedCounter>,
    /// Connections evicted by the reactor's timeout wheel (shard-local).
    pub evicted: Arc<ShardedCounter>,
    /// Responses whose body left via the zero-copy transmit path (shared
    /// `Bytes` gathered at the socket, no per-request body copy).
    pub zero_copy: Arc<ShardedCounter>,
    /// Responses streamed from an fd via `sendfile(2)` (shard-local).
    pub sendfile: Arc<ShardedCounter>,
    /// loadd packets that failed to decode (garbage, short, bad node id).
    pub loadd_decode_errors: Arc<Counter>,
    /// Peers this node demoted Alive → Suspect (silent for two loadd periods).
    pub peer_suspect: Arc<Counter>,
    /// Peers this node marked Dead (staleness timeout or leaving packet).
    pub peer_dead: Arc<Counter>,
    /// Peers revived from Suspect/Dead by a fresh loadd packet.
    pub peer_revived: Arc<Counter>,
    /// Requests served after pulling the document from a peer over the
    /// transfer channel (the client saw no redirect).
    pub peer_fetches: Arc<Counter>,
    /// Peer pulls that failed and degraded to a redirect or local read.
    pub forward_failures: Arc<Counter>,
    /// Peer-channel frames that failed to decode or violated the
    /// protocol (counted like `loadd_decode_errors`; never fatal).
    pub peer_frames_bad: Arc<Counter>,
    /// Hot documents this node pushed into peers' caches (accepted).
    pub pushes_sent: Arc<Counter>,
    /// Documents peers pushed into this node's cache (accepted).
    pub pushes_received: Arc<Counter>,
    /// Requests answered 503 (or evicted) for missing a deadline phase.
    pub deadline_overruns: Arc<Counter>,
    /// Transient file-fetch errors retried under bounded backoff.
    pub fetch_retries: Arc<Counter>,
    /// Requests refused by the adaptive admission controller, one
    /// counter per class (`sweb_admission_sheds_total{class=...}`).
    /// Order matches [`NodeStats::admission_shed_counter`].
    admission_sheds: [Arc<Counter>; 4],
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
        NodeStats {
            accepted: sc("sweb_connections_accepted_total", "Connections accepted"),
            served: sc("sweb_requests_served_total", "Requests fulfilled locally"),
            redirected: c("sweb_redirects_issued_total", "Requests answered with a 302 to a peer"),
            received_redirects: c(
                "sweb_redirects_received_total",
                "Requests arriving already redirected once",
            ),
            bad_requests: c("sweb_bad_requests_total", "Malformed requests answered 400"),
            accept_errors: c("sweb_accept_errors_total", "accept(2) failures"),
            shed: sc("sweb_connections_shed_total", "Connections refused 503 by admission control"),
            evicted: sc("sweb_connections_evicted_total", "Connections evicted on timeout"),
            zero_copy: sc("sweb_zero_copy_responses_total", "Responses sent via zero-copy writev"),
            sendfile: sc("sweb_sendfile_responses_total", "Responses streamed via sendfile(2)"),
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
            peer_fetches: c(
                "sweb_peer_fetches_total",
                "Requests served after pulling the document over the peer channel",
            ),
            forward_failures: c(
                "sweb_forward_failures_total",
                "Peer pulls that failed and degraded to a redirect or local read",
            ),
            peer_frames_bad: c(
                "sweb_peer_frames_bad_total",
                "Peer-channel frames that failed to decode or violated the protocol",
            ),
            pushes_sent: c(
                "sweb_pushes_sent_total",
                "Hot documents pushed into peers' caches",
            ),
            pushes_received: c(
                "sweb_pushes_received_total",
                "Documents peers pushed into this node's cache",
            ),
            deadline_overruns: c(
                "sweb_deadline_overruns_total",
                "Requests failed definitively for missing a deadline phase",
            ),
            fetch_retries: c(
                "sweb_fetch_retries_total",
                "Transient file-fetch errors retried under bounded backoff",
            ),
            admission_sheds: ["peer_serve", "dynamic", "static_miss", "static_hit"].map(|cl| {
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

    /// The admission-shed counter for one [`AdmitClass`].
    pub fn admission_shed_counter(&self, class: AdmitClass) -> &Arc<Counter> {
        &self.admission_sheds[match class {
            AdmitClass::PeerServe => 0,
            AdmitClass::Dynamic => 1,
            AdmitClass::StaticMiss => 2,
            AdmitClass::StaticHit => 3,
        }]
    }

    /// Mint a fresh trace id: `n<node>-<epoch>-<seq>`, URL- and CLF-safe.
    pub fn new_trace_id(&self, node: NodeId) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        format!("n{}-{:x}-{:x}", node.0, self.trace_epoch, seq)
    }
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
    /// Node-wide admission cap (divided across shards by the reactor).
    pub max_conns: usize,
    /// Synthetic hardware description used by the cost model.
    pub cluster: ClusterSpec,
    /// HTTP base URLs of every node (http://127.0.0.1:port).
    pub peer_http: Vec<String>,
    /// UDP loadd addresses of every node.
    pub peer_udp: Vec<SocketAddr>,
    /// Peer-transfer channel (TCP) addresses of every node.
    pub peer_tcp: Vec<SocketAddr>,
    /// Pooled connections to every peer's transfer channel.
    pub peer_pool: sweb_peer::PeerPool,
    /// Per-file request counters feeding loadd's hot list and the
    /// replicator.
    pub popularity: crate::peer_transfer::Popularity,
    /// Each peer's advertised hot list (from loadd v3 packets), indexed
    /// by node.
    pub peer_hot: RwLock<Vec<Vec<sweb_cluster::FileId>>>,
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
    /// Dynamic-content state: the handler registry (shared across nodes,
    /// as NFS-visible binaries would be), the striped response cache, and
    /// per-handler-class stats.
    pub dynamic: crate::dynamic::DynamicState,
    /// Optional CLF access log (shared across nodes, like an NFS logfile).
    pub access_log: Option<crate::access_log::AccessLog>,
    /// In-memory document cache (extension; mtime-validated).
    pub file_cache: crate::file_cache::FileCache,
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
    /// Per-peer circuit breakers over the transfer channel / redirect
    /// targets. Also attached to [`NodeShared::broker`], which reprices
    /// open-breaker candidates out of its comparisons.
    pub breakers: Arc<PeerBreakers>,
    /// Per-peer retry budgets for transfer-channel retries.
    pub peer_retry_budgets: Arc<Vec<RetryBudget>>,
    /// Retry budget for local filesystem fetch retries.
    pub fetch_retry_budget: RetryBudget,
    /// Whether the overload-control gates are active (admission, breaker
    /// bookkeeping, retry budgets). The structures above exist either
    /// way, so status can always report them.
    pub overload_control: bool,
}

impl NodeShared {
    /// Monotonic time since server start as a [`SimTime`] (the load table
    /// is engine-agnostic and wants microsecond timestamps).
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

/// Adapter exposing a node to the reactor: `first_look` and `respond`
/// run the §3.2 pipeline, and the reactor's hooks feed the node's live
/// load gauges that loadd advertises. One `ReactorApp` exists per shard;
/// loop-thread hooks attribute to this shard's metric cell explicitly,
/// and worker-side entry points pin the worker thread's shard hint so
/// handler-path increments attribute the same way.
#[derive(Clone)]
struct ReactorApp {
    shared: Arc<NodeShared>,
    shard: usize,
}

impl ReactorApp {
    /// Log a finished reply where it was produced and hand it to the
    /// reactor.
    fn reply(&self, peer: &str, req: &Request, parts: handler::Parts) -> sweb_reactor::Reply {
        let (resp, file) = parts;
        if let Some(log) = &self.shared.access_log {
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
}

impl sweb_reactor::App for ReactorApp {
    fn respond(&self, peer: &str, req: &Request, body: &[u8]) -> sweb_reactor::Reply {
        sweb_telemetry::set_shard(self.shard);
        self.reply(peer, req, handler::respond_parts(&self.shared, req, body))
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
            handler::Look::Done(resp) => {
                sweb_reactor::FirstLook::Done(self.reply(peer, req, (resp, None)))
            }
            handler::Look::Blocking(rest) => {
                let app = self.clone();
                sweb_reactor::FirstLook::Blocking(Box::new(move |peer, req, body| {
                    sweb_telemetry::set_shard(app.shard);
                    app.reply(peer, req, rest.run(&app.shared, req, body))
                }))
            }
        })
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
    fn on_zero_copy(&self, _bytes: usize) {
        self.shared.stats.zero_copy.inc_at(self.shard);
    }
    fn on_sendfile(&self, _bytes: usize) {
        self.shared.stats.sendfile.inc_at(self.shard);
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

/// A running node: its shared state plus joinable service threads.
pub struct NodeHandle {
    /// Shared state (also held by the reactor's apps and workers).
    pub shared: Arc<NodeShared>,
    /// HTTP address the node listens on.
    pub http_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The event loops.
    reactor: sweb_reactor::ShardedHandle,
    /// The reactor's own stop flag (it checks this every timer tick).
    reactor_shutdown: Arc<AtomicBool>,
}

impl NodeHandle {
    /// Spawn the connection engine, loadd, and peer-channel threads for
    /// a node whose listener, UDP socket, and peer-channel listener are
    /// already bound.
    pub fn spawn(
        shared: Arc<NodeShared>,
        listener: TcpListener,
        udp: std::net::UdpSocket,
        peer_listener: TcpListener,
    ) -> std::io::Result<NodeHandle> {
        let http_addr = listener.local_addr()?;
        let mut threads = Vec::new();

        let reactor_shutdown = Arc::new(AtomicBool::new(false));
        let apps: Vec<Arc<dyn sweb_reactor::App>> = (0..shared.shards.max(1))
            .map(|shard| {
                Arc::new(ReactorApp { shared: Arc::clone(&shared), shard })
                    as Arc<dyn sweb_reactor::App>
            })
            .collect();
        let cfg = sweb_reactor::ReactorConfig {
            max_conns: shared.max_conns,
            request_budget: shared.request_budget,
            ..sweb_reactor::ReactorConfig::default()
        };
        let reactor =
            sweb_reactor::spawn_sharded(listener, apps, cfg, Arc::clone(&reactor_shutdown))?;

        // loadd: broadcaster + receiver.
        threads.extend(crate::loadd::spawn(Arc::clone(&shared), udp));

        // Peer transfer channel: the listener always runs (serving FETCH
        // costs nothing when nobody pulls); the replicator only when
        // configured.
        threads.push(crate::peer_transfer::spawn_listener(Arc::clone(&shared), peer_listener));
        if shared.sweb.replicate_hot {
            threads.push(crate::peer_transfer::spawn_replicator(Arc::clone(&shared)));
        }

        Ok(NodeHandle { shared, http_addr, threads, reactor, reactor_shutdown })
    }

    /// Signal shutdown and join the service threads; open connections
    /// are closed by the reactor loops on their way out.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.reactor_shutdown.store(true, Ordering::Relaxed);
        let _ = self.reactor.join();
        for t in self.threads {
            let _ = t.join();
        }
        // Shards clear their own flags on the way out; a loop that
        // panicked never got to.
        for live in self.shared.shard_live.iter() {
            live.store(false, Ordering::Relaxed);
        }
    }
}
