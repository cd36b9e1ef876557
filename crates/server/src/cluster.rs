//! Wiring `n` live nodes into one logical SWEB server.

use std::net::{TcpListener, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sweb_chaos::{FaultPlan, Injector, ScriptedOp};
use sweb_cluster::{presets, NodeId};
use sweb_core::{
    AdmissionController, Broker, CostModel, LoadReport, LoadTable, Oracle, Policy,
    RedirectMechanism, RetryBudget, SwebConfig,
};
use sweb_des::SimTime;

use crate::node::{NodeHandle, NodeShared, NodeStats};

/// Retry tokens for local filesystem fetches (EINTR, EMFILE, flaky NFS).
const FETCH_RETRY_CAP: u64 = 32;

/// Per-node in-memory document cache capacity: 16 MiB. The benchmark's
/// `static_bulk` sizes its document set at three times this.
const FILE_CACHE_BYTES: u64 = 16 << 20;

/// Configuration for a live cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Scheduling strategy each node runs.
    pub policy: Policy,
    /// Per-node admission cap: connections beyond this are answered
    /// `503` and counted in `NodeStats::shed`.
    pub max_conns: usize,
    /// Reactor shards per node: per-core event loops sharing the node's
    /// port via `SO_REUSEPORT`. `0` (the default) means auto — one shard
    /// per available core for every node, so each node can serve a
    /// connection on the CPU it arrived on (`swebd --shards`).
    pub shards: usize,
    /// Scheduler tunables. The default shortens the loadd period to 200 ms
    /// so tests converge quickly; pass the paper's 2.5 s for realism. A
    /// live node reassigns a request only by 302, so
    /// `redirect_mechanism` must stay `UrlRedirect`.
    pub sweb: SwebConfig,
    /// Dynamic handlers served under `/cgi-bin/` (default: the demo
    /// registry — echo, search, burn, template, introspect).
    pub handlers: crate::dynamic::DynamicRegistry,
    /// When set, node `i` listens on `127.0.0.1:(port_base + i)` instead
    /// of an ephemeral port (used by the `swebd` binary).
    pub port_base: Option<u16>,
    /// Optional CLF access log shared by all nodes (replayable through
    /// `sweb_workload::parse_clf` + the simulator).
    pub access_log: Option<crate::access_log::AccessLog>,
    /// Request CPU-demand oracle (load a site-specific table with
    /// `Oracle::from_config_str`; defaults to the NCSA calibration).
    pub oracle: Oracle,
    /// Deterministic fault plan for chaos runs (`None` = no injection;
    /// the injector then short-circuits on every hot-path query).
    pub fault_plan: Option<FaultPlan>,
    /// Wall-clock budget for one request on any node; per-phase deadlines
    /// (parse/fetch/write) derive from it and overruns are answered 503 +
    /// `Retry-After` instead of hanging the client.
    pub request_budget: Duration,
    /// The overload-control subsystem (`swebd --overload`):
    /// adaptive per-class admission and the fetch retry budget. Off, the
    /// node falls back to the static `max_conns` cap alone — kept
    /// selectable so benchmarks can measure what the controller buys.
    pub overload_control: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let sweb = SwebConfig {
            loadd_period: SimTime::from_millis(200),
            stale_timeout: SimTime::from_millis(1500),
            // Live nodes gossip cache digests over loadd, so the broker can
            // price a peer's cache hit below its NFS read by default. A
            // Bloom false positive merely misprices one candidate — the
            // response bytes always come from the node that serves them.
            cache_aware_cost: true,
            ..SwebConfig::default()
        };
        ClusterConfig {
            policy: Policy::Sweb,
            max_conns: 4096,
            shards: 0,
            sweb,
            handlers: crate::dynamic::DynamicRegistry::demo(),
            port_base: None,
            access_log: None,
            oracle: Oracle::ncsa_default(),
            fault_plan: None,
            request_budget: Duration::from_secs(10),
            overload_control: true,
        }
    }
}

/// Resolve the configured shard count to the one every node will run:
/// `shards == 0` gives each node one shard per available core, capped
/// at [`sweb_telemetry::MAX_SHARD_CELLS`] so every shard gets its own
/// metric cell. Nodes that share a machine still each run a loop per
/// CPU: a loop can only be handed the connections that arrive on its
/// CPU if its node has a listener there (`sweb_reactor::spawn_sharded`).
/// An idle loop sleeps, so the extra loops cost a thread each. What the
/// nodes split is the worker pool (`NodeHandle::spawn`).
fn resolve_shards(cfg: &ClusterConfig) -> usize {
    let n = if cfg.shards == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.shards
    };
    n.clamp(1, sweb_telemetry::MAX_SHARD_CELLS)
}

/// One cluster slot: the node's shared state (stable across restarts)
/// plus its currently running engine, if any. The handle sits behind a
/// mutex so chaos tests can kill and revive nodes through `&LiveCluster`
/// while clients hammer the others.
struct NodeSlot {
    shared: Arc<NodeShared>,
    handle: Mutex<Option<NodeHandle>>,
}

/// A running cluster of live SWEB nodes on localhost.
pub struct LiveCluster {
    slots: Vec<NodeSlot>,
    /// Shared fault injector (disabled when no plan was configured).
    chaos: Arc<Injector>,
    /// Next scripted crash/revive op to execute (see [`Self::drive_scripted`]).
    script_pos: Mutex<usize>,
}

impl LiveCluster {
    /// Bind and start `n` nodes serving `docroot` (one shared directory,
    /// standing in for the NFS crossmounted disks). A `port_base` whose
    /// range `port_base..port_base + n` runs past 65535, or a
    /// `RedirectMechanism::Forward` the nodes cannot perform, is
    /// `InvalidInput`, refused before anything is bound. A `docroot` that
    /// is not a directory fails the start.
    pub fn start(n: usize, docroot: PathBuf, cfg: ClusterConfig) -> std::io::Result<LiveCluster> {
        assert!(n >= 1, "at least one node");
        if cfg.sweb.redirect_mechanism == RedirectMechanism::Forward {
            // The cost model would price remote candidates as forwarded,
            // while every node still answers a 302.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a live cluster redirects by URL: RedirectMechanism::Forward is simulator-only",
            ));
        }
        let shards = resolve_shards(&cfg);
        let ports: Vec<u16> = (0..n)
            .map(|i| match cfg.port_base {
                None => Some(0),
                Some(base) => u16::try_from(i).ok().and_then(|i| base.checked_add(i)),
            })
            .collect::<Option<_>>()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{n} nodes from port {:?} run past port 65535", cfg.port_base),
                )
            })?;
        // Bind everything first so every node knows every address. A
        // multi-shard reactor node binds its port with `SO_REUSEPORT` so
        // the other shards can join the accept group later.
        let listeners: Vec<TcpListener> = ports
            .into_iter()
            .map(|port| {
                if shards > 1 {
                    let sa = std::net::SocketAddr::from((std::net::Ipv4Addr::LOCALHOST, port));
                    sweb_reactor::sys::bind_reuseport(sa)
                } else {
                    TcpListener::bind(("127.0.0.1", port))
                }
            })
            .collect::<Result<_, _>>()?;
        let udps: Vec<UdpSocket> =
            (0..n).map(|_| UdpSocket::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
        let peer_http: Vec<String> = listeners
            .iter()
            .map(|l| Ok(format!("http://{}", l.local_addr()?)))
            .collect::<std::io::Result<_>>()?;
        let peer_udp: Vec<std::net::SocketAddr> =
            udps.iter().map(|u| u.local_addr()).collect::<Result<_, _>>()?;

        // The cost model needs hardware parameters; a localhost cluster
        // borrows the Meiko calibration (homogeneous nodes).
        let cluster_spec = presets::meiko(n);
        let model = CostModel::new(cfg.sweb.clone());
        let start = Instant::now();
        let chaos = Arc::new(Injector::from_plan(&cfg.fault_plan.clone().unwrap_or_default()));
        chaos.arm(start);

        let mut slots = Vec::with_capacity(n);
        for (i, (listener, udp)) in listeners.into_iter().zip(udps).enumerate() {
            // Per-class metrics hang off the node's registry, so stats are
            // built first and dynamic state registered on them.
            let stats = NodeStats::new(shards);
            let dynamic = crate::dynamic::DynamicState::new(cfg.handlers.clone(), &stats.registry);
            let admission = Arc::new(AdmissionController::new());
            let file_cache = Arc::new(
                crate::file_cache::FileCache::new(FILE_CACHE_BYTES).for_node(NodeId(i as u32)),
            );
            stats.read_from(&file_cache, &admission, &chaos);
            let shared = Arc::new(NodeShared {
                id: NodeId(i as u32),
                shards,
                shard_live: (0..shards).map(|_| AtomicBool::new(false)).collect(),
                max_conns: cfg.max_conns,
                cluster: cluster_spec.clone(),
                peer_http: peer_http.clone(),
                peer_udp: peer_udp.clone(),
                loads: RwLock::new(LoadTable::new(n)),
                broker: Broker::new(cfg.policy, model.clone()),
                oracle: cfg.oracle.clone(),
                sweb: cfg.sweb.clone(),
                docroot: docroot.clone(),
                docroot_dir: sweb_reactor::sys::open_dir(&docroot).map_err(|e| {
                    std::io::Error::new(e.kind(), format!("docroot {docroot:?}: {e}"))
                })?,
                dynamic,
                access_log: cfg.access_log.clone(),
                file_cache,
                draining: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                start,
                stats,
                chaos: Arc::clone(&chaos),
                request_budget: cfg.request_budget,
                admission,
                fetch_retry_budget: RetryBudget::new(FETCH_RETRY_CAP),
                overload_control: cfg.overload_control,
            });
            let handle = NodeHandle::spawn(Arc::clone(&shared), listener, udp)?;
            slots.push(NodeSlot { shared, handle: Mutex::new(Some(handle)) });
        }
        Ok(LiveCluster { slots, chaos, script_pos: Mutex::new(0) })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cluster has no nodes (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `http://127.0.0.1:port` of node `i`.
    pub fn base_url(&self, i: usize) -> &str {
        &self.slots[i].shared.peer_http[i]
    }

    /// Access a node's shared state (stats, load table).
    pub fn node(&self, i: usize) -> &Arc<NodeShared> {
        &self.slots[i].shared
    }

    /// The cluster's fault injector (disabled unless a plan was set).
    pub fn chaos(&self) -> &Arc<Injector> {
        &self.chaos
    }

    /// Whether node `i` currently has a running engine.
    pub fn is_running(&self, i: usize) -> bool {
        self.slots[i].handle.lock().map(|h| h.is_some()).unwrap_or(false)
    }

    /// Wait until every node has heard a loadd report from every other
    /// node, or the deadline passes. Returns whether the mesh converged.
    /// Looks every millisecond: the first reports land within a few, and
    /// every start-up (`swebd`'s, and the benchmark's `setup_s`) waits
    /// here.
    pub fn await_loadd_mesh(&self, deadline: std::time::Duration) -> bool {
        let t0 = Instant::now();
        let n = self.slots.len();
        while t0.elapsed() < deadline {
            let converged = self.slots.iter().all(|slot| {
                let loads = slot.shared.loads.read();
                (0..n as u32).all(|p| loads.updated_at(NodeId(p)) > SimTime::ZERO)
            });
            if converged {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    /// Start gracefully draining node `i`: its next loadd broadcast tells
    /// every peer to stop choosing it (and it stops choosing itself as a
    /// redirect target for peers). In-flight and newly arriving requests
    /// are still served — the node only leaves the *scheduling* pool.
    pub fn drain(&self, i: usize) {
        self.slots[i].shared.draining.store(true, Ordering::Relaxed);
    }

    /// Return a draining node to the pool; peers revive it on its next
    /// normal broadcast.
    pub fn undrain(&self, i: usize) {
        self.slots[i].shared.draining.store(false, Ordering::Relaxed);
    }

    /// Hard-kill node `i`: stop its engine (whose shard 0 runs loadd)
    /// and close its sockets, with no drain and no
    /// leaving packet — the process equivalent of yanking power. Joining
    /// the loops wakes them, so an idle node dies at once. Peers only
    /// find out through silence (Suspect after two silent loadd periods,
    /// Dead after the staleness timeout). Idempotent.
    pub fn kill(&self, i: usize) {
        let handle = {
            let mut slot = match self.slots[i].handle.lock() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.take()
        };
        if let Some(handle) = handle {
            self.slots[i].shared.shutdown.store(true, Ordering::Relaxed);
            handle.shutdown();
        }
    }

    /// Restart a killed node `i` on its original HTTP and UDP addresses.
    /// The node rejoins with its accumulated stats and its stale view of
    /// the cluster; peers revive it on its first fresh broadcast. The
    /// listener rebinds with `SO_REUSEADDR` because sockets the dead node
    /// accepted linger in `TIME_WAIT` on the same address.
    pub fn revive(&self, i: usize) -> std::io::Result<()> {
        let mut slot = match self.slots[i].handle.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        if slot.is_some() {
            return Ok(()); // already running
        }
        let shared = &self.slots[i].shared;
        let http_addr: std::net::SocketAddr = shared.peer_http[i]
            .trim_start_matches("http://")
            .parse()
            .map_err(|_| std::io::Error::other("unparseable node address"))?;
        let listener = if shared.shards > 1 {
            // Shard groups need the flag back on the primary bind too.
            sweb_reactor::sys::bind_reuseport(http_addr)?
        } else {
            sweb_reactor::sys::bind_reuseaddr(http_addr)?
        };
        let udp = UdpSocket::bind(shared.peer_udp[i])?;
        // Flags must reset *before* spawn or the new threads exit at once.
        shared.shutdown.store(false, Ordering::Relaxed);
        shared.draining.store(false, Ordering::Relaxed);
        *slot = Some(NodeHandle::spawn(Arc::clone(shared), listener, udp)?);
        Ok(())
    }

    /// Gracefully stop node `i`: drain (stop being chosen), wait up to
    /// `deadline` for in-flight requests to finish, announce departure
    /// with a final `leaving` packet so peers evict *now* rather than a
    /// staleness timeout later, then stop the engine. Returns whether the
    /// node drained fully before the deadline.
    pub fn stop_gracefully(&self, i: usize, deadline: Duration) -> bool {
        let shared = &self.slots[i].shared;
        self.drain(i);
        let t0 = Instant::now();
        while t0.elapsed() < deadline && shared.stats.active.get() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = shared.stats.active.get() <= 0;
        // Stop the node *before* announcing: kill() joins shard 0's loop,
        // where loadd broadcasts, so no straggling normal packet can race
        // behind the leaving one and resurrect the node in a peer's table.
        self.kill(i);
        // The final announcement goes out from an ephemeral socket (the
        // node's own loadd is gone); receivers don't check source
        // addresses, only the node id inside the packet.
        let pkt = LoadReport { leaving: true, ..crate::loadd::report(shared) }.encode();
        if let Ok(sock) = UdpSocket::bind("127.0.0.1:0") {
            for (peer, addr) in shared.peer_udp.iter().enumerate() {
                if peer != i {
                    let _ = sock.send_to(&pkt, addr);
                }
            }
        }
        drained
    }

    /// Execute every scripted crash/revive op that has come due (per the
    /// injector's clock) and return whether any ops are still pending.
    /// Chaos tests call this from their workload loop, so lifecycle
    /// events land deterministically between requests rather than on a
    /// background thread's whim.
    pub fn drive_scripted(&self) -> bool {
        let ops = self.chaos.scripted_ops();
        let mut pos = match self.script_pos.lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        let now = self.chaos.now_ms();
        while *pos < ops.len() && ops[*pos].at_ms() <= now {
            match ops[*pos] {
                ScriptedOp::Crash { node, .. } => self.kill(node as usize),
                ScriptedOp::Revive { node, .. } => {
                    let _ = self.revive(node as usize);
                }
            }
            *pos += 1;
        }
        *pos < ops.len()
    }

    /// Stop every node and join their service threads.
    pub fn shutdown(self) {
        for slot in &self.slots {
            slot.shared.shutdown.store(true, Ordering::Relaxed);
        }
        for slot in self.slots {
            let handle = match slot.handle.lock() {
                Ok(mut h) => h.take(),
                Err(poisoned) => poisoned.into_inner().take(),
            };
            if let Some(handle) = handle {
                handle.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_redirects_are_refused_before_binding() {
        let mut cfg = ClusterConfig::default();
        cfg.sweb.redirect_mechanism = RedirectMechanism::Forward;
        let refused = LiveCluster::start(2, std::env::temp_dir(), cfg).err();
        assert_eq!(refused.map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    }
}
