//! The simulation context: nodes, resources, loadd, DNS.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sweb_cluster::{ClusterSpec, FileMap, NetworkSpec, NodeId, PageCache};
use sweb_chaos::{Injector, TxVerdict};
use sweb_core::{Broker, CostModel, LoadReport, LoadTable, LoadVector, Loadd, Oracle};
use sweb_des::{FairShare, ResourceHost, Sim, SimTime};
use sweb_metrics::RunStats;

use crate::config::SimConfig;

/// Addresses of the contended resources inside [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResKey {
    /// Node `i`'s CPU (capacity: ops/second).
    Cpu(usize),
    /// Node `i`'s disk channel (capacity: bytes/second).
    Disk(usize),
    /// Node `i`'s interconnect link, fat-tree clusters only (bytes/second).
    Link(usize),
    /// The shared Ethernet segment, NOW clusters only (bytes/second).
    Bus,
}

/// Per-node simulated state.
pub struct NodeState {
    /// Processor-sharing CPU.
    pub cpu: FairShare<World>,
    /// Processor-sharing disk channel.
    pub disk: FairShare<World>,
    /// Dedicated fat-tree link (None on shared-Ethernet clusters).
    pub link: Option<FairShare<World>>,
    /// File page cache.
    pub cache: PageCache,
    /// This node's view of everyone's load (fed by loadd broadcasts).
    pub view: LoadTable,
    /// This node's loadd, folding into `view`.
    pub loadd: Loadd,
    /// This node's broker.
    pub broker: Broker,
    /// Whether the node is in the resource pool.
    pub alive: bool,
    /// Concurrent accepted connections (bounded by the backlog limit).
    pub accepted: u32,
}

/// The full simulated system: the `C` in `Sim<C>`.
pub struct World {
    /// Hardware description.
    pub cluster: ClusterSpec,
    /// Run configuration.
    pub cfg: SimConfig,
    /// Document corpus.
    pub files: FileMap,
    /// Request CPU-demand oracle.
    pub oracle: Oracle,
    /// Per-node state.
    pub nodes: Vec<NodeState>,
    /// The shared Ethernet bus, if this cluster has one.
    pub bus: Option<FairShare<World>>,
    /// Accumulating statistics.
    pub stats: RunStats,
    /// RNG for DNS and CGI draws.
    pub rng: StdRng,
    /// After this time loadd stops rescheduling (lets the run drain).
    pub horizon: SimTime,
    /// Per-request event trace (limit 0 = disabled).
    pub trace: crate::trace::TraceLog,
    /// Sequence number for the next issued request.
    pub next_request: u64,
    /// The DNS front end (rotation + client-side caches).
    pub dns: crate::dns::Dns,
    /// The fault plan's loadd faults (loss, delay, partitions); disabled
    /// unless [`crate::ClusterSim::inject_loadd_faults`] set a plan.
    pub loadd_faults: Injector,
}

impl ResourceHost for World {
    type Key = ResKey;

    fn fair_share(&mut self, key: ResKey) -> &mut FairShare<World> {
        match key {
            ResKey::Cpu(i) => &mut self.nodes[i].cpu,
            ResKey::Disk(i) => &mut self.nodes[i].disk,
            ResKey::Link(i) => self.nodes[i]
                .link
                .as_mut()
                .expect("Link key used on a cluster without per-node links"),
            ResKey::Bus => self.bus.as_mut().expect("Bus key used on a cluster without a bus"),
        }
    }
}

impl World {
    /// Build the world for `cluster` serving `files` under `cfg`.
    pub fn new(cluster: ClusterSpec, files: FileMap, cfg: SimConfig) -> Self {
        let n = cluster.len();
        if let Err(problem) = cluster.validate() {
            panic!("invalid cluster specification: {problem}");
        }
        let model = CostModel::new(cfg.sweb.clone());
        let nodes = cluster
            .iter()
            .map(|(id, spec)| {
                let i = id.index();
                NodeState {
                    cpu: FairShare::new(ResKey::Cpu(i), spec.cpu_ops_per_sec),
                    disk: FairShare::new(ResKey::Disk(i), spec.disk_bw),
                    link: match &cluster.network {
                        NetworkSpec::FatTree { per_node_bw, .. } => {
                            Some(FairShare::new(ResKey::Link(i), *per_node_bw))
                        }
                        NetworkSpec::SharedEthernet { .. } => None,
                    },
                    cache: PageCache::new(spec.cache_bytes()),
                    view: LoadTable::new(n),
                    loadd: Loadd::new(id, &cfg.sweb),
                    broker: Broker::new(cfg.policy, model.clone()),
                    alive: true,
                    accepted: 0,
                }
            })
            .collect();
        let bus = match &cluster.network {
            NetworkSpec::SharedEthernet { bus_bw, .. } => {
                Some(FairShare::new(ResKey::Bus, *bus_bw))
            }
            NetworkSpec::FatTree { .. } => None,
        };
        let rng = StdRng::seed_from_u64(cfg.seed);
        let dns = crate::dns::Dns::new(cfg.dns_domains, cfg.dns_ttl);
        World {
            stats: RunStats::new(n),
            rng,
            horizon: SimTime::MAX,
            trace: crate::trace::TraceLog::new(0),
            next_request: 0,
            dns,
            loadd_faults: Injector::disabled(),
            cluster,
            cfg,
            files,
            oracle: Oracle::ncsa_default(),
            nodes,
            bus,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// This node's true instantaneous load vector, from resource queue
    /// depths (what its loadd samples).
    pub fn own_load(&self, i: usize) -> LoadVector {
        let node = &self.nodes[i];
        let net = match (&node.link, &self.bus) {
            (Some(link), _) => link.active_jobs() as f64,
            (None, Some(bus)) => bus.active_jobs() as f64,
            (None, None) => 0.0,
        };
        LoadVector::new(node.cpu.active_jobs() as f64, node.disk.active_jobs() as f64, net)
    }

    /// DNS resolution for one request at time `now`: the requesting client
    /// belongs to a random domain whose local resolver caches answers for
    /// the configured TTL; the authoritative server rotates over alive
    /// nodes. A fixed front end takes every arrival at node 0 instead.
    pub fn dns_pick(&mut self, now: SimTime) -> Option<NodeId> {
        let alive: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        if alive.is_empty() {
            return None;
        }
        if self.cfg.fixed_front_end {
            // Pinned to the advertised address (node 0) even if it has
            // left the pool — that is precisely the single-point-of-failure
            // of a fixed front end; arrivals at a dead node are refused.
            return Some(NodeId(0));
        }
        let domain = self.rng.gen_range(0..self.cfg.dns_domains.max(1));
        self.dns.resolve(domain, now, &alive)
    }

    /// Start each node's loadd: staggered periodic broadcasts that run
    /// until the world's horizon passes.
    pub fn start_loadd(sim: &mut Sim<World>, n: usize, period: SimTime) {
        for i in 0..n {
            // Stagger initial broadcasts across the period so they do not
            // synchronize (and deliver an initial view quickly).
            let offset = SimTime::from_micros(period.as_micros() * (i as u64 + 1) / (n as u64 + 1));
            sim.schedule_periodic(offset, period, move |w: &mut World, s: &mut Sim<World>| {
                World::loadd_tick(w, s, i);
                s.now() < w.horizon
            });
        }
    }

    /// One loadd broadcast from node `i`: the core folds its own load and
    /// sweeps its view; each peer folds the packet at once, or later, or
    /// never, as the fault plan says. The broadcast costs CPU.
    fn loadd_tick(world: &mut World, sim: &mut Sim<World>, i: usize) {
        let now = sim.now();
        let node = &mut world.nodes[i];
        if !node.alive || !node.loadd.due(now) {
            return;
        }
        let report =
            LoadReport { node: NodeId(i as u32), load: world.own_load(i), leaving: false };
        let node = &mut world.nodes[i];
        let packet = node.loadd.broadcast(now, &mut node.view, &report).packet;
        let now_ms = now.as_micros() / 1000;
        for j in (0..world.nodes.len()).filter(|&j| j != i) {
            match world.loadd_faults.loadd_tx_at(i as u32, j as u32, now_ms) {
                TxVerdict::Deliver => world.fold_loadd(j, now, &packet),
                TxVerdict::Drop => {}
                TxVerdict::Delay(d) => {
                    let packet = packet.clone();
                    sim.schedule(
                        now + SimTime::from_micros(d.as_micros() as u64),
                        Box::new(move |w: &mut World, s: &mut Sim<World>| {
                            w.fold_loadd(j, s.now(), &packet)
                        }),
                    );
                }
            }
        }
        // The monitoring overhead is real CPU work (§4.3: ~0.2 %).
        let ops = world.cfg.loadd_ops_per_broadcast;
        world.stats.nodes[i].loadd_ops += ops;
        world.nodes[i].cpu.submit(sim, ops, Box::new(|_, _| {}));
    }

    /// Node `j`'s loadd folds a received packet into its view.
    fn fold_loadd(&mut self, j: usize, now: SimTime, packet: &[u8]) {
        let node = &mut self.nodes[j];
        node.loadd.fold(now, &mut node.view, packet);
    }

    /// Remove a node from the pool at the current time: DNS stops sending
    /// it traffic, its loadd goes silent (peers will mark it stale), and
    /// new arrivals are refused. In-flight requests complete.
    pub fn node_leave(&mut self, node: NodeId) {
        self.nodes[node.index()].alive = false;
    }

    /// Return a node to the pool. Its next loadd tick resumes broadcasts
    /// and peers revive it on first report.
    pub fn node_join(&mut self, node: NodeId) {
        self.nodes[node.index()].alive = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweb_cluster::presets;
    use sweb_workload::FilePopulation;

    fn world(n: usize) -> World {
        let cluster = presets::meiko(n);
        let files = FilePopulation::uniform(12, 1024).build(n);
        World::new(cluster, files, SimConfig::default())
    }

    #[test]
    fn construction_wires_resources() {
        let w = world(4);
        assert_eq!(w.node_count(), 4);
        assert!(w.bus.is_none(), "Meiko has no shared bus");
        assert!(w.nodes.iter().all(|n| n.link.is_some()), "Meiko has per-node links");
        let now = World::new(
            presets::now_lx(3),
            FilePopulation::uniform(6, 1024).build(3),
            SimConfig::default(),
        );
        assert!(now.bus.is_some());
        assert!(now.nodes.iter().all(|n| n.link.is_none()));
    }

    #[test]
    fn dns_round_robin_rotates_over_alive() {
        let mut w = world(3);
        let picks: Vec<_> = (0..6).map(|_| w.dns_pick(SimTime::ZERO).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        w.node_leave(NodeId(1));
        let picks: Vec<_> = (0..4).map(|_| w.dns_pick(SimTime::ZERO).unwrap().0).collect();
        assert!(picks.iter().all(|&p| p != 1));
    }

    #[test]
    fn fixed_front_end_pins_to_node_zero_even_after_it_leaves() {
        let mut w = world(4);
        w.cfg.fixed_front_end = true;
        for _ in 0..10 {
            assert_eq!(w.dns_pick(SimTime::ZERO), Some(NodeId(0)));
        }
        // The centralized dispatcher's crash depends on this: with node 0
        // out of the pool and its peers alive, arrivals still go to node 0
        // (and are refused there), not to a rotating survivor.
        w.node_leave(NodeId(0));
        for _ in 0..10 {
            assert_eq!(w.dns_pick(SimTime::ZERO), Some(NodeId(0)));
        }
    }

    #[test]
    fn dns_with_all_dead_returns_none() {
        let mut w = world(2);
        w.node_leave(NodeId(0));
        w.node_leave(NodeId(1));
        assert_eq!(w.dns_pick(SimTime::ZERO), None);
    }

    #[test]
    fn loadd_broadcasts_update_views_and_staleness_kills_silent_nodes() {
        let mut w = world(3);
        let mut sim: Sim<World> = Sim::new();
        World::start_loadd(&mut sim, 3, w.cfg.sweb.loadd_period);
        // Run 5 seconds: everyone should have heard from everyone.
        sim.run_until(&mut w, SimTime::from_secs(5));
        for node in &w.nodes {
            for peer in 0..3u32 {
                assert!(node.view.updated_at(NodeId(peer)) > SimTime::ZERO, "no report from {peer}");
            }
        }
        // Node 2 leaves; after the stale timeout the others notice.
        w.node_leave(NodeId(2));
        sim.run_until(&mut w, SimTime::from_secs(20));
        assert!(!w.nodes[0].view.is_alive(NodeId(2)), "peer views must mark the leaver dead");
        assert!(!w.nodes[1].view.is_alive(NodeId(2)));
        // It rejoins; views revive on the next broadcast.
        w.node_join(NodeId(2));
        sim.run_until(&mut w, SimTime::from_secs(26));
        assert!(w.nodes[0].view.is_alive(NodeId(2)), "rejoining node must be revived");
        // loadd costs were charged.
        assert!(w.stats.nodes[0].loadd_ops > 0.0);
    }

    #[test]
    fn loadd_stops_at_horizon() {
        let mut w = world(2);
        w.horizon = SimTime::from_secs(10);
        let mut sim: Sim<World> = Sim::new();
        World::start_loadd(&mut sim, 2, w.cfg.sweb.loadd_period);
        sim.run(&mut w); // must terminate because loadd stops rescheduling
        assert!(sim.now() >= SimTime::from_secs(10));
        assert!(sim.now() < SimTime::from_secs(14));
    }

    #[test]
    fn own_load_reflects_active_jobs() {
        let mut w = world(2);
        let mut sim: Sim<World> = Sim::new();
        assert_eq!(w.own_load(0).cpu, 0.0);
        w.nodes[0].cpu.submit(&mut sim, 1e9, Box::new(|_, _| {}));
        w.nodes[0].cpu.submit(&mut sim, 1e9, Box::new(|_, _| {}));
        w.nodes[0].disk.submit(&mut sim, 1e9, Box::new(|_, _| {}));
        let l = w.own_load(0);
        assert_eq!(l.cpu, 2.0);
        assert_eq!(l.disk, 1.0);
    }
}
