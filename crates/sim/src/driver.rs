//! Experiment driver: wire a workload to a world and run to completion.

use sweb_chaos::{Fault, FaultPlan, Injector};
use sweb_cluster::{ClusterSpec, FileMap, NodeId};
use sweb_des::{Sim, SimTime};
use sweb_metrics::RunStats;
use sweb_workload::Arrival;

use crate::config::SimConfig;
use crate::lifecycle;
use crate::world::World;

/// One simulated experiment: a cluster, a corpus, a configuration, and
/// (optionally) scheduled node leave/join events.
pub struct ClusterSim {
    world: World,
    sim: Sim<World>,
}

/// Hard safety caps so a modelling bug can never hang an experiment.
const MAX_EVENTS: u64 = 200_000_000;
const MAX_SIM_TIME: SimTime = SimTime::from_secs(4 * 3600);

impl ClusterSim {
    /// Build a simulation.
    pub fn new(cluster: ClusterSpec, files: FileMap, cfg: SimConfig) -> Self {
        ClusterSim { world: World::new(cluster, files, cfg), sim: Sim::new() }
    }

    /// Mutable access to the world (tuning caches, oracle rules, ...).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Schedule `node` to leave the resource pool at `at`.
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime) {
        self.sim.schedule(
            at,
            Box::new(move |w: &mut World, _: &mut Sim<World>| w.node_leave(node)),
        );
    }

    /// Schedule `node` to rejoin the pool at `at`.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) {
        self.sim.schedule(
            at,
            Box::new(move |w: &mut World, _: &mut Sim<World>| w.node_join(node)),
        );
    }

    /// Run loadd under `plan`'s loadd faults: `LoaddLoss`, `LoaddDelay`
    /// and `Partition` act on every packet from one node's loadd to
    /// another's, at the packet's simulated millisecond. Any other fault
    /// kind is the error, and the plan is not taken.
    pub fn inject_loadd_faults(&mut self, plan: &FaultPlan) -> Result<(), Fault> {
        let other = plan.faults.iter().find(|f| {
            !matches!(f, Fault::LoaddLoss { .. } | Fault::LoaddDelay { .. } | Fault::Partition { .. })
        });
        match other {
            Some(&fault) => Err(fault),
            None => {
                self.world.loadd_faults = Injector::from_plan(plan);
                Ok(())
            }
        }
    }

    /// Schedule a CPU capacity change on `node` at `at`: the node runs at
    /// `factor` of its specified speed from then on. Models the paper's
    /// shared workstations ("the machines are shared by many active users
    /// at UCSB") grabbing or releasing cycles mid-run.
    pub fn schedule_cpu_scale(&mut self, node: NodeId, at: SimTime, factor: f64) {
        assert!(factor > 0.0, "capacity factor must be positive");
        self.sim.schedule(
            at,
            Box::new(move |w: &mut World, s: &mut Sim<World>| {
                let base = w.cluster.nodes[node.index()].cpu_ops_per_sec;
                w.nodes[node.index()].cpu.set_capacity(s, base * factor);
            }),
        );
    }

    /// Enable per-request tracing for the first `limit` requests (see
    /// [`crate::trace`]). Retrieve the log with [`ClusterSim::run_traced`].
    pub fn set_trace_limit(&mut self, limit: u64) {
        self.world.trace = crate::trace::TraceLog::new(limit);
    }

    /// Pre-warm every node's page cache with the files homed on it (models
    /// a server that has been up for a while; used by cache experiments).
    pub fn warm_home_caches(&mut self) {
        let metas: Vec<_> = self.world.files.iter().copied().collect();
        for m in metas {
            let node = &mut self.world.nodes[m.home.index()];
            node.cache.access(m.id, m.size);
        }
    }

    /// Run the workload to completion and return the statistics.
    pub fn run(self, arrivals: &[Arrival]) -> RunStats {
        self.run_traced(arrivals).0
    }

    /// Like [`ClusterSim::run`] but also returns the per-request trace
    /// (empty unless [`ClusterSim::set_trace_limit`] was called).
    pub fn run_traced(mut self, arrivals: &[Arrival]) -> (RunStats, crate::trace::TraceLog) {
        let expected = arrivals.len() as u64;
        let last_arrival = arrivals.iter().map(|a| a.at).max().unwrap_or(SimTime::ZERO);
        // loadd keeps broadcasting long enough for every request to drain.
        self.world.horizon = last_arrival
            + SimTime::from_secs_f64(self.world.cfg.client.timeout)
            + SimTime::from_secs(300);
        World::start_loadd(&mut self.sim, self.world.node_count(), self.world.cfg.sweb.loadd_period);
        for a in arrivals {
            let file = a.file;
            self.sim.schedule(
                a.at,
                Box::new(move |w: &mut World, s: &mut Sim<World>| lifecycle::issue(w, s, file)),
            );
        }
        while self.world.stats.completed + self.world.stats.dropped < expected {
            if !self.sim.step(&mut self.world) {
                break; // queue drained: all outcomes decided
            }
            if self.sim.executed() > MAX_EVENTS || self.sim.now() > MAX_SIM_TIME {
                break; // safety cap
            }
        }
        let mut stats = self.world.stats;
        // Anything still unresolved (safety cap) counts as dropped.
        let resolved = stats.completed + stats.dropped;
        if resolved < expected {
            stats.dropped += expected - resolved;
        }
        stats.duration = self.sim.now().max(last_arrival);
        stats.cpu_capacity_ops = self
            .world
            .cluster
            .nodes
            .iter()
            .map(|n| n.cpu_ops_per_sec)
            .sum::<f64>()
            * stats.duration.as_secs_f64();
        for (i, node) in self.world.nodes.iter().enumerate() {
            stats.nodes[i].cpu_busy_secs = node.cpu.busy_seconds();
            stats.nodes[i].disk_busy_secs = node.disk.busy_seconds();
            stats.nodes[i].net_busy_secs =
                node.link.as_ref().map(|l| l.busy_seconds()).unwrap_or(0.0);
        }
        (stats, self.world.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweb_chaos::Window;
    use sweb_cluster::presets;
    use sweb_core::Policy;
    use sweb_workload::{ArrivalSchedule, FilePopulation};

    fn run_simple(policy: Policy, rps: u32, n: usize, file_size: u64, files: usize) -> RunStats {
        let cluster = presets::meiko(n);
        let corpus = FilePopulation::uniform(files, file_size).build(n);
        let arrivals = ArrivalSchedule::burst_30s(rps).generate(&corpus);
        let sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(policy));
        sim.run(&arrivals)
    }

    #[test]
    fn light_load_completes_everything_quickly() {
        let stats = run_simple(Policy::Sweb, 4, 6, 1024, 60);
        assert_eq!(stats.offered, 120);
        assert_eq!(stats.completed, 120);
        assert_eq!(stats.dropped, 0);
        // 1 KB fetch: preprocessing (~70 ms) dominates; response well under
        // a second per request.
        let mean = stats.mean_response_secs();
        assert!((0.05..0.8).contains(&mean), "mean response {mean}s");
    }

    #[test]
    fn all_policies_complete_light_load() {
        for policy in [Policy::RoundRobin, Policy::FileLocality, Policy::LeastLoadedCpu, Policy::Sweb] {
            let stats = run_simple(policy, 2, 4, 1024, 40);
            assert_eq!(stats.completed, 60, "{policy} dropped requests under light load");
            assert_eq!(stats.conservation_slack(), 0);
        }
    }

    #[test]
    fn overload_drops_requests_on_single_node() {
        // 16 rps of 1.5 MB at one Meiko node: far beyond disk and CPU.
        let stats = run_simple(Policy::RoundRobin, 16, 1, 1_500_000, 120);
        assert!(stats.drop_rate() > 0.15, "single node at 16rps/1.5MB must drop: {}", stats.drop_rate());
        assert!(stats.completed > 0, "but some requests complete");
    }

    #[test]
    fn six_nodes_handle_what_one_cannot() {
        let one = run_simple(Policy::Sweb, 16, 1, 1_500_000, 120);
        let six = run_simple(Policy::Sweb, 16, 6, 1_500_000, 120);
        assert!(six.drop_rate() < one.drop_rate(), "6 nodes must drop less: {} vs {}", six.drop_rate(), one.drop_rate());
        assert!(
            six.mean_response_secs() < one.mean_response_secs(),
            "6 nodes must respond faster: {} vs {}",
            six.mean_response_secs(),
            one.mean_response_secs()
        );
    }

    #[test]
    fn file_locality_redirects_most_requests() {
        let stats = run_simple(Policy::FileLocality, 4, 4, 1024, 40);
        // DNS lands 1/4 of requests on the right node; the rest redirect.
        let rate = stats.redirect_rate();
        assert!((0.6..0.9).contains(&rate), "redirect rate {rate}");
    }

    #[test]
    fn round_robin_never_redirects() {
        let stats = run_simple(Policy::RoundRobin, 4, 4, 1_500_000, 40);
        assert_eq!(stats.redirected, 0);
    }

    #[test]
    fn node_leave_and_join_keep_serving() {
        let cluster = presets::meiko(4);
        let corpus = FilePopulation::uniform(40, 1024).build(4);
        let arrivals = ArrivalSchedule::burst_30s(8).generate(&corpus);
        let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::Sweb));
        sim.schedule_leave(NodeId(3), SimTime::from_secs(5));
        sim.schedule_join(NodeId(3), SimTime::from_secs(20));
        let stats = sim.run(&arrivals);
        // The cluster keeps near-full service through the membership change.
        assert!(stats.drop_rate() < 0.05, "drop rate {}", stats.drop_rate());
        // And the node served some requests before/after its absence.
        assert!(stats.nodes[3].served > 0);
    }

    #[test]
    fn warm_caches_eliminate_disk_reads_for_local_fetches() {
        let cluster = presets::meiko(2);
        let corpus = FilePopulation::uniform(4, 1024).build(2);
        let arrivals = ArrivalSchedule::burst_30s(2).generate(&corpus);
        let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::FileLocality));
        sim.warm_home_caches();
        let stats = sim.run(&arrivals);
        let hits: u64 = stats.nodes.iter().map(|n| n.cache_hits).sum();
        let misses: u64 = stats.nodes.iter().map(|n| n.cache_misses).sum();
        // FileLocality serves each file at its warmed home: everything hits.
        assert!(misses <= 1, "expected warm hits, got {hits} hits / {misses} misses");
    }

    #[test]
    fn trace_captures_full_lifecycle() {
        use crate::trace::TracePoint;
        let cluster = presets::meiko(2);
        let corpus = FilePopulation::uniform(8, 1024).build(2);
        let arrivals = ArrivalSchedule::burst_30s(1).generate(&corpus);
        let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::Sweb));
        sim.set_trace_limit(3);
        let (stats, trace) = sim.run_traced(&arrivals);
        assert!(stats.completed > 0);
        for r in 0..3u64 {
            let events = trace.request(r);
            assert!(
                matches!(events.first().unwrap().point, TracePoint::Issued { .. }),
                "request {r} must start with Issued: {events:?}"
            );
            assert!(
                matches!(events.last().unwrap().point, TracePoint::Completed),
                "request {r} must end with Completed: {events:?}"
            );
            assert!(
                events.iter().any(|e| matches!(e.point, TracePoint::Preprocessed)),
                "request {r} missing Preprocessed"
            );
            assert!(
                events.iter().any(|e| matches!(e.point, TracePoint::DataReady { .. })),
                "request {r} missing DataReady"
            );
            let text = trace.render_request(r);
            assert!(text.contains("Completed"));
        }
        // Untraced requests leave no events.
        assert!(trace.request(5).is_empty());
    }

    #[test]
    fn cpu_scale_slows_a_node_mid_run() {
        let cluster = presets::meiko(1);
        let corpus = FilePopulation::uniform(8, 1024).build(1);
        // Two requests: one before the slowdown, one after.
        let arrivals = vec![
            sweb_workload::Arrival { at: SimTime::from_secs(1), file: sweb_cluster::FileId(0) },
            sweb_workload::Arrival { at: SimTime::from_secs(10), file: sweb_cluster::FileId(1) },
        ];
        let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::RoundRobin));
        sim.schedule_cpu_scale(NodeId(0), SimTime::from_secs(5), 0.1);
        sim.set_trace_limit(2);
        let (_, trace) = sim.run_traced(&arrivals);
        let d0 = trace.request(0).last().unwrap().at - trace.request(0).first().unwrap().at;
        let d1 = trace.request(1).last().unwrap().at - trace.request(1).first().unwrap().at;
        assert!(
            d1.as_secs_f64() > 5.0 * d0.as_secs_f64(),
            "10x CPU slowdown must show: before {d0}, after {d1}"
        );
    }

    #[test]
    fn utilization_accounting_reflects_load() {
        // Disk-bound run with caches disabled: disks should be busy a
        // large fraction of the time; an idle run should be near zero.
        let mut cluster = presets::meiko(2);
        for n in &mut cluster.nodes {
            n.cache_fraction = 0.0;
        }
        let corpus = FilePopulation::uniform(24, 1_500_000).build(2);
        let arrivals = ArrivalSchedule::burst_30s(6).generate(&corpus);
        let mut cfg = SimConfig::with_policy(Policy::RoundRobin);
        cfg.client.timeout = 600.0;
        let stats = ClusterSim::new(cluster, corpus, cfg).run(&arrivals);
        let disk_util = stats.mean_disk_utilization();
        assert!(disk_util > 0.3, "disk-bound run should show busy disks: {disk_util:.2}");
        assert!(disk_util <= 1.0 + 1e-9);
        let cpu_util = stats.mean_cpu_utilization();
        assert!(cpu_util > 0.0 && cpu_util <= 1.0 + 1e-9, "cpu util {cpu_util:.2}");

        let light = run_simple(Policy::RoundRobin, 1, 4, 1024, 8);
        assert!(light.mean_disk_utilization() < 0.05, "light load, idle disks");
    }

    /// `LoaddLoss` at `rate_ppm` on every ordered pair of `n` nodes.
    fn loss_everywhere(n: u32, rate_ppm: u32) -> FaultPlan {
        let pairs = (0..n).flat_map(|from| (0..n).filter(move |&to| to != from).map(move |to| (from, to)));
        pairs.fold(FaultPlan::seeded(SimConfig::default().seed), |plan, (from, to)| {
            plan.with(Fault::LoaddLoss { from, to, rate_ppm, window: Window::ALWAYS })
        })
    }

    #[test]
    fn loadd_packet_loss_does_not_break_service() {
        let cluster = presets::meiko(4);
        let corpus = FilePopulation::uniform(40, 100_000).build(4);
        let arrivals = ArrivalSchedule::burst_30s(8).generate(&corpus);
        let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::Sweb));
        sim.inject_loadd_faults(&loss_everywhere(4, 500_000)).unwrap(); // half of all reports lost
        let stats = sim.run(&arrivals);
        assert!(stats.drop_rate() < 0.05, "drop rate {}", stats.drop_rate());
        assert_eq!(stats.conservation_slack(), 0);
    }

    #[test]
    fn total_loadd_blackout_marks_peers_dead_but_service_continues() {
        // With 100% peer-report loss every node eventually sees all peers
        // as stale/dead and serves everything locally — degraded but safe.
        let cluster = presets::meiko(3);
        let corpus = FilePopulation::uniform(30, 10_000).build(3);
        let schedule = ArrivalSchedule {
            rps: 4,
            duration: SimTime::from_secs(30),
            popularity: sweb_workload::Popularity::Uniform,
            seed: 1,
            bursty: true,
        };
        let arrivals = schedule.generate(&corpus);
        let mut sim = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::Sweb));
        sim.inject_loadd_faults(&loss_everywhere(3, 1_000_000)).unwrap();
        let stats = sim.run(&arrivals);
        assert_eq!(stats.dropped, 0, "service must continue through the blackout");
        // Every node keeps serving what DNS sends it.
        assert!(stats.nodes.iter().all(|n| n.served > 0));
    }

    #[test]
    fn dns_ttl_concentrates_initial_assignment() {
        let cluster = presets::meiko(6);
        let corpus = FilePopulation::uniform(60, 1024).build(6);
        let arrivals = ArrivalSchedule::burst_30s(12).generate(&corpus);
        let run = |ttl_s: u64| {
            let mut cfg = SimConfig::with_policy(Policy::RoundRobin);
            cfg.dns_ttl = SimTime::from_secs(ttl_s);
            cfg.dns_domains = 2;
            ClusterSim::new(cluster.clone(), corpus.clone(), cfg).run(&arrivals)
        };
        let spread = |stats: &RunStats| {
            let max = stats.nodes.iter().map(|n| n.arrived).max().unwrap();
            let min = stats.nodes.iter().map(|n| n.arrived).min().unwrap();
            max as f64 / (min.max(1)) as f64
        };
        let ideal = run(0);
        let cached = run(60);
        assert!(
            spread(&cached) > 2.0 * spread(&ideal),
            "long TTL with 2 domains must concentrate arrivals: ideal {:.2}, cached {:.2}",
            spread(&ideal),
            spread(&cached)
        );
    }

    #[test]
    fn forwarding_mechanism_completes_and_holds_no_slots() {
        use sweb_core::RedirectMechanism;
        let cluster = presets::meiko(4);
        let corpus = FilePopulation::uniform(40, 1_500_000).build(4);
        let arrivals = ArrivalSchedule::burst_30s(6).generate(&corpus);
        let mut cfg = SimConfig::with_policy(Policy::FileLocality);
        cfg.sweb.redirect_mechanism = RedirectMechanism::Forward;
        cfg.client.timeout = 600.0;
        let stats = ClusterSim::new(cluster, corpus, cfg).run(&arrivals);
        assert_eq!(stats.conservation_slack(), 0);
        assert_eq!(stats.dropped, 0);
        // Reassignments still happen (counted as redirected).
        assert!(stats.redirect_rate() > 0.5, "rate {}", stats.redirect_rate());
    }

    #[test]
    fn forwarding_beats_redirection_for_small_files_with_distant_clients() {
        use sweb_core::RedirectMechanism;
        // High client latency makes the 302 round trip expensive while
        // 1 KB relays are nearly free: forwarding must win.
        let run = |mechanism: RedirectMechanism| {
            let cluster = presets::meiko(4);
            let corpus = FilePopulation::uniform(200, 1 << 10).build(4);
            let arrivals = ArrivalSchedule::burst_30s(8).generate(&corpus);
            let mut cfg = SimConfig::with_policy(Policy::FileLocality);
            cfg.sweb.redirect_mechanism = mechanism;
            cfg.client = sweb_workload::ClientPopulation::east_coast();
            cfg.client.timeout = 300.0;
            ClusterSim::new(cluster, corpus, cfg).run(&arrivals)
        };
        let redirect = run(RedirectMechanism::UrlRedirect);
        let forward = run(RedirectMechanism::Forward);
        assert!(
            forward.mean_response_secs() < redirect.mean_response_secs(),
            "forwarding {:.3}s should beat redirection {:.3}s for 1KB east-coast fetches",
            forward.mean_response_secs(),
            redirect.mean_response_secs()
        );
    }

    #[test]
    fn browser_page_bursts_inflate_tail_latency_vs_smooth_arrivals() {
        // Same aggregate rate (20 req/s), two shapes: 4 page views/s of
        // 1+4 requests each vs 20 smoothly spread singletons. The paper
        // tests bursts precisely because browsers behave this way.
        let cluster = presets::meiko(2);
        let corpus = FilePopulation::uniform(40, 200_000).build(2);
        let dur = SimTime::from_secs(20);
        let bursty = sweb_workload::page_view_arrivals(4, 4, dur, &corpus, 99);
        let smooth = ArrivalSchedule {
            rps: 20,
            duration: dur,
            popularity: sweb_workload::Popularity::Uniform,
            seed: 99,
            bursty: false,
        }
        .generate(&corpus);
        assert_eq!(bursty.len(), smooth.len());
        let run = |arrivals: &[sweb_workload::Arrival]| {
            let mut cfg = SimConfig::with_policy(Policy::Sweb);
            cfg.client.timeout = 300.0;
            ClusterSim::new(cluster.clone(), corpus.clone(), cfg).run(arrivals)
        };
        let b = run(&bursty);
        let s = run(&smooth);
        assert_eq!(b.dropped, 0);
        assert!(
            b.response_quantile_secs(0.95) > s.response_quantile_secs(0.95),
            "page bursts must have a heavier tail: {:.2}s vs {:.2}s",
            b.response_quantile_secs(0.95),
            s.response_quantile_secs(0.95)
        );
    }

    #[test]
    fn pinned_post_requests_are_never_redirected() {
        // FileLocality redirects nearly everything — except POSTs.
        let run = |post_fraction: f64| {
            let cluster = presets::meiko(4);
            let corpus = FilePopulation::uniform(40, 10_000).build(4);
            let arrivals = ArrivalSchedule::burst_30s(6).generate(&corpus);
            let mut cfg = SimConfig::with_policy(Policy::FileLocality);
            cfg.cgi_fraction = 1.0;
            cfg.post_fraction = post_fraction;
            ClusterSim::new(cluster, corpus, cfg).run(&arrivals)
        };
        let all_get = run(0.0);
        let all_post = run(1.0);
        assert!(all_get.redirect_rate() > 0.5, "GETs redirect: {}", all_get.redirect_rate());
        assert_eq!(all_post.redirected, 0, "POSTs must pin to the node they hit");
        assert_eq!(all_post.dropped, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_simple(Policy::Sweb, 8, 4, 1_500_000, 24);
        let b = run_simple(Policy::Sweb, 8, 4, 1_500_000, 24);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.response.count(), b.response.count());
        assert_eq!(a.response.max(), b.response.max());
    }
}
