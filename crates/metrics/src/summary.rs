//! Per-run statistics.

use sweb_des::SimTime;

use crate::hist::Histogram;
use crate::phases::PhaseBreakdown;

/// Per-node counters accumulated during a run.
#[derive(Debug, Clone, Default)]
pub struct NodeCounters {
    /// Requests that arrived at this node (via DNS or redirect).
    pub arrived: u64,
    /// Requests this node fulfilled.
    pub served: u64,
    /// Requests this node redirected away.
    pub redirected_away: u64,
    /// Requests this node served after pulling the document from a peer
    /// over the transfer channel (no client-visible redirect).
    pub peer_fetches: u64,
    /// Connections refused at this node (backlog full).
    pub refused: u64,
    /// CPU ops spent on request fulfillment.
    pub fulfill_ops: f64,
    /// CPU ops spent parsing/preprocessing.
    pub preprocess_ops: f64,
    /// CPU ops spent on broker analysis + redirect generation.
    pub scheduling_ops: f64,
    /// CPU ops spent on loadd monitoring/broadcasts.
    pub loadd_ops: f64,
    /// Page-cache hits / misses on this node.
    pub cache_hits: u64,
    /// Page-cache misses on this node.
    pub cache_misses: u64,
    /// Seconds this node's CPU had at least one job.
    pub cpu_busy_secs: f64,
    /// Seconds this node's disk channel had at least one transfer.
    pub disk_busy_secs: f64,
    /// Seconds this node's network interface had at least one flow
    /// (0 on shared-bus clusters, where the bus is cluster-wide).
    pub net_busy_secs: f64,
}

/// Everything one experiment run produces.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Response-time histogram (µs) over completed requests.
    pub response: Histogram,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests dropped: timed out or refused at connection time.
    pub dropped: u64,
    /// Of the dropped, how many were connection refusals.
    pub refused: u64,
    /// Requests that were redirected exactly once.
    pub redirected: u64,
    /// Total requests issued by the workload.
    pub offered: u64,
    /// Per-phase time accounting.
    pub phases: PhaseBreakdown,
    /// Per-node counters.
    pub nodes: Vec<NodeCounters>,
    /// Wall-clock (simulated) duration of the run.
    pub duration: SimTime,
    /// Total CPU capacity available during the run (Σ node speed × time),
    /// in ops. Zero when the runner does not track it.
    pub cpu_capacity_ops: f64,
    /// Per-second outcome time series (warmup/burst/failure dynamics).
    pub timeline: crate::timeseries::TimeSeries,
}

impl RunStats {
    /// Empty stats for an `n`-node run.
    pub fn new(n: usize) -> Self {
        RunStats {
            response: Histogram::new(),
            completed: 0,
            dropped: 0,
            refused: 0,
            redirected: 0,
            offered: 0,
            phases: PhaseBreakdown::new(),
            nodes: (0..n).map(|_| NodeCounters::default()).collect(),
            duration: SimTime::ZERO,
            cpu_capacity_ops: 0.0,
            timeline: crate::timeseries::TimeSeries::new(SimTime::from_secs(1)),
        }
    }

    /// Fraction of *available* CPU cycles a class of work consumed — the
    /// §4.3 accounting ("4.4% of CPU cycles are used for parsing ...
    /// approximately 0.2% of the available CPU is used for load
    /// monitoring"). Returns 0 when capacity is untracked.
    pub fn of_capacity(&self, ops: f64) -> f64 {
        if self.cpu_capacity_ops == 0.0 {
            0.0
        } else {
            ops / self.cpu_capacity_ops
        }
    }

    /// Preprocessing ops as a fraction of available cycles.
    pub fn preprocess_of_capacity(&self) -> f64 {
        self.of_capacity(self.nodes.iter().map(|n| n.preprocess_ops).sum())
    }

    /// Scheduling (analysis + redirect generation) ops as a fraction of
    /// available cycles.
    pub fn scheduling_of_capacity(&self) -> f64 {
        self.of_capacity(self.nodes.iter().map(|n| n.scheduling_ops).sum())
    }

    /// loadd ops as a fraction of available cycles.
    pub fn loadd_of_capacity(&self) -> f64 {
        self.of_capacity(self.nodes.iter().map(|n| n.loadd_ops).sum())
    }

    /// Fraction of offered requests that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Mean response time in seconds over completed requests.
    pub fn mean_response_secs(&self) -> f64 {
        self.response.mean() / 1e6
    }

    /// `q`-quantile response time in seconds.
    pub fn response_quantile_secs(&self, q: f64) -> f64 {
        self.response.quantile(q) as f64 / 1e6
    }

    /// Completed requests per second of run duration.
    pub fn throughput_rps(&self) -> f64 {
        let d = self.duration.as_secs_f64();
        if d == 0.0 {
            0.0
        } else {
            self.completed as f64 / d
        }
    }

    /// Fraction of completed requests that went through a redirect.
    pub fn redirect_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.redirected as f64 / self.completed as f64
        }
    }

    /// Fraction of completed requests served via a peer-channel pull.
    pub fn peer_fetch_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            let pulls: u64 = self.nodes.iter().map(|n| n.peer_fetches).sum();
            pulls as f64 / self.completed as f64
        }
    }

    /// Aggregate cache hit ratio across nodes.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits: u64 = self.nodes.iter().map(|n| n.cache_hits).sum();
        let misses: u64 = self.nodes.iter().map(|n| n.cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Scheduling overhead as a fraction of all CPU ops spent — the §4.3
    /// "less than 0.01% ... for collecting load information and making
    /// scheduling decisions" measurement.
    pub fn scheduling_cpu_fraction(&self) -> f64 {
        let sched: f64 = self.nodes.iter().map(|n| n.scheduling_ops).sum();
        let total = self.total_cpu_ops();
        if total == 0.0 {
            0.0
        } else {
            sched / total
        }
    }

    /// loadd overhead as a fraction of all CPU ops spent (§4.3: ~0.2 %).
    pub fn loadd_cpu_fraction(&self) -> f64 {
        let loadd: f64 = self.nodes.iter().map(|n| n.loadd_ops).sum();
        let total = self.total_cpu_ops();
        if total == 0.0 {
            0.0
        } else {
            loadd / total
        }
    }

    /// Preprocessing (HTTP parsing) as a fraction of all CPU ops (§4.3:
    /// ~4.4 % at 16 rps with 1.5 MB files).
    pub fn preprocess_cpu_fraction(&self) -> f64 {
        let pre: f64 = self.nodes.iter().map(|n| n.preprocess_ops).sum();
        let total = self.total_cpu_ops();
        if total == 0.0 {
            0.0
        } else {
            pre / total
        }
    }

    fn total_cpu_ops(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.fulfill_ops + n.preprocess_ops + n.scheduling_ops + n.loadd_ops)
            .sum()
    }

    /// Mean CPU utilization across nodes over the run duration.
    pub fn mean_cpu_utilization(&self) -> f64 {
        let d = self.duration.as_secs_f64();
        if d == 0.0 || self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.cpu_busy_secs).sum::<f64>() / (d * self.nodes.len() as f64)
    }

    /// Mean disk utilization across nodes over the run duration.
    pub fn mean_disk_utilization(&self) -> f64 {
        let d = self.duration.as_secs_f64();
        if d == 0.0 || self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.disk_busy_secs).sum::<f64>() / (d * self.nodes.len() as f64)
    }

    /// Pool another run of the *same experiment* into this one (the
    /// paper's methodology: "the results we report are average
    /// performances by running the same tests multiple times"). Counters
    /// add, histograms and phase breakdowns merge (so means and quantiles
    /// become pooled statistics), and durations *add* — which keeps
    /// throughput and utilization correct as pooled averages. The
    /// per-second timeline keeps the first run's data only.
    pub fn absorb(&mut self, other: &RunStats) {
        assert_eq!(self.nodes.len(), other.nodes.len(), "different cluster sizes");
        self.response.merge(&other.response);
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.refused += other.refused;
        self.redirected += other.redirected;
        self.offered += other.offered;
        self.phases.merge(&other.phases);
        self.duration += other.duration;
        self.cpu_capacity_ops += other.cpu_capacity_ops;
        for (mine, theirs) in self.nodes.iter_mut().zip(other.nodes.iter()) {
            mine.arrived += theirs.arrived;
            mine.served += theirs.served;
            mine.redirected_away += theirs.redirected_away;
            mine.peer_fetches += theirs.peer_fetches;
            mine.refused += theirs.refused;
            mine.fulfill_ops += theirs.fulfill_ops;
            mine.preprocess_ops += theirs.preprocess_ops;
            mine.scheduling_ops += theirs.scheduling_ops;
            mine.loadd_ops += theirs.loadd_ops;
            mine.cache_hits += theirs.cache_hits;
            mine.cache_misses += theirs.cache_misses;
            mine.cpu_busy_secs += theirs.cpu_busy_secs;
            mine.disk_busy_secs += theirs.disk_busy_secs;
            mine.net_busy_secs += theirs.net_busy_secs;
        }
    }

    /// Sanity: arrived = served + redirected_away + refused per node must
    /// cover all offered requests globally (modulo in-flight at cutoff).
    pub fn conservation_slack(&self) -> i64 {
        let outcomes = self.completed + self.dropped;
        self.offered as i64 - outcomes as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let mut s = RunStats::new(2);
        s.offered = 100;
        s.completed = 90;
        s.dropped = 10;
        s.refused = 4;
        s.redirected = 30;
        s.duration = SimTime::from_secs(30);
        for _ in 0..90 {
            s.response.record(2_000_000);
        }
        assert!((s.drop_rate() - 0.1).abs() < 1e-12);
        assert!((s.throughput_rps() - 3.0).abs() < 1e-12);
        assert!((s.mean_response_secs() - 2.0).abs() < 1e-9);
        assert!((s.redirect_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.conservation_slack(), 0);
    }

    #[test]
    fn cpu_fractions() {
        let mut s = RunStats::new(1);
        s.nodes[0].fulfill_ops = 9_000.0;
        s.nodes[0].preprocess_ops = 440.0;
        s.nodes[0].scheduling_ops = 1.0;
        s.nodes[0].loadd_ops = 20.0;
        let total = 9_461.0;
        assert!((s.preprocess_cpu_fraction() - 440.0 / total).abs() < 1e-9);
        assert!(s.scheduling_cpu_fraction() < 0.001);
        assert!((s.loadd_cpu_fraction() - 20.0 / total).abs() < 1e-9);
        // Capacity-based accounting (the paper's §4.3 denominators).
        assert_eq!(s.preprocess_of_capacity(), 0.0, "untracked capacity reads as zero");
        s.cpu_capacity_ops = 44_000.0;
        assert!((s.preprocess_of_capacity() - 0.01).abs() < 1e-9);
        assert!((s.loadd_of_capacity() - 20.0 / 44_000.0).abs() < 1e-9);
        assert!(s.scheduling_of_capacity() < 1e-4);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::new(3);
        assert_eq!(s.drop_rate(), 0.0);
        assert_eq!(s.throughput_rps(), 0.0);
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.scheduling_cpu_fraction(), 0.0);
    }

    #[test]
    fn absorb_pools_runs_correctly() {
        let mut a = RunStats::new(2);
        a.offered = 10;
        a.completed = 9;
        a.dropped = 1;
        a.duration = SimTime::from_secs(30);
        a.nodes[0].cpu_busy_secs = 15.0;
        for _ in 0..9 {
            a.response.record(1_000_000);
        }
        let mut b = RunStats::new(2);
        b.offered = 10;
        b.completed = 10;
        b.duration = SimTime::from_secs(30);
        b.nodes[0].cpu_busy_secs = 15.0;
        for _ in 0..10 {
            b.response.record(3_000_000);
        }
        a.absorb(&b);
        assert_eq!(a.offered, 20);
        assert_eq!(a.completed, 19);
        assert!((a.drop_rate() - 0.05).abs() < 1e-12);
        // Pooled mean: (9*1 + 10*3)/19 s.
        let expect = (9.0 + 30.0) / 19.0;
        assert!((a.mean_response_secs() - expect).abs() < 1e-6);
        // Utilization over pooled duration: 30s busy / (60s * 2 nodes).
        assert!((a.mean_cpu_utilization() - 0.25).abs() < 1e-9);
        assert_eq!(a.response.count(), 19);
    }

    #[test]
    fn cache_ratio_aggregates_nodes() {
        let mut s = RunStats::new(2);
        s.nodes[0].cache_hits = 30;
        s.nodes[0].cache_misses = 10;
        s.nodes[1].cache_hits = 10;
        s.nodes[1].cache_misses = 30;
        assert!((s.cache_hit_ratio() - 0.5).abs() < 1e-12);
    }
}
