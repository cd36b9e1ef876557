//! Load vectors and the per-node load table.
//!
//! The paper (§3.1): "The loadd daemon is responsible for updating the
//! system CPU, network and disk load information periodically (every 2-3
//! seconds), and marking those processors which have not responded in a
//! preset period of time as unavailable. When a processor leaves or joins
//! the resource pool, the loadd daemon will be aware of the change."

use sweb_cluster::NodeId;
use sweb_des::SimTime;

/// A node's advertised load along the three facets the SWEB scheduler
/// monitors. Each component is a dimensionless *load factor*: 0 = idle,
/// `k` = roughly `k` jobs' worth of queued demand on that resource, so a
/// resource with load `k` delivers `1/(1+k)` of its bandwidth to a new job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadVector {
    /// CPU load (run-queue style).
    pub cpu: f64,
    /// Disk channel load.
    pub disk: f64,
    /// Interconnect/NIC load.
    pub net: f64,
}

impl LoadVector {
    /// An idle node.
    pub const IDLE: LoadVector = LoadVector { cpu: 0.0, disk: 0.0, net: 0.0 };

    /// Construct from components.
    pub fn new(cpu: f64, disk: f64, net: f64) -> Self {
        LoadVector { cpu, disk, net }
    }

    /// Scale the CPU and disk components down by `slots` parallel service
    /// slots (reactor shards / cores). The load factors advertised by
    /// loadd are *per-resource queue depths*: a node running `p` shards
    /// serves `k` concurrent jobs at depth `k/p`, matching the analytic
    /// model's per-node capacity `p` (§2). The net component is left
    /// alone — the shards share one NIC. Identity at `slots <= 1`.
    pub fn normalized_by(self, slots: usize) -> Self {
        if slots <= 1 {
            return self;
        }
        let p = slots as f64;
        LoadVector { cpu: self.cpu / p, disk: self.disk / p, net: self.net }
    }
}

/// A peer's availability as this node believes it — the three-state
/// health machine the failure-domain hardening runs on:
///
/// ```text
///            fresh packet                fresh packet
///        ┌────────────────┐          ┌─────────────────┐
///        ▼                │          ▼                 │
///   ┌─────────┐  silence > 1 period  ┌─────────┐  silence > stale
///   │  Alive  │ ───────────────────▶ │ Suspect │ ────────────────▶ Dead
///   └─────────┘                      └─────────┘
/// ```
///
/// `Suspect` is the asymmetric middle state: the peer is *excluded from
/// redirect candidates* (the broker will not 302 a client at a node that
/// has gone silent past the suspicion threshold — the live cluster and
/// sim use two loadd periods, one missed packet plus a period of margin
/// for jitter) but still *counted for
/// capacity* (`is_alive`/[`LoadTable::alive_nodes`]), because one missed
/// datagram is far more often loss than death. Only `Dead` — staleness
/// past the full timeout, or an explicit leave — removes the peer from
/// the pool. The only way out of `Dead` is a fresh packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Heard from within the suspicion threshold: full scheduling candidate.
    Alive,
    /// Silent past the suspicion threshold but short of the staleness
    /// timeout: kept for capacity, excluded from redirect candidacy.
    Suspect,
    /// Silent past the staleness timeout, or announced leaving.
    Dead,
}

impl PeerHealth {
    /// Lowercase name, as the status API serializes it.
    pub fn name(self) -> &'static str {
        match self {
            PeerHealth::Alive => "alive",
            PeerHealth::Suspect => "suspect",
            PeerHealth::Dead => "dead",
        }
    }

    /// Parse the lowercase name back (the status JSON round trip).
    pub fn parse(s: &str) -> Option<PeerHealth> {
        match s {
            "alive" => Some(PeerHealth::Alive),
            "suspect" => Some(PeerHealth::Suspect),
            "dead" => Some(PeerHealth::Dead),
            _ => None,
        }
    }
}

/// What one staleness pass changed: the membership churn a node's loadd
/// should count and log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthChurn {
    /// Nodes that just went `Alive → Suspect`.
    pub suspected: Vec<NodeId>,
    /// Nodes that just went `Alive`/`Suspect` `→ Dead`.
    pub died: Vec<NodeId>,
}

impl HealthChurn {
    /// True when the pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.suspected.is_empty() && self.died.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    load: LoadVector,
    updated: SimTime,
    health: PeerHealth,
    /// Whether we have ever heard from this node.
    known: bool,
}

/// Each node's view of every node's load (including its own), fed by loadd
/// broadcasts. Node ids index a dense table.
#[derive(Debug, Clone)]
pub struct LoadTable {
    entries: Vec<Entry>,
}

impl LoadTable {
    /// A table for `n` nodes, all initially unknown-but-alive with idle
    /// load (the optimistic boot state; first broadcasts arrive within one
    /// period).
    pub fn new(n: usize) -> Self {
        LoadTable {
            entries: vec![
                Entry {
                    load: LoadVector::IDLE,
                    updated: SimTime::ZERO,
                    health: PeerHealth::Alive,
                    known: false,
                };
                n
            ],
        }
    }

    /// Number of nodes the table covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record a load report from `node` at time `now`. Hearing from a node
    /// (re)marks it [`PeerHealth::Alive`] — this is how leaving nodes
    /// rejoin the pool, and the *only* path out of `Dead`. Returns the
    /// previous health so callers can count/log revivals.
    pub fn update(&mut self, node: NodeId, load: LoadVector, now: SimTime) -> PeerHealth {
        let e = &mut self.entries[node.index()];
        let prev = e.health;
        e.load = load;
        e.updated = now;
        e.health = PeerHealth::Alive;
        e.known = true;
        prev
    }

    /// Run one staleness pass: nodes silent longer than `suspect_after`
    /// become [`PeerHealth::Suspect`] (out of redirect candidacy, still
    /// counted for capacity); nodes silent longer than `dead_after`
    /// become [`PeerHealth::Dead`]. Each transition is reported once, in
    /// the returned [`HealthChurn`]. Nodes never heard from are exempt
    /// until they first report (the boot grace the paper's "preset
    /// period" implies).
    pub fn mark_stale(
        &mut self,
        now: SimTime,
        suspect_after: SimTime,
        dead_after: SimTime,
    ) -> HealthChurn {
        let mut churn = HealthChurn::default();
        for (i, e) in self.entries.iter_mut().enumerate() {
            if !e.known || e.health == PeerHealth::Dead {
                continue;
            }
            let silence = now.saturating_sub(e.updated);
            if silence > dead_after {
                e.health = PeerHealth::Dead;
                churn.died.push(NodeId(i as u32));
            } else if silence > suspect_after && e.health == PeerHealth::Alive {
                e.health = PeerHealth::Suspect;
                churn.suspected.push(NodeId(i as u32));
            }
        }
        churn
    }

    /// Explicitly remove a node from the pool (administrative leave, or a
    /// loadd "leaving" announcement). Returns the previous health so
    /// callers can count/log the eviction.
    pub fn mark_dead(&mut self, node: NodeId) -> PeerHealth {
        let e = &mut self.entries[node.index()];
        std::mem::replace(&mut e.health, PeerHealth::Dead)
    }

    /// Whether `node` is currently counted in the pool's capacity: not
    /// `Dead`. A `Suspect` node is still "alive" in this sense — it is
    /// only barred from *receiving redirects* (see
    /// [`LoadTable::candidates`]).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.entries[node.index()].health != PeerHealth::Dead
    }

    /// `node`'s current three-state health.
    pub fn health(&self, node: NodeId) -> PeerHealth {
        self.entries[node.index()].health
    }

    /// Advertised load of `node`.
    pub fn load(&self, node: NodeId) -> LoadVector {
        self.entries[node.index()].load
    }

    /// When `node` last reported.
    pub fn updated_at(&self, node: NodeId) -> SimTime {
        self.entries[node.index()].updated
    }

    /// Iterate nodes counted in the pool's capacity (everything not
    /// `Dead`, including `Suspect`). Use [`LoadTable::candidates`] when
    /// picking a redirect target.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.health != PeerHealth::Dead)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterate redirect candidates: strictly `Alive` nodes. The broker
    /// must never 302 a client at a `Suspect` peer — the 302 is a
    /// commitment the client pays a round trip for, so it is only made to
    /// a node heard from within the last loadd period.
    pub fn candidates(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.health == PeerHealth::Alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Conservatively bump the believed CPU load of `node` by `delta`.
    /// §3.2: "we conservatively increase the CPU load of p_x by Δ ...
    /// Δ = 30%" — so that a briefly-idle node is not flooded between load
    /// broadcasts. The bump is additive (Δ of one job's worth of load per
    /// assignment): each assignment *is* roughly one job of incoming work,
    /// and a multiplicative bump would compound into pure noise between
    /// broadcasts.
    pub fn bump_cpu(&mut self, node: NodeId, delta: f64) {
        self.entries[node.index()].load.cpu += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn normalized_by_scales_cpu_and_disk_but_not_net() {
        let l = LoadVector::new(8.0, 4.0, 2.0);
        let n = l.normalized_by(4);
        assert_eq!(n, LoadVector::new(2.0, 1.0, 2.0));
        // Identity for a single slot (and the degenerate zero).
        assert_eq!(l.normalized_by(1), l);
        assert_eq!(l.normalized_by(0), l);
    }

    #[test]
    fn update_and_read_back() {
        let mut lt = LoadTable::new(3);
        lt.update(NodeId(1), LoadVector::new(2.0, 1.0, 0.5), t(5));
        let l = lt.load(NodeId(1));
        assert_eq!(l.cpu, 2.0);
        assert_eq!(lt.updated_at(NodeId(1)), t(5));
        assert!(lt.is_alive(NodeId(1)));
    }

    #[test]
    fn staleness_marks_dead_and_report_revives() {
        let mut lt = LoadTable::new(2);
        lt.update(NodeId(0), LoadVector::IDLE, t(0));
        lt.update(NodeId(1), LoadVector::IDLE, t(0));
        lt.update(NodeId(0), LoadVector::IDLE, t(8));
        let churn = lt.mark_stale(t(11), t(2), t(10));
        assert_eq!(churn.died, vec![NodeId(1)]);
        assert!(!lt.is_alive(NodeId(1)));
        assert!(lt.is_alive(NodeId(0)));
        assert_eq!(lt.alive_nodes().collect::<Vec<_>>(), vec![NodeId(0)]);
        // The node rejoins by reporting again, and the revival is visible
        // to the caller as the previous health.
        assert_eq!(lt.update(NodeId(1), LoadVector::IDLE, t(12)), PeerHealth::Dead);
        assert!(lt.is_alive(NodeId(1)));
        // mark_stale reports each death once.
        assert!(lt.mark_stale(t(13), t(2), t(10)).died.is_empty());
    }

    #[test]
    fn silence_goes_through_suspect_before_dead() {
        let mut lt = LoadTable::new(2);
        lt.update(NodeId(0), LoadVector::IDLE, t(0));
        lt.update(NodeId(1), LoadVector::IDLE, t(0));
        // One missed period: suspect, not dead.
        let churn = lt.mark_stale(t(3), t(2), t(10));
        assert_eq!(churn.suspected, vec![NodeId(0), NodeId(1)]);
        assert!(churn.died.is_empty());
        for n in [NodeId(0), NodeId(1)] {
            assert_eq!(lt.health(n), PeerHealth::Suspect);
            assert!(lt.is_alive(n), "suspect still counts for capacity");
        }
        // Suspect nodes are out of the redirect candidate pool...
        assert_eq!(lt.candidates().count(), 0);
        assert_eq!(lt.alive_nodes().count(), 2);
        // ...each transition is reported exactly once...
        assert!(lt.mark_stale(t(4), t(2), t(10)).is_empty());
        // ...a fresh packet restores full candidacy...
        assert_eq!(lt.update(NodeId(0), LoadVector::IDLE, t(5)), PeerHealth::Suspect);
        assert_eq!(lt.health(NodeId(0)), PeerHealth::Alive);
        assert_eq!(lt.candidates().collect::<Vec<_>>(), vec![NodeId(0)]);
        // ...and continued silence crosses into dead.
        let churn = lt.mark_stale(t(11), t(2), t(10));
        assert_eq!(churn.died, vec![NodeId(1)]);
        assert_eq!(lt.health(NodeId(1)), PeerHealth::Dead);
    }

    #[test]
    fn unknown_nodes_get_boot_grace() {
        let mut lt = LoadTable::new(2);
        // Never heard from either; must not be declared dead.
        assert!(lt.mark_stale(t(100), t(10), t(50)).is_empty());
        assert!(lt.is_alive(NodeId(0)));
        lt.update(NodeId(0), LoadVector::IDLE, t(100));
        assert_eq!(lt.mark_stale(t(200), t(10), t(50)).died, vec![NodeId(0)]);
    }

    #[test]
    fn bump_cpu_is_additive() {
        let mut lt = LoadTable::new(1);
        lt.update(NodeId(0), LoadVector::new(1.0, 0.0, 0.0), t(0));
        lt.bump_cpu(NodeId(0), 0.3);
        assert!((lt.load(NodeId(0)).cpu - 1.3).abs() < 1e-12);
        // Idle node registers pressure after a bump (no herding).
        let mut lt2 = LoadTable::new(1);
        lt2.bump_cpu(NodeId(0), 0.3);
        assert!((lt2.load(NodeId(0)).cpu - 0.3).abs() < 1e-12);
        // A fresh report resets accumulated bumps.
        lt.update(NodeId(0), LoadVector::new(0.5, 0.0, 0.0), t(1));
        assert!((lt.load(NodeId(0)).cpu - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mark_dead_removes_from_pool() {
        let mut lt = LoadTable::new(3);
        assert_eq!(lt.mark_dead(NodeId(2)), PeerHealth::Alive);
        assert_eq!(lt.alive_nodes().count(), 2);
        // Marking dead twice reports Dead the second time (idempotent).
        assert_eq!(lt.mark_dead(NodeId(2)), PeerHealth::Dead);
    }
}
