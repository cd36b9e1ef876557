//! The broker: per-request server selection (§3.2 steps 1–3).

use sweb_cluster::NodeId;

use crate::cost::{CostBreakdown, CostInputs, CostModel};
use crate::load::LoadTable;
use crate::policy::Policy;
use crate::types::RequestInfo;

/// Where one request should be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Serve on the node the request arrived at.
    Local,
    /// Issue a 302 sending the client to this node.
    Redirect(NodeId),
}

/// The broker's verdict for one request: the chosen route *and* the
/// chosen candidate's per-term cost breakdown, so callers (telemetry,
/// traces, tests) see the estimate the choice was made on instead of
/// re-deriving it. Policies that never consult the cost model
/// (round-robin, locality, CPU-least) still report the breakdown of the
/// node they picked — the prediction is meaningful feedback regardless of
/// how the choice was made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Serve locally or redirect.
    pub route: Route,
    /// Predicted per-term completion time of the chosen candidate.
    pub cost: CostBreakdown,
}

impl Decision {
    /// A serve-local decision with the origin's cost breakdown.
    pub fn local(cost: CostBreakdown) -> Decision {
        Decision { route: Route::Local, cost }
    }

    /// A redirect decision with the target's cost breakdown.
    pub fn redirect(target: NodeId, cost: CostBreakdown) -> Decision {
        Decision { route: Route::Redirect(target), cost }
    }

    /// The redirect target, when the route is a redirect.
    pub fn redirect_target(&self) -> Option<NodeId> {
        match self.route {
            Route::Redirect(t) => Some(t),
            Route::Local => None,
        }
    }

    /// The node that will serve the request, given where it arrived.
    pub fn chosen(&self, origin: NodeId) -> NodeId {
        self.redirect_target().unwrap_or(origin)
    }
}

/// Per-node broker: applies the configured [`Policy`] over the node's
/// current [`LoadTable`] view.
///
/// ```
/// use sweb_cluster::{presets, FileId, NodeId};
/// use sweb_core::{Broker, CostModel, LoadTable, Policy, RequestInfo, Route, SwebConfig};
///
/// let cluster = presets::meiko(4);
/// let mut loads = LoadTable::new(4);
/// let broker = Broker::new(Policy::FileLocality, CostModel::new(SwebConfig::default()));
/// // A request for a document homed on node 2 arrives at node 0:
/// let req = RequestInfo::fetch(FileId(7), 1_500_000, NodeId(2), 2.2e6);
/// let decision = broker.choose(&req, NodeId(0), &cluster, &mut loads);
/// assert_eq!(decision.route, Route::Redirect(NodeId(2)));
/// // The decision carries the predicted cost of serving at the target:
/// assert!(decision.cost.total() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Broker {
    policy: Policy,
    model: CostModel,
}

impl Broker {
    /// A broker running `policy` with the given cost model.
    pub fn new(policy: Policy, model: CostModel) -> Self {
        Broker { policy, model }
    }

    /// Active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Cost model (for instrumentation).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Decide where `req` (arrived at `origin`) should be served, and apply
    /// the conservative Δ CPU bump to the chosen node's table entry.
    ///
    /// Requests that are already-redirected, pinned local (errors,
    /// non-retrievals), or for which no better node exists are served
    /// locally (§3.2 step 2).
    pub fn choose(
        &self,
        req: &RequestInfo,
        origin: NodeId,
        cluster: &sweb_cluster::ClusterSpec,
        loads: &mut LoadTable,
    ) -> Decision {
        let decision = self.decide(req, origin, &CostInputs { cluster, loads });
        loads.bump_cpu(decision.chosen(origin), self.model.config().delta);
        decision
    }

    /// Pure decision without the Δ side effect (used by tests and the
    /// overhead instrumentation). Every returned decision carries the
    /// chosen candidate's [`CostBreakdown`].
    pub fn decide(&self, req: &RequestInfo, origin: NodeId, inputs: &CostInputs<'_>) -> Decision {
        let at = |candidate: NodeId| self.model.breakdown(req, origin, candidate, inputs);
        if req.redirected || req.pinned_local {
            return Decision::local(at(origin));
        }
        if !inputs.loads.is_alive(origin) {
            // We are being drained but still answering: serve locally.
            return Decision::local(at(origin));
        }
        match self.policy {
            Policy::RoundRobin => Decision::local(at(origin)),
            Policy::FileLocality => {
                // A 302 is a commitment the client pays a round trip for:
                // it is only made to a strictly-Alive home. A Suspect home
                // (silent for more than a loadd period) degrades to local
                // service — the at-most-one-redirect rule means a wrong
                // 302 cannot be repaired downstream.
                if req.home == origin
                    || inputs.loads.health(req.home) != crate::load::PeerHealth::Alive
                {
                    Decision::local(at(origin))
                } else {
                    Decision::redirect(req.home, at(req.home))
                }
            }
            Policy::LeastLoadedCpu => {
                let best = inputs
                    .loads
                    .candidates()
                    .min_by(|&a, &b| {
                        let (la, lb) = (inputs.loads.load(a).cpu, inputs.loads.load(b).cpu);
                        la.partial_cmp(&lb).expect("loads are finite")
                    })
                    .unwrap_or(origin);
                if best == origin {
                    Decision::local(at(origin))
                } else {
                    Decision::redirect(best, at(best))
                }
            }
            Policy::Sweb => {
                let mut best = origin;
                let mut best_cost = at(origin);
                for node in inputs.loads.candidates() {
                    if node == origin {
                        continue;
                    }
                    let cost = at(node);
                    if cost.total() < best_cost.total() {
                        best_cost = cost;
                        best = node;
                    }
                }
                if best == origin {
                    Decision::local(best_cost)
                } else {
                    Decision::redirect(best, best_cost)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweb_cluster::{presets, ClusterSpec, FileId};
    use sweb_des::SimTime;

    use crate::config::SwebConfig;
    use crate::load::LoadVector;

    fn setup(policy: Policy) -> (ClusterSpec, LoadTable, Broker) {
        let cluster = presets::meiko(4);
        let loads = LoadTable::new(4);
        let broker = Broker::new(policy, CostModel::new(SwebConfig::default()));
        (cluster, loads, broker)
    }

    fn fetch(home: u32, size: u64) -> RequestInfo {
        RequestInfo::fetch(FileId(9), size, NodeId(home), 2e6)
    }

    #[test]
    fn round_robin_never_redirects() {
        let (cluster, mut loads, broker) = setup(Policy::RoundRobin);
        loads.update(NodeId(0), LoadVector::new(50.0, 50.0, 0.0), SimTime::ZERO);
        let inputs = CostInputs { cluster: &cluster, loads: &loads.clone() };
        let d = broker.decide(&fetch(2, 1_500_000), NodeId(0), &inputs);
        assert_eq!(d.route, Route::Local);
    }

    #[test]
    fn file_locality_chases_the_home_node() {
        let (cluster, loads, broker) = setup(Policy::FileLocality);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        assert_eq!(broker.decide(&fetch(2, 1024), NodeId(0), &inputs).route, Route::Redirect(NodeId(2)));
        assert_eq!(broker.decide(&fetch(0, 1024), NodeId(0), &inputs).route, Route::Local);
    }

    #[test]
    fn file_locality_ignores_load_sweb_does_not() {
        // Home node swamped: FileLocality still redirects there; SWEB
        // serves elsewhere. This is the §4.2 skewed test in miniature.
        let mut loads = LoadTable::new(4);
        loads.update(NodeId(2), LoadVector::new(50.0, 50.0, 0.0), SimTime::ZERO);
        let cluster = presets::meiko(4);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let fl = Broker::new(Policy::FileLocality, CostModel::new(SwebConfig::default()));
        let sw = Broker::new(Policy::Sweb, CostModel::new(SwebConfig::default()));
        let r = fetch(2, 1_500_000);
        assert_eq!(fl.decide(&r, NodeId(0), &inputs).route, Route::Redirect(NodeId(2)));
        assert_eq!(sw.decide(&r, NodeId(0), &inputs).route, Route::Local);
    }

    #[test]
    fn sweb_keeps_large_files_local_when_idle_but_chases_home_under_contention() {
        // Idle cluster: the NFS penalty on 1.5 MB (~33 ms) is smaller than
        // the redirect round trip plus re-preprocessing (~85 ms) — serve
        // where the request landed.
        let (cluster, loads, broker) = setup(Policy::Sweb);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        assert_eq!(broker.decide(&fetch(3, 1_500_000), NodeId(0), &inputs).route, Route::Local);
        // Congested interconnect: the NFS fetch would crawl through the
        // loaded network while the home node can serve straight from its
        // disk — redirecting to the home node now wins.
        let mut loads = LoadTable::new(4);
        for n in 0..4 {
            loads.update(NodeId(n), LoadVector::new(0.0, 0.0, 6.0), SimTime::ZERO);
        }
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        assert_eq!(
            broker.decide(&fetch(3, 1_500_000), NodeId(0), &inputs).route,
            Route::Redirect(NodeId(3))
        );
    }

    #[test]
    fn sweb_keeps_small_files_local() {
        let (cluster, loads, broker) = setup(Policy::Sweb);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        // 1 KB file: the NFS penalty on 1 KB is microseconds, far below the
        // redirect round trip, so serve where it landed.
        assert_eq!(broker.decide(&fetch(3, 1024), NodeId(0), &inputs).route, Route::Local);
    }

    #[test]
    fn redirected_requests_are_never_bounced() {
        for policy in [Policy::FileLocality, Policy::Sweb, Policy::LeastLoadedCpu] {
            let (cluster, loads, broker) = setup(policy);
            let inputs = CostInputs { cluster: &cluster, loads: &loads };
            let r = fetch(3, 1_500_000).redirected();
            assert_eq!(
                broker.decide(&r, NodeId(0), &inputs).route,
                Route::Local,
                "{policy} bounced a redirected request"
            );
        }
    }

    #[test]
    fn dead_nodes_are_not_chosen() {
        let (cluster, mut loads, broker) = setup(Policy::Sweb);
        loads.mark_dead(NodeId(3));
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let d = broker.decide(&fetch(3, 1_500_000), NodeId(0), &inputs);
        assert_eq!(d.route, Route::Local, "must not redirect to a dead home node");
    }

    #[test]
    fn suspect_nodes_are_not_redirect_targets() {
        // Congested interconnect: SWEB would redirect to the home node
        // (see the contention test above) — unless that node went silent
        // for a loadd period, in which case the broker degrades to local
        // service rather than 302 a client at a possibly-dead peer.
        let cluster = presets::meiko(4);
        let mut loads = LoadTable::new(4);
        for n in 0..4 {
            loads.update(NodeId(n), LoadVector::new(0.0, 0.0, 6.0), SimTime::ZERO);
        }
        // Node 0 stays fresh; 1-3 have missed one period but not the
        // staleness timeout: Suspect, still counted for capacity.
        loads.update(NodeId(0), LoadVector::new(0.0, 0.0, 6.0), SimTime::from_secs(3));
        loads.mark_stale(SimTime::from_secs(3), SimTime::from_secs(2), SimTime::from_secs(8));
        assert_eq!(loads.health(NodeId(3)), crate::load::PeerHealth::Suspect);
        assert_eq!(loads.alive_nodes().count(), 4, "suspects still count for capacity");
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        for policy in [Policy::Sweb, Policy::FileLocality, Policy::LeastLoadedCpu] {
            let broker = Broker::new(policy, CostModel::new(SwebConfig::default()));
            let d = broker.decide(&fetch(3, 1_500_000), NodeId(0), &inputs);
            assert_eq!(d.route, Route::Local, "{policy} redirected to a Suspect node");
        }
    }

    #[test]
    fn least_loaded_cpu_follows_cpu_only() {
        let mut loads = LoadTable::new(4);
        loads.update(NodeId(0), LoadVector::new(5.0, 0.0, 0.0), SimTime::ZERO);
        loads.update(NodeId(1), LoadVector::new(0.1, 90.0, 90.0), SimTime::ZERO);
        let cluster = presets::meiko(4);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let b = Broker::new(Policy::LeastLoadedCpu, CostModel::new(SwebConfig::default()));
        // Single-faceted blindness: node 1 has the least CPU load but a
        // swamped disk/net; it is chosen anyway (nodes 2,3 are 0.0 cpu too,
        // so pick among zero-load ones first — force them busy).
        let mut loads2 = loads.clone();
        loads2.update(NodeId(2), LoadVector::new(1.0, 0.0, 0.0), SimTime::ZERO);
        loads2.update(NodeId(3), LoadVector::new(1.0, 0.0, 0.0), SimTime::ZERO);
        let inputs2 = CostInputs { cluster: &cluster, loads: &loads2 };
        assert_eq!(
            b.decide(&fetch(0, 1_500_000), NodeId(0), &inputs2).route,
            Route::Redirect(NodeId(1))
        );
        let _ = inputs;
    }

    #[test]
    fn choose_applies_delta_bump() {
        let (cluster, mut loads, broker) = setup(Policy::Sweb);
        for n in 0..4 {
            loads.update(NodeId(n), LoadVector::new(0.0, 0.0, 6.0), SimTime::ZERO);
        }
        let before = loads.load(NodeId(3)).cpu;
        let d = broker.choose(&fetch(3, 1_500_000), NodeId(0), &cluster, &mut loads);
        assert_eq!(d.route, Route::Redirect(NodeId(3)));
        assert!(
            (loads.load(NodeId(3)).cpu - before - 0.30).abs() < 1e-9,
            "chosen node must get the additive Δ bump"
        );
        // A local decision bumps the origin instead.
        let before0 = loads.load(NodeId(0)).cpu;
        let d = broker.choose(&fetch(0, 1_024), NodeId(0), &cluster, &mut loads);
        assert_eq!(d.route, Route::Local);
        assert!(loads.load(NodeId(0)).cpu > before0);
    }
}
