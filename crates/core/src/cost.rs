//! The multi-faceted cost model (§3.2).
//!
//! For a request `r` arriving at node `x`, the broker estimates, for every
//! available node `s`, the completion time
//!
//! ```text
//! t_s = t_redirection + t_data + t_cpu + t_net
//! ```
//!
//! and picks the minimum. The terms:
//!
//! * `t_redirection` — 0 if `s == x`, else `2·t_client_latency + t_connect`
//!   (the 302 travels to the client, which re-issues to `s`);
//! * `t_data` — file size over the *available* bandwidth of the data path:
//!   the local disk degraded by its channel load, or, for a remote file,
//!   `min(b_disk, b_net)` degraded by the larger of the remote disk's and
//!   the network's load;
//! * `t_cpu` — oracle-estimated operations over the node's effective CPU
//!   speed `speed / (1 + cpu_load)`;
//! * `t_net` — result transfer to the client; assumed identical across
//!   candidate nodes and therefore not estimated (§3.2).

use sweb_cluster::{ClusterSpec, NodeId};

use crate::config::SwebConfig;
use crate::load::LoadTable;
use crate::types::RequestInfo;

/// Borrowed state the cost model evaluates against.
pub struct CostInputs<'a> {
    /// Cluster hardware description.
    pub cluster: &'a ClusterSpec,
    /// This node's current view of everyone's load.
    pub loads: &'a LoadTable,
}

/// The per-term decomposition of one candidate's estimated completion
/// time, seconds. This is what the broker now returns with every
/// [`crate::broker::Decision`], so callers (telemetry, the simulator's
/// trace) read the terms the choice was made on instead of re-deriving
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// `t_redirection`: the 302 round trip (0 when served at the origin).
    pub t_redirection: f64,
    /// `t_data`: disk/NFS/cache transfer time under current loads.
    pub t_data: f64,
    /// `t_cpu`: request operations over load-degraded CPU speed
    /// (including re-preprocessing charged to URL-redirected candidates).
    pub t_cpu: f64,
}

impl CostBreakdown {
    /// `t_s = t_redirection + t_data + t_cpu` (`t_net` is equal across
    /// candidates and not estimated, §3.2).
    pub fn total(self) -> f64 {
        self.t_redirection + self.t_data + self.t_cpu
    }
}

/// The §3.2 completion-time estimator.
#[derive(Debug, Clone)]
pub struct CostModel {
    cfg: SwebConfig,
}

impl CostModel {
    /// Build from a scheduler configuration.
    pub fn new(cfg: SwebConfig) -> Self {
        CostModel { cfg }
    }

    /// Access the configuration.
    pub fn config(&self) -> &SwebConfig {
        &self.cfg
    }

    /// Estimated completion time (seconds) if `candidate` serves `req`,
    /// which arrived at `origin`.
    pub fn estimate(
        &self,
        req: &RequestInfo,
        origin: NodeId,
        candidate: NodeId,
        inputs: &CostInputs<'_>,
    ) -> f64 {
        self.breakdown(req, origin, candidate, inputs).total()
    }

    /// The per-term [`CostBreakdown`] behind [`CostModel::estimate`].
    pub fn breakdown(
        &self,
        req: &RequestInfo,
        origin: NodeId,
        candidate: NodeId,
        inputs: &CostInputs<'_>,
    ) -> CostBreakdown {
        // A URL-redirected request is re-parsed at the target node, so a
        // remote candidate is charged the preprocessing ops on top of
        // fulfillment ("t_CPU is the time to fork a process, perform disk
        // reading ...", §3.2 — the whole handling, which a redirect
        // repeats). Forwarding relays the parsed request and skips this.
        let reprocess = if candidate == origin
            || self.cfg.redirect_mechanism == crate::config::RedirectMechanism::Forward
        {
            0.0
        } else {
            self.cfg.preprocess_ops
        };
        CostBreakdown {
            t_redirection: self.t_redirection(origin, candidate),
            t_data: self.t_data(req, origin, candidate, inputs),
            t_cpu: self.t_cpu_ops(req.cpu_ops + reprocess, candidate, inputs),
            // + t_net: equal across candidates, not estimated (§3.2).
        }
    }

    /// `t_redirection`: zero when served where it landed; else, for URL
    /// redirection, one short client round trip plus a connection setup;
    /// for forwarding, just an internal connection setup.
    pub fn t_redirection(&self, origin: NodeId, candidate: NodeId) -> f64 {
        if origin == candidate {
            0.0
        } else {
            match self.cfg.redirect_mechanism {
                crate::config::RedirectMechanism::UrlRedirect => {
                    2.0 * self.cfg.client_latency + self.cfg.connect_time
                }
                crate::config::RedirectMechanism::Forward => self.cfg.connect_time,
            }
        }
    }

    /// `t_data`: disk (or NFS) transfer time under current channel loads.
    ///
    /// With the `cache_aware_cost` extension, a request whose document sits
    /// in the *origin's* page cache costs no data time there (`candidate ==
    /// origin` is signalled by `req.cached_at_origin`, which the caller only
    /// sets for the origin evaluation). Every other candidate pays its disk
    /// or the NFS path.
    pub fn t_data(
        &self,
        req: &RequestInfo,
        origin: NodeId,
        candidate: NodeId,
        inputs: &CostInputs<'_>,
    ) -> f64 {
        let size = req.size as f64;
        let cand_spec = &inputs.cluster.nodes[candidate.index()];
        if req.cached_at_origin && candidate == origin {
            return 0.0;
        }
        if req.home == candidate {
            let disk_load = inputs.loads.load(candidate).disk;
            let avail = cand_spec.disk_bw / (1.0 + disk_load);
            size / avail
        } else {
            // Remote fetch: bounded by the remote disk and the
            // interconnect, each degraded by its observed load.
            let home_spec = &inputs.cluster.nodes[req.home.index()];
            let disk_load = inputs.loads.load(req.home).disk;
            let net_load = inputs
                .loads
                .load(candidate)
                .net
                .max(inputs.loads.load(req.home).net);
            let b_remote = inputs.cluster.network.estimated_remote_bw(home_spec.disk_bw);
            let avail = (home_spec.disk_bw / (1.0 + disk_load)).min(b_remote / (1.0 + net_load));
            size / avail
        }
    }

    /// `t_cpu`: oracle operations over load-degraded CPU speed.
    pub fn t_cpu(&self, req: &RequestInfo, candidate: NodeId, inputs: &CostInputs<'_>) -> f64 {
        self.t_cpu_ops(req.cpu_ops, candidate, inputs)
    }

    fn t_cpu_ops(&self, ops: f64, candidate: NodeId, inputs: &CostInputs<'_>) -> f64 {
        let spec = &inputs.cluster.nodes[candidate.index()];
        let cpu_load = inputs.loads.load(candidate).cpu;
        let effective = spec.cpu_ops_per_sec / (1.0 + cpu_load);
        ops / effective
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweb_cluster::{presets, FileId};
    use sweb_des::SimTime;

    use crate::load::LoadVector;

    fn setup() -> (ClusterSpec, LoadTable, CostModel) {
        let cluster = presets::meiko(4);
        let loads = LoadTable::new(4);
        let model = CostModel::new(SwebConfig::default());
        (cluster, loads, model)
    }

    fn req(home: u32, size: u64) -> RequestInfo {
        RequestInfo::fetch(FileId(0), size, NodeId(home), 1e6)
    }

    #[test]
    fn local_service_has_no_redirection_cost() {
        let (cluster, loads, model) = setup();
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let r = req(0, 1_500_000);
        let local = model.estimate(&r, NodeId(0), NodeId(0), &inputs);
        let remote_serve = model.estimate(&r, NodeId(0), NodeId(1), &inputs);
        assert!(local < remote_serve, "idle cluster: serving at the file's home wins");
        assert!(model.t_redirection(NodeId(0), NodeId(0)) == 0.0);
        assert!(model.t_redirection(NodeId(0), NodeId(1)) > 0.0);
    }

    #[test]
    fn data_term_matches_paper_formula_local() {
        let (cluster, loads, model) = setup();
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        // Idle: 1.5 MB over b1 = 5 MB/s = 0.3 s.
        let t = model.t_data(&req(0, 1_500_000), NodeId(0), NodeId(0), &inputs);
        assert!((t - 0.3).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn data_term_matches_paper_formula_remote() {
        let (cluster, loads, model) = setup();
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        // Remote idle: min(b1, b2) = 4.5 MB/s -> 1/3 s for 1.5 MB.
        let t = model.t_data(&req(1, 1_500_000), NodeId(0), NodeId(0), &inputs);
        assert!((t - 1.5e6 / 4.5e6).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn disk_load_degrades_local_bandwidth() {
        let (cluster, mut loads, model) = setup();
        loads.update(NodeId(0), LoadVector::new(0.0, 2.0, 0.0), SimTime::ZERO);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let t = model.t_data(&req(0, 1_500_000), NodeId(0), NodeId(0), &inputs);
        assert!((t - 0.9).abs() < 1e-9, "3x degradation expected, got {t}");
    }

    #[test]
    fn cpu_load_degrades_cpu_term() {
        let (cluster, mut loads, model) = setup();
        let inputs0 = CostInputs { cluster: &cluster, loads: &loads };
        let r = req(0, 1_000);
        let idle = model.t_cpu(&r, NodeId(0), &inputs0);
        let _ = inputs0;
        loads.update(NodeId(0), LoadVector::new(3.0, 0.0, 0.0), SimTime::ZERO);
        let inputs1 = CostInputs { cluster: &cluster, loads: &loads };
        let loaded = model.t_cpu(&r, NodeId(0), &inputs1);
        assert!((loaded / idle - 4.0).abs() < 1e-9);
    }

    #[test]
    fn forwarding_mechanism_changes_the_redirect_economics() {
        use crate::config::RedirectMechanism;
        let cluster = presets::meiko(4);
        let loads = LoadTable::new(4);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let url = CostModel::new(SwebConfig::default());
        let fwd = CostModel::new(SwebConfig {
            redirect_mechanism: RedirectMechanism::Forward,
            ..SwebConfig::default()
        });
        // t_redirection: a 302 costs a client round trip; forwarding only
        // an internal connect.
        let t_url = url.t_redirection(NodeId(0), NodeId(1));
        let t_fwd = fwd.t_redirection(NodeId(0), NodeId(1));
        assert!(t_fwd < t_url, "{t_fwd} vs {t_url}");
        assert!((t_url - (2.0 * 0.005 + 0.005)).abs() < 1e-12);
        assert!((t_fwd - 0.005).abs() < 1e-12);
        // And a remote candidate is not re-charged preprocessing under
        // forwarding (the parsed request is relayed).
        let r = req(1, 1_500_000);
        let url_est = url.estimate(&r, NodeId(0), NodeId(1), &inputs);
        let fwd_est = fwd.estimate(&r, NodeId(0), NodeId(1), &inputs);
        let preprocess_secs = SwebConfig::default().preprocess_ops / 40e6;
        assert!(
            (url_est - fwd_est - (t_url - t_fwd) - preprocess_secs).abs() < 1e-9,
            "url {url_est} vs fwd {fwd_est}"
        );
    }

    #[test]
    fn loaded_home_can_lose_to_idle_remote() {
        // The multi-faceted point: when the home node is swamped, a remote
        // node (paying redirection + NFS) can still win.
        let (cluster, mut loads, model) = setup();
        loads.update(NodeId(0), LoadVector::new(20.0, 20.0, 0.0), SimTime::ZERO);
        let inputs = CostInputs { cluster: &cluster, loads: &loads };
        let r = req(0, 1_500_000);
        let at_home = model.estimate(&r, NodeId(0), NodeId(0), &inputs);
        let at_idle_peer = model.estimate(&r, NodeId(0), NodeId(1), &inputs);
        // Note: disk load at home also hurts the remote path (the NFS read
        // hits the same disk), but the CPU term escapes.
        assert!(
            at_idle_peer < at_home,
            "remote {at_idle_peer} should beat swamped home {at_home}"
        );
    }
}
