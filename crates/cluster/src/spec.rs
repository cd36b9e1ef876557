//! Node and cluster specifications.

use serde::{Deserialize, Serialize};

use crate::network::NetworkSpec;

/// Index of a processing node within the cluster (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Usable as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Hardware description of one processing node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable label ("meiko-0", "lx-2"...).
    pub name: String,
    /// CPU speed in abstract operations per second. Calibrated so that the
    /// paper's 70 ms HTTP preprocessing on a 40 MHz SuperSparc corresponds
    /// to `0.070 * 40e6` operations.
    pub cpu_ops_per_sec: f64,
    /// Physical memory in bytes (bounds the page cache).
    pub mem_bytes: u64,
    /// Fraction of memory usable as file page cache (the rest is OS +
    /// server processes). The paper's superlinear-speedup discussion hinges
    /// on aggregate cache, so this matters.
    pub cache_fraction: f64,
    /// Local disk streaming bandwidth, bytes/second (paper: b1 ≈ 5 MB/s on
    /// the Meiko's dedicated 1 GB drives).
    pub disk_bw: f64,
    /// Positioning (seek + rotational) overhead per cold read, seconds.
    /// Mid-90s drives spent 10–20 ms before the first byte moved; this is
    /// what makes many small cold reads slower than one big one.
    pub disk_seek: f64,
    /// Local disk capacity in bytes.
    pub disk_bytes: u64,
}

impl NodeSpec {
    /// Bytes of page cache this node can devote to files.
    pub fn cache_bytes(&self) -> u64 {
        (self.mem_bytes as f64 * self.cache_fraction) as u64
    }

    /// Scale CPU speed by `factor` (heterogeneous-cluster experiments).
    pub fn scaled_cpu(mut self, factor: f64) -> Self {
        self.cpu_ops_per_sec *= factor;
        self
    }

    /// The disk work for one cold read of `size` bytes, expressed in
    /// byte-equivalents on the disk channel: the transfer itself plus the
    /// positioning overhead converted at streaming rate.
    pub fn disk_read_work(&self, size: u64) -> f64 {
        size as f64 + self.disk_seek * self.disk_bw
    }
}

/// A whole multicomputer: nodes plus the interconnect between them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub nodes: Vec<NodeSpec>,
    /// Interconnect model.
    pub network: NetworkSpec,
}

impl ClusterSpec {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate `(NodeId, &NodeSpec)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeSpec)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Node ids `0..len`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Aggregate page-cache capacity across all nodes, in bytes.
    pub fn total_cache_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.cache_bytes()).sum()
    }

    /// Sanity-check the specification: non-empty, positive capacities.
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("cluster has no nodes".into());
        }
        for (id, n) in self.iter() {
            if !(n.cpu_ops_per_sec > 0.0 && n.cpu_ops_per_sec.is_finite()) {
                return Err(format!("{id} ({}): non-positive cpu speed", n.name));
            }
            if !(n.disk_bw > 0.0 && n.disk_bw.is_finite()) {
                return Err(format!("{id} ({}): non-positive disk bandwidth", n.name));
            }
            if !(n.disk_seek >= 0.0 && n.disk_seek.is_finite()) {
                return Err(format!("{id} ({}): negative seek time", n.name));
            }
            if !(0.0..=1.0).contains(&n.cache_fraction) {
                return Err(format!("{id} ({}): cache fraction out of [0,1]", n.name));
            }
        }
        match &self.network {
            NetworkSpec::FatTree { per_node_bw, latency } => {
                if !(*per_node_bw > 0.0 && *latency >= 0.0) {
                    return Err("fat tree: non-positive bandwidth or negative latency".into());
                }
            }
            NetworkSpec::SharedEthernet { bus_bw, latency } => {
                if !(*bus_bw > 0.0 && *latency >= 0.0) {
                    return Err("ethernet: non-positive bandwidth or negative latency".into());
                }
            }
        }
        Ok(())
    }

    /// Keep only the first `n` nodes (node-count scalability sweeps).
    pub fn truncated(&self, n: usize) -> ClusterSpec {
        assert!(n >= 1 && n <= self.nodes.len(), "invalid truncation to {n}");
        ClusterSpec { nodes: self.nodes[..n].to_vec(), network: self.network.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }

    #[test]
    fn cache_bytes_respects_fraction() {
        let n = NodeSpec {
            name: "t".into(),
            cpu_ops_per_sec: 1e6,
            mem_bytes: 1000,
            cache_fraction: 0.75,
            disk_bw: 1e6,
            disk_seek: 0.01,
            disk_bytes: 1 << 30,
        };
        assert_eq!(n.cache_bytes(), 750);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let c = presets::meiko(6);
        let t = c.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.nodes[0].name, c.nodes[0].name);
    }

    #[test]
    #[should_panic]
    fn truncation_to_zero_panics() {
        presets::meiko(6).truncated(0);
    }

    #[test]
    fn validate_accepts_presets_and_rejects_nonsense() {
        for c in [presets::meiko(6), presets::now_lx(4), presets::heterogeneous_now(4)] {
            assert_eq!(c.validate(), Ok(()), "{:?}", c.nodes[0].name);
        }
        let mut bad = presets::meiko(2);
        bad.nodes[1].disk_bw = 0.0;
        assert!(bad.validate().unwrap_err().contains("disk bandwidth"));
        let mut bad = presets::meiko(2);
        bad.nodes[0].cache_fraction = 1.5;
        assert!(bad.validate().unwrap_err().contains("cache fraction"));
    }

    #[test]
    fn total_cache_is_sum() {
        let c = presets::meiko(6);
        assert_eq!(c.total_cache_bytes(), 6 * c.nodes[0].cache_bytes());
    }

    #[test]
    fn disk_read_work_includes_seek() {
        let n = &presets::meiko(1).nodes[0];
        // 1.5 MB cold read: transfer 0.3 s + seek 12 ms => ~1.56 MB of work.
        let work = n.disk_read_work(1_500_000);
        assert!((work - (1_500_000.0 + 0.012 * 5e6)).abs() < 1.0);
        // For a 1 KB read the seek dominates ~60:1.
        let small = n.disk_read_work(1024);
        assert!(small / 1024.0 > 50.0);
    }

    #[test]
    fn scaled_cpu_multiplies() {
        let n = presets::meiko(1).nodes[0].clone();
        let slow = n.clone().scaled_cpu(0.5);
        assert!((slow.cpu_ops_per_sec - n.cpu_ops_per_sec * 0.5).abs() < 1e-9);
    }
}
