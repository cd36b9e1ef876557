//! Calibrated cluster presets matching the SWEB paper's two testbeds (§4).

use crate::network::NetworkSpec;
use crate::spec::{ClusterSpec, NodeSpec};

/// CPU speed of a 40 MHz SuperSparc in abstract ops/second. We calibrate
/// 1 op = 1 cycle, so the paper's 70 ms preprocessing = 2.8e6 ops.
pub const MEIKO_CPU_OPS: f64 = 40e6;

/// Meiko local-disk streaming bandwidth (paper §3.3: b1 = 5 MB/s).
pub const MEIKO_DISK_BW: f64 = 5.0e6;

/// Achievable per-node TCP bandwidth over the Elan fat tree. The hardware
/// peak is 40 MB/s but sockets reach only 5–15 % of it (§4); 4.5 MB/s
/// (11 %) sits in that band and directly gives the paper's b2 = 4.5 MB/s
/// remote-fetch bandwidth (the ~10 % NFS penalty against b1 = 5 MB/s).
pub const MEIKO_LINK_BW: f64 = 4.5e6;

/// SparcStation LX CPU in ops/second (50 MHz microSPARC, slower per clock
/// than the SuperSparc; 30e6 keeps preprocessing in the ~90 ms band).
pub const LX_CPU_OPS: f64 = 30e6;

/// LX local-disk bandwidth: a 525 MB drive of the era streams ~1.8 MB/s
/// through the filesystem. Against the ~1.1 MB/s shared Ethernet this puts
/// the remote-fetch cost increase at ~64 %, inside the paper's observed
/// 50–70 % band.
pub const LX_DISK_BW: f64 = 1.8e6;

/// Effective shared 10 Mb/s Ethernet bandwidth in bytes/second, after
/// framing/IPG overhead (the paper notes effective bandwidth is low because
/// the segment is shared with other campus machines).
pub const ETHERNET_BW: f64 = 1.1e6;

/// A Meiko CS-2 partition with `n` nodes: 40 MHz SuperSparc, 32 MB RAM,
/// dedicated 1 GB disk each, fat-tree interconnect.
pub fn meiko(n: usize) -> ClusterSpec {
    assert!(n >= 1, "at least one node");
    ClusterSpec {
        nodes: (0..n)
            .map(|i| NodeSpec {
                name: format!("meiko-{i}"),
                cpu_ops_per_sec: MEIKO_CPU_OPS,
                mem_bytes: 32 << 20,
                cache_fraction: 0.75,
                disk_bw: MEIKO_DISK_BW,
                disk_seek: 0.012,
                disk_bytes: 1 << 30,
            })
            .collect(),
        network: NetworkSpec::FatTree { per_node_bw: MEIKO_LINK_BW, latency: 100e-6 },
    }
}

/// A NOW of `n` SparcStation LXs: 16 MB RAM, 525 MB local disk, one shared
/// 10 Mb/s Ethernet segment.
pub fn now_lx(n: usize) -> ClusterSpec {
    assert!(n >= 1, "at least one node");
    ClusterSpec {
        nodes: (0..n)
            .map(|i| NodeSpec {
                name: format!("lx-{i}"),
                cpu_ops_per_sec: LX_CPU_OPS,
                mem_bytes: 16 << 20,
                cache_fraction: 0.75,
                disk_bw: LX_DISK_BW,
                disk_seek: 0.018,
                disk_bytes: 525 << 20,
            })
            .collect(),
        network: NetworkSpec::SharedEthernet { bus_bw: ETHERNET_BW, latency: 1e-3 },
    }
}

/// A deliberately heterogeneous NOW: node `i` runs at `1/(1+i/2)` of full
/// speed, modelling workstations shared with other users (the paper's
/// motivation for load-adaptive scheduling over DNS round-robin).
pub fn heterogeneous_now(n: usize) -> ClusterSpec {
    let mut c = now_lx(n);
    for (i, node) in c.nodes.iter_mut().enumerate() {
        let factor = 1.0 / (1.0 + i as f64 / 2.0);
        node.cpu_ops_per_sec *= factor;
        node.name = format!("hetero-lx-{i}");
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meiko_matches_paper_constants() {
        let c = meiko(6);
        assert_eq!(c.len(), 6);
        let n = &c.nodes[0];
        assert_eq!(n.mem_bytes, 32 << 20);
        assert!((n.disk_bw - 5e6).abs() < 1.0);
        // b2 = min(b1, link)*0.9 = 4.5 MB/s, the paper's analytic input.
        assert!((c.network.estimated_remote_bw(n.disk_bw) - 4.5e6).abs() < 1e3);
        // Preprocessing: 2.8e6 ops at 40e6 ops/s = 70 ms.
        assert!((2.8e6 / n.cpu_ops_per_sec - 0.070).abs() < 1e-9);
    }

    #[test]
    fn now_matches_paper_constants() {
        let c = now_lx(4);
        assert_eq!(c.len(), 4);
        assert!(c.network.is_shared_medium());
        assert_eq!(c.nodes[0].mem_bytes, 16 << 20);
        // Ethernet is the bottleneck for any remote fetch.
        assert!(c.network.estimated_remote_bw(c.nodes[0].disk_bw) <= ETHERNET_BW);
    }

    #[test]
    fn heterogeneous_speeds_decrease() {
        let c = heterogeneous_now(4);
        for w in c.nodes.windows(2) {
            assert!(w[0].cpu_ops_per_sec > w[1].cpu_ops_per_sec);
        }
    }

    #[test]
    fn meiko_aggregate_cache_exceeds_single_node() {
        // The superlinear-speedup mechanism: aggregate cache across 6 nodes.
        let one = meiko(1).total_cache_bytes();
        let six = meiko(6).total_cache_bytes();
        assert_eq!(six, 6 * one);
    }
}
