//! Simulation configuration.

use sweb_core::{Policy, SwebConfig};
use sweb_workload::ClientPopulation;

/// Everything configurable about one simulated run, beyond the cluster
/// hardware and the workload.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduler tunables (Δ, loadd period, redirect costs, ...).
    pub sweb: SwebConfig,
    /// Scheduling strategy every node runs.
    pub policy: Policy,
    /// Where the clients are.
    pub client: ClientPopulation,
    /// Maximum concurrent accepted connections per node; arrivals beyond
    /// this are refused (the paper's dropped connections). NCSA httpd 1.3
    /// pre-forked a bounded worker pool; 128 approximates the practical
    /// concurrency ceiling of a 32 MB Solaris box.
    pub backlog_limit: u32,
    /// CPU operations loadd burns per broadcast (≈0.2 % of a 2.5 s period
    /// at 40 MHz, matching §4.3's load-monitoring overhead).
    pub loadd_ops_per_broadcast: f64,
    /// Every arrival enters at node 0, the advertised address of a fixed
    /// front end — even after node 0 has left the pool (its single point
    /// of failure, §3.1). Off = DNS rotation over the alive nodes.
    pub fixed_front_end: bool,
    /// TTL of client-side DNS caches (§1: "DNS caching enables a local DNS
    /// system to cache the name-to-IP address mapping"). Zero = ideal
    /// rotation on every request.
    pub dns_ttl: sweb_des::SimTime,
    /// Number of client domains sharing local DNS resolvers.
    pub dns_domains: usize,
    /// Fraction of requests that are CGI executions (the digital-library
    /// workload's "heterogeneous CPU activities").
    pub cgi_fraction: f64,
    /// Of the CGI requests, the fraction that are POSTs (non-idempotent:
    /// the broker pins them to the node they hit, as the live server does).
    pub post_fraction: f64,
    /// RNG seed for DNS and CGI draws.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sweb: SwebConfig::default(),
            policy: Policy::Sweb,
            client: ClientPopulation::ucsb_local(),
            backlog_limit: 128,
            loadd_ops_per_broadcast: 0.2e6,
            fixed_front_end: false,
            dns_ttl: sweb_des::SimTime::ZERO,
            dns_domains: 16,
            cgi_fraction: 0.0,
            post_fraction: 0.0,
            seed: 0xc0ffee,
        }
    }
}

impl SimConfig {
    /// Default configuration with a different policy.
    pub fn with_policy(policy: Policy) -> Self {
        SimConfig { policy, ..SimConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.policy, Policy::Sweb);
        assert!(c.backlog_limit > 0);
        assert!(!c.fixed_front_end);
        // loadd overhead: ops per broadcast over a period at Meiko speed
        // stays well under 1% of the CPU.
        let frac = c.loadd_ops_per_broadcast / (40e6 * c.sweb.loadd_period.as_secs_f64());
        assert!(frac < 0.01, "loadd overhead fraction {frac}");
    }

    #[test]
    fn with_policy_overrides() {
        assert_eq!(SimConfig::with_policy(Policy::RoundRobin).policy, Policy::RoundRobin);
    }
}
