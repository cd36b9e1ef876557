//! Scheduler configuration.

use sweb_des::SimTime;

/// How a request is moved to the chosen node (§3.1: "Two approaches, URL
/// redirection or request forwarding, could be used to achieve
/// reassignment and we use the former").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectMechanism {
    /// HTTP 302 back to the client, which re-issues to the target — the
    /// paper's choice ("excellent compatibility with current browsers and
    /// near-invisibility to users"). Costs a client round trip plus
    /// re-preprocessing at the target.
    UrlRedirect,
    /// Proxy the request over the interconnect: the origin relays the
    /// response bytes from the target. No client round trip and no
    /// re-parse, but the response crosses the internal network twice —
    /// the trade-off that made the authors reject it, quantified by the
    /// `forwarding` experiment.
    Forward,
}

/// Tunables of the SWEB scheduling system, with the paper's values as
/// defaults.
#[derive(Debug, Clone)]
pub struct SwebConfig {
    /// Conservative CPU-load bump applied to a node the broker just picked
    /// (§3.2: Δ = 30 %).
    pub delta: f64,
    /// loadd broadcast period (§3.1: every 2–3 seconds).
    pub loadd_period: SimTime,
    /// Silence after which a peer is marked unavailable.
    pub stale_timeout: SimTime,
    /// Estimated TCP connection setup time `t_connect` used in
    /// `t_redirection` (§3.2).
    pub connect_time: f64,
    /// Estimated client–server latency used in `t_redirection`. "The
    /// estimate of the link latency is available from the TCP/IP
    /// implementation, but in the initial implementation is hand-coded into
    /// the server" (§3.2) — hand-coded here too.
    pub client_latency: f64,
    /// Maximum times one request may be redirected (§3.1: once).
    pub redirect_limit: u32,
    /// CPU operations charged for generating a redirect response
    /// (§4.3: ≈4 ms on the Meiko ⇒ 0.16e6 ops at 40 MHz).
    pub redirect_ops: f64,
    /// CPU operations charged for request preprocessing — parsing HTTP
    /// commands, completing the pathname, permission checks (§4.3: ≈70 ms
    /// ⇒ 2.8e6 ops at 40 MHz).
    pub preprocess_ops: f64,
    /// CPU operations charged for broker analysis (§4.3: 1–4 ms ⇒ ~0.1e6).
    pub analysis_ops: f64,
    /// How reassigned requests reach their target (default: the paper's
    /// URL redirection).
    pub redirect_mechanism: RedirectMechanism,
    /// Extension beyond the paper: when true, a node that already holds the
    /// requested document in its page cache zeroes `t_data` for local
    /// service in the cost estimate. The 1996 cost model has no cache term,
    /// which makes SWEB chase a hot file's home node in the §4.2 skewed
    /// test; this one-sided (own-cache-only, hence implementable) term
    /// fixes that without peeking at remote state: a peer's residency is
    /// never priced, since only the origin knows its own cache first-hand.
    pub cache_aware_cost: bool,
}

impl Default for SwebConfig {
    fn default() -> Self {
        SwebConfig {
            delta: 0.30,
            loadd_period: SimTime::from_millis(2500),
            stale_timeout: SimTime::from_millis(8000),
            connect_time: 0.005,
            client_latency: 0.005,
            redirect_limit: 1,
            redirect_ops: 0.16e6,
            preprocess_ops: 2.8e6,
            analysis_ops: 0.1e6,
            redirect_mechanism: RedirectMechanism::UrlRedirect,
            cache_aware_cost: false,
        }
    }
}

impl SwebConfig {
    /// Configuration for high-latency clients (the paper's east-coast
    /// Rutgers tests): cross-country RTT makes redirects expensive.
    pub fn east_coast_clients() -> Self {
        SwebConfig { client_latency: 0.045, ..SwebConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SwebConfig::default();
        assert!((c.delta - 0.30).abs() < 1e-12);
        assert_eq!(c.redirect_limit, 1);
        let period_s = c.loadd_period.as_secs_f64();
        assert!((2.0..=3.0).contains(&period_s), "loadd period {period_s} outside 2-3s");
        // 70 ms preprocessing at 40 MHz.
        assert!((c.preprocess_ops / 40e6 - 0.070).abs() < 1e-9);
        // 4 ms redirect generation at 40 MHz.
        assert!((c.redirect_ops / 40e6 - 0.004).abs() < 1e-9);
    }

    #[test]
    fn east_coast_latency_is_higher() {
        assert!(SwebConfig::east_coast_clients().client_latency > SwebConfig::default().client_latency);
    }
}
