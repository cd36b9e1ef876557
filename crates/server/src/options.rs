//! `ServerOptions`: one typed builder behind every server toggle.
//!
//! The server grew a sprawl of per-feature switches — `--shards`,
//! `--peer-transfer`, `--replicate-hot`, `--overload`, `--fault-plan`,
//! plus environment overrides (`SWEB_SHARDS`, `SWEB_PEER_TRANSFER`,
//! `SWEB_REPLICATE_HOT`, `SWEB_OVERLOAD`). This module consolidates them
//! into one builder with a single documented precedence rule:
//!
//! > **CLI > environment > config.**
//!
//! An explicit builder setter models the CLI tier and always wins. The
//! environment tier applies only where no explicit setter was called.
//! The config tier is the wrapped [`ClusterConfig`] (defaults, or a
//! caller-provided one via [`ServerOptions::from_config`]).
//!
//! `swebd` and every integration test construct clusters through this
//! type, and [`ServerOptions::resolve_with`] is the only place the server
//! reads its environment: [`ClusterConfig::default`] reads none. It takes
//! the environment injected, so precedence is unit-testable without
//! mutating the process env.

use std::path::PathBuf;
use std::time::Duration;

use sweb_chaos::FaultPlan;
use sweb_core::{Oracle, Policy, SwebConfig};

use crate::cluster::{ClusterConfig, LiveCluster};
use crate::dynamic::DynamicRegistry;

/// Typed builder for a cluster's full configuration. See the module docs
/// for the precedence rule.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// The config tier. Setters without an environment override write
    /// here directly.
    base: ClusterConfig,
    // The CLI tier: explicit settings for every env-overridable toggle.
    shards: Option<usize>,
    peer_transfer: Option<bool>,
    replicate_hot: Option<bool>,
    overload: Option<bool>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions::new()
    }
}

impl ServerOptions {
    /// Options over the default configuration.
    pub fn new() -> Self {
        ServerOptions::from_config(ClusterConfig::default())
    }

    /// Options over an existing configuration (the config tier) — for
    /// callers that assemble an exotic [`ClusterConfig`] and still want
    /// CLI/env layering on top.
    pub fn from_config(base: ClusterConfig) -> Self {
        ServerOptions {
            base,
            shards: None,
            peer_transfer: None,
            replicate_hot: None,
            overload: None,
        }
    }

    // ---- CLI tier: explicit settings that beat the environment ----

    /// Reactor shards per node, 0 = one per core for every node
    /// (`--shards`; env `SWEB_SHARDS`).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Peer transfer channel on/off (`--peer-transfer`; env
    /// `SWEB_PEER_TRANSFER`).
    pub fn peer_transfer(mut self, on: bool) -> Self {
        self.peer_transfer = Some(on);
        self
    }

    /// Digest-driven hot-file replication on/off (`--replicate-hot`; env
    /// `SWEB_REPLICATE_HOT`).
    pub fn replicate_hot(mut self, on: bool) -> Self {
        self.replicate_hot = Some(on);
        self
    }

    /// Overload-control subsystem — adaptive admission, per-peer circuit
    /// breakers, retry budgets — on/off (`--overload`; env
    /// `SWEB_OVERLOAD`). On by default; off gives the static-503
    /// baseline (admission by `max_conns` alone, unconditional retries).
    pub fn overload_control(mut self, on: bool) -> Self {
        self.overload = Some(on);
        self
    }

    // ---- Config tier: knobs with no environment override ----

    /// Scheduling policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.base.policy = policy;
        self
    }

    /// Per-node admission cap.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.base.max_conns = n;
        self
    }

    /// Replace the scheduler tunables wholesale. Runs at the config
    /// tier: explicit [`ServerOptions::peer_transfer`] /
    /// [`ServerOptions::replicate_hot`] calls and their env vars still
    /// apply on top.
    pub fn sweb(mut self, sweb: SwebConfig) -> Self {
        self.base.sweb = sweb;
        self
    }

    /// Dynamic handler registry served under `/cgi-bin/`.
    pub fn handlers(mut self, handlers: DynamicRegistry) -> Self {
        self.base.handlers = handlers;
        self
    }

    /// Dynamic response cache bounds: total entries and default TTL.
    pub fn dynamic_cache(mut self, max_entries: usize, default_ttl: Duration) -> Self {
        self.base.dynamic_cache_entries = max_entries;
        self.base.dynamic_cache_ttl = default_ttl;
        self
    }

    /// Fixed port base (`port_base + i` for node `i`).
    pub fn port_base(mut self, base: u16) -> Self {
        self.base.port_base = Some(base);
        self
    }

    /// Shared CLF access log.
    pub fn access_log(mut self, log: crate::access_log::AccessLog) -> Self {
        self.base.access_log = Some(log);
        self
    }

    /// Per-node file cache capacity in bytes (0 disables).
    pub fn file_cache_bytes(mut self, bytes: u64) -> Self {
        self.base.file_cache_bytes = bytes;
        self
    }

    /// Request CPU-demand oracle.
    pub fn oracle(mut self, oracle: Oracle) -> Self {
        self.base.oracle = oracle;
        self
    }

    /// Deterministic fault plan for chaos runs (`--fault-plan`).
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.base.fault_plan = plan;
        self
    }

    /// Wall-clock budget for one request.
    pub fn request_budget(mut self, budget: Duration) -> Self {
        self.base.request_budget = budget;
        self
    }

    /// loadd broadcast period in milliseconds. Also scales the staleness
    /// timeout to four periods, the convention the loadd daemon's
    /// suspect/dead marking assumes.
    pub fn loadd_ms(mut self, ms: u64) -> Self {
        self.base.sweb.loadd_period = sweb_des::SimTime::from_millis(ms);
        self.base.sweb.stale_timeout = sweb_des::SimTime::from_millis(ms * 4);
        self
    }

    /// loadd broadcast period and staleness timeout, independently, in
    /// milliseconds — for tests that need failure detection faster or
    /// slower than the 4× convention [`ServerOptions::loadd_ms`] applies.
    pub fn loadd_timing(mut self, period_ms: u64, stale_ms: u64) -> Self {
        self.base.sweb.loadd_period = sweb_des::SimTime::from_millis(period_ms);
        self.base.sweb.stale_timeout = sweb_des::SimTime::from_millis(stale_ms);
        self
    }

    // ---- Resolution ----

    /// Resolve to a [`ClusterConfig`] against the process environment:
    /// CLI (explicit setters) > env > config.
    pub fn build(self) -> ClusterConfig {
        self.resolve_with(|key| std::env::var(key).ok())
    }

    /// Resolve against an injected environment (tests pass a closure, so
    /// precedence is checkable without touching the process env).
    pub fn resolve_with(self, env: impl Fn(&str) -> Option<String>) -> ClusterConfig {
        let mut cfg = self.base;
        // Environment tier over config...
        if let Some(n) = env("SWEB_SHARDS").and_then(|v| v.parse().ok()) {
            cfg.shards = n;
        }
        if let Some(on) = env("SWEB_PEER_TRANSFER").and_then(|v| parse_bool(&v)) {
            cfg.sweb.peer_transfer = on;
        }
        if let Some(on) = env("SWEB_REPLICATE_HOT").and_then(|v| parse_bool(&v)) {
            cfg.sweb.replicate_hot = on;
        }
        if let Some(on) = env("SWEB_OVERLOAD").and_then(|v| parse_bool(&v)) {
            cfg.overload_control = on;
        }
        // ...and the CLI tier over everything.
        if let Some(n) = self.shards {
            cfg.shards = n;
        }
        if let Some(on) = self.peer_transfer {
            cfg.sweb.peer_transfer = on;
        }
        if let Some(on) = self.replicate_hot {
            cfg.sweb.replicate_hot = on;
        }
        if let Some(on) = self.overload {
            cfg.overload_control = on;
        }
        cfg
    }

    /// Build the configuration ([`ServerOptions::build`]) and start `n`
    /// nodes serving `docroot`.
    pub fn start(self, n: usize, docroot: PathBuf) -> std::io::Result<LiveCluster> {
        LiveCluster::start(n, docroot, self.build())
    }
}

/// Boolean env values: `1/true/yes/on` and `0/false/no/off`, case
/// insensitive; anything else is ignored (config tier stands).
fn parse_bool(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn config_tier_is_the_default() {
        let cfg = ServerOptions::new().resolve_with(no_env);
        assert_eq!(cfg.shards, 0);
        assert!(!cfg.sweb.peer_transfer);
        assert!(!cfg.sweb.replicate_hot);
        assert!(cfg.overload_control, "overload control defaults on");
    }

    #[test]
    fn the_config_default_reads_no_environment() {
        // `resolve_with` is the only reader of the environment, so with
        // an empty one it must agree with the plain default, whatever
        // this process's own SWEB_* variables say.
        let resolved = ServerOptions::new().resolve_with(no_env);
        let plain = ClusterConfig::default();
        assert_eq!(resolved.shards, plain.shards);
        assert_eq!(resolved.overload_control, plain.overload_control);
        assert_eq!(resolved.sweb.peer_transfer, plain.sweb.peer_transfer);
    }

    #[test]
    fn env_beats_config() {
        let env = |key: &str| match key {
            "SWEB_SHARDS" => Some("3".to_string()),
            "SWEB_PEER_TRANSFER" => Some("yes".to_string()),
            "SWEB_REPLICATE_HOT" => Some("on".to_string()),
            "SWEB_OVERLOAD" => Some("off".to_string()),
            _ => None,
        };
        let cfg = ServerOptions::new().resolve_with(env);
        assert_eq!(cfg.shards, 3);
        assert!(cfg.sweb.peer_transfer);
        assert!(cfg.sweb.replicate_hot);
        assert!(!cfg.overload_control);
    }

    #[test]
    fn cli_beats_env() {
        let env = |key: &str| match key {
            "SWEB_SHARDS" => Some("3".to_string()),
            "SWEB_PEER_TRANSFER" => Some("1".to_string()),
            "SWEB_OVERLOAD" => Some("1".to_string()),
            _ => None,
        };
        let cfg = ServerOptions::new()
            .shards(2)
            .peer_transfer(false)
            .overload_control(false)
            .resolve_with(env);
        assert_eq!(cfg.shards, 2);
        assert!(!cfg.sweb.peer_transfer);
        assert!(!cfg.overload_control);
    }

    #[test]
    fn garbage_env_is_ignored() {
        let env = |key: &str| match key {
            "SWEB_SHARDS" => Some("many".to_string()),
            "SWEB_PEER_TRANSFER" => Some("maybe".to_string()),
            _ => None,
        };
        let cfg = ServerOptions::new().resolve_with(env);
        assert_eq!(cfg.shards, 0);
        assert!(!cfg.sweb.peer_transfer);
    }

    #[test]
    fn sweb_override_keeps_cli_layering() {
        // from_config / sweb() sit at the config tier: an explicit
        // peer_transfer() still wins over the struct it replaced.
        let sweb = SwebConfig { peer_transfer: true, ..SwebConfig::default() };
        let cfg = ServerOptions::new().sweb(sweb).peer_transfer(false).resolve_with(no_env);
        assert!(!cfg.sweb.peer_transfer);
    }

    #[test]
    fn config_tier_mutators_pass_through() {
        let cfg = ServerOptions::new()
            .policy(Policy::FileLocality)
            .max_conns(7)
            .port_base(9000)
            .file_cache_bytes(1 << 20)
            .request_budget(Duration::from_millis(500))
            .dynamic_cache(32, Duration::from_millis(100))
            .loadd_ms(150)
            .resolve_with(no_env);
        assert_eq!(cfg.policy, Policy::FileLocality);
        assert_eq!(cfg.max_conns, 7);
        assert_eq!(cfg.port_base, Some(9000));
        assert_eq!(cfg.file_cache_bytes, 1 << 20);
        assert_eq!(cfg.request_budget, Duration::from_millis(500));
        assert_eq!(cfg.dynamic_cache_entries, 32);
        assert_eq!(cfg.dynamic_cache_ttl, Duration::from_millis(100));
        assert_eq!(cfg.sweb.loadd_period, sweb_des::SimTime::from_millis(150));
        assert_eq!(cfg.sweb.stale_timeout, sweb_des::SimTime::from_millis(600));
    }
}
