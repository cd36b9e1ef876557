//! The oracle: request CPU-demand characterization.
//!
//! §3.1: "The oracle is a miniature expert system, which uses a
//! user-supplied table to characterize the CPU and disk demands for a
//! particular task. ... The parameters for different architectures are
//! saved in a configuration file."

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Decay factor for measured-`t_cpu` feedback: each new sample pulls the
/// tuned estimate 25% of the way toward the measurement, so the table
/// tracks drift (a handler whose working set grew) while one outlier
/// request cannot wreck the estimate.
const TUNE_ALPHA: f64 = 0.25;

/// CPU demand of a request class: `base_ops + ops_per_byte * size`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostProfile {
    /// Fixed operations: fork a handler process, path resolution, open,
    /// response header assembly.
    pub base_ops: f64,
    /// Per-byte operations: read syscalls, TCP packetization and
    /// marshalling ("the overhead necessary to send bytes out on the
    /// network properly packetized and marshaled", §3).
    pub ops_per_byte: f64,
}

impl CostProfile {
    /// Total estimated operations for a `size`-byte response.
    pub fn ops(&self, size: u64) -> f64 {
        self.base_ops + self.ops_per_byte * size as f64
    }
}

/// One row of the user-supplied oracle table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleRule {
    /// Path prefix this rule applies to (e.g. `/cgi-bin/search`); longest
    /// matching prefix wins.
    pub path_prefix: String,
    /// Demand profile for matching requests.
    pub profile: CostProfile,
}

/// The oracle: a rule table plus defaults for plain fetches and CGI, and a
/// measured-feedback table that auto-tunes `t_cpu` per dynamic handler
/// class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Oracle {
    rules: Vec<OracleRule>,
    /// Default profile for static document fetches.
    pub static_default: CostProfile,
    /// Default profile for CGI executions (adds compute beyond the fetch).
    pub cgi_default: CostProfile,
    /// Measured CPU demand (ops) per dynamic handler class: a decayed EWMA
    /// fed by `observe()` with per-request phase timings. Shared across
    /// clones on purpose — the paper keeps the oracle table in one
    /// user-visible file for the whole machine, and likewise every copy of
    /// the oracle a node hands out (broker, status page, bench probes)
    /// reads and writes the same live table. Not serialized: the config
    /// file carries the *user-supplied* priors, never the learned state.
    #[serde(skip, default)]
    tuned: Arc<RwLock<HashMap<String, f64>>>,
}

impl Oracle {
    /// An oracle calibrated for a 40 MHz SuperSparc-class node (1 op =
    /// 1 cycle):
    ///
    /// * static fetch: 0.4e6 base ops (~10 ms: fork + open + headers) plus
    ///   1.2 ops/byte (read+send loops) — a 1.5 MB file costs ~55 ms of CPU,
    ///   matching the paper's §4.3 observation that parsing+fulfillment CPU
    ///   is a few percent of wall time at 16 rps;
    /// * CGI: 4e6 base ops (~100 ms of compute) with the same per-byte cost.
    pub fn ncsa_default() -> Self {
        Oracle {
            rules: Vec::new(),
            static_default: CostProfile { base_ops: 0.4e6, ops_per_byte: 1.2 },
            cgi_default: CostProfile { base_ops: 4.0e6, ops_per_byte: 1.2 },
            tuned: Arc::default(),
        }
    }

    /// Add a table row. Rules are consulted before the defaults.
    pub fn add_rule(&mut self, path_prefix: impl Into<String>, profile: CostProfile) {
        self.rules.push(OracleRule { path_prefix: path_prefix.into(), profile });
    }

    /// Load the user-supplied table from a configuration file's text — the
    /// paper's exact mechanism ("uses a user-supplied table ... The
    /// parameters for different architectures are saved in a configuration
    /// file"). Format, one rule per line:
    ///
    /// ```text
    /// # path-prefix   base-ops    ops-per-byte
    /// /cgi-bin/search 8.0e6       1.2
    /// static-default  0.4e6       1.2
    /// cgi-default     4.0e6       1.2
    /// ```
    ///
    /// `static-default` / `cgi-default` lines override the built-in
    /// defaults. Returns the line number (1-based) of the first malformed
    /// line on error.
    pub fn from_config_str(text: &str) -> Result<Oracle, usize> {
        let mut oracle = Oracle::ncsa_default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let (Some(key), Some(base), Some(per_byte)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(lineno + 1);
            };
            if parts.next().is_some() {
                return Err(lineno + 1);
            }
            let (Ok(base_ops), Ok(ops_per_byte)) = (base.parse::<f64>(), per_byte.parse::<f64>())
            else {
                return Err(lineno + 1);
            };
            if !(base_ops.is_finite() && ops_per_byte.is_finite())
                || base_ops < 0.0
                || ops_per_byte < 0.0
            {
                return Err(lineno + 1);
            }
            let profile = CostProfile { base_ops, ops_per_byte };
            match key {
                "static-default" => oracle.static_default = profile,
                "cgi-default" => oracle.cgi_default = profile,
                prefix if prefix.starts_with('/') => oracle.add_rule(prefix, profile),
                _ => return Err(lineno + 1),
            }
        }
        Ok(oracle)
    }

    /// Number of explicit rules.
    pub fn rules(&self) -> usize {
        self.rules.len()
    }

    /// Estimated CPU operations for a request to `path` returning `size`
    /// bytes. Longest matching prefix rule wins; otherwise the CGI default
    /// applies under `/cgi-bin/`, else the static default.
    pub fn characterize(&self, path: &str, size: u64) -> f64 {
        let best = self
            .rules
            .iter()
            .filter(|r| path.starts_with(r.path_prefix.as_str()))
            .max_by_key(|r| r.path_prefix.len());
        let profile = match best {
            Some(rule) => rule.profile,
            None if path.starts_with("/cgi-bin/") => self.cgi_default,
            None => self.static_default,
        };
        profile.ops(size)
    }

    /// Estimated CPU operations for a dynamic request of handler class
    /// `class`: the measured (tuned) estimate when feedback has arrived,
    /// else the static table via [`Oracle::characterize`] — so a fresh
    /// server prices dynamic work from the user-supplied priors and
    /// converges onto reality as requests flow.
    pub fn characterize_dynamic(&self, class: &str, path: &str, size: u64) -> f64 {
        self.tuned_ops(class).unwrap_or_else(|| self.characterize(path, size))
    }

    /// Feed one measured fulfillment back into the tuned table. `measured_ops`
    /// is wall-clock handler time converted to operations at the node's
    /// clock (`secs * cpu_ops_per_sec`); non-finite or non-positive samples
    /// are dropped. First sample seeds the entry, later samples decay in
    /// with `TUNE_ALPHA`.
    pub fn observe(&self, class: &str, measured_ops: f64) {
        if !measured_ops.is_finite() || measured_ops <= 0.0 {
            return;
        }
        let mut tuned = self.tuned.write().unwrap();
        match tuned.get_mut(class) {
            Some(est) => *est += TUNE_ALPHA * (measured_ops - *est),
            None => {
                tuned.insert(class.to_string(), measured_ops);
            }
        }
    }

    /// Current tuned estimate for a handler class, if any feedback has been
    /// observed.
    pub fn tuned_ops(&self, class: &str) -> Option<f64> {
        self.tuned.read().unwrap().get(class).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_default_scales_with_size() {
        let o = Oracle::ncsa_default();
        let small = o.characterize("/index.html", 1 << 10);
        let large = o.characterize("/maps/big.gif", 1_500_000);
        assert!(large > small);
        assert!((large - (0.4e6 + 1.2 * 1_500_000.0)).abs() < 1.0);
    }

    #[test]
    fn cgi_paths_get_cgi_default() {
        let o = Oracle::ncsa_default();
        let cgi = o.characterize("/cgi-bin/search", 10_000);
        let doc = o.characterize("/search", 10_000);
        assert!(cgi > doc);
    }

    #[test]
    fn longest_prefix_rule_wins() {
        let mut o = Oracle::ncsa_default();
        o.add_rule("/cgi-bin/", CostProfile { base_ops: 1e6, ops_per_byte: 0.0 });
        o.add_rule("/cgi-bin/heavy", CostProfile { base_ops: 9e6, ops_per_byte: 0.0 });
        assert_eq!(o.characterize("/cgi-bin/light", 0), 1e6);
        assert_eq!(o.characterize("/cgi-bin/heavy-search", 0), 9e6);
        assert_eq!(o.rules(), 2);
    }

    #[test]
    fn config_file_round_trip() {
        let text = r#"
# Alexandria oracle table, Meiko CS-2 (40 MHz SuperSparc)
/cgi-bin/search   8.0e6   1.2    # spatial-index query
/cgi-bin/browse   2.0e6   1.2
static-default    0.5e6   1.5
cgi-default       3.0e6   1.2
"#;
        let o = Oracle::from_config_str(text).unwrap();
        assert_eq!(o.rules(), 2);
        assert_eq!(o.characterize("/cgi-bin/search?q=goleta", 0), 8.0e6);
        assert_eq!(o.characterize("/cgi-bin/other", 0), 3.0e6);
        assert!((o.characterize("/maps/x.gif", 1000) - (0.5e6 + 1500.0)).abs() < 1e-6);
    }

    #[test]
    fn config_file_reports_bad_lines() {
        assert_eq!(Oracle::from_config_str("/a 1.0").unwrap_err(), 1);
        assert_eq!(Oracle::from_config_str("\n/a 1.0 2.0 extra").unwrap_err(), 2);
        assert_eq!(Oracle::from_config_str("/a NaN 1.0").unwrap_err(), 1);
        assert_eq!(Oracle::from_config_str("/a -1 1.0").unwrap_err(), 1);
        assert_eq!(Oracle::from_config_str("noslash 1.0 1.0").unwrap_err(), 1);
        // Comments and blanks are fine.
        assert!(Oracle::from_config_str("# just a comment\n\n").is_ok());
    }

    #[test]
    fn shipped_example_config_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../conf/oracle.conf.example");
        let text = std::fs::read_to_string(path).expect("example config present");
        let oracle = Oracle::from_config_str(&text).expect("example config valid");
        assert_eq!(oracle.rules(), 3);
        assert_eq!(oracle.characterize("/cgi-bin/search?q=x", 0), 8.0e6);
    }

    #[test]
    fn tuned_table_overrides_static_priors() {
        let o = Oracle::ncsa_default();
        // Untuned: dynamic characterization falls back to the path rules.
        let prior = o.characterize_dynamic("burn", "/cgi-bin/burn", 4096);
        assert_eq!(prior, o.characterize("/cgi-bin/burn", 4096));
        // First observation seeds the entry outright.
        o.observe("burn", 1.0e6);
        assert_eq!(o.tuned_ops("burn"), Some(1.0e6));
        assert_eq!(o.characterize_dynamic("burn", "/cgi-bin/burn", 4096), 1.0e6);
        // Other classes stay on priors.
        assert_eq!(o.tuned_ops("echo"), None);
    }

    #[test]
    fn observe_decays_toward_measurements() {
        let o = Oracle::ncsa_default();
        o.observe("burn", 4.0e6);
        for _ in 0..40 {
            o.observe("burn", 1.0e6);
        }
        let est = o.tuned_ops("burn").unwrap();
        assert!((est - 1.0e6).abs() < 1.0e4, "EWMA should converge, got {est}");
        // One wild outlier moves the estimate by at most alpha of the gap.
        o.observe("burn", 100.0e6);
        let after = o.tuned_ops("burn").unwrap();
        assert!(after < 30.0e6, "outlier over-weighted: {after}");
        // Garbage samples are dropped.
        o.observe("burn", f64::NAN);
        o.observe("burn", -5.0);
        assert_eq!(o.tuned_ops("burn"), Some(after));
    }

    #[test]
    fn tuned_table_is_shared_across_clones() {
        let o = Oracle::ncsa_default();
        let copy = o.clone();
        o.observe("search", 2.0e6);
        assert_eq!(copy.tuned_ops("search"), Some(2.0e6));
    }

    #[test]
    fn preprocess_calibration_matches_paper() {
        // The paper's Table 5 reports ~70 ms preprocessing on a 40 MHz
        // SuperSparc: 2.8e6 cycles. Our static base is intentionally much
        // smaller (preprocessing is charged separately by the server), but
        // the 1.5 MB fulfillment CPU stays within the same order:
        let o = Oracle::ncsa_default();
        let ops = o.characterize("/big.gif", 1_500_000);
        let secs = ops / 40e6;
        assert!((0.02..0.2).contains(&secs), "1.5MB fulfillment CPU {secs}s out of band");
    }
}
