//! Cost-model feedback: predicted `t_s` terms vs measured wall time.
//!
//! §3.2's broker estimates `t_s = t_redirection + t_data + t_cpu` for the
//! node it picks — and the original system never looked back. Here every
//! locally-fulfilled decision records the winning candidate's predicted
//! per-term breakdown against the measured fulfillment time, so the
//! prediction-*error* distribution is a first-class metric: a fleet whose
//! p99 error drifts has a stale oracle or a mispriced channel, which is
//! exactly the §6 "dynamic parameter adjustment" future work made
//! observable.

use std::sync::Arc;

use crate::hist::AtomicHistogram;
use crate::registry::Registry;
use crate::sharded::ShardedCounter;

/// Unsigned prediction error as a percentage of the prediction (capped
/// at 10 000 % to keep one wild outlier chartable).
fn error_pct(predicted_us: u64, measured_us: u64) -> u64 {
    let p = predicted_us.max(1) as f64;
    let e = (measured_us as f64 - p).abs() / p * 100.0;
    e.min(10_000.0) as u64
}

/// Lock-free feedback recorder for one node, in per-shard cells.
#[derive(Debug)]
pub struct CostFeedback {
    predicted: Arc<AtomicHistogram>,
    measured: Arc<AtomicHistogram>,
    error_pct: Arc<AtomicHistogram>,
    term_us: [Arc<ShardedCounter>; 3],
    decisions: Arc<ShardedCounter>,
}

impl CostFeedback {
    /// Register the feedback metrics on `registry`, each with `cells`
    /// per-shard cells.
    pub fn register(registry: &Registry, cells: usize) -> CostFeedback {
        let predicted = registry.sharded_histogram(
            "sweb_cost_predicted_us",
            &[],
            "Broker-predicted completion time of the chosen candidate, microseconds",
            cells,
        );
        let measured = registry.sharded_histogram(
            "sweb_cost_measured_us",
            &[],
            "Measured local fulfillment wall time, microseconds",
            cells,
        );
        let error_pct = registry.sharded_histogram(
            "sweb_cost_error_pct",
            &[],
            "Unsigned prediction error as percent of prediction",
            cells,
        );
        let term_us = ["redirection", "data", "cpu"].map(|term| {
            registry.sharded_counter(
                "sweb_cost_predicted_term_us_total",
                &[("term", term)],
                "Cumulative predicted microseconds attributed to each cost-model term",
                cells,
            )
        });
        let decisions = registry.sharded_counter(
            "sweb_cost_feedback_total",
            &[],
            "Decisions with both a prediction and a measurement recorded",
            cells,
        );
        CostFeedback { predicted, measured, error_pct, term_us, decisions }
    }

    /// Record one decision, in shard `shard`'s cells: the chosen
    /// candidate's predicted per-term breakdown (seconds, as the cost
    /// model emits) against the measured fulfillment wall time.
    pub fn record_at(
        &self,
        shard: usize,
        t_redirection_s: f64,
        t_data_s: f64,
        t_cpu_s: f64,
        measured_us: u64,
    ) {
        let us = |s: f64| (s.max(0.0) * 1e6) as u64;
        let (red, data, cpu) = (us(t_redirection_s), us(t_data_s), us(t_cpu_s));
        let predicted_us = red + data + cpu;
        self.term_us[0].add_at(shard, red);
        self.term_us[1].add_at(shard, data);
        self.term_us[2].add_at(shard, cpu);
        self.predicted.record_at(shard, predicted_us);
        self.measured.record_at(shard, measured_us);
        self.error_pct.record_at(shard, error_pct(predicted_us, measured_us));
        self.decisions.inc_at(shard);
    }

    /// Decisions recorded so far.
    pub fn decisions(&self) -> u64 {
        self.decisions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_terms_and_error() {
        let reg = Registry::new();
        let fb = CostFeedback::register(&reg, 2);
        // Predict 1 ms redirection + 2 ms data + 3 ms cpu; measure 9 ms.
        fb.record_at(1, 0.001, 0.002, 0.003, 9_000);
        assert_eq!(fb.decisions(), 1);
        let text = reg.render_prometheus();
        assert!(text.contains("sweb_cost_predicted_us_sum 6000"), "{text}");
        assert!(text.contains("sweb_cost_error_pct_sum 50"), "{text}");
        assert!(text.contains("sweb_cost_predicted_term_us_total{term=\"data\"} 2000"));
        assert!(text.contains("sweb_cost_feedback_total 1"));
    }

    #[test]
    fn error_pct_guards_division_and_caps() {
        assert_eq!(error_pct(0, 1_000_000), 10_000, "capped, not infinite");
        assert_eq!(error_pct(500, 500), 0);
    }
}
