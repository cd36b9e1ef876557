//! Per-request phase timing: accept → parse → decide → fetch → write.
//!
//! The paper's §4.3 breaks service time into analysis / scheduling /
//! redirection phases inside the simulator; this is the live-server
//! equivalent.

use std::sync::Arc;

use crate::hist::AtomicHistogram;
use crate::registry::Registry;

/// One stage of a request's life on a node. The phases partition a
/// request's time, and readers sum the family as such; a cost that
/// overlaps them — the loop-thread time of a request answered inline,
/// which contains its decide and fetch — is its own series
/// (`sweb_inline_us`), not a variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Kernel accept to admission (engine hand-off latency).
    Accept,
    /// First request byte to a fully parsed head + body.
    Parse,
    /// The broker's §3.2 scheduling decision (load refresh + cost scan).
    Decide,
    /// Pulling the document from a peer. No node does any more, so
    /// nothing records it; the variant stays because the benchmark's
    /// layer replay records every phase in [`Phase::ALL`].
    Forward,
    /// Local fulfillment: cache/disk read or CGI execution.
    Fetch,
    /// Response serialization drained to the socket.
    Write,
}

impl Phase {
    /// Every phase, in request-lifecycle order.
    pub const ALL: [Phase; 6] =
        [Phase::Accept, Phase::Parse, Phase::Decide, Phase::Forward, Phase::Fetch, Phase::Write];

    /// Label value used in the exposition (`phase="..."`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::Parse => "parse",
            Phase::Decide => "decide",
            Phase::Forward => "forward",
            Phase::Fetch => "fetch",
            Phase::Write => "write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One latency histogram per [`Phase`], registered as
/// `sweb_request_phase_us{phase=...}`; the `Default` is unregistered.
#[derive(Debug, Default)]
pub struct PhaseTimes {
    hists: [Arc<AtomicHistogram>; 6],
}

impl PhaseTimes {
    /// Register the per-phase histograms on `registry`, one cell each.
    pub fn register(registry: &Registry) -> PhaseTimes {
        PhaseTimes::register_sharded(registry, 1)
    }

    /// Register the per-phase histograms on `registry` with `cells`
    /// per-shard cells each ([`AtomicHistogram::with_cells`]).
    pub fn register_sharded(registry: &Registry, cells: usize) -> PhaseTimes {
        let hists = Phase::ALL.map(|p| {
            registry.sharded_histogram(
                "sweb_request_phase_us",
                &[("phase", p.name())],
                "Per-request phase latency in microseconds",
                cells,
            )
        });
        PhaseTimes { hists }
    }

    /// Record `micros` spent in `phase`, in the calling thread's cell.
    pub fn record(&self, phase: Phase, micros: u64) {
        self.hists[phase.index()].record(micros);
    }

    /// Record `micros` spent in `phase`, in shard `shard`'s cell.
    pub fn record_at(&self, shard: usize, phase: Phase, micros: u64) {
        self.hists[phase.index()].record_at(shard, micros);
    }

    /// The histogram behind one phase (for tests and summaries).
    pub fn histogram(&self, phase: Phase) -> &Arc<AtomicHistogram> {
        &self.hists[phase.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_independently() {
        let reg = Registry::new();
        let phases = PhaseTimes::register(&reg);
        phases.record(Phase::Parse, 10);
        phases.record(Phase::Parse, 20);
        phases.record(Phase::Write, 1_000);
        assert_eq!(phases.histogram(Phase::Parse).count(), 2);
        assert_eq!(phases.histogram(Phase::Write).count(), 1);
        assert_eq!(phases.histogram(Phase::Fetch).count(), 0);
        let text = reg.render_prometheus();
        for p in Phase::ALL {
            assert!(text.contains(&format!("phase=\"{}\"", p.name())), "{text}");
        }
    }
}
