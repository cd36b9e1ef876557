//! Per-request deadlines: one wall-clock budget, split into per-phase
//! checkpoints.
//!
//! A request that cannot finish inside its budget must fail *definitively*
//! (503 + `Retry-After`) instead of hanging a client on a socket — the
//! chaos suite's core invariant. The reactor derives its
//! parse/fetch/write cutoffs from this one type so its timeout behavior
//! is testable in isolation.

use std::time::{Duration, Instant};

use crate::phases::Phase;

/// One request's time budget, anchored at the moment the request started
/// (first byte read, not connection accept — keep-alive connections are
/// long-lived by design).
///
/// Each [`Phase`] must complete before a fixed fraction of the budget:
/// parsing is cheap and front-loaded (25 %), fulfillment may take most of
/// the budget (80 %), and the write must drain by the end (100 %). A
/// phase missing its checkpoint means the request is already doomed to
/// overrun, so the server can fail it early with the time it has left.
#[derive(Debug, Clone, Copy)]
pub struct RequestDeadline {
    started: Instant,
    budget: Duration,
}

impl RequestDeadline {
    /// Budget fraction (percent) each phase must complete within.
    fn cutoff_percent(phase: Phase) -> u32 {
        match phase {
            // Accept and Decide are sub-microsecond bookkeeping phases;
            // they share the neighbouring checkpoint.
            Phase::Accept | Phase::Parse => 25,
            // A peer pull happens inside the fetch window: same cutoff.
            Phase::Decide | Phase::Forward | Phase::Fetch => 80,
            Phase::Write => 100,
        }
    }

    /// A deadline for a request that started at `started` with `budget`
    /// of wall-clock time to finish.
    pub fn new(started: Instant, budget: Duration) -> RequestDeadline {
        RequestDeadline { started, budget }
    }

    /// When the request as a whole must be finished.
    pub fn expires_at(&self) -> Instant {
        self.started + self.budget
    }

    /// When `phase` must have completed.
    pub fn phase_deadline(&self, phase: Phase) -> Instant {
        self.started + (self.budget * Self::cutoff_percent(phase)) / 100
    }

    /// Whether `phase` has missed its checkpoint as of now.
    pub fn overrun(&self, phase: Phase) -> bool {
        self.overrun_at(phase, Instant::now())
    }

    /// Whether `phase` has missed its checkpoint as of `now` (split out
    /// so tests need no sleeping).
    pub fn overrun_at(&self, phase: Phase, now: Instant) -> bool {
        now > self.phase_deadline(phase)
    }

    /// Time left before the overall deadline, zero if already past it.
    pub fn remaining(&self) -> Duration {
        self.expires_at().saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_are_ordered_fractions_of_the_budget() {
        let t0 = Instant::now();
        let d = RequestDeadline::new(t0, Duration::from_millis(1000));
        let parse = d.phase_deadline(Phase::Parse);
        let fetch = d.phase_deadline(Phase::Fetch);
        let write = d.phase_deadline(Phase::Write);
        assert_eq!(parse - t0, Duration::from_millis(250));
        assert_eq!(fetch - t0, Duration::from_millis(800));
        assert_eq!(write - t0, Duration::from_millis(1000));
        assert_eq!(d.expires_at(), write);
        // Bookkeeping phases ride the neighbouring checkpoints.
        assert_eq!(d.phase_deadline(Phase::Accept), parse);
        assert_eq!(d.phase_deadline(Phase::Decide), fetch);
    }

    #[test]
    fn overrun_trips_per_phase() {
        let t0 = Instant::now();
        let d = RequestDeadline::new(t0, Duration::from_millis(1000));
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert!(!d.overrun_at(Phase::Parse, at(250)));
        assert!(d.overrun_at(Phase::Parse, at(251)));
        assert!(!d.overrun_at(Phase::Fetch, at(800)));
        assert!(d.overrun_at(Phase::Fetch, at(900)));
        assert!(!d.overrun_at(Phase::Write, at(1000)));
        assert!(d.overrun_at(Phase::Write, at(1001)));
    }

    #[test]
    fn remaining_saturates_at_zero() {
        let past = Instant::now() - Duration::from_secs(10);
        let d = RequestDeadline::new(past, Duration::from_secs(1));
        assert_eq!(d.remaining(), Duration::ZERO);
        assert!(d.overrun(Phase::Write));
    }
}
