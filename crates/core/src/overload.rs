//! Overload control: adaptive admission and retry budgets, plus per-peer
//! circuit breakers that no node runs any more.
//!
//! Saturation should be a slope, not a cliff. Two cooperating pieces
//! (both engine-agnostic, both lock-free) turn the server's static
//! `max_conns` refusal into graceful degradation:
//!
//! * [`AdmissionController`] — a CoDel-style controller over worker-queue
//!   *sojourn time* (how long a request waited before service began).
//!   When the minimum sojourn over a whole observation window stays above
//!   target, a standing queue exists — instantaneous spikes don't — and
//!   the shed level escalates. Requests are shed by class, cheapest-kept
//!   first: dynamic work goes at level 1, static
//!   cache misses at level 2, and only a full emergency (level 3) refuses
//!   static cache hits. Administrative endpoints are never shed.
//! * [`RetryBudget`] — a token bucket limiting retries to a fraction of
//!   recent successes, so a retry storm cannot amplify an outage.
//!
//! [`PeerBreakers`] (Closed → Open → HalfOpen per peer) guarded the peer
//! transfer channel, whose successful pulls were their only close signal;
//! the channel is gone, and the live node keeps Dead and Suspect peers out
//! of its candidates through its `LoadTable` alone. The type stays only
//! because the benchmark's layer replay times `PeerBreakers::allow`.
//!
//! Every time-dependent method comes in pairs — `x()` reading the
//! instance's own monotonic clock and `x_at(now_ms)` taking explicit
//! time — so tests are deterministic (the same convention the chaos
//! injector uses).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

use sweb_cluster::NodeId;

/// Admission classes, in the order saturation sheds them. The class is a
/// property of the *request* (what it would cost us), not of the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitClass {
    /// Dynamic (handler/CGI) work: the most CPU per request. Shed first.
    Dynamic,
    /// A static document not resident in the local cache (disk/NFS read).
    StaticMiss,
    /// A static document served straight from RAM — the cheapest work we
    /// do, admitted longest.
    StaticHit,
}

impl AdmitClass {
    /// The lowest shed level at which this class is refused.
    fn shed_at(self) -> u8 {
        match self {
            AdmitClass::Dynamic => 1,
            AdmitClass::StaticMiss => 2,
            AdmitClass::StaticHit => 3,
        }
    }

    /// Lowercase name, as counters and the status API spell it.
    pub fn name(self) -> &'static str {
        match self {
            AdmitClass::Dynamic => "dynamic",
            AdmitClass::StaticMiss => "static_miss",
            AdmitClass::StaticHit => "static_hit",
        }
    }
}

/// Highest shed level: everything non-administrative is refused.
pub const MAX_SHED_LEVEL: u8 = 3;

/// Sojourn target: queueing below this is healthy occupancy, not a
/// standing queue (CoDel's `target`, sized for a LAN server).
pub const SOJOURN_TARGET_US: u64 = 5_000;

/// Observation window (CoDel's `interval`): the minimum sojourn over a
/// whole window must exceed target before the level escalates.
pub const SOJOURN_INTERVAL_MS: u64 = 100;

/// Adaptive admission: tracks worker-queue sojourn time and derives a
/// shed level (0–3) plus a load-derived `Retry-After`.
///
/// CoDel's key idea, transplanted from packet queues to request queues:
/// judge the queue by the *minimum* delay seen over an interval. A burst
/// briefly inflates the maximum while the minimum stays low; only a
/// standing queue keeps even the luckiest request waiting. Each closed
/// window moves the level at most one step, so control is gradual in
/// both directions.
#[derive(Debug)]
pub struct AdmissionController {
    /// Current shed level, 0..=3.
    level: AtomicU8,
    /// When the current observation window opened.
    window_start_ms: AtomicU64,
    /// Minimum sojourn observed in the current window (`u64::MAX` =
    /// nothing observed yet).
    window_min_us: AtomicU64,
    /// Minimum sojourn of the last *closed* window — the evidence the
    /// current level was set on, and what `Retry-After` derives from.
    last_min_us: AtomicU64,
    /// Monotonic epoch for the `_at`-less convenience methods.
    epoch: Instant,
}

impl AdmissionController {
    /// A controller judging sojourns against the 5 ms target over 100 ms
    /// windows, admitting everything until it has evidence.
    pub fn new() -> Self {
        AdmissionController {
            level: AtomicU8::new(0),
            window_start_ms: AtomicU64::new(0),
            window_min_us: AtomicU64::new(u64::MAX),
            last_min_us: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Milliseconds since this controller was created.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Feed one sojourn sample (microseconds a request waited between
    /// arrival/enqueue and the start of service), reading the internal
    /// clock.
    pub fn observe(&self, sojourn_us: u64) {
        self.observe_at(sojourn_us, self.now_ms());
    }

    /// [`AdmissionController::observe`] at an explicit time.
    pub fn observe_at(&self, sojourn_us: u64, now_ms: u64) {
        self.window_min_us.fetch_min(sojourn_us, Ordering::Relaxed);
        let start = self.window_start_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(start) < SOJOURN_INTERVAL_MS {
            return;
        }
        // Close the window: exactly one thread wins the CAS and applies
        // the level transition for this interval.
        if self
            .window_start_ms
            .compare_exchange(start, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let min = self.window_min_us.swap(u64::MAX, Ordering::Relaxed);
        if min == u64::MAX {
            return; // empty window: no evidence either way
        }
        self.last_min_us.store(min, Ordering::Relaxed);
        let level = self.level.load(Ordering::Relaxed);
        if min > SOJOURN_TARGET_US && level < MAX_SHED_LEVEL {
            // Even the luckiest request waited past target all window:
            // a standing queue. Escalate one step.
            self.level.store(level + 1, Ordering::Relaxed);
        } else if min <= SOJOURN_TARGET_US / 2 && level > 0 {
            // Comfortably under target: relax one step.
            self.level.store(level - 1, Ordering::Relaxed);
        }
    }

    /// Current shed level (0 = admit everything).
    pub fn level(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    /// Whether a request of `class` is admitted right now. Counts
    /// nothing: the node counts the refusals it sends, per class.
    pub fn admit(&self, class: AdmitClass) -> bool {
        self.level() < class.shed_at()
    }

    /// Load-derived `Retry-After` seconds: how far past target the last
    /// closed window's minimum sojourn sat, clamped to 1..=8. An idle or
    /// barely-loaded server tells clients to come back in a second; a
    /// deeply backed-up one buys itself up to eight.
    pub fn retry_after_secs(&self) -> u64 {
        let min = self.last_min_us.load(Ordering::Relaxed);
        (min / SOJOURN_TARGET_US).clamp(1, 8)
    }
}

impl Default for AdmissionController {
    fn default() -> Self {
        Self::new()
    }
}

/// One peer's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fail fast until the cool-down elapses.
    Open,
    /// Cool-down elapsed: probes trickle through; one success closes,
    /// one failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Lowercase name, as the status API serializes it.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Parse the lowercase name back (the status JSON round trip).
    pub fn parse(s: &str) -> Option<BreakerState> {
        match s {
            "closed" => Some(BreakerState::Closed),
            "open" => Some(BreakerState::Open),
            "half_open" => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

/// Consecutive failures (or slow successes) that trip a closed breaker.
pub const BREAKER_TRIP_AFTER: u32 = 3;

/// How long an open breaker fails fast before allowing probes.
pub const BREAKER_OPEN_MS: u64 = 1_000;

/// Minimum spacing between half-open probes, so a herd of threads does
/// not all "probe" a struggling peer at once.
pub const BREAKER_PROBE_MS: u64 = 250;

/// A success slower than this counts as failure evidence: a peer that
/// technically answers but takes most of the forward deadline is not a
/// peer worth routing to.
pub const BREAKER_SLOW_US: u64 = 1_000_000;

#[derive(Debug)]
struct Breaker {
    state: AtomicU8,
    /// When an `Open` breaker may start probing.
    open_until_ms: AtomicU64,
    /// Last probe admission time (HalfOpen pacing).
    last_probe_ms: AtomicU64,
    /// Consecutive failure evidence while Closed.
    fail_streak: AtomicU64,
    /// Closed/HalfOpen → Open transitions, ever.
    opens: AtomicU64,
    /// Requests refused fast because the breaker was open.
    fast_fails: AtomicU64,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: AtomicU8::new(STATE_CLOSED),
            open_until_ms: AtomicU64::new(0),
            last_probe_ms: AtomicU64::new(0),
            fail_streak: AtomicU64::new(0),
            opens: AtomicU64::new(0),
            fast_fails: AtomicU64::new(0),
        }
    }

    fn trip(&self, now_ms: u64) {
        self.open_until_ms.store(now_ms + BREAKER_OPEN_MS, Ordering::Relaxed);
        self.fail_streak.store(0, Ordering::Relaxed);
        if self.state.swap(STATE_OPEN, Ordering::Relaxed) != STATE_OPEN {
            self.opens.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-peer circuit breakers for one node's view of its cluster.
///
/// All state is atomic. Nothing in the server or the simulator holds one
/// (see the module docs); the benchmark's layer replay times [`allow`].
///
/// [`allow`]: PeerBreakers::allow
#[derive(Debug)]
pub struct PeerBreakers {
    peers: Vec<Breaker>,
    epoch: Instant,
}

impl PeerBreakers {
    /// Breakers for an `n`-node cluster, all Closed.
    pub fn new(n: usize) -> Self {
        PeerBreakers { peers: (0..n).map(|_| Breaker::new()).collect(), epoch: Instant::now() }
    }

    /// Milliseconds since creation (the internal clock of the `_at`-less
    /// methods).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Number of peers covered.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when no peers are covered.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Whether a request may be sent to `peer` right now (internal clock).
    pub fn allow(&self, peer: NodeId) -> bool {
        self.allow_at(peer, self.now_ms())
    }

    /// [`PeerBreakers::allow`] at an explicit time. `Closed` always
    /// admits; `Open` admits nothing until the cool-down elapses (then
    /// becomes `HalfOpen`); `HalfOpen` admits one probe per
    /// `BREAKER_PROBE_MS`.
    pub fn allow_at(&self, peer: NodeId, now_ms: u64) -> bool {
        let b = &self.peers[peer.index()];
        match b.state.load(Ordering::Relaxed) {
            STATE_CLOSED => true,
            STATE_OPEN => {
                if now_ms >= b.open_until_ms.load(Ordering::Relaxed) {
                    // Cool-down over: move to HalfOpen and admit this
                    // caller as the first probe.
                    if b.state
                        .compare_exchange(
                            STATE_OPEN,
                            STATE_HALF_OPEN,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        b.last_probe_ms.store(now_ms, Ordering::Relaxed);
                        return true;
                    }
                }
                b.fast_fails.fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => {
                // HalfOpen: pace probes.
                let last = b.last_probe_ms.load(Ordering::Relaxed);
                if now_ms.saturating_sub(last) >= BREAKER_PROBE_MS
                    && b.last_probe_ms
                        .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    return true;
                }
                b.fast_fails.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Record a successful exchange with `peer` taking `latency_us`.
    pub fn record_success(&self, peer: NodeId, latency_us: u64) {
        self.record_success_at(peer, latency_us, self.now_ms());
    }

    /// [`PeerBreakers::record_success`] at an explicit time. A *slow*
    /// success (past `BREAKER_SLOW_US`) is failure evidence — the peer
    /// answered, but not at a price worth routing for.
    pub fn record_success_at(&self, peer: NodeId, latency_us: u64, now_ms: u64) {
        if latency_us > BREAKER_SLOW_US {
            self.record_failure_at(peer, now_ms);
            return;
        }
        let b = &self.peers[peer.index()];
        b.fail_streak.store(0, Ordering::Relaxed);
        // A successful HalfOpen probe closes the breaker.
        let _ = b.state.compare_exchange(
            STATE_HALF_OPEN,
            STATE_CLOSED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Record a failed exchange with `peer` (internal clock).
    pub fn record_failure(&self, peer: NodeId) {
        self.record_failure_at(peer, self.now_ms());
    }

    /// [`PeerBreakers::record_failure`] at an explicit time. While
    /// `Closed`, `BREAKER_TRIP_AFTER` consecutive failures trip the
    /// breaker; a `HalfOpen` probe failure re-opens immediately.
    pub fn record_failure_at(&self, peer: NodeId, now_ms: u64) {
        let b = &self.peers[peer.index()];
        match b.state.load(Ordering::Relaxed) {
            STATE_HALF_OPEN => b.trip(now_ms),
            STATE_CLOSED => {
                let streak = b.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= BREAKER_TRIP_AFTER as u64 {
                    b.trip(now_ms);
                }
            }
            _ => {} // already Open: nothing to learn
        }
    }

    /// Force `peer`'s breaker open (loadd declared it `Dead`). The
    /// breaker follows the same cool-down out — a revived peer gets a
    /// probe, not instant full traffic.
    pub fn force_open(&self, peer: NodeId) {
        self.force_open_at(peer, self.now_ms());
    }

    /// [`PeerBreakers::force_open`] at an explicit time.
    pub fn force_open_at(&self, peer: NodeId, now_ms: u64) {
        self.peers[peer.index()].trip(now_ms);
    }

    /// `peer`'s current state.
    pub fn state(&self, peer: NodeId) -> BreakerState {
        match self.peers[peer.index()].state.load(Ordering::Relaxed) {
            STATE_CLOSED => BreakerState::Closed,
            STATE_OPEN => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }

    /// Total Closed/HalfOpen → Open transitions across all peers.
    pub fn opens_total(&self) -> u64 {
        self.peers.iter().map(|b| b.opens.load(Ordering::Relaxed)).sum()
    }

    /// Total requests refused fast by open breakers across all peers.
    pub fn fast_fails_total(&self) -> u64 {
        self.peers.iter().map(|b| b.fast_fails.load(Ordering::Relaxed)).sum()
    }

    /// How many breakers are currently not Closed.
    pub fn open_count(&self) -> usize {
        self.peers
            .iter()
            .filter(|b| b.state.load(Ordering::Relaxed) != STATE_CLOSED)
            .count()
    }
}

/// Tokens are stored in thousandths so success deposits (a fraction of a
/// token) stay integral.
const MILLI: u64 = 1_000;

/// Fraction of a token deposited per success: retries may consume at
/// most ~10% of the success rate, the classic retry-budget ratio.
const DEPOSIT_MILLI: u64 = 100;

/// A token-bucket retry budget: each retry spends a token, each success
/// deposits a tenth of one. When the bucket is empty the caller fails
/// fast instead of retrying — a retry storm against a struggling
/// dependency self-extinguishes instead of amplifying.
#[derive(Debug)]
pub struct RetryBudget {
    /// Milli-tokens available.
    tokens: AtomicU64,
    cap: u64,
    exhausted: AtomicU64,
}

impl RetryBudget {
    /// A budget holding at most `cap` retries, starting full (cold-start
    /// retries are allowed; sustained retrying needs sustained success).
    pub fn new(cap: u64) -> Self {
        let cap = cap.max(1) * MILLI;
        RetryBudget { tokens: AtomicU64::new(cap), cap, exhausted: AtomicU64::new(0) }
    }

    /// Deposit for one success.
    pub fn on_success(&self) {
        let prev = self.tokens.fetch_add(DEPOSIT_MILLI, Ordering::Relaxed);
        if prev + DEPOSIT_MILLI > self.cap {
            // Clamp back to cap; a transient overshoot between the two
            // atomics only ever over-allows a fraction of one retry.
            self.tokens.store(self.cap, Ordering::Relaxed);
        }
    }

    /// Try to spend one retry token. `false` means the budget is
    /// exhausted and the caller must not retry.
    pub fn try_retry(&self) -> bool {
        let mut cur = self.tokens.load(Ordering::Relaxed);
        loop {
            if cur < MILLI {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.tokens.compare_exchange_weak(
                cur,
                cur - MILLI,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whole retries currently available.
    pub fn available(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed) / MILLI
    }

    /// Times a retry was refused for lack of tokens.
    pub fn exhausted_count(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_starts_wide_open() {
        let c = AdmissionController::new();
        for class in [AdmitClass::Dynamic, AdmitClass::StaticMiss, AdmitClass::StaticHit] {
            assert!(c.admit(class), "{} refused at level 0", class.name());
        }
        assert_eq!(c.level(), 0);
        assert_eq!(c.retry_after_secs(), 1, "idle controller asks for the minimum backoff");
    }

    /// Drive a whole window of above-target sojourns through the
    /// controller at explicit times.
    fn saturate_window(c: &AdmissionController, start_ms: u64, sojourn_us: u64) {
        for i in 0..10 {
            c.observe_at(sojourn_us, start_ms + i * 10);
        }
        c.observe_at(sojourn_us, start_ms + SOJOURN_INTERVAL_MS);
    }

    #[test]
    fn standing_queue_escalates_one_level_per_window() {
        let c = AdmissionController::new();
        saturate_window(&c, 0, 20_000);
        assert_eq!(c.level(), 1);
        assert!(!c.admit(AdmitClass::Dynamic), "dynamic shed first");
        assert!(c.admit(AdmitClass::StaticMiss));
        assert!(c.admit(AdmitClass::StaticHit));
        saturate_window(&c, 100, 20_000);
        assert_eq!(c.level(), 2);
        assert!(!c.admit(AdmitClass::StaticMiss));
        assert!(c.admit(AdmitClass::StaticHit), "cache hits admitted longest");
        saturate_window(&c, 200, 20_000);
        assert_eq!(c.level(), 3);
        assert!(!c.admit(AdmitClass::StaticHit));
        // Saturating further cannot exceed the max level.
        saturate_window(&c, 300, 20_000);
        assert_eq!(c.level(), MAX_SHED_LEVEL);
    }

    #[test]
    fn a_burst_does_not_escalate() {
        // One huge sojourn inside a window whose *minimum* stays under
        // target: a burst, not a standing queue.
        let c = AdmissionController::new();
        c.observe_at(500_000, 10);
        c.observe_at(100, 20); // the lucky request got through fast
        c.observe_at(200, SOJOURN_INTERVAL_MS + 1);
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn recovery_de_escalates_gradually() {
        let c = AdmissionController::new();
        saturate_window(&c, 0, 20_000);
        saturate_window(&c, 100, 20_000);
        assert_eq!(c.level(), 2);
        // Sojourns drop comfortably under target: one step back per window.
        saturate_window(&c, 200, 100);
        assert_eq!(c.level(), 1);
        saturate_window(&c, 300, 100);
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        let c = AdmissionController::new();
        saturate_window(&c, 0, 20_000); // 4× target
        assert_eq!(c.retry_after_secs(), 4);
        saturate_window(&c, 100, 100_000); // 20× target, clamped
        assert_eq!(c.retry_after_secs(), 8);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let b = PeerBreakers::new(4);
        let p = NodeId(2);
        assert_eq!(b.state(p), BreakerState::Closed);
        b.record_failure_at(p, 0);
        b.record_failure_at(p, 1);
        assert_eq!(b.state(p), BreakerState::Closed, "two failures are not yet a pattern");
        assert!(b.allow_at(p, 2));
        b.record_failure_at(p, 2);
        assert_eq!(b.state(p), BreakerState::Open);
        assert_eq!(b.opens_total(), 1);
        assert!(!b.allow_at(p, 10), "open breaker fails fast");
        assert!(b.fast_fails_total() >= 1);
        // Other peers are unaffected.
        assert!(b.allow_at(NodeId(0), 10));
    }

    #[test]
    fn success_resets_the_streak() {
        let b = PeerBreakers::new(2);
        let p = NodeId(1);
        b.record_failure_at(p, 0);
        b.record_failure_at(p, 1);
        b.record_success_at(p, 1_000, 2);
        b.record_failure_at(p, 3);
        b.record_failure_at(p, 4);
        assert_eq!(b.state(p), BreakerState::Closed, "streak must reset on success");
    }

    #[test]
    fn slow_successes_are_failure_evidence() {
        let b = PeerBreakers::new(2);
        let p = NodeId(1);
        for t in 0..3 {
            b.record_success_at(p, BREAKER_SLOW_US + 1, t);
        }
        assert_eq!(b.state(p), BreakerState::Open, "a peer that only answers slowly is tripped");
    }

    #[test]
    fn open_cools_down_to_half_open_probe_then_closes_on_success() {
        let b = PeerBreakers::new(2);
        let p = NodeId(0);
        b.force_open_at(p, 0);
        assert!(!b.allow_at(p, 10));
        // Cool-down elapsed: exactly one caller becomes the probe.
        assert!(b.allow_at(p, BREAKER_OPEN_MS + 1));
        assert_eq!(b.state(p), BreakerState::HalfOpen);
        assert!(!b.allow_at(p, BREAKER_OPEN_MS + 2), "probes are paced");
        b.record_success_at(p, 500, BREAKER_OPEN_MS + 50);
        assert_eq!(b.state(p), BreakerState::Closed);
        assert!(b.allow_at(p, BREAKER_OPEN_MS + 60));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = PeerBreakers::new(2);
        let p = NodeId(0);
        b.force_open_at(p, 0);
        assert!(b.allow_at(p, BREAKER_OPEN_MS + 1));
        b.record_failure_at(p, BREAKER_OPEN_MS + 2);
        assert_eq!(b.state(p), BreakerState::Open);
        assert_eq!(b.opens_total(), 2);
        assert!(!b.allow_at(p, BREAKER_OPEN_MS + 10));
    }

    #[test]
    fn open_count_tracks_non_closed_breakers() {
        let b = PeerBreakers::new(4);
        assert_eq!(b.open_count(), 0);
        b.force_open_at(NodeId(1), 0);
        b.force_open_at(NodeId(3), 0);
        assert_eq!(b.open_count(), 2);
    }

    #[test]
    fn breaker_state_names_round_trip() {
        for s in [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen] {
            assert_eq!(BreakerState::parse(s.name()), Some(s));
        }
        assert_eq!(BreakerState::parse("bogus"), None);
    }

    #[test]
    fn retry_budget_spends_and_refills() {
        let rb = RetryBudget::new(2);
        assert_eq!(rb.available(), 2);
        assert!(rb.try_retry());
        assert!(rb.try_retry());
        assert!(!rb.try_retry(), "empty bucket refuses");
        assert_eq!(rb.exhausted_count(), 1);
        // Ten successes buy back one retry.
        for _ in 0..10 {
            rb.on_success();
        }
        assert_eq!(rb.available(), 1);
        assert!(rb.try_retry());
        assert!(!rb.try_retry());
    }

    #[test]
    fn retry_budget_caps_at_capacity() {
        let rb = RetryBudget::new(1);
        for _ in 0..100 {
            rb.on_success();
        }
        assert_eq!(rb.available(), 1, "deposits must not grow the bucket past cap");
    }
}
