//! The runtime half: deterministic point queries against a [`FaultPlan`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::plan::{Fault, FaultPlan};

/// What to do with one outgoing loadd packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxVerdict {
    /// Send it now.
    Deliver,
    /// Silently drop it.
    Drop,
    /// Deliver it after this much added latency.
    Delay(Duration),
}

/// A time-scripted lifecycle operation the cluster driver executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedOp {
    /// Hard-kill the node (no drain, no leaving packet).
    Crash {
        /// Victim node.
        node: u32,
        /// Milliseconds from cluster start.
        at_ms: u64,
    },
    /// Restart the node on its original address.
    Revive {
        /// Node to bring back.
        node: u32,
        /// Milliseconds from cluster start.
        at_ms: u64,
    },
}

impl ScriptedOp {
    /// When the op is due, in milliseconds from cluster start.
    pub fn at_ms(&self) -> u64 {
        match self {
            ScriptedOp::Crash { at_ms, .. } | ScriptedOp::Revive { at_ms, .. } => *at_ms,
        }
    }
}

/// Counters for faults actually injected (not merely configured), so
/// `/sweb-status` can report what the harness really did to a node.
#[derive(Debug, Default)]
pub struct FaultCounts {
    /// loadd packets dropped (loss or partition).
    pub packets_dropped: AtomicU64,
    /// loadd packets delayed.
    pub packets_delayed: AtomicU64,
    /// Accept-loop polls answered "paused".
    pub accepts_paused: AtomicU64,
    /// Connections failed with synthetic fd exhaustion.
    pub fd_rejections: AtomicU64,
    /// File reads slowed by injected disk latency.
    pub slow_reads: AtomicU64,
    /// Sojourn samples inflated by a synthetic overload fault.
    pub overload_samples: AtomicU64,
    /// Requests slowed by an injected brownout.
    pub brownout_delays: AtomicU64,
}

impl FaultCounts {
    /// Every counter with its kind, in declaration order: the labels the
    /// node's `/metrics` exposes them under.
    pub fn each(&self) -> [(&'static str, &AtomicU64); 7] {
        [
            ("packets_dropped", &self.packets_dropped),
            ("packets_delayed", &self.packets_delayed),
            ("accepts_paused", &self.accepts_paused),
            ("fd_rejections", &self.fd_rejections),
            ("slow_reads", &self.slow_reads),
            ("overload_samples", &self.overload_samples),
            ("brownout_delays", &self.brownout_delays),
        ]
    }
}

/// splitmix64: a tiny, high-quality mixer — the verdict for packet `seq`
/// on pair `(from, to)` is a pure function of the plan seed, so replays
/// are byte-for-byte identical.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic fault oracle for one cluster run.
///
/// Built from a [`FaultPlan`] and armed with the cluster's start
/// [`Instant`]; every query is answered from the plan plus wall-clock
/// offset. A disabled injector (no plan) answers every query with "no
/// fault" and is safe to leave on production hot paths.
#[derive(Debug)]
pub struct Injector {
    seed: u64,
    faults: Vec<Fault>,
    script: Vec<ScriptedOp>,
    start: Mutex<Option<Instant>>,
    /// Per-(from, to) packet sequence numbers for loss decisions.
    seq: Mutex<std::collections::HashMap<(u32, u32), u64>>,
    counts: FaultCounts,
    active: bool,
}

impl Default for Injector {
    fn default() -> Injector {
        Injector::disabled()
    }
}

impl Injector {
    /// An injector that never injects anything.
    pub fn disabled() -> Injector {
        Injector::from_plan(&FaultPlan::default())
    }

    /// Build the runtime tables from a plan. Crash/Revive faults become
    /// the [scripted ops](Injector::scripted_ops), sorted by due time.
    pub fn from_plan(plan: &FaultPlan) -> Injector {
        let mut script = Vec::new();
        let mut faults = Vec::new();
        for f in &plan.faults {
            match *f {
                Fault::Crash { node, at_ms } => script.push(ScriptedOp::Crash { node, at_ms }),
                Fault::Revive { node, at_ms } => script.push(ScriptedOp::Revive { node, at_ms }),
                other => faults.push(other),
            }
        }
        script.sort_by_key(|op| op.at_ms());
        let active = !faults.is_empty() || !script.is_empty();
        Injector {
            seed: plan.seed,
            faults,
            script,
            start: Mutex::new(None),
            seq: Mutex::new(std::collections::HashMap::new()),
            counts: FaultCounts::default(),
            active,
        }
    }

    /// Whether the plan contains any fault at all. When false, every
    /// query short-circuits.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Fix the run's time origin. Idempotent: only the first call wins,
    /// so every node thread can arm on startup without coordination.
    pub fn arm(&self, start: Instant) {
        let mut s = self.start.lock().expect("injector start lock");
        if s.is_none() {
            *s = Some(start);
        }
    }

    /// Milliseconds since [`arm`](Injector::arm); 0 if never armed.
    pub fn now_ms(&self) -> u64 {
        self.start
            .lock()
            .expect("injector start lock")
            .map(|s| s.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }

    /// Cumulative injected-fault counters.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Scripted crash/revive ops, sorted by due time.
    pub fn scripted_ops(&self) -> &[ScriptedOp] {
        &self.script
    }

    /// Verdict for a loadd packet `from → to` right now.
    pub fn loadd_tx(&self, from: u32, to: u32) -> TxVerdict {
        if !self.active {
            return TxVerdict::Deliver;
        }
        let now = self.now_ms();
        self.loadd_tx_at(from, to, now)
    }

    /// Verdict for a loadd packet `from → to` at a given run offset.
    /// Pure except for the per-pair sequence counter; exposed separately
    /// so tests can drive simulated clocks.
    pub fn loadd_tx_at(&self, from: u32, to: u32, now_ms: u64) -> TxVerdict {
        if !self.active {
            return TxVerdict::Deliver;
        }
        let seq = {
            let mut map = self.seq.lock().expect("injector seq lock");
            let c = map.entry((from, to)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let mut delay = Duration::ZERO;
        for f in &self.faults {
            match *f {
                Fault::Partition { a, b, window }
                    if window.contains(now_ms)
                        && ((from, to) == (a, b) || (from, to) == (b, a)) =>
                {
                    self.counts.packets_dropped.fetch_add(1, Ordering::Relaxed);
                    return TxVerdict::Drop;
                }
                Fault::LoaddLoss { from: f0, to: t0, rate_ppm, window }
                    if window.contains(now_ms) && (f0, t0) == (from, to) =>
                {
                    let h = splitmix64(
                        self.seed
                            ^ ((from as u64) << 40)
                            ^ ((to as u64) << 20)
                            ^ seq,
                    );
                    if h % 1_000_000 < rate_ppm as u64 {
                        self.counts.packets_dropped.fetch_add(1, Ordering::Relaxed);
                        return TxVerdict::Drop;
                    }
                }
                Fault::LoaddDelay { from: f0, to: t0, delay_ms, window }
                    if window.contains(now_ms) && (f0, t0) == (from, to) =>
                {
                    delay = delay.max(Duration::from_millis(delay_ms));
                }
                _ => {}
            }
        }
        if delay > Duration::ZERO {
            self.counts.packets_delayed.fetch_add(1, Ordering::Relaxed);
            TxVerdict::Delay(delay)
        } else {
            TxVerdict::Deliver
        }
    }

    /// Whether `node`'s accept loop should hold off right now.
    pub fn accept_paused(&self, node: u32) -> bool {
        self.active && self.accept_paused_at(node, self.now_ms())
    }

    /// Pause query at an explicit run offset.
    pub fn accept_paused_at(&self, node: u32, now_ms: u64) -> bool {
        let hit = self.faults.iter().any(|f| {
            matches!(*f, Fault::Pause { node: n, window } if n == node && window.contains(now_ms))
        });
        if hit {
            self.counts.accepts_paused.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Whether `node` should fail this freshly accepted connection as if
    /// the process were out of file descriptors.
    pub fn fd_pressure(&self, node: u32) -> bool {
        self.active && self.fd_pressure_at(node, self.now_ms())
    }

    /// fd-pressure query at an explicit run offset.
    pub fn fd_pressure_at(&self, node: u32, now_ms: u64) -> bool {
        let hit = self.faults.iter().any(|f| {
            matches!(*f, Fault::FdPressure { node: n, window }
                if n == node && window.contains(now_ms))
        });
        if hit {
            self.counts.fd_rejections.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Artificial latency to add to a file read on `node` right now.
    pub fn disk_delay(&self, node: u32) -> Option<Duration> {
        if !self.active {
            return None;
        }
        self.disk_delay_at(node, self.now_ms())
    }

    /// Slow-disk query at an explicit run offset.
    pub fn disk_delay_at(&self, node: u32, now_ms: u64) -> Option<Duration> {
        let mut extra = Duration::ZERO;
        for f in &self.faults {
            if let Fault::SlowDisk { node: n, extra_ms, window } = *f {
                if n == node && window.contains(now_ms) {
                    extra = extra.max(Duration::from_millis(extra_ms));
                }
            }
        }
        if extra > Duration::ZERO {
            self.counts.slow_reads.fetch_add(1, Ordering::Relaxed);
            Some(extra)
        } else {
            None
        }
    }

    /// Microseconds of synthetic queueing to add to `node`'s sojourn
    /// samples right now (the overload fault shape).
    pub fn overload_sojourn(&self, node: u32) -> Option<u64> {
        if !self.active {
            return None;
        }
        self.overload_sojourn_at(node, self.now_ms())
    }

    /// Overload query at an explicit run offset.
    pub fn overload_sojourn_at(&self, node: u32, now_ms: u64) -> Option<u64> {
        let mut extra = 0u64;
        for f in &self.faults {
            if let Fault::Overload { node: n, sojourn_us, window } = *f {
                if n == node && window.contains(now_ms) {
                    extra = extra.max(sojourn_us);
                }
            }
        }
        if extra > 0 {
            self.counts.overload_samples.fetch_add(1, Ordering::Relaxed);
            Some(extra)
        } else {
            None
        }
    }

    /// Artificial latency every request on `node` pays right now (the
    /// brownout fault shape: the whole node degraded, not just disk).
    pub fn brownout_delay(&self, node: u32) -> Option<Duration> {
        if !self.active {
            return None;
        }
        self.brownout_delay_at(node, self.now_ms())
    }

    /// Brownout query at an explicit run offset.
    pub fn brownout_delay_at(&self, node: u32, now_ms: u64) -> Option<Duration> {
        let mut extra = Duration::ZERO;
        for f in &self.faults {
            if let Fault::Brownout { node: n, delay_ms, window } = *f {
                if n == node && window.contains(now_ms) {
                    extra = extra.max(Duration::from_millis(delay_ms));
                }
            }
        }
        if extra > Duration::ZERO {
            self.counts.brownout_delays.fetch_add(1, Ordering::Relaxed);
            Some(extra)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultPlan, Window};

    fn count(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn disabled_injector_never_injects() {
        let inj = Injector::disabled();
        assert!(!inj.is_active());
        assert_eq!(inj.loadd_tx_at(0, 1, 500), TxVerdict::Deliver);
        assert!(!inj.accept_paused_at(0, 500));
        assert!(!inj.fd_pressure_at(0, 500));
        assert_eq!(inj.disk_delay_at(0, 500), None);
        assert!(inj.counts().each().iter().all(|(_, c)| count(c) == 0));
    }

    #[test]
    fn partition_drops_both_directions_inside_window() {
        let plan = FaultPlan::seeded(1)
            .with(Fault::Partition { a: 0, b: 2, window: Window::between(100, 200) });
        let inj = Injector::from_plan(&plan);
        assert_eq!(inj.loadd_tx_at(0, 2, 150), TxVerdict::Drop);
        assert_eq!(inj.loadd_tx_at(2, 0, 150), TxVerdict::Drop);
        assert_eq!(inj.loadd_tx_at(0, 1, 150), TxVerdict::Deliver, "uninvolved pair unaffected");
        assert_eq!(inj.loadd_tx_at(0, 2, 250), TxVerdict::Deliver, "window over");
        assert_eq!(count(&inj.counts().packets_dropped), 2);
    }

    #[test]
    fn loss_is_deterministic_and_rate_shaped() {
        let plan = FaultPlan::seeded(42).with(Fault::LoaddLoss {
            from: 0,
            to: 1,
            rate_ppm: 500_000,
            window: Window::ALWAYS,
        });
        let a = Injector::from_plan(&plan);
        let b = Injector::from_plan(&plan);
        let run = |inj: &Injector| -> Vec<TxVerdict> {
            (0..1000).map(|_| inj.loadd_tx_at(0, 1, 10)).collect()
        };
        let va = run(&a);
        assert_eq!(va, run(&b), "same plan must give the same verdict stream");
        let dropped = va.iter().filter(|v| **v == TxVerdict::Drop).count();
        assert!(
            (300..700).contains(&dropped),
            "50% loss should drop roughly half of 1000 packets, got {dropped}"
        );
        // A different seed gives a different stream.
        let c = Injector::from_plan(&FaultPlan { seed: 43, ..plan.clone() });
        assert_ne!(va, run(&c), "different seed should reshuffle verdicts");
    }

    #[test]
    fn full_loss_drops_everything_and_delay_composes() {
        let plan = FaultPlan::seeded(9)
            .with(Fault::LoaddLoss { from: 1, to: 0, rate_ppm: 1_000_000, window: Window::ALWAYS })
            .with(Fault::LoaddDelay { from: 2, to: 0, delay_ms: 30, window: Window::ALWAYS });
        let inj = Injector::from_plan(&plan);
        for _ in 0..50 {
            assert_eq!(inj.loadd_tx_at(1, 0, 5), TxVerdict::Drop);
        }
        assert_eq!(inj.loadd_tx_at(2, 0, 5), TxVerdict::Delay(Duration::from_millis(30)));
        assert_eq!(count(&inj.counts().packets_delayed), 1);
    }

    #[test]
    fn scripted_ops_sorted_by_due_time() {
        let plan = FaultPlan::seeded(0)
            .with(Fault::Revive { node: 1, at_ms: 900 })
            .with(Fault::Crash { node: 1, at_ms: 300 });
        let inj = Injector::from_plan(&plan);
        assert_eq!(
            inj.scripted_ops(),
            &[ScriptedOp::Crash { node: 1, at_ms: 300 }, ScriptedOp::Revive { node: 1, at_ms: 900 }]
        );
        assert!(inj.is_active());
    }

    #[test]
    fn node_local_faults_respect_node_and_window() {
        let plan = FaultPlan::seeded(0)
            .with(Fault::Pause { node: 1, window: Window::between(10, 20) })
            .with(Fault::SlowDisk { node: 0, extra_ms: 25, window: Window::between(0, 100) })
            .with(Fault::FdPressure { node: 2, window: Window::ALWAYS });
        let inj = Injector::from_plan(&plan);
        assert!(inj.accept_paused_at(1, 15));
        assert!(!inj.accept_paused_at(1, 25));
        assert!(!inj.accept_paused_at(0, 15));
        assert_eq!(inj.disk_delay_at(0, 50), Some(Duration::from_millis(25)));
        assert_eq!(inj.disk_delay_at(0, 150), None);
        assert_eq!(inj.disk_delay_at(1, 50), None);
        assert!(inj.fd_pressure_at(2, 1_000_000));
        assert!(!inj.fd_pressure_at(0, 1_000_000));
        let c = inj.counts();
        assert_eq!(
            (count(&c.accepts_paused), count(&c.slow_reads), count(&c.fd_rejections)),
            (1, 1, 1)
        );
    }

    #[test]
    fn overload_inflates_sojourns_only_inside_window() {
        let plan = FaultPlan::seeded(3)
            .with(Fault::Overload { node: 1, sojourn_us: 30_000, window: Window::between(100, 500) })
            .with(Fault::Overload { node: 1, sojourn_us: 80_000, window: Window::between(200, 300) });
        let inj = Injector::from_plan(&plan);
        assert_eq!(inj.overload_sojourn_at(1, 150), Some(30_000));
        assert_eq!(inj.overload_sojourn_at(1, 250), Some(80_000), "overlapping faults take the max");
        assert_eq!(inj.overload_sojourn_at(1, 600), None, "window over");
        assert_eq!(inj.overload_sojourn_at(0, 150), None, "other node unaffected");
        assert_eq!(count(&inj.counts().overload_samples), 2);
    }

    #[test]
    fn brownout_slows_every_request_on_the_node() {
        let plan = FaultPlan::seeded(4)
            .with(Fault::Brownout { node: 0, delay_ms: 15, window: Window::between(0, 800) });
        let inj = Injector::from_plan(&plan);
        assert_eq!(inj.brownout_delay_at(0, 400), Some(Duration::from_millis(15)));
        assert_eq!(inj.brownout_delay_at(0, 900), None, "window over");
        assert_eq!(inj.brownout_delay_at(2, 400), None, "other node unaffected");
        assert_eq!(count(&inj.counts().brownout_delays), 1);
        assert_eq!(count(&inj.counts().slow_reads), 0, "brownout must not count as slow-disk");
    }

    #[test]
    fn arm_is_idempotent() {
        let inj = Injector::from_plan(&FaultPlan::seeded(1).with(Fault::Crash { node: 0, at_ms: 1 }));
        let t0 = Instant::now();
        inj.arm(t0);
        inj.arm(t0 + Duration::from_secs(100));
        assert!(inj.now_ms() < 10_000, "second arm must not move the origin");
    }
}
