//! A hashed timer wheel with lazy re-arming.
//!
//! Deadlines are bucketed into `tick_ms` slots over a fixed ring, and
//! the wheel's memory is made only of connections that *waited*. Each
//! connection keeps an `EvictClock` whose deadline moves freely and
//! reaches the wheel only once the connection is armed: the first time a
//! read or write would block, or a worker takes its request. A
//! connection answered in the loop call that accepted it never schedules
//! anything. Once armed, a deadline that only moves *later* (the usual
//! case: the next phase of a request, the next keep-alive request)
//! schedules nothing, and the one entry already
//! pending re-schedules itself at the current deadline when it fires.
//! Only a deadline that moves *earlier* than the pending entry (the
//! slowloris parse clock) pushes a new one.
//!
//! An armed connection has one entry in the wheel, and it leaves with
//! the connection: closing a connection, or replacing its entry with an
//! earlier one, [`TimerWheel::cancel`]s the entry, found in the slot its
//! deadline names. Were entries left to their deadlines instead, every
//! connection that ever waited would stay in the wheel for a read
//! timeout after closing, rescanned every revolution, and a loop with
//! any such entry would keep ticking instead of sleeping. An entry `cancel`
//! cannot find (its deadline had passed when it was scheduled, so it
//! sits in the next tick's slot) fires on the next advance instead;
//! expired entries are validated against the connection's generation
//! and clock before acting.

/// One scheduled expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// Slab index of the connection.
    pub token: usize,
    /// Slab generation the entry was scheduled for.
    pub gen: u64,
    /// Absolute deadline in reactor-clock milliseconds.
    pub deadline_ms: u64,
}

/// One connection's eviction clock: its current deadline, and the
/// deadline of the wheel entry that will wake it (`None` until
/// [`EvictClock::arm`]). Invariant once armed: `timer_ms <=
/// deadline_ms`, so the pending entry never fires late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EvictClock {
    deadline_ms: u64,
    timer_ms: Option<u64>,
}

/// What a fired wheel entry means for the connection it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fired {
    /// Superseded by an earlier entry: ignore.
    Stale,
    /// The deadline moved later since the entry was scheduled: schedule
    /// a new entry at this deadline.
    Rearm(u64),
    /// The deadline has passed: evict.
    Evict,
}

impl EvictClock {
    /// An unarmed clock at `deadline_ms`: nothing is in the wheel yet.
    pub(crate) fn new(deadline_ms: u64) -> EvictClock {
        EvictClock { deadline_ms, timer_ms: None }
    }

    /// The current eviction deadline.
    pub(crate) fn deadline_ms(&self) -> u64 {
        self.deadline_ms
    }

    /// The deadline of the clock's entry in the wheel; `None` until armed.
    pub(crate) fn pending(&self) -> Option<u64> {
        self.timer_ms
    }

    /// Start enforcing the deadline. Returns the deadline of the clock's
    /// first wheel entry; `None` if it was already armed.
    #[must_use]
    pub(crate) fn arm(&mut self) -> Option<u64> {
        if self.timer_ms.is_some() {
            return None;
        }
        self.timer_ms = Some(self.deadline_ms);
        self.timer_ms
    }

    /// Move the deadline. Returns the deadline to schedule a wheel entry
    /// for, which is only needed when the clock is armed and the
    /// deadline moved earlier than the entry already pending.
    #[must_use]
    pub(crate) fn set(&mut self, deadline_ms: u64) -> Option<u64> {
        self.deadline_ms = deadline_ms;
        match self.timer_ms {
            Some(timer_ms) if deadline_ms < timer_ms => {
                self.timer_ms = Some(deadline_ms);
                self.timer_ms
            }
            _ => None,
        }
    }

    /// The wheel entry scheduled for `entry_ms` fired at `now_ms`.
    pub(crate) fn fired(&mut self, entry_ms: u64, now_ms: u64) -> Fired {
        if self.timer_ms != Some(entry_ms) {
            Fired::Stale
        } else if self.deadline_ms <= now_ms {
            Fired::Evict
        } else {
            self.timer_ms = Some(self.deadline_ms);
            Fired::Rearm(self.deadline_ms)
        }
    }
}

/// The wheel.
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    tick_ms: u64,
    /// Last tick fully drained by `advance`.
    last_tick: u64,
    /// Live (possibly stale) entries, to size drains.
    pending: usize,
}

impl TimerWheel {
    /// A wheel of `num_slots` buckets of `tick_ms` each. The ring spans
    /// `num_slots * tick_ms` milliseconds; deadlines beyond that are
    /// handled correctly (entries further than one revolution away are
    /// re-queued when their slot drains early).
    pub fn new(num_slots: usize, tick_ms: u64) -> TimerWheel {
        assert!(num_slots > 1 && tick_ms > 0);
        TimerWheel {
            slots: (0..num_slots).map(|_| Vec::new()).collect(),
            tick_ms,
            last_tick: 0,
            pending: 0,
        }
    }

    /// Milliseconds per tick.
    pub fn tick_ms(&self) -> u64 {
        self.tick_ms
    }

    /// Entries currently queued (including stale ones awaiting drain).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedule an expiry. Deadlines at or before the current tick fire
    /// on the next `advance`.
    ///
    /// The slot is the first tick boundary *at or after* the deadline
    /// (ceiling, not floor): `advance` visits each slot exactly once per
    /// revolution, so an entry filed under the floor tick could be
    /// inspected a few milliseconds *before* its deadline, kept, and
    /// then not seen again for a full revolution — a 10 ms timeout
    /// firing seconds late.
    pub fn schedule(&mut self, entry: TimerEntry) {
        let tick = entry.deadline_ms.div_ceil(self.tick_ms).max(self.last_tick + 1);
        let slot = (tick as usize) % self.slots.len();
        self.slots[slot].push(entry);
        self.pending += 1;
    }

    /// Remove a scheduled entry before it fires, from the slot its
    /// deadline names. Returns whether it was there: an entry scheduled
    /// with its deadline already past sits in another slot, and fires
    /// (to be found stale) on the next [`TimerWheel::advance`] instead.
    pub fn cancel(&mut self, entry: TimerEntry) -> bool {
        let slot = (entry.deadline_ms.div_ceil(self.tick_ms) as usize) % self.slots.len();
        let bucket = &mut self.slots[slot];
        let Some(i) = bucket.iter().position(|e| *e == entry) else { return false };
        bucket.swap_remove(i);
        self.pending -= 1;
        true
    }

    /// Advance the wheel to `now_ms`, appending every entry whose
    /// deadline has passed to `expired`. Entries in visited slots whose
    /// deadline is still in the future (a later revolution) are kept.
    pub fn advance(&mut self, now_ms: u64, expired: &mut Vec<TimerEntry>) {
        let now_tick = now_ms / self.tick_ms;
        if now_tick <= self.last_tick {
            return;
        }
        let n = self.slots.len() as u64;
        // Visit each slot at most once per advance, even if we fell far
        // behind (each slot holds every residue class of its index).
        let span = (now_tick - self.last_tick).min(n);
        for t in self.last_tick + 1..=self.last_tick + span {
            let slot = (t as usize) % self.slots.len();
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline_ms <= now_ms {
                    let e = bucket.swap_remove(i);
                    self.pending -= 1;
                    expired.push(e);
                } else {
                    i += 1;
                }
            }
        }
        self.last_tick = now_tick;
    }

    /// Milliseconds until the next tick boundary after `now_ms` — the
    /// natural poll timeout when no I/O is pending.
    pub fn ms_to_next_tick(&self, now_ms: u64) -> u64 {
        self.tick_ms - (now_ms % self.tick_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expired_at(wheel: &mut TimerWheel, now: u64) -> Vec<TimerEntry> {
        let mut out = Vec::new();
        wheel.advance(now, &mut out);
        out
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerWheel::new(16, 10);
        w.schedule(TimerEntry { token: 1, gen: 0, deadline_ms: 55 });
        assert!(expired_at(&mut w, 40).is_empty());
        let fired = expired_at(&mut w, 60);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 1);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn deadline_beyond_one_revolution_waits() {
        let mut w = TimerWheel::new(8, 10); // ring spans 80 ms
        w.schedule(TimerEntry { token: 3, gen: 0, deadline_ms: 250 });
        // Sweep several revolutions below the deadline: nothing fires.
        for now in (10..250).step_by(10) {
            assert!(expired_at(&mut w, now).is_empty(), "premature fire at {now}");
        }
        assert_eq!(expired_at(&mut w, 250).len(), 1);
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut w = TimerWheel::new(8, 10);
        expired_at(&mut w, 100); // move time forward
        w.schedule(TimerEntry { token: 9, gen: 2, deadline_ms: 30 }); // already past
        let fired = expired_at(&mut w, 110);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].gen, 2);
    }

    #[test]
    fn big_jump_drains_every_slot_once() {
        let mut w = TimerWheel::new(4, 10);
        for t in 0..12 {
            w.schedule(TimerEntry { token: t, gen: 0, deadline_ms: 10 + (t as u64) * 7 });
        }
        // Jump far past everything in one advance.
        let fired = expired_at(&mut w, 10_000);
        assert_eq!(fired.len(), 12);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn mid_tick_deadline_fires_next_boundary_not_next_revolution() {
        // deadline 55 lands mid-tick. An advance that reaches tick 5
        // (now=50..54) must NOT consume-and-drop the slot with the
        // entry unexpired; the very next boundary (now=60) fires it.
        let mut w = TimerWheel::new(8, 10); // ring spans 80 ms
        w.schedule(TimerEntry { token: 7, gen: 0, deadline_ms: 55 });
        assert!(expired_at(&mut w, 52).is_empty(), "fired before the deadline");
        let fired = expired_at(&mut w, 61);
        assert_eq!(fired.len(), 1, "entry missed its slot: would fire a revolution late");
        assert_eq!(fired[0].token, 7);
    }

    /// Drive one connection's clock against a real wheel through
    /// `moves` (`(at_ms, new deadline)`), arming it at `arm_at_ms`
    /// (`None`: the connection never waits) and scheduling every entry
    /// the clock asks for. Returns (entries pushed by arming and by
    /// deadline moves, entries pushed by re-arming, eviction time).
    fn run_clock(
        mut clock: EvictClock,
        arm_at_ms: Option<u64>,
        moves: &[(u64, u64)],
    ) -> (usize, usize, Option<u64>) {
        let mut w = TimerWheel::new(64, 10);
        let entry = |deadline_ms| TimerEntry { token: 0, gen: 0, deadline_ms };
        let (mut pushes, mut rearms) = (0, 0);
        let mut moves = moves.iter().peekable();
        for now in (0..=5000).step_by(10) {
            while let Some(&(_, deadline)) = moves.next_if(|&&(at, _)| at <= now) {
                if let Some(d) = clock.set(deadline) {
                    w.schedule(entry(d));
                    pushes += 1;
                }
            }
            if arm_at_ms.is_some_and(|at| at <= now) {
                if let Some(d) = clock.arm() {
                    w.schedule(entry(d));
                    pushes += 1;
                }
            }
            for e in expired_at(&mut w, now) {
                match clock.fired(e.deadline_ms, now) {
                    Fired::Stale => {}
                    Fired::Rearm(d) => {
                        w.schedule(entry(d));
                        rearms += 1;
                    }
                    Fired::Evict => return (pushes, rearms, Some(now)),
                }
            }
            assert!(w.pending() <= 2, "a connection holds at most its entry and a superseded one");
        }
        (pushes, rearms, None)
    }

    #[test]
    fn a_connection_that_never_waits_never_reaches_the_wheel() {
        // Accepted at 0 and answered inside the same loop call: parse,
        // dispatch and the write all move the deadline, but nothing ever
        // blocked, so the clock was never armed and the wheel stays
        // empty after the connection is gone.
        let moves = [(0, 250), (0, 1000), (0, 1000)];
        assert_eq!(run_clock(EvictClock::new(1000), None, &moves), (0, 0, None));
    }

    #[test]
    fn arming_schedules_the_deadline_current_at_that_moment() {
        // The first read left the head incomplete (parse deadline 250)
        // and the next one would block at 10 ms: the one entry goes in
        // then, at 250, and evicts on time.
        let (pushes, rearms, evicted) = run_clock(EvictClock::new(1000), Some(10), &[(0, 250)]);
        assert_eq!((pushes, rearms, evicted), (1, 0, Some(250)));
    }

    #[test]
    fn a_request_that_completes_in_its_first_read_pushes_once() {
        // Armed at 0 with a 1 s idle deadline; the request arrives
        // whole at 100 ms, so dispatch, the write and three keep-alive
        // rounds only ever move the deadline later: the arming entry is
        // the only push (four per request before lazy re-arming). The
        // entry re-arms when it fires — at 1,000 ms for 1,510, then for
        // 2,300: once per timeout period, not per request — and the idle
        // connection is evicted one read timeout after its last
        // response, as before.
        let moves = [(100, 1100), (100, 1100), (110, 1110), (500, 1500), (510, 1510), (1300, 2300)];
        let (pushes, rearms, evicted) = run_clock(EvictClock::new(1000), Some(0), &moves);
        assert_eq!(pushes, 1, "deadlines that only move later must not reach the wheel");
        assert_eq!(rearms, 2);
        assert_eq!(evicted, Some(2300));
    }

    #[test]
    fn a_deadline_that_moves_earlier_pushes_and_still_evicts_on_time() {
        // The slowloris case: the first byte at 100 ms arms a 250 ms
        // parse deadline under the 1 s idle one. That is the one extra
        // push, and eviction lands on the parse deadline's tick.
        let (pushes, rearms, evicted) = run_clock(EvictClock::new(1000), Some(0), &[(100, 350)]);
        assert_eq!((pushes, rearms), (2, 0));
        assert_eq!(evicted, Some(350));
        // If the head then completes at 200 ms the deadline moves back
        // out without a push; the 350 ms entry re-arms itself and the
        // superseded 1,000 ms entry is ignored when it fires.
        let (pushes, rearms, evicted) =
            run_clock(EvictClock::new(1000), Some(0), &[(100, 350), (200, 1200)]);
        assert_eq!((pushes, rearms), (2, 1));
        assert_eq!(evicted, Some(1200));
    }

    #[test]
    fn cancel_removes_the_entry_its_deadline_names() {
        let mut w = TimerWheel::new(8, 10);
        let a = TimerEntry { token: 1, gen: 0, deadline_ms: 55 };
        // Same slot one revolution later, and a recycled token.
        let b = TimerEntry { token: 1, gen: 0, deadline_ms: 135 };
        let c = TimerEntry { token: 1, gen: 1, deadline_ms: 55 };
        for e in [a, b, c] {
            w.schedule(e);
        }
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "cancelled twice");
        assert_eq!(w.pending(), 2);
        assert_eq!(expired_at(&mut w, 60), vec![c]);
        assert!(w.cancel(b));
        assert_eq!(w.pending(), 0);
        assert!(expired_at(&mut w, 1000).is_empty());
        // A deadline already past is filed under the next tick, where
        // cancel does not look: it fires, and the owner finds it stale.
        let late = TimerEntry { token: 2, gen: 0, deadline_ms: 500 };
        w.schedule(late);
        assert!(!w.cancel(late));
        assert_eq!(expired_at(&mut w, 1010), vec![late]);
    }

    #[test]
    fn next_tick_timeout_is_bounded() {
        let w = TimerWheel::new(16, 25);
        for now in [0, 1, 24, 25, 26, 99] {
            let ms = w.ms_to_next_tick(now);
            assert!((1..=25).contains(&ms), "timeout {ms} at now={now}");
        }
    }
}
