//! The event-driven executor.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::time::SimTime;

/// A scheduled continuation: runs with exclusive access to the user context
/// and the simulator (so handlers can schedule further events).
pub type Thunk<C> = Box<dyn FnOnce(&mut C, &mut Sim<C>)>;

/// Identifier of a scheduled event, usable with [`Sim::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// Heap key: min-ordered by `(time, seq)` so equal-time events fire FIFO.
#[derive(PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event simulator over a user context `C`.
///
/// The context holds all model state (nodes, resources, metrics); the
/// simulator holds only the clock and the pending-event queue. Event
/// handlers receive `&mut C` and `&mut Sim<C>` as separate arguments, which
/// sidesteps any self-borrow knots.
pub struct Sim<C> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Key>,
    thunks: HashMap<u64, Thunk<C>>,
    executed: u64,
}

impl<C> Default for Sim<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Sim<C> {
    /// A fresh simulator at time zero with no pending events.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            thunks: HashMap::new(),
            executed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostics).
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending (not yet fired or cancelled) events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.thunks.len()
    }

    /// Schedule `thunk` to run at absolute time `at`.
    ///
    /// `at` may equal `now` (the event runs after currently-running handler
    /// returns) but must not be in the past.
    pub fn schedule(&mut self, at: SimTime, thunk: Thunk<C>) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Key { at, seq });
        self.thunks.insert(seq, thunk);
        EventId(seq)
    }

    /// Schedule `thunk` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, thunk: Thunk<C>) -> EventId {
        let at = self.now.checked_add(delay).expect("SimTime overflow");
        self.schedule(at, thunk)
    }

    /// Cancel a pending event. Returns `true` if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.thunks.remove(&id.0).is_some()
    }

    /// Time of the next pending event, if any.
    pub fn peek_next(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        self.heap.peek().map(|k| k.at)
    }

    /// Drop heap keys whose thunks were cancelled.
    fn skim_cancelled(&mut self) {
        while let Some(k) = self.heap.peek() {
            if self.thunks.contains_key(&k.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Run the single earliest pending event. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self, ctx: &mut C) -> bool {
        self.skim_cancelled();
        let Some(key) = self.heap.pop() else {
            return false;
        };
        let thunk = self
            .thunks
            .remove(&key.seq)
            .expect("skim_cancelled guarantees a live thunk at the heap top");
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        self.executed += 1;
        thunk(ctx, self);
        true
    }

    /// Run until no events remain.
    pub fn run(&mut self, ctx: &mut C) {
        while self.step(ctx) {}
    }

    /// Run events with timestamps `<= deadline`; afterwards `now` is
    /// `max(now, deadline)` and any later events remain pending.
    pub fn run_until(&mut self, ctx: &mut C, deadline: SimTime) {
        while let Some(at) = self.peek_next() {
            if at > deadline {
                break;
            }
            self.step(ctx);
        }
        self.now = self.now.max(deadline);
    }

    /// Schedule `tick` to run at `first` and then every `period`, for as
    /// long as it returns `true` (daemon loops: loadd broadcasts,
    /// watchdogs).
    pub fn schedule_periodic<F>(&mut self, first: SimTime, period: SimTime, tick: F)
    where
        F: FnMut(&mut C, &mut Sim<C>) -> bool + 'static,
        C: 'static,
    {
        assert!(period > SimTime::ZERO, "zero-period periodic event");
        struct Periodic<C, F> {
            period: SimTime,
            tick: F,
            _marker: std::marker::PhantomData<fn(&mut C)>,
        }
        fn arm<C: 'static, F>(state: Periodic<C, F>, at: SimTime, sim: &mut Sim<C>)
        where
            F: FnMut(&mut C, &mut Sim<C>) -> bool + 'static,
        {
            sim.schedule(
                at,
                Box::new(move |ctx: &mut C, sim: &mut Sim<C>| {
                    let mut state = state;
                    if (state.tick)(ctx, sim) {
                        let next = sim.now() + state.period;
                        arm(state, next, sim);
                    }
                }),
            );
        }
        arm(Periodic { period, tick, _marker: std::marker::PhantomData }, first, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = Sim<Vec<u32>>;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        sim.schedule(SimTime::from_secs(3), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(3)));
        sim.schedule(SimTime::from_secs(1), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(1)));
        sim.schedule(SimTime::from_secs(2), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(2)));
        sim.run(&mut ctx);
        assert_eq!(ctx, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sim.schedule(t, Box::new(move |c: &mut Vec<u32>, _: &mut S| c.push(i)));
        }
        sim.run(&mut ctx);
        assert_eq!(ctx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        sim.schedule(
            SimTime::from_secs(1),
            Box::new(|c: &mut Vec<u32>, s: &mut S| {
                c.push(1);
                s.schedule_in(SimTime::from_secs(1), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(2)));
            }),
        );
        sim.run(&mut ctx);
        assert_eq!(ctx, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        let id = sim.schedule(SimTime::from_secs(1), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(1)));
        sim.schedule(SimTime::from_secs(2), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(2)));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run(&mut ctx);
        assert_eq!(ctx, vec![2]);
        assert_eq!(sim.executed(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        sim.schedule(SimTime::from_secs(1), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(1)));
        sim.schedule(SimTime::from_secs(5), Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(5)));
        sim.run_until(&mut ctx, SimTime::from_secs(3));
        assert_eq!(ctx, vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut ctx);
        assert_eq!(ctx, vec![1, 5]);
    }

    #[test]
    fn schedule_at_now_runs_after_current_handler() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        sim.schedule(
            SimTime::from_secs(1),
            Box::new(|c: &mut Vec<u32>, s: &mut S| {
                let now = s.now();
                s.schedule(now, Box::new(|c: &mut Vec<u32>, _: &mut S| c.push(2)));
                c.push(1);
            }),
        );
        sim.run(&mut ctx);
        assert_eq!(ctx, vec![1, 2]);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        sim.schedule(
            SimTime::from_secs(1),
            Box::new(|_: &mut Vec<u32>, s: &mut S| {
                s.schedule(SimTime::ZERO, Box::new(|_, _| {}));
            }),
        );
        sim.run(&mut ctx);
    }

    #[test]
    fn periodic_events_fire_until_stopped() {
        let mut sim: S = Sim::new();
        let mut ctx = Vec::new();
        sim.schedule_periodic(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            |c: &mut Vec<u32>, s: &mut S| {
                c.push(s.now().as_micros() as u32);
                c.len() < 4 // stop after the 4th tick
            },
        );
        sim.run(&mut ctx);
        assert_eq!(
            ctx,
            vec![1_000_000, 3_000_000, 5_000_000, 7_000_000],
            "ticks at 1s then every 2s, stopping after four"
        );
        assert_eq!(sim.pending(), 0, "a stopped periodic must not linger");
    }

    #[test]
    #[should_panic]
    fn zero_period_periodic_panics() {
        let mut sim: S = Sim::new();
        sim.schedule_periodic(SimTime::ZERO, SimTime::ZERO, |_, _| true);
    }

    #[test]
    fn peek_next_skips_cancelled() {
        let mut sim: S = Sim::new();
        let id = sim.schedule(SimTime::from_secs(1), Box::new(|_, _| {}));
        sim.schedule(SimTime::from_secs(2), Box::new(|_, _| {}));
        sim.cancel(id);
        assert_eq!(sim.peek_next(), Some(SimTime::from_secs(2)));
    }
}
