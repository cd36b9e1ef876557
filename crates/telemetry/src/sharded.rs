//! Shard-local metric cells: per-core counters without cacheline ping-pong.
//!
//! A plain [`crate::Counter`] is one atomic word; when eight reactor
//! shards hammer it, every increment bounces the cacheline across cores
//! and the "lock-free" counter becomes a coherence hotspot. A
//! [`ShardedCounter`] splits the value into cacheline-padded per-shard
//! cells: each shard increments its own cell (a core-local RMW) and
//! readers sum the cells on scrape. Totals stay exact — the split is an
//! accounting detail, not a sampling scheme — and per-cell values are
//! exposed so `/sweb-status` can break hot counters down by shard.
//!
//! Attribution has two forms:
//!
//! * **explicit** — [`ShardedCounter::inc_at`]/[`ShardedGauge::add_at`]
//!   with the shard index, used by every reactor loop (and by the worker
//!   jobs a loop dispatched) for its own shard;
//! * **per thread** (counters only) — [`ShardedCounter::inc`] adds in the calling
//!   thread's cell, a stable round-robin pick made once per thread, so
//!   threads spread over the cells instead of piling onto cell 0.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Upper bound on cells per sharded metric: enough for any realistic
/// shard count while keeping the padded allocation small (64 × 64 B).
pub const MAX_SHARD_CELLS: usize = 64;

static NEXT_THREAD_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's cell, picked round-robin as it first counts.
    static SHARD_HINT: usize = NEXT_THREAD_HINT.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn hint() -> usize {
    SHARD_HINT.with(|hint| *hint)
}

/// One cacheline per cell so neighboring shards never share one.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedI64(AtomicI64);

/// A monotonically increasing counter split into per-shard cells; the
/// logical value is the sum of the cells.
#[derive(Debug)]
pub struct ShardedCounter {
    cells: Box<[PaddedU64]>,
}

impl ShardedCounter {
    /// A counter with `cells` shard cells (clamped to `1..=`
    /// [`MAX_SHARD_CELLS`]).
    pub fn new(cells: usize) -> ShardedCounter {
        let n = cells.clamp(1, MAX_SHARD_CELLS);
        ShardedCounter { cells: (0..n).map(|_| PaddedU64::default()).collect() }
    }

    /// Increment by one in the calling thread's cell.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` in the calling thread's cell.
    pub fn add(&self, n: u64) {
        self.add_at(hint(), n);
    }

    /// Increment by one in cell `shard % cells`.
    pub fn inc_at(&self, shard: usize) {
        self.add_at(shard, 1);
    }

    /// Add `n` in cell `shard % cells`.
    pub fn add_at(&self, shard: usize, n: u64) {
        self.cells[shard % self.cells.len()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The logical value: the sum of every cell.
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Value of cell `shard % cells` alone (the per-shard breakdown).
    pub fn cell_value(&self, shard: usize) -> u64 {
        self.cells[shard % self.cells.len()].0.load(Ordering::Relaxed)
    }
}

/// A gauge split into per-shard cells; the logical value is the sum.
/// Every change names its shard: a reactor loop adds and subtracts in its
/// own cell (a connection opens and closes on one loop), so each cell
/// reads that shard's own level.
#[derive(Debug)]
pub struct ShardedGauge {
    cells: Box<[PaddedI64]>,
}

impl ShardedGauge {
    /// A gauge with `cells` shard cells (clamped to `1..=`
    /// [`MAX_SHARD_CELLS`]).
    pub fn new(cells: usize) -> ShardedGauge {
        let n = cells.clamp(1, MAX_SHARD_CELLS);
        ShardedGauge { cells: (0..n).map(|_| PaddedI64::default()).collect() }
    }

    /// Increment by one in cell `shard % cells`.
    pub fn inc_at(&self, shard: usize) {
        self.add_at(shard, 1);
    }

    /// Decrement by one in cell `shard % cells`.
    pub fn dec_at(&self, shard: usize) {
        self.add_at(shard, -1);
    }

    /// Add `n` in cell `shard % cells`.
    pub fn add_at(&self, shard: usize, n: i64) {
        self.cells[shard % self.cells.len()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` in cell `shard % cells`.
    pub fn sub_at(&self, shard: usize, n: i64) {
        self.add_at(shard, -n);
    }

    /// The logical value: the sum of every cell.
    pub fn get(&self) -> i64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Value of cell `shard % cells` alone.
    pub fn cell_value(&self, shard: usize) -> i64 {
        self.cells[shard % self.cells.len()].0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cells_sum_to_the_logical_value() {
        let c = ShardedCounter::new(4);
        c.inc_at(0);
        c.add_at(1, 10);
        c.add_at(5, 100); // wraps to cell 1
        assert_eq!(c.get(), 111);
        assert_eq!(c.cell_value(0), 1);
        assert_eq!(c.cell_value(1), 110);
        assert_eq!(c.cell_value(2), 0);
    }

    #[test]
    fn cell_count_is_clamped() {
        assert_eq!(ShardedCounter::new(0).cells(), 1);
        assert_eq!(ShardedCounter::new(1).cells(), 1);
        assert_eq!(ShardedCounter::new(MAX_SHARD_CELLS + 9).cells(), MAX_SHARD_CELLS);
        assert_eq!(ShardedGauge::new(0).cells(), 1);
    }

    #[test]
    fn gauge_sums_across_cells_and_tolerates_cross_cell_dec() {
        let g = ShardedGauge::new(4);
        g.inc_at(2);
        g.inc_at(2);
        g.dec_at(3); // opened on one shard, closed on another
        assert_eq!(g.get(), 1);
        assert_eq!(g.cell_value(2), 2);
        assert_eq!(g.cell_value(3), -1);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = Arc::new(ShardedCounter::new(8));
        let g = Arc::new(ShardedGauge::new(8));
        let threads: Vec<_> = (0..8)
            .map(|shard| {
                let c = Arc::clone(&c);
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                        g.inc_at(shard);
                        g.dec_at(shard);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn padding_keeps_cells_on_distinct_cachelines() {
        assert_eq!(std::mem::size_of::<PaddedU64>(), 64);
        assert_eq!(std::mem::size_of::<PaddedI64>(), 64);
    }
}
