//! A concurrent fixed-bucket log-scale histogram.
//!
//! `sweb_metrics::Histogram` records through `&mut self` — fine for the
//! simulator's single-threaded statistics pass, unusable for dozens of
//! connection threads sharing one latency distribution. This histogram
//! trades its cousin's adaptive range for a fixed, power-of-four bucket
//! ladder so every `record` is two relaxed atomic adds and the exposition
//! format is stable enough to golden-test.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive) of the finite buckets, in the recorded unit
/// (microseconds for latencies, percent for prediction error). Powers of
/// four from 1 to ~4.2 M: 1 µs resolution at the bottom, ~4.2 s at the
/// top, 12 finite buckets + one overflow — small enough to scrape per
/// phase, wide enough for a slow disk or a 10 s eviction timeout.
pub(crate) const BUCKET_BOUNDS: [u64; 12] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
];

/// A lock-free log-scale histogram: fixed bucket bounds, relaxed atomic
/// counts, recordable from any thread through a shared reference.
///
/// The counts are split into per-shard cells, one cache-line-padded
/// block of buckets and sum per shard, as [`crate::ShardedCounter`]
/// splits a counter: a reactor shard records in its own cell
/// ([`AtomicHistogram::record_at`]), so two loops never write one line,
/// and readers sum the cells. A histogram from [`AtomicHistogram::new`]
/// has one cell.
#[derive(Debug)]
pub struct AtomicHistogram {
    cells: Box<[Cell]>,
}

/// One shard's counts: one per finite bound plus the `+Inf` overflow
/// bucket, and the sum. The count is the buckets' total.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Cell {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    /// Sum of recorded values (wrapping; the unit of whatever is fed in).
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram over the standard power-of-four bucket ladder,
    /// with one cell.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram::with_cells(1)
    }

    /// An empty histogram with `cells` per-shard cells (clamped to `1..=`
    /// [`crate::MAX_SHARD_CELLS`]).
    pub fn with_cells(cells: usize) -> AtomicHistogram {
        let n = cells.clamp(1, crate::MAX_SHARD_CELLS);
        AtomicHistogram { cells: (0..n).map(|_| Cell::default()).collect() }
    }

    /// Record one observation in the calling thread's cell.
    pub fn record(&self, value: u64) {
        let cell = if self.cells.len() == 1 { 0 } else { crate::sharded::hint() };
        self.record_at(cell, value);
    }

    /// Record one observation in cell `shard % cells`.
    pub fn record_at(&self, shard: usize, value: u64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        let cell = &self.cells[shard % self.cells.len()];
        cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Count in bucket `i`, summed over the cells.
    fn bucket(&self, i: usize) -> u64 {
        self.cells.iter().map(|c| c.buckets[i].load(Ordering::Relaxed)).sum()
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        (0..=BUCKET_BOUNDS.len()).map(|i| self.bucket(i)).sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.cells.iter().fold(0u64, |acc, c| acc.wrapping_add(c.sum.load(Ordering::Relaxed)))
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the `q`-th observation, `u64::MAX` when it landed
    /// in the overflow bucket, 0 when empty. Log-bucket resolution — good
    /// for "p99 within 4×", which is what a scheduler sanity check needs.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..=BUCKET_BOUNDS.len() {
            seen += self.bucket(i);
            if seen >= rank {
                return BUCKET_BOUNDS.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Per-bucket counts paired with their upper bounds; the final entry
    /// is the `+Inf` overflow bucket (`None` bound). Counts are
    /// *non-cumulative*; the Prometheus renderer accumulates.
    pub fn snapshot(&self) -> Vec<(Option<u64>, u64)> {
        (0..=BUCKET_BOUNDS.len()).map(|i| (BUCKET_BOUNDS.get(i).copied(), self.bucket(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_log_buckets() {
        let h = AtomicHistogram::new();
        h.record(0); // ≤ 1
        h.record(1); // ≤ 1
        h.record(2); // ≤ 4
        h.record(1_000_000); // ≤ 1_048_576
        h.record(u64::MAX / 2); // overflow
        assert_eq!(h.count(), 5);
        let snap = h.snapshot();
        assert_eq!(snap[0], (Some(1), 2));
        assert_eq!(snap[1], (Some(4), 1));
        assert_eq!(snap.last().unwrap(), &(None, 1));
        assert_eq!(snap.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = AtomicHistogram::new();
        for _ in 0..99 {
            h.record(10); // bucket ≤ 16
        }
        h.record(100_000); // bucket ≤ 262_144
        assert_eq!(h.quantile(0.5), 16);
        assert_eq!(h.quantile(1.0), 262_144);
        assert_eq!(AtomicHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn cells_sum_to_one_distribution() {
        let h = AtomicHistogram::with_cells(2);
        h.record_at(0, 3);
        h.record_at(1, 3);
        h.record_at(3, 100); // wraps to cell 1
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.snapshot()[1], (Some(4), 2));
        assert_eq!(h.quantile(1.0), 256);
        assert_eq!(std::mem::size_of::<Cell>() % 64, 0, "a cell owns its lines");
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8_000);
        assert_eq!(h.snapshot().iter().map(|&(_, c)| c).sum::<u64>(), 8_000);
    }
}
