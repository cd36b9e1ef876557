//! The lock-striped LRU both server caches are built on: the document
//! cache ([`crate::file_cache::FileCache`]) and the dynamic response cache
//! ([`crate::dynamic::DynamicCache`]).
//!
//! A [`Striped`] cache is a fixed set of segments, each one
//! [`PageCache`] (an O(1) LRU bounded by the sizes of what it holds)
//! behind its own mutex, with its own hit, miss and eviction counters. A
//! key hashes to exactly one segment, so two reactor shards working on
//! different keys never contend on one lock; the counters are summed when
//! read. The key is [`key`], one FNV-shaped hash over the identity's
//! bytes, and each cache checks the identity its entries store on every
//! hit, so a hash collision is a miss, never another entry's value.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use sweb_cluster::{FileId, PageCache};

/// Stripe count of both caches: enough segments that 8 reactor shards
/// rarely collide on a lock, few enough that per-segment shares stay
/// useful (16 MiB of documents → 2 MiB per segment).
pub(crate) const SEGMENTS: usize = 8;

/// An FNV-1a-shaped hash (xor a byte, multiply) over `parts` in order.
/// The multiplier is 2³² + 0x1b3, not the 64-bit FNV prime (2⁴⁰ + 0x1b3),
/// so the values differ from standard FNV-1a; it stays as is because
/// document keys set home placement, and changing it would re-home every
/// document.
pub(crate) fn key(parts: &[&[u8]]) -> FileId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().copied().flatten() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    FileId(h)
}

/// One stripe: its own lock, LRU and counters.
pub(crate) struct Segment<V> {
    lru: Mutex<PageCache<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> Segment<V> {
    /// The segment's LRU, locked.
    pub(crate) fn lock(&self) -> MutexGuard<'_, PageCache<V>> {
        self.lru.lock()
    }

    /// Count a lookup this segment answered.
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a lookup this segment could not answer.
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache `value` (`size` units of the segment's share) under `key` as
    /// the most recent entry, replacing any entry it had, and count what
    /// that evicted. The evicted values are dropped after the lock is let
    /// go.
    pub(crate) fn put(&self, key: FileId, size: u64, value: V) {
        let evicted = self.lru.lock().insert(key, size, value);
        if !evicted.is_empty() {
            self.evictions.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        }
    }
}

/// A cache split across independent [`Segment`]s of equal share.
pub(crate) struct Striped<V> {
    segments: Box<[Segment<V>]>,
}

impl<V> Striped<V> {
    /// `segments` stripes, each holding entries up to `share` in size.
    pub(crate) fn new(segments: usize, share: u64) -> Self {
        let segments = (0..segments)
            .map(|_| Segment {
                lru: Mutex::new(PageCache::new(share)),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect();
        Striped { segments }
    }

    /// The stripe `key` lives in. The key is Fibonacci-hashed first so
    /// the choice is not correlated with FNV's low-byte patterns.
    pub(crate) fn segment(&self, key: FileId) -> &Segment<V> {
        let mixed = key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.segments[(mixed >> 56) as usize % self.segments.len()]
    }

    /// Every stripe, in order.
    pub(crate) fn segments(&self) -> &[Segment<V>] {
        &self.segments
    }

    /// Lifetime hits, summed across segments.
    pub(crate) fn hits(&self) -> u64 {
        self.sum(|s| s.hits.load(Ordering::Relaxed))
    }

    /// Lifetime misses, summed across segments.
    pub(crate) fn misses(&self) -> u64 {
        self.sum(|s| s.misses.load(Ordering::Relaxed))
    }

    /// Lifetime evictions, summed across segments.
    pub(crate) fn evictions(&self) -> u64 {
        self.sum(|s| s.evictions.load(Ordering::Relaxed))
    }

    /// Sizes of the entries held right now, summed across segments.
    pub(crate) fn used(&self) -> u64 {
        self.sum(|s| s.lock().used())
    }

    /// Entries held right now that `counts` accepts, summed across
    /// segments.
    pub(crate) fn count(&self, counts: impl Fn(&V) -> bool) -> u64 {
        self.sum(|s| s.lock().values().filter(|v| counts(v)).count() as u64)
    }

    /// The segments' shares, summed.
    pub(crate) fn capacity(&self) -> u64 {
        self.sum(|s| s.lock().capacity())
    }

    fn sum(&self, number: impl Fn(&Segment<V>) -> u64) -> u64 {
        self.segments.iter().map(number).sum()
    }
}
