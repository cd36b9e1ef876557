//! Byte-capacity LRU page cache.
//!
//! Each node caches whole files (the unit the HTTP server reads) up to a
//! byte budget. Implemented as an intrusive doubly-linked list over a slab,
//! so `access`/`insert`/`evict` are all O(1) — this sits on the simulator's
//! per-request hot path.
//!
//! Each entry carries a value beside its id and size, in the one map: the
//! simulator's caches carry `()`, the live server's `FileCache` carries a
//! document's body and head. A lookup is one probe, and an insert hands
//! back the entries it evicted.

use std::collections::HashMap;

use crate::files::FileId;

const NIL: usize = usize::MAX;

struct Entry<V> {
    file: FileId,
    size: u64,
    prev: usize,
    next: usize,
    /// `None` only while the slot is on the free list.
    value: Option<V>,
}

/// An LRU cache of files bounded by total bytes, each carrying a value
/// (`()` when residency is all that matters).
///
/// ```
/// use sweb_cluster::{FileId, PageCache};
///
/// let mut cache = PageCache::new(100);
/// assert!(!cache.access(FileId(1), 60)); // cold miss, inserted
/// assert!(cache.access(FileId(1), 60));  // warm hit
/// assert!(!cache.access(FileId(2), 60)); // evicts file 1 (LRU)
/// assert!(!cache.contains(FileId(1)));
/// ```
pub struct PageCache<V = ()> {
    capacity: u64,
    used: u64,
    map: HashMap<FileId, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    misses: u64,
}

impl<V> PageCache<V> {
    /// A cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        PageCache {
            capacity,
            used: 0,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Byte capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of cached files.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit count of [`PageCache::access`].
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count of [`PageCache::access`].
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over the cache's lifetime (0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Whether `file` is currently cached (no LRU side effect, no counters).
    pub fn contains(&self, file: FileId) -> bool {
        self.map.contains_key(&file)
    }

    /// Every cached value, in no particular order (no LRU side effect, no
    /// counters).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slab.iter().filter_map(|e| e.value.as_ref())
    }

    /// `file`'s value, if cached: one probe, no LRU side effect, no
    /// counters.
    pub fn peek(&self, file: FileId) -> Option<&V> {
        let idx = *self.map.get(&file)?;
        self.slab[idx].value.as_ref()
    }

    /// `file`'s value, if cached, made most recently used: one probe and
    /// a relink, no counters.
    pub fn touch(&mut self, file: FileId) -> Option<&V> {
        let idx = *self.map.get(&file)?;
        self.relink(idx);
        self.slab[idx].value.as_ref()
    }

    /// Cache `file` (`size` bytes) with `value` as the most recently used
    /// entry, replacing any entry it had, and return the entries evicted
    /// to make room, least recently used first. A file larger than the
    /// whole cache is not cached: it would evict everything for no
    /// benefit (any old entry of it is dropped all the same).
    pub fn insert(&mut self, file: FileId, size: u64, value: V) -> Vec<(FileId, V)> {
        let mut evicted = Vec::new();
        self.invalidate(file);
        self.admit(file, size, value, |file, value| evicted.push((file, value)));
        evicted
    }

    /// Drop a file from the cache (e.g. invalidation). Returns `true` if it
    /// was present.
    pub fn invalidate(&mut self, file: FileId) -> bool {
        match self.map.remove(&file) {
            Some(idx) => {
                self.release(idx);
                true
            }
            None => false,
        }
    }

    /// Link a file that is not cached in at the head, evicting from the
    /// tail until it fits; each evicted entry goes to `evicted`.
    fn admit(&mut self, file: FileId, size: u64, value: V, mut evicted: impl FnMut(FileId, V)) {
        if size > self.capacity {
            return;
        }
        while self.used + size > self.capacity {
            let idx = self.tail;
            assert_ne!(idx, NIL, "eviction from an empty cache — size accounting bug");
            let file = self.slab[idx].file;
            self.map.remove(&file);
            if let Some(value) = self.release(idx) {
                evicted(file, value);
            }
        }
        let entry = Entry { file, size, prev: NIL, next: self.head, value: Some(value) };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = entry;
                idx
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.used += size;
        self.map.insert(file, idx);
    }

    /// Unlink slot `idx` (already out of the map), free it, and hand back
    /// its value.
    fn release(&mut self, idx: usize) -> Option<V> {
        self.unlink(idx);
        self.used -= self.slab[idx].size;
        self.free.push(idx);
        self.slab[idx].value.take()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    /// Make slot `idx` the most recently used.
    fn relink(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl PageCache {
    /// Record an access to `file` of `size` bytes. Returns `true` on a hit.
    /// On a miss the file is inserted (if it fits at all), evicting LRU
    /// entries as needed. Files larger than the whole cache are never
    /// cached (they would evict everything for no benefit).
    pub fn access(&mut self, file: FileId, size: u64) -> bool {
        if let Some(&idx) = self.map.get(&file) {
            self.hits += 1;
            self.relink(idx);
            return true;
        }
        self.misses += 1;
        self.admit(file, size, (), |_, ()| {});
        false
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u64) -> FileId {
        FileId(i)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::new(100);
        assert!(!c.access(f(1), 10));
        assert!(c.access(f(1), 10));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.used(), 10);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = PageCache::new(30);
        c.access(f(1), 10);
        c.access(f(2), 10);
        c.access(f(3), 10);
        // Touch 1 so 2 becomes LRU.
        assert!(c.access(f(1), 10));
        // Insert 4: must evict 2.
        assert!(!c.access(f(4), 10));
        assert!(c.contains(f(1)));
        assert!(!c.contains(f(2)));
        assert!(c.contains(f(3)));
        assert!(c.contains(f(4)));
        assert_eq!(c.used(), 30);
    }

    #[test]
    fn oversized_file_is_not_cached_and_evicts_nothing() {
        let mut c = PageCache::new(100);
        c.access(f(1), 60);
        assert!(!c.access(f(2), 150));
        assert!(c.contains(f(1)), "oversized insert must not evict");
        assert!(!c.contains(f(2)));
        assert_eq!(c.used(), 60);
    }

    #[test]
    fn large_file_evicts_several() {
        let mut c = PageCache::new(100);
        for i in 0..10 {
            c.access(f(i), 10);
        }
        assert_eq!(c.used(), 100);
        assert!(!c.access(f(99), 35));
        assert_eq!(c.used(), 10 * 10 - 40 + 35); // evicted files 0..=3
        assert!(!c.contains(f(0)));
        assert!(!c.contains(f(3)));
        assert!(c.contains(f(4)));
        assert!(c.contains(f(99)));
    }

    #[test]
    fn invalidate_frees_space() {
        let mut c = PageCache::new(100);
        c.access(f(1), 40);
        c.access(f(2), 40);
        assert!(c.invalidate(f(1)));
        assert!(!c.invalidate(f(1)));
        assert_eq!(c.used(), 40);
        assert_eq!(c.len(), 1);
        // Space is reusable.
        assert!(!c.access(f(3), 60));
        assert!(c.contains(f(2)) || c.contains(f(3)));
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = PageCache::new(0);
        assert!(!c.access(f(1), 1));
        assert!(!c.access(f(1), 1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn zero_size_files_hit_after_insert() {
        let mut c = PageCache::new(10);
        assert!(!c.access(f(1), 0));
        assert!(c.access(f(1), 0));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn values_ride_their_entries_and_come_back_on_eviction() {
        let mut c: PageCache<&str> = PageCache::new(30);
        assert!(c.insert(f(1), 10, "one").is_empty());
        assert!(c.insert(f(2), 10, "two").is_empty());
        assert!(c.insert(f(3), 10, "three").is_empty());
        assert_eq!(c.peek(f(2)), Some(&"two"));
        // A peek is no use: 1 is still the least recently used.
        assert_eq!(c.touch(f(1)), Some(&"one"));
        // 2 is now the LRU entry, then 3.
        assert_eq!(c.insert(f(4), 20, "four"), vec![(f(2), "two"), (f(3), "three")]);
        assert_eq!(c.peek(f(4)), Some(&"four"));
        // Replacing an entry drops the old value without calling it evicted.
        assert!(c.insert(f(1), 10, "uno").is_empty());
        assert_eq!(c.peek(f(1)), Some(&"uno"));
        assert_eq!(c.used(), 30);
        // Only what is held is listed: no evicted or replaced value.
        let mut held: Vec<&str> = c.values().copied().collect();
        held.sort_unstable();
        assert_eq!(held, ["four", "uno"]);
        // Too large for the whole cache: not cached, nothing evicted.
        assert!(c.insert(f(5), 31, "five").is_empty());
        assert_eq!(c.peek(f(5)), None);
        assert_eq!(c.touch(f(9)), None);
        assert_eq!((c.hits(), c.misses()), (0, 0), "only access() counts");
    }

    #[test]
    fn slab_reuse_after_heavy_churn() {
        let mut c = PageCache::new(50);
        for round in 0..100u64 {
            for i in 0..10u64 {
                c.access(f(round * 10 + i), 10);
            }
        }
        // Slab should stay bounded: at most live entries + a small free list.
        assert!(c.slab.len() <= 16, "slab grew unbounded: {}", c.slab.len());
        assert_eq!(c.len(), 5);
        assert_eq!(c.used(), 50);
    }
}
