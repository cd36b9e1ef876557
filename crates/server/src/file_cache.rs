//! In-process file cache for the live server — the page-cache effect the
//! simulator models, made explicit (extension; NCSA httpd 1.3 relied on
//! the OS buffer cache and re-`read()` per request).
//!
//! The server keeps only documents of at most 32 KiB here: a larger one
//! streams from the OS page cache (`sendfile`), so it is in no stripe.
//! [`FileCache::read`] still takes any size. The server reads a miss
//! itself — on the loop thread when it is all in the page cache, else on
//! a worker, from the fd the loop opened — under the mtime of the
//! request's own `stat`; every body enters through one routine
//! (`FileCache::insert`), which [`FileCache::read`] uses too, so the
//! collision and stale-entry rules are written once.
//!
//! Bodies are stored as [`Bytes`], so concurrent responses share one copy
//! with no duplication. Entries are validated against the file's mtime on
//! every hit: an edited document is re-read, never served stale. Each
//! entry also records the canonical request path it was cached under —
//! [`FileId`]s are 64-bit FNV-style hashes ([`key_of`]), and on the
//! (rare) collision the path check makes the cache serve the *correct*
//! bytes from disk instead of another document's body.
//!
//! The cache sits on the crate's one lock-striped LRU, the one the dynamic
//! response cache uses too: the capacity is split across 8 segments, each a
//! [`PageCache`](sweb_cluster::PageCache) behind its own mutex, and a
//! `FileId` hashes to exactly one segment, so two shards faulting in
//! different documents never contend on one lock, while two shards
//! reading the same hot document still share a single [`Bytes`] body. A
//! single-segment cache (`FileCache::with_segments` with `segments = 1`)
//! behaves exactly like a global-mutex cache, global LRU order included.
//!
//! Each entry carries the body, the mtime, the path and the document's
//! [`Head`]: a lookup is one probe, a hit's LRU touch one probe and a
//! relink, and an insert hands back what it evicted. The head — status
//! line, `Content-Type`, `Last-Modified`, `X-SWEB-Node`, `Server`,
//! `Content-Length` — is serialized once, when the entry is built, by the
//! same `document` builder every document reply comes from; a hit writes
//! only its own trace and connection lines.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use bytes::Bytes;
use sweb_cluster::{FileId, NodeId};
use sweb_http::{mime_for_path, Head, Response};

use crate::striped::{Striped, SEGMENTS};

/// One resident document.
struct Entry {
    doc: Document,
    /// Canonical request path this entry was cached under. Verified on
    /// every hit: a differing path under the same `FileId` is a hash
    /// collision, never a valid hit.
    path: String,
}

/// A document as the cache hands it out: the body, the file's mtime when
/// it was read, and the head of its `200` — shared with the entry, so
/// cloning one is three reference counts.
#[derive(Clone)]
pub(crate) struct Document {
    pub(crate) body: Bytes,
    pub(crate) mtime: SystemTime,
    pub(crate) head: Head,
}

impl Document {
    /// The `200` that serves this document.
    pub(crate) fn reply(self) -> Response {
        Response::with_head(self.head, self.body)
    }
}

/// `200` carrying a document body, as `node` serves it: the one writer of
/// a document reply's headers, whether its head is then shared by a cache
/// entry or the reply is a one-off (a streamed file, an uncacheable read).
pub(crate) fn document(
    node: NodeId,
    path: &str,
    body: Bytes,
    mtime: Option<SystemTime>,
) -> Response {
    let mut resp = Response::ok(body, mime_for_path(path));
    if let Some(secs) = mtime.and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok()) {
        resp.headers.set("Last-Modified", sweb_http::format_http_date(secs.as_secs()));
    }
    resp.headers.set("X-SWEB-Node", node.0.to_string());
    resp
}

/// Byte-bounded, mtime-validated, lock-striped LRU cache of document
/// bodies and their heads.
pub struct FileCache {
    /// Entries sized by their body's bytes.
    stripes: Striped<Entry>,
    /// FNV collisions detected: one count for the whole cache, since a
    /// collision is rare.
    collisions: AtomicU64,
    /// The node whose `X-SWEB-Node` the heads carry.
    node: NodeId,
}

/// The hash over the canonical request path — the cache's [`FileId`]
/// namespace, shared with the scheduler's home placement.
pub fn key_of(path: &str) -> FileId {
    crate::striped::key(&[path.as_bytes()])
}

impl FileCache {
    /// A cache holding at most `capacity` bytes of document bodies,
    /// striped across 8 segments.
    pub fn new(capacity: u64) -> Self {
        FileCache::with_segments(capacity, SEGMENTS)
    }

    /// A cache striped across `segments` stripes (clamped to `1..=64`),
    /// each owning an even share of `capacity`. With one segment this is
    /// a single-mutex cache, global LRU order included.
    pub(crate) fn with_segments(capacity: u64, segments: usize) -> Self {
        let n = segments.clamp(1, 64);
        let stripes = Striped::new(n, capacity / n as u64);
        FileCache { stripes, collisions: AtomicU64::new(0), node: NodeId(0) }
    }

    /// The same cache, building heads that name `node` in `X-SWEB-Node`
    /// (a new cache's name node 0).
    pub fn for_node(self, node: NodeId) -> Self {
        FileCache { node, ..self }
    }

    /// Lifetime hit count (summed across segments).
    pub fn hits(&self) -> u64 {
        self.stripes.hits()
    }

    /// Lifetime miss count, including invalidations and read errors
    /// (summed across segments).
    pub fn misses(&self) -> u64 {
        self.stripes.misses()
    }

    /// Lifetime count of FNV `FileId` collisions detected (served
    /// correctly from disk, not from the colliding entry).
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Lifetime count of bodies evicted by per-segment LRU pressure.
    pub fn evictions(&self) -> u64 {
        self.stripes.evictions()
    }

    /// Bytes currently cached (summed across segments).
    pub fn used(&self) -> u64 {
        self.stripes.used()
    }

    /// Configured capacity in bytes: the sum of segment shares (at most
    /// the requested capacity; integer division may round each share
    /// down).
    pub fn capacity(&self) -> u64 {
        self.stripes.capacity()
    }

    /// Whether `path`'s body is resident right now (no I/O, no LRU touch).
    pub fn resident(&self, path: &str) -> bool {
        self.peek(key_of(path), path).is_some()
    }

    /// The request path's one lookup: the resident document for `path` —
    /// no stat, no LRU touch, no counter. The caller holds the file's
    /// `stat`: a document whose mtime matches it may be served (then
    /// [`FileCache::touch`] accounts the hit), one that does not is stale:
    /// [`FileCache::miss`] accounts it, and the body read again replaces
    /// it ([`FileCache::insert`]).
    pub(crate) fn peek(&self, key: FileId, path: &str) -> Option<Document> {
        let lru = self.stripes.segment(key).lock();
        lru.peek(key).filter(|e| e.path == path).map(|e| e.doc.clone())
    }

    /// A document from [`FileCache::peek`] was served: count the hit and
    /// touch the LRU, exactly what a hit in [`FileCache::read`] does.
    pub(crate) fn touch(&self, key: FileId) {
        let seg = self.stripes.segment(key);
        // Evicted since the peek: the document in hand is still good, but
        // there is no entry left to refresh.
        seg.lock().touch(key);
        seg.hit();
    }

    /// A request's lookup found no fresh document for `key`: count the
    /// miss, once, wherever the document is then read.
    pub(crate) fn miss(&self, key: FileId) {
        self.stripes.segment(key).miss();
    }

    /// Fetch `full` (request path `path` for keying): from memory when the
    /// cached copy's mtime still matches, from disk otherwise. Returns the
    /// body and the file's mtime.
    pub fn read(&self, path: &str, full: &Path) -> std::io::Result<(Bytes, SystemTime)> {
        let doc = self.read_keyed(key_of(path), path, full)?;
        Ok((doc.body, doc.mtime))
    }

    /// [`FileCache::read`] with an explicit key, and the document's head —
    /// separated so tests can force two paths onto one `FileId` (a 64-bit
    /// FNV collision is otherwise impractical to construct).
    pub(crate) fn read_keyed(
        &self,
        key: FileId,
        path: &str,
        full: &Path,
    ) -> std::io::Result<Document> {
        let seg = self.stripes.segment(key);
        let mtime = std::fs::metadata(full)?.modified()?;
        {
            let mut lru = seg.lock();
            if let Some(entry) = lru.peek(key).filter(|e| e.path == path && e.doc.mtime == mtime) {
                let doc = entry.doc.clone();
                lru.touch(key);
                seg.hit();
                return Ok(doc);
            }
        }
        // Miss, stale, or collision: read outside the lock.
        seg.miss();
        Ok(self.insert(key, path, Bytes::from(std::fs::read(full)?), mtime))
    }

    /// The one way a document enters the cache: `body`, read at `mtime`,
    /// with its head built (outside the lock), cached under `key` unless
    /// the slot holds another path. The inline read, the worker's read and
    /// [`FileCache::read`] all end here.
    pub(crate) fn insert(
        &self,
        key: FileId,
        path: &str,
        body: Bytes,
        mtime: SystemTime,
    ) -> Document {
        let head = Head::of(&document(self.node, path, body.clone(), Some(mtime)));
        let doc = Document { body, mtime, head };
        let seg = self.stripes.segment(key);
        if seg.lock().peek(key).is_some_and(|e| e.path != path) {
            // Hash collision: leave the resident entry in place — two
            // documents fighting over one slot would just thrash it. The
            // loser of the slot is served from disk, correctly, every time.
            self.collisions.fetch_add(1, Ordering::Relaxed);
        } else {
            // Replaces a stale entry; a body over the segment's share is
            // not cached, and its stale entry goes all the same.
            let size = doc.body.len() as u64;
            seg.put(key, size, Entry { doc: doc.clone(), path: path.to_string() });
        }
        doc
    }

    /// Look up a resident body by key — no filesystem stat, no disk
    /// fallback. Returns the body, its recorded mtime, and the canonical
    /// path it was cached under.
    pub fn get(&self, key: FileId) -> Option<(Bytes, SystemTime, String)> {
        let seg = self.stripes.segment(key);
        let found = {
            let mut lru = seg.lock();
            let entry = lru.touch(key)?;
            (entry.doc.body.clone(), entry.doc.mtime, entry.path.clone())
        };
        seg.hit();
        Some(found)
    }
}

impl std::fmt::Debug for FileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileCache")
            .field("segments", &self.stripes.segments().len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("used", &self.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn tmpfile(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("sweb-fc-{tag}-{}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn second_read_hits_memory() {
        let f = tmpfile("hit", b"hello world");
        let cache = FileCache::new(1 << 20);
        let (a, _) = cache.read("/hit", &f).unwrap();
        let (b, _) = cache.read("/hit", &f).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        let _ = std::fs::remove_file(&f);
    }

    #[test]
    fn modification_invalidates() {
        let f = tmpfile("mod", b"version one");
        let cache = FileCache::new(1 << 20);
        let (a, _) = cache.read("/mod", &f).unwrap();
        assert_eq!(&a[..], b"version one");
        // Rewrite with a strictly newer mtime.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&f, b"version two!").unwrap();
        let (b, _) = cache.read("/mod", &f).unwrap();
        assert_eq!(&b[..], b"version two!");
        assert_eq!(cache.misses(), 2, "stale entry must re-read");
        let _ = std::fs::remove_file(&f);
    }

    #[test]
    fn peek_then_touch_accounts_like_a_read_hit() {
        let f = tmpfile("peek", b"peek at me");
        let cache = FileCache::new(1 << 20);
        let key = key_of("/peek");
        assert!(cache.peek(key, "/peek").is_none());
        let (body, mtime) = cache.read("/peek", &f).unwrap();
        // The lookup itself moves no counter: the request may yet be
        // redirected, and only a served body is a hit.
        let peeked = cache.peek(key, "/peek").unwrap();
        assert_eq!((peeked.body, peeked.mtime), (body, mtime));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.touch(key);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same key, another path: a collision is never a resident body.
        assert!(cache.peek(key, "/other").is_none());
        let _ = std::fs::remove_file(&f);
    }

    #[test]
    fn capacity_bounds_and_eviction() {
        // Single segment: the old global-LRU semantics, verbatim.
        let cache = FileCache::with_segments(100, 1);
        let files: Vec<_> = (0..5)
            .map(|i| tmpfile(&format!("cap{i}"), &[b'x'; 40]))
            .collect();
        for (i, f) in files.iter().enumerate() {
            cache.read(&format!("/cap{i}"), f).unwrap();
            assert!(cache.used() <= 100);
        }
        // Only the two most recent 40-byte bodies fit.
        assert_eq!(cache.used(), 80);
        assert_eq!(cache.evictions(), 3, "three bodies must have been evicted");
        // Oldest entries miss again; newest hits.
        cache.read("/cap4", &files[4]).unwrap();
        assert_eq!(cache.hits(), 1);
        cache.read("/cap0", &files[0]).unwrap();
        assert_eq!(cache.misses(), 6);
        for f in files {
            let _ = std::fs::remove_file(&f);
        }
    }

    #[test]
    fn oversized_files_pass_through_uncached() {
        let f = tmpfile("big", &vec![b'y'; 512]);
        let cache = FileCache::new(100);
        let (a, _) = cache.read("/big", &f).unwrap();
        assert_eq!(a.len(), 512);
        assert_eq!(cache.used(), 0);
        cache.read("/big", &f).unwrap();
        assert_eq!(cache.misses(), 2, "oversized bodies never cache");
        let _ = std::fs::remove_file(&f);
    }

    #[test]
    fn missing_file_is_an_error_not_a_panic() {
        let cache = FileCache::new(100);
        assert!(cache.read("/gone", Path::new("/definitely/not/here")).is_err());
    }

    #[test]
    fn fileid_collision_serves_correct_bytes_not_the_cached_entry() {
        // Two distinct documents forced onto one FileId — the regression
        // this guards: the cache used to key purely on the hash and would
        // return /alpha's body for /beta.
        let fa = tmpfile("col-a", b"contents of alpha");
        let fb = tmpfile("col-b", b"BETA IS DIFFERENT");
        let cache = FileCache::new(1 << 20);
        let key = FileId(0xdead_beef);
        let a = cache.read_keyed(key, "/alpha", &fa).unwrap().body;
        assert_eq!(&a[..], b"contents of alpha");
        // Same key, different path: must come back with /beta's bytes.
        let b = cache.read_keyed(key, "/beta", &fb).unwrap().body;
        assert_eq!(&b[..], b"BETA IS DIFFERENT", "collision served the wrong body");
        assert_eq!(cache.collisions(), 1);
        // The resident entry survives and still serves /alpha correctly.
        let a2 = cache.read_keyed(key, "/alpha", &fa).unwrap().body;
        assert_eq!(&a2[..], b"contents of alpha");
        assert_eq!(cache.hits(), 1);
        // Repeated /beta reads stay correct (and stay collisions).
        let b2 = cache.read_keyed(key, "/beta", &fb).unwrap().body;
        assert_eq!(&b2[..], b"BETA IS DIFFERENT");
        assert_eq!(cache.collisions(), 2);
        let _ = std::fs::remove_file(&fa);
        let _ = std::fs::remove_file(&fb);
    }

    #[test]
    fn insert_keeps_the_resident_entry_on_a_collision_and_replaces_a_stale_one() {
        let cache = FileCache::with_segments(64, 1);
        let key = FileId(0xdead_beef);
        let (old, new) = (SystemTime::UNIX_EPOCH, SystemTime::UNIX_EPOCH + Duration::from_secs(9));
        let alpha = cache.insert(key, "/alpha", Bytes::from_static(b"alpha one"), old);
        assert_eq!(cache.peek(key, "/alpha").unwrap().body, alpha.body);
        // Same key, another path: served its own bytes and head, counted,
        // and the resident entry stays.
        let beta = cache.insert(key, "/beta", Bytes::from_static(b"BETA"), new);
        assert_eq!(&beta.body[..], b"BETA");
        let tail = String::from_utf8_lossy(beta.head.after_gap()).into_owned();
        assert!(tail.contains("Content-Length: 4\r\n"), "{tail}");
        assert_eq!(cache.collisions(), 1);
        assert!(cache.peek(key, "/beta").is_none(), "a colliding body replaced the entry");
        assert_eq!(cache.peek(key, "/alpha").unwrap().mtime, old);
        // The same path at a newer mtime replaces its stale entry.
        cache.insert(key, "/alpha", Bytes::from_static(b"alpha two"), new);
        let fresh = cache.peek(key, "/alpha").unwrap();
        assert_eq!((&fresh.body[..], fresh.mtime), (&b"alpha two"[..], new));
        assert_eq!((cache.collisions(), cache.used()), (1, 9));
        // A body over the stripe's share is served, not cached, and its
        // stale entry goes all the same.
        let big = cache.insert(key, "/alpha", Bytes::from(vec![b'z'; 65]), old);
        assert_eq!(big.body.len(), 65);
        assert!(cache.peek(key, "/alpha").is_none());
        assert_eq!(cache.used(), 0);
        // Inserting counts nothing: the request's lookup counted its miss.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn get_returns_a_resident_body_by_key() {
        let cache = FileCache::new(1 << 20);
        let f = tmpfile("get", b"resident body");
        let (body, mtime) = cache.read("/got", &f).unwrap();
        let (got, got_mtime, path) = cache.get(key_of("/got")).unwrap();
        assert_eq!((got, got_mtime, path.as_str()), (body, mtime, "/got"));
        // get() on a missing key is a clean None.
        assert!(cache.get(FileId(0x1)).is_none());
        let _ = std::fs::remove_file(&f);
    }

    #[test]
    fn capacity_is_split_across_segments() {
        let cache = FileCache::with_segments(800, 8);
        let segments = cache.stripes.segments();
        assert_eq!(segments.len(), 8);
        assert_eq!(cache.capacity(), 800);
        assert!(segments.iter().all(|s| s.lock().capacity() == 100));
        // Clamping: zero segments becomes one.
        assert_eq!(FileCache::with_segments(100, 0).stripes.segments().len(), 1);
    }

    #[test]
    fn concurrent_striped_reads_never_serve_wrong_bytes() {
        // The striped-cache property test: many threads hammering get /
        // insert across segments — including two documents *forced onto
        // one FileId* — must always receive the bytes of the path they
        // asked for, and no segment may ever exceed its capacity share.
        use std::sync::Arc;

        let n_docs = 16usize;
        let body_len = 64usize;
        // Room for roughly half the documents: constant eviction churn.
        let cache = Arc::new(FileCache::with_segments((n_docs * body_len / 2) as u64, 4));
        let files: Vec<(String, std::path::PathBuf, Vec<u8>)> = (0..n_docs)
            .map(|i| {
                let body = vec![b'a' + (i as u8 % 26); body_len];
                (format!("/p{i}"), tmpfile(&format!("prop{i}"), &body), body)
            })
            .collect();
        let files = Arc::new(files);
        // Forced-collision pair: distinct paths, one FileId.
        let col_key = FileId(0x0dd0_c0de);
        let col_a = tmpfile("prop-col-a", b"ALPHA-ALPHA-ALPHA");
        let col_b = tmpfile("prop-col-b", b"beta-beta-beta-bb");

        let threads: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let files = Arc::clone(&files);
                let (col_a, col_b) = (col_a.clone(), col_b.clone());
                std::thread::spawn(move || {
                    for round in 0..200 {
                        let (path, full, want) = &files[(t * 7 + round * 3) % files.len()];
                        let (got, _) = cache.read(path, full).unwrap();
                        assert_eq!(&got[..], &want[..], "wrong body for {path}");
                        // Interleave the forced-collision pair.
                        let (cp, cf, cw): (&str, &std::path::PathBuf, &[u8]) =
                            if (t + round) % 2 == 0 {
                                ("/col-a", &col_a, b"ALPHA-ALPHA-ALPHA")
                            } else {
                                ("/col-b", &col_b, b"beta-beta-beta-bb")
                            };
                        let got = cache.read_keyed(col_key, cp, cf).unwrap().body;
                        assert_eq!(&got[..], cw, "collision served the wrong body for {cp}");
                        // Segment shares are a hard bound at all times.
                        for (i, s) in cache.stripes.segments().iter().enumerate() {
                            let lru = s.lock();
                            assert!(
                                lru.used() <= lru.capacity(),
                                "segment {i} over its share: {} > {}",
                                lru.used(),
                                lru.capacity()
                            );
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(cache.hits() > 0, "the workload must produce some hits");
        assert!(cache.collisions() > 0, "forced collisions must be detected");
        assert!(cache.used() <= cache.capacity());

        for (_, f, _) in files.iter() {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_file(&col_a);
        let _ = std::fs::remove_file(&col_b);
    }
}
