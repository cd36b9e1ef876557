//! The node side of the peer transfer channel (`sweb-peer`): a
//! per-node TCP listener speaking the length-prefixed frame protocol,
//! the client path the broker's `PeerFetch` route uses to pull a
//! document from a peer's RAM, and the digest-driven replicator that
//! pushes hot documents to underloaded peers ahead of demand.
//!
//! The channel is cluster-internal: clients never see it. A pull serves
//! the request on the node the client reached (zero 302s on that path)
//! and seeds the origin's striped cache, so repeats become local hits.
//! Every failure degrades — to a classic redirect or a local NFS read —
//! never to a hang: all channel I/O is deadline-bounded, and a garbled
//! frame is counted (`peer_frames_bad`) and the connection dropped, not
//! the node.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use sweb_chaos::TxVerdict;
use sweb_cluster::{FileId, NodeId};
use sweb_peer::{fetch_err, read_frame_or_idle, write_frame, FetchedDoc, Frame, PeerError};

use crate::file_cache::key_of;
use crate::node::NodeShared;

/// Most entries the popularity table keeps; beyond it, recording a new
/// file evicts the coldest entry (the table tracks the head of the Zipf
/// curve, not the tail).
const POPULARITY_CAP: usize = 512;

/// Requests a file must have seen since the last decay before the
/// replicator considers it hot.
const HOT_THRESHOLD: u64 = 4;

/// Most files the replicator pushes per sweep (bounds the burst a sweep
/// can put on the interconnect).
const PUSHES_PER_SWEEP: usize = 4;

/// Wall-clock bound on one replication PUSH.
const PUSH_DEADLINE: Duration = Duration::from_millis(500);

/// How long an idle peer connection waits per poll before re-checking
/// the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long the peer listener goes unwatched after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Per-file request counters, feeding loadd's v3 hot list and the
/// replicator's push decisions. Counts decay by half each replicator
/// sweep, so "hot" means *recently* hot. A node whose replicator does not
/// run keeps no table: nothing would decay it, and nothing but the hot
/// list would read it, so `record` returns at once and the list is empty.
pub struct Popularity {
    inner: Option<Mutex<HashMap<FileId, (u64, String)>>>,
}

impl Popularity {
    /// An empty table; `replicating: false` gives one that records nothing.
    pub fn new(replicating: bool) -> Popularity {
        Popularity { inner: replicating.then(|| Mutex::new(HashMap::new())) }
    }

    /// Count one request for `path`. When the table is full, a new file
    /// replaces the current coldest entry — a hot file always finds room.
    pub fn record(&self, file: FileId, path: &str) {
        let Some(inner) = &self.inner else { return };
        let mut inner = inner.lock();
        if let Some(slot) = inner.get_mut(&file) {
            slot.0 += 1;
            return;
        }
        if inner.len() >= POPULARITY_CAP {
            if let Some((&coldest, _)) = inner.iter().min_by_key(|(_, (n, _))| *n) {
                inner.remove(&coldest);
            }
        }
        inner.insert(file, (1, path.to_string()));
    }

    /// The `k` hottest files, hottest first, with their paths and counts.
    pub fn hot(&self, k: usize) -> Vec<(FileId, String, u64)> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let inner = inner.lock();
        let mut all: Vec<_> =
            inner.iter().map(|(f, (n, p))| (*f, p.clone(), *n)).collect();
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)));
        all.truncate(k);
        all
    }

    /// The `k` hottest FileIds (for the loadd report's hot list).
    pub fn hot_ids(&self, k: usize) -> Vec<FileId> {
        self.hot(k).into_iter().map(|(f, _, _)| f).collect()
    }

    /// Halve every count (dropping entries that reach zero): the ageing
    /// step between replicator sweeps.
    pub fn decay(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().retain(|_, (n, _)| {
            *n /= 2;
            *n > 0
        });
    }
}

/// The peer channel's listener, watched by shard 0's loop. It hands each
/// peer connection to its own service thread (peers are few and their
/// connections persistent, so thread-per-peer is cheap).
pub(crate) struct PeerListener {
    shared: Arc<NodeShared>,
    listener: TcpListener,
    /// Set when `accept` failed for want of something (`EMFILE`): the
    /// listener stays readable, so it goes unwatched until then.
    parked_until: Option<Instant>,
}

impl PeerListener {
    /// Watch `listener` for `shared`'s node.
    pub(crate) fn new(shared: Arc<NodeShared>, listener: TcpListener) -> io::Result<PeerListener> {
        listener.set_nonblocking(true)?;
        Ok(PeerListener { shared, listener, parked_until: None })
    }

    /// The fd to watch; `None` while parked.
    pub(crate) fn fd(&self) -> Option<RawFd> {
        self.parked_until.is_none().then(|| self.listener.as_raw_fd())
    }

    /// Accept every pending peer connection.
    pub(crate) fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || serve_peer_conn(shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.parked_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    /// When a parked listener is watched again; unparks it once that
    /// time has come.
    pub(crate) fn parked_until(&mut self, now: Instant) -> Option<Instant> {
        self.parked_until = self.parked_until.filter(|until| *until > now);
        self.parked_until
    }
}

/// Serve one peer connection until it closes, the node shuts down, or a
/// frame fails to decode. Garbled framing is unrecoverable mid-stream
/// (the length prefix is gone), so a bad frame is counted and the
/// connection dropped; the peer's pool re-dials.
fn serve_peer_conn(shared: Arc<NodeShared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    while !shared.shutdown.load(Ordering::Relaxed) {
        let frame = match read_frame_or_idle(&mut stream) {
            Ok(None) => continue, // idle poll; re-check shutdown
            Ok(Some(frame)) => frame,
            Err(PeerError::Closed) => return,
            Err(PeerError::Io(_)) => return,
            Err(PeerError::Protocol(_)) | Err(PeerError::Refused(_)) => {
                shared.stats.peer_frames_bad.inc();
                return;
            }
        };
        let reply = match frame {
            Frame::FetchReq { file, trace, path } => serve_fetch(&shared, file, &trace, &path),
            Frame::Push { file, mtime_ns, path, body } => {
                serve_push(&shared, file, mtime_ns, &path, body)
            }
            // FETCH_OK / FETCH_ERR / PUSH_OK are replies; a peer sending
            // one unprompted is confused — count it and drop the stream.
            _ => {
                shared.stats.peer_frames_bad.inc();
                return;
            }
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Answer one FETCH: the document body from this node's cache (RAM)
/// when resident, from the shared docroot otherwise. The serving is
/// logged CLF-style under the `PEER` method with the *originating*
/// request's trace id, so one logical request joins across both nodes'
/// logs.
fn serve_fetch(shared: &NodeShared, file: u64, trace: &str, path: &str) -> Frame {
    if shared.draining.load(Ordering::Relaxed) || shared.shutdown.load(Ordering::Relaxed) {
        return Frame::FetchErr { code: fetch_err::UNAVAILABLE };
    }
    // Peer-serving work is shed before anything client-facing: the
    // pulling node degrades to a 302 or its own NFS read, so refusing
    // here costs the cluster the least of any admission class.
    if shared.overload_control && !shared.admission.admit(sweb_core::AdmitClass::PeerServe) {
        shared.admission.shed();
        shared.stats.admission_shed_counter(sweb_core::AdmitClass::PeerServe).inc();
        return Frame::FetchErr { code: fetch_err::UNAVAILABLE };
    }
    // The same traversal guard the HTTP path applies: the path must be
    // absolute and stay inside the docroot.
    let rel = path.trim_start_matches('/');
    if !path.starts_with('/')
        || rel.is_empty()
        || path.split('/').any(|seg| seg == "..")
        || key_of(path) != FileId(file)
    {
        shared.stats.peer_frames_bad.inc();
        return Frame::FetchErr { code: fetch_err::NOT_FOUND };
    }
    let (body, mtime) = match cached_or_disk(shared, FileId(file), path) {
        Some(found) => found,
        None => return Frame::FetchErr { code: fetch_err::NOT_FOUND },
    };
    if body.len() as u64 > sweb_peer::MAX_PAYLOAD as u64 / 2 {
        return Frame::FetchErr { code: fetch_err::TOO_LARGE };
    }
    if let Some(log) = &shared.access_log {
        log.log(
            &format!("n{}", shared.id.0),
            "PEER",
            path,
            200,
            body.len() as u64,
            (!trace.is_empty()).then_some(trace),
        );
    }
    Frame::FetchOk {
        file,
        mtime_ns: sweb_peer::mtime_to_ns(mtime),
        body: body.to_vec(),
    }
}

/// The document for a FETCH: straight from the striped cache when the
/// resident entry's path matches, else a (cache-filling) docroot read.
fn cached_or_disk(
    shared: &NodeShared,
    file: FileId,
    path: &str,
) -> Option<(Bytes, std::time::SystemTime)> {
    if let Some((body, mtime, cached_path)) = shared.file_cache.get(file) {
        if cached_path == path {
            return Some((body, mtime));
        }
    }
    let full = shared.docroot.join(path.trim_start_matches('/'));
    if !full.is_file() {
        return None;
    }
    shared.file_cache.read(path, &full).ok()
}

/// Accept (or decline) one replication PUSH into the striped cache.
/// A key/path mismatch is a protocol violation — counted, declined.
fn serve_push(shared: &NodeShared, file: u64, mtime_ns: u64, path: &str, body: Vec<u8>) -> Frame {
    if key_of(path) != FileId(file) || path.split('/').any(|seg| seg == "..") {
        shared.stats.peer_frames_bad.inc();
        return Frame::PushOk { accepted: false };
    }
    if shared.draining.load(Ordering::Relaxed) {
        return Frame::PushOk { accepted: false };
    }
    let accepted = shared.file_cache.insert(
        path,
        Bytes::from(body),
        sweb_peer::ns_to_mtime(mtime_ns),
    );
    if accepted {
        shared.stats.pushes_received.inc();
    }
    Frame::PushOk { accepted }
}

/// Pull `path` from `source` over the pooled peer channel, bounded by
/// `deadline`. Injected peer-channel faults apply here: a blackholed
/// pair fails immediately (the caller degrades to redirect/local), a
/// delayed pair pays the delay first.
///
/// The per-peer circuit breaker wraps the whole attempt: an open breaker
/// fails in microseconds instead of burning the forward deadline against
/// a peer that has stopped answering, failures (including injected
/// drops) feed the trip counter, and successes deposit into the peer's
/// retry budget.
pub fn fetch_via_peer(
    shared: &NodeShared,
    source: NodeId,
    file: FileId,
    path: &str,
    trace: &str,
    deadline: Duration,
) -> Result<FetchedDoc, PeerError> {
    let guarded = shared.overload_control;
    if guarded && !shared.breakers.allow(source) {
        return Err(PeerError::Io(std::io::Error::other("peer circuit breaker open")));
    }
    // The latency clock starts before fault injection on purpose: an
    // injected channel delay is indistinguishable from a congested peer,
    // and must count toward the slow-success trip condition.
    let started = Instant::now();
    if shared.chaos.is_active() {
        match shared.chaos.peer_tx(source.0, shared.id.0) {
            TxVerdict::Deliver => {}
            TxVerdict::Drop => {
                if guarded {
                    shared.breakers.record_failure(source);
                }
                return Err(PeerError::Io(std::io::Error::other("injected peer-channel loss")));
            }
            TxVerdict::Delay(d) => std::thread::sleep(d),
        }
    }
    let result = shared.peer_pool.fetch(source.index(), file.0, path, trace, deadline);
    if guarded {
        match &result {
            Ok(_) => {
                shared.breakers.record_success(source, started.elapsed().as_micros() as u64);
                if let Some(budget) = shared.peer_retry_budgets.get(source.index()) {
                    budget.on_success();
                }
            }
            // An explicit refusal (draining, shedding, not found) is the
            // peer *answering* — the channel works; don't trip on it.
            Err(PeerError::Refused(_)) => {}
            Err(_) => shared.breakers.record_failure(source),
        }
    }
    result
}

/// Spawn the replicator: every two loadd periods, push this node's hot
/// resident documents to Alive peers that (a) don't have them yet (their
/// Bloom digest misses) and (b) are no more loaded than we are —
/// preferring peers whose own advertised hot list names the file, i.e.
/// where demand already exists.
pub fn spawn_replicator(shared: Arc<NodeShared>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let period = Duration::from_micros(2 * shared.sweb.loadd_period.as_micros());
        let tick = Duration::from_millis(10);
        let mut next_sweep = Instant::now() + period;
        while !shared.shutdown.load(Ordering::Relaxed) {
            if Instant::now() < next_sweep {
                std::thread::sleep(tick);
                continue;
            }
            next_sweep = Instant::now() + period;
            replication_sweep(&shared);
            shared.popularity.decay();
        }
    })
}

/// One replication pass; separated from the thread loop so tests can
/// drive it synchronously.
pub fn replication_sweep(shared: &NodeShared) {
    let hot = shared.popularity.hot(PUSHES_PER_SWEEP);
    let mut budget = PUSHES_PER_SWEEP;
    for (file, path, count) in hot {
        if budget == 0 || count < HOT_THRESHOLD {
            break;
        }
        // Only resident documents replicate: the body must come from RAM
        // (pushing a disk read would just move the NFS load around).
        let Some((body, mtime, cached_path)) = shared.file_cache.get(file) else {
            continue;
        };
        if cached_path != path {
            continue;
        }
        let Some(target) = pick_push_target(shared, file) else {
            continue;
        };
        if shared.chaos.is_active() {
            match shared.chaos.peer_tx(shared.id.0, target.0) {
                TxVerdict::Deliver => {}
                TxVerdict::Drop => continue,
                TxVerdict::Delay(d) => std::thread::sleep(d),
            }
        }
        if let Ok(true) =
            shared.peer_pool.push(target.index(), file.0, &path, mtime, &body, PUSH_DEADLINE)
        {
            shared.stats.pushes_sent.inc();
            budget -= 1;
        }
    }
}

/// Where to push one hot file: an Alive peer whose digest lacks it and
/// whose CPU load does not exceed ours. Peers that advertise the file in
/// their own hot list (they see demand for it) win; ties go to the least
/// loaded.
fn pick_push_target(shared: &NodeShared, file: FileId) -> Option<NodeId> {
    let loads = shared.loads.read();
    let own_cpu = loads.load(shared.id).cpu;
    let peer_hot = shared.peer_hot.read();
    let mut best: Option<(bool, f64, NodeId)> = None;
    for candidate in loads.candidates() {
        if candidate == shared.id || loads.digest(candidate).contains(file) {
            continue;
        }
        let cpu = loads.load(candidate).cpu;
        if cpu > own_cpu {
            continue;
        }
        let wants = peer_hot
            .get(candidate.index())
            .is_some_and(|hot| hot.contains(&file));
        let better = match &best {
            None => true,
            Some((best_wants, best_cpu, _)) => {
                (wants && !best_wants) || (wants == *best_wants && cpu < *best_cpu)
            }
        };
        if better {
            best = Some((wants, cpu, candidate));
        }
    }
    best.map(|(_, _, node)| node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_counts_and_ranks() {
        let p = Popularity::new(true);
        for _ in 0..5 {
            p.record(FileId(1), "/a");
        }
        for _ in 0..3 {
            p.record(FileId(2), "/b");
        }
        p.record(FileId(3), "/c");
        let hot = p.hot(2);
        assert_eq!(hot.len(), 2);
        assert_eq!((hot[0].0, hot[0].2), (FileId(1), 5));
        assert_eq!(hot[0].1, "/a");
        assert_eq!(hot[1].0, FileId(2));
        assert_eq!(p.hot_ids(10), vec![FileId(1), FileId(2), FileId(3)]);
    }

    #[test]
    fn popularity_decays_to_nothing() {
        let p = Popularity::new(true);
        for _ in 0..4 {
            p.record(FileId(7), "/hot");
        }
        p.decay();
        assert_eq!(p.hot(1)[0].2, 2);
        p.decay();
        p.decay();
        assert!(p.hot(1).is_empty(), "counts must age out entirely");
    }

    #[test]
    fn popularity_cap_evicts_the_coldest() {
        let p = Popularity::new(true);
        for i in 0..POPULARITY_CAP {
            p.record(FileId(i as u64), "/warm");
            p.record(FileId(i as u64), "/warm");
        }
        // A brand-new file still finds room (some 2-count entry goes).
        p.record(FileId(999_999), "/new");
        let ids = p.hot_ids(POPULARITY_CAP + 1);
        assert_eq!(ids.len(), POPULARITY_CAP);
        assert!(ids.contains(&FileId(999_999)));
    }

    /// The hot list a node's broadcast would carry after serving `/a`
    /// three times and `/b` once.
    fn advertised(replicating: bool) -> Vec<FileId> {
        use sweb_core::{CacheDigest, LoadReport, LoadVector, MAX_HOT};
        let p = Popularity::new(replicating);
        for (file, path) in [(1, "/a"), (1, "/a"), (2, "/b"), (1, "/a")] {
            p.record(FileId(file), path);
        }
        let report = LoadReport {
            node: NodeId(0),
            load: LoadVector::IDLE,
            leaving: false,
            digest: CacheDigest::EMPTY,
            hot: p.hot_ids(MAX_HOT),
        };
        LoadReport::decode(&report.encode()).expect("a loadd packet").hot
    }

    #[test]
    fn with_the_replicator_a_node_advertises_what_it_served() {
        assert_eq!(advertised(true), vec![FileId(1), FileId(2)]);
    }

    #[test]
    fn without_the_replicator_a_node_records_nothing_and_advertises_an_empty_list() {
        // Nothing would decay the counts, so a kept table would advertise
        // all-time counts; the request path pays no lock for it either.
        let p = Popularity::new(false);
        p.record(FileId(1), "/a");
        p.decay();
        assert!(p.hot(8).is_empty());
        assert_eq!(advertised(false), vec![]);
    }
}
