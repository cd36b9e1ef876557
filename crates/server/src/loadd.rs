//! The loadd daemon over UDP: periodic load broadcasts, staleness marking.
//!
//! Three wire formats, all little-endian and single-datagram:
//!
//! * **legacy (v1), 29 bytes** —
//!   `[node_id: u32][cpu: f64][disk: f64][net: f64][leaving: u8]`;
//! * **v2, 64 bytes** — `b"SW"`, a version byte (2), the same 29-byte
//!   core, then a 32-byte [`CacheDigest`] of the sender's file cache;
//! * **v3, ≤ 129 bytes** — the v2 layout with version byte 3, then a
//!   count byte and up to [`MAX_HOT`] `u64` [`FileId`]s of the sender's
//!   hottest documents (its popularity counters' top-k). Receivers keep
//!   the list per peer; the replicator uses it to push hot files where
//!   demand already exists.
//!
//! The codec is versioned for rolling upgrades: v1 and v2 packets still
//! decode (their digest / hot list is simply absent, leaving the previous
//! value in the table), and a versioned packet misread by a v1 node
//! yields a node id far beyond any real cluster (`u32` of `"SW\x03…"`
//! ≈ 150 k), which the receiver's range check discards. The `leaving`
//! flag is a graceful-drain announcement: peers immediately take the
//! sender out of their candidate pools instead of waiting for the
//! staleness timeout.

use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweb_chaos::TxVerdict;
use sweb_cluster::{FileId, NodeId};
use sweb_core::{CacheDigest, LoadVector, PeerHealth, DIGEST_BYTES};

use crate::node::NodeShared;

/// Legacy (v1) datagram size.
pub const PACKET_LEN: usize = 4 + 8 * 3 + 1;

/// v2 datagram size: magic + version + the v1 core + the cache digest.
pub const PACKET_V2_LEN: usize = 3 + PACKET_LEN + DIGEST_BYTES;

/// Most hot-file ids a v3 packet carries.
pub const MAX_HOT: usize = 8;

/// Largest v3 datagram: the v2 layout + count byte + `MAX_HOT` ids.
pub const PACKET_V3_MAX: usize = PACKET_V2_LEN + 1 + MAX_HOT * 8;

const MAGIC: [u8; 2] = *b"SW";
const VERSION_V2: u8 = 2;
const VERSION: u8 = 3;

/// One decoded loadd report, whatever codec version carried it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Reporting node.
    pub node: NodeId,
    /// Its advertised load vector.
    pub load: LoadVector,
    /// Graceful-drain announcement.
    pub leaving: bool,
    /// Cache digest (`None` from legacy packets).
    pub digest: Option<CacheDigest>,
    /// The sender's hottest documents (empty from pre-v3 packets).
    pub hot: Vec<FileId>,
}

fn encode_core(buf: &mut [u8], node: NodeId, load: &LoadVector, leaving: bool) {
    buf[0..4].copy_from_slice(&node.0.to_le_bytes());
    buf[4..12].copy_from_slice(&load.cpu.to_le_bytes());
    buf[12..20].copy_from_slice(&load.disk.to_le_bytes());
    buf[20..28].copy_from_slice(&load.net.to_le_bytes());
    buf[28] = u8::from(leaving);
}

fn decode_core(buf: &[u8]) -> Option<(NodeId, LoadVector, bool)> {
    let node = NodeId(u32::from_le_bytes(buf[0..4].try_into().ok()?));
    let cpu = f64::from_le_bytes(buf[4..12].try_into().ok()?);
    let disk = f64::from_le_bytes(buf[12..20].try_into().ok()?);
    let net = f64::from_le_bytes(buf[20..28].try_into().ok()?);
    if !(cpu.is_finite() && disk.is_finite() && net.is_finite()) {
        return None;
    }
    Some((node, LoadVector::new(cpu, disk, net), buf[28] != 0))
}

/// Encode a legacy (v1) load report — what pre-digest nodes emit. The
/// live broadcaster now sends v2; this stays as the reference encoder
/// for the rolling-upgrade tests.
#[cfg_attr(not(test), allow(dead_code))]
pub fn encode(node: NodeId, load: &LoadVector, leaving: bool) -> [u8; PACKET_LEN] {
    let mut buf = [0u8; PACKET_LEN];
    encode_core(&mut buf, node, load, leaving);
    buf
}

/// Encode a v2 load report carrying the sender's cache digest.
pub fn encode_v2(
    node: NodeId,
    load: &LoadVector,
    leaving: bool,
    digest: &CacheDigest,
) -> [u8; PACKET_V2_LEN] {
    let mut buf = [0u8; PACKET_V2_LEN];
    buf[0..2].copy_from_slice(&MAGIC);
    buf[2] = VERSION_V2;
    encode_core(&mut buf[3..3 + PACKET_LEN], node, load, leaving);
    buf[3 + PACKET_LEN..].copy_from_slice(&digest.to_bytes());
    buf
}

/// Encode a v3 load report: the v2 layout plus the sender's hottest
/// documents (at most [`MAX_HOT`]; extras are silently dropped — the
/// list is advisory, not an inventory).
pub fn encode_v3(
    node: NodeId,
    load: &LoadVector,
    leaving: bool,
    digest: &CacheDigest,
    hot: &[FileId],
) -> Vec<u8> {
    let hot = &hot[..hot.len().min(MAX_HOT)];
    let mut buf = Vec::with_capacity(PACKET_V2_LEN + 1 + hot.len() * 8);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    let mut core = [0u8; PACKET_LEN];
    encode_core(&mut core, node, load, leaving);
    buf.extend_from_slice(&core);
    buf.extend_from_slice(&digest.to_bytes());
    buf.push(hot.len() as u8);
    for id in hot {
        buf.extend_from_slice(&id.0.to_le_bytes());
    }
    buf
}

/// Decode a load report of any known version; `None` for short, garbled,
/// or unknown-future-version packets.
pub fn decode(buf: &[u8]) -> Option<LoadReport> {
    if buf.len() >= 3 && buf[0..2] == MAGIC {
        // Versioned framing. An unknown version is from a newer node
        // whose layout we cannot guess — drop it (its digest would be
        // garbage), staleness marking tolerates the gap.
        if !(buf[2] == VERSION_V2 || buf[2] == VERSION) || buf.len() < PACKET_V2_LEN {
            return None;
        }
        let (node, load, leaving) = decode_core(&buf[3..3 + PACKET_LEN])?;
        let digest = CacheDigest::from_bytes(&buf[3 + PACKET_LEN..PACKET_V2_LEN])?;
        let hot = if buf[2] == VERSION {
            let count = *buf.get(PACKET_V2_LEN)? as usize;
            if count > MAX_HOT || buf.len() < PACKET_V2_LEN + 1 + count * 8 {
                return None;
            }
            (0..count)
                .map(|i| {
                    let at = PACKET_V2_LEN + 1 + i * 8;
                    Some(FileId(u64::from_le_bytes(buf[at..at + 8].try_into().ok()?)))
                })
                .collect::<Option<Vec<_>>>()?
        } else {
            Vec::new()
        };
        return Some(LoadReport { node, load, leaving, digest: Some(digest), hot });
    }
    if buf.len() < PACKET_LEN {
        return None;
    }
    let (node, load, leaving) = decode_core(&buf[..PACKET_LEN])?;
    Some(LoadReport { node, load, leaving, digest: None, hot: Vec::new() })
}

/// Sample this node's live load vector from its activity gauges.
pub fn sample_load(shared: &NodeShared) -> LoadVector {
    let active = shared.stats.active.get().max(0) as f64;
    let net = shared.stats.bytes_in_flight.get().max(0) as f64 / 1e6;
    // Disk pressure tracks concurrent fulfillments; on a localhost cluster
    // the OS page cache absorbs reads, so active requests is the best
    // observable proxy for the disk channel too. A sharded node divides
    // the CPU/disk queue depth by its shard count: k concurrent jobs over
    // p per-core loops is depth k/p, the analytic model's per-node
    // capacity p made visible to the scheduler.
    LoadVector::new(active, active, net).normalized_by(shared.shards)
}

/// Write a membership-churn line to the shared access log, CLF-shaped so
/// operator tooling (and `sweb_workload::parse_clf`) reads it alongside
/// request lines: `n0 ... "MEMBER /membership/n2/dead HTTP/1.0" 204 0`.
pub(crate) fn log_membership(shared: &NodeShared, peer: NodeId, event: &str) {
    if let Some(log) = &shared.access_log {
        log.log(
            &format!("n{}", shared.id.0),
            "MEMBER",
            &format!("/membership/n{}/{}", peer.0, event),
            204,
            0,
            None,
        );
    }
}

/// Apply one staleness sweep and surface the churn: counters plus one
/// membership log line per transition, so operator logs show exactly when
/// this node's view demoted each peer.
fn sweep_staleness(shared: &NodeShared) {
    let now = shared.now();
    // Two silent periods before suspicion, not one: the sweep runs at this
    // node's own period boundary, so a healthy peer's latest report is
    // routinely almost a full period old and a 1x threshold flaps
    // Suspect/Alive on scheduling jitter alone.
    let suspect_after = shared.sweb.loadd_period + shared.sweb.loadd_period;
    let timeout = shared.sweb.stale_timeout;
    let churn = shared.loads.write().mark_stale(now, suspect_after, timeout);
    for peer in churn.suspected {
        shared.stats.peer_suspect.inc();
        log_membership(shared, peer, "suspect");
    }
    for peer in churn.died {
        shared.stats.peer_dead.inc();
        if shared.overload_control {
            // Don't wait for failed forwards to trip the breaker: a peer
            // that stopped reporting load is already not answering.
            shared.breakers.force_open(peer);
        }
        log_membership(shared, peer, "dead");
    }
}

/// One node's loadd, run by its shard 0 loop as part of the node's
/// [`sweb_reactor::Service`]: the UDP socket it drains when readable, and
/// the timer it keeps — the next broadcast, which runs the staleness
/// sweep, and any packet a fault plan delays.
pub(crate) struct Daemon {
    shared: Arc<NodeShared>,
    udp: UdpSocket,
    period: Duration,
    next_broadcast: Instant,
    delayed: Vec<(Instant, SocketAddr, Vec<u8>)>,
}

impl Daemon {
    /// loadd for `shared`'s node on `udp`. The first broadcast goes out
    /// the first time it [`Daemon::tick`]s.
    pub(crate) fn new(shared: Arc<NodeShared>, udp: UdpSocket) -> std::io::Result<Daemon> {
        udp.set_nonblocking(true)?;
        let period = Duration::from_micros(shared.sweb.loadd_period.as_micros());
        Ok(Daemon { shared, udp, period, next_broadcast: Instant::now(), delayed: Vec::new() })
    }

    /// The socket the loop watches.
    pub(crate) fn fd(&self) -> RawFd {
        self.udp.as_raw_fd()
    }

    /// Send what has come due — delayed packets, and once a period the
    /// broadcast and the staleness sweep — and say when to come back.
    pub(crate) fn tick(&mut self) -> Instant {
        let now = Instant::now();
        let udp = &self.udp;
        self.delayed.retain(|(due, addr, pkt)| {
            if *due > now {
                return true;
            }
            let _ = udp.send_to(pkt, addr);
            false
        });
        if now >= self.next_broadcast {
            self.next_broadcast = now + self.period;
            self.broadcast(now);
            sweep_staleness(&self.shared);
        }
        self.delayed.iter().map(|(due, _, _)| *due).fold(self.next_broadcast, Instant::min)
    }

    /// Send this node's load to every peer, itself included (which keeps
    /// the code uniform).
    fn broadcast(&mut self, now: Instant) {
        let shared = &self.shared;
        let load = sample_load(shared);
        let leaving = shared.draining.load(Ordering::Relaxed);
        let digest = shared.file_cache.digest();
        let hot = shared.popularity.hot_ids(MAX_HOT);
        let pkt = encode_v3(shared.id, &load, leaving, &digest, &hot);
        let me = shared.id.0;
        for (peer, addr) in shared.peer_udp.iter().enumerate() {
            // Self-reports bypass injection: a node always knows its own
            // load; chaos models the *network* between distinct nodes.
            let verdict = if peer as u32 == me || !shared.chaos.is_active() {
                TxVerdict::Deliver
            } else {
                shared.chaos.loadd_tx(me, peer as u32)
            };
            match verdict {
                TxVerdict::Deliver => {
                    let _ = self.udp.send_to(&pkt, addr);
                }
                TxVerdict::Drop => {}
                TxVerdict::Delay(d) => self.delayed.push((now + d, *addr, pkt.clone())),
            }
        }
    }

    /// Fold every report waiting on the socket into the load table.
    pub(crate) fn receive(&self) {
        let mut buf = [0u8; PACKET_V3_MAX + 64]; // headroom for trailing junk
        loop {
            match self.udp.recv_from(&mut buf) {
                Ok((n, _)) => self.fold(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return, // drained (`WouldBlock`)
            }
        }
    }

    /// Fold one report into the load table. Decode failures — garbage
    /// bytes, short datagrams, node ids beyond the table — are counted
    /// instead of silently dropped, so a partition-era config mismatch
    /// (or a chaos garbling) is visible in telemetry.
    fn fold(&self, pkt: &[u8]) {
        let shared = &self.shared;
        let Some(report) = decode(pkt) else {
            shared.stats.loadd_decode_errors.inc();
            return;
        };
        let LoadReport { node, load, leaving, digest, hot } = report;
        if node.index() >= shared.loads.read().len() {
            shared.stats.loadd_decode_errors.inc();
            return;
        }
        let now = shared.now();
        let prev = {
            let mut loads = shared.loads.write();
            if leaving && node != shared.id {
                loads.mark_dead(node)
            } else {
                let prev = loads.update(node, load, now);
                if let Some(d) = digest {
                    loads.set_digest(node, d);
                }
                prev
            }
        };
        if node == shared.id {
            return;
        }
        // Remember the peer's advertised hot list (v3); pre-v3 packets
        // and nodes without a replicator leave the previous list alone.
        if !hot.is_empty() {
            shared.peer_hot.write()[node.index()] = hot;
        }
        if leaving {
            if prev != PeerHealth::Dead {
                shared.stats.peer_dead.inc();
                if shared.overload_control {
                    shared.breakers.force_open(node);
                }
                log_membership(shared, node, "dead");
            }
        } else if prev != PeerHealth::Alive {
            shared.stats.peer_revived.inc();
            log_membership(shared, node, "revived");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_codec_round_trip() {
        let load = LoadVector::new(3.5, 1.25, 0.125);
        let pkt = encode(NodeId(7), &load, false);
        let r = decode(&pkt).unwrap();
        assert_eq!(r.node, NodeId(7));
        assert_eq!(r.load, load);
        assert!(!r.leaving);
        assert_eq!(r.digest, None, "v1 packets carry no digest");
        let pkt = encode(NodeId(7), &load, true);
        assert!(decode(&pkt).unwrap().leaving, "leaving flag must round-trip");
    }

    #[test]
    fn v2_codec_round_trips_digest() {
        use sweb_cluster::FileId;
        let load = LoadVector::new(0.5, 2.0, 0.25);
        let mut digest = CacheDigest::default();
        digest.insert(FileId(42));
        digest.insert(FileId(1729));
        let pkt = encode_v2(NodeId(3), &load, false, &digest);
        assert_eq!(pkt.len(), PACKET_V2_LEN);
        let r = decode(&pkt).unwrap();
        assert_eq!(r.node, NodeId(3));
        assert_eq!(r.load, load);
        assert!(!r.leaving);
        let d = r.digest.expect("v2 packet must carry a digest");
        assert!(d.contains(FileId(42)) && d.contains(FileId(1729)));
        assert!(decode(&encode_v2(NodeId(3), &load, true, &digest)).unwrap().leaving);
    }

    #[test]
    fn old_version_packets_still_decode() {
        // A pre-digest node's 29-byte packet decodes on an upgraded node.
        let pkt = encode(NodeId(2), &LoadVector::new(1.0, 2.0, 3.0), false);
        assert_eq!(pkt.len(), PACKET_LEN);
        let r = decode(&pkt).unwrap();
        assert_eq!(r.node, NodeId(2));
        assert_eq!(r.load.disk, 2.0);
        assert_eq!(r.digest, None);
    }

    #[test]
    fn unknown_future_version_is_dropped() {
        let mut pkt = encode_v2(NodeId(1), &LoadVector::IDLE, false, &CacheDigest::EMPTY);
        pkt[2] = 4; // a version this node does not understand
        assert!(decode(&pkt).is_none());
        // Truncated v2 frame: magic present but payload short.
        let good = encode_v2(NodeId(1), &LoadVector::IDLE, false, &CacheDigest::EMPTY);
        assert!(decode(&good[..PACKET_V2_LEN - 1]).is_none());
    }

    #[test]
    fn v3_codec_round_trips_hot_list() {
        use sweb_cluster::FileId;
        let load = LoadVector::new(1.0, 0.5, 0.25);
        let mut digest = CacheDigest::default();
        digest.insert(FileId(9));
        let hot = vec![FileId(9), FileId(1729), FileId(u64::MAX)];
        let pkt = encode_v3(NodeId(4), &load, false, &digest, &hot);
        assert!(pkt.len() <= PACKET_V3_MAX);
        let r = decode(&pkt).unwrap();
        assert_eq!(r.node, NodeId(4));
        assert_eq!(r.load, load);
        assert_eq!(r.hot, hot, "hot list must round-trip in order");
        assert!(r.digest.unwrap().contains(FileId(9)));
        // Empty hot list is legal and one byte longer than v2.
        let pkt = encode_v3(NodeId(4), &load, false, &digest, &[]);
        assert_eq!(pkt.len(), PACKET_V2_LEN + 1);
        assert!(decode(&pkt).unwrap().hot.is_empty());
    }

    #[test]
    fn v3_caps_and_validates_the_hot_list() {
        use sweb_cluster::FileId;
        // Oversupplied list is truncated to MAX_HOT at encode time.
        let many: Vec<FileId> = (0..20).map(FileId).collect();
        let pkt = encode_v3(NodeId(0), &LoadVector::IDLE, false, &CacheDigest::EMPTY, &many);
        assert_eq!(pkt.len(), PACKET_V3_MAX);
        assert_eq!(decode(&pkt).unwrap().hot.len(), MAX_HOT);
        // A count byte promising more ids than the datagram carries is
        // garbage, not a partial list.
        let mut short = encode_v3(
            NodeId(0),
            &LoadVector::IDLE,
            false,
            &CacheDigest::EMPTY,
            &[FileId(1), FileId(2)],
        );
        short.truncate(short.len() - 8);
        assert!(decode(&short).is_none());
        // A count beyond MAX_HOT is from no encoder of ours.
        let mut bad = encode_v3(NodeId(0), &LoadVector::IDLE, false, &CacheDigest::EMPTY, &[]);
        bad[PACKET_V2_LEN] = (MAX_HOT + 1) as u8;
        bad.extend_from_slice(&[0u8; (MAX_HOT + 1) * 8]);
        assert!(decode(&bad).is_none());
    }

    #[test]
    fn v2_misread_as_v1_is_range_rejected() {
        // A v1 node parses a v2 packet's magic+version as a node id; that
        // id must be far beyond any realistic cluster so the receiver's
        // range check (`node.index() < table len`) discards it.
        let pkt = encode_v2(NodeId(0), &LoadVector::IDLE, false, &CacheDigest::EMPTY);
        let misread = u32::from_le_bytes(pkt[0..4].try_into().unwrap());
        assert!(misread > 100_000, "magic must not alias a plausible node id: {misread}");
    }

    #[test]
    fn decode_rejects_short_and_nan() {
        assert!(decode(&[0u8; 10]).is_none());
        let mut pkt = encode(NodeId(1), &LoadVector::IDLE, false);
        pkt[4..12].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode(&pkt).is_none());
        let mut pkt = encode_v2(NodeId(1), &LoadVector::IDLE, false, &CacheDigest::EMPTY);
        pkt[3 + 4..3 + 12].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode(&pkt).is_none());
    }

    #[test]
    fn decode_tolerates_trailing_bytes() {
        let mut long = encode(NodeId(2), &LoadVector::new(1.0, 2.0, 3.0), false).to_vec();
        long.extend_from_slice(b"junk");
        let r = decode(&long).unwrap();
        assert_eq!(r.node, NodeId(2));
        assert_eq!(r.load.disk, 2.0);
    }

    use proptest::prelude::*;

    proptest! {
        /// Every codec version returns what it was given; v1 carries no
        /// digest, v1 and v2 no hot list, v3 the first `MAX_HOT` ids.
        #[test]
        fn every_version_round_trips(
            // A v1 packet starts with the bare id, so an id whose low
            // bytes spell "SW" reads as versioned framing; the smallest
            // is 22,355, beyond any cluster's table.
            node in 0u32..20_000,
            load in (any::<f64>(), any::<f64>(), any::<f64>()),
            leaving in any::<bool>(),
            digest in proptest::collection::vec(any::<u8>(), DIGEST_BYTES),
            hot in proptest::collection::vec(any::<u64>(), 0..20),
        ) {
            let node = NodeId(node);
            let load = LoadVector::new(load.0, load.1, load.2);
            let digest = CacheDigest::from_bytes(&digest).expect("DIGEST_BYTES bytes");
            let hot: Vec<FileId> = hot.into_iter().map(FileId).collect();
            let mut want = LoadReport { node, load, leaving, digest: None, hot: Vec::new() };
            prop_assert_eq!(decode(&encode(node, &load, leaving)), Some(want.clone()));
            want.digest = Some(digest);
            prop_assert_eq!(decode(&encode_v2(node, &load, leaving, &digest)), Some(want.clone()));
            want.hot = hot[..hot.len().min(MAX_HOT)].to_vec();
            let v3 = encode_v3(node, &load, leaving, &digest, &hot);
            prop_assert!(v3.len() <= PACKET_V3_MAX);
            prop_assert_eq!(decode(&v3), Some(want));
        }

        /// Arbitrary datagrams never panic the decoder, and one it
        /// accepts holds only finite loads and a bounded hot list.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..2 * PACKET_V3_MAX),
            versioned in any::<bool>(),
            version in any::<u8>(),
        ) {
            let mut bytes = bytes;
            if versioned && bytes.len() >= 3 {
                // Get past the magic so the versioned branches are reached.
                bytes[..2].copy_from_slice(&MAGIC);
                bytes[2] = version % 6;
            }
            let decoded = decode(&bytes);
            if let Some(r) = &decoded {
                prop_assert!(r.load.cpu.is_finite() && r.load.disk.is_finite());
                prop_assert!(r.load.net.is_finite() && r.hot.len() <= MAX_HOT);
            }
            if versioned && bytes.len() >= 3 && !matches!(bytes[2], VERSION_V2 | VERSION) {
                prop_assert_eq!(decoded, None, "version {} is not ours", bytes[2]);
            }
        }
    }
}
