//! The loadd core (`sweb_core::Loadd`): its one wire format, and what a
//! broadcast and a received report do to a load table.

use proptest::prelude::*;
use sweb_cluster::{FileId, NodeId};
use sweb_core::{
    CacheDigest, LoadReport, LoadTable, LoadVector, Loadd, PeerHealth, SwebConfig, DIGEST_BYTES,
    MAX_HOT, PACKET_MAX,
};
use sweb_des::SimTime;

/// Offset of the hot list's count byte.
const COUNT_AT: usize = PACKET_MAX - 1 - MAX_HOT * 8;

fn report(node: u32, leaving: bool, hot: &[u64]) -> LoadReport {
    LoadReport {
        node: NodeId(node),
        load: LoadVector::new(1.0, 0.5, 0.25),
        leaving,
        digest: CacheDigest::EMPTY,
        hot: hot.iter().copied().map(FileId).collect(),
    }
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn hot_list_round_trips_in_order() {
    let mut r = report(4, false, &[9, 1729, u64::MAX]);
    r.digest.insert(FileId(9));
    let pkt = r.encode();
    assert!(pkt.len() <= PACKET_MAX);
    assert_eq!(LoadReport::decode(&pkt), Some(r));
    // An empty hot list is legal: the packet ends at the count byte.
    let pkt = report(4, false, &[]).encode();
    assert_eq!(pkt.len(), COUNT_AT + 1);
    assert!(LoadReport::decode(&pkt).unwrap().hot.is_empty());
}

#[test]
fn caps_and_validates_the_hot_list() {
    // An oversupplied list is truncated to MAX_HOT at encode time.
    let many: Vec<u64> = (0..20).collect();
    let pkt = report(0, false, &many).encode();
    assert_eq!(pkt.len(), PACKET_MAX);
    assert_eq!(LoadReport::decode(&pkt).unwrap().hot.len(), MAX_HOT);
    // A count byte promising more ids than the datagram carries is
    // garbage, not a partial list.
    let mut short = report(0, false, &[1, 2]).encode();
    short.truncate(short.len() - 8);
    assert!(LoadReport::decode(&short).is_none());
    // A count beyond MAX_HOT is from no encoder of ours.
    let mut bad = report(0, false, &[]).encode();
    bad[COUNT_AT] = (MAX_HOT + 1) as u8;
    bad.extend_from_slice(&[0u8; (MAX_HOT + 1) * 8]);
    assert!(LoadReport::decode(&bad).is_none());
}

#[test]
fn foreign_versions_and_truncations_are_dropped() {
    for version in [0, 1, 2, 4, 255] {
        let mut pkt = report(1, false, &[]).encode();
        pkt[2] = version;
        assert!(LoadReport::decode(&pkt).is_none(), "version {version} is not ours");
    }
    let good = report(1, false, &[]).encode();
    assert!(LoadReport::decode(&good[..good.len() - 1]).is_none());
    assert!(LoadReport::decode(&[0u8; 10]).is_none());
}

#[test]
fn decode_rejects_nan_and_tolerates_trailing_bytes() {
    let mut pkt = report(1, false, &[]).encode();
    pkt[7..15].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(LoadReport::decode(&pkt).is_none());
    let mut long = report(2, false, &[5]).encode();
    long.extend_from_slice(b"junk");
    assert_eq!(LoadReport::decode(&long), Some(report(2, false, &[5])));
}

#[test]
fn fold_rejects_a_node_beyond_the_table_and_changes_nothing() {
    let loadd = Loadd::new(NodeId(0), &SwebConfig::default());
    let mut table = LoadTable::new(2);
    let pkt = report(2, false, &[]).encode();
    assert_eq!(loadd.fold(ms(10), &mut table, &pkt), None);
    for n in [NodeId(0), NodeId(1)] {
        assert_eq!(table.updated_at(n), SimTime::ZERO);
        assert_eq!(table.load(n), LoadVector::IDLE);
        assert_eq!(table.health(n), PeerHealth::Alive);
    }
}

#[test]
fn a_peers_leaving_report_kills_it_but_ones_own_does_not() {
    let loadd = Loadd::new(NodeId(0), &SwebConfig::default());
    let mut table = LoadTable::new(2);
    let peer = loadd.fold(ms(10), &mut table, &report(1, true, &[]).encode()).unwrap();
    assert_eq!((peer.prev, peer.health), (PeerHealth::Alive, PeerHealth::Dead));
    assert_eq!(table.health(NodeId(1)), PeerHealth::Dead);
    let own = loadd.fold(ms(10), &mut table, &report(0, true, &[]).encode()).unwrap();
    assert_eq!(own.health, PeerHealth::Alive);
    assert_eq!(table.updated_at(NodeId(0)), ms(10));
    // A fresh report is the only way back from Dead.
    let back = loadd.fold(ms(20), &mut table, &report(1, false, &[3]).encode()).unwrap();
    assert_eq!((back.prev, back.health), (PeerHealth::Dead, PeerHealth::Alive));
    assert_eq!(back.hot, vec![FileId(3)]);
}

#[test]
fn broadcast_folds_its_own_report_sweeps_and_moves_the_deadline() {
    let cfg = SwebConfig { loadd_period: ms(100), stale_timeout: ms(500), ..SwebConfig::default() };
    let mut loadd = Loadd::new(NodeId(0), &cfg);
    let mut table = LoadTable::new(2);
    assert!(loadd.due(SimTime::ZERO));
    table.update(NodeId(1), LoadVector::IDLE, SimTime::ZERO);
    let b = loadd.broadcast(ms(150), &mut table, &report(0, false, &[]));
    assert_eq!(LoadReport::decode(&b.packet), Some(report(0, false, &[])));
    assert_eq!(table.load(NodeId(0)), LoadVector::new(1.0, 0.5, 0.25));
    assert!(b.churn.is_empty(), "one silent period is not suspicion");
    assert_eq!(loadd.next_broadcast(), ms(250));
    assert!(!loadd.due(ms(249)) && loadd.due(ms(250)));
    let b = loadd.broadcast(ms(250), &mut table, &report(0, false, &[]));
    assert_eq!(b.churn.suspected, vec![NodeId(1)], "two silent periods are");
    let b = loadd.broadcast(ms(550), &mut table, &report(0, false, &[]));
    assert_eq!(b.churn.died, vec![NodeId(1)]);
    assert_eq!(table.health(NodeId(0)), PeerHealth::Alive, "a node always hears itself");
}

proptest! {
    /// The codec returns what it was given, the hot list cut to its
    /// first `MAX_HOT` ids.
    #[test]
    fn reports_round_trip(
        node in any::<u32>(),
        load in (any::<f64>(), any::<f64>(), any::<f64>()),
        leaving in any::<bool>(),
        digest in proptest::collection::vec(any::<u8>(), DIGEST_BYTES),
        hot in proptest::collection::vec(any::<u64>(), 0..20),
    ) {
        let mut r = LoadReport {
            node: NodeId(node),
            load: LoadVector::new(load.0, load.1, load.2),
            leaving,
            digest: CacheDigest::from_bytes(&digest).expect("DIGEST_BYTES bytes"),
            hot: hot.into_iter().map(FileId).collect(),
        };
        let pkt = r.encode();
        prop_assert!(pkt.len() <= PACKET_MAX);
        r.hot.truncate(MAX_HOT);
        let finite = r.load.cpu.is_finite() && r.load.disk.is_finite() && r.load.net.is_finite();
        prop_assert_eq!(LoadReport::decode(&pkt), finite.then_some(r));
    }

    /// Arbitrary datagrams never panic the decoder, and one it
    /// accepts holds only finite loads and a bounded hot list.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..2 * PACKET_MAX),
        versioned in any::<bool>(),
        version in any::<u8>(),
    ) {
        let mut bytes = bytes;
        if versioned && bytes.len() >= 3 {
            // Get past the magic so the version check is reached.
            bytes[..2].copy_from_slice(b"SW");
            bytes[2] = version % 6;
        }
        let decoded = LoadReport::decode(&bytes);
        if let Some(r) = &decoded {
            prop_assert!(r.load.cpu.is_finite() && r.load.disk.is_finite());
            prop_assert!(r.load.net.is_finite() && r.hot.len() <= MAX_HOT);
        }
        if versioned && bytes.len() >= 3 && bytes[2] != 3 {
            prop_assert_eq!(decoded, None, "version {} is not ours", bytes[2]);
        }
    }
}
