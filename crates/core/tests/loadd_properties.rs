//! The loadd core (`sweb_core::Loadd`): its one wire format, and what a
//! broadcast and a received report do to a load table.

use proptest::prelude::*;
use sweb_cluster::NodeId;
use sweb_core::{LoadReport, LoadTable, LoadVector, Loadd, PeerHealth, SwebConfig, PACKET_MAX};
use sweb_des::SimTime;

fn report(node: u32, leaving: bool) -> LoadReport {
    LoadReport { node: NodeId(node), load: LoadVector::new(1.0, 0.5, 0.25), leaving }
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn a_report_is_one_fixed_length_datagram() {
    let r = report(4, true);
    let pkt = r.encode();
    assert_eq!((pkt.len(), PACKET_MAX), (32, 32));
    assert_eq!(LoadReport::decode(&pkt), Some(r));
}

#[test]
fn foreign_versions_and_truncations_are_dropped() {
    // Version 4 carried a 32-byte cache digest after the leaving flag,
    // version 3 a hot list after that; their datagrams are dropped like
    // any other foreign version's, digest bytes and all.
    for version in [0, 1, 2, 3, 4, 6, 255] {
        let mut pkt = report(1, false).encode();
        pkt[2] = version;
        assert!(LoadReport::decode(&pkt).is_none(), "version {version} is not ours");
        pkt.extend_from_slice(&[0xff; 32]);
        assert!(LoadReport::decode(&pkt).is_none(), "version {version} with a digest");
    }
    let good = report(1, false).encode();
    assert!(LoadReport::decode(&good[..good.len() - 1]).is_none());
    assert!(LoadReport::decode(&[0u8; 10]).is_none());
}

#[test]
fn decode_rejects_nan_and_tolerates_trailing_bytes() {
    let mut pkt = report(1, false).encode();
    pkt[7..15].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(LoadReport::decode(&pkt).is_none());
    let mut long = report(2, false).encode();
    long.extend_from_slice(b"junk");
    assert_eq!(LoadReport::decode(&long), Some(report(2, false)));
}

#[test]
fn fold_rejects_a_node_beyond_the_table_and_changes_nothing() {
    let loadd = Loadd::new(NodeId(0), &SwebConfig::default());
    let mut table = LoadTable::new(2);
    let pkt = report(2, false).encode();
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
    let peer = loadd.fold(ms(10), &mut table, &report(1, true).encode()).unwrap();
    assert_eq!((peer.prev, peer.health), (PeerHealth::Alive, PeerHealth::Dead));
    assert_eq!(table.health(NodeId(1)), PeerHealth::Dead);
    let own = loadd.fold(ms(10), &mut table, &report(0, true).encode()).unwrap();
    assert_eq!(own.health, PeerHealth::Alive);
    assert_eq!(table.updated_at(NodeId(0)), ms(10));
    // A fresh report is the only way back from Dead.
    let back = loadd.fold(ms(20), &mut table, &report(1, false).encode()).unwrap();
    assert_eq!((back.prev, back.health), (PeerHealth::Dead, PeerHealth::Alive));
}

#[test]
fn broadcast_folds_its_own_report_sweeps_and_moves_the_deadline() {
    let cfg = SwebConfig { loadd_period: ms(100), stale_timeout: ms(500), ..SwebConfig::default() };
    let mut loadd = Loadd::new(NodeId(0), &cfg);
    let mut table = LoadTable::new(2);
    assert!(loadd.due(SimTime::ZERO));
    table.update(NodeId(1), LoadVector::IDLE, SimTime::ZERO);
    let b = loadd.broadcast(ms(150), &mut table, &report(0, false));
    assert_eq!(LoadReport::decode(&b.packet), Some(report(0, false)));
    assert_eq!(table.load(NodeId(0)), LoadVector::new(1.0, 0.5, 0.25));
    assert!(b.churn.is_empty(), "one silent period is not suspicion");
    assert_eq!(loadd.next_broadcast(), ms(250));
    assert!(!loadd.due(ms(249)) && loadd.due(ms(250)));
    let b = loadd.broadcast(ms(250), &mut table, &report(0, false));
    assert_eq!(b.churn.suspected, vec![NodeId(1)], "two silent periods are");
    let b = loadd.broadcast(ms(550), &mut table, &report(0, false));
    assert_eq!(b.churn.died, vec![NodeId(1)]);
    assert_eq!(table.health(NodeId(0)), PeerHealth::Alive, "a node always hears itself");
}

proptest! {
    /// The codec returns what it was given.
    #[test]
    fn reports_round_trip(
        node in any::<u32>(),
        load in (any::<f64>(), any::<f64>(), any::<f64>()),
        leaving in any::<bool>(),
    ) {
        let load = LoadVector::new(load.0, load.1, load.2);
        let r = LoadReport { node: NodeId(node), load, leaving };
        let pkt = r.encode();
        prop_assert_eq!(pkt.len(), PACKET_MAX);
        let finite = r.load.cpu.is_finite() && r.load.disk.is_finite() && r.load.net.is_finite();
        prop_assert_eq!(LoadReport::decode(&pkt), finite.then_some(r));
    }

    /// Arbitrary datagrams never panic the decoder, and one it
    /// accepts holds only finite loads.
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
            bytes[2] = version % 7;
        }
        let decoded = LoadReport::decode(&bytes);
        if let Some(r) = &decoded {
            prop_assert!(r.load.cpu.is_finite() && r.load.disk.is_finite());
            prop_assert!(r.load.net.is_finite());
        }
        if versioned && bytes.len() >= 3 && bytes[2] != 5 {
            prop_assert_eq!(decoded, None, "version {} is not ours", bytes[2]);
        }
    }
}
