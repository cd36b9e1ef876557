//! loadd without IO, the one both engines run (§3.1: broadcast load
//! every 2–3 s, mark silent peers unavailable). [`Loadd`] owns no socket,
//! no clock and no table: it folds into the [`LoadTable`] it is handed,
//! at the [`SimTime`] it is told.
//!
//! The wire format is one little-endian 32-byte datagram: `b"SW"`,
//! version 5, `[node: u32][cpu, disk, net: f64][leaving: u8]`. Any other
//! magic or version is a decode error, never a misread.

use sweb_cluster::NodeId;
use sweb_des::SimTime;

use crate::config::SwebConfig;
use crate::load::{HealthChurn, LoadTable, LoadVector, PeerHealth};

const MAGIC: [u8; 2] = *b"SW";
const VERSION: u8 = 5;

/// The datagram's length: header, node id, three loads, the leaving flag.
pub const PACKET_MAX: usize = 3 + 4 + 3 * 8 + 1;

/// One node's load report, as it travels between loadds.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Reporting node.
    pub node: NodeId,
    /// Its advertised load vector.
    pub load: LoadVector,
    /// Graceful-drain announcement: peers take the sender out of the pool
    /// now instead of a staleness timeout later.
    pub leaving: bool,
}

impl LoadReport {
    /// The wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(PACKET_MAX);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&self.node.0.to_le_bytes());
        for x in [self.load.cpu, self.load.disk, self.load.net] {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.push(u8::from(self.leaving));
        buf
    }

    /// Parse a datagram; `None` for short, garbled or foreign packets or
    /// a non-finite load. Trailing bytes are ignored.
    pub fn decode(buf: &[u8]) -> Option<LoadReport> {
        if buf.len() < PACKET_MAX || buf[0..2] != MAGIC || buf[2] != VERSION {
            return None;
        }
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let node = NodeId(u32::from_le_bytes(buf[3..7].try_into().expect("4 bytes")));
        let load = LoadVector::new(
            f64::from_bits(word(7)),
            f64::from_bits(word(15)),
            f64::from_bits(word(23)),
        );
        if !(load.cpu.is_finite() && load.disk.is_finite() && load.net.is_finite()) {
            return None;
        }
        Some(LoadReport { node, load, leaving: buf[31] != 0 })
    }
}

/// What a broadcast produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Broadcast {
    /// The datagram for every peer (never for this node itself).
    pub packet: Vec<u8>,
    /// The staleness sweep's membership churn.
    pub churn: HealthChurn,
}

/// What a received report did to the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// Reporting node.
    pub node: NodeId,
    /// Its health before the report.
    pub prev: PeerHealth,
    /// Its health after: `Dead` for a peer's `leaving` report, else
    /// `Alive`.
    pub health: PeerHealth,
}

/// One node's loadd: the broadcast deadline, the self-report, the
/// staleness sweep and the fold of a peer's report.
#[derive(Debug, Clone)]
pub struct Loadd {
    me: NodeId,
    period: SimTime,
    stale_timeout: SimTime,
    next_broadcast: SimTime,
}

impl Loadd {
    /// loadd for node `me` under `cfg`'s period and staleness timeout.
    /// The first broadcast is due at once.
    pub fn new(me: NodeId, cfg: &SwebConfig) -> Loadd {
        Loadd {
            me,
            period: cfg.loadd_period,
            stale_timeout: cfg.stale_timeout,
            next_broadcast: SimTime::ZERO,
        }
    }

    /// When the next broadcast is due.
    pub fn next_broadcast(&self) -> SimTime {
        self.next_broadcast
    }

    /// Whether a broadcast is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_broadcast
    }

    /// Broadcast `report`, this node's own, at `now`: fold it into
    /// `table` directly, sweep `table` for silent peers, and move the
    /// deadline one period on.
    ///
    /// The sweep suspects a peer after two silent periods, not one: it
    /// runs at this node's own period boundary, so a healthy peer's
    /// latest report is routinely almost a full period old, and a 1×
    /// threshold flaps Suspect/Alive on scheduling jitter alone.
    pub fn broadcast(
        &mut self,
        now: SimTime,
        table: &mut LoadTable,
        report: &LoadReport,
    ) -> Broadcast {
        debug_assert_eq!(report.node, self.me, "a node broadcasts its own report");
        self.next_broadcast = now + self.period;
        table.update(self.me, report.load, now);
        let churn = table.mark_stale(now, self.period + self.period, self.stale_timeout);
        Broadcast { packet: report.encode(), churn }
    }

    /// Fold one received datagram into `table` at `now`. `None` — nothing
    /// changed — for a packet that does not decode or names a node beyond
    /// the table. A peer's `leaving` report marks it Dead; any other
    /// report, or a `leaving` one naming this node, refreshes the entry.
    pub fn fold(&self, now: SimTime, table: &mut LoadTable, packet: &[u8]) -> Option<Folded> {
        let LoadReport { node, load, leaving } = LoadReport::decode(packet)?;
        if node.index() >= table.len() {
            return None;
        }
        let prev = if leaving && node != self.me {
            table.mark_dead(node)
        } else {
            table.update(node, load, now)
        };
        Some(Folded { node, prev, health: table.health(node) })
    }
}
