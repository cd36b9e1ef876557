//! The loadd daemon over UDP: the live node's shim around
//! [`sweb_core::Loadd`].
//!
//! The core decides everything — when to broadcast, the staleness sweep,
//! what a received report does to the load table — and this shim keeps
//! what only a live node has: the socket, the clock (`NodeShared::now`),
//! the load sample, the fault plan's drop/delay verdicts with the packets
//! they delay, and acting on churn (counters and membership log lines).

use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweb_chaos::TxVerdict;
use sweb_cluster::NodeId;
use sweb_core::{LoadReport, LoadVector, Loadd, PeerHealth, PACKET_MAX};

use crate::node::NodeShared;

/// Sample this node's live load vector from its activity gauges.
pub(crate) fn sample_load(shared: &NodeShared) -> LoadVector {
    let counters = &shared.reactor.counters;
    let active = counters.open.get().max(0) as f64;
    let net = counters.bytes_in_flight.get().max(0) as f64 / 1e6;
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
fn log_membership(shared: &NodeShared, peer: NodeId, event: &str) {
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

/// This node's report: its load and drain flag.
pub(crate) fn report(shared: &NodeShared) -> LoadReport {
    LoadReport {
        node: shared.id,
        load: sample_load(shared),
        leaving: shared.draining.load(Ordering::Relaxed),
    }
}

/// Count a peer's death and log it.
fn peer_died(shared: &NodeShared, peer: NodeId) {
    shared.stats.peer_dead.inc();
    log_membership(shared, peer, "dead");
}

/// One node's loadd, run by its shard 0 loop as part of the node's
/// [`sweb_reactor::Service`]: the UDP socket it drains when readable, and
/// the timer it keeps — the core's next broadcast, and any packet a fault
/// plan delays.
pub(crate) struct Daemon {
    shared: Arc<NodeShared>,
    udp: UdpSocket,
    core: Loadd,
    delayed: Vec<(Instant, SocketAddr, Vec<u8>)>,
}

impl Daemon {
    /// loadd for `shared`'s node on `udp`. The first broadcast goes out
    /// the first time it [`Daemon::tick`]s.
    pub(crate) fn new(shared: Arc<NodeShared>, udp: UdpSocket) -> std::io::Result<Daemon> {
        udp.set_nonblocking(true)?;
        let core = Loadd::new(shared.id, &shared.sweb);
        Ok(Daemon { shared, udp, core, delayed: Vec::new() })
    }

    /// Send what has come due — delayed packets, and the broadcast when
    /// the core says so — and say when to come back.
    fn tick(&mut self) -> Instant {
        let Daemon { shared, udp, core, delayed } = self;
        let now = Instant::now();
        delayed.retain(|(due, addr, pkt)| {
            if *due > now {
                return true;
            }
            let _ = udp.send_to(pkt, addr);
            false
        });
        let sim_now = shared.now();
        if core.due(sim_now) {
            let report = report(shared);
            let sent = core.broadcast(sim_now, &mut shared.loads.write(), &report);
            // The core folded our own report already: every packet goes
            // to a peer, through the fault plan's verdict.
            let me = shared.id.0;
            for (peer, addr) in shared.peer_udp.iter().enumerate() {
                if peer as u32 == me {
                    continue;
                }
                match shared.chaos.loadd_tx(me, peer as u32) {
                    TxVerdict::Deliver => {
                        let _ = udp.send_to(&sent.packet, addr);
                    }
                    TxVerdict::Drop => {}
                    TxVerdict::Delay(d) => delayed.push((now + d, *addr, sent.packet.clone())),
                }
            }
            for peer in sent.churn.suspected {
                shared.stats.peer_suspect.inc();
                log_membership(shared, peer, "suspect");
            }
            for peer in sent.churn.died {
                peer_died(shared, peer);
            }
        }
        let next = shared.start + Duration::from_micros(core.next_broadcast().as_micros());
        delayed.iter().map(|(due, _, _)| *due).fold(next, Instant::min)
    }

    /// Fold every report waiting on the socket into the load table.
    fn receive(&self) {
        let mut buf = [0u8; PACKET_MAX + 64]; // headroom for trailing junk
        loop {
            match self.udp.recv_from(&mut buf) {
                Ok((n, _)) => self.fold(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return, // drained (`WouldBlock`)
            }
        }
    }

    /// Fold one datagram and act on what changed. A packet the core
    /// rejects — garbage, short, a node id beyond the table — is counted
    /// instead of silently dropped, so a config mismatch (or a chaos
    /// garbling) is visible in telemetry.
    fn fold(&self, pkt: &[u8]) {
        let shared = &self.shared;
        let now = shared.now();
        let Some(folded) = self.core.fold(now, &mut shared.loads.write(), pkt) else {
            shared.stats.loadd_decode_errors.inc();
            return;
        };
        match (folded.prev, folded.health) {
            (PeerHealth::Alive | PeerHealth::Suspect, PeerHealth::Dead) => {
                peer_died(shared, folded.node)
            }
            (PeerHealth::Suspect | PeerHealth::Dead, PeerHealth::Alive) => {
                shared.stats.peer_revived.inc();
                log_membership(shared, folded.node, "revived");
            }
            _ => {}
        }
    }
}

/// loadd rides shard 0's loop beside its connections, with no thread of
/// its own.
impl sweb_reactor::Service for Daemon {
    fn fd(&self) -> RawFd {
        self.udp.as_raw_fd()
    }
    fn run(&mut self, readable: bool) -> Option<Instant> {
        if readable {
            self.receive();
        }
        Some(self.tick())
    }
}
