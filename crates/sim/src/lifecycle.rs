//! The per-request event chain (Fig. 1 + §3.2 steps):
//!
//! ```text
//! client --DNS+connect--> arrive -> preprocess -> analyze -> decide
//!    decide -Local----> fulfill: [cache | disk | NFS(join)] -> CPU -> send -> complete
//!    decide -Redirect-> 302 + client round trip -> arrive (marked, must serve)
//! ```
//!
//! Drops happen two ways, both observed in the paper: connection refusal
//! when a node's accept backlog is full, and client-side timeout (a request
//! that completes after the client gave up counts as dropped).

use sweb_cluster::{FileId, NodeId};
use sweb_core::{RequestInfo, Route};
use sweb_des::{Sim, SimTime, Thunk};
use sweb_metrics::Phase;

use crate::join::join_barrier;
use crate::trace::TracePoint;
use crate::world::World;

/// A request in flight. Cheap to copy — it rides inside event closures.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Sequence number (issue order), used for tracing.
    pub id: u64,
    /// Requested document.
    pub file: FileId,
    /// Its size in bytes.
    pub size: u64,
    /// Node whose disk holds it.
    pub home: NodeId,
    /// Oracle CPU estimate for fulfillment.
    pub cpu_ops: f64,
    /// Whether this is a CGI execution.
    pub is_cgi: bool,
    /// Whether the request is non-idempotent (POST): never reassigned.
    pub pinned: bool,
    /// When the client initiated the request.
    pub issued_at: SimTime,
    /// Whether it has been redirected already.
    pub redirected: bool,
    /// When the request was *forwarded* (not 302-redirected), the origin
    /// node relaying it — its connection slot stays held and the response
    /// crosses its interface on the way back.
    pub forwarded_via: Option<NodeId>,
    /// Last phase boundary (for phase accounting).
    pub mark: SimTime,
}

/// Client initiates a request for `file` at the current simulated time:
/// DNS resolution, then a connection to the chosen node.
pub fn issue(w: &mut World, s: &mut Sim<World>, file: FileId) {
    w.stats.offered += 1;
    let meta = w.files.meta(file);
    let is_cgi = w.cfg.cgi_fraction > 0.0 && rand::Rng::gen_bool(&mut w.rng, w.cfg.cgi_fraction);
    let pinned =
        is_cgi && w.cfg.post_fraction > 0.0 && rand::Rng::gen_bool(&mut w.rng, w.cfg.post_fraction);
    let path = if is_cgi {
        format!("/cgi-bin/doc{}", file.0)
    } else {
        format!("/docs/doc{}.gif", file.0)
    };
    let cpu_ops = w.oracle.characterize(&path, meta.size);
    let id = w.next_request;
    w.next_request += 1;
    let Some(target) = w.dns_pick(s.now()) else {
        // No servers in the pool: connection fails outright.
        w.stats.refused += 1;
        w.stats.dropped += 1;
        w.stats.timeline.record_drop(s.now());
        return;
    };
    w.trace.record(id, s.now(), TracePoint::Issued { file, node: target });
    let req = Req {
        id,
        file,
        size: meta.size,
        home: meta.home,
        cpu_ops,
        is_cgi,
        pinned,
        issued_at: s.now(),
        redirected: false,
        forwarded_via: None,
        mark: s.now(),
    };
    let delay = SimTime::from_secs_f64(w.cfg.client.latency + w.cfg.sweb.connect_time);
    s.schedule_in(delay, Box::new(move |w: &mut World, s: &mut Sim<World>| arrive(w, s, target, req)));
}

/// A connection reaches `node`: accept (or refuse), then preprocess.
pub fn arrive(w: &mut World, s: &mut Sim<World>, node: NodeId, mut req: Req) {
    let i = node.index();
    w.stats.nodes[i].arrived += 1;
    if !w.nodes[i].alive || w.nodes[i].accepted >= w.cfg.backlog_limit {
        w.stats.nodes[i].refused += 1;
        w.stats.refused += 1;
        w.stats.dropped += 1;
        w.stats.timeline.record_drop(s.now());
        w.trace.record(req.id, s.now(), TracePoint::Refused { node });
        if let Some(origin) = req.forwarded_via {
            // The relaying origin gives up its held connection slot.
            w.nodes[origin.index()].accepted -= 1;
        }
        return;
    }
    w.trace.record(req.id, s.now(), TracePoint::Connected { node });
    w.nodes[i].accepted += 1;
    req.mark = s.now();
    if req.forwarded_via.is_some() {
        // Forwarded requests arrive already parsed: skip re-preprocessing.
        analyze(w, s, node, req);
        return;
    }
    let ops = w.cfg.sweb.preprocess_ops;
    w.stats.nodes[i].preprocess_ops += ops;
    w.nodes[i].cpu.submit(
        s,
        ops,
        Box::new(move |w: &mut World, s: &mut Sim<World>| {
            w.stats.phases.add(Phase::Preprocessing, s.now() - req.mark);
            w.trace.record(req.id, s.now(), TracePoint::Preprocessed);
            analyze(w, s, node, Req { mark: s.now(), ..req });
        }),
    );
}

/// Broker analysis (§4.3: 1–4 ms of CPU), then the scheduling decision.
fn analyze(w: &mut World, s: &mut Sim<World>, node: NodeId, req: Req) {
    let i = node.index();
    let ops = w.cfg.sweb.analysis_ops;
    w.stats.nodes[i].scheduling_ops += ops;
    w.nodes[i].cpu.submit(
        s,
        ops,
        Box::new(move |w: &mut World, s: &mut Sim<World>| decide(w, s, node, req)),
    );
}

/// Apply the policy: serve locally or redirect (at most once).
fn decide(w: &mut World, s: &mut Sim<World>, node: NodeId, mut req: Req) {
    let i = node.index();
    w.stats.phases.add(Phase::Analysis, s.now() - req.mark);
    req.mark = s.now();
    // A node always knows its own load freshly (its loadd samples locally).
    let own = w.own_load(i);
    let now = s.now();
    w.nodes[i].view.update(node, own, now);
    let info = RequestInfo {
        file: req.file,
        size: req.size,
        home: req.home,
        cpu_ops: req.cpu_ops,
        redirected: req.redirected,
        pinned_local: req.pinned,
        cached_at_origin: w.cfg.sweb.cache_aware_cost && w.nodes[i].cache.contains(req.file),
        // The simulator models one generic CGI class; the live server
        // carries the real per-handler class name here.
        class: if req.is_cgi {
            sweb_core::RequestClass::Dynamic("cgi")
        } else {
            sweb_core::RequestClass::Static
        },
    };
    let decision = {
        let cluster = &w.cluster;
        let node_state = &mut w.nodes[i];
        node_state.broker.choose(&info, node, cluster, &mut node_state.view)
    };
    w.trace.record(
        req.id,
        s.now(),
        TracePoint::Decided { redirect_to: decision.redirect_target() },
    );
    match decision.route {
        Route::Local => fulfill(w, s, node, req),
        Route::Redirect(target) => {
            let ops = w.cfg.sweb.redirect_ops;
            w.stats.nodes[i].scheduling_ops += ops;
            w.stats.nodes[i].redirected_away += 1;
            match w.cfg.sweb.redirect_mechanism {
                sweb_core::RedirectMechanism::UrlRedirect => {
                    w.nodes[i].cpu.submit(
                        s,
                        ops,
                        Box::new(move |w: &mut World, s: &mut Sim<World>| {
                            w.nodes[i].accepted -= 1;
                            // 302 to the client, client re-issues:
                            // t_redirection = 2*latency + connect (§3.2).
                            let delay = SimTime::from_secs_f64(
                                2.0 * w.cfg.client.latency + w.cfg.sweb.connect_time,
                            );
                            s.schedule_in(
                                delay,
                                Box::new(move |w: &mut World, s: &mut Sim<World>| {
                                    w.stats.phases.add(Phase::Redirection, s.now() - req.mark);
                                    arrive(
                                        w,
                                        s,
                                        target,
                                        Req { redirected: true, mark: s.now(), ..req },
                                    );
                                }),
                            );
                        }),
                    );
                }
                sweb_core::RedirectMechanism::Forward => {
                    w.nodes[i].cpu.submit(
                        s,
                        ops,
                        Box::new(move |w: &mut World, s: &mut Sim<World>| {
                            // The origin keeps its connection slot and
                            // relays the request over the interconnect.
                            let delay = SimTime::from_secs_f64(
                                w.cluster.network.latency() + w.cfg.sweb.connect_time,
                            );
                            s.schedule_in(
                                delay,
                                Box::new(move |w: &mut World, s: &mut Sim<World>| {
                                    w.stats.phases.add(Phase::Redirection, s.now() - req.mark);
                                    arrive(
                                        w,
                                        s,
                                        target,
                                        Req {
                                            redirected: true,
                                            forwarded_via: Some(node),
                                            mark: s.now(),
                                            ..req
                                        },
                                    );
                                }),
                            );
                        }),
                    );
                }
            }
        }
    }
}

/// Fulfillment: page cache, disk or NFS fetch, fulfillment CPU, response
/// transfer.
fn fulfill(w: &mut World, s: &mut Sim<World>, node: NodeId, req: Req) {
    let i = node.index();
    let hit = w.nodes[i].cache.access(req.file, req.size);
    if hit {
        w.stats.nodes[i].cache_hits += 1;
    } else {
        w.stats.nodes[i].cache_misses += 1;
    }

    let remote = req.home != node && !hit;
    // After data is in memory: fulfillment CPU, then send to client.
    let cpu_then_send: Thunk<World> = Box::new(move |w: &mut World, s: &mut Sim<World>| {
        let i = node.index();
        w.trace.record(req.id, s.now(), TracePoint::DataReady { cache_hit: hit, remote });
        w.stats.nodes[i].fulfill_ops += req.cpu_ops;
        w.nodes[i].cpu.submit(
            s,
            req.cpu_ops,
            Box::new(move |w: &mut World, s: &mut Sim<World>| {
                w.stats.phases.add(Phase::DataTransfer, s.now() - req.mark);
                send(w, s, node, Req { mark: s.now(), ..req });
            }),
        );
    });

    if hit {
        cpu_then_send(w, s);
    } else if req.home == node {
        let work = w.cluster.nodes[i].disk_read_work(req.size);
        w.nodes[i].disk.submit(s, work, cpu_then_send);
    } else {
        // NFS fetch: read-ahead pipelines the remote disk with the network
        // leg, so the fetch completes when the slower of the two drains.
        // On the Meiko the network leg crosses the *home* node's link (the
        // NFS server's interface — which is how a hot home node becomes a
        // bottleneck); on the NOW it crosses the shared bus.
        let h = req.home.index();
        let home_hit = w.nodes[h].cache.access(req.file, req.size);
        if home_hit {
            w.stats.nodes[h].cache_hits += 1;
        } else {
            w.stats.nodes[h].cache_misses += 1;
        }
        let mut legs = join_barrier(1 + usize::from(!home_hit), cpu_then_send);
        let net_leg = legs.pop().expect("at least one leg");
        if let Some(bus) = w.bus.as_mut() {
            bus.submit(s, req.size as f64, net_leg);
        } else {
            w.nodes[h]
                .link
                .as_mut()
                .expect("fat-tree cluster has per-node links")
                .submit(s, req.size as f64, net_leg);
        }
        if let Some(disk_leg) = legs.pop() {
            let work = w.cluster.nodes[h].disk_read_work(req.size);
            w.nodes[h].disk.submit(s, work, disk_leg);
        }
    }
}

/// Response transfer: the client's Internet path in parallel with the
/// server-side network interface (bus on the NOW, link on the Meiko).
/// A forwarded response additionally crosses the relaying origin's
/// interface — forwarding's double-transit penalty.
fn send(w: &mut World, s: &mut Sim<World>, node: NodeId, req: Req) {
    let i = node.index();
    let done: Thunk<World> =
        Box::new(move |w: &mut World, s: &mut Sim<World>| complete(w, s, node, req));
    let relay = req.forwarded_via.filter(|&o| o != node);
    let mut legs = join_barrier(2 + usize::from(relay.is_some()), done);
    let client_leg = legs.pop().expect("client leg");
    let client_secs = req.size as f64 / w.cfg.client.bandwidth + w.cfg.client.latency;
    s.schedule_in(SimTime::from_secs_f64(client_secs), client_leg);
    let srv_leg = legs.pop().expect("server leg");
    if let Some(bus) = w.bus.as_mut() {
        bus.submit(s, req.size as f64, srv_leg);
    } else {
        w.nodes[i]
            .link
            .as_mut()
            .expect("fat-tree cluster has per-node links")
            .submit(s, req.size as f64, srv_leg);
    }
    if let Some(origin) = relay {
        let relay_leg = legs.pop().expect("relay leg");
        if let Some(bus) = w.bus.as_mut() {
            // On the shared Ethernet the relayed copy transits the bus a
            // second time.
            bus.submit(s, req.size as f64, relay_leg);
        } else {
            w.nodes[origin.index()]
                .link
                .as_mut()
                .expect("fat-tree cluster has per-node links")
                .submit(s, req.size as f64, relay_leg);
        }
    }
}

/// Bookkeeping at response completion.
fn complete(w: &mut World, s: &mut Sim<World>, node: NodeId, req: Req) {
    let i = node.index();
    w.stats.phases.add(Phase::Network, s.now() - req.mark);
    w.trace.record(req.id, s.now(), TracePoint::Completed);
    w.nodes[i].accepted -= 1;
    if let Some(origin) = req.forwarded_via.filter(|&o| o != node) {
        // The relaying origin's connection closes with the response.
        w.nodes[origin.index()].accepted -= 1;
    }
    w.stats.nodes[i].served += 1;
    let total = s.now() - req.issued_at;
    if total.as_secs_f64() > w.cfg.client.timeout {
        // The client hung up long ago; the fulfillment was wasted work.
        w.stats.dropped += 1;
        w.stats.timeline.record_drop(s.now());
    } else {
        w.stats.completed += 1;
        w.stats.response.record(total.as_micros());
        w.stats.timeline.record_completion(s.now(), total);
        if req.redirected {
            w.stats.redirected += 1;
        }
    }
}
