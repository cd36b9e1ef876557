//! The simulator's loadd under fault plans: the same `sweb_core::Loadd`
//! the live node runs, with `LoaddLoss`, `LoaddDelay` and `Partition`
//! acting on each packet at its simulated millisecond.

use sweb_chaos::{Fault, FaultPlan, Injector, Window};
use sweb_cluster::{presets, NodeId};
use sweb_core::PeerHealth;
use sweb_des::{Sim, SimTime};
use sweb_sim::{ClusterSim, SimConfig, World};
use sweb_workload::FilePopulation;

fn world(n: usize) -> World {
    World::new(presets::meiko(n), FilePopulation::uniform(12, 1024).build(n), SimConfig::default())
}

#[test]
fn a_partition_walks_both_sides_through_suspect_dead_alive() {
    let mut w = world(3);
    let (cut, heal) = (10_000, 30_000);
    let plan = FaultPlan::seeded(1).with(Fault::Partition {
        a: 0,
        b: 1,
        window: Window::between(cut, heal),
    });
    w.loadd_faults = Injector::from_plan(&plan);
    let (period, stale) = (w.cfg.sweb.loadd_period, w.cfg.sweb.stale_timeout);
    let mut sim: Sim<World> = Sim::new();
    World::start_loadd(&mut sim, 3, period);
    sim.run_until(&mut w, SimTime::from_millis(cut));
    let heard = [w.nodes[0].view.updated_at(NodeId(1)), w.nodes[1].view.updated_at(NodeId(0))];
    // Step through the cut: record when each side first suspects and
    // first buries the other, while node 2 keeps hearing both.
    let step = SimTime::from_millis(100);
    let mut first = [[None; 2]; 2]; // [side][suspect, dead]
    let mut t = SimTime::from_millis(cut);
    while t < SimTime::from_millis(heal) {
        t += step;
        sim.run_until(&mut w, t);
        for (side, other) in [(0, 1), (1, 0)] {
            let slot = match w.nodes[side].view.health(NodeId(other)) {
                PeerHealth::Alive => None,
                PeerHealth::Suspect => Some(0),
                PeerHealth::Dead => Some(1),
            };
            if let Some(k) = slot {
                first[side][k].get_or_insert(t);
            }
        }
        for peer in [0, 1] {
            assert_eq!(w.nodes[2].view.health(NodeId(peer)), PeerHealth::Alive, "at {t:?}");
        }
    }
    for side in 0..2 {
        let (suspect, dead) = (first[side][0].unwrap(), first[side][1].unwrap());
        let silence = |at: SimTime| at - heard[side];
        assert!(silence(suspect) > period + period, "side {side} suspected early");
        assert!(silence(suspect) <= period + period + period + step, "side {side} suspected late");
        assert!(suspect < dead, "side {side} went Dead without Suspect");
        assert!(silence(dead) > stale && silence(dead) <= stale + period + step);
    }
    // Healed: each hears the other within one period.
    sim.run_until(&mut w, SimTime::from_millis(heal) + period);
    assert_eq!(w.nodes[0].view.health(NodeId(1)), PeerHealth::Alive);
    assert_eq!(w.nodes[1].view.health(NodeId(0)), PeerHealth::Alive);
}

#[test]
fn a_delayed_report_is_folded_when_it_lands() {
    let mut w = world(2);
    let delay = Fault::LoaddDelay { from: 0, to: 1, delay_ms: 1_000, window: Window::ALWAYS };
    w.loadd_faults = Injector::from_plan(&FaultPlan::seeded(1).with(delay));
    let mut sim: Sim<World> = Sim::new();
    World::start_loadd(&mut sim, 2, w.cfg.sweb.loadd_period);
    sim.run_until(&mut w, SimTime::from_secs(5));
    let sent = w.nodes[0].view.updated_at(NodeId(0));
    assert_eq!(w.nodes[1].view.updated_at(NodeId(0)), sent + SimTime::from_secs(1));
    assert_eq!(w.nodes[0].view.updated_at(NodeId(1)), w.nodes[1].view.updated_at(NodeId(1)));
}

#[test]
fn loadd_fault_injection_takes_only_loadd_faults() {
    let corpus = FilePopulation::uniform(4, 1024).build(2);
    let mut sim = ClusterSim::new(presets::meiko(2), corpus, SimConfig::default());
    let delay = Fault::LoaddDelay { from: 0, to: 1, delay_ms: 300, window: Window::ALWAYS };
    let crash = Fault::Crash { node: 1, at_ms: 500 };
    let plan = FaultPlan::seeded(1).with(delay);
    assert_eq!(sim.inject_loadd_faults(&plan.clone().with(crash)), Err(crash));
    assert!(!sim.world_mut().loadd_faults.is_active(), "a rejected plan is not taken");
    assert_eq!(sim.inject_loadd_faults(&plan), Ok(()));
    assert!(sim.world_mut().loadd_faults.is_active());
}
