//! Focused tests of the switch: counters, data-plane edge cases and
//! configuration presets through the DES driver, and the hardening paths
//! of the sans-IO [`SwitchCore`] driven directly, with no simulator.

use dgmc_core::switch::{
    build_dgmc_sim, counters, inject_link_event, DataKind, DataMsg, DgmcConfig, DgmcPayload,
    DgmcSwitch, Frame, Output, SwitchCore, SwitchMsg,
};
use dgmc_core::{McId, McType, Role};
use dgmc_des::{ActorId, SimDuration, Simulation};
use dgmc_lsr::lsa::{FloodId, FloodPacket, RouterLsa};
use dgmc_lsr::RoutingTable;
use dgmc_mctree::SphStrategy;
use dgmc_obs::MetricsRegistry;
use dgmc_topology::{generate, Network, NodeId, SpfCache};
use std::rc::Rc;

const MC: McId = McId(1);

fn sim_path(n: usize) -> Simulation<SwitchMsg> {
    build_dgmc_sim(
        &generate::path(n),
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    )
}

#[test]
fn config_presets_match_paper_regimes() {
    let lan = DgmcConfig::computation_dominated();
    assert!(lan.tc > lan.per_hop, "ATM: computation dominates");
    assert_eq!(lan.tc, SimDuration::micros(300));
    assert_eq!(lan.per_hop, SimDuration::micros(10));
    let wan = DgmcConfig::communication_dominated();
    assert!(wan.per_hop > wan.tc, "WAN: communication dominates");
}

#[test]
fn exact_counter_accounting_for_one_join() {
    // Path of 4: one join floods one LSA that every other switch accepts
    // and relays; duplicates are impossible on a tree topology.
    let mut sim = sim_path(4);
    sim.inject(
        ActorId(1),
        SimDuration::ZERO,
        SwitchMsg::HostJoin {
            mc: MC,
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
        },
    );
    sim.run_to_quiescence();
    assert_eq!(sim.counter_value(counters::MEMBER_EVENTS), 1);
    assert_eq!(sim.counter_value(counters::COMPUTATIONS), 1);
    assert_eq!(sim.counter_value(counters::FLOODINGS), 1);
    assert_eq!(sim.counter_value(counters::MC_LSAS), 3, "3 receivers");
    assert_eq!(sim.counter_value(counters::DUPLICATES), 0, "tree topology");
    assert_eq!(sim.counter_value(counters::INSTALLS), 4, "all switches");
    assert_eq!(sim.counter_value(counters::WITHDRAWN), 0);
}

#[test]
fn duplicates_appear_on_cyclic_topologies() {
    let mut sim = build_dgmc_sim(
        &generate::ring(5),
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    sim.inject(
        ActorId(0),
        SimDuration::ZERO,
        SwitchMsg::HostJoin {
            mc: MC,
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
        },
    );
    sim.run_to_quiescence();
    assert_eq!(sim.counter_value(counters::MC_LSAS), 4);
    assert!(
        sim.counter_value(counters::DUPLICATES) >= 1,
        "ring loops back"
    );
}

#[test]
fn data_for_unknown_mc_is_dropped_silently() {
    let mut sim = sim_path(3);
    sim.inject(
        ActorId(0),
        SimDuration::ZERO,
        SwitchMsg::SendData {
            mc: McId(99),
            packet_id: 1,
        },
    );
    sim.run_to_quiescence();
    assert_eq!(sim.counter_value(counters::DATA_DELIVERED), 0);
    assert_eq!(sim.events_processed(), 1, "only the injection itself");
}

#[test]
fn leave_from_non_member_switch_is_a_noop() {
    let mut sim = sim_path(3);
    sim.inject(
        ActorId(2),
        SimDuration::ZERO,
        SwitchMsg::HostLeave { mc: MC },
    );
    sim.run_to_quiescence();
    assert_eq!(sim.counter_value(counters::MEMBER_EVENTS), 0);
    assert_eq!(sim.counter_value(counters::FLOODINGS), 0);
}

#[test]
fn double_join_at_same_switch_counts_once() {
    let mut sim = sim_path(3);
    for d in [0u64, 5] {
        sim.inject(
            ActorId(0),
            SimDuration::millis(d),
            SwitchMsg::HostJoin {
                mc: MC,
                mc_type: McType::Symmetric,
                role: Role::SenderReceiver,
            },
        );
    }
    sim.run_to_quiescence();
    assert_eq!(sim.counter_value(counters::MEMBER_EVENTS), 1);
    assert_eq!(sim.counter_value(counters::COMPUTATIONS), 1);
}

#[test]
fn switch_accessors_expose_state() {
    let mut sim = sim_path(3);
    sim.inject(
        ActorId(1),
        SimDuration::ZERO,
        SwitchMsg::HostJoin {
            mc: MC,
            mc_type: McType::ReceiverOnly,
            role: Role::Receiver,
        },
    );
    sim.run_to_quiescence();
    let sw = sim.actor_as::<DgmcSwitch>(ActorId(1)).unwrap();
    assert_eq!(sw.id(), NodeId(1));
    assert!(sw.engine().is_member(MC));
    assert_eq!(sw.engine().state(MC).unwrap().mc_type, McType::ReceiverOnly);
    assert!(sw.routes().reaches(NodeId(2)));
    assert!(sw.last_install() > dgmc_des::SimTime::ZERO);
    assert_eq!(sw.delivered_copies(MC, 0), 0);
}

#[test]
fn data_between_installs_uses_latest_tree() {
    // Members 0 and 2 on a path; after 2 leaves, data from 0 goes nowhere
    // else (single member left).
    let mut sim = sim_path(3);
    for (i, n) in [0u32, 2].into_iter().enumerate() {
        sim.inject(
            ActorId(n),
            SimDuration::millis(i as u64),
            SwitchMsg::HostJoin {
                mc: MC,
                mc_type: McType::Symmetric,
                role: Role::SenderReceiver,
            },
        );
    }
    sim.run_to_quiescence();
    sim.inject(
        ActorId(2),
        SimDuration::millis(10),
        SwitchMsg::HostLeave { mc: MC },
    );
    sim.run_to_quiescence();
    sim.inject(
        ActorId(0),
        SimDuration::millis(20),
        SwitchMsg::SendData {
            mc: MC,
            packet_id: 3,
        },
    );
    sim.run_to_quiescence();
    let ex_member = sim.actor_as::<DgmcSwitch>(ActorId(2)).unwrap();
    assert_eq!(
        ex_member.delivered_copies(MC, 3),
        0,
        "ex-member hears nothing"
    );
    let sender = sim.actor_as::<DgmcSwitch>(ActorId(0)).unwrap();
    assert_eq!(sender.delivered_copies(MC, 3), 1, "sender still a member");
}

#[test]
#[should_panic(expected = "not incident")]
fn des_driver_panics_on_a_foreign_link_event() {
    let net = generate::path(4);
    let far = net.link_between(NodeId(2), NodeId(3)).unwrap().id;
    let mut sim = sim_path(4);
    sim.inject(
        ActorId(0),
        SimDuration::ZERO,
        SwitchMsg::LinkEvent {
            link: far,
            up: false,
            detector: true,
        },
    );
    sim.run_to_quiescence();
}

#[test]
fn link_repair_restores_routes() {
    let net = generate::ring(5);
    let mut sim = build_dgmc_sim(
        &net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    let link = net.link_between(NodeId(0), NodeId(1)).unwrap().id;
    inject_link_event(&mut sim, &net, link, false, SimDuration::ZERO);
    sim.run_to_quiescence();
    let sw0 = sim.actor_as::<DgmcSwitch>(ActorId(0)).unwrap();
    assert_eq!(sw0.routes().cost(NodeId(1)), Some(4), "the long way round");
    inject_link_event(&mut sim, &net, link, true, SimDuration::micros(1));
    sim.run_to_quiescence();
    assert_eq!(sim.counter_value(counters::ROUTER_FLOODS), 2);
    for src in net.nodes() {
        let sw = sim.actor_as::<DgmcSwitch>(ActorId(src.0)).unwrap();
        let reference = RoutingTable::compute(&net, src);
        for dst in net.nodes() {
            assert_eq!(sw.routes().cost(dst), reference.cost(dst), "{src}->{dst}");
        }
    }
}

const TC_NANOS: u64 = 300_000;

/// A bare core for switch `me` warm-started on `net`.
fn core_on(net: &Network, me: u32) -> SwitchCore {
    SwitchCore::new(
        NodeId(me),
        net,
        TC_NANOS,
        Rc::new(SphStrategy::new()),
        SpfCache::new(),
    )
}

/// A bare core for switch `me` on a path of `n` switches.
fn core_on_path(n: usize, me: u32) -> SwitchCore {
    core_on(&generate::path(n), me)
}

fn join(core: &mut SwitchCore, metrics: &mut MetricsRegistry, now: u64) -> Vec<Output> {
    core.on_join(now, metrics, MC, McType::Symmetric, Role::SenderReceiver)
}

/// The MC LSA switch `at` floods toward `to` after a local join on a path
/// of `n` switches.
fn join_flood(n: usize, at: u32, to: u32) -> Frame {
    let mut core = core_on_path(n, at);
    let mut metrics = MetricsRegistry::new();
    let timers = join(&mut core, &mut metrics, 0);
    assert!(matches!(
        timers.as_slice(),
        [Output::StartTimer {
            after_nanos: TC_NANOS,
            ..
        }]
    ));
    core.on_computation_done(TC_NANOS, &mut metrics, MC)
        .into_iter()
        .find_map(|out| match out {
            Output::Send { to: dst, frame } if dst == NodeId(to) => Some(frame),
            _ => None,
        })
        .expect("the proposal is flooded to the neighbour")
}

fn sends(outputs: &[Output]) -> Vec<NodeId> {
    outputs
        .iter()
        .filter_map(|out| match out {
            Output::Send { to, .. } => Some(*to),
            Output::StartTimer { .. } => None,
        })
        .collect()
}

#[test]
fn core_drops_and_counts_frames_from_non_neighbours() {
    // Path 0-1-2-3: switch 1 neighbours 0 and 2, never 3.
    let flood = join_flood(4, 2, 1);
    let data = Frame::Data(DataMsg {
        mc: MC,
        packet_id: 1,
        origin: NodeId(3),
        kind: DataKind::TreeFlood { via: None },
    });
    let mut core = core_on_path(4, 1);
    let mut metrics = MetricsRegistry::new();
    for (from, frame) in [(3, flood.clone()), (3, data), (99, flood.clone())] {
        assert!(core
            .on_frame(1, &mut metrics, NodeId(from), frame)
            .is_empty());
    }
    assert_eq!(metrics.counter_value(counters::UNKNOWN_SENDER), 3);
    assert_eq!(metrics.counter_value(counters::MC_LSAS), 0);
    assert_eq!(core.engine().mc_count(), 0, "the engine never saw the LSA");

    // The same LSA from the real neighbour is accepted and relayed on; a
    // second copy is a suppressed duplicate.
    let out = core.on_frame(2, &mut metrics, NodeId(2), flood.clone());
    assert_eq!(metrics.counter_value(counters::MC_LSAS), 1);
    assert_eq!(metrics.counter_value(counters::UNKNOWN_SENDER), 3);
    assert_eq!(sends(&out), vec![NodeId(0)]);
    assert!(core.on_frame(3, &mut metrics, NodeId(2), flood).is_empty());
    assert_eq!(metrics.counter_value(counters::DUPLICATES), 1);
    assert_eq!(metrics.counter_value(counters::MC_LSAS), 1);
}

#[test]
fn core_ignores_link_events_naming_an_unknown_neighbour() {
    let mut core = core_on_path(4, 1);
    let mut metrics = MetricsRegistry::new();
    let digest = core.image().digest();
    for dst in 0..4 {
        assert!(core.routes().reaches(NodeId(dst)), "warm start routes");
    }
    for stranger in [NodeId(3), NodeId(1), NodeId(99)] {
        for (up, detector) in [(false, true), (true, true), (true, false)] {
            assert!(core
                .on_link_event(0, &mut metrics, stranger, up, detector)
                .is_empty());
        }
    }
    assert!(metrics.counters_map().is_empty(), "nothing counted");
    assert_eq!(core.image().digest(), digest, "image untouched");

    // A real neighbour's link going down is advertised to the other one,
    // and routing drops the far side of the cut.
    let out = core.on_link_event(0, &mut metrics, NodeId(2), false, true);
    assert_eq!(metrics.counter_value(counters::ROUTER_FLOODS), 1);
    assert_eq!(sends(&out), vec![NodeId(0)]);
    assert_ne!(core.image().digest(), digest);
    assert!(!core.routes().reaches(NodeId(3)));
}

/// One handler call on a core, given a valid frame to deliver.
type Input = fn(&mut SwitchCore, &mut MetricsRegistry, &Frame) -> Vec<Output>;

#[test]
fn failed_core_drops_every_input_except_admin_up() {
    let flood = join_flood(3, 0, 1);
    let mut core = core_on_path(3, 1);
    let mut metrics = MetricsRegistry::new();
    assert!(core.on_admin(false).is_empty());
    assert!(core.is_failed());
    let inputs: [Input; 8] = [
        |c, m, _| join(c, m, 1),
        |c, m, _| c.on_leave(2, m, MC),
        |c, m, flood| c.on_frame(3, m, NodeId(0), flood.clone()),
        |c, m, _| c.on_link_event(4, m, NodeId(2), false, true),
        |c, m, _| c.on_link_event(5, m, NodeId(2), true, false),
        |c, m, _| c.on_computation_done(6, m, MC),
        |c, m, _| c.on_send_data(7, m, MC, 1),
        |c, _, _| c.on_admin(false),
    ];
    for input in inputs {
        assert!(input(&mut core, &mut metrics, &flood).is_empty());
        assert!(core.is_failed());
    }
    assert!(metrics.counters_map().is_empty(), "nothing counted");
    assert_eq!(core.engine().mc_count(), 0);

    // Revival brings the incident links back with the switch.
    assert!(core.on_admin(true).is_empty());
    assert!(!core.is_failed());
    assert_eq!(join(&mut core, &mut metrics, 8).len(), 1, "the Tc timer");
    let out = core.on_computation_done(8 + TC_NANOS, &mut metrics, MC);
    assert_eq!(sends(&out), vec![NodeId(0), NodeId(2)]);
    assert_eq!(metrics.counter_value(counters::MEMBER_EVENTS), 1);
}

#[test]
fn core_relays_a_stale_router_lsa_without_recomputing() {
    let net = generate::ring(4);
    let mut core = core_on(&net, 2);
    let mut metrics = MetricsRegistry::new();
    let digest = core.image().digest();
    // A fresh flood id carrying the warm-start (seq 0) LSA of switch 0: the
    // LSDB already holds that sequence number, so only the relay happens.
    let stale = Frame::Flood(FloodPacket {
        id: FloodId {
            origin: NodeId(0),
            seq: 99,
        },
        payload: DgmcPayload::Router(RouterLsa::describe(&net, NodeId(0), 0)),
    });
    let out = core.on_frame(0, &mut metrics, NodeId(1), stale);
    assert_eq!(sends(&out), vec![NodeId(3)]);
    assert!(metrics.counters_map().is_empty(), "no SPF run counted");
    assert_eq!(core.image().digest(), digest);
}
