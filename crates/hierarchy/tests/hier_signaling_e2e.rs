//! End-to-end tests of the hierarchical signaling layer: scoped flooding,
//! level coupling at attachments, cross-area convergence and data delivery.

use dgmc_core::switch::DgmcConfig;
use dgmc_core::{McId, McType, Role};
use dgmc_des::{ActorId, RunOutcome, SimDuration, Simulation};
use dgmc_hierarchy::switch::{build_hier_sim, counters, HierMsg, HierSwitch};
use dgmc_hierarchy::{AreaId, AreaMap};
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, Network, NodeId};
use std::rc::Rc;

const MC: McId = McId(1);

fn setup(k: usize) -> (Network, AreaMap, Simulation<HierMsg>) {
    let net = generate::grid(6, 6);
    let map = AreaMap::partition(&net, k);
    let sim = build_hier_sim(
        &net,
        &map,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    (net, map, sim)
}

fn join(sim: &mut Simulation<HierMsg>, node: NodeId, delay_ms: u64) {
    sim.inject(
        ActorId(node.0),
        SimDuration::millis(delay_ms),
        HierMsg::HostJoin {
            mc: MC,
            mc_type: McType::Symmetric,
            role: Role::SenderReceiver,
        },
    );
}

fn switch(sim: &Simulation<HierMsg>, n: NodeId) -> &HierSwitch {
    sim.actor_as::<HierSwitch>(ActorId(n.0))
        .expect("HierSwitch")
}

/// Area-level consensus among the switches of one area.
fn area_consensus(sim: &Simulation<HierMsg>, map: &AreaMap, area: AreaId) -> bool {
    let switches = map.switches_in(area);
    let reference = switch(sim, switches[0])
        .area_engine()
        .state(MC)
        .map(|st| (st.installed.clone(), st.members.clone(), st.c.clone()));
    switches.iter().all(|&s| {
        let st = switch(sim, s)
            .area_engine()
            .state(MC)
            .map(|st| (st.installed.clone(), st.members.clone(), st.c.clone()));
        st == reference
    })
}

#[test]
fn intra_area_event_floods_only_its_area() {
    let (_net, map, mut sim) = setup(4);
    // First member: floods the area and — once, inherently — attaches the
    // area on the backbone so other areas can discover cross-area overlap.
    let first = map.switches_in(AreaId(0))[1];
    join(&mut sim, first, 0);
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    let bb_after_first = sim.counter_value(counters::BB_LSAS);
    assert!(bb_after_first > 0, "first member attaches the area");
    let area_after_first = sim.counter_value(counters::AREA_LSAS);

    // Second member of the same area: a pure intra-area event. The
    // backbone hears NOTHING; the area flood is bounded by the area size.
    let second = map.switches_in(AreaId(0))[2];
    join(&mut sim, second, 50);
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    assert_eq!(
        sim.counter_value(counters::BB_LSAS),
        bb_after_first,
        "intra-area events must not touch the backbone"
    );
    let area_size = map.switches_in(AreaId(0)).len() as u64;
    let delta = sim.counter_value(counters::AREA_LSAS) - area_after_first;
    assert!(delta >= area_size - 1, "flood reaches the area");
    assert!(
        delta <= 2 * (area_size - 1),
        "event + proposal floods stay inside the area: {delta}"
    );
    // Switches in other areas never allocated area-level state.
    for other in map.switches_in(AreaId(2)) {
        assert!(switch(&sim, other).area_engine().state(MC).is_none());
    }
}

#[test]
fn cross_area_connection_couples_levels() {
    let (_net, map, mut sim) = setup(4);
    let a_member = map.switches_in(AreaId(0))[1];
    let b_member = map.switches_in(AreaId(3))[1];
    join(&mut sim, a_member, 0);
    join(&mut sim, b_member, 5);
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);

    // Backbone instance exists and spans two attachment borders.
    assert!(sim.counter_value(counters::BB_LSAS) > 0);
    let attachment_a = map
        .switches_in(AreaId(0))
        .into_iter()
        .find(|&s| switch(&sim, s).is_attachment())
        .expect("area 0 has an attachment");
    let bb = switch(&sim, attachment_a)
        .backbone_engine()
        .expect("attachment is a border");
    let bb_state = bb.state(MC).expect("backbone connection exists");
    assert_eq!(bb_state.members.len(), 2, "two areas attached");
    // Down-coupling: the attachment joined its own area as a relay.
    assert!(switch(&sim, attachment_a).area_engine().is_member(MC));
    // Both member areas reached internal consensus.
    assert!(area_consensus(&sim, &map, AreaId(0)));
    assert!(area_consensus(&sim, &map, AreaId(3)));
    // Uninvolved areas still know nothing at the area level.
    for s in map.switches_in(AreaId(1)) {
        assert!(switch(&sim, s).area_engine().state(MC).is_none());
    }
}

#[test]
fn cross_area_data_reaches_all_members_exactly_once() {
    let (_net, map, mut sim) = setup(4);
    let members: Vec<NodeId> = vec![
        map.switches_in(AreaId(0))[1],
        map.switches_in(AreaId(0))[2],
        map.switches_in(AreaId(3))[1],
    ];
    for (i, &m) in members.iter().enumerate() {
        join(&mut sim, m, 5 * i as u64);
    }
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    sim.inject(
        ActorId(members[0].0),
        SimDuration::millis(100),
        HierMsg::SendData {
            mc: MC,
            packet_id: 7,
        },
    );
    sim.run_to_quiescence();
    for &m in &members {
        assert_eq!(
            switch(&sim, m).delivered_copies(MC, 7),
            1,
            "member {m} must get exactly one copy"
        );
    }
    // No stray deliveries anywhere else.
    let total = sim.counter_value(counters::DATA_DELIVERED);
    assert_eq!(total, members.len() as u64);
}

#[test]
fn leave_collapses_backbone_membership() {
    let (_net, map, mut sim) = setup(4);
    let a_member = map.switches_in(AreaId(0))[1];
    let b_member = map.switches_in(AreaId(3))[1];
    join(&mut sim, a_member, 0);
    join(&mut sim, b_member, 5);
    sim.run_to_quiescence();
    // Area 3's member leaves; the backbone connection must collapse to one
    // attachment and area 3 must forget the MC entirely.
    sim.inject(
        ActorId(b_member.0),
        SimDuration::millis(50),
        HierMsg::HostLeave { mc: MC },
    );
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    let attachment_a = map
        .switches_in(AreaId(0))
        .into_iter()
        .find(|&s| switch(&sim, s).is_attachment())
        .unwrap();
    let bb_members = switch(&sim, attachment_a)
        .backbone_engine()
        .unwrap()
        .state(MC)
        .map(|st| st.members.len())
        .unwrap_or(0);
    assert_eq!(bb_members, 1, "only area 0 remains attached");
    // Area 0 keeps a working single-area connection.
    assert!(area_consensus(&sim, &map, AreaId(0)));
    assert!(switch(&sim, a_member).area_engine().is_member(MC));
}

#[test]
fn flood_scope_is_much_smaller_than_flat() {
    // The operational counterpart of scope::membership_event_scope: at 4
    // areas on 36 switches, intra-area joins generate LSA receptions
    // bounded by the area size, not the network size.
    let (net, map, mut sim) = setup(4);
    let member_a = map.switches_in(AreaId(1))[0];
    let member_b = map.switches_in(AreaId(1))[1];
    join(&mut sim, member_a, 0);
    join(&mut sim, member_b, 5);
    sim.run_to_quiescence();
    let receptions = sim.counter_value(counters::AREA_LSAS);
    let area_size = map.switches_in(AreaId(1)).len() as u64;
    let borders = map.borders(&net).len() as u64;
    // Two events, each flooding at most (area - 1) switches, plus at most
    // one triggered proposal each — versus 2 * (n - 1) = 70 under flat
    // D-GMC.
    assert!(
        receptions <= 4 * (area_size - 1),
        "{receptions} receptions vs area of {area_size}"
    );
    assert!(receptions < 2 * (net.len() as u64 - 1), "beats flat scope");
    // The backbone heard about the area attaching (first member only),
    // bounded by the border population.
    assert!(sim.counter_value(counters::BB_LSAS) <= 2 * borders);
}

#[test]
fn randomized_multi_area_churn_converges() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    for seed in 0..6u64 {
        let (net, map, mut sim) = setup(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let all: Vec<NodeId> = net.nodes().collect();
        // Random joins across areas, well separated.
        let mut members: Vec<NodeId> = Vec::new();
        for i in 0..6 {
            let &m = all.choose(&mut rng).unwrap();
            if members.contains(&m) {
                continue;
            }
            members.push(m);
            join(&mut sim, m, 20 * i as u64);
        }
        assert_eq!(
            sim.run_to_quiescence(),
            RunOutcome::Quiescent,
            "seed {seed}"
        );
        // Random leaves for half of them.
        let mut leavers = members.clone();
        leavers.shuffle(&mut rng);
        leavers.truncate(members.len() / 2);
        for (i, &l) in leavers.iter().enumerate() {
            sim.inject(
                ActorId(l.0),
                SimDuration::millis(500 + 20 * i as u64),
                HierMsg::HostLeave { mc: MC },
            );
        }
        assert_eq!(
            sim.run_to_quiescence(),
            RunOutcome::Quiescent,
            "seed {seed}"
        );
        let remaining: Vec<NodeId> = members
            .into_iter()
            .filter(|m| !leavers.contains(m))
            .collect();
        // Every member area reaches internal consensus and data flows from
        // the first remaining member to all others exactly once.
        let member_areas: std::collections::BTreeSet<AreaId> =
            remaining.iter().map(|&m| map.area_of(m)).collect();
        for &a in &member_areas {
            assert!(area_consensus(&sim, &map, a), "seed {seed} area {a}");
        }
        if let Some(&first) = remaining.first() {
            let pid = 1000 + seed;
            sim.inject(
                ActorId(first.0),
                SimDuration::millis(2000),
                HierMsg::SendData {
                    mc: MC,
                    packet_id: pid,
                },
            );
            sim.run_to_quiescence();
            for &m in &remaining {
                assert_eq!(
                    switch(&sim, m).delivered_copies(MC, pid),
                    1,
                    "seed {seed} member {m} (rng {})",
                    rng.gen::<u8>()
                );
            }
        }
    }
}

#[test]
fn attachment_host_leave_keeps_cross_area_data_flowing() {
    let (_net, map, mut sim) = setup(4);
    let attachment = map
        .switches_in(AreaId(0))
        .into_iter()
        .find(|&s| switch(&sim, s).is_attachment())
        .expect("area 0 has an attachment");
    let (local, remote) = (NodeId(0), NodeId(13));
    assert_eq!(attachment, NodeId(2));
    assert_eq!(map.area_of(local), AreaId(0));
    assert_eq!(map.area_of(remote), AreaId(3));
    join(&mut sim, attachment, 0);
    join(&mut sim, local, 5);
    join(&mut sim, remote, 10);
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    // The attachment's own host leaves; the connection still spans areas 0
    // and 3, so the attachment must stay on area 0's tree as a relay.
    sim.inject(
        ActorId(attachment.0),
        SimDuration::millis(50),
        HierMsg::HostLeave { mc: MC },
    );
    assert_eq!(sim.run_to_quiescence(), RunOutcome::Quiescent);
    assert!(switch(&sim, attachment).area_engine().is_member(MC));
    assert!(area_consensus(&sim, &map, AreaId(0)));
    for (pid, from, to) in [(1, remote, local), (2, local, remote)] {
        sim.inject(
            ActorId(from.0),
            SimDuration::millis(100),
            HierMsg::SendData {
                mc: MC,
                packet_id: pid,
            },
        );
        sim.run_to_quiescence();
        assert_eq!(
            switch(&sim, to).delivered_copies(MC, pid),
            1,
            "packet {pid} from {from} must reach {to} exactly once"
        );
        assert_eq!(switch(&sim, attachment).delivered_copies(MC, pid), 0);
    }
}
