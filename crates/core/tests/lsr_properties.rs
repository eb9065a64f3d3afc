//! Property-based tests of the LSR substrate as the D-GMC switches run it.
//!
//! A link failure injected into a [`build_dgmc_sim`] network must be
//! flooded once, reach every switch still connected to the detector exactly
//! once, and leave each of those switches with routes that match the
//! degraded ground truth. The checks read each simulated switch's own
//! image and routing table.

use dgmc_core::switch::{
    build_dgmc_sim, counters, inject_link_event, DgmcConfig, DgmcSwitch, SwitchMsg,
};
use dgmc_des::{ActorId, SimDuration, Simulation};
use dgmc_lsr::RoutingTable;
use dgmc_mctree::SphStrategy;
use dgmc_topology::{generate, LinkId, LinkState, Network, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

fn arb_net() -> impl Strategy<Value = Network> {
    (5usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::waxman(&mut rng, n, &generate::WaxmanParams::default())
    })
}

/// Fails `victim` (its lower-id endpoint advertises) and runs the network
/// to quiescence. Returns the simulation, the degraded ground truth and the
/// switches still connected to the detector.
fn fail_link(net: &Network, victim: LinkId) -> (Simulation<SwitchMsg>, Network, Vec<NodeId>) {
    let mut sim = build_dgmc_sim(
        net,
        DgmcConfig::computation_dominated(),
        Rc::new(SphStrategy::new()),
    );
    inject_link_event(&mut sim, net, victim, false, SimDuration::ZERO);
    sim.run_to_quiescence();
    let mut degraded = net.clone();
    degraded
        .set_link_state(victim, LinkState::Down)
        .expect("known link");
    let detector = net.link(victim).expect("known link").a;
    let reachable = dgmc_topology::spf::hop_distances(&degraded, detector)
        .into_iter()
        .zip(degraded.nodes())
        .filter_map(|(hops, n)| hops.map(|_| n))
        .collect();
    (sim, degraded, reachable)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A flooded advertisement is accepted exactly once per switch still
    /// reachable from the detector (the failed link may be a bridge, in
    /// which case the far side legitimately misses the flood), and the
    /// duplicate count is bounded by 2|E|.
    #[test]
    fn flooding_reaches_everyone_exactly_once(net in arb_net()) {
        let victim = net.up_links().next().expect("has links").id;
        let (sim, _, reachable) = fail_link(&net, victim);
        prop_assert_eq!(sim.counter_value(counters::ROUTER_FLOODS), 1);
        // Every delivery after the two injected link events is a copy of
        // the one router LSA: either its first arrival or a duplicate.
        let copies = sim.events_processed() - 2;
        let dup = sim.counter_value(counters::DUPLICATES);
        prop_assert_eq!(
            copies - dup,
            (reachable.len() - 1) as u64,
            "one acceptance per reachable non-origin switch"
        );
        prop_assert!(dup <= 2 * net.up_links().count() as u64);
    }

    /// After any single link failure, every switch still reachable from the
    /// detector sees the link down in its image and routes at shortest-path
    /// cost on the degraded graph.
    #[test]
    fn routes_converge_after_failure(net in arb_net(), pick in any::<prop::sample::Index>()) {
        let links: Vec<_> = net.up_links().map(|l| l.id).collect();
        let victim = links[pick.index(links.len())];
        let (sim, degraded, reachable) = fail_link(&net, victim);
        let failed = net.link(victim).expect("known link");
        for src in reachable {
            let switch = sim.actor_as::<DgmcSwitch>(ActorId(src.0)).expect("DgmcSwitch");
            let link = switch.image().link_between(failed.a, failed.b).expect("image has the link");
            prop_assert!(!link.is_up(), "{src} still sees {victim} up");
            let reference = RoutingTable::compute(&degraded, src);
            for dst in degraded.nodes() {
                prop_assert_eq!(
                    switch.routes().cost(dst),
                    reference.cost(dst),
                    "route {}->{}", src, dst
                );
            }
        }
    }
}
