//! Workload generators. Every input is a pure function of the seed; the
//! program under test only ever sees the generated graphs and events.

use dgmc_core::switch::DgmcConfig;
use dgmc_core::McId;
use dgmc_experiments::presets::{self, ExperimentSpec, WorkloadKind};
use dgmc_experiments::scenario::{Scenario, Step};
use dgmc_experiments::workload::{self, Workload};
use dgmc_topology::{generate, LinkId, Network, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig7Burst,
    Fig8Sparse,
    LinkChurn,
    MeshJoin,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig7Burst,
        Kind::Fig8Sparse,
        Kind::LinkChurn,
        Kind::MeshJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Burst => "fig7_burst",
            Kind::Fig8Sparse => "fig8_sparse",
            Kind::LinkChurn => "link_churn",
            Kind::MeshJoin => "mesh_join",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One graph of a paper preset with its membership workload.
#[derive(Debug, Clone)]
pub struct GraphCase {
    pub net: Network,
    pub workload: Workload,
}

/// The preset behind a DES figure workload.
pub fn preset(kind: Kind) -> ExperimentSpec {
    match kind {
        Kind::Fig7Burst => presets::experiment2(),
        Kind::Fig8Sparse => presets::experiment3(),
        Kind::LinkChurn | Kind::MeshJoin => unreachable!("not a paper preset"),
    }
}

/// Random graphs per network size of a figure workload, as in the presets:
/// enough cases that the latency quantiles and mean tree cost vary little
/// from seed to seed.
pub const FIGURE_GRAPHS_PER_SIZE: usize = 20;

/// The graphs and bursts of a paper preset (its sizes, generators and
/// timing), drawn from `seed` instead of the preset's seed.
pub fn figure_cases(spec: &ExperimentSpec, seed: u64) -> Vec<GraphCase> {
    let mut cases = Vec::with_capacity(spec.sizes.len() * FIGURE_GRAPHS_PER_SIZE);
    for &n in &spec.sizes {
        for g in 0..FIGURE_GRAPHS_PER_SIZE {
            let case_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((n as u64) << 16)
                .wrapping_add(g as u64);
            let mut rng = StdRng::seed_from_u64(case_seed);
            let net = generate::waxman(&mut rng, n, &generate::WaxmanParams::default());
            let workload = match &spec.workload {
                WorkloadKind::Bursty(p) => workload::bursty(&mut rng, &net, p),
                WorkloadKind::Sparse(p) => workload::sparse(&mut rng, &net, p),
            };
            cases.push(GraphCase { net, workload });
        }
    }
    cases
}

/// Graphs in one `link_churn` pass. The protocol counts per event depend
/// on how many trees the flapped links carry, which varies from graph to
/// graph and flap to flap (per graph by about a quarter); eight graphs keep
/// the seed-to-seed spread of their means near a tenth.
pub const CHURN_GRAPHS: usize = 8;
/// Switches of a `link_churn` graph.
pub const CHURN_NODES: usize = 200;
/// Resident connections joined during set-up, per graph.
pub const CHURN_MCS: usize = 50;
/// Members per resident connection.
pub const CHURN_MEMBERS: usize = 5;
/// Cut-then-repair cycles per graph.
pub const CHURN_FLAPS: usize = 40;

/// Timing regime of `link_churn` (the paper's ATM regime).
pub fn churn_config() -> DgmcConfig {
    DgmcConfig::computation_dominated()
}

/// One `link_churn` graph: a Waxman graph, resident connections and the
/// links to flap. Links are drawn uniformly, bridges included.
#[derive(Debug, Clone)]
pub struct ChurnInput {
    /// The seed this graph was drawn from (for repro notes).
    pub seed: u64,
    pub net: Network,
    pub mcs: Vec<(McId, Vec<NodeId>)>,
    pub flaps: Vec<LinkId>,
}

/// The graphs of one `link_churn` pass.
pub fn link_churn(seed: u64) -> Vec<ChurnInput> {
    (0..CHURN_GRAPHS as u64)
        .map(|g| churn_graph(seed.wrapping_mul(1_000_003).wrapping_add(g)))
        .collect()
}

fn churn_graph(seed: u64) -> ChurnInput {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11C4_0000);
    let net = generate::waxman(&mut rng, CHURN_NODES, &generate::WaxmanParams::default());
    let mcs = (1..=CHURN_MCS)
        .map(|m| {
            let id = McId(u32::try_from(m).expect("few connections"));
            (id, generate::sample_nodes(&mut rng, &net, CHURN_MEMBERS))
        })
        .collect();
    let links: Vec<LinkId> = net.links().map(|l| l.id).collect();
    let flaps = (0..CHURN_FLAPS)
        .map(|_| links[rng.gen_range(0..links.len())])
        .collect();
    ChurnInput {
        seed,
        net,
        mcs,
        flaps,
    }
}

/// Node processes of the `mesh_join` ring.
pub const MESH_NODES: usize = 4;
/// Membership events in one mesh pass: the join/leave pattern once for
/// each connection.
pub const MESH_EVENTS: usize = MESH_PATTERN.len() * MESH_MCS.len();
/// The connections the mesh events alternate between.
pub const MESH_MCS: [McId; 2] = [McId(1), McId(2)];
/// Each connection's events follow this join (`true`) / leave pattern, so
/// every seed walks the same connection sizes, 1, 2, 3, 4, 3, 2, 3, 4, and
/// ends with every switch a member: the final tree spans the ring whichever
/// switches the seed picked, so its cost does not vary with the seed.
const MESH_PATTERN: [bool; 7] = [true, true, true, false, false, true, true];

/// The `mesh_join` input: a ring, warm-up joins and the measured events.
#[derive(Debug, Clone)]
pub struct MeshInput {
    pub scenario: Scenario,
    pub warm_up: Vec<Step>,
    pub events: Vec<Step>,
}

/// Joins and leaves alternate between the two connections. The seed picks
/// the switch: a non-member joins, a member leaves.
pub fn mesh_join(seed: u64) -> MeshInput {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_5348);
    let net = generate::ring(MESH_NODES);
    let mut members: Vec<Vec<NodeId>> = vec![vec![NodeId(0)], vec![NodeId(2)]];
    let warm_up: Vec<Step> = MESH_MCS
        .iter()
        .zip(&members)
        .map(|(&mc, m)| Step::Join {
            node: m[0],
            at_ms: 0,
            mc,
        })
        .collect();
    let mut events = Vec::with_capacity(MESH_EVENTS);
    for i in 0..MESH_EVENTS {
        let which = i % MESH_MCS.len();
        let mc = MESH_MCS[which];
        let group = &mut members[which];
        let join = MESH_PATTERN[i / MESH_MCS.len()];
        if join {
            let outside: Vec<NodeId> = net.nodes().filter(|n| !group.contains(n)).collect();
            let node = outside[rng.gen_range(0..outside.len())];
            group.push(node);
            events.push(Step::Join { node, at_ms: 0, mc });
        } else {
            let node = group.remove(rng.gen_range(0..group.len()));
            events.push(Step::Leave { node, at_ms: 0, mc });
        }
    }
    MeshInput {
        scenario: Scenario {
            net,
            steps: warm_up.iter().chain(&events).cloned().collect(),
        },
        warm_up,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(cases: &[GraphCase]) -> Vec<String> {
        cases
            .iter()
            .map(|c| format!("{} {:?}", c.net.digest(), c.workload.events))
            .collect()
    }

    #[test]
    fn figure_cases_are_a_function_of_the_seed() {
        for kind in [Kind::Fig7Burst, Kind::Fig8Sparse] {
            let spec = preset(kind);
            let a = figure_cases(&spec, 7);
            assert_eq!(a.len(), spec.sizes.len() * FIGURE_GRAPHS_PER_SIZE);
            assert_eq!(digest(&a), digest(&figure_cases(&spec, 7)));
            assert_ne!(digest(&a), digest(&figure_cases(&spec, 8)));
        }
    }

    #[test]
    fn churn_input_is_a_function_of_the_seed() {
        let (a, b) = (link_churn(3), link_churn(3));
        assert_eq!(a.len(), CHURN_GRAPHS);
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.net.digest(), b.net.digest());
            assert_eq!(a.mcs, b.mcs);
            assert_eq!(a.flaps, b.flaps);
            assert_eq!(a.mcs.len(), CHURN_MCS);
            assert_eq!(a.flaps.len(), CHURN_FLAPS);
            assert!(a.mcs.iter().all(|(_, m)| m.len() == CHURN_MEMBERS));
        }
        assert_ne!(a[0].flaps, a[1].flaps);
        assert_ne!(a[0].flaps, link_churn(4)[0].flaps);
    }

    #[test]
    fn mesh_input_is_a_function_of_the_seed_and_keeps_a_member() {
        let a = mesh_join(5);
        assert_eq!(a.events, mesh_join(5).events);
        assert_eq!(a.events.len(), MESH_EVENTS);
        assert_eq!(a.scenario.net.len(), MESH_NODES);
        let mut members = [1usize, 1];
        for step in &a.events {
            match step {
                Step::Join { mc, .. } => members[(mc.0 - 1) as usize] += 1,
                Step::Leave { mc, .. } => members[(mc.0 - 1) as usize] -= 1,
                _ => panic!("only membership events"),
            }
            assert!(members.iter().all(|&m| m >= 1));
        }
        assert_eq!(
            members, [MESH_NODES; 2],
            "every seed ends with every switch a member"
        );
        let distinct: std::collections::BTreeSet<String> = (0..8)
            .map(|seed| format!("{:?}", mesh_join(seed).events))
            .collect();
        assert!(distinct.len() > 1, "the seed picks the switches");
    }
}
