//! The DES fault model on the UDP send path.
//!
//! The DES injects loss through [`dgmc_des::net::FaultyNet`]; real sockets
//! need the same treatment to test loss tolerance end to end. The shim runs
//! the same [`FaultPlan`] (parsed by [`FaultPlan::from_json`] from the
//! repro-bundle JSON format) through the same draw,
//! [`dgmc_des::LinkFaults::draw`], so each datagram meets a DES fate: hard
//! loss drops it, recovered loss delays it by capped retransmission rounds,
//! and duplication and jitter add a copy and delay. The shim is seeded per
//! node, so a mesh run is reproducible from `(plan, seed)` exactly like a
//! DES run. `flaps`/`outages` in the plan are scenario-harness concerns and
//! are ignored here.

use dgmc_des::net::FaultPlan;
use dgmc_des::{ActorId, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The send-path shim: decides the fate of each outgoing datagram.
#[derive(Debug)]
pub struct SendShim {
    plan: FaultPlan,
    rng: StdRng,
    me: u32,
}

impl SendShim {
    /// Creates the shim for node `me`; the fault schedule is a pure
    /// function of `(plan, seed, me)`.
    pub fn new(plan: FaultPlan, seed: u64, me: u32) -> SendShim {
        // Decorrelate per-node streams without losing reproducibility.
        let node_seed = seed ^ u64::from(me).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SendShim {
            plan,
            rng: StdRng::seed_from_u64(node_seed),
            me,
        }
    }

    /// Decides the fate of one datagram toward `to`: the extra send delay
    /// in nanoseconds of each copy to put on the wire. Empty means hard
    /// loss; `0` means send immediately; larger values become driver
    /// retransmission timers (recovered loss / jitter / duplicates).
    pub fn fate(&mut self, to: u32) -> Vec<u64> {
        let faults = self.plan.faults_between(ActorId(self.me), ActorId(to));
        let Some(fate) = faults.draw(
            &mut self.rng,
            self.plan.retransmit_after,
            self.plan.max_retries,
        ) else {
            return Vec::new();
        };
        std::iter::once(fate.extra)
            .chain(fate.duplicate)
            .map(SimDuration::as_nanos)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_des::LinkFaults;

    const PLAN: &str = r#"{
        "default": {"loss": 0.25, "hard_loss": 0.0, "duplicate": 0.1, "jitter_ns": 500},
        "overrides": [
            {"a": 1, "b": 0, "faults": {"loss": 0.0, "hard_loss": 1.0, "duplicate": 0.0, "jitter_ns": 0}}
        ],
        "retransmit_after_ns": 20000,
        "max_retries": 5,
        "flaps": [],
        "outages": []
    }"#;

    fn between(plan: &FaultPlan, a: u32, b: u32) -> LinkFaults {
        plan.faults_between(ActorId(a), ActorId(b))
    }

    #[test]
    fn parses_the_des_plan_format() {
        let plan = FaultPlan::from_json(PLAN).unwrap();
        assert_eq!(plan.default.loss, 0.25);
        assert_eq!(plan.retransmit_after, SimDuration::micros(20));
        assert_eq!(plan.max_retries, 5);
        assert_eq!(between(&plan, 1, 0).hard_loss, 1.0);
        assert_eq!(between(&plan, 0, 1).hard_loss, 1.0, "unordered key");
        assert_eq!(between(&plan, 0, 2).loss, 0.25);
    }

    #[test]
    fn rejects_bad_probability() {
        let text = r#"{"default": {"loss": 1.5}}"#;
        assert!(FaultPlan::from_json(text).is_err());
    }

    #[test]
    fn hard_loss_drops_recovered_loss_delays() {
        let mut plan = FaultPlan::none();
        plan.overrides.insert(
            (0, 1),
            LinkFaults {
                hard_loss: 1.0,
                ..LinkFaults::none()
            },
        );
        plan.overrides.insert(
            (0, 2),
            LinkFaults {
                loss: 1.0,
                ..LinkFaults::none()
            },
        );
        let mut shim = SendShim::new(plan, 7, 0);
        assert!(shim.fate(1).is_empty(), "hard loss drops");
        let copies = shim.fate(2);
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0], 20_000 * 5, "loss=1 exhausts max_retries");
    }

    #[test]
    fn same_seed_same_fate_stream() {
        let plan = FaultPlan::from_json(PLAN).unwrap();
        let mut a = SendShim::new(plan.clone(), 42, 3);
        let mut b = SendShim::new(plan, 42, 3);
        for to in [0u32, 1, 2, 4, 0, 2] {
            assert_eq!(a.fate(to), b.fate(to));
        }
    }

    #[test]
    fn shim_and_faulty_net_draw_the_same_fates() {
        use dgmc_des::net::{FaultyNet, NetModel};
        use dgmc_des::SimTime;
        let plan = FaultPlan::from_json(PLAN).unwrap();
        // Node 0 seeds its stream with the plain seed, like the DES model.
        let mut shim = SendShim::new(plan.clone(), 9, 0);
        let mut net = FaultyNet::new(plan, 9);
        for i in 0..200u64 {
            let to = [1u32, 2, 3][(i % 3) as usize];
            // Sends a second apart never meet the DES FIFO clamp.
            let now = SimTime::from_nanos(i * 1_000_000_000);
            let des = net.route(ActorId(0), ActorId(to), now, SimDuration::ZERO);
            let node = shim.fate(to);
            assert_eq!(des.len(), node.len(), "send {i}");
            if let (Some(d), Some(&n)) = (des.first(), node.first()) {
                assert_eq!(d.delay.as_nanos(), n, "send {i}");
            }
        }
    }

    #[test]
    fn transparent_plan_sends_one_immediate_copy() {
        let mut shim = SendShim::new(FaultPlan::none(), 1, 0);
        assert_eq!(shim.fate(1), vec![0]);
    }
}
