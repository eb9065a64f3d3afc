//! Fault injection on the message-delivery path.
//!
//! A [`NetModel`] sits between [`crate::Ctx::send`] and the event queue:
//! every actor-to-actor message is routed through it and may be delayed,
//! duplicated, retransmitted or dropped. Timers
//! ([`crate::Ctx::schedule_self`]) and externally injected events bypass the
//! model — they are not network traffic.
//!
//! [`FaultyNet`] is the standard implementation: a declarative [`FaultPlan`]
//! (per-link loss, duplication, jitter, plus scheduled link flaps and node
//! outages carried for the scenario harness) driven by a seeded
//! [`rand::rngs::StdRng`], so a run's entire fault schedule is a pure
//! function of `(plan, seed)` and any failure replays from its seed.
//!
//! Two loss regimes are distinguished on purpose. D-GMC assumes reliable
//! flooding (the paper's LSAs ride OSPF-style flooding with link-level
//! acknowledgment), so [`LinkFaults::loss`] models loss *recovered* by
//! retransmission: the message arrives late — after
//! [`FaultPlan::retransmit_after`] per lost attempt — but always arrives.
//! [`LinkFaults::hard_loss`] genuinely discards messages; non-zero values
//! break the protocol's delivery assumption and are used by mutation checks
//! to prove the invariant suite can catch real divergence.
//!
//! [`FaultyNet`] preserves per-directed-link FIFO: copies between the same
//! ordered pair of actors never overtake each other (a head-of-line clamp on
//! the delivery instant). Same-origin LSAs therefore keep their order along
//! every path — reordering happens *across* links and paths, which is where
//! the protocol's concurrent-proposal machinery is exercised.
//!
//! [`NetStats`] is the ledger of the delivery path: the simulator counts
//! every send, drop, duplicate and retransmission round, and the books must
//! [reconcile][NetStats::reconciles] — copies scheduled equals sends minus
//! drops plus duplicates.

use crate::{ActorId, SimDuration, SimTime};
use dgmc_obs::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Message accounting across the network model.
///
/// All zeros until a [`NetModel`] is installed; see
/// [`crate::Simulation::net_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Actor-to-actor sends routed through the model.
    pub sent: u64,
    /// Message copies actually scheduled for delivery.
    pub delivered: u64,
    /// Messages hard-dropped (never delivered).
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Recovered retransmission rounds (late deliveries, not extra copies).
    pub retransmits: u64,
}

impl NetStats {
    /// Checks the conservation law of the delivery path:
    /// `sent + duplicated == delivered + dropped`.
    pub fn reconciles(&self) -> bool {
        self.sent + self.duplicated == self.delivered + self.dropped
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} duplicated={} retransmits={}",
            self.sent, self.delivered, self.dropped, self.duplicated, self.retransmits
        )
    }
}

/// Provenance of one scheduled copy of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// The message, delivered on the first attempt.
    Original,
    /// The message, delivered after this many lost attempts were recovered
    /// by link-level retransmission.
    Retransmit(u32),
    /// An injected extra copy.
    Duplicate,
}

/// One copy of a message the network will deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Total delay from the send instant.
    pub delay: SimDuration,
    /// How this copy came to be.
    pub kind: DeliveryKind,
}

/// A hook on every actor-to-actor message send.
///
/// Returning an empty vector drops the message; more than one entry
/// duplicates it. Implementations must be deterministic for reproducibility:
/// seed any randomness explicitly.
pub trait NetModel {
    /// Decides the fate of one message sent `from → to` at `now`, whose
    /// fault-free delivery delay would be `base`.
    fn route(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: SimTime,
        base: SimDuration,
    ) -> Vec<Delivery>;
}

/// Fault probabilities and delay noise applied to one (directed) link; the
/// default is [`LinkFaults::none`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Per-attempt loss probability, recovered by link-level retransmission:
    /// the message arrives [`FaultPlan::retransmit_after`] later per lost
    /// attempt, but always arrives.
    pub loss: f64,
    /// Probability the message is genuinely dropped, with no recovery.
    /// D-GMC assumes reliable flooding, so non-zero values are expected to
    /// break invariants — used by mutation checks.
    pub hard_loss: f64,
    /// Probability one extra copy is delivered.
    pub duplicate: f64,
    /// Maximum uniform extra delay added to every copy.
    pub jitter: SimDuration,
}

impl LinkFaults {
    /// A fault-free link (zero probabilities, zero jitter).
    pub fn none() -> LinkFaults {
        LinkFaults {
            loss: 0.0,
            hard_loss: 0.0,
            duplicate: 0.0,
            jitter: SimDuration::ZERO,
        }
    }

    /// Draws the fate of one message on this link: `None` on hard loss.
    ///
    /// The draw order — hard loss, capped geometric retries, jitter,
    /// duplicate, the duplicate's jitter — fixes what a seed means, so every
    /// fault model that calls this replays the same schedule.
    pub fn draw(
        &self,
        rng: &mut StdRng,
        retransmit_after: SimDuration,
        max_retries: u32,
    ) -> Option<Fate> {
        if self.hard_loss > 0.0 && rng.gen_bool(self.hard_loss) {
            return None;
        }
        let mut retries = 0u32;
        while self.loss > 0.0 && retries < max_retries && rng.gen_bool(self.loss) {
            retries += 1;
        }
        let extra = jitter(rng, self.jitter) + retransmit_after * u64::from(retries);
        let duplicate = (self.duplicate > 0.0 && rng.gen_bool(self.duplicate))
            .then(|| jitter(rng, self.jitter));
        Some(Fate {
            retries,
            extra,
            duplicate,
        })
    }

    fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss", self.loss),
            ("hard_loss", self.hard_loss),
            ("duplicate", self.duplicate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {name}={p} out of [0, 1]"));
            }
        }
        Ok(())
    }

    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("loss", JsonValue::F64(self.loss)),
            ("hard_loss", JsonValue::F64(self.hard_loss)),
            ("duplicate", JsonValue::F64(self.duplicate)),
            ("jitter_ns", JsonValue::U64(self.jitter.as_nanos())),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<LinkFaults, String> {
        Ok(LinkFaults {
            loss: read(v, "loss", Some(0.0), prob_of)?,
            hard_loss: read(v, "hard_loss", Some(0.0), prob_of)?,
            duplicate: read(v, "duplicate", Some(0.0), prob_of)?,
            jitter: read(v, "jitter_ns", Some(SimDuration::ZERO), nanos_of)?,
        })
    }
}

/// The fate of one message, drawn by [`LinkFaults::draw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    /// Lost attempts recovered by link-level retransmission.
    pub retries: u32,
    /// Delay of the message beyond its fault-free delivery: jitter plus one
    /// retransmission round per retry.
    pub extra: SimDuration,
    /// Delay of an injected extra copy beyond fault-free delivery, if any.
    pub duplicate: Option<SimDuration>,
}

/// A uniform delay in `[0, max]` (no draw when `max` is zero).
fn jitter(rng: &mut StdRng, max: SimDuration) -> SimDuration {
    if max.is_zero() {
        SimDuration::ZERO
    } else {
        SimDuration::nanos(rng.gen_range(0..=max.as_nanos()))
    }
}

/// Reads `key` of object `v` with `parse`; `default` stands in when the key
/// is absent (`None` makes it required).
fn read<'a, T>(
    v: &'a JsonValue,
    key: &str,
    default: Option<T>,
    parse: fn(&'a JsonValue) -> Option<T>,
) -> Result<T, String> {
    match v.get(key) {
        None => default.ok_or_else(|| format!("fault plan: missing `{key}`")),
        Some(x) => parse(x).ok_or_else(|| format!("fault plan: bad `{key}`: {}", x.to_json())),
    }
}

fn u64_of(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::U64(n) => Some(*n),
        _ => None,
    }
}

fn u32_of(v: &JsonValue) -> Option<u32> {
    u64_of(v).and_then(|n| u32::try_from(n).ok())
}

fn nanos_of(v: &JsonValue) -> Option<SimDuration> {
    u64_of(v).map(SimDuration::nanos)
}

fn prob_of(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::U64(n) => Some(*n as f64),
        JsonValue::F64(f) => Some(*f),
        _ => None,
    }
}

/// A scheduled link flap, in time relative to the scenario's fault phase.
///
/// The network model itself does not apply flaps — they are ground-truth
/// topology events injected by the scenario harness (via the protocol's
/// link-event path). They live in the plan so a repro bundle fully describes
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// One endpoint of the flapped link.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// When the link goes down.
    pub down_at: SimDuration,
    /// When it comes back up (must be after `down_at`).
    pub up_at: SimDuration,
}

/// A scheduled node crash/restart window (same conventions as [`LinkFlap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The crashing node.
    pub node: u32,
    /// When the node crashes.
    pub down_at: SimDuration,
    /// When it restarts (must be after `down_at`).
    pub up_at: SimDuration,
}

/// A declarative description of everything injected into one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Faults applied to every directed link without an override.
    pub default: LinkFaults,
    /// Per-link overrides, keyed by the unordered endpoint pair
    /// `(min(a, b), max(a, b))` — both directions of the link get them.
    pub overrides: BTreeMap<(u32, u32), LinkFaults>,
    /// Extra delay of one link-level retransmission round.
    pub retransmit_after: SimDuration,
    /// Cap on recovered retransmission rounds per message.
    pub max_retries: u32,
    /// Link flaps the scenario harness will inject.
    pub flaps: Vec<LinkFlap>,
    /// Node crash/restart windows the scenario harness will inject.
    pub outages: Vec<NodeOutage>,
}

impl FaultPlan {
    /// A plan that injects nothing at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            default: LinkFaults::none(),
            overrides: BTreeMap::new(),
            retransmit_after: SimDuration::micros(20),
            max_retries: 5,
            flaps: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// A uniform plan: the same faults on every link, no flaps or outages.
    pub fn uniform(faults: LinkFaults) -> FaultPlan {
        FaultPlan {
            default: faults,
            ..FaultPlan::none()
        }
    }

    /// The faults applied between `from` and `to`.
    pub fn faults_between(&self, from: ActorId, to: ActorId) -> LinkFaults {
        let key = (from.0.min(to.0), from.0.max(to.0));
        self.overrides.get(&key).copied().unwrap_or(self.default)
    }

    /// Renders the plan as a JSON value (for repro bundles).
    pub fn to_json(&self) -> JsonValue {
        let overrides = self
            .overrides
            .iter()
            .map(|(&(a, b), f)| {
                JsonValue::obj(vec![
                    ("a", JsonValue::U64(a as u64)),
                    ("b", JsonValue::U64(b as u64)),
                    ("faults", f.to_json()),
                ])
            })
            .collect();
        let flaps = self
            .flaps
            .iter()
            .map(|fl| {
                JsonValue::obj(vec![
                    ("a", JsonValue::U64(fl.a as u64)),
                    ("b", JsonValue::U64(fl.b as u64)),
                    ("down_at_ns", JsonValue::U64(fl.down_at.as_nanos())),
                    ("up_at_ns", JsonValue::U64(fl.up_at.as_nanos())),
                ])
            })
            .collect();
        let outages = self
            .outages
            .iter()
            .map(|o| {
                JsonValue::obj(vec![
                    ("node", JsonValue::U64(o.node as u64)),
                    ("down_at_ns", JsonValue::U64(o.down_at.as_nanos())),
                    ("up_at_ns", JsonValue::U64(o.up_at.as_nanos())),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("default", self.default.to_json()),
            ("overrides", JsonValue::Arr(overrides)),
            (
                "retransmit_after_ns",
                JsonValue::U64(self.retransmit_after.as_nanos()),
            ),
            ("max_retries", JsonValue::U64(self.max_retries as u64)),
            ("flaps", JsonValue::Arr(flaps)),
            ("outages", JsonValue::Arr(outages)),
        ])
    }

    /// Parses the JSON [`to_json`](Self::to_json) writes (the repro-bundle
    /// and `dgmc-node --fault-plan` format). Absent `overrides`, `flaps` and
    /// `outages` mean none, absent probabilities and jitter mean zero, and
    /// absent `retransmit_after_ns`/`max_retries` take the
    /// [`FaultPlan::none`] values.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing `default`, a probability outside `[0, 1]`,
    /// an empty flap or outage window, or an `a`/`b`/`node`/`max_retries`
    /// value that does not fit `u32`. Never panics.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let root = JsonValue::parse(text)?;
        let none = FaultPlan::none();
        let default = root
            .get("default")
            .ok_or_else(|| "fault plan: missing `default`".to_owned())
            .and_then(LinkFaults::from_json)?;
        let mut overrides = BTreeMap::new();
        let list = |key| read(&root, key, Some(&[][..]), JsonValue::as_array);
        for entry in list("overrides")? {
            let a = read(entry, "a", None, u32_of)?;
            let b = read(entry, "b", None, u32_of)?;
            let faults = entry
                .get("faults")
                .ok_or_else(|| "fault plan: override missing `faults`".to_owned())
                .and_then(LinkFaults::from_json)?;
            overrides.insert((a.min(b), a.max(b)), faults);
        }
        let flaps = list("flaps")?
            .iter()
            .map(|fl| {
                Ok(LinkFlap {
                    a: read(fl, "a", None, u32_of)?,
                    b: read(fl, "b", None, u32_of)?,
                    down_at: read(fl, "down_at_ns", None, nanos_of)?,
                    up_at: read(fl, "up_at_ns", None, nanos_of)?,
                })
            })
            .collect::<Result<_, String>>()?;
        let outages = list("outages")?
            .iter()
            .map(|o| {
                Ok(NodeOutage {
                    node: read(o, "node", None, u32_of)?,
                    down_at: read(o, "down_at_ns", None, nanos_of)?,
                    up_at: read(o, "up_at_ns", None, nanos_of)?,
                })
            })
            .collect::<Result<_, String>>()?;
        let plan = FaultPlan {
            default,
            overrides,
            retransmit_after: read(
                &root,
                "retransmit_after_ns",
                Some(none.retransmit_after),
                nanos_of,
            )?,
            max_retries: read(&root, "max_retries", Some(none.max_retries), u32_of)?,
            flaps,
            outages,
        };
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> Result<(), String> {
        self.default.validate()?;
        for f in self.overrides.values() {
            f.validate()?;
        }
        if self.flaps.iter().any(|fl| fl.down_at >= fl.up_at) {
            return Err("flap must come back up after down".to_owned());
        }
        if self.outages.iter().any(|o| o.down_at >= o.up_at) {
            return Err("outage must end after it starts".to_owned());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The standard [`NetModel`]: a [`FaultPlan`] driven by a seeded RNG.
///
/// Per-directed-link FIFO is enforced with a head-of-line clamp: a copy is
/// never scheduled earlier than the previously scheduled copy on the same
/// `(from, to)` pair, and the queue's FIFO tie-break preserves order among
/// equal instants.
#[derive(Debug)]
pub struct FaultyNet {
    plan: FaultPlan,
    rng: StdRng,
    /// Per directed pair: the latest delivery instant scheduled so far.
    next_free: BTreeMap<(u32, u32), SimTime>,
}

impl FaultyNet {
    /// Creates the model; the fault schedule is a pure function of
    /// `(plan, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if any plan probability is outside `[0, 1]` or any flap/outage
    /// window is empty.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultyNet {
        if let Err(e) = plan.validate() {
            panic!("{e}");
        }
        FaultyNet {
            plan,
            rng: StdRng::seed_from_u64(seed),
            next_free: BTreeMap::new(),
        }
    }

    /// Clamps `at` to the pair's FIFO horizon and advances the horizon.
    fn clamp(&mut self, from: ActorId, to: ActorId, at: SimTime) -> SimTime {
        let slot = self.next_free.entry((from.0, to.0)).or_insert(at);
        let clamped = at.max(*slot);
        *slot = clamped;
        clamped
    }
}

impl NetModel for FaultyNet {
    fn route(
        &mut self,
        from: ActorId,
        to: ActorId,
        now: SimTime,
        base: SimDuration,
    ) -> Vec<Delivery> {
        let Some(fate) = self.plan.faults_between(from, to).draw(
            &mut self.rng,
            self.plan.retransmit_after,
            self.plan.max_retries,
        ) else {
            return Vec::new();
        };
        let at = self.clamp(from, to, now + base + fate.extra);
        let mut out = vec![Delivery {
            delay: at - now,
            kind: if fate.retries > 0 {
                DeliveryKind::Retransmit(fate.retries)
            } else {
                DeliveryKind::Original
            },
        }];
        if let Some(extra) = fate.duplicate {
            let dup_at = self.clamp(from, to, now + base + extra);
            out.push(Delivery {
                delay: dup_at - now,
                kind: DeliveryKind::Duplicate,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: SimDuration = SimDuration::ZERO;

    fn route_once(net: &mut FaultyNet, now_us: u64) -> Vec<Delivery> {
        net.route(
            ActorId(0),
            ActorId(1),
            SimTime::ZERO + SimDuration::micros(now_us),
            SimDuration::micros(10),
        )
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let mut net = FaultyNet::new(FaultPlan::none(), 1);
        let d = route_once(&mut net, 0);
        assert_eq!(
            d,
            vec![Delivery {
                delay: SimDuration::micros(10),
                kind: DeliveryKind::Original,
            }]
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::uniform(LinkFaults {
            loss: 0.3,
            hard_loss: 0.1,
            duplicate: 0.3,
            jitter: SimDuration::micros(50),
        });
        let mut a = FaultyNet::new(plan.clone(), 42);
        let mut b = FaultyNet::new(plan, 42);
        for i in 0..200 {
            assert_eq!(route_once(&mut a, i), route_once(&mut b, i));
        }
    }

    #[test]
    fn hard_loss_one_drops_everything() {
        let mut net = FaultyNet::new(
            FaultPlan::uniform(LinkFaults {
                hard_loss: 1.0,
                ..LinkFaults::none()
            }),
            7,
        );
        for i in 0..20 {
            assert!(route_once(&mut net, i).is_empty());
        }
    }

    #[test]
    fn duplicate_one_always_produces_two_copies() {
        let mut net = FaultyNet::new(
            FaultPlan::uniform(LinkFaults {
                duplicate: 1.0,
                ..LinkFaults::none()
            }),
            7,
        );
        let d = route_once(&mut net, 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].kind, DeliveryKind::Original);
        assert_eq!(d[1].kind, DeliveryKind::Duplicate);
    }

    #[test]
    fn recovered_loss_adds_retransmission_rounds() {
        let mut plan = FaultPlan::uniform(LinkFaults {
            loss: 1.0,
            ..LinkFaults::none()
        });
        plan.retransmit_after = SimDuration::micros(100);
        plan.max_retries = 3;
        let mut net = FaultyNet::new(plan, 7);
        let d = route_once(&mut net, 0);
        // loss = 1.0 exhausts every retry, then delivers anyway.
        assert_eq!(d.len(), 1, "recovered loss still delivers");
        assert_eq!(d[0].kind, DeliveryKind::Retransmit(3));
        assert_eq!(d[0].delay, SimDuration::micros(10 + 300));
    }

    #[test]
    fn per_directed_link_fifo_is_preserved_under_jitter() {
        let plan = FaultPlan::uniform(LinkFaults {
            loss: 0.4,
            duplicate: 0.3,
            jitter: SimDuration::micros(500),
            ..LinkFaults::none()
        });
        let mut net = FaultyNet::new(plan, 99);
        let mut last = SimTime::ZERO;
        for i in 0..300 {
            let now = SimTime::ZERO + SimDuration::micros(i * 3);
            for d in net.route(ActorId(4), ActorId(9), now, SimDuration::micros(10)) {
                let at = now + d.delay;
                assert!(at >= last, "copy scheduled before its predecessor");
                last = at;
            }
        }
    }

    #[test]
    fn independent_pairs_do_not_clamp_each_other() {
        let plan = FaultPlan::uniform(LinkFaults {
            jitter: SimDuration::micros(500),
            ..LinkFaults::none()
        });
        let mut net = FaultyNet::new(plan, 3);
        // Build up a large horizon on (0 -> 1)...
        for i in 0..50 {
            let now = SimTime::ZERO + SimDuration::nanos(i);
            net.route(ActorId(0), ActorId(1), now, BASE);
        }
        // ...the reverse direction is unaffected by it.
        let d = net.route(ActorId(1), ActorId(0), SimTime::ZERO, BASE);
        assert!(d[0].delay <= SimDuration::micros(500));
    }

    #[test]
    fn overrides_select_by_unordered_pair() {
        let mut plan = FaultPlan::none();
        plan.overrides.insert(
            (1, 2),
            LinkFaults {
                hard_loss: 1.0,
                ..LinkFaults::none()
            },
        );
        let mut net = FaultyNet::new(plan, 5);
        // Both directions of the overridden link drop.
        assert!(net
            .route(ActorId(1), ActorId(2), SimTime::ZERO, BASE)
            .is_empty());
        assert!(net
            .route(ActorId(2), ActorId(1), SimTime::ZERO, BASE)
            .is_empty());
        // Other links use the (fault-free) default.
        assert_eq!(
            net.route(ActorId(0), ActorId(1), SimTime::ZERO, BASE).len(),
            1
        );
    }

    #[test]
    fn plan_renders_as_json() {
        let mut plan = FaultPlan::uniform(LinkFaults {
            loss: 0.25,
            ..LinkFaults::none()
        });
        plan.flaps.push(LinkFlap {
            a: 0,
            b: 3,
            down_at: SimDuration::micros(5),
            up_at: SimDuration::micros(9),
        });
        plan.outages.push(NodeOutage {
            node: 2,
            down_at: SimDuration::micros(1),
            up_at: SimDuration::micros(2),
        });
        let json = plan.to_json().to_json();
        assert!(json.contains(r#""loss":0.25"#), "{json}");
        assert!(json.contains(r#""flaps":[{"a":0,"b":3"#), "{json}");
        assert!(json.contains(r#""outages":[{"node":2"#), "{json}");
        assert!(json.contains(r#""max_retries":5"#), "{json}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn invalid_probability_is_rejected() {
        let _ = FaultyNet::new(
            FaultPlan::uniform(LinkFaults {
                loss: 1.5,
                ..LinkFaults::none()
            }),
            0,
        );
    }

    mod net_accounting {
        //! Drop accounting when a network model drops or duplicates: the
        //! [`NetStats`] ledger must reconcile with what the causal trace
        //! (and the receiving actor) actually saw delivered.

        use crate::net::{Delivery, DeliveryKind, FaultPlan, FaultyNet, LinkFaults, NetModel};
        use crate::{Actor, ActorId, Ctx, Envelope, SimDuration, SimTime, Simulation};

        /// Drops every 3rd message, duplicates every 4th, else passes through.
        struct Scripted {
            calls: u64,
        }

        impl NetModel for Scripted {
            fn route(
                &mut self,
                _from: ActorId,
                _to: ActorId,
                _now: SimTime,
                base: SimDuration,
            ) -> Vec<Delivery> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    return Vec::new();
                }
                let mut out = vec![Delivery {
                    delay: base,
                    kind: DeliveryKind::Original,
                }];
                if self.calls.is_multiple_of(4) {
                    out.push(Delivery {
                        delay: base + SimDuration::micros(1),
                        kind: DeliveryKind::Duplicate,
                    });
                }
                out
            }
        }

        /// Sends `remaining` pings to a peer; the peer counts arrivals.
        struct Pinger {
            peer: ActorId,
            remaining: u64,
        }

        impl Actor<u64> for Pinger {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, _env: Envelope<u64>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(self.peer, SimDuration::micros(10), self.remaining);
                    ctx.schedule_self(SimDuration::micros(20), 0);
                }
            }
        }

        struct Sink;
        impl Actor<u64> for Sink {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, _env: Envelope<u64>) {
                ctx.counter("arrived").incr();
            }
        }

        fn run_with(model: impl NetModel + 'static, pings: u64) -> Simulation<u64> {
            let mut sim = Simulation::new();
            let sink = sim.add_actor(Box::new(Sink));
            let pinger = sim.add_actor(Box::new(Pinger {
                peer: sink,
                remaining: pings,
            }));
            sim.enable_causal_trace(|m| format!("m{m}"));
            sim.set_net_model(model);
            sim.inject(pinger, SimDuration::ZERO, 0);
            sim.run_to_quiescence();
            sim
        }

        #[test]
        fn dropped_and_duplicated_reconcile_with_delivered() {
            let mut sim = run_with(Scripted { calls: 0 }, 24);
            let stats = *sim.net_stats();
            assert_eq!(stats.sent, 24);
            assert_eq!(stats.dropped, 8, "every 3rd of 24 sends dropped");
            assert_eq!(stats.duplicated, 4, "every 4th not divisible by 3");
            assert!(stats.reconciles(), "{stats}");
            // The receiving actor saw exactly the scheduled copies...
            assert_eq!(sim.counter_value("arrived"), stats.delivered);
            // ...and so did the causal trace: actor-to-actor spans, minus
            // the zero-length spans of dropped sends.
            let traced = sim
                .take_causal_trace()
                .expect("causal tracing enabled")
                .spans
                .iter()
                .filter(|s| s.from.is_some() && !s.notes.iter().any(|n| n == "fault:drop"))
                .count() as u64;
            assert_eq!(traced, stats.delivered);
            // The ledger is mirrored into the metrics registry.
            assert_eq!(sim.counter_value(crate::net_counters::DROPPED), 8);
            assert_eq!(sim.counter_value(crate::net_counters::DUPLICATED), 4);
        }

        #[test]
        fn seeded_faulty_net_reconciles_too() {
            let plan = FaultPlan::uniform(LinkFaults {
                loss: 0.3,
                hard_loss: 0.2,
                duplicate: 0.25,
                jitter: SimDuration::micros(40),
            });
            let sim = run_with(FaultyNet::new(plan, 1234), 200);
            let stats = *sim.net_stats();
            assert_eq!(stats.sent, 200);
            assert!(stats.dropped > 0, "hard loss must have fired: {stats}");
            assert!(stats.duplicated > 0, "{stats}");
            assert!(stats.retransmits > 0, "{stats}");
            assert!(stats.reconciles(), "{stats}");
            assert_eq!(sim.counter_value("arrived"), stats.delivered);
        }

        #[test]
        fn timers_and_injections_bypass_the_model() {
            // Pinger's schedule_self timers drive the run; with a
            // drop-everything model no ping arrives yet all timers do.
            struct DropAll;
            impl NetModel for DropAll {
                fn route(
                    &mut self,
                    _f: ActorId,
                    _t: ActorId,
                    _n: SimTime,
                    _b: SimDuration,
                ) -> Vec<Delivery> {
                    Vec::new()
                }
            }
            let sim = run_with(DropAll, 10);
            let stats = *sim.net_stats();
            assert_eq!(stats.sent, 10);
            assert_eq!(stats.dropped, 10);
            assert_eq!(stats.delivered, 0);
            assert!(stats.reconciles());
            assert_eq!(sim.counter_value("arrived"), 0);
        }
    }
}
