//! The D-GMC switch: one sans-IO protocol core and its simulator driver.
//!
//! [`SwitchCore`] is the whole switch behaviour of the paper —
//! `EventHandler()`/`ReceiveLSA()` (Figs. 4–5, in [`DgmcEngine`]) on top of
//! LSR flooding, the `Tc`-long topology computations and a data plane for
//! end-to-end delivery checks. It performs no I/O: every handler takes the
//! tick-domain time in nanoseconds and the caller's
//! [`MetricsRegistry`], and returns the [`Output`]s (frames to send, timers
//! to arm) for its driver to carry out.
//!
//! Two drivers run the same core:
//!
//! * [`DgmcSwitch`] — the DES actor. It maps [`SwitchMsg`]s onto the
//!   handlers and replays the outputs, in order, onto `ctx.send` (one
//!   per-hop delay per frame) and `ctx.schedule_self`.
//! * `dgmc_node::proto::NodeCore` — the real-socket node, which encodes each
//!   [`Frame`] as one UDP datagram.
//!
//! Hardening lives in the core, so both drivers get it: frames from a
//! switch that is not a neighbour on any incident link are dropped and
//! counted under [`counters::UNKNOWN_SENDER`], link events naming an
//! unknown neighbour are ignored, and a failed switch drops every input
//! except its administrative revival. Only the DES driver panics on a link
//! event for a non-incident link, which there is a harness bug.

use crate::{DgmcAction, DgmcEngine, McId, McLsa, McSync};
use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, SimTime, Simulation};
use dgmc_lsr::flood::Flooder;
use dgmc_lsr::lsa::{FloodPacket, LinkAdv, RouterLsa};
use dgmc_lsr::{Lsdb, RoutingTable};
use dgmc_mctree::{McAlgorithm, McType, Role};
use dgmc_obs::{MetricsRegistry, SharedObserver};
use dgmc_topology::{LinkId, Network, NodeId, SpfCache, SpfCacheStats};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Everything that can be flooded: the paper's MC and non-MC LSAs.
#[derive(Debug, Clone)]
pub enum DgmcPayload {
    /// A non-MC LSA (`F = ¬mc`), processed by the unicast LSR substrate.
    Router(RouterLsa),
    /// An MC LSA (`F = mc`), processed by the D-GMC protocol.
    Mc(McLsa),
}

/// A data-plane packet traveling a multipoint connection.
#[derive(Debug, Clone)]
pub struct DataMsg {
    /// The connection carrying the packet.
    pub mc: McId,
    /// Unique id assigned by the injecting harness.
    pub packet_id: u64,
    /// The switch where the packet entered the network.
    pub origin: NodeId,
    /// Delivery phase.
    pub kind: DataKind,
}

/// Delivery phase of a [`DataMsg`].
#[derive(Debug, Clone)]
pub enum DataKind {
    /// Being forwarded along tree edges; `via` is the arrival link (`None`
    /// at the injection point).
    TreeFlood {
        /// Arrival link, if any.
        via: Option<LinkId>,
    },
    /// First stage of receiver-only delivery: unicast toward the contact
    /// node on the tree.
    UnicastToContact {
        /// The chosen contact switch.
        contact: NodeId,
    },
}

/// Everything one switch sends another: one UDP datagram in the node, one
/// [`SwitchMsg::Frame`] in the DES.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A flood packet (router or MC LSA) relayed hop by hop.
    Flood(FloodPacket<DgmcPayload>),
    /// OSPF-style database exchange sent to a neighbour after the link to
    /// it came up: the sender's router LSAs and MC state snapshots.
    DbSync {
        /// The sender's router LSA database.
        router_lsas: Vec<RouterLsa>,
        /// The sender's per-MC state snapshots.
        mc_states: Vec<McSync>,
    },
    /// A data-plane packet.
    Data(DataMsg),
}

/// Messages delivered to a [`DgmcSwitch`].
#[derive(Debug, Clone)]
pub enum SwitchMsg {
    /// A frame from the neighbouring switch `Envelope::from`.
    Frame(Frame),
    /// An attached host asks to join connection `mc`.
    HostJoin {
        /// The connection.
        mc: McId,
        /// Type used if the connection must be created.
        mc_type: McType,
        /// The member role.
        role: Role,
    },
    /// An attached host asks to leave connection `mc`.
    HostLeave {
        /// The connection.
        mc: McId,
    },
    /// An incident link changed state; `detector` marks the advertising
    /// endpoint.
    LinkEvent {
        /// The incident link.
        link: LinkId,
        /// New state.
        up: bool,
        /// Whether this endpoint originates the advertisements.
        detector: bool,
    },
    /// The `Tc` computation timer for `mc` fired.
    ComputationDone {
        /// The connection being recomputed.
        mc: McId,
    },
    /// A host hands the switch a data packet to inject into `mc`.
    SendData {
        /// The connection.
        mc: McId,
        /// Unique packet id.
        packet_id: u64,
    },
    /// Administrative node failure/recovery (nodal events).
    NodeAdmin {
        /// `false` takes the switch down (it drops all traffic); `true`
        /// revives it.
        up: bool,
    },
}

/// Counter names bumped by [`SwitchCore`].
pub mod counters {
    /// Topology computations started (the paper's "proposals per event"
    /// numerator).
    pub const COMPUTATIONS: &str = "dgmc.computations";
    /// MC LSA flooding operations initiated ("floodings per event").
    pub const FLOODINGS: &str = "dgmc.floodings";
    /// Topologies installed (routing entries updated).
    pub const INSTALLS: &str = "dgmc.installs";
    /// Completed computations withdrawn as stale.
    pub const WITHDRAWN: &str = "dgmc.withdrawn";
    /// Membership events accepted from local hosts.
    pub const MEMBER_EVENTS: &str = "dgmc.member_events";
    /// Fresh MC LSAs processed.
    pub const MC_LSAS: &str = "dgmc.mc_lsas";
    /// Duplicate flood packets suppressed.
    pub const DUPLICATES: &str = "dgmc.duplicates";
    /// Router (non-MC) LSA floods originated.
    pub const ROUTER_FLOODS: &str = "dgmc.router_floods";
    /// Data packets delivered to member hosts.
    pub const DATA_DELIVERED: &str = "dgmc.data_delivered";
    /// Tree edges removed by topology rearrangements: edges present in a
    /// connection's previously installed topology but absent from the newly
    /// installed one (the disruption-on-rearrangement numerator).
    pub const DISRUPTED_EDGES: &str = "dgmc.disrupted_edges";
    /// SPF computations answered from the epoch-versioned cache.
    pub const SPF_CACHE_HITS: &str = "spf_cache.hits";
    /// SPF computations that ran Dijkstra (cache miss).
    pub const SPF_CACHE_MISSES: &str = "spf_cache.misses";
    /// Cache misses answered by incremental delta repair of a sibling
    /// generation's tree instead of a from-scratch Dijkstra.
    pub const SPF_CACHE_REPAIRS: &str = "spf_cache.repairs";
    /// Cache generations evicted because the image kept changing.
    pub const SPF_CACHE_INVALIDATIONS: &str = "spf_cache.invalidations";
    /// Frames dropped because the sender is not a neighbour on any
    /// incident link (never bumped by a well-formed DES run).
    pub const UNKNOWN_SENDER: &str = "node.unknown_sender";
}

/// Histogram names recorded by [`SwitchCore`] into its driver's
/// [`MetricsRegistry`].
pub mod histograms {
    /// Links fanned out per flood operation (MC and router LSAs alike).
    pub const FLOOD_FANOUT: &str = "dgmc.flood_fanout";
    /// Microseconds from a computation starting (`StartComputation`, the
    /// proposal's birth) to a topology install at the same switch.
    pub const INSTALL_LATENCY_US: &str = "dgmc.install_latency_us";
    /// Withdrawn computations observed at a switch between consecutive
    /// local membership events.
    pub const WITHDRAWALS_PER_EVENT: &str = "dgmc.withdrawals_per_event";
    /// Microseconds from the first measured-phase event to the last topology
    /// install — the per-connection convergence time (recorded by the
    /// experiment runner once per measured run).
    pub const CONVERGENCE_US: &str = "dgmc.convergence_us";
    /// Microseconds of each traced operation's critical (longest causal)
    /// path — one sample per measured-phase membership event, recorded by
    /// the experiment runner when causal tracing is on.
    pub const OP_CONVERGENCE_US: &str = "dgmc.op_convergence_us";
    /// Nodes settled per cache-missing SPF run — the deterministic
    /// compute-work histogram (simulated work, not wall-clock, so that
    /// metrics stay byte-identical across hosts and cache configurations).
    pub const SPF_SETTLED_PER_COMPUTE: &str = "spf_cache.settled_per_compute";
}

/// Timing parameters of the simulated switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgmcConfig {
    /// `Tc`: time one topology computation occupies the switch.
    pub tc: SimDuration,
    /// Per-hop LSA/packet relay delay.
    pub per_hop: SimDuration,
}

impl DgmcConfig {
    /// The paper's Experiment 1 regime (ATM LAN): computation dominates.
    /// Per-hop ≈ 10 µs, `Tc` ≈ 300 µs.
    pub fn computation_dominated() -> Self {
        DgmcConfig {
            tc: SimDuration::micros(300),
            per_hop: SimDuration::micros(10),
        }
    }

    /// The paper's Experiment 2 regime (WAN): communication dominates.
    /// Per-hop ≈ 2 ms, `Tc` ≈ 50 µs.
    pub fn communication_dominated() -> Self {
        DgmcConfig {
            tc: SimDuration::micros(50),
            per_hop: SimDuration::millis(2),
        }
    }
}

/// What a [`SwitchCore`] handler asks its driver to do.
#[derive(Debug, Clone)]
pub enum Output {
    /// Deliver `frame` to neighbour `to`.
    Send {
        /// Destination switch.
        to: NodeId,
        /// The frame to put on the link.
        frame: Frame,
    },
    /// Arm the `Tc` computation timer for `mc`, `after_nanos` from now; on
    /// expiry feed [`SwitchCore::on_computation_done`].
    StartTimer {
        /// The connection being recomputed.
        mc: McId,
        /// Delay in tick-domain nanoseconds.
        after_nanos: u64,
    },
}

/// The in-progress result of one handler call: the current time, the
/// caller's registry and the outputs emitted so far.
struct Step<'a> {
    now: u64,
    metrics: &'a mut MetricsRegistry,
    out: Vec<Output>,
}

impl Step<'_> {
    fn count(&mut self, name: &str, n: u64) {
        *self.metrics.counter_slot(name) += n;
    }

    fn send(&mut self, to: NodeId, frame: Frame) {
        self.out.push(Output::Send { to, frame });
    }
}

/// The sans-IO D-GMC switch (see the module docs): the [`DgmcEngine`], the
/// flooder, the LSDB, the routing table and the local incident-link truth.
pub struct SwitchCore {
    me: NodeId,
    tc_nanos: u64,
    flooder: Flooder,
    lsdb: Lsdb,
    routes: RoutingTable,
    /// Local ground truth about incident links: (link, neighbor, cost, up).
    incident: Vec<(LinkId, NodeId, u64, bool)>,
    next_router_seq: u64,
    engine: DgmcEngine,
    spf_cache: SpfCache,
    image: Network,
    /// Tick-domain instant of the most recent topology install.
    last_install: u64,
    /// (mc, packet_id) -> copies delivered to the local host.
    delivered: BTreeMap<(McId, u64), u32>,
    /// `true` while administratively failed: all traffic is dropped.
    failed: bool,
    /// When the in-flight computation for each MC started (latency metric).
    computation_started: BTreeMap<McId, u64>,
    /// Edge set of the previously installed topology per MC, for the
    /// disruption-on-rearrangement counter.
    installed_edges: BTreeMap<McId, BTreeSet<(NodeId, NodeId)>>,
    /// Withdrawals seen since the last local membership event.
    withdrawn_since_event: u64,
    /// An empty output buffer handed back by `recycle`.
    spare: Vec<Output>,
}

impl std::fmt::Debug for SwitchCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchCore")
            .field("me", &self.me)
            .field("mcs", &self.engine.mc_ids())
            .finish()
    }
}

impl SwitchCore {
    /// Creates the switch warm-started on the ground-truth network `net`.
    /// `tc_nanos` is the `Tc` computation time in tick-domain nanoseconds;
    /// `spf_cache` serves the routing table and every MC computation.
    pub fn new(
        me: NodeId,
        net: &Network,
        tc_nanos: u64,
        algorithm: Rc<dyn McAlgorithm>,
        spf_cache: SpfCache,
    ) -> SwitchCore {
        let mut lsdb = Lsdb::new(net.len());
        for n in net.nodes() {
            lsdb.install(RouterLsa::describe(net, n, 0));
        }
        let image = lsdb.local_image();
        let routes = RoutingTable::compute_with(&image, me, &spf_cache);
        let incident = net
            .links()
            .filter(|l| l.a == me || l.b == me)
            .map(|l| (l.id, l.other(me), l.cost, l.is_up()))
            .collect();
        let mut engine = DgmcEngine::new(me, net.len(), algorithm);
        engine.set_spf_cache(spf_cache.clone());
        SwitchCore {
            me,
            tc_nanos,
            flooder: Flooder::new(me),
            lsdb,
            routes,
            incident,
            next_router_seq: 1,
            engine,
            spf_cache,
            image,
            last_install: 0,
            delivered: BTreeMap::new(),
            failed: false,
            computation_started: BTreeMap::new(),
            installed_edges: BTreeMap::new(),
            withdrawn_since_event: 0,
            spare: Vec::new(),
        }
    }

    /// Attaches the shared decision-event observer (forwarded to the
    /// protocol engine, which does the emitting).
    pub fn set_observer(&mut self, observer: SharedObserver) {
        self.engine.set_observer(observer);
    }

    /// Sets the engine's shard worker count for link events touching many
    /// independent MCs (see [`DgmcEngine::set_jobs`]). Purely wall-clock:
    /// outputs stay byte-identical for every value.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.engine.set_jobs(jobs);
    }

    /// The switch id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Read access to the protocol engine.
    pub fn engine(&self) -> &DgmcEngine {
        &self.engine
    }

    /// `true` while the switch is administratively failed (crashed): it
    /// drops all traffic and is excluded from invariant checking.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// The unicast routing table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// The switch's current local image of the network (the LSDB
    /// reconstruction its computations run against). Read-only: exposed so
    /// drivers and conformance checks can snapshot derived state (e.g.
    /// installed-tree costs) without re-deriving the image.
    pub fn image(&self) -> &Network {
        &self.image
    }

    /// How many copies of `(mc, packet_id)` the local host received.
    pub fn delivered_copies(&self, mc: McId, packet_id: u64) -> u32 {
        self.delivered.get(&(mc, packet_id)).copied().unwrap_or(0)
    }

    /// All delivery counts, keyed by `(mc, packet_id)`.
    pub fn deliveries(&self) -> &BTreeMap<(McId, u64), u32> {
        &self.delivered
    }

    /// Hands a handler's drained output buffer back, so the next handler
    /// call reuses its allocation.
    fn recycle(&mut self, mut outputs: Vec<Output>) {
        outputs.clear();
        self.spare = outputs;
    }

    /// The neighbour across incident link `link`, if `link` is incident.
    fn neighbor_of(&self, link: LinkId) -> Option<NodeId> {
        self.incident
            .iter()
            .find(|&&(l, ..)| l == link)
            .map(|&(_, n, ..)| n)
    }

    /// The incident link toward `neighbor` and whether it is up. Links are
    /// never parallel, so the neighbour id names at most one link.
    fn link_to(&self, neighbor: NodeId) -> Option<(LinkId, bool)> {
        self.incident
            .iter()
            .find(|&&(_, n, ..)| n == neighbor)
            .map(|&(l, _, _, up)| (l, up))
    }

    /// Stamps the decision observer with `now`, runs `body` unless the
    /// switch is failed, and returns its outputs.
    fn step(
        &mut self,
        now: u64,
        metrics: &mut MetricsRegistry,
        body: impl FnOnce(&mut Self, &mut Step<'_>),
    ) -> Vec<Output> {
        self.engine.observer().set_now(now);
        let mut step = Step {
            now,
            metrics,
            out: std::mem::take(&mut self.spare),
        };
        if !self.failed {
            body(self, &mut step);
        }
        step.out
    }

    fn flood(&mut self, step: &mut Step<'_>, payload: DgmcPayload) {
        let packet = self.flooder.originate(payload);
        let fanout = self.relay(step, &packet, None);
        step.metrics.observe_named(histograms::FLOOD_FANOUT, fanout);
    }

    /// Sends `packet` on every up incident link except `except` and returns
    /// how many copies went out.
    fn relay(
        &self,
        step: &mut Step<'_>,
        packet: &FloodPacket<DgmcPayload>,
        except: Option<LinkId>,
    ) -> u64 {
        let mut fanout = 0;
        for &(link, neighbor, _, up) in &self.incident {
            if up && Some(link) != except {
                fanout += 1;
                step.send(neighbor, Frame::Flood(packet.clone()));
            }
        }
        fanout
    }

    fn execute(&mut self, step: &mut Step<'_>, actions: Vec<DgmcAction>) {
        for action in actions {
            match action {
                DgmcAction::Flood(lsa) => {
                    step.count(counters::FLOODINGS, 1);
                    self.flood(step, DgmcPayload::Mc(lsa));
                }
                DgmcAction::StartComputation { mc } => {
                    step.count(counters::COMPUTATIONS, 1);
                    self.computation_started.entry(mc).or_insert(step.now);
                    step.out.push(Output::StartTimer {
                        mc,
                        after_nanos: self.tc_nanos,
                    });
                }
                DgmcAction::Installed { mc } => {
                    step.count(counters::INSTALLS, 1);
                    self.last_install = step.now;
                    if let Some(started) = self.computation_started.remove(&mc) {
                        let latency = step.now.saturating_sub(started);
                        step.metrics
                            .observe_named(histograms::INSTALL_LATENCY_US, latency / 1_000);
                    }
                    let edges: BTreeSet<(NodeId, NodeId)> = self
                        .engine
                        .installed(mc)
                        .map(|t| t.edges().collect())
                        .unwrap_or_default();
                    if let Some(previous) = self.installed_edges.insert(mc, edges) {
                        let disrupted = u64::try_from(
                            previous
                                .difference(self.installed_edges.get(&mc).expect("just inserted"))
                                .count(),
                        )
                        .expect("edge count fits u64");
                        step.count(counters::DISRUPTED_EDGES, disrupted);
                    }
                }
                DgmcAction::Withdrawn { mc: _ } => {
                    step.count(counters::WITHDRAWN, 1);
                    self.withdrawn_since_event += 1;
                }
            }
        }
    }

    /// A local membership event: counts it and starts a fresh withdrawal
    /// episode, recording how many withdrawals the previous one cost.
    fn member_event(&mut self, step: &mut Step<'_>, actions: Vec<DgmcAction>) {
        if !actions.is_empty() {
            step.count(counters::MEMBER_EVENTS, 1);
            step.metrics.observe_named(
                histograms::WITHDRAWALS_PER_EVENT,
                self.withdrawn_since_event,
            );
            self.withdrawn_since_event = 0;
        }
        self.execute(step, actions);
    }

    fn refresh_image(&mut self, step: &mut Step<'_>) {
        let before = self.spf_cache.stats();
        self.image = self.lsdb.local_image();
        self.routes = RoutingTable::compute_with(&self.image, self.me, &self.spf_cache);
        self.record_spf_delta(step, before);
    }

    /// Publishes the cache activity caused by one handler step. Only
    /// deterministic quantities are recorded (hit/miss/invalidation counts
    /// and settled-node work); wall-clock nanoseconds stay out of the
    /// registry so `metrics.json` is byte-identical across hosts and runs.
    fn record_spf_delta(&mut self, step: &mut Step<'_>, before: SpfCacheStats) {
        let after = self.spf_cache.stats();
        step.count(counters::SPF_CACHE_HITS, after.hits - before.hits);
        step.count(counters::SPF_CACHE_MISSES, after.misses - before.misses);
        step.count(counters::SPF_CACHE_REPAIRS, after.repairs - before.repairs);
        step.count(
            counters::SPF_CACHE_INVALIDATIONS,
            after.invalidations - before.invalidations,
        );
        if after.misses > before.misses {
            step.metrics.observe_named(
                histograms::SPF_SETTLED_PER_COMPUTE,
                after.settled_nodes - before.settled_nodes,
            );
        }
    }

    fn forward_tree(&mut self, step: &mut Step<'_>, data: DataMsg, via: Option<LinkId>) {
        if self.engine.is_member(data.mc) {
            step.count(counters::DATA_DELIVERED, 1);
            *self.delivered.entry((data.mc, data.packet_id)).or_insert(0) += 1;
        }
        let Some(topology) = self.engine.installed(data.mc) else {
            return;
        };
        let from = via.and_then(|l| self.neighbor_of(l));
        for n in topology.neighbors_in(self.me) {
            if Some(n) == from {
                continue;
            }
            if let Some((link, true)) = self.link_to(n) {
                step.send(
                    n,
                    Frame::Data(DataMsg {
                        kind: DataKind::TreeFlood { via: Some(link) },
                        ..data.clone()
                    }),
                );
            }
        }
    }

    /// Sends a receiver-only style first-stage packet one hop toward its
    /// contact switch, or starts tree delivery if this switch is the contact.
    fn toward_contact(&mut self, step: &mut Step<'_>, data: DataMsg, contact: NodeId) {
        if contact == self.me {
            let data = DataMsg {
                kind: DataKind::TreeFlood { via: None },
                ..data
            };
            self.forward_tree(step, data, None);
        } else if let Some(next) = self.routes.next_hop(contact) {
            step.send(next, Frame::Data(data));
        }
    }

    fn inject_data(&mut self, step: &mut Step<'_>, mc: McId, packet_id: u64) {
        let data = DataMsg {
            mc,
            packet_id,
            origin: self.me,
            kind: DataKind::TreeFlood { via: None },
        };
        if self.engine.is_member(mc)
            || self
                .engine
                .installed(mc)
                .is_some_and(|t| t.touches(self.me))
        {
            // On the tree already: second-stage tree delivery.
            self.forward_tree(step, data, None);
            return;
        }
        // Receiver-only style first stage: unicast to the nearest tree node
        // ("the packet is delivered to any node on the MC").
        let Some(topology) = self.engine.installed(mc) else {
            return;
        };
        let contact = topology
            .nodes()
            .into_iter()
            .filter_map(|n| self.routes.cost(n).map(|c| (c, n)))
            .min();
        let Some((_, contact)) = contact else { return };
        let data = DataMsg {
            kind: DataKind::UnicastToContact { contact },
            ..data
        };
        self.toward_contact(step, data, contact);
    }

    /// Handles one frame from neighbour `from`. Frames from a switch that
    /// is not a neighbour on any incident link are dropped and counted
    /// under [`counters::UNKNOWN_SENDER`].
    pub fn on_frame(
        &mut self,
        now: u64,
        metrics: &mut MetricsRegistry,
        from: NodeId,
        frame: Frame,
    ) -> Vec<Output> {
        self.step(now, metrics, |sw, step| {
            let Some((via, _)) = sw.link_to(from) else {
                step.count(counters::UNKNOWN_SENDER, 1);
                return;
            };
            match frame {
                Frame::Flood(packet) => {
                    if !sw.flooder.accept(packet.id) {
                        step.count(counters::DUPLICATES, 1);
                        return;
                    }
                    sw.relay(step, &packet, Some(via));
                    match packet.payload {
                        DgmcPayload::Router(lsa) => {
                            if sw.lsdb.install(lsa) {
                                sw.refresh_image(step);
                            }
                        }
                        DgmcPayload::Mc(lsa) => {
                            step.count(counters::MC_LSAS, 1);
                            let actions = sw.engine.on_mc_lsa(lsa);
                            sw.execute(step, actions);
                        }
                    }
                }
                Frame::DbSync {
                    router_lsas,
                    mc_states,
                } => {
                    let mut changed = false;
                    for lsa in router_lsas {
                        changed |= sw.lsdb.install(lsa);
                    }
                    if changed {
                        sw.refresh_image(step);
                    }
                    let actions = sw.engine.import_sync(mc_states);
                    sw.execute(step, actions);
                }
                Frame::Data(data) => match data.kind {
                    DataKind::TreeFlood { via } => sw.forward_tree(step, data, via),
                    DataKind::UnicastToContact { contact } => {
                        sw.toward_contact(step, data, contact);
                    }
                },
            }
        })
    }

    /// A local host joins `mc`.
    pub fn on_join(
        &mut self,
        now: u64,
        metrics: &mut MetricsRegistry,
        mc: McId,
        mc_type: McType,
        role: Role,
    ) -> Vec<Output> {
        self.step(now, metrics, |sw, step| {
            let actions = sw.engine.local_join(mc, mc_type, role);
            sw.member_event(step, actions);
        })
    }

    /// A local host leaves `mc`.
    pub fn on_leave(&mut self, now: u64, metrics: &mut MetricsRegistry, mc: McId) -> Vec<Output> {
        self.step(now, metrics, |sw, step| {
            let actions = sw.engine.local_leave(mc);
            sw.member_event(step, actions);
        })
    }

    /// The incident link toward `neighbor` changed state; `detector` marks
    /// the advertising endpoint. A neighbour on no incident link is ignored.
    pub fn on_link_event(
        &mut self,
        now: u64,
        metrics: &mut MetricsRegistry,
        neighbor: NodeId,
        up: bool,
        detector: bool,
    ) -> Vec<Output> {
        self.step(now, metrics, |sw, step| {
            let Some(entry) = sw.incident.iter_mut().find(|(_, n, ..)| *n == neighbor) else {
                return;
            };
            entry.3 = up;
            if up {
                // Database exchange toward the (possibly just revived) far
                // endpoint, as OSPF does when an adjacency forms.
                let node_count = u32::try_from(sw.lsdb.node_count()).expect("node ids fit u32");
                let router_lsas = (0..node_count)
                    .filter_map(|i| sw.lsdb.get(NodeId(i)).cloned())
                    .collect();
                step.send(
                    neighbor,
                    Frame::DbSync {
                        router_lsas,
                        mc_states: sw.engine.export_sync(),
                    },
                );
            }
            if detector {
                // Originate the one non-MC LSA for this event...
                let links = sw
                    .incident
                    .iter()
                    .map(|&(link, neighbor, cost, up)| LinkAdv {
                        link,
                        neighbor,
                        cost,
                        up,
                    })
                    .collect();
                let lsa = RouterLsa {
                    origin: sw.me,
                    seq: sw.next_router_seq,
                    links,
                };
                sw.next_router_seq += 1;
                sw.lsdb.install(lsa.clone());
                sw.refresh_image(step);
                step.count(counters::ROUTER_FLOODS, 1);
                sw.flood(step, DgmcPayload::Router(lsa));
                // ...then the k MC LSAs for affected connections.
                let actions = sw.engine.local_link_event(sw.me, neighbor);
                sw.execute(step, actions);
            }
        })
    }

    /// The `Tc` computation timer for `mc` fired.
    pub fn on_computation_done(
        &mut self,
        now: u64,
        metrics: &mut MetricsRegistry,
        mc: McId,
    ) -> Vec<Output> {
        self.step(now, metrics, |sw, step| {
            let before = sw.spf_cache.stats();
            let actions = sw.engine.on_computation_done(mc, &sw.image);
            sw.record_spf_delta(step, before);
            sw.execute(step, actions);
        })
    }

    /// A local host injects data packet `packet_id` into `mc`.
    pub fn on_send_data(
        &mut self,
        now: u64,
        metrics: &mut MetricsRegistry,
        mc: McId,
        packet_id: u64,
    ) -> Vec<Output> {
        self.step(now, metrics, |sw, step| sw.inject_data(step, mc, packet_id))
    }

    /// Administrative failure (`up = false`) or revival. A failed switch
    /// drops every other input; incident links go down with it and come
    /// back with it (neighbours advertise and sync).
    pub fn on_admin(&mut self, up: bool) -> Vec<Output> {
        if self.failed == up {
            self.failed = !up;
            for entry in &mut self.incident {
                entry.3 = up;
            }
        }
        Vec::new()
    }
}

/// A network switch running the D-GMC protocol over an LSR substrate: the
/// DES driver of a [`SwitchCore`], which it dereferences to.
#[derive(Debug)]
pub struct DgmcSwitch {
    core: SwitchCore,
    per_hop: SimDuration,
}

impl DgmcSwitch {
    /// Creates the switch warm-started on the ground-truth network `net`.
    pub fn new(
        me: NodeId,
        net: &Network,
        config: DgmcConfig,
        algorithm: Rc<dyn McAlgorithm>,
    ) -> DgmcSwitch {
        Self::new_with_cache(me, net, config, algorithm, SpfCache::new())
    }

    /// [`new`](Self::new) with an explicit SPF cache, so the warm-start
    /// routing computation already shares work with sibling switches.
    pub fn new_with_cache(
        me: NodeId,
        net: &Network,
        config: DgmcConfig,
        algorithm: Rc<dyn McAlgorithm>,
        spf_cache: SpfCache,
    ) -> DgmcSwitch {
        DgmcSwitch {
            core: SwitchCore::new(me, net, config.tc.as_nanos(), algorithm, spf_cache),
            per_hop: config.per_hop,
        }
    }

    /// Simulated instant of the switch's most recent topology install.
    pub fn last_install(&self) -> SimTime {
        SimTime::from_nanos(self.core.last_install)
    }
}

impl Deref for DgmcSwitch {
    type Target = SwitchCore;

    fn deref(&self) -> &SwitchCore {
        &self.core
    }
}

impl DerefMut for DgmcSwitch {
    fn deref_mut(&mut self) -> &mut SwitchCore {
        &mut self.core
    }
}

impl Actor<SwitchMsg> for DgmcSwitch {
    fn handle(&mut self, ctx: &mut Ctx<'_, SwitchMsg>, env: Envelope<SwitchMsg>) {
        let now = ctx.now().as_nanos();
        let core = &mut self.core;
        let mut outputs = match env.msg {
            SwitchMsg::Frame(frame) => {
                let from = env.from.expect("frames are sent by switches");
                core.on_frame(now, ctx.metrics(), NodeId(from.0), frame)
            }
            SwitchMsg::HostJoin { mc, mc_type, role } => {
                core.on_join(now, ctx.metrics(), mc, mc_type, role)
            }
            SwitchMsg::HostLeave { mc } => core.on_leave(now, ctx.metrics(), mc),
            SwitchMsg::LinkEvent { link, up, detector } => {
                let Some(neighbor) = core.neighbor_of(link) else {
                    panic!("link {link} is not incident to {}", core.id());
                };
                core.on_link_event(now, ctx.metrics(), neighbor, up, detector)
            }
            SwitchMsg::ComputationDone { mc } => core.on_computation_done(now, ctx.metrics(), mc),
            SwitchMsg::SendData { mc, packet_id } => {
                core.on_send_data(now, ctx.metrics(), mc, packet_id)
            }
            SwitchMsg::NodeAdmin { up } => core.on_admin(up),
        };
        for output in outputs.drain(..) {
            match output {
                Output::Send { to, frame } => {
                    ctx.send(ActorId(to.0), self.per_hop, SwitchMsg::Frame(frame));
                }
                Output::StartTimer { mc, after_nanos } => ctx.schedule_self(
                    SimDuration::nanos(after_nanos),
                    SwitchMsg::ComputationDone { mc },
                ),
            }
        }
        self.core.recycle(outputs);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Renders a [`SwitchMsg`] into a short causal-span label (the labeler to
/// pass to [`dgmc_des::Simulation::enable_causal_trace`]).
///
/// Labels are stable strings used in trace exports and timelines: keep them
/// short and deterministic (no addresses, no wall-clock).
pub fn trace_label(msg: &SwitchMsg) -> String {
    match msg {
        SwitchMsg::Frame(Frame::Flood(packet)) => match &packet.payload {
            DgmcPayload::Router(lsa) => format!("router-lsa sw{}", lsa.origin.0),
            DgmcPayload::Mc(lsa) => format!("mc-lsa {} sw{}", lsa.mc, lsa.source.0),
        },
        SwitchMsg::Frame(Frame::DbSync { .. }) => "db-sync".to_owned(),
        SwitchMsg::Frame(Frame::Data(data)) => format!("data {} #{}", data.mc, data.packet_id),
        SwitchMsg::HostJoin { mc, .. } => format!("join {mc}"),
        SwitchMsg::HostLeave { mc } => format!("leave {mc}"),
        SwitchMsg::LinkEvent { link, up, .. } => {
            format!("link-{} {link}", if *up { "up" } else { "down" })
        }
        SwitchMsg::ComputationDone { mc } => format!("compute {mc}"),
        SwitchMsg::SendData { mc, packet_id } => format!("send-data {mc} #{packet_id}"),
        SwitchMsg::NodeAdmin { up } => (if *up { "node-up" } else { "node-down" }).to_owned(),
    }
}

/// Classifies a [`trace_label`] string into a handler phase for per-phase
/// event-loop self-profiling (SPF/compute, flood fan-out, wait-resolution
/// timers, install-driving events, data plane).
pub fn trace_phase(label: &str) -> &'static str {
    match label.split(' ').next().unwrap_or("") {
        "compute" => "compute",
        "mc-lsa" => "flood",
        "router-lsa" | "db-sync" => "routing",
        "join" | "leave" | "link-up" | "link-down" | "node-up" | "node-down" => "event",
        "data" | "send-data" => "data",
        _ => "other",
    }
}

/// Builds a simulation with one [`DgmcSwitch`] per node of `net`.
///
/// Actor ids equal node ids. All switches share one [`SpfCache`]: local
/// images are content-addressed, so while images agree (the common case —
/// floods converge fast) one switch's SPF run serves every other switch and
/// every terminal of every connection.
pub fn build_dgmc_sim(
    net: &Network,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
) -> Simulation<SwitchMsg> {
    build_dgmc_sim_with_cache(net, config, algorithm, SpfCache::new())
}

/// [`build_dgmc_sim`] with an explicit shared [`SpfCache`] — pass
/// [`SpfCache::disabled`] to measure the uncached from-scratch baseline.
pub fn build_dgmc_sim_with_cache(
    net: &Network,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
    cache: SpfCache,
) -> Simulation<SwitchMsg> {
    build_dgmc_sim_sharded(net, config, algorithm, cache, 1)
}

/// [`build_dgmc_sim_with_cache`] with the per-switch shard worker count
/// for many-MC link events (see [`DgmcEngine::set_jobs`]). Any `jobs`
/// value produces byte-identical simulation outputs; values above 1 only
/// change wall-clock when one event touches many independent connections.
pub fn build_dgmc_sim_sharded(
    net: &Network,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
    cache: SpfCache,
    jobs: usize,
) -> Simulation<SwitchMsg> {
    let mut sim = Simulation::new();
    for n in net.nodes() {
        let mut switch =
            DgmcSwitch::new_with_cache(n, net, config, Rc::clone(&algorithm), cache.clone());
        // Every engine stamps decisions with the simulation's shared clock;
        // observation stays a no-op until a sink is attached on the handle.
        switch.set_observer(sim.observer().clone());
        switch.set_jobs(jobs);
        let id = sim.add_actor(Box::new(switch));
        debug_assert_eq!(id.index(), n.index());
    }
    sim
}

/// Injects a nodal event: `up = false` fails the switch (it silently drops
/// all traffic and its incident links go down, each advertised by the
/// surviving neighbor); `up = true` revives it (neighbors re-advertise the
/// links and send database snapshots so the revived switch resynchronizes).
///
/// # Panics
///
/// Panics if `node` is unknown in `net`.
pub fn inject_node_event(
    sim: &mut Simulation<SwitchMsg>,
    net: &Network,
    node: NodeId,
    up: bool,
    delay: SimDuration,
) {
    assert!(net.contains_node(node), "unknown node {node}");
    sim.inject(ActorId(node.0), delay, SwitchMsg::NodeAdmin { up });
    // Neighbors detect each incident link transition slightly later and
    // advertise their side ("nodal events" decompose into link events with
    // the surviving endpoint as detector).
    let detect = delay + SimDuration::nanos(1);
    for link in net.links().filter(|l| l.a == node || l.b == node) {
        let neighbor = link.other(node);
        sim.inject(
            ActorId(neighbor.0),
            detect,
            SwitchMsg::LinkEvent {
                link: link.id,
                up,
                detector: true,
            },
        );
    }
}

/// Injects a ground-truth link event: both endpoints learn immediately, the
/// lower-id endpoint advertises (DESIGN.md §6).
///
/// # Panics
///
/// Panics if `link` is unknown in `net`.
pub fn inject_link_event(
    sim: &mut Simulation<SwitchMsg>,
    net: &Network,
    link: LinkId,
    up: bool,
    delay: SimDuration,
) {
    let l = net.link(link).expect("known link");
    sim.inject(
        ActorId(l.a.0),
        delay,
        SwitchMsg::LinkEvent {
            link,
            up,
            detector: true,
        },
    );
    sim.inject(
        ActorId(l.b.0),
        delay,
        SwitchMsg::LinkEvent {
            link,
            up,
            detector: false,
        },
    );
}
