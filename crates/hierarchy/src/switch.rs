//! The two-level hierarchical D-GMC switch: full signaling over the DES.
//!
//! Every switch runs the flat [`SwitchCore`] — the same switch body the
//! flat simulator and the UDP node drive — for its own area, built on the
//! area's intra-area subgraph; border switches hold a second core built on
//! the level-2 [`Backbone`]'s logical network. The two cores couple through
//! purely local rules at each area's designated *attachment border* (the
//! smallest border id of the area, a deterministic choice every switch can
//! make):
//!
//! * **up-coupling** — when the attachment observes (through its area
//!   core) that the area has members for a connection, it joins the
//!   backbone instance of that connection on the area's behalf; when the
//!   area empties, it leaves;
//! * **down-coupling** — when the attachment observes (through its backbone
//!   core) that the connection spans **two or more** areas, it joins its
//!   own area's connection as a *relay* so the area tree spans it; when the
//!   connection collapses back to one area, the relay leaves. A host leave
//!   at the attachment re-runs this rule, so the attachment stays on the
//!   area tree while the connection still spans areas.
//!
//! Flooding is scoped by construction: the area core's only links are
//! intra-area links, so an intra-area event reaches `|area|` switches (the
//! [`crate::scope`] win, realized in actual packet counts); the backbone
//! core's links are *logical* — border-to-border tunnels whose latency is
//! the expansion path's hop count times the per-hop delay.
//!
//! Data crosses levels at attachments: packets tree-flood within the member
//! areas and ride the backbone tree (expanded over tunnels) between them.

use crate::backbone::Backbone;
use crate::{AreaId, AreaMap};
use dgmc_core::switch::{
    counters as core_counters, DgmcConfig, DgmcPayload, Frame, Output, SwitchCore,
};
use dgmc_core::{DgmcEngine, McId};
use dgmc_des::{Actor, ActorId, Ctx, Envelope, SimDuration, Simulation};
use dgmc_mctree::{McAlgorithm, McType, Role};
use dgmc_obs::MetricsRegistry;
use dgmc_topology::{LinkId, Network, NodeId, SpfCache};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Which protocol instance a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The switch's own area instance.
    Area,
    /// The border-switch backbone instance.
    Backbone,
}

/// A data packet in the hierarchical data plane.
#[derive(Debug, Clone)]
pub struct HierData {
    /// The connection.
    pub mc: McId,
    /// Harness-assigned id.
    pub packet_id: u64,
    /// Originating switch.
    pub origin: NodeId,
    /// Delivery phase.
    pub kind: HierDataKind,
}

/// Delivery phase of a [`HierData`].
#[derive(Debug, Clone)]
pub enum HierDataKind {
    /// Riding an area tree; `via` is the physical arrival link.
    AreaTree {
        /// Arrival link, `None` at injection.
        via: Option<LinkId>,
    },
    /// Riding the backbone tree; `from` is the logical sender.
    BackboneHop {
        /// The border that tunneled the packet here.
        from: NodeId,
    },
}

/// Messages delivered to a [`HierSwitch`].
#[derive(Debug, Clone)]
pub enum HierMsg {
    /// A frame of the `level` core from the switch `Envelope::from` (an
    /// area neighbour, or the border that tunneled a backbone frame).
    Frame {
        /// The core the frame belongs to.
        level: Level,
        /// The frame.
        frame: Frame,
    },
    /// An attached host joins `mc`.
    HostJoin {
        /// The connection.
        mc: McId,
        /// Type used when creating.
        mc_type: McType,
        /// Member role.
        role: Role,
    },
    /// An attached host leaves `mc`.
    HostLeave {
        /// The connection.
        mc: McId,
    },
    /// A `Tc` computation timer fired for the given level.
    ComputationDone {
        /// Which core was computing.
        level: Level,
        /// The connection.
        mc: McId,
    },
    /// A host hands over a data packet.
    SendData {
        /// The connection.
        mc: McId,
        /// Packet id.
        packet_id: u64,
    },
    /// A data packet in flight.
    Data(HierData),
}

/// Counter names bumped by [`HierSwitch`].
pub mod counters {
    /// Area-level MC LSA receptions (flood scope numerator).
    pub const AREA_LSAS: &str = "hier.area_lsas";
    /// Backbone-level MC LSA receptions.
    pub const BB_LSAS: &str = "hier.bb_lsas";
    /// Area-level topology computations.
    pub const AREA_COMPUTATIONS: &str = "hier.area_computations";
    /// Backbone-level topology computations.
    pub const BB_COMPUTATIONS: &str = "hier.bb_computations";
    /// Data packets delivered to member hosts.
    pub const DATA_DELIVERED: &str = "hier.data_delivered";
}

/// A switch participating in two-level hierarchical D-GMC: an area
/// [`SwitchCore`], a backbone one on borders, and the coupling rules.
#[derive(Debug)]
pub struct HierSwitch {
    me: NodeId,
    per_hop: SimDuration,
    /// Designated attachment border of this switch's own area.
    my_attachment: NodeId,
    area_core: SwitchCore,
    bb_core: Option<SwitchCore>,
    /// Physical intra-area links, for the data plane.
    intra_links: Vec<(LinkId, NodeId)>,
    /// Logical backbone neighbors with tunnel hop counts (borders only).
    bb_neighbors: Vec<(NodeId, u64)>,
    /// Connections where a local host is a member (vs. relay joins).
    host_member: BTreeSet<McId>,
    delivered: BTreeMap<(McId, u64), u32>,
}

impl HierSwitch {
    /// Creates the switch: its area core runs on `area_net`, a border's
    /// backbone core on `backbone.logical()`.
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: NodeId,
        net: &Network,
        map: &AreaMap,
        area_net: &Network,
        backbone: &Backbone,
        config: DgmcConfig,
        algorithm: Rc<dyn McAlgorithm>,
        spf_cache: &SpfCache,
        attachment: NodeId,
    ) -> HierSwitch {
        let tc = config.tc.as_nanos();
        let is_border = map.borders(net).contains(&me);
        let intra_links = net
            .links()
            .filter(|l| l.is_up() && (l.a == me || l.b == me))
            .filter(|l| map.area_of(l.a) == map.area_of(l.b))
            .map(|l| (l.id, l.other(me)))
            .collect();
        let bb_neighbors = if is_border {
            backbone
                .logical()
                .neighbors(me)
                .map(|(n, link)| {
                    let hops = backbone
                        .expand(link.a, link.b)
                        .map(|p| (p.len().saturating_sub(1)) as u64)
                        .unwrap_or(1);
                    (n, hops.max(1))
                })
                .collect()
        } else {
            Vec::new()
        };
        HierSwitch {
            me,
            per_hop: config.per_hop,
            my_attachment: attachment,
            area_core: SwitchCore::new(me, area_net, tc, Rc::clone(&algorithm), spf_cache.clone()),
            bb_core: is_border
                .then(|| SwitchCore::new(me, backbone.logical(), tc, algorithm, spf_cache.clone())),
            intra_links,
            bb_neighbors,
            host_member: BTreeSet::new(),
            delivered: BTreeMap::new(),
        }
    }

    /// The area-level engine (for inspection).
    pub fn area_engine(&self) -> &DgmcEngine {
        self.area_core.engine()
    }

    /// The backbone engine, if this switch is a border.
    pub fn backbone_engine(&self) -> Option<&DgmcEngine> {
        self.bb_core.as_ref().map(SwitchCore::engine)
    }

    /// Copies of `(mc, packet_id)` delivered to the local host.
    pub fn delivered_copies(&self, mc: McId, packet_id: u64) -> u32 {
        self.delivered.get(&(mc, packet_id)).copied().unwrap_or(0)
    }

    /// Returns `true` if this switch is its area's designated attachment.
    pub fn is_attachment(&self) -> bool {
        self.me == self.my_attachment
    }

    /// Runs one handler of the `level` core (a no-op on a switch without
    /// that core), replays its outputs in order and returns `true` if the
    /// handler processed a fresh MC LSA.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, HierMsg>,
        level: Level,
        handler: impl FnOnce(&mut SwitchCore, u64, &mut MetricsRegistry) -> Vec<Output>,
    ) -> bool {
        let core = match level {
            Level::Area => Some(&mut self.area_core),
            Level::Backbone => self.bb_core.as_mut(),
        };
        let Some(core) = core else {
            return false;
        };
        let now = ctx.now().as_nanos();
        let before = ctx.metrics().counter_value(core_counters::MC_LSAS);
        let outputs = handler(core, now, ctx.metrics());
        let fresh = ctx.metrics().counter_value(core_counters::MC_LSAS) > before;
        for output in outputs {
            match output {
                Output::Send { to, frame } => {
                    let delay = match level {
                        Level::Area => self.per_hop,
                        Level::Backbone => self.per_hop * self.tunnel_hops(to),
                    };
                    ctx.send(ActorId(to.0), delay, HierMsg::Frame { level, frame });
                }
                Output::StartTimer { mc, after_nanos } => {
                    let counter = match level {
                        Level::Area => counters::AREA_COMPUTATIONS,
                        Level::Backbone => counters::BB_COMPUTATIONS,
                    };
                    ctx.counter(counter).incr();
                    ctx.schedule_self(
                        SimDuration::nanos(after_nanos),
                        HierMsg::ComputationDone { level, mc },
                    );
                }
            }
        }
        fresh
    }

    /// Hop count of the tunnel to logical backbone neighbour `to`.
    fn tunnel_hops(&self, to: NodeId) -> u64 {
        self.bb_neighbors
            .iter()
            .find(|&&(n, _)| n == to)
            .map(|&(_, hops)| hops)
            .expect("backbone frames go to logical neighbours")
    }

    /// `true` when the area has *host* members for `mc` — the attachment's
    /// own relay membership (a down-coupling artifact) does not count, or
    /// empty areas would re-attach themselves forever.
    fn area_has_host_members(&self, mc: McId) -> bool {
        self.area_engine().state(mc).is_some_and(|st| {
            st.members
                .keys()
                .any(|&m| m != self.me || self.host_member.contains(&mc))
        })
    }

    /// The connection's type, read from the area core of an area with
    /// host members.
    fn area_mc_type(&self, mc: McId) -> McType {
        self.area_engine()
            .state(mc)
            .expect("an area with host members knows the connection")
            .mc_type
    }

    /// Up-coupling: the attachment mirrors its area's membership into the
    /// backbone connection.
    fn couple_up(&mut self, ctx: &mut Ctx<'_, HierMsg>, mc: McId) {
        if !self.is_attachment() {
            return;
        }
        let Some(bb) = self.backbone_engine() else {
            return;
        };
        let bb_member = bb.is_member(mc);
        let area_has_members = self.area_has_host_members(mc);
        if area_has_members && !bb_member {
            let mc_type = self.area_mc_type(mc);
            self.drive(ctx, Level::Backbone, |core, now, m| {
                core.on_join(now, m, mc, mc_type, Role::Receiver)
            });
        } else if !area_has_members && bb_member {
            self.drive(ctx, Level::Backbone, |core, now, m| {
                core.on_leave(now, m, mc)
            });
        }
    }

    /// Down-coupling: the attachment joins its area connection as a relay
    /// while the connection spans multiple areas.
    fn couple_down(&mut self, ctx: &mut Ctx<'_, HierMsg>, mc: McId) {
        if !self.is_attachment() {
            return;
        }
        let Some(bb) = self.backbone_engine() else {
            return;
        };
        let span = bb.state(mc).map(|st| st.members.len()).unwrap_or(0);
        let cross_area = span >= 2;
        let am_area_member = self.area_engine().is_member(mc);
        let host = self.host_member.contains(&mc);
        // Relay-join only in areas that actually participate: the relay's
        // purpose is to make the member area's tree span the attachment.
        let participates = self.area_has_host_members(mc);
        if cross_area && participates && !am_area_member {
            let mc_type = self.area_mc_type(mc);
            self.drive(ctx, Level::Area, |core, now, m| {
                core.on_join(now, m, mc, mc_type, Role::Receiver)
            });
        } else if !cross_area && am_area_member && !host {
            self.drive(ctx, Level::Area, |core, now, m| core.on_leave(now, m, mc));
        }
    }

    fn deliver_locally(&mut self, ctx: &mut Ctx<'_, HierMsg>, data: &HierData) {
        if self.host_member.contains(&data.mc) {
            ctx.counter(counters::DATA_DELIVERED).incr();
            *self.delivered.entry((data.mc, data.packet_id)).or_insert(0) += 1;
        }
    }

    fn area_tree_neighbors(&self, mc: McId, except: Option<NodeId>) -> Vec<(LinkId, NodeId)> {
        let Some(tree) = self.area_engine().installed(mc) else {
            return Vec::new();
        };
        tree.neighbors_in(self.me)
            .into_iter()
            .filter(|&n| Some(n) != except)
            .filter_map(|n| {
                self.intra_links
                    .iter()
                    .find(|&&(_, nb)| nb == n)
                    .map(|&(l, _)| (l, n))
            })
            .collect()
    }

    fn bb_tree_neighbors(&self, mc: McId, except: Option<NodeId>) -> Vec<(NodeId, u64)> {
        let Some(bb) = self.backbone_engine() else {
            return Vec::new();
        };
        let Some(tree) = bb.installed(mc) else {
            return Vec::new();
        };
        tree.neighbors_in(self.me)
            .into_iter()
            .filter(|&n| Some(n) != except)
            .filter_map(|n| self.bb_neighbors.iter().find(|&&(nb, _)| nb == n).copied())
            .collect()
    }

    /// Delivers `data` locally and forwards it along the area tree (except
    /// back to `from`); with `and_backbone`, an attachment also bridges it
    /// onto the backbone tree.
    fn forward_area_tree(
        &mut self,
        ctx: &mut Ctx<'_, HierMsg>,
        data: HierData,
        from: Option<NodeId>,
        and_backbone: bool,
    ) {
        self.deliver_locally(ctx, &data);
        for (link, n) in self.area_tree_neighbors(data.mc, from) {
            ctx.send(
                ActorId(n.0),
                self.per_hop,
                HierMsg::Data(HierData {
                    kind: HierDataKind::AreaTree { via: Some(link) },
                    ..data.clone()
                }),
            );
        }
        if and_backbone && self.is_attachment() {
            self.tunnel_data(ctx, &data, None);
        }
    }

    /// Tunnels `data` to this border's backbone-tree neighbours except
    /// `except`.
    fn tunnel_data(&self, ctx: &mut Ctx<'_, HierMsg>, data: &HierData, except: Option<NodeId>) {
        for (n, hops) in self.bb_tree_neighbors(data.mc, except) {
            ctx.send(
                ActorId(n.0),
                self.per_hop * hops,
                HierMsg::Data(HierData {
                    kind: HierDataKind::BackboneHop { from: self.me },
                    ..data.clone()
                }),
            );
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_, HierMsg>, data: HierData) {
        match data.kind {
            HierDataKind::AreaTree { via } => {
                let from = via.and_then(|v| {
                    self.intra_links
                        .iter()
                        .find(|&&(l, _)| l == v)
                        .map(|&(_, n)| n)
                });
                // Attachments bridge area traffic onto the backbone. An
                // AreaTree packet reaching the attachment is necessarily
                // origin-area traffic: backbone crossings re-enter areas
                // *from* the attachment (which never receives its own
                // injection back — area trees are acyclic).
                self.forward_area_tree(ctx, data, from, true);
            }
            HierDataKind::BackboneHop { from } => {
                // Relay along the backbone tree.
                self.tunnel_data(ctx, &data, Some(from));
                // Inject into the local area tree (we are this area's
                // attachment if we are on the backbone tree for the MC and
                // our area participates).
                if self.is_attachment() && self.area_engine().is_member(data.mc) {
                    let d = HierData {
                        kind: HierDataKind::AreaTree { via: None },
                        ..data
                    };
                    self.forward_area_tree(ctx, d, None, false);
                }
            }
        }
    }
}

impl Actor<HierMsg> for HierSwitch {
    fn handle(&mut self, ctx: &mut Ctx<'_, HierMsg>, env: Envelope<HierMsg>) {
        match env.msg {
            HierMsg::Frame { level, frame } => {
                let from = NodeId(env.from.expect("frames are sent by switches").0);
                let mc = match &frame {
                    Frame::Flood(packet) => match &packet.payload {
                        DgmcPayload::Mc(lsa) => Some(lsa.mc),
                        DgmcPayload::Router(_) => None,
                    },
                    Frame::DbSync { .. } | Frame::Data(_) => None,
                };
                let fresh = self.drive(ctx, level, |core, now, m| {
                    core.on_frame(now, m, from, frame)
                });
                // Only a fresh MC LSA counts and may trigger coupling.
                let (true, Some(mc)) = (fresh, mc) else {
                    return;
                };
                match level {
                    Level::Area => {
                        ctx.counter(counters::AREA_LSAS).incr();
                        self.couple_up(ctx, mc);
                    }
                    Level::Backbone => {
                        ctx.counter(counters::BB_LSAS).incr();
                        self.couple_down(ctx, mc);
                    }
                }
            }
            HierMsg::HostJoin { mc, mc_type, role } => {
                self.host_member.insert(mc);
                self.drive(ctx, Level::Area, |core, now, m| {
                    core.on_join(now, m, mc, mc_type, role)
                });
                self.couple_up(ctx, mc);
            }
            HierMsg::HostLeave { mc } => {
                self.host_member.remove(&mc);
                self.drive(ctx, Level::Area, |core, now, m| core.on_leave(now, m, mc));
                self.couple_up(ctx, mc);
                // An attachment still needed as a relay rejoins at once.
                self.couple_down(ctx, mc);
            }
            HierMsg::ComputationDone { level, mc } => {
                self.drive(ctx, level, |core, now, m| {
                    core.on_computation_done(now, m, mc)
                });
                match level {
                    Level::Area => self.couple_up(ctx, mc),
                    Level::Backbone => self.couple_down(ctx, mc),
                }
            }
            HierMsg::SendData { mc, packet_id } => {
                let data = HierData {
                    mc,
                    packet_id,
                    origin: self.me,
                    kind: HierDataKind::AreaTree { via: None },
                };
                // The injection rides the area tree toward the attachment,
                // which bridges it when hit; an attachment bridges at once.
                self.forward_area_tree(ctx, data, None, true);
            }
            HierMsg::Data(data) => self.on_data(ctx, data),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Builds a hierarchical simulation: one [`HierSwitch`] per node. All
/// cores share one [`SpfCache`], as in the flat simulator.
///
/// # Panics
///
/// Panics if some area has no border while `map` has multiple areas.
pub fn build_hier_sim(
    net: &Network,
    map: &AreaMap,
    config: DgmcConfig,
    algorithm: Rc<dyn McAlgorithm>,
) -> Simulation<HierMsg> {
    let backbone = Backbone::build(net, map);
    let borders = map.borders(net);
    // Designated attachment per area: the smallest border id; for a
    // single-area map every switch is its own "attachment" (unused).
    let mut attachments: BTreeMap<AreaId, NodeId> = BTreeMap::new();
    for area in map.area_ids() {
        let att = borders
            .iter()
            .copied()
            .find(|&b| map.area_of(b) == area)
            .unwrap_or_else(|| {
                assert_eq!(map.area_count(), 1, "{area} has no border switch");
                NodeId(0)
            });
        attachments.insert(area, att);
    }
    let area_nets: BTreeMap<AreaId, Network> = map
        .area_ids()
        .map(|area| (area, map.area_subgraph(net, area)))
        .collect();
    let spf_cache = SpfCache::new();
    let mut sim = Simulation::new();
    for n in net.nodes() {
        let area = map.area_of(n);
        let sw = HierSwitch::new(
            n,
            net,
            map,
            &area_nets[&area],
            &backbone,
            config,
            Rc::clone(&algorithm),
            &spf_cache,
            attachments[&area],
        );
        let id = sim.add_actor(Box::new(sw));
        debug_assert_eq!(id.index(), n.index());
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgmc_mctree::SphStrategy;
    use dgmc_topology::generate;

    fn grid_setup(k: usize) -> (Network, AreaMap, Simulation<HierMsg>) {
        let net = generate::grid(4, 4);
        let map = AreaMap::partition(&net, k);
        let sim = build_hier_sim(
            &net,
            &map,
            DgmcConfig::computation_dominated(),
            Rc::new(SphStrategy::new()),
        );
        (net, map, sim)
    }

    #[test]
    fn builder_registers_one_actor_per_switch() {
        let (net, _map, sim) = grid_setup(2);
        assert_eq!(sim.actor_count(), net.len());
        for n in net.nodes() {
            let sw = sim.actor_as::<HierSwitch>(ActorId(n.0)).expect("typed");
            assert!(sw.backbone_engine().is_some() || !sw.is_attachment());
        }
    }

    #[test]
    fn exactly_one_attachment_per_area() {
        let (net, map, sim) = grid_setup(4);
        for area in map.area_ids() {
            let attachments: Vec<NodeId> = map
                .switches_in(area)
                .into_iter()
                .filter(|&s| {
                    sim.actor_as::<HierSwitch>(ActorId(s.0))
                        .unwrap()
                        .is_attachment()
                })
                .collect();
            assert_eq!(attachments.len(), 1, "{area}");
            // The attachment is a border switch.
            assert!(map.borders(&net).contains(&attachments[0]));
        }
    }

    #[test]
    fn interior_switches_have_no_backbone_engine() {
        let (net, map, sim) = grid_setup(2);
        let borders = map.borders(&net);
        for n in net.nodes() {
            let sw = sim.actor_as::<HierSwitch>(ActorId(n.0)).unwrap();
            assert_eq!(sw.backbone_engine().is_some(), borders.contains(&n));
        }
    }

    #[test]
    fn tunnel_hop_counts_match_expansion_paths() {
        let net = generate::grid(4, 4);
        let map = AreaMap::partition(&net, 2);
        let backbone = Backbone::build(&net, &map);
        let sim = build_hier_sim(
            &net,
            &map,
            DgmcConfig::computation_dominated(),
            Rc::new(SphStrategy::new()),
        );
        for &b in map.borders(&net).iter() {
            let sw = sim.actor_as::<HierSwitch>(ActorId(b.0)).unwrap();
            for &(neighbor, hops) in &sw.bb_neighbors {
                let link = backbone
                    .logical()
                    .link_between(b, neighbor)
                    .expect("logical link");
                let path = backbone.expand(link.a, link.b).expect("expansion");
                assert_eq!(hops as usize, path.len() - 1);
            }
        }
    }
}
