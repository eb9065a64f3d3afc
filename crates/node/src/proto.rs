//! The node's protocol core: the shared [`SwitchCore`] paired with this
//! process's own metrics registry.
//!
//! The DES actor [`DgmcSwitch`] and the node drive the *same*
//! [`SwitchCore`]; this module only supplies what a process owns and a
//! simulation shares — one [`MetricsRegistry`] per node (the decision log
//! hangs off the engine's own observer). Still no sockets, no clocks, no
//! I/O, which is what lets the conformance suite
//! (`tests/node_conformance.rs`) assert that the DES and UDP drivers
//! produce identical protocol state and decision logs.
//!
//! [`DgmcSwitch`]: dgmc_core::switch::DgmcSwitch

pub use dgmc_core::switch::Output;
use dgmc_core::switch::{Frame, SwitchCore};
use dgmc_core::McId;
use dgmc_mctree::{McAlgorithm, McType, Role};
use dgmc_obs::{DecisionLogHandle, MetricsRegistry};
use dgmc_topology::{Network, NodeId, SpfCache};
use std::ops::Deref;
use std::rc::Rc;

/// Counter names owned by the node driver layer (the protocol itself bumps
/// the names in [`dgmc_core::switch::counters`], `node.unknown_sender`
/// included).
pub mod node_counters {
    /// Datagrams received on the UDP socket.
    pub const RX_DATAGRAMS: &str = "node.rx_datagrams";
    /// Datagrams handed to the socket for sending.
    pub const TX_DATAGRAMS: &str = "node.tx_datagrams";
    /// Datagrams that failed to decode (truncated/garbage/bad tag).
    pub const DECODE_ERRORS: &str = "node.decode_errors";
    /// Datagrams that decoded but failed semantic validation
    /// ([`crate::frame::frame_is_sane`]).
    pub const INSANE_FRAMES: &str = "node.insane_frames";
    /// Datagrams the socket refused to send (e.g. `EMSGSIZE`); the node
    /// counts them and carries on.
    pub const SEND_ERRORS: &str = "node.send_errors";
    /// Sends the loss shim converted into delayed retransmissions.
    pub const SHIM_RETRANSMITS: &str = "node.shim_retransmits";
    /// Sends the loss shim dropped for good (hard loss).
    pub const SHIM_DROPS: &str = "node.shim_drops";
}

/// A [`SwitchCore`] with a per-process registry (see the module docs).
/// Dereferences to the core for read access.
#[derive(Debug)]
pub struct NodeCore {
    core: SwitchCore,
    metrics: MetricsRegistry,
}

impl NodeCore {
    /// Creates the core warm-started on the ground-truth network `net`,
    /// exactly like [`dgmc_core::switch::DgmcSwitch::new`]. `tc_nanos` is
    /// the `Tc` computation time mapped onto real nanoseconds.
    pub fn new(
        me: NodeId,
        net: &Network,
        tc_nanos: u64,
        algorithm: Rc<dyn McAlgorithm>,
    ) -> NodeCore {
        NodeCore {
            core: SwitchCore::new(me, net, tc_nanos, algorithm, SpfCache::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The per-process metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access for the driver's own counters.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Attaches a bounded in-memory decision log to the engine's own
    /// observer and returns its handle.
    pub fn attach_log(&self, capacity: usize) -> DecisionLogHandle {
        self.core.engine().observer().attach_log(capacity)
    }

    /// Handles one decoded, validated frame from neighbour `from`.
    pub fn on_frame(&mut self, now_nanos: u64, from: NodeId, frame: Frame) -> Vec<Output> {
        self.core
            .on_frame(now_nanos, &mut self.metrics, from, frame)
    }

    /// A local host joins `mc`.
    pub fn on_join(
        &mut self,
        now_nanos: u64,
        mc: McId,
        mc_type: McType,
        role: Role,
    ) -> Vec<Output> {
        self.core
            .on_join(now_nanos, &mut self.metrics, mc, mc_type, role)
    }

    /// A local host leaves `mc`.
    pub fn on_leave(&mut self, now_nanos: u64, mc: McId) -> Vec<Output> {
        self.core.on_leave(now_nanos, &mut self.metrics, mc)
    }

    /// The incident link toward `neighbor` changed state; unknown
    /// neighbours are ignored.
    pub fn on_link_event(
        &mut self,
        now_nanos: u64,
        neighbor: NodeId,
        up: bool,
        detector: bool,
    ) -> Vec<Output> {
        self.core
            .on_link_event(now_nanos, &mut self.metrics, neighbor, up, detector)
    }

    /// The `Tc` computation timer for `mc` fired.
    pub fn on_computation_done(&mut self, now_nanos: u64, mc: McId) -> Vec<Output> {
        self.core
            .on_computation_done(now_nanos, &mut self.metrics, mc)
    }

    /// A local host injects data packet `packet_id` into `mc`.
    pub fn on_send_data(&mut self, now_nanos: u64, mc: McId, packet_id: u64) -> Vec<Output> {
        self.core
            .on_send_data(now_nanos, &mut self.metrics, mc, packet_id)
    }

    /// Administrative failure/recovery.
    pub fn on_admin(&mut self, up: bool) -> Vec<Output> {
        self.core.on_admin(up)
    }
}

impl Deref for NodeCore {
    type Target = SwitchCore;

    fn deref(&self) -> &SwitchCore {
        &self.core
    }
}
