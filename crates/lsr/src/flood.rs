//! Reliable flooding with duplicate suppression.
//!
//! Flooding is the transport of every advertisement in the system — router
//! LSAs and D-GMC's MC LSAs alike. Each flooding operation has a unique
//! [`FloodId`]; a node relays the first copy it sees on every up link except
//! the arrival link, and drops duplicates.

use crate::lsa::{FloodId, FloodPacket};
use dgmc_topology::NodeId;
use std::collections::HashSet;

/// Per-node flooding engine: originates flood ids and suppresses duplicates.
///
/// # Examples
///
/// ```
/// use dgmc_lsr::flood::Flooder;
/// use dgmc_topology::NodeId;
///
/// let mut f = Flooder::new(NodeId(3));
/// let pkt = f.originate("hello");
/// assert_eq!(pkt.id.origin, NodeId(3));
/// // Our own floods are already marked seen:
/// assert!(!f.accept(pkt.id));
/// ```
#[derive(Debug, Clone)]
pub struct Flooder {
    node: NodeId,
    next_seq: u64,
    seen: HashSet<FloodId>,
}

impl Flooder {
    /// Creates the flooding engine of switch `node`.
    pub fn new(node: NodeId) -> Self {
        Flooder {
            node,
            next_seq: 0,
            seen: HashSet::new(),
        }
    }

    /// The owning switch.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Starts a new flooding operation carrying `payload`.
    ///
    /// The returned packet must be relayed on every up link of the origin;
    /// the origin itself will never re-accept it.
    pub fn originate<P>(&mut self, payload: P) -> FloodPacket<P> {
        let id = FloodId {
            origin: self.node,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.seen.insert(id);
        FloodPacket { id, payload }
    }

    /// Records the arrival of flood `id`; returns `true` exactly once per id
    /// (first copy), `false` for duplicates.
    pub fn accept(&mut self, id: FloodId) -> bool {
        self.seen.insert(id)
    }

    /// Returns `true` if `id` has been seen (originated or accepted).
    pub fn has_seen(&self, id: FloodId) -> bool {
        self.seen.contains(&id)
    }

    /// Number of distinct flood ids seen so far.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn originate_assigns_monotone_sequences() {
        let mut f = Flooder::new(NodeId(1));
        let a = f.originate(1u32);
        let b = f.originate(2u32);
        assert_eq!(a.id.seq + 1, b.id.seq);
        assert_eq!(a.id.origin, NodeId(1));
        assert_eq!(f.seen_count(), 2);
    }

    #[test]
    fn accept_is_idempotent() {
        let mut f = Flooder::new(NodeId(0));
        let id = FloodId {
            origin: NodeId(5),
            seq: 3,
        };
        assert!(!f.has_seen(id));
        assert!(f.accept(id), "first copy accepted");
        assert!(!f.accept(id), "duplicate dropped");
        assert!(f.has_seen(id));
    }

    #[test]
    fn own_floods_are_preseen() {
        let mut f = Flooder::new(NodeId(2));
        let pkt = f.originate(());
        assert!(!f.accept(pkt.id), "a reflected copy must be dropped");
    }

    #[test]
    fn distinct_origins_do_not_collide() {
        let mut f = Flooder::new(NodeId(0));
        let same_seq_other_origin = FloodId {
            origin: NodeId(9),
            seq: 0,
        };
        f.originate(());
        assert!(f.accept(same_seq_other_origin));
    }
}
