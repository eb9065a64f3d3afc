//! Two-level hierarchical extension of D-GMC.
//!
//! The paper limits flat D-GMC to a single administrative domain of a few
//! hundred switches and notes that "scalability can be addressed by
//! introducing a routing hierarchy into large networks ... the combination
//! of an LSR protocol and routing hierarchy is under consideration for the
//! ATM PNNI standard. In this paper, we present the 'basic' D-GMC protocol;
//! its extension to hierarchical networks is part of our ongoing work."
//!
//! This crate implements that extension at the topology/analysis level:
//!
//! * [`AreaMap`] — a partition of the switches into areas, with border
//!   switches identified ([`partition`]),
//! * [`backbone`] — the level-2 logical network: border switches joined by
//!   inter-area physical links and intra-area *logical* links whose cost is
//!   the intra-area shortest path,
//! * [`HierarchicalMc`] — hierarchical MC topology computation: per-area
//!   trees over member areas, a backbone tree stitching their attachment
//!   borders, logical edges expanded back to physical paths,
//! * [`scope`] — flood-scope accounting showing the scalability win: an
//!   intra-area event floods `|area|` switches instead of `n` (plus the
//!   backbone when the inter-area topology is affected),
//! * [`switch`] — the signaling-level DES: every switch runs the flat
//!   [`dgmc_core::switch::SwitchCore`] on its area subgraph, every border a
//!   second one on the backbone's logical network, and each area's
//!   attachment border couples the two cores.
//!
//! Each area thus runs the *unchanged* flat D-GMC switch (also validated in
//! the integration tests by running the flat DES on an extracted area), so
//! the signaling machinery of [`dgmc_core`] carries over verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backbone;
pub mod partition;
pub mod scope;
pub mod switch;

mod mc;

pub use mc::{HierarchicalMc, HierarchyError};
pub use partition::{AreaId, AreaMap};
