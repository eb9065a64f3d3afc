//! # D-GMC: a lightweight protocol for multipoint connections under
//! link-state routing
//!
//! Reproduction of Huang & McKinley, ICDCS 1996. D-GMC constructs and
//! maintains *multipoint connections* (MCs) — symmetric, receiver-only and
//! asymmetric — on top of a link-state routing substrate. Its key idea:
//! when an event occurs (member join/leave, link change), **only the switch
//! that detects it** computes a new MC topology and floods the proposal in
//! an *MC LSA*; every other switch adopts it. Concurrent, conflicting
//! proposals are detected and resolved with vector [`Timestamp`]s.
//!
//! The crate layers:
//!
//! * [`Timestamp`] — the n-component event-count vectors (`R`, `E`, `C`),
//! * [`McLsa`] — the `(S, F, V, G, P, T)` advertisement tuple,
//! * [`DgmcEngine`] — the `EventHandler()`/`ReceiveLSA()` state machines of
//!   the paper's Figures 4 and 5, pure and unit-testable,
//! * [`switch`] — the sans-IO switch core combining the engine with the
//!   [`dgmc_lsr`] substrate, `Tc`-long computations and a data plane, and
//!   the DES actor that drives it,
//! * [`convergence`] — consensus checks and convergence-time measurement.
//!
//! # Examples
//!
//! Build a five-switch ring, have three switches join a teleconference MC,
//! and verify that everyone converges on the same tree:
//!
//! ```
//! use dgmc_core::switch::{build_dgmc_sim, DgmcConfig, SwitchMsg};
//! use dgmc_core::{convergence, McId};
//! use dgmc_des::{ActorId, SimDuration};
//! use dgmc_mctree::{McType, Role, SphStrategy};
//! use dgmc_topology::generate;
//! use std::rc::Rc;
//!
//! let net = generate::ring(5);
//! let mut sim = build_dgmc_sim(&net, DgmcConfig::computation_dominated(), Rc::new(SphStrategy::new()));
//! for (i, node) in [0u32, 2, 4].into_iter().enumerate() {
//!     sim.inject(
//!         ActorId(node),
//!         SimDuration::millis(i as u64),
//!         SwitchMsg::HostJoin { mc: McId(1), mc_type: McType::Symmetric, role: Role::SenderReceiver },
//!     );
//! }
//! sim.run_to_quiescence();
//! let consensus = convergence::check_consensus(&sim, McId(1)).unwrap();
//! assert_eq!(consensus.members.len(), 3);
//! assert!(consensus.topology.unwrap().is_tree());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod convergence;
pub mod invariants;
pub mod spec;
pub mod switch;

mod arena;
mod engine;
mod mc;
mod state;
mod timestamp;

pub use engine::{DgmcAction, DgmcEngine, EngineMutation};
pub use mc::{McEventKind, McId, McLsa};
pub use state::{Candidate, ComputationJob, McState, McSync, Tombstone};
pub use timestamp::Timestamp;

// Re-export the vocabulary types users need alongside the protocol.
pub use dgmc_mctree::{McAlgorithm, McTopology, McType, Role};
