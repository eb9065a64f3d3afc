//! A D-GMC node on real sockets.
//!
//! The DES validates the protocol under simulated time; this crate is the
//! second driver of the *same* switch core, [`dgmc_core::switch::SwitchCore`],
//! on real UDP datagrams, so the checker guarantees carry over to deployed
//! code (DESIGN.md §14). The split is sans-IO, lightway-style:
//!
//! * [`proto`] — [`proto::NodeCore`], the shared core paired with this
//!   process's own metrics registry and decision observer. It consumes
//!   decoded frames and control events and returns [`proto::Output`] values
//!   (datagrams to send, timers to arm) without ever touching a socket.
//! * [`frame`] — the outer datagram framing of a core
//!   [`dgmc_core::switch::Frame`] over the `dgmc-core`/`dgmc-lsr` wire
//!   codecs, plus semantic validation of decoded frames.
//! * [`clock`] — the monotonic wall clock mapped onto the engine's
//!   nanosecond tick domain, and the timer wheel for `Tc` computations.
//! * [`driver`] — the I/O loop: one UDP socket for protocol traffic, one
//!   line-oriented TCP control socket for scripting (join/leave/status).
//! * [`fault`] — the DES fault model on the send path: the shared
//!   [`dgmc_des::net::FaultPlan`] and its one fault draw, seeded per node
//!   (recovered loss as delayed retransmission).
//! * [`launcher`] — spawns N node processes on loopback from a scenario
//!   file, drives membership through control sockets, and merges each
//!   node's decision log and metrics into the DES report schema.
//! * [`snapshot`] — canonical JSON projections of engine state and
//!   decision logs, shared by the node's state dump and the DES-vs-socket
//!   conformance suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod driver;
pub mod fault;
pub mod frame;
pub mod launcher;
pub mod proto;
pub mod snapshot;
