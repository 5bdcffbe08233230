//! AP1000+ interconnect models.
//!
//! The AP1000+ keeps three independent networks (paper §4, Figure 4):
//!
//! * [`tnet::TNet`] — the two-dimensional torus for point-to-point
//!   messages (25 MB/s per channel, static routing, wormhole, in-order
//!   delivery per source/destination pair).
//! * [`bnet::BNet`] — the broadcast network used for data
//!   distribution/collection (50 MB/s, one sender at a time).
//! * [`snet::SNet`] — the synchronization network providing hardware
//!   barriers across all cells.
//!
//! All three are *timing* models layered on the discrete-event kernel: they
//! answer "when does this message arrive?" while the payload movement is
//! done by the MSC+/MC models in `apmsc`/`apmem`.

pub mod bnet;
pub mod cost;
pub mod snet;
pub mod tnet;
pub mod torus;

pub use bnet::BNet;
pub use cost::CostParams;
pub use snet::SNet;
pub use tnet::{Contention, Delivery, TNet, TNetParams};
pub use torus::Torus;

/// Bytes of header on every T-net and B-net packet (the 8-word command
/// image plus routing information), in both engines.
pub const HEADER_BYTES: u64 = 32;
