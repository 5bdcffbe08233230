//! The MSC+ message controller model.
//!
//! The MSC+ is the heart of the paper's contribution (§4.1, Figure 5): it
//! lets user code issue PUT/GET with a handful of stores, moves data with
//! DMA through the MC's MMU, combines flag updates with transfer
//! completion, and keeps the processor entirely out of message handling.
//! This crate models its mechanical pieces:
//!
//! * [`queue::HwQueue`] — the five on-chip command queues
//!   (64 words of RAM each) with automatic **spill to a DRAM buffer** and
//!   OS-interrupt accounting on refill (§4.1 "Queues and queue overflows").
//! * [`dma`] — DMA copy between logical address ranges, translating through
//!   the MMU region run by region run.
//! * [`stride::StrideSpec`] and the gather/scatter engine — the
//!   one-dimensional stride transfer of §3.1/§4.1.
//! * [`message::PutArgs`] / [`message::GetArgs`] and [`message::Packet`]
//!   — the §3.1 argument blocks a PUT/GET carries, and what travels on
//!   the T-net; the header every packet adds is the network's
//!   (`apnet::HEADER_BYTES`).
//!
//! The 8-word command image the processor stores into the send queue is
//! not built: its cost, the paper's "8 store instructions" (§4.1), is one
//! timing constant both engines read, `apnet::CostParams::put_prolog`.

pub mod dma;
pub mod message;
pub mod payload;
pub mod queue;
pub mod stride;

pub use message::{GetArgs, Packet, PutArgs, MAX_DMA_BYTES};
pub use payload::Payload;
pub use queue::{HwQueue, PushOutcome, QueueStats};
pub use stride::StrideSpec;
