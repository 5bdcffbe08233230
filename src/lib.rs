//! # ap1000plus — a reproduction of the AP1000+ PUT/GET architecture
//!
//! This is the facade crate of the workspace reproducing *"AP1000+:
//! Architectural Support of PUT/GET Interface for Parallelizing Compiler"*
//! (Hayashi et al., ASPLOS VI, 1994). It re-exports the component crates:
//!
//! * [`util`] — time, addresses, IDs, errors.
//! * [`sim`] — the discrete-event kernel.
//! * [`mem`] — the MC model (memory, MMU, flags, communication
//!   registers, DSM map).
//! * [`net`] — T-net / B-net / S-net interconnect models.
//! * [`msc`] — the MSC+ message controller (queues, DMA, stride engine).
//! * [`core`] — the machine emulator and the PUT/GET SPMD interface.
//! * [`trace`] — probe traces and Table-3 statistics.
//! * [`mlsim`] — the trace-driven message-level simulator.
//! * [`apps`] — the paper's workloads (EP, CG, FT, SP, TOMCATV, MatMul,
//!   SCG).
//!
//! See `README.md` for a tour and `examples/quickstart.rs` for first steps.

pub use apcore as core;
pub use apmem as mem;
pub use apmsc as msc;
pub use apnet as net;
pub use apsim as sim;
pub use aptrace as trace;
pub use aputil as util;
pub use mlsim;

pub use apapps as apps;
