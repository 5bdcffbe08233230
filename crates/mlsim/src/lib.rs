//! # MLSim — the trace-driven message-level simulator
//!
//! Reproduction of the paper's evaluation vehicle (§5): *"A trace-driven
//! simulator for a message-passing parallel computer — the message level
//! simulator (MLSim) — has been developed to study communication
//! behavior. … MLSim simulates communication behavior based on the trace
//! information and parameter file, preserving the order of message
//! communications and barrier synchronization between processors with a
//! delay parameter."*
//!
//! A probe trace recorded by `apcore` is replayed under a
//! [`params::ModelParams`] parameter file. Three presets
//! reproduce the paper's three machines:
//!
//! * [`ModelParams::ap1000`] — SPARC processor, **software** message
//!   handling through interrupts (Figure 7's full overhead chain).
//! * [`ModelParams::ap1000_star`] — the §5.3 strawman: the same AP1000
//!   with the SPARC swapped for a SuperSPARC (8× compute), message
//!   handling still in software.
//! * [`ModelParams::ap1000_plus`] — SuperSPARC plus the MSC+ hardware
//!   message handling of the paper's proposal.
//!
//! [`ModelParams::paper_models`] is the three in that order. All three
//! share one T-net ([`apnet::TNetParams::default`], the emulator's too).
//! Replaying a recording under scaled computation factors (`repro
//! remodel`) is `apbench`'s business: a scaled copy of each preset,
//! replayed with [`replay()`].
//!
//! The replay produces per-PE breakdowns into **execution / run-time
//! system / overhead / idle** — the four bars of Figure 8 — from which
//! Table 2's speedups follow.
//!
//! # Examples
//!
//! ```
//! use aptrace::{Op, Trace};
//! use aputil::CellId;
//! use mlsim::{replay, ModelParams};
//!
//! // A two-cell trace: cell 0 PUTs 1 KB to cell 1, which waits on a flag.
//! let mut t = Trace::new(2);
//! t.pe_mut(CellId::new(0)).push(Op::Put {
//!     dst: CellId::new(1), bytes: 1024, stride: false, ack: false,
//!     send_flag: 0, recv_flag: 7,
//! });
//! t.pe_mut(CellId::new(1)).push(Op::WaitFlag { flag: 7, target: 1 });
//!
//! let plus = replay(&t, &ModelParams::ap1000_plus()).unwrap();
//! let old = replay(&t, &ModelParams::ap1000()).unwrap();
//! assert!(old.total > plus.total, "hardware handling must be faster");
//! ```

pub mod divergence;
pub mod params;
pub mod replay;
pub mod report;

pub use divergence::{divergence, DivergenceReport, DivergenceRow, SegmentDelta};
pub use params::ModelParams;
pub use replay::{replay, replay_observed, PeBreakdown, ReplayError, ReplayResult};
pub use report::{fig8_rows, speedup, Fig8Row};
