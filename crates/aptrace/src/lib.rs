//! Probe traces and communication statistics.
//!
//! The paper's methodology (§5) is *trace-driven* simulation: real
//! application runs are instrumented with probes "at entries and exits of
//! the communication and synchronization library", and MLSim replays the
//! recorded events under different machine parameter sets. This crate
//! defines the trace format produced by the `apcore` runtime's probes and
//! consumed by `mlsim`, plus the statistics that regenerate **Table 3**
//! (SEND / Gop / V Gop / Sync / PUT / PUTS / GET / GETS per PE and average
//! message size).

pub mod evtrace;
pub mod op;
pub mod stats;

pub use evtrace::{
    CounterTicks, EvError, EvHeader, EvIndexEntry, EvStream, EvSummary, EvTrace, StreamWriter,
};
pub use op::{Op, OpCounts, PeTrace, Trace};
pub use stats::{AppStats, StatsRow};
