//! # apmon — always-on sampled telemetry for huge machines
//!
//! The `apobs` timeline records *every* event, which is exactly the wrong
//! tool at the 10k-cell scale the ROADMAP aims for: the biggest runs are
//! the ones it can see the least into. This crate is the aggregate layer
//! machines of that size actually live on:
//!
//! * [`MetricsSeries`] — fixed-width, sim-time-sampled gauge/counter rows
//!   (T-net utilization, DMA occupancy, queue depth, in-flight PUT/GETs,
//!   barrier wait population, fault retries/detours) captured by a
//!   deterministic [`Sampler`] at a configurable sim-time interval. The
//!   cost per *event* is one integer compare; the cost per *sample* is a
//!   handful of loads — independent of machine size history.
//! * [`RunMetrics`] — the versioned `ap1000plus.metrics` v1 artifact:
//!   series, torus [`Heatmap`]s (link utilization, cell busy-fraction),
//!   and host self-profiling, with the host-side fields strippable so
//!   the artifact is byte-reproducible across machines and thread
//!   counts (the `host_ms` precedent).
//! * [`HostProf`] — cheap wall-clock phase counters around the emulator
//!   event-loop hot path (pop/dispatch/batch-drain/wakeup), the baseline
//!   any event-loop work is judged against.
//! * [`progress`] — rate-limited one-line live progress for `repro
//!   --progress`.
//!
//! Sampling is *deterministic in sim time*: tick `k` snapshots the
//! machine state after all events strictly before `k·interval` have been
//! handled (and none at or after it), so two runs of the same program
//! produce byte-identical series no matter the host, thread count, or
//! wall-clock jitter. Host profiling, by construction, only ever *reads*
//! the wall clock — it can never feed back into simulated time.

pub mod heatmap;
pub mod hostprof;
pub mod progress;
pub mod report;
pub mod series;

pub use heatmap::Heatmap;
pub use hostprof::{HostPhase, HostProf};
pub use progress::Progress;
pub use report::{
    check_metrics_schema, metrics_report, perfetto_counter_events, write_metrics_report, LinkUtil,
    RunMetrics, METRICS_SCHEMA, METRICS_SCHEMA_VERSION,
};
pub use series::{MetricsSample, MetricsSeries, Sampler};
