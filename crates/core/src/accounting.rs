//! Per-cell time accounting and the run report.
//!
//! The emulator splits each cell's wall-clock into the same four buckets
//! the paper's Figure 8 uses (§5.2): **execution** (user computation),
//! **run-time system** (VPP Fortran RTS work), **overhead** (CPU time in
//! communication library calls), and **idle** (waiting for messages, flags,
//! or barriers).

use aputil::SimTime;

/// Time breakdown of one cell.
pub use apobs::BucketTimes as CellTimes;

/// Result of running one SPMD program on the emulator.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-cell program return values, indexed by cell.
    pub outputs: Vec<T>,
    /// Per-cell time breakdown.
    pub times: Vec<CellTimes>,
    /// Total simulated execution time (max cell finish time).
    pub total_time: SimTime,
    /// The recorded probe trace (empty ops if tracing was disabled).
    pub trace: aptrace::Trace,
    /// T-net statistics.
    pub tnet: apnet::tnet::TNetStats,
    /// Number of S-net barrier epochs.
    pub barriers: u64,
    /// Unified hardware counters: queue spills/refills, ring overflows,
    /// and the message-size / flag-wait / queue-occupancy / net-latency
    /// histograms.
    pub counters: apobs::Counters,
    /// Sim-time event timeline (empty unless
    /// [`MachineConfig::timeline`](crate::MachineConfig) buffers — `Full`
    /// or a flight-recorder `Ring`); export with [`apobs::chrome_trace`].
    pub timeline: apobs::Timeline,
    /// The fault-injection report of a survived faulted run (`None` on
    /// fault-free runs). Unsurvivable schedules never get here — they
    /// abort with [`aputil::ApError::Fault`], which carries the report.
    pub fault: Option<aputil::FaultReport>,
    /// Sampled telemetry (`None` unless
    /// [`MachineConfig::metrics_interval`](crate::MachineConfig) was set):
    /// the gauge time series, torus heatmaps, per-link busy times, and
    /// host self-profiling.
    pub metrics: Option<Box<apmon::RunMetrics>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounted_sums_buckets() {
        let t = CellTimes {
            exec: SimTime::from_nanos(10),
            rts: SimTime::from_nanos(5),
            overhead: SimTime::from_nanos(3),
            idle: SimTime::from_nanos(2),
            finish: SimTime::from_nanos(25),
        };
        assert_eq!(t.accounted().as_nanos(), 20);
    }
}
