//! Machine configuration.

use apnet::{Contention, CostParams, TNetParams};
use apobs::TimelineMode;
use aputil::SimTime;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide default for [`MachineConfig::metrics_interval`] in
/// nanoseconds; 0 means metrics off. The one run setting that does not
/// travel in a [`MachineConfig`] alone: the frozen `perf/` benchmark
/// switches sampling on through [`set_metrics_default`] around
/// `Workload::run()` (`perf/src/sim.rs:263-289`), so
/// [`MachineConfig::new`] mirrors it into the field — one read, one place.
/// Nothing else in this workspace sets it; it goes with the next
/// `[benchmark]` change (ROADMAP item 1(b)).
static METRICS_INTERVAL_DEFAULT_NS: AtomicU64 = AtomicU64::new(0);

/// Sets the sampled-metrics interval [`MachineConfig::new`] starts from
/// (`None` turns sampling off). Retained for the frozen benchmark only:
/// in-repo code sets the [`MachineConfig::metrics_interval`] field instead.
pub fn set_metrics_default(interval: Option<SimTime>) {
    METRICS_INTERVAL_DEFAULT_NS.store(
        interval.map_or(0, |t| t.as_nanos().max(1)),
        Ordering::Relaxed,
    );
}

/// The sampled-metrics interval [`MachineConfig::new`] starts from.
pub fn metrics_default() -> Option<SimTime> {
    match METRICS_INTERVAL_DEFAULT_NS.load(Ordering::Relaxed) {
        0 => None,
        ns => Some(SimTime::from_nanos(ns)),
    }
}

/// Retained no-op. The cell↔kernel protocol is not selectable: every
/// run is run-to-block on one thread (DESIGN.md §10). The frozen `perf/`
/// benchmark still calls this symbol, so it stays until the next
/// `[benchmark]` change retires it.
pub fn set_sim_threads_default(_threads: u32) {}

/// Hardware timing parameters of the emulated AP1000+: the costs MLSim's
/// AP1000+ model charges too, plus what the emulator alone models.
/// Defaults follow the paper (Table 1, Figure 6 right column, §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwParams {
    /// CPU, DMA-setup, library, S-net, B-net and processor costs.
    pub cost: CostParams,
    /// T-net timing (Figure 6's network column, shared with MLSim); its
    /// prolog also starts every B-net broadcast.
    pub net: TNetParams,
    /// DMA streaming time per byte (`put_msg_time` 0.05 µs per 4-byte word
    /// ⇒ 12.5 ns/B; we keep the per-byte form).
    pub dma_per_byte: SimTime,
    /// Extra per-item setup of the stride engine (one descriptor step per
    /// item; "the overhead of stride data transfer is the cost of a few
    /// store instructions", §4.1).
    pub stride_item_time: SimTime,
    /// MC fetch-and-increment latency.
    pub flag_update_time: SimTime,
    /// OS interrupt service time for queue-spill refills (§4.1).
    pub os_interrupt_time: SimTime,
    /// Ring-buffer bytes before the MSC+ interrupts the OS to allocate a
    /// new buffer (§4.3: "If the ring buffer becomes full, the MSC+
    /// interrupts the operating system, which then allocates a new
    /// buffer").
    pub ring_capacity: u64,
}

impl Default for HwParams {
    fn default() -> Self {
        HwParams {
            cost: CostParams::default(),
            net: TNetParams::default(),
            dma_per_byte: SimTime::from_nanos(12),
            stride_item_time: SimTime::from_nanos(40),
            flag_update_time: SimTime::from_nanos(100),
            os_interrupt_time: SimTime::from_micros_f64(20.0),
            ring_capacity: 64 << 10,
        }
    }
}

/// Full configuration of an emulated machine — and the only way a run
/// option reaches one: what is recorded, sampled, reported and dumped is
/// read from these fields and nowhere else.
///
/// # Examples
///
/// ```
/// use apcore::MachineConfig;
///
/// let cfg = MachineConfig::new(16);
/// assert_eq!(cfg.ncells, 16);
/// assert!(cfg.mem_size >= 1 << 20);
/// ```
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cells (the AP1000+ scales 4–1024; we also allow smaller
    /// machines for tests).
    pub ncells: u32,
    /// DRAM bytes per cell (16 MB or 64 MB on the real machine).
    pub mem_size: u64,
    /// Hardware timing parameters.
    pub hw: HwParams,
    /// T-net contention model.
    pub contention: Contention,
    /// Record a probe trace while running (small overhead; required for
    /// MLSim replay and Table-3 statistics).
    pub record_trace: bool,
    /// Where the sim-time event timeline goes: nowhere (the default — a
    /// disabled recorder is a single branch per event), an unbounded
    /// buffer (refused past 1024 cells), a flight-recorder ring keeping
    /// the last N events per unit category (memory stays O(cells), not
    /// O(events)), or a streaming sink.
    pub timeline: TimelineMode,
    /// Sampled-metrics interval: take one gauge snapshot per this much sim
    /// time. `None` (the default) disables the sampler entirely.
    pub metrics_interval: Option<SimTime>,
    /// Print a rate-limited one-line status to stderr while running (the
    /// `--progress` CLI flag).
    pub progress: bool,
    /// Where to dump whatever timeline survived when the run dies with a
    /// deadlock / lost-cell / fault error, as a Chrome trace. `None` (the
    /// default) disables the post-mortem dump.
    pub flight_dump: Option<PathBuf>,
}

fn check_cells(ncells: u32) {
    assert!(
        (1..=65536).contains(&ncells),
        "AP1000+ systems have 1..=1024 cells (the emulator accepts up to 65536), got {ncells}"
    );
}

impl MachineConfig {
    /// A machine of `ncells` cells with default (paper) parameters and
    /// 16 MB of DRAM per cell.
    ///
    /// # Panics
    ///
    /// Panics if `ncells` is 0 or exceeds 65536.
    pub fn new(ncells: u32) -> Self {
        check_cells(ncells);
        MachineConfig {
            ncells,
            mem_size: 16 << 20,
            hw: HwParams::default(),
            contention: Contention::None,
            record_trace: true,
            timeline: TimelineMode::Off,
            metrics_interval: metrics_default(),
            progress: false,
            flight_dump: None,
        }
    }

    /// The same options on a machine of `ncells` cells — how a driver
    /// stamps one prototype onto each workload's own size.
    ///
    /// # Panics
    ///
    /// Panics if `ncells` is 0 or exceeds 65536.
    pub fn with_cells(mut self, ncells: u32) -> Self {
        check_cells(ncells);
        self.ncells = ncells;
        self
    }

    /// Sets the DRAM size per cell.
    pub fn with_mem_size(mut self, bytes: u64) -> Self {
        self.mem_size = bytes;
        self
    }

    /// Sets the T-net contention model.
    pub fn with_contention(mut self, c: Contention) -> Self {
        self.contention = c;
        self
    }

    /// Enables or disables trace recording.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Enables or disables timeline (Chrome-trace) event recording: off
    /// drops every event; on buffers the full timeline unless a bounded
    /// or streaming mode is already set.
    pub fn with_timeline(mut self, on: bool) -> Self {
        match (on, &self.timeline) {
            (false, _) => self.timeline = TimelineMode::Off,
            (true, TimelineMode::Off) => self.timeline = TimelineMode::Full,
            (true, _) => {}
        }
        self
    }

    /// Bounds timeline recording to a flight recorder of `cap` events per
    /// unit category per cell, which implies recording; `None` turns a
    /// flight recorder back into the unbounded timeline.
    pub fn with_flight_recorder(mut self, cap: Option<NonZeroUsize>) -> Self {
        match (cap, &self.timeline) {
            (Some(cap), _) => self.timeline = TimelineMode::Ring(cap),
            (None, TimelineMode::Ring(_)) => self.timeline = TimelineMode::Full,
            (None, _) => {}
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let hw = HwParams::default();
        assert_eq!(hw.cost.flop_time.as_nanos(), 20, "50 MFLOPS SuperSPARC");
        assert_eq!(hw.net.prolog.as_nanos(), 160);
        assert_eq!(hw.cost.put_prolog.as_micros_f64(), 1.0);
        assert_eq!(hw.cost.dma_set.as_micros_f64(), 0.5);
    }

    #[test]
    fn builder_chains() {
        let cfg = MachineConfig::new(8)
            .with_mem_size(1 << 22)
            .with_trace(false)
            .with_contention(Contention::Ports);
        assert_eq!(cfg.mem_size, 1 << 22);
        assert!(!cfg.record_trace);
        assert_eq!(cfg.contention, Contention::Ports);
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn zero_cells_panics() {
        let _ = MachineConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn oversized_machine_panics() {
        let _ = MachineConfig::new(65537);
    }

    #[test]
    fn huge_machines_are_configurable() {
        // Paper hardware tops out at 1024, but the emulator accepts up to
        // 65536 cells for scaling studies (memory is lazily allocated).
        let cfg = MachineConfig::new(4096);
        assert_eq!(cfg.ncells, 4096);
    }

    #[test]
    fn with_cells_keeps_every_option() {
        let proto = MachineConfig {
            metrics_interval: Some(SimTime::from_micros(50)),
            ..MachineConfig::new(1)
                .with_trace(false)
                .with_flight_recorder(NonZeroUsize::new(8))
        };
        let cfg = proto.with_cells(4096);
        assert_eq!(cfg.ncells, 4096);
        assert!(!cfg.record_trace);
        assert_eq!(cfg.metrics_interval, Some(SimTime::from_micros(50)));
        assert!(matches!(cfg.timeline, TimelineMode::Ring(cap) if cap.get() == 8));
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn with_cells_checks_the_range_too() {
        let _ = MachineConfig::new(4).with_cells(0);
    }

    #[test]
    fn timeline_builders_set_the_one_mode() {
        let off = MachineConfig::new(4);
        assert!(matches!(off.timeline, TimelineMode::Off));
        assert!(!off.progress && off.flight_dump.is_none());
        let full = off.clone().with_timeline(true);
        assert!(matches!(full.timeline, TimelineMode::Full));
        assert!(matches!(
            full.clone().with_timeline(false).timeline,
            TimelineMode::Off
        ));
        // A flight recorder implies recording, and stays bounded when
        // recording is (re)requested.
        let ring = off.clone().with_flight_recorder(NonZeroUsize::new(64));
        assert!(matches!(ring.timeline, TimelineMode::Ring(cap) if cap.get() == 64));
        let ring = ring.with_timeline(true);
        assert!(matches!(ring.timeline, TimelineMode::Ring(_)));
        // `None` unbounds a ring and leaves every other mode alone.
        assert!(matches!(
            ring.clone().with_flight_recorder(None).timeline,
            TimelineMode::Full
        ));
        assert!(matches!(
            off.clone().with_flight_recorder(None).timeline,
            TimelineMode::Off
        ));
        assert!(matches!(
            ring.with_timeline(false).timeline,
            TimelineMode::Off
        ));
    }
}
