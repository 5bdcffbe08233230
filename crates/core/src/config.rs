//! Machine configuration.

use apnet::Contention;
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
/// `[benchmark]` change (ROADMAP item 2(c)).
static METRICS_INTERVAL_DEFAULT_NS: AtomicU64 = AtomicU64::new(0);

/// Sets the sampled-metrics interval [`MachineConfig::new`] starts from
/// (`None` turns sampling off). Retained for the frozen benchmark only:
/// in-repo code sets [`MachineConfig::with_metrics_interval`] instead.
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

/// Hardware timing parameters of the emulated AP1000+ (per-cell MSC+/MC
/// costs plus the network constants). Defaults follow the paper's AP1000+
/// numbers (Table 1, Figure 6 right column, §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwParams {
    /// Time for one abstract floating-point operation on the cell CPU.
    /// SuperSPARC at 50 MFLOPS (Table 1) ⇒ 20 ns.
    pub flop_time: SimTime,
    /// Time per abstract run-time-system unit (VPP Fortran address
    /// arithmetic etc., executed on the CPU).
    pub rts_unit_time: SimTime,
    /// CPU time to issue one PUT/GET: writing the 8 parameter words into
    /// the MSC+ queue (§4.1 says ≈8 stores; Figure 6's AP1000+ model
    /// charges `put_prolog_time` = 1.0 µs for the whole user-level issue).
    pub issue_time: SimTime,
    /// MSC+ DMA setup per transfer (`put_dma_set_time` / `recv_dma_set_time`
    /// = 0.5 µs in Figure 6).
    pub dma_set_time: SimTime,
    /// DMA streaming time per byte (`put_msg_time` 0.05 µs per 4-byte word
    /// ⇒ 12.5 ns/B; we keep the per-byte form).
    pub dma_per_byte: SimTime,
    /// Extra per-item setup of the stride engine (one descriptor step per
    /// item; "the overhead of stride data transfer is the cost of a few
    /// store instructions", §4.1).
    pub stride_item_time: SimTime,
    /// CPU time for one flag-value check (`flag_check` in Figure 7).
    pub flag_check_time: SimTime,
    /// MC fetch-and-increment latency.
    pub flag_update_time: SimTime,
    /// S-net hardware barrier latency.
    pub barrier_latency: SimTime,
    /// CPU time to store to a (possibly remote) communication register.
    pub reg_store_time: SimTime,
    /// CPU time for a communication-register load that finds the p-bit set.
    pub reg_load_time: SimTime,
    /// Per-byte cost of the RECEIVE-side ring-buffer copy into the user
    /// area (the intrinsic SEND/RECEIVE buffering overhead, §1.3).
    pub recv_copy_per_byte: SimTime,
    /// CPU time of the SEND library call itself (blocking until the send
    /// DMA completes, §5.4).
    pub send_call_time: SimTime,
    /// T-net per-message prolog (`network_prolog_time` = 0.16 µs).
    pub net_prolog: SimTime,
    /// T-net per-hop delay (`network_delay_time` = 0.16 µs).
    pub net_per_hop: SimTime,
    /// T-net per-byte serialization (25 MB/s channels ⇒ 40 ns/B).
    pub net_per_byte: SimTime,
    /// B-net per-byte serialization (50 MB/s ⇒ 20 ns/B).
    pub bnet_per_byte: SimTime,
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
            flop_time: SimTime::from_nanos(20),
            rts_unit_time: SimTime::from_micros_f64(0.5),
            issue_time: SimTime::from_micros_f64(1.0),
            dma_set_time: SimTime::from_micros_f64(0.5),
            dma_per_byte: SimTime::from_nanos(12),
            stride_item_time: SimTime::from_nanos(40),
            flag_check_time: SimTime::from_micros_f64(0.2),
            flag_update_time: SimTime::from_nanos(100),
            barrier_latency: SimTime::from_micros_f64(1.0),
            reg_store_time: SimTime::from_micros_f64(0.5),
            reg_load_time: SimTime::from_micros_f64(0.5),
            recv_copy_per_byte: SimTime::from_nanos(20),
            send_call_time: SimTime::from_micros_f64(1.0),
            net_prolog: SimTime::from_micros_f64(0.16),
            net_per_hop: SimTime::from_micros_f64(0.16),
            net_per_byte: SimTime::from_nanos(40),
            bnet_per_byte: SimTime::from_nanos(20),
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

    /// Sets the hardware parameters.
    pub fn with_hw(mut self, hw: HwParams) -> Self {
        self.hw = hw;
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

    /// Sets the sampled-metrics interval (`None` disables sampling).
    pub fn with_metrics_interval(mut self, interval: Option<SimTime>) -> Self {
        self.metrics_interval = interval;
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
        assert_eq!(hw.flop_time.as_nanos(), 20, "50 MFLOPS SuperSPARC");
        assert_eq!(hw.net_prolog.as_nanos(), 160);
        assert_eq!(hw.issue_time.as_micros_f64(), 1.0);
        assert_eq!(hw.dma_set_time.as_micros_f64(), 0.5);
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
        let proto = MachineConfig::new(1)
            .with_trace(false)
            .with_metrics_interval(Some(SimTime::from_micros(50)))
            .with_flight_recorder(NonZeroUsize::new(8));
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

    #[test]
    fn metrics_interval_builder() {
        let cfg = MachineConfig::new(4).with_metrics_interval(Some(SimTime::from_micros_f64(10.0)));
        assert_eq!(cfg.metrics_interval, Some(SimTime::from_micros_f64(10.0)));
    }
}
