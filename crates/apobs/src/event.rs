//! The shared event vocabulary: one flat record type for everything the
//! emulator, the hardware models, and MLSim replay emit, so timelines from
//! different sources are directly comparable.

use aputil::SimTime;

/// Which hardware unit of a cell an event belongs to. Each `(cell, unit)`
/// pair becomes one track in the exported Chrome trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Unit {
    /// The cell CPU: computation, RTS work, library overhead, idle waits.
    Cpu,
    /// The MSC+ send DMA engine.
    SendDma,
    /// The MSC+ receive DMA engine.
    RecvDma,
    /// The MSC+ command queues (enqueue/dequeue/spill instants).
    Queue,
    /// The T-net interface (injections, hops).
    Net,
}

impl Unit {
    pub const ALL: [Unit; 5] = [
        Unit::Cpu,
        Unit::SendDma,
        Unit::RecvDma,
        Unit::Queue,
        Unit::Net,
    ];

    /// Stable per-cell track index.
    pub fn index(self) -> u32 {
        match self {
            Unit::Cpu => 0,
            Unit::SendDma => 1,
            Unit::RecvDma => 2,
            Unit::Queue => 3,
            Unit::Net => 4,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Unit::Cpu => "cpu",
            Unit::SendDma => "send-dma",
            Unit::RecvDma => "recv-dma",
            Unit::Queue => "msc-queue",
            Unit::Net => "t-net",
        }
    }
}

/// Figure-8 time bucket an event is charged to (plus `Hw` for activity on
/// hardware engines that does not occupy the CPU).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Bucket {
    /// User computation.
    Exec,
    /// Run-time-system work (VPP Fortran address arithmetic etc.).
    Rts,
    /// Communication-library CPU overhead.
    Overhead,
    /// Blocked time (flags, barriers, receives, reductions).
    Idle,
    /// Hardware-engine activity off the CPU (DMA, network).
    Hw,
}

impl Bucket {
    pub const ALL: [Bucket; 5] = [
        Bucket::Exec,
        Bucket::Rts,
        Bucket::Overhead,
        Bucket::Idle,
        Bucket::Hw,
    ];

    /// Stable index (the binary trace codec packs it into a flags byte).
    pub fn index(self) -> u32 {
        match self {
            Bucket::Exec => 0,
            Bucket::Rts => 1,
            Bucket::Overhead => 2,
            Bucket::Idle => 3,
            Bucket::Hw => 4,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Bucket::Exec => "exec",
            Bucket::Rts => "rts",
            Bucket::Overhead => "overhead",
            Bucket::Idle => "idle",
            Bucket::Hw => "hw",
        }
    }

    /// Reserved `chrome://tracing` color name giving the Figure-8 palette:
    /// running green for exec, light green for RTS, orange for overhead,
    /// grey for idle.
    pub fn chrome_color(self) -> &'static str {
        match self {
            Bucket::Exec => "thread_state_running",
            Bucket::Rts => "thread_state_runnable",
            Bucket::Overhead => "thread_state_iowait",
            Bucket::Idle => "thread_state_sleeping",
            Bucket::Hw => "rail_animation",
        }
    }
}

/// One cell's (or MLSim PE's) time split into the four Figure-8 buckets
/// (§5.2): **execution**, **run-time system**, communication-library
/// **overhead**, and **idle** — plus when its program finished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketTimes {
    /// User computation time.
    pub exec: SimTime,
    /// Run-time-system time (address calculation, stride discovery, …).
    pub rts: SimTime,
    /// Communication-library / interrupt CPU overhead (issue costs,
    /// copies, checks).
    pub overhead: SimTime,
    /// Time spent blocked (flag waits, receives, barriers, reductions).
    pub idle: SimTime,
    /// Time the cell finished its program.
    pub finish: SimTime,
}

impl BucketTimes {
    /// Bills `t` to `bucket`. `Hw` time is off the CPU and belongs to no
    /// Figure-8 bucket.
    #[inline]
    pub fn charge(&mut self, bucket: Bucket, t: SimTime) {
        match bucket {
            Bucket::Exec => self.exec += t,
            Bucket::Rts => self.rts += t,
            Bucket::Overhead => self.overhead += t,
            Bucket::Idle => self.idle += t,
            Bucket::Hw => {}
        }
    }

    /// Sum of the accounted buckets (≤ `finish`; untracked gaps are times
    /// when the CPU was free between events).
    pub fn accounted(&self) -> SimTime {
        self.exec + self.rts + self.overhead + self.idle
    }
}

/// One sim-time-stamped structured event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimelineEvent {
    /// The cell the event belongs to.
    pub cell: u32,
    /// The hardware unit within the cell.
    pub unit: Unit,
    /// Event name (a small fixed vocabulary: `work`, `rts`, `put_issue`,
    /// `wait_flag`, `barrier`, `send_dma`, `recv_dma`, `enqueue`,
    /// `queue_spill`, `tnet_msg`, `hop`, …).
    pub name: &'static str,
    /// Start time.
    pub start: SimTime,
    /// Duration; `None` marks an instant event.
    pub dur: Option<SimTime>,
    /// Figure-8 bucket (drives trace coloring).
    pub bucket: Bucket,
    /// Free payload: bytes moved, flag value reached, queue depth, hop
    /// number — whatever quantifies the event.
    pub arg: u64,
    /// Causality id: all events belonging to one logical transfer chain
    /// (a PUT's issue→enqueue→DMA→injection→delivery→flag update, a GET's
    /// request and reply legs, …) share one nonzero `tid`. On an
    /// [`Bucket::Idle`] span a nonzero `tid` instead names the transfer
    /// whose completion *released* the wait — the dependency edge the
    /// critical-path walk follows. `0` means "no chain affiliation".
    pub tid: u64,
}

impl TimelineEvent {
    /// End time (= start for instants).
    pub fn end(&self) -> SimTime {
        self.start + self.dur.unwrap_or(SimTime::ZERO)
    }
}
