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

/// Declares [`EvName`]: one variant per event name, with its string.
macro_rules! ev_names {
    ($($variant:ident = $name:literal,)*) => {
        /// What an event is: the closed vocabulary every emitter (the
        /// kernel, MLSim, `apnet` and the fault layer) names its events
        /// from. One byte in a [`TimelineEvent`]; [`EvName::as_str`] is
        /// what exports, reports and `.evtrace` string tables spell.
        ///
        /// The variants are declared in the lexicographic order of their
        /// strings, so ordering by `EvName` (a sort, a `BTreeMap` key)
        /// orders by name.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum EvName {
            $($variant,)*
        }

        impl EvName {
            /// Every name, in declaration (= string) order.
            pub const ALL: [EvName; [$($name),*].len()] = [$(EvName::$variant),*];

            /// The name as exports, reports and trace files spell it.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(EvName::$variant => $name,)*
                }
            }
        }
    };
}

ev_names! {
    Barrier = "barrier",
    Bcast = "bcast",
    CorruptDrop = "corrupt_drop",
    Crash = "crash",
    Deliver = "deliver",
    Dequeue = "dequeue",
    Detour = "detour",
    Drop = "drop",
    DupSuppressed = "dup_suppressed",
    Enqueue = "enqueue",
    FlagCheck = "flag_check",
    FlagUpdate = "flag_update",
    GetIssue = "get_issue",
    Hop = "hop",
    PutIssue = "put_issue",
    QueueRefill = "queue_refill",
    RecvCopy = "recv_copy",
    RecvDma = "recv_dma",
    RecvIntr = "recv_intr",
    RecvWait = "recv_wait",
    RegLoad = "reg_load",
    RegLoadWait = "reg_load_wait",
    RegStore = "reg_store",
    RemoteFence = "remote_fence",
    RemoteLoad = "remote_load",
    RemoteStore = "remote_store",
    Retry = "retry",
    RingOverflow = "ring_overflow",
    Rts = "rts",
    SendCall = "send_call",
    SendDma = "send_dma",
    SendWait = "send_wait",
    Spill = "spill",
    Transfer = "transfer",
    WaitFlag = "wait_flag",
    Work = "work",
}

impl EvName {
    /// The variant spelled `name`, if the vocabulary has one.
    pub fn parse(name: &str) -> Option<EvName> {
        let at = EvName::ALL.binary_search_by(|n| n.as_str().cmp(name));
        at.ok().map(|i| EvName::ALL[i])
    }
}

impl std::fmt::Display for EvName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// Debug-prints as the quoted string, as the `&'static str` name did, so
/// a `{:?}` of an event (which the protocol pins hash) reads the same.
impl std::fmt::Debug for EvName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimelineEvent {
    /// The cell the event belongs to.
    pub cell: u32,
    /// The hardware unit within the cell.
    pub unit: Unit,
    /// What happened, from the closed [`EvName`] vocabulary.
    pub name: EvName,
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

// A recording holds one of these per event (a CG-256 run decodes to
// ~590k), so its size is the host memory a decoded recording costs.
const _: () = assert!(std::mem::size_of::<TimelineEvent>() <= 48);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_declared_in_string_order() {
        for (i, name) in EvName::ALL.into_iter().enumerate() {
            assert_eq!(EvName::parse(name.as_str()), Some(name));
            assert_eq!(name.to_string(), name.as_str());
            assert_eq!(format!("{name:?}"), format!("{:?}", name.as_str()));
            if let Some(next) = EvName::ALL.get(i + 1) {
                assert!(name.as_str() < next.as_str(), "{name} before {next}");
                assert!(name < *next, "{name:?} orders before {next:?}");
            }
        }
        for unknown in ["", "Work", "work ", "hops", "tnet_msg"] {
            assert_eq!(EvName::parse(unknown), None, "{unknown:?}");
        }
        assert_eq!(std::mem::size_of::<EvName>(), 1);
    }
}
