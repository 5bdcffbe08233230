//! The fuzzer's program model.
//!
//! A [`FuzzProgram`] is a machine-size plus a list of *rounds*, each a
//! list of [`Action`]s. Every action is self-contained (explicit cells,
//! sizes, offsets), so removing actions during shrinking leaves the rest
//! meaningful; everything position-dependent (destination slots, flag
//! targets, waits, barriers) is synthesized by the [`crate::plan`] module
//! when the program is executed, which keeps every shrunk candidate
//! deadlock-free *by construction*.

/// How a PUT/GET describes its two sides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrideMode {
    /// Both sides contiguous — issued through `Cell::put`/`Cell::get`,
    /// which chunk at the 4 MB DMA limit.
    Contig,
    /// Both sides use the same `(item, count, skip)` stride.
    Stride,
    /// Sender strided, receiver contiguous (Figure-3 re-blocking).
    SendStride,
    /// Sender contiguous, receiver strided.
    RecvStride,
}

/// One operation of one round. Cell indices are taken modulo the machine
/// size and byte offsets modulo the relevant window, so any field values
/// describe *some* valid program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// One-sided write from `src`'s pattern area into a fresh slot on
    /// `dst`. `flag_send`/`flag_recv` pick a completion-flag slot
    /// (negative = no flag).
    Put {
        src: u32,
        dst: u32,
        src_off: u32,
        item: u32,
        count: u32,
        extra: u32,
        mode: StrideMode,
        flag_send: i8,
        flag_recv: i8,
        ack: bool,
    },
    /// One-sided read by `reader` from `owner`'s pattern area.
    Get {
        owner: u32,
        reader: u32,
        src_off: u32,
        item: u32,
        count: u32,
        extra: u32,
        mode: StrideMode,
        flag_send: i8,
        flag_recv: i8,
    },
    /// Blocking ring-buffer SEND matched by a RECEIVE on `dst` in the
    /// same round.
    Send {
        src: u32,
        dst: u32,
        src_off: u32,
        bytes: u32,
    },
    /// Collective B-net broadcast of a seeded payload from `root`.
    Bcast { root: u32, bytes: u32 },
    /// DSM remote store of `bytes` seeded bytes into `owner`'s shared
    /// window (offset allocated by the plan), fenced at round end.
    RStore {
        src: u32,
        owner: u32,
        bytes: u32,
        pattern: u32,
    },
    /// Blocking DSM remote load from `owner`'s shared window. Suppressed
    /// by the plan when it would overlap a same-round store (the outcome
    /// of that race is timing-dependent by design).
    RLoad {
        reader: u32,
        owner: u32,
        off: u32,
        bytes: u32,
    },
    /// Pure computation on one cell.
    Work { cell: u32, flops: u32 },
    /// Hostile: a zero-length PUT, which issue-time validation must
    /// reject with a structured error.
    BadPutEmpty { src: u32, dst: u32 },
    /// Hostile: a hand-built overlapping stride (`skip < item_size`),
    /// which validation must reject.
    BadPutOverlap { src: u32, dst: u32 },
    /// Hostile: send/recv strides describing different byte totals.
    BadGetMismatch { reader: u32, owner: u32 },
}

/// A complete fuzz case.
#[derive(Clone, PartialEq, Debug)]
pub struct FuzzProgram {
    /// Seed that generated this program; also seeds the memory patterns.
    pub seed: u64,
    /// Machine size.
    pub ncells: u32,
    /// Bytes of fuzzed memory per cell: first half read-only pattern
    /// area, second half destination slots.
    pub region: u64,
    /// Expected failure: `Some(substring)` means the run must abort with
    /// an error whose rendering contains the substring; `None` means the
    /// run must complete and satisfy every invariant.
    pub expect_error: Option<String>,
    /// The rounds, each separated by synthesized waits and a barrier.
    pub rounds: Vec<Vec<Action>>,
}

impl FuzzProgram {
    /// Total number of actions across all rounds.
    pub fn total_actions(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}
