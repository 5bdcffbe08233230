//! The workspace-wide error type.

use crate::fault::FaultReport;
use crate::{CellId, SimTime, VAddr};
use core::fmt;
use std::error::Error;

/// Convenient result alias for fallible AP1000+ operations.
pub type ApResult<T> = Result<T, ApError>;

/// Why a cell was blocked when the machine deadlocked.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum BlockReason {
    /// Waiting for a completion flag to reach `target` (stuck at `current`).
    FlagWait {
        flag: VAddr,
        current: u32,
        target: u32,
    },
    /// Arrived at an S-net barrier other cells never reached.
    Barrier,
    /// Blocking RECEIVE with no matching ring-buffer message from `src`.
    Recv { src: CellId },
    /// SEND whose send-DMA completion never fired.
    Send,
    /// B-net broadcast collective missing participants.
    Bcast,
    /// Communication-register load waiting for a p-bit that never set.
    RegLoad { reg: u16 },
    /// DSM remote load whose reply never arrived.
    RemoteLoad,
    /// Remote-store fence with stores still unacknowledged.
    RemoteFence { issued: u64, acked: u64 },
    /// A reason the kernel did not classify further.
    Other(&'static str),
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::FlagWait {
                flag,
                current,
                target,
            } => {
                write!(f, "wait_flag({flag} = {current}, want {target})")
            }
            BlockReason::Barrier => write!(f, "barrier"),
            BlockReason::Recv { src } => write!(f, "recv(from {src})"),
            BlockReason::Send => write!(f, "send"),
            BlockReason::Bcast => write!(f, "bcast"),
            BlockReason::RegLoad { reg } => write!(f, "reg_load(reg {reg})"),
            BlockReason::RemoteLoad => write!(f, "remote_load"),
            BlockReason::RemoteFence { issued, acked } => {
                write!(f, "remote_fence({acked}/{issued} acked)")
            }
            BlockReason::Other(s) => write!(f, "{s}"),
        }
    }
}

/// One blocked cell's state at deadlock detection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockedCell {
    /// Which cell.
    pub cell: CellId,
    /// What it was blocked on.
    pub reason: BlockReason,
    /// Simulated time at which it blocked.
    pub since: SimTime,
    /// Pending entries in its MSC+ transmit queues: `(queue name, depth)`,
    /// only queues with work listed.
    pub pending_tx: Vec<(&'static str, usize)>,
}

impl fmt::Display for BlockedCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} since {}", self.cell, self.reason, self.since)?;
        if !self.pending_tx.is_empty() {
            write!(f, " (pending:")?;
            for (name, depth) in &self.pending_tx {
                write!(f, " {name}={depth}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Structured diagnostics carried by [`ApError::Deadlock`]: a snapshot of
/// every still-blocked cell when the event queue drained with unfinished
/// cells.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeadlockReport {
    /// Simulated time at which deadlock was detected.
    pub now: SimTime,
    /// Cells in the machine.
    pub total_cells: u32,
    /// Cells whose programs ran to completion.
    pub finished_cells: u32,
    /// Per-cell blocked state, in cell order.
    pub blocked: Vec<BlockedCell>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} cells never finished at {} [",
            self.total_cells - self.finished_cells,
            self.total_cells,
            self.now
        )?;
        for (i, b) in self.blocked.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "]")
    }
}

/// Errors raised by the machine model and runtime.
///
/// The paper's protection story (§3.2, §4.1) is that user programs may pass
/// illegal addresses to user-level DMA, so the *hardware* must detect them:
/// a bad address raises a page fault and interrupts the program. That
/// hardware event surfaces here as [`ApError::PageFault`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ApError {
    /// MMU translation failed: the logical address is unmapped on `cell`.
    PageFault {
        /// Cell whose MMU raised the fault.
        cell: CellId,
        /// Faulting logical address.
        addr: VAddr,
    },
    /// A transfer or access would cross the end of a mapped region.
    OutOfRange {
        /// Cell on which the access was attempted.
        cell: CellId,
        /// Start of the offending access.
        addr: VAddr,
        /// Length in bytes of the offending access.
        len: u64,
    },
    /// A destination cell ID does not exist in this machine.
    NoSuchCell {
        /// The invalid ID.
        cell: CellId,
        /// Number of cells in the machine.
        ncells: usize,
    },
    /// An argument was structurally invalid (zero-size DMA, mismatched
    /// stride totals, bad group, …).
    InvalidArg(String),
    /// A hardware queue and its DRAM spill buffer were both exhausted.
    QueueExhausted {
        /// Human-readable queue name (e.g. `"user send"`).
        queue: &'static str,
    },
    /// The simulated program deadlocked: every cell is blocked and no events
    /// remain. Carries a per-cell snapshot of what each blocked cell was
    /// waiting on.
    Deadlock(Box<DeadlockReport>),
    /// A cell program panicked or exited abnormally.
    CellFailed {
        /// Which cell failed.
        cell: CellId,
        /// Panic payload or failure description.
        reason: String,
    },
    /// The S-net barrier protocol was violated: a cell arrived twice in one
    /// epoch, or a cell outside the machine arrived. Barrier entry is
    /// driven by the kernel, so this indicates a kernel or runtime bug
    /// rather than a user-program error.
    BarrierMisuse {
        /// The offending cell.
        cell: CellId,
        /// What it did wrong.
        detail: String,
    },
    /// A run completed but hardware or bookkeeping state was left behind —
    /// queued transmit entries, a busy send DMA, blocked-cell records, or
    /// unfinished transfer-latency attributions. Indicates a kernel
    /// accounting bug, never a program error.
    StateLeak {
        /// Every leak found, `;`-separated.
        detail: String,
    },
    /// An injected fault schedule proved unsurvivable: a crashed cell
    /// never finished, or a packet exhausted its retries. The report
    /// carries the full injected schedule and recovery history.
    Fault(Box<FaultReport>),
    /// A barrier can never complete because a participant is dead. Raised
    /// eagerly — at the first arrival after (or crash during) the barrier
    /// — instead of hanging until deadlock detection.
    BarrierAborted {
        /// Simulated time of the abort.
        at: SimTime,
        /// Cells already waiting at the barrier.
        waiting: Vec<CellId>,
        /// Dead cells that can never arrive.
        dead: Vec<CellId>,
    },
    /// A kernel-internal invariant broke mid-run: a hardware unit lost
    /// track of bookkeeping it must hold (an active DMA job, an
    /// outstanding fault envelope, collective state). Indicates a kernel bug, never a program error — raised
    /// as a structured error naming the cell and unit instead of
    /// panicking, so the run dies with a diagnosable report and the
    /// caller's cleanup still runs.
    Internal {
        /// Cell whose unit's bookkeeping broke, when attributable.
        cell: Option<CellId>,
        /// Hardware unit or kernel subsystem involved (`"send-dma"`,
        /// `"fault-layer"`, `"bnet"`, …).
        unit: &'static str,
        /// What was missing or inconsistent.
        detail: String,
    },
    /// A host-filesystem operation failed (writing a trace, a bench
    /// report, a flight dump, …). Always names the path so a full disk or
    /// a bad `--out` directory is diagnosable without a backtrace.
    Io {
        /// Path of the file or directory the operation touched.
        path: String,
        /// The underlying OS error, rendered.
        detail: String,
    },
}

impl ApError {
    /// Wraps an [`std::io::Error`] with the path it happened on.
    pub fn io(path: impl Into<String>, err: std::io::Error) -> ApError {
        ApError::Io {
            path: path.into(),
            detail: err.to_string(),
        }
    }

    /// Builds an [`ApError::Internal`]; pass a [`CellId`] when the broken
    /// invariant is attributable to one cell's unit, `None` otherwise.
    pub fn internal(
        cell: impl Into<Option<CellId>>,
        unit: &'static str,
        detail: impl Into<String>,
    ) -> ApError {
        ApError::Internal {
            cell: cell.into(),
            unit,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ApError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApError::PageFault { cell, addr } => {
                write!(f, "page fault on {cell} at {addr}")
            }
            ApError::OutOfRange { cell, addr, len } => {
                write!(f, "access out of range on {cell} at {addr} len {len}")
            }
            ApError::NoSuchCell { cell, ncells } => {
                write!(f, "no such cell {cell} (machine has {ncells} cells)")
            }
            ApError::InvalidArg(msg) => write!(f, "invalid argument: {msg}"),
            ApError::QueueExhausted { queue } => {
                write!(f, "{queue} queue and spill buffer exhausted")
            }
            ApError::Deadlock(report) => write!(f, "simulation deadlock: {report}"),
            ApError::CellFailed { cell, reason } => {
                write!(f, "{cell} failed: {reason}")
            }
            ApError::BarrierMisuse { cell, detail } => {
                write!(f, "S-net barrier misuse by {cell}: {detail}")
            }
            ApError::StateLeak { detail } => {
                write!(f, "state leaked past end of run: {detail}")
            }
            ApError::Fault(report) => write!(f, "fault injection: {report}"),
            ApError::BarrierAborted { at, waiting, dead } => {
                write!(f, "barrier aborted at {at}: dead participants [")?;
                for (i, c) in dead.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "], waiting [")?;
                for (i, c) in waiting.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]")
            }
            ApError::Internal { cell, unit, detail } => match cell {
                Some(c) => write!(f, "internal kernel error on {c} in {unit}: {detail}"),
                None => write!(f, "internal kernel error in {unit}: {detail}"),
            },
            ApError::Io { path, detail } => {
                write!(f, "i/o error on {path}: {detail}")
            }
        }
    }
}

impl Error for ApError {}

/// The message of a caught panic (`catch_unwind`'s or `JoinHandle::join`'s
/// error): `panic!` payloads are a `&str` or a `String`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic (non-string payload)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ApError::PageFault {
            cell: CellId::new(3),
            addr: VAddr::new(0x10),
        };
        assert_eq!(e.to_string(), "page fault on cell3 at v:0x10");
        let e = ApError::QueueExhausted { queue: "user send" };
        assert!(e.to_string().contains("user send"));
        let e = ApError::io(
            "/tmp/out/trace.evtrace",
            std::io::Error::other("no space left on device"),
        );
        let s = e.to_string();
        assert!(
            s.contains("/tmp/out/trace.evtrace") && s.contains("no space left"),
            "io error must name the path and the cause: {s}"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ApError>();
    }

    #[test]
    fn panic_message_decodes_both_payload_types() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        assert_eq!(panic_message(&*caught(|| panic!("literal"))), "literal");
        assert_eq!(
            panic_message(&*caught(|| panic!("formatted {}", 7))),
            "formatted 7"
        );
        let other = caught(|| std::panic::panic_any(7u32));
        assert_eq!(panic_message(&*other), "panic (non-string payload)");
    }
}
