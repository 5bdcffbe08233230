//! What a `.evtrace` file is made of: its constants, its error type and
//! the document it decodes to.

use crate::op::Trace;
use apobs::TimelineEvent;
use std::fmt;
use std::sync::Arc;

/// File magic: seven ASCII bytes followed by the one-byte format version.
pub const MAGIC: [u8; 7] = *b"APEVTRC";
/// The one format version this library reads and writes.
pub const VERSION: u8 = 2;

/// Section tags. Every section starts with one of these bytes.
pub(super) const SEC_HEADER: u8 = b'H';
pub(super) const SEC_EVENTS: u8 = b'E';
pub(super) const SEC_OPS: u8 = b'O';
pub(super) const SEC_COUNTERS: u8 = b'C';
pub(super) const SEC_FAULT: u8 = b'F';
pub(super) const SEC_INDEX: u8 = b'X';
pub(super) const SEC_SUMMARY: u8 = b'S';
pub(super) const SEC_END: u8 = b'Z';

/// v2 footer: 8 LE bytes holding the [`SEC_INDEX`] tag's file offset,
/// then these four magic bytes. Fixed-width (the only non-varint encoding
/// in the format) so a seeking reader can find it from the file length.
pub(super) const TRAILER_MAGIC: [u8; 4] = *b"XIDX";
/// Total footer length after the end marker.
pub(super) const TRAILER_LEN: usize = 12;

/// A v2 writer closes the open `"live"` section and reopens it after this
/// many events, bounding how much a seeking reader must decode per
/// section (a 1024-cell paper run is ~3.6M events, so a handful of
/// sections).
pub(super) const ROTATE_EVENTS: u64 = 1 << 20;

/// Event flags byte: unit in bits 0–2, bucket in bits 3–5, duration
/// present in bit 6, tid present in bit 7. `0xFF` would need unit index 7
/// (there are only 5), so it is reserved as the end-of-section marker.
pub(super) const EVENTS_DONE: u8 = 0xFF;

/// A structured decode/encode failure. Never a panic: hostile bytes at
/// worst earn a [`EvError::Corrupt`] naming the offset.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvError {
    /// The file does not start with `APEVTRC`.
    BadMagic,
    /// The file's format version is not the one this reader supports
    /// (newer, or older than the oldest supported version).
    Version {
        /// Version byte found in the file.
        found: u8,
        /// The version this library supports.
        supported: u8,
    },
    /// The input ended mid-structure (a partial download, a full disk, a
    /// crashed recorder).
    Truncated {
        /// Byte offset at which input ran out.
        at: usize,
        /// What the decoder was reading.
        what: String,
    },
    /// The input is structurally invalid (bad tag, overlong varint,
    /// invalid UTF-8, out-of-range index, …).
    Corrupt {
        /// Byte offset of the offending structure.
        at: usize,
        /// What is wrong with it.
        what: String,
    },
    /// Well-formed trace followed by extra bytes.
    TrailingGarbage {
        /// Offset of the first byte past the end marker.
        at: usize,
        /// How many garbage bytes follow.
        extra: usize,
    },
    /// An underlying file operation failed.
    Io {
        /// Path involved.
        path: String,
        /// Rendered OS error.
        detail: String,
    },
}

impl fmt::Display for EvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvError::BadMagic => write!(f, "not an evtrace file (bad magic)"),
            EvError::Version { found, supported } if found > supported => write!(
                f,
                "evtrace version {found} is newer than supported version {supported}"
            ),
            EvError::Version { found, supported } => write!(
                f,
                "evtrace version {found} is older than the oldest supported version {supported}"
            ),
            EvError::Truncated { at, what } => write!(
                f,
                "truncated evtrace: input ended at byte {at} while reading {what}"
            ),
            EvError::Corrupt { at, what } => write!(f, "corrupt evtrace at byte {at}: {what}"),
            EvError::TrailingGarbage { at, extra } => write!(
                f,
                "{extra} trailing garbage byte(s) after evtrace end marker at byte {at}"
            ),
            EvError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
        }
    }
}

impl std::error::Error for EvError {}

/// Header section: what machine and workload the trace records.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EvHeader {
    /// Cells in the recorded machine.
    pub ncells: u32,
    /// Workload name (`"CG"`, `"FT"`, …; empty if unknown).
    pub app: String,
    /// Problem scale label (`"test"` / `"paper"`; empty if unknown).
    pub scale: String,
}

impl EvHeader {
    /// Convenience constructor.
    pub fn new(ncells: u32, app: &str, scale: &str) -> Self {
        EvHeader {
            ncells,
            app: app.to_string(),
            scale: scale.to_string(),
        }
    }
}

/// One recorded event stream (`"emulator"`, `"live"`, …).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EvStream {
    /// Stream label.
    pub label: String,
    /// Events in recorded order. Shared, so a replay walks them where
    /// the document holds them instead of copying them.
    pub events: Arc<Vec<TimelineEvent>>,
}

/// Sampled gauge series from the always-on telemetry layer.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CounterTicks {
    /// Sim-time nanoseconds between ticks.
    pub interval_ns: u64,
    /// `(series name, one value per tick)`; all series the same length.
    pub series: Vec<(String, Vec<u64>)>,
}

/// Trailer written when recording finished cleanly; its absence marks a
/// truncated file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EvSummary {
    /// Final simulated time of the recorded run.
    pub total_ns: u64,
    /// Total events across all event sections.
    pub events: u64,
}

/// One entry of the v2 seek index: where an events section lives and
/// what span of sim-time it covers. Offsets point at the section's
/// [`SEC_EVENTS`] tag byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EvIndexEntry {
    /// File offset of the section's tag byte.
    pub offset: u64,
    /// Events in the section.
    pub events: u64,
    /// Smallest event start timestamp in the section (0 if empty).
    pub first_ns: u64,
    /// Largest event start timestamp in the section (0 if empty).
    pub last_ns: u64,
}

impl EvIndexEntry {
    /// Counts one more event, starting at `start_ns`, into the section.
    /// The writer and both readers build entries through this, so what the
    /// index says about a section has one definition.
    pub(super) fn count(&mut self, start_ns: u64) {
        self.first_ns = if self.events == 0 {
            start_ns
        } else {
            self.first_ns.min(start_ns)
        };
        self.last_ns = self.last_ns.max(start_ns);
        self.events += 1;
    }
}

/// A fully decoded `.evtrace` document.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct EvTrace {
    /// Machine/workload header.
    pub header: EvHeader,
    /// Event stream sections, in file order.
    pub streams: Vec<EvStream>,
    /// The probe-op trace, when recorded (what `mlsim` replays).
    pub ops: Option<Trace>,
    /// Sampled counter series, when telemetry was on.
    pub counters: Option<CounterTicks>,
    /// RON text of the injected fault schedule, when the run was faulted.
    pub fault_ron: Option<String>,
    /// Clean-finish trailer.
    pub summary: EvSummary,
}

impl EvTrace {
    /// All events across every stream, concatenated in file order.
    pub fn all_events(&self) -> Vec<TimelineEvent> {
        let mut out = Vec::with_capacity(self.streams.iter().map(|s| s.events.len()).sum());
        for s in &self.streams {
            out.extend_from_slice(&s.events);
        }
        out
    }
}
