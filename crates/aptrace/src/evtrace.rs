//! The `ap1000plus.evtrace` compact binary trace store (format v2).
//!
//! Chrome-trace JSON (`apobs::chrome_trace`) is the right interchange
//! format for small machines, but at the 1024-cell paper scale a timeline
//! runs to millions of events and the textual form is an order of
//! magnitude larger than the information it carries. This module defines
//! the binary on-disk format the record/replay subsystem stores runs in:
//!
//! * a **magic + version** prefix so stale readers fail loudly,
//! * a **header** section naming the machine size and workload,
//! * any number of **event stream** sections holding delta/varint-encoded
//!   [`TimelineEvent`]s with an on-the-fly string table for names,
//! * an optional **ops** section with the binary-encoded probe
//!   [`Trace`] (what MLSim replays),
//! * an optional **counter ticks** section with delta-encoded sampled
//!   gauge series,
//! * an optional **fault** section carrying the injected schedule as RON
//!   text (so a recorded faulted run is self-contained),
//! * a mandatory **index** section (v2) listing every events section's
//!   byte offset, event count, and sim-time range,
//! * a mandatory **summary + end** trailer, whose absence is how a
//!   truncated file is detected, followed (v2) by a fixed 12-byte footer
//!   — the index section's offset as 8 LE bytes plus `XIDX` — so a
//!   seeking reader can jump straight to the index without scanning.
//!
//! v2 additionally resets the event-name string table at each events
//! section, making every section self-contained: [`EvTrace::decode_at`]
//! uses the footer index to decode only the sections that can contain
//! events at or before a seek time, skipping the rest of the file (and
//! the whole ops section) entirely. v1 files (no footer, file-global
//! string table) are refused with [`EvError::Version`].
//!
//! Everything multi-byte is LEB128 varint (or zigzag svarint where deltas
//! go negative); there is no padding and no endianness to get wrong. The
//! full field-by-field wire format is specified in `DESIGN.md` §9.
//!
//! [`StreamWriter`] encodes incrementally against an [`std::io::Write`]
//! and implements [`apobs::EventSink`], so a machine of any size streams
//! its events straight to disk, in engine order, without ever
//! materializing the timeline ([`apobs::TimelineMode::Stream`]) — how
//! every recording is written. Decoding is strict: every
//! length is validated against the remaining input, unknown tags and
//! malformed UTF-8 are structured [`EvError`]s, and no input — truncated,
//! bit-flipped, or hostile — panics the reader.
//!
//! # Examples
//!
//! ```
//! use aptrace::evtrace::{EvHeader, EvTrace, StreamWriter};
//! use apobs::{Bucket, TimelineEvent, Unit};
//! use aputil::SimTime;
//!
//! let ev = TimelineEvent {
//!     cell: 3,
//!     unit: Unit::Cpu,
//!     name: "work",
//!     start: SimTime::from_nanos(100),
//!     dur: Some(SimTime::from_nanos(40)),
//!     bucket: Bucket::Exec,
//!     arg: 7,
//!     tid: 0,
//! };
//! let mut buf = Vec::new();
//! let mut w = StreamWriter::new(&mut buf, "<mem>", &EvHeader::new(4, "demo", "test"));
//! w.write_events("emulator", std::slice::from_ref(&ev));
//! w.finish(140).unwrap();
//! let t = EvTrace::decode(&buf).unwrap();
//! assert_eq!(t.streams[0].events, vec![ev]);
//! assert_eq!(t.summary.total_ns, 140);
//! ```

use crate::op::{Op, PeTrace, Trace};
use apobs::{Bucket, TimelineEvent, Unit};
use aputil::{CellId, SimTime};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{Read, Write};
use std::sync::{Mutex, OnceLock};

/// File magic: seven ASCII bytes followed by the one-byte format version.
pub const MAGIC: [u8; 7] = *b"APEVTRC";
/// The one format version this library reads and writes.
pub const VERSION: u8 = 2;

/// Section tags. Every section starts with one of these bytes.
const SEC_HEADER: u8 = b'H';
const SEC_EVENTS: u8 = b'E';
const SEC_OPS: u8 = b'O';
const SEC_COUNTERS: u8 = b'C';
const SEC_FAULT: u8 = b'F';
const SEC_INDEX: u8 = b'X';
const SEC_SUMMARY: u8 = b'S';
const SEC_END: u8 = b'Z';

/// v2 footer: 8 LE bytes holding the [`SEC_INDEX`] tag's file offset,
/// then these four magic bytes. Fixed-width (the only non-varint encoding
/// in the format) so a seeking reader can find it from the file length.
const TRAILER_MAGIC: [u8; 4] = *b"XIDX";
/// Total footer length after the end marker.
const TRAILER_LEN: usize = 12;

/// A v2 writer closes the open `"live"` section and reopens it after this
/// many events, bounding how much a seeking reader must decode per
/// section (a 1024-cell paper run is ~3.6M events, so a handful of
/// sections).
const ROTATE_EVENTS: u64 = 1 << 20;

/// Event flags byte: unit in bits 0–2, bucket in bits 3–5, duration
/// present in bit 6, tid present in bit 7. `0xFF` would need unit index 7
/// (there are only 5), so it is reserved as the end-of-section marker.
const EVENTS_DONE: u8 = 0xFF;

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
            EvError::Truncated { at, what } => {
                write!(
                    f,
                    "truncated evtrace: input ended at byte {at} while reading {what}"
                )
            }
            EvError::Corrupt { at, what } => {
                write!(f, "corrupt evtrace at byte {at}: {what}")
            }
            EvError::TrailingGarbage { at, extra } => {
                write!(
                    f,
                    "{extra} trailing garbage byte(s) after evtrace end marker at byte {at}"
                )
            }
            EvError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
        }
    }
}

impl std::error::Error for EvError {}

// ---------------------------------------------------------------------------
// Primitives: LEB128 varints, zigzag svarints, length-prefixed strings.
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_svarint(out: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes of either sign stay small.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over the input with offset-carrying structured errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn truncated(&self, what: &str) -> EvError {
        EvError::Truncated {
            at: self.pos,
            what: what.to_string(),
        }
    }

    fn corrupt(&self, what: impl Into<String>) -> EvError {
        EvError::Corrupt {
            at: self.pos,
            what: what.into(),
        }
    }

    fn byte(&mut self, what: &str) -> Result<u8, EvError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self, what: &str) -> Result<u64, EvError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte(what)?;
            if shift == 63 && b > 1 {
                return Err(self.corrupt(format!("varint overflow reading {what}")));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.corrupt(format!("overlong varint reading {what}")));
            }
        }
    }

    fn svarint(&mut self, what: &str) -> Result<i64, EvError> {
        let z = self.varint(what)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn string(&mut self, what: &str) -> Result<String, EvError> {
        let len = self.varint(what)? as usize;
        if len > self.remaining() {
            return Err(self.truncated(what));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|_| self.corrupt(format!("invalid UTF-8 in {what}")))?
            .to_string();
        self.pos += len;
        Ok(s)
    }

    /// Guarded capacity hint: never pre-reserve more than what could
    /// plausibly fit in the remaining input, so a corrupted count cannot
    /// trigger an unbounded allocation.
    fn cap_hint(&self, claimed: u64) -> usize {
        (claimed as usize).min(self.remaining()).min(1 << 16)
    }
}

// ---------------------------------------------------------------------------
// Event-name interning: decoded names become &'static str. The vocabulary
// is the small fixed set of kernel/model event names, so leaking is
// bounded and each distinct name leaks once per process.
// ---------------------------------------------------------------------------

fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(&known) = pool.get(s) {
        return known;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Decoded document model.
// ---------------------------------------------------------------------------

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
    /// Events in recorded order.
    pub events: Vec<TimelineEvent>,
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
            out.extend(s.events.iter().cloned());
        }
        out
    }

    /// Decodes a complete in-memory document, rejecting truncation and
    /// trailing garbage. The file must carry a valid seek index whose
    /// entries agree with the events sections actually decoded.
    pub fn decode(bytes: &[u8]) -> Result<EvTrace, EvError> {
        check_magic(bytes)?;
        let mut r = Reader::new(bytes);
        r.pos = MAGIC.len() + 1;
        let mut doc = EvTrace::default();
        let mut saw_header = false;
        let mut saw_summary = false;
        // Integrity: the index section's claims are checked against the
        // sections the decoder actually walked.
        let mut index: Option<(usize, Vec<EvIndexEntry>)> = None;
        let mut walked: Vec<EvIndexEntry> = Vec::new();
        loop {
            let at = r.pos;
            let tag = r.byte("section tag")?;
            match tag {
                SEC_HEADER => {
                    doc.header = decode_header(&mut r, at)?;
                    saw_header = true;
                }
                SEC_EVENTS => {
                    let label = r.string("event stream label")?;
                    let events = decode_events(&mut r)?;
                    walked.push(section_entry(at as u64, &events));
                    doc.streams.push(EvStream { label, events });
                }
                SEC_OPS => {
                    doc.ops = Some(decode_ops(&mut r)?);
                }
                SEC_COUNTERS => {
                    doc.counters = Some(decode_counters(&mut r)?);
                }
                SEC_FAULT => {
                    doc.fault_ron = Some(r.string("fault schedule RON")?);
                }
                SEC_INDEX => {
                    index = Some((at, decode_index(&mut r)?));
                }
                SEC_SUMMARY => {
                    doc.summary = EvSummary {
                        total_ns: r.varint("summary total_ns")?,
                        events: r.varint("summary event count")?,
                    };
                    saw_summary = true;
                }
                SEC_END => {
                    if !saw_header {
                        return Err(EvError::Corrupt {
                            at,
                            what: "end marker before any header section".to_string(),
                        });
                    }
                    if !saw_summary {
                        return Err(EvError::Corrupt {
                            at,
                            what: "end marker without a summary trailer (recording died mid-run?)"
                                .to_string(),
                        });
                    }
                    let Some((index_at, entries)) = index else {
                        return Err(EvError::Corrupt {
                            at,
                            what: "file without a seek index section".to_string(),
                        });
                    };
                    if r.remaining() < TRAILER_LEN {
                        return Err(r.truncated("index footer"));
                    }
                    check_trailer(&bytes[r.pos..r.pos + TRAILER_LEN], r.pos, index_at)?;
                    if r.remaining() > TRAILER_LEN {
                        return Err(EvError::TrailingGarbage {
                            at: r.pos + TRAILER_LEN,
                            extra: r.remaining() - TRAILER_LEN,
                        });
                    }
                    if entries != walked {
                        return Err(EvError::Corrupt {
                            at: index_at,
                            what: format!(
                                "seek index disagrees with events sections \
                                 (index {entries:?}, decoded {walked:?})"
                            ),
                        });
                    }
                    let counted: u64 = doc.streams.iter().map(|s| s.events.len() as u64).sum();
                    if counted != doc.summary.events {
                        return Err(EvError::Corrupt {
                            at,
                            what: format!(
                                "summary declares {} events but sections hold {counted}",
                                doc.summary.events
                            ),
                        });
                    }
                    return Ok(doc);
                }
                other => {
                    return Err(EvError::Corrupt {
                        at,
                        what: format!("unknown section tag {other:#04x}"),
                    });
                }
            }
        }
    }

    /// Decodes only what a time-travel seek to `at_ns` needs: the
    /// header, the summary, and the events sections whose earliest
    /// timestamp is ≤ `at_ns` — located through the v2 footer index
    /// without scanning the file (the ops/counters/fault sections are
    /// skipped entirely). An event starting after `at_ns` cannot be
    /// in flight at it, so state reconstruction over the partial
    /// document matches the full decode. Every decoded section must
    /// match its whole index entry; a skipped section's entry is taken
    /// on trust (checking it is decoding it), which [`EvTrace::decode`]
    /// does not do.
    pub fn decode_at(bytes: &[u8], at_ns: u64) -> Result<EvTrace, EvError> {
        let (entries, summary) = read_footer(bytes)?;
        let mut doc = EvTrace {
            summary,
            ..EvTrace::default()
        };
        // The header is always the first section.
        let mut r = Reader::new(bytes);
        r.pos = MAGIC.len() + 1;
        let at = r.pos;
        if r.byte("section tag")? != SEC_HEADER {
            return Err(EvError::Corrupt {
                at,
                what: "first section is not the header".to_string(),
            });
        }
        doc.header = decode_header(&mut r, at)?;
        for e in entries
            .iter()
            .filter(|e| e.events > 0 && e.first_ns <= at_ns)
        {
            let pos = usize::try_from(e.offset)
                .ok()
                .filter(|&p| p < bytes.len())
                .ok_or(EvError::Corrupt {
                    at: bytes.len(),
                    what: format!("seek index offset {} outside the file", e.offset),
                })?;
            let mut r = Reader::new(bytes);
            r.pos = pos;
            if r.byte("indexed events section")? != SEC_EVENTS {
                return Err(EvError::Corrupt {
                    at: pos,
                    what: format!("seek index offset {pos} is not an events section"),
                });
            }
            let label = r.string("event stream label")?;
            let events = decode_events(&mut r)?;
            let walked = section_entry(e.offset, &events);
            if walked != *e {
                return Err(EvError::Corrupt {
                    at: pos,
                    what: format!("seek index promises {e:?}, section holds {walked:?}"),
                });
            }
            doc.streams.push(EvStream { label, events });
        }
        Ok(doc)
    }

    /// Reads and decodes a file.
    pub fn read_file(path: &std::path::Path) -> Result<EvTrace, EvError> {
        EvTrace::decode(&read_bytes(path)?)
    }

    /// Reads a file through the seek fast path (see
    /// [`EvTrace::decode_at`]).
    pub fn read_file_at(path: &std::path::Path, at_ns: u64) -> Result<EvTrace, EvError> {
        EvTrace::decode_at(&read_bytes(path)?, at_ns)
    }
}

fn read_bytes(path: &std::path::Path) -> Result<Vec<u8>, EvError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| EvError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
    Ok(bytes)
}

/// Validates the magic prefix and the format version byte.
fn check_magic(bytes: &[u8]) -> Result<(), EvError> {
    if bytes.len() < MAGIC.len() + 1 {
        return Err(if bytes.starts_with(&MAGIC[..bytes.len().min(7)]) {
            EvError::Truncated {
                at: bytes.len(),
                what: "magic".to_string(),
            }
        } else {
            EvError::BadMagic
        });
    }
    if bytes[..7] != MAGIC {
        return Err(EvError::BadMagic);
    }
    if bytes[7] != VERSION {
        return Err(EvError::Version {
            found: bytes[7],
            supported: VERSION,
        });
    }
    Ok(())
}

fn decode_header(r: &mut Reader<'_>, at: usize) -> Result<EvHeader, EvError> {
    let ncells = r.varint("header ncells")?;
    let ncells = u32::try_from(ncells).map_err(|_| EvError::Corrupt {
        at,
        what: format!("header ncells {ncells} out of range"),
    })?;
    let app = r.string("header app name")?;
    let scale = r.string("header scale label")?;
    let reserved = r.varint("header reserved flags")?;
    if reserved != 0 {
        return Err(EvError::Corrupt {
            at,
            what: format!("reserved header flags {reserved:#x} set"),
        });
    }
    Ok(EvHeader { ncells, app, scale })
}

/// What the seek index should say about a decoded events section.
fn section_entry(offset: u64, events: &[TimelineEvent]) -> EvIndexEntry {
    EvIndexEntry {
        offset,
        events: events.len() as u64,
        first_ns: events.iter().map(|e| e.start.as_nanos()).min().unwrap_or(0),
        last_ns: events.iter().map(|e| e.start.as_nanos()).max().unwrap_or(0),
    }
}

fn decode_index(r: &mut Reader<'_>) -> Result<Vec<EvIndexEntry>, EvError> {
    let n = r.varint("index entry count")?;
    let mut entries: Vec<EvIndexEntry> = Vec::with_capacity(r.cap_hint(n));
    let mut prev = 0u64;
    for _ in 0..n {
        let offset = r.varint("index section offset")?;
        if offset <= prev {
            return Err(r.corrupt(format!(
                "index offsets not strictly increasing ({offset} after {prev})"
            )));
        }
        prev = offset;
        let entry = EvIndexEntry {
            offset,
            events: r.varint("index event count")?,
            first_ns: r.varint("index first timestamp")?,
            last_ns: r.varint("index last timestamp")?,
        };
        if entry.first_ns > entry.last_ns {
            return Err(r.corrupt(format!("index time range runs backwards ({entry:?})")));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// Validates the 12-byte footer at `pos` against the known index offset.
fn check_trailer(trailer: &[u8], pos: usize, index_at: usize) -> Result<(), EvError> {
    if trailer[8..12] != TRAILER_MAGIC {
        return Err(EvError::Corrupt {
            at: pos + 8,
            what: "index footer magic is not XIDX".to_string(),
        });
    }
    let off = u64::from_le_bytes(trailer[..8].try_into().expect("8-byte slice"));
    if off != index_at as u64 {
        return Err(EvError::Corrupt {
            at: pos,
            what: format!("index footer points at byte {off} but the index is at {index_at}"),
        });
    }
    Ok(())
}

/// Parses the v2 footer and seek index without touching the rest of the
/// file: trailer → index section → summary → end marker.
fn read_footer(bytes: &[u8]) -> Result<(Vec<EvIndexEntry>, EvSummary), EvError> {
    check_magic(bytes)?;
    if bytes.len() < MAGIC.len() + 1 + TRAILER_LEN {
        return Err(EvError::Truncated {
            at: bytes.len(),
            what: "index footer".to_string(),
        });
    }
    let tpos = bytes.len() - TRAILER_LEN;
    let trailer = &bytes[tpos..];
    if trailer[8..12] != TRAILER_MAGIC {
        return Err(EvError::Corrupt {
            at: tpos + 8,
            what: "index footer magic is not XIDX".to_string(),
        });
    }
    let off = u64::from_le_bytes(trailer[..8].try_into().expect("8-byte slice"));
    let pos = usize::try_from(off)
        .ok()
        .filter(|&p| p < tpos)
        .ok_or(EvError::Corrupt {
            at: tpos,
            what: format!("index footer offset {off} outside the file"),
        })?;
    let mut r = Reader::new(&bytes[..tpos]);
    r.pos = pos;
    if r.byte("index section tag")? != SEC_INDEX {
        return Err(EvError::Corrupt {
            at: pos,
            what: format!("index footer offset {pos} is not an index section"),
        });
    }
    let entries = decode_index(&mut r)?;
    if r.byte("summary section tag")? != SEC_SUMMARY {
        return Err(r.corrupt("index section is not followed by the summary"));
    }
    let summary = EvSummary {
        total_ns: r.varint("summary total_ns")?,
        events: r.varint("summary event count")?,
    };
    if r.byte("end marker")? != SEC_END || r.remaining() != 0 {
        return Err(r.corrupt("summary is not followed by the end marker and footer"));
    }
    let indexed = entries.iter().fold(0u64, |n, e| n.saturating_add(e.events));
    if indexed != summary.events {
        return Err(r.corrupt(format!(
            "summary declares {} events but the index lists {indexed}",
            summary.events
        )));
    }
    Ok((entries, summary))
}

/// Decodes one events section. The event-name string table starts
/// empty at every section, which is what makes sections seekable.
fn decode_events(r: &mut Reader<'_>) -> Result<Vec<TimelineEvent>, EvError> {
    let mut events = Vec::new();
    let mut names: Vec<&'static str> = Vec::new();
    let mut prev_cell = 0i64;
    let mut prev_start = 0i64;
    loop {
        let at = r.pos;
        let flags = r.byte("event flags")?;
        if flags == EVENTS_DONE {
            return Ok(events);
        }
        let unit_idx = (flags & 0x07) as usize;
        let bucket_idx = ((flags >> 3) & 0x07) as usize;
        if unit_idx >= Unit::ALL.len() || bucket_idx >= Bucket::ALL.len() {
            return Err(EvError::Corrupt {
                at,
                what: format!("event flags {flags:#04x} name no valid unit/bucket"),
            });
        }
        let name_idx = r.varint("event name index")? as usize;
        let name = match name_idx.cmp(&names.len()) {
            std::cmp::Ordering::Less => names[name_idx],
            std::cmp::Ordering::Equal => {
                let fresh = intern(&r.string("new event name")?);
                names.push(fresh);
                fresh
            }
            std::cmp::Ordering::Greater => {
                return Err(EvError::Corrupt {
                    at,
                    what: format!(
                        "event name index {name_idx} past string table of {}",
                        names.len()
                    ),
                });
            }
        };
        let cell = prev_cell + r.svarint("event cell delta")?;
        let cell = u32::try_from(cell).map_err(|_| EvError::Corrupt {
            at,
            what: format!("event cell {cell} out of range"),
        })?;
        prev_cell = cell as i64;
        let start = prev_start + r.svarint("event start delta")?;
        let start = u64::try_from(start).map_err(|_| EvError::Corrupt {
            at,
            what: format!("event start {start} ns out of range"),
        })?;
        prev_start = start as i64;
        let dur = if flags & 0x40 != 0 {
            let dur = r.varint("event duration")?;
            // Every reader computes an event's end. No recorder can write
            // one whose end overflows: its own `SimTime` addition would
            // panic first.
            if start.checked_add(dur).is_none() {
                return Err(EvError::Corrupt {
                    at,
                    what: format!("event start {start} ns + duration {dur} ns overflows"),
                });
            }
            Some(SimTime::from_nanos(dur))
        } else {
            None
        };
        let arg = r.varint("event arg")?;
        let tid = if flags & 0x80 != 0 {
            r.varint("event tid")?
        } else {
            0
        };
        events.push(TimelineEvent {
            cell,
            unit: Unit::ALL[unit_idx],
            name,
            start: SimTime::from_nanos(start),
            dur,
            bucket: Bucket::ALL[bucket_idx],
            arg,
            tid,
        });
    }
}

// ---------------------------------------------------------------------------
// Binary Op codec (the `O` section): one tag byte per op, varint fields,
// bools packed into a single byte.
// ---------------------------------------------------------------------------

fn encode_op(out: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::Work { flops } => {
            out.push(0);
            put_varint(out, flops);
        }
        Op::Rts { units } => {
            out.push(1);
            put_varint(out, units);
        }
        Op::Put {
            dst,
            bytes,
            stride,
            ack,
            send_flag,
            recv_flag,
        } => {
            out.push(2);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, bytes);
            out.push(stride as u8 | (ack as u8) << 1);
            put_varint(out, send_flag);
            put_varint(out, recv_flag);
        }
        Op::Get {
            src,
            bytes,
            stride,
            ack_probe,
            send_flag,
            recv_flag,
        } => {
            out.push(3);
            put_varint(out, src.as_u32() as u64);
            put_varint(out, bytes);
            out.push(stride as u8 | (ack_probe as u8) << 1);
            put_varint(out, send_flag);
            put_varint(out, recv_flag);
        }
        Op::Send { dst, bytes } => {
            out.push(4);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::Recv { src, bytes } => {
            out.push(5);
            put_varint(out, src.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::WaitFlag { flag, target } => {
            out.push(6);
            put_varint(out, flag);
            put_varint(out, target as u64);
        }
        Op::Barrier => out.push(7),
        Op::Bcast { root, bytes } => {
            out.push(8);
            put_varint(out, root.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::RegStore { dst, reg } => {
            out.push(9);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, reg as u64);
        }
        Op::RegLoad { reg } => {
            out.push(10);
            put_varint(out, reg as u64);
        }
        Op::RemoteStore { dst, bytes } => {
            out.push(11);
            put_varint(out, dst.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::RemoteLoad { src, bytes } => {
            out.push(12);
            put_varint(out, src.as_u32() as u64);
            put_varint(out, bytes);
        }
        Op::RemoteFence => out.push(13),
        Op::MarkGopScalar => out.push(14),
        Op::MarkGopVector => out.push(15),
    }
}

fn read_cell(r: &mut Reader<'_>, what: &str) -> Result<CellId, EvError> {
    let v = r.varint(what)?;
    u32::try_from(v)
        .map(CellId::new)
        .map_err(|_| r.corrupt(format!("{what} {v} out of u32 range")))
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, EvError> {
    let at = r.pos;
    let tag = r.byte("op tag")?;
    let op = match tag {
        0 => Op::Work {
            flops: r.varint("work flops")?,
        },
        1 => Op::Rts {
            units: r.varint("rts units")?,
        },
        2 => {
            let dst = read_cell(r, "put dst")?;
            let bytes = r.varint("put bytes")?;
            let flags = r.byte("put flags")?;
            if flags > 3 {
                return Err(r.corrupt(format!("put flags {flags:#04x} have reserved bits set")));
            }
            Op::Put {
                dst,
                bytes,
                stride: flags & 1 != 0,
                ack: flags & 2 != 0,
                send_flag: r.varint("put send_flag")?,
                recv_flag: r.varint("put recv_flag")?,
            }
        }
        3 => {
            let src = read_cell(r, "get src")?;
            let bytes = r.varint("get bytes")?;
            let flags = r.byte("get flags")?;
            if flags > 3 {
                return Err(r.corrupt(format!("get flags {flags:#04x} have reserved bits set")));
            }
            Op::Get {
                src,
                bytes,
                stride: flags & 1 != 0,
                ack_probe: flags & 2 != 0,
                send_flag: r.varint("get send_flag")?,
                recv_flag: r.varint("get recv_flag")?,
            }
        }
        4 => Op::Send {
            dst: read_cell(r, "send dst")?,
            bytes: r.varint("send bytes")?,
        },
        5 => Op::Recv {
            src: read_cell(r, "recv src")?,
            bytes: r.varint("recv bytes")?,
        },
        6 => Op::WaitFlag {
            flag: r.varint("wait_flag flag")?,
            target: {
                let t = r.varint("wait_flag target")?;
                u32::try_from(t)
                    .map_err(|_| r.corrupt(format!("wait_flag target {t} out of u32 range")))?
            },
        },
        7 => Op::Barrier,
        8 => Op::Bcast {
            root: read_cell(r, "bcast root")?,
            bytes: r.varint("bcast bytes")?,
        },
        9 => Op::RegStore {
            dst: read_cell(r, "reg_store dst")?,
            reg: {
                let v = r.varint("reg_store reg")?;
                u16::try_from(v)
                    .map_err(|_| r.corrupt(format!("reg_store reg {v} out of u16 range")))?
            },
        },
        10 => Op::RegLoad {
            reg: {
                let v = r.varint("reg_load reg")?;
                u16::try_from(v)
                    .map_err(|_| r.corrupt(format!("reg_load reg {v} out of u16 range")))?
            },
        },
        11 => Op::RemoteStore {
            dst: read_cell(r, "remote_store dst")?,
            bytes: r.varint("remote_store bytes")?,
        },
        12 => Op::RemoteLoad {
            src: read_cell(r, "remote_load src")?,
            bytes: r.varint("remote_load bytes")?,
        },
        13 => Op::RemoteFence,
        14 => Op::MarkGopScalar,
        15 => Op::MarkGopVector,
        other => {
            return Err(EvError::Corrupt {
                at,
                what: format!("unknown op tag {other}"),
            });
        }
    };
    Ok(op)
}

fn encode_ops(out: &mut Vec<u8>, trace: &Trace) {
    out.push(SEC_OPS);
    put_varint(out, trace.ncells() as u64);
    for (_, pe) in trace.iter() {
        put_varint(out, pe.ops.len() as u64);
        for op in &pe.ops {
            encode_op(out, op);
        }
    }
}

fn decode_ops(r: &mut Reader<'_>) -> Result<Trace, EvError> {
    let ncells = r.varint("ops ncells")?;
    if ncells == 0 {
        return Err(r.corrupt("ops section declares zero cells"));
    }
    if ncells > u32::MAX as u64 {
        return Err(r.corrupt(format!("ops ncells {ncells} out of range")));
    }
    // Each cell costs at least one byte (its op count), so a huge ncells
    // on a short input is caught before any allocation proportional to it.
    if ncells as usize > r.remaining() + 1 {
        return Err(r.truncated("ops per-cell streams"));
    }
    let mut trace = Trace::new(ncells as usize);
    for i in 0..ncells {
        let nops = r.varint("op count")?;
        let pe = trace.pe_mut(CellId::new(i as u32));
        let mut ops = Vec::with_capacity(r.cap_hint(nops));
        for _ in 0..nops {
            ops.push(decode_op(r)?);
        }
        *pe = PeTrace { ops };
    }
    Ok(trace)
}

fn decode_counters(r: &mut Reader<'_>) -> Result<CounterTicks, EvError> {
    let interval_ns = r.varint("counter interval")?;
    let nseries = r.varint("counter series count")?;
    let mut series = Vec::with_capacity(r.cap_hint(nseries));
    for _ in 0..nseries {
        let name = r.string("counter series name")?;
        let n = r.varint("counter tick count")?;
        let mut vals = Vec::with_capacity(r.cap_hint(n));
        let mut prev = 0i64;
        for _ in 0..n {
            let v = prev + r.svarint("counter tick delta")?;
            let vu = u64::try_from(v)
                .map_err(|_| r.corrupt(format!("counter value {v} out of range")))?;
            prev = v;
            vals.push(vu);
        }
        series.push((name, vals));
    }
    Ok(CounterTicks {
        interval_ns,
        series,
    })
}

// ---------------------------------------------------------------------------
// Streaming writer.
// ---------------------------------------------------------------------------

/// Incremental `.evtrace` encoder over any [`std::io::Write`].
///
/// I/O errors are deferred: the hot event path never fails, and the first
/// error is surfaced (with the path) from [`StreamWriter::finish`]. As an
/// [`apobs::EventSink`] it opens a `"live"` events section on the first
/// streamed event and rotates it every [`ROTATE_EVENTS`], which is how
/// machines record without an in-memory timeline.
pub struct StreamWriter<W: Write> {
    w: W,
    path: String,
    buf: Vec<u8>,
    /// Per-section string table (name → index): v2 resets it at every
    /// events section so each section decodes in isolation.
    name_idx: HashMap<&'static str, u64>,
    names: usize,
    in_events: bool,
    prev_cell: i64,
    prev_start: i64,
    nevents: u64,
    bytes_written: u64,
    /// Seek index accumulated section by section, written before the
    /// summary and pointed at by the footer.
    index: Vec<EvIndexEntry>,
    sec_offset: u64,
    sec_events: u64,
    sec_first: u64,
    sec_last: u64,
    sec_label: String,
    /// Events per section before it rotates: [`ROTATE_EVENTS`], lowered
    /// only by this module's tests to keep their files small.
    rotate_events: u64,
    err: Option<String>,
    finished: bool,
}

impl<W: Write> StreamWriter<W> {
    /// Starts a stream: writes the magic, version, and header.
    pub fn new(w: W, path: &str, header: &EvHeader) -> Self {
        let mut sw = StreamWriter {
            w,
            path: path.to_string(),
            buf: Vec::with_capacity(64 << 10),
            name_idx: HashMap::new(),
            names: 0,
            in_events: false,
            prev_cell: 0,
            prev_start: 0,
            nevents: 0,
            bytes_written: 0,
            index: Vec::new(),
            sec_offset: 0,
            sec_events: 0,
            sec_first: u64::MAX,
            sec_last: 0,
            sec_label: String::new(),
            rotate_events: ROTATE_EVENTS,
            err: None,
            finished: false,
        };
        sw.buf.extend_from_slice(&MAGIC);
        sw.buf.push(VERSION);
        sw.buf.push(SEC_HEADER);
        put_varint(&mut sw.buf, header.ncells as u64);
        put_str(&mut sw.buf, &header.app);
        put_str(&mut sw.buf, &header.scale);
        put_varint(&mut sw.buf, 0); // reserved flags
        sw
    }

    fn flush_buf(&mut self) {
        if self.err.is_some() {
            self.buf.clear();
            return;
        }
        if let Err(e) = self.w.write_all(&self.buf) {
            self.err = Some(e.to_string());
        }
        self.bytes_written += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Opens an events section labelled `label` (closing any open one).
    pub fn begin_events(&mut self, label: &str) {
        self.end_events();
        self.sec_offset = self.bytes_written + self.buf.len() as u64;
        self.buf.push(SEC_EVENTS);
        put_str(&mut self.buf, label);
        self.in_events = true;
        self.name_idx.clear();
        self.prev_cell = 0;
        self.prev_start = 0;
        self.sec_events = 0;
        self.sec_first = u64::MAX;
        self.sec_last = 0;
        self.sec_label.clear();
        self.sec_label.push_str(label);
    }

    /// Closes the open events section, if any, recording its seek-index
    /// entry.
    pub fn end_events(&mut self) {
        if self.in_events {
            self.buf.push(EVENTS_DONE);
            self.in_events = false;
            self.index.push(EvIndexEntry {
                offset: self.sec_offset,
                events: self.sec_events,
                first_ns: if self.sec_events == 0 {
                    0
                } else {
                    self.sec_first
                },
                last_ns: self.sec_last,
            });
        }
    }

    /// Encodes one event into the open events section (opening a `"live"`
    /// section if none is open).
    pub fn push_event(&mut self, ev: &TimelineEvent) {
        if !self.in_events {
            self.begin_events("live");
        }
        let flags = ev.unit.index() as u8
            | (ev.bucket.index() as u8) << 3
            | if ev.dur.is_some() { 0x40 } else { 0 }
            | if ev.tid != 0 { 0x80 } else { 0 };
        self.buf.push(flags);
        let next = self.name_idx.len() as u64;
        match self.name_idx.entry(ev.name) {
            std::collections::hash_map::Entry::Occupied(e) => {
                put_varint(&mut self.buf, *e.get());
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                put_varint(&mut self.buf, next);
                put_str(&mut self.buf, ev.name);
                self.names += 1;
            }
        }
        put_svarint(&mut self.buf, ev.cell as i64 - self.prev_cell);
        self.prev_cell = ev.cell as i64;
        let start = ev.start.as_nanos() as i64;
        put_svarint(&mut self.buf, start - self.prev_start);
        self.prev_start = start;
        if let Some(d) = ev.dur {
            put_varint(&mut self.buf, d.as_nanos());
        }
        put_varint(&mut self.buf, ev.arg);
        if ev.tid != 0 {
            put_varint(&mut self.buf, ev.tid);
        }
        self.nevents += 1;
        self.sec_events += 1;
        self.sec_first = self.sec_first.min(start as u64);
        self.sec_last = self.sec_last.max(start as u64);
        if self.sec_events >= self.rotate_events {
            // Bound per-section decode work for seeking readers.
            let label = std::mem::take(&mut self.sec_label);
            self.end_events();
            self.begin_events(&label);
        }
        if self.buf.len() >= 48 << 10 {
            self.flush_buf();
        }
    }

    /// Writes a whole labelled events section.
    pub fn write_events(&mut self, label: &str, events: &[TimelineEvent]) {
        self.begin_events(label);
        for ev in events {
            self.push_event(ev);
        }
        self.end_events();
    }

    /// Appends the binary-encoded probe trace.
    pub fn append_ops(&mut self, trace: &Trace) {
        self.end_events();
        encode_ops(&mut self.buf, trace);
        self.flush_buf();
    }

    /// Appends delta-encoded sampled counter series.
    pub fn append_counters(&mut self, ticks: &CounterTicks) {
        self.end_events();
        self.buf.push(SEC_COUNTERS);
        put_varint(&mut self.buf, ticks.interval_ns);
        put_varint(&mut self.buf, ticks.series.len() as u64);
        for (name, vals) in &ticks.series {
            put_str(&mut self.buf, name);
            put_varint(&mut self.buf, vals.len() as u64);
            let mut prev = 0i64;
            for &v in vals {
                put_svarint(&mut self.buf, v as i64 - prev);
                prev = v as i64;
            }
        }
        self.flush_buf();
    }

    /// Appends the injected fault schedule as RON text.
    pub fn append_fault_ron(&mut self, ron: &str) {
        self.end_events();
        self.buf.push(SEC_FAULT);
        put_str(&mut self.buf, ron);
        self.flush_buf();
    }

    /// Events encoded so far.
    pub fn events_written(&self) -> u64 {
        self.nevents
    }

    /// Writes the seek index, summary, end marker, and footer, then
    /// flushes. Surfaces the first deferred I/O error; idempotent once
    /// successful.
    pub fn finish(&mut self, total_ns: u64) -> Result<(), EvError> {
        if self.finished {
            return Ok(());
        }
        self.end_events();
        let index_off = self.bytes_written + self.buf.len() as u64;
        self.buf.push(SEC_INDEX);
        put_varint(&mut self.buf, self.index.len() as u64);
        for e in &self.index {
            put_varint(&mut self.buf, e.offset);
            put_varint(&mut self.buf, e.events);
            put_varint(&mut self.buf, e.first_ns);
            put_varint(&mut self.buf, e.last_ns);
        }
        self.buf.push(SEC_SUMMARY);
        put_varint(&mut self.buf, total_ns);
        put_varint(&mut self.buf, self.nevents);
        self.buf.push(SEC_END);
        self.buf.extend_from_slice(&index_off.to_le_bytes());
        self.buf.extend_from_slice(&TRAILER_MAGIC);
        self.flush_buf();
        if self.err.is_none() {
            if let Err(e) = self.w.flush() {
                self.err = Some(e.to_string());
            }
        }
        match self.err.take() {
            Some(detail) => Err(EvError::Io {
                path: self.path.clone(),
                detail,
            }),
            None => {
                self.finished = true;
                Ok(())
            }
        }
    }
}

impl<W: Write + Send> apobs::EventSink for StreamWriter<W> {
    fn event(&mut self, ev: &TimelineEvent) {
        self.push_event(ev);
    }

    fn finish(&mut self) -> Result<(), String> {
        // Sink-level finish only drains buffers; the owning recorder
        // calls [`StreamWriter::finish`] with the final time to write the
        // trailer.
        self.end_events();
        self.flush_buf();
        match &self.err {
            Some(e) => Err(format!("i/o error on {}: {e}", self.path)),
            None => Ok(()),
        }
    }
}

/// Encodes a complete document in one call (tests, small traces).
pub fn encode(doc: &EvTrace) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = StreamWriter::new(&mut out, "<mem>", &doc.header);
    for s in &doc.streams {
        w.write_events(&s.label, &s.events);
    }
    if let Some(ops) = &doc.ops {
        w.append_ops(ops);
    }
    if let Some(c) = &doc.counters {
        w.append_counters(c);
    }
    if let Some(f) = &doc.fault_ron {
        w.append_fault_ron(f);
    }
    w.finish(doc.summary.total_ns)
        .expect("in-memory encode cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_index(bytes: &[u8]) -> Result<Vec<EvIndexEntry>, EvError> {
        read_footer(bytes).map(|(entries, _)| entries)
    }

    fn ev(
        cell: u32,
        unit: Unit,
        name: &'static str,
        start: u64,
        dur: Option<u64>,
    ) -> TimelineEvent {
        TimelineEvent {
            cell,
            unit,
            name,
            start: SimTime::from_nanos(start),
            dur: dur.map(SimTime::from_nanos),
            bucket: Bucket::Hw,
            arg: cell as u64 * 3,
            tid: cell as u64 % 2,
        }
    }

    fn sample() -> EvTrace {
        let mut ops = Trace::new(2);
        ops.pe_mut(CellId::new(0)).push(Op::Work { flops: 500 });
        ops.pe_mut(CellId::new(0)).push(Op::Put {
            dst: CellId::new(1),
            bytes: 4096,
            stride: true,
            ack: false,
            send_flag: 1,
            recv_flag: 2,
        });
        ops.pe_mut(CellId::new(1)).push(Op::Barrier);
        EvTrace {
            header: EvHeader::new(2, "CG", "test"),
            streams: vec![EvStream {
                label: "emulator".to_string(),
                events: vec![
                    ev(0, Unit::Cpu, "work", 0, Some(100)),
                    ev(1, Unit::Net, "hop", 40, None),
                    ev(0, Unit::SendDma, "send_dma", 120, Some(64)),
                ],
            }],
            ops: Some(ops),
            counters: Some(CounterTicks {
                interval_ns: 1000,
                series: vec![
                    ("queue_depth".to_string(), vec![0, 4, 2, 9]),
                    ("links_busy".to_string(), vec![3, 3, 0, 1]),
                ],
            }),
            fault_ron: Some("FaultSpec(seed: 7, events: [])".to_string()),
            summary: EvSummary {
                total_ns: 184,
                events: 3,
            },
        }
    }

    #[test]
    fn round_trips_every_section() {
        let doc = sample();
        let bytes = encode(&doc);
        let back = EvTrace::decode(&bytes).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn rejects_bad_magic_and_future_version() {
        assert_eq!(EvTrace::decode(b"NOTRACE\x01"), Err(EvError::BadMagic));
        let mut bytes = encode(&sample());
        bytes[7] = 9;
        assert_eq!(
            EvTrace::decode(&bytes),
            Err(EvError::Version {
                found: 9,
                supported: VERSION
            })
        );
        let msg = EvTrace::decode(&bytes).unwrap_err().to_string();
        assert!(
            msg.contains('9') && msg.contains(&VERSION.to_string()),
            "version error must name found and supported: {msg}"
        );
    }

    #[test]
    fn truncation_is_structured_at_every_length() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            let err = EvTrace::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    EvError::Truncated { .. } | EvError::Corrupt { .. } | EvError::BadMagic
                ),
                "prefix of {len} bytes gave unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            EvTrace::decode(&bytes),
            Err(EvError::TrailingGarbage { extra: 4, .. })
        ));
    }

    #[test]
    fn event_count_mismatch_is_corrupt() {
        // Tamper with a valid file's summary so it lies about the count.
        let mut bytes = encode(&sample());
        // The summary section sits just before the end marker and the
        // 12-byte footer: S varint(184) varint(3) Z <offset> XIDX.
        let z = bytes.len() - 1 - TRAILER_LEN;
        assert_eq!(bytes[z], SEC_END);
        assert_eq!(bytes[z - 1], 3, "summary event count byte");
        bytes[z - 1] = 2;
        let err = EvTrace::decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, EvError::Corrupt { what, .. } if what.contains("declares 2 events")),
            "{err:?}"
        );
    }

    #[test]
    fn streaming_sink_mode_auto_opens_live_section() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(4, "", ""));
        {
            use apobs::EventSink;
            w.event(&ev(2, Unit::Queue, "enqueue", 10, None));
            w.event(&ev(2, Unit::Queue, "enqueue", 25, None));
            EventSink::finish(&mut w).unwrap();
        }
        w.finish(25).unwrap();
        let doc = EvTrace::decode(&out).unwrap();
        assert_eq!(doc.streams.len(), 1);
        assert_eq!(doc.streams[0].label, "live");
        assert_eq!(doc.streams[0].events.len(), 2);
        assert_eq!(doc.summary.events, 2);
    }

    #[test]
    fn an_event_ending_past_u64_max_is_corrupt_at_its_offset() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(1, "x", "test"));
        let late = ev(0, Unit::SendDma, "send_dma", 10, Some(u64::MAX - 5));
        w.write_events("emulator", &[late]);
        w.finish(15).unwrap();
        // The event follows the section tag and its label "emulator".
        let event_at = read_index(&out).unwrap()[0].offset as usize + 1 + 1 + 8;
        for err in [
            EvTrace::decode(&out).unwrap_err(),
            EvTrace::decode_at(&out, 15).unwrap_err(),
        ] {
            assert!(
                matches!(&err, EvError::Corrupt { at, what } if *at == event_at && what.contains("overflows")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn huge_claimed_counts_do_not_allocate() {
        // An ops section claiming u32::MAX cells on a tiny input must be
        // rejected before allocating anything proportional to the claim.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(SEC_HEADER);
        put_varint(&mut bytes, 1);
        put_str(&mut bytes, "");
        put_str(&mut bytes, "");
        put_varint(&mut bytes, 0);
        bytes.push(SEC_OPS);
        put_varint(&mut bytes, u32::MAX as u64);
        let err = EvTrace::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, EvError::Truncated { .. }),
            "claimed-count bomb must be a structured error: {err:?}"
        );
    }

    #[test]
    fn empty_streams_and_absent_sections_round_trip() {
        let doc = EvTrace {
            header: EvHeader::new(1, "", ""),
            streams: vec![EvStream {
                label: "emulator".to_string(),
                events: vec![],
            }],
            ..EvTrace::default()
        };
        let back = EvTrace::decode(&encode(&doc)).unwrap();
        assert_eq!(back, doc);
        assert!(back.ops.is_none() && back.counters.is_none() && back.fault_ron.is_none());
    }

    #[test]
    fn string_table_resets_per_section_for_seekability() {
        let mut doc = sample();
        doc.streams.push(EvStream {
            label: "tnet".to_string(),
            events: vec![ev(3, Unit::Net, "hop", 999, None)],
        });
        doc.summary.events = 4;
        let bytes = encode(&doc);
        let back = EvTrace::decode(&bytes).unwrap();
        assert_eq!(back, doc);
        // v2 stores "hop" once per section that uses it, so each section
        // decodes standalone (the price of O(1) seeking).
        let text_hops = bytes.windows(3).filter(|w| w == b"hop").count();
        assert_eq!(text_hops, 2);
    }

    #[test]
    fn v1_files_are_refused_with_a_structured_version_error() {
        let mut bytes = encode(&sample());
        bytes[7] = 1;
        let too_old = EvError::Version {
            found: 1,
            supported: VERSION,
        };
        assert_eq!(EvTrace::decode(&bytes), Err(too_old.clone()));
        assert_eq!(EvTrace::decode_at(&bytes, 0), Err(too_old.clone()));
        assert_eq!(read_index(&bytes), Err(too_old.clone()));
        let path = std::env::temp_dir().join(format!("ap_v1_{}.evtrace", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let from_file = EvTrace::read_file_at(&path, 0);
        std::fs::remove_file(&path).ok();
        assert_eq!(from_file, Err(too_old.clone()));
        let msg = too_old.to_string();
        assert!(
            msg.contains("version 1 is older than the oldest supported version 2"),
            "{msg}"
        );
    }

    #[test]
    fn footer_index_locates_every_events_section() {
        let mut doc = sample();
        doc.streams.push(EvStream {
            label: "tnet".to_string(),
            events: vec![ev(3, Unit::Net, "hop", 999, None)],
        });
        doc.summary.events = 4;
        let bytes = encode(&doc);
        let index = read_index(&bytes).unwrap();
        assert_eq!(index.len(), 2);
        for (entry, stream) in index.iter().zip(&doc.streams) {
            assert_eq!(bytes[entry.offset as usize], SEC_EVENTS);
            assert_eq!(entry.events, stream.events.len() as u64);
            let starts: Vec<u64> = stream.events.iter().map(|e| e.start.as_nanos()).collect();
            assert_eq!(entry.first_ns, *starts.iter().min().unwrap());
            assert_eq!(entry.last_ns, *starts.iter().max().unwrap());
        }
    }

    #[test]
    fn decode_at_skips_sections_past_the_seek_time() {
        let mut doc = sample(); // one section, events at 0..=120
        doc.streams.push(EvStream {
            label: "late".to_string(),
            events: vec![ev(3, Unit::Net, "hop", 999, None)],
        });
        doc.summary.events = 4;
        let bytes = encode(&doc);
        let early = EvTrace::decode_at(&bytes, 500).unwrap();
        assert_eq!(early.header, doc.header);
        assert_eq!(early.summary, doc.summary);
        assert_eq!(early.streams.len(), 1, "late section skipped");
        assert_eq!(early.streams[0].events.len(), 3);
        assert!(early.ops.is_none(), "seek path never decodes ops");
        let late = EvTrace::decode_at(&bytes, 2000).unwrap();
        assert_eq!(late.streams.len(), 2);
        assert_eq!(late.all_events(), doc.all_events());
    }

    #[test]
    fn tampered_footer_or_index_is_rejected() {
        let good = encode(&sample());
        // Footer magic.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(matches!(
            EvTrace::decode(&bad),
            Err(EvError::Corrupt { .. })
        ));
        // Footer offset.
        let mut bad = good.clone();
        bad[n - TRAILER_LEN] ^= 0x01;
        assert!(EvTrace::decode(&bad).is_err());
        assert!(read_index(&bad).is_err());
        // An index lying about an event count is caught by the full
        // decode's cross-check (find the count byte via the real index).
        let idx_at = u64::from_le_bytes(good[n - TRAILER_LEN..n - 4].try_into().unwrap()) as usize;
        let mut bad = good.clone();
        // layout: X varint(count) then per-entry varints; entry 0 event
        // count is the second varint after the entry offset.
        assert_eq!(bad[idx_at], SEC_INDEX);
        let victim = idx_at + 1 /* tag */ + 1 /* count */ + 1 /* offset */;
        bad[victim] = bad[victim].wrapping_add(1);
        assert!(
            EvTrace::decode(&bad).is_err(),
            "index/section disagreement must not decode"
        );
    }

    /// ROADMAP 7b: every single-bit flip (and the whole-byte flip) of every
    /// footer byte — index section, summary, end marker, `XIDX` trailer —
    /// of a three-section document is a structured error or leaves the
    /// event set alone: the full decode holds the clean streams, a seek
    /// decode the clean `first_ns <= at` ones. Two fields have nothing
    /// in the file to be checked against, and the sweep says so: the
    /// summary's `total_ns` anywhere, and — for a seek only, which does
    /// not decode what it skips — a `first_ns` raised past the seek time,
    /// which hides its section (the full decode rejects that file).
    #[test]
    fn no_footer_byte_flip_panics_or_silently_changes_the_events() {
        let mut doc = sample(); // events at 0, 40, 120
        for (label, starts) in [("tnet", [500, 650, 580]), ("late", [999, 1200, 1100])] {
            let events = starts.map(|t| ev(3, Unit::Net, "hop", t, Some(30)));
            doc.streams.push(EvStream {
                label: label.to_string(),
                events: events.to_vec(),
            });
        }
        doc.summary.events = 9;
        let good = encode(&doc);
        assert_eq!(EvTrace::decode(&good).as_ref(), Ok(&doc));
        let index = read_index(&good).unwrap();
        assert_eq!(index.len(), 3);
        // The streams a seek to `at` keeps, going by `index`.
        let kept = |index: &[EvIndexEntry], at: u64| -> Vec<EvStream> {
            let streams = doc.streams.iter().zip(index);
            let kept = streams.filter(|(_, e)| e.first_ns <= at);
            kept.map(|(s, _)| s.clone()).collect()
        };
        let seeks = [0, 100, 600, 1150, u64::MAX];
        for at in seeks {
            let clean = EvTrace::decode_at(&good, at).unwrap();
            assert_eq!(clean.streams, kept(&index, at));
            assert_eq!((&clean.header, clean.summary), (&doc.header, doc.summary));
        }

        let n = good.len();
        let footer = u64::from_le_bytes(good[n - TRAILER_LEN..n - 4].try_into().unwrap()) as usize;
        assert_eq!(good[footer], SEC_INDEX);
        let mut hidden = 0;
        for pos in footer..n {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut bad = good.clone();
                bad[pos] ^= mask;
                let what = format!("byte {pos} ^ {mask:#04x}");
                let full = EvTrace::decode(&bad);
                if let Ok(mut got) = full.clone() {
                    got.summary.total_ns = doc.summary.total_ns;
                    assert_eq!(got, doc, "{what}");
                }
                for at in seeks {
                    let Ok(got) = EvTrace::decode_at(&bad, at) else {
                        continue;
                    };
                    assert_eq!(got.header, doc.header, "{what}: seek {at}");
                    assert_eq!(got.summary.events, doc.summary.events, "{what}: seek {at}");
                    if got.streams != kept(&index, at) {
                        // Only ever a section hidden by its own first_ns.
                        let lied = read_index(&bad).unwrap();
                        for (l, c) in lied.iter().zip(&index) {
                            assert!(l.first_ns >= c.first_ns, "{what}: seek {at}");
                            let first_ns = c.first_ns;
                            assert_eq!(EvIndexEntry { first_ns, ..*l }, *c, "{what}: seek {at}");
                        }
                        assert_eq!(got.streams, kept(&lied, at), "{what}: seek {at}");
                        assert!(full.is_err(), "{what}: the full decode must notice");
                        hidden += 1;
                    }
                }
            }
        }
        // Section 0's `first_ns` byte: 0 -> 1, 2, 4, .. 64, at seek 0.
        assert_eq!(hidden, 7);
    }

    #[test]
    fn long_live_sections_rotate_for_seekability() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(4, "", ""));
        let n = ROTATE_EVENTS + 5;
        for i in 0..n {
            w.push_event(&ev(0, Unit::Cpu, "work", i, None));
        }
        w.finish(n).unwrap();
        let index = read_index(&out).unwrap();
        assert_eq!(index.len(), 2, "section rotated at the event cap");
        assert_eq!(index[0].events, ROTATE_EVENTS);
        assert_eq!(index[1].events, 5);
        assert!(index[0].last_ns < index[1].first_ns);
        let doc = EvTrace::decode(&out).unwrap();
        assert_eq!(doc.summary.events, n);
        assert_eq!(doc.streams.len(), 2);
        assert_eq!(doc.streams[0].label, "live");
        assert_eq!(doc.streams[1].label, "live");
        // A seek into the first window decodes only that section.
        let seeked = EvTrace::decode_at(&out, 100).unwrap();
        assert_eq!(seeked.streams.len(), 1);

        // ROADMAP 7b at the rotation boundary: every single-bit flip (and
        // the whole-byte flip) of the 16 bytes either side of it — the
        // tail events and end marker of section 0, then section 1's tag,
        // label and first event — on a writer rotating every `cap` events
        // (the real cap makes each decode ~1M events). Neither reader
        // panics, and each returns an `EvError` or the clean section
        // split: the same sections, event counts and timestamps (which
        // the index cross-checks). Event payloads and labels carry no
        // redundancy, so a flip there may decode as a different, well-
        // formed event or label; the sweep counts those. A seek that
        // skips section 1 never reads its bytes.
        let cap = 1 << 10;
        let t0 = ROTATE_EVENTS - cap; // section 1 starts at ROTATE_EVENTS ns
        let mut good = Vec::new();
        let mut w = StreamWriter::new(&mut good, "<mem>", &EvHeader::new(4, "", ""));
        w.rotate_events = cap;
        for i in 0..cap + 5 {
            w.push_event(&ev(0, Unit::Cpu, "work", t0 + i, None));
        }
        w.finish(t0 + cap + 5).unwrap();
        let doc = EvTrace::decode(&good).unwrap();
        let index = read_index(&good).unwrap();
        assert_eq!(index.len(), 2);
        let split = |d: &EvTrace| -> Vec<Vec<u64>> {
            let starts = |s: &EvStream| s.events.iter().map(|e| e.start.as_nanos()).collect();
            d.streams.iter().map(starts).collect()
        };
        let boundary = index[1].offset as usize;
        assert_eq!(good[boundary - 1], EVENTS_DONE);
        assert_eq!(good[boundary], SEC_EVENTS);
        let (mut errors, mut payload) = (0, 0);
        for pos in boundary - 16..boundary + 16 {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut bad = good.clone();
                bad[pos] ^= mask;
                let what = format!("byte {pos} ^ {mask:#04x}");
                let full = EvTrace::decode(&bad);
                let seek = EvTrace::decode_at(&bad, u64::MAX);
                match (&full, &seek) {
                    (Err(_), Err(_)) => errors += 1,
                    (Ok(f), Ok(s)) => {
                        assert_eq!(split(f), split(&doc), "{what}");
                        assert_eq!(f.streams, s.streams, "{what}: the readers disagree");
                        if f != &doc {
                            payload += 1;
                        }
                    }
                    _ => panic!("{what}: only one reader noticed ({full:?} vs {seek:?})"),
                }
                let early = EvTrace::decode_at(&bad, t0);
                if pos >= boundary {
                    assert_eq!(early.unwrap().streams, doc.streams[..1], "{what}");
                } else if let Ok(early) = early {
                    assert_eq!(split(&early), split(&doc)[..1], "{what}");
                }
            }
        }
        assert_eq!((errors, payload), (171, 117));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A small name vocabulary mirroring the kernel's: decoded names are
    /// interned `&'static str`, so the generator picks from statics.
    const NAMES: [&str; 8] = [
        "work",
        "rts",
        "barrier",
        "put_issue",
        "send_dma",
        "recv_dma",
        "enqueue",
        "hop",
    ];

    fn arb_event() -> BoxedStrategy<TimelineEvent> {
        (
            0u32..2048,
            0usize..Unit::ALL.len(),
            0usize..NAMES.len(),
            0u64..1_000_000_000,
            opt(0u64..1_000_000),
            0usize..Bucket::ALL.len(),
            any::<u64>(),
            0u64..1_000,
        )
            .prop_map(
                |(cell, unit, name, start, dur, bucket, arg, tid)| TimelineEvent {
                    cell,
                    unit: Unit::ALL[unit],
                    name: NAMES[name],
                    start: SimTime::from_nanos(start),
                    dur: dur.map(SimTime::from_nanos),
                    bucket: Bucket::ALL[bucket],
                    arg,
                    tid,
                },
            )
            .boxed()
    }

    fn arb_op() -> BoxedStrategy<Op> {
        prop_oneof![
            (0u64..1_000_000_000).prop_map(|flops| Op::Work { flops }),
            (0u64..1_000_000).prop_map(|units| Op::Rts { units }),
            (
                0u32..1024,
                0u64..1_000_000,
                any::<bool>(),
                any::<bool>(),
                0u64..64,
                0u64..64
            )
                .prop_map(|(dst, bytes, stride, ack, send_flag, recv_flag)| Op::Put {
                    dst: CellId::new(dst),
                    bytes,
                    stride,
                    ack,
                    send_flag,
                    recv_flag,
                }),
            (
                0u32..1024,
                0u64..1_000_000,
                any::<bool>(),
                any::<bool>(),
                0u64..64,
                0u64..64
            )
                .prop_map(|(src, bytes, stride, ack_probe, send_flag, recv_flag)| {
                    Op::Get {
                        src: CellId::new(src),
                        bytes,
                        stride,
                        ack_probe,
                        send_flag,
                        recv_flag,
                    }
                }),
            (0u32..1024, 0u64..1_000_000).prop_map(|(dst, bytes)| Op::Send {
                dst: CellId::new(dst),
                bytes
            }),
            (0u32..1024, 0u64..1_000_000).prop_map(|(src, bytes)| Op::Recv {
                src: CellId::new(src),
                bytes
            }),
            (0u64..64, 0u32..100).prop_map(|(flag, target)| Op::WaitFlag { flag, target }),
            Just(Op::Barrier),
            (0u32..1024, 0u64..1_000_000).prop_map(|(root, bytes)| Op::Bcast {
                root: CellId::new(root),
                bytes
            }),
            (0u32..1024, any::<u16>()).prop_map(|(dst, reg)| Op::RegStore {
                dst: CellId::new(dst),
                reg
            }),
            any::<u16>().prop_map(|reg| Op::RegLoad { reg }),
            (0u32..1024, 0u64..1_000_000).prop_map(|(dst, bytes)| Op::RemoteStore {
                dst: CellId::new(dst),
                bytes
            }),
            (0u32..1024, 0u64..1_000_000).prop_map(|(src, bytes)| Op::RemoteLoad {
                src: CellId::new(src),
                bytes
            }),
            Just(Op::RemoteFence),
            Just(Op::MarkGopScalar),
            Just(Op::MarkGopVector),
        ]
        .boxed()
    }

    /// `Option` strategy (the offline shim has no `proptest::option`).
    fn opt<S>(s: S) -> BoxedStrategy<Option<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: Clone + std::fmt::Debug + 'static,
    {
        (any::<bool>(), s)
            .prop_map(|(some, v)| some.then_some(v))
            .boxed()
    }

    fn arb_doc() -> BoxedStrategy<EvTrace> {
        (
            1u32..64,
            proptest::collection::vec(proptest::collection::vec(arb_event(), 0..40), 0..3),
            opt(proptest::collection::vec(
                proptest::collection::vec(arb_op(), 0..10),
                1..5,
            )),
            opt((
                1u64..100_000,
                proptest::collection::vec(
                    (0usize..6, proptest::collection::vec(0u64..1_000_000, 0..20)),
                    0..4,
                ),
            )),
            opt(0u64..1_000_000),
            0u64..10_000_000_000,
        )
            .prop_map(|(ncells, streams, ops, counters, fault_ron, total_ns)| {
                let streams: Vec<EvStream> = streams
                    .into_iter()
                    .enumerate()
                    .map(|(i, events)| EvStream {
                        label: format!("stream{i}"),
                        events,
                    })
                    .collect();
                let events = streams.iter().map(|s| s.events.len() as u64).sum();
                let ops = ops.map(|pes| {
                    let mut t = Trace::new(pes.len());
                    for (i, cell_ops) in pes.into_iter().enumerate() {
                        for op in cell_ops {
                            t.pe_mut(CellId::new(i as u32)).push(op);
                        }
                    }
                    t
                });
                EvTrace {
                    header: EvHeader::new(ncells, "fuzz", "test"),
                    streams,
                    ops,
                    counters: counters.map(|(interval_ns, series)| CounterTicks {
                        interval_ns,
                        series: series
                            .into_iter()
                            .map(|(i, vals)| (format!("series_{i}"), vals))
                            .collect(),
                    }),
                    fault_ron: fault_ron.map(|seed| format!("FaultSpec(seed: {seed})")),
                    summary: EvSummary { total_ns, events },
                }
            })
            .boxed()
    }

    proptest! {
        /// Arbitrary documents survive a binary round trip bit-exactly.
        #[test]
        fn doc_round_trips(doc in arb_doc()) {
            let bytes = encode(&doc);
            let back = EvTrace::decode(&bytes).unwrap();
            prop_assert_eq!(back, doc);
        }

        /// Every truncation of a valid file is a structured error.
        #[test]
        fn truncation_never_panics(doc in arb_doc(), cut in 0.0f64..1.0) {
            let bytes = encode(&doc);
            let len = (bytes.len() as f64 * cut) as usize;
            prop_assert!(EvTrace::decode(&bytes[..len.min(bytes.len().saturating_sub(1))]).is_err());
        }

        /// Bit-flipping any byte of a valid file either still decodes (the
        /// flip hit a value field) or fails with a structured error —
        /// never a panic, never an unbounded allocation.
        #[test]
        fn bit_flips_never_panic(doc in arb_doc(), pos in any::<u64>(), bit in 0u8..8) {
            let mut bytes = encode(&doc);
            let i = (pos % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
            let _ = EvTrace::decode(&bytes); // must return, Ok or Err
        }

        /// Random byte soup (with and without a valid magic prefix) never
        /// panics the decoder.
        #[test]
        fn random_bytes_never_panic(mut bytes in proptest::collection::vec(any::<u8>(), 0..400), magic in any::<bool>()) {
            if magic && bytes.len() >= 8 {
                bytes[..7].copy_from_slice(&MAGIC);
                bytes[7] = VERSION;
            }
            let _ = EvTrace::decode(&bytes);
        }
    }
}
