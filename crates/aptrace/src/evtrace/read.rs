//! One parser per piece of the grammar — [`decode_header`] for `MAGIC
//! VERSION H`, [`decode_events`] for an `E` section, [`decode_tail`] for
//! `X S Z`, [`decode_footer`] for the footer — and [`EvTrace::decode`],
//! which walks a whole file through them. The seek reader reaches the
//! same parsers from the footer, so both enforce one section order.

use super::format::*;
use crate::op::{Op, PeTrace, Trace};
use apobs::{Bucket, EvName, TimelineEvent, Unit};
use aputil::{CellId, SimTime};
use std::io::Read;

/// Cursor over the input with offset-carrying structured errors.
pub(super) struct Reader<'a> {
    bytes: &'a [u8],
    pub(super) pos: usize,
}

impl<'a> Reader<'a> {
    pub(super) fn at(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }

    pub(super) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn truncated(&self, what: &str) -> EvError {
        EvError::Truncated {
            at: self.pos,
            what: what.to_string(),
        }
    }

    pub(super) fn corrupt(&self, what: impl Into<String>) -> EvError {
        EvError::Corrupt {
            at: self.pos,
            what: what.into(),
        }
    }

    fn peek(&self, what: &str) -> Result<u8, EvError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.truncated(what))
    }

    pub(super) fn byte(&mut self, what: &str) -> Result<u8, EvError> {
        let b = self.peek(what)?;
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

    /// A length-prefixed string, borrowed from the input.
    fn str(&mut self, what: &str) -> Result<&'a str, EvError> {
        let len = self.varint(what)? as usize;
        if len > self.remaining() {
            return Err(self.truncated(what));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|_| self.corrupt(format!("invalid UTF-8 in {what}")))?;
        self.pos += len;
        Ok(s)
    }

    pub(super) fn string(&mut self, what: &str) -> Result<String, EvError> {
        self.str(what).map(str::to_string)
    }

    /// Guarded capacity hint: never pre-reserve more than what could
    /// plausibly fit in the remaining input, so a corrupted count cannot
    /// trigger an unbounded allocation.
    fn cap_hint(&self, claimed: u64) -> usize {
        (claimed as usize).min(self.remaining()).min(1 << 16)
    }
}

/// `MAGIC VERSION H`: the magic, the format version and the header, which
/// must be the first section. The returned reader stands at the second
/// section.
pub(super) fn decode_header(bytes: &[u8]) -> Result<(EvHeader, Reader<'_>), EvError> {
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
    let mut r = Reader::at(bytes, MAGIC.len() + 1);
    let at = r.pos;
    if r.byte("section tag")? != SEC_HEADER {
        return Err(EvError::Corrupt {
            at,
            what: "first section is not the header".to_string(),
        });
    }
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
    Ok((EvHeader { ncells, app, scale }, r))
}

/// One `E` section whose tag, at `at`, `r` has just read: the stream,
/// and the index entry of what was walked. The event-name string table
/// starts empty at every section, which is what makes sections seekable,
/// and each name it spells must be an [`EvName`].
pub(super) fn decode_events(
    r: &mut Reader<'_>,
    at: usize,
) -> Result<(EvStream, EvIndexEntry), EvError> {
    let label = r.string("event stream label")?;
    let mut walked = EvIndexEntry {
        offset: at as u64,
        ..EvIndexEntry::default()
    };
    let mut events = Vec::new();
    let mut names: Vec<EvName> = Vec::new();
    let mut prev_cell = 0i64;
    let mut prev_start = 0i64;
    loop {
        let at = r.pos;
        let flags = r.byte("event flags")?;
        if flags == EVENTS_DONE {
            let events = events.into();
            return Ok((EvStream { label, events }, walked));
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
                let name_at = r.pos;
                let spelled = r.str("new event name")?;
                let fresh = EvName::parse(spelled).ok_or_else(|| EvError::Corrupt {
                    at: name_at,
                    what: format!(
                        "event name {:?} is not in the vocabulary",
                        spelled.chars().take(40).collect::<String>()
                    ),
                })?;
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
        walked.count(start);
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

/// Reads the one-byte tag `want` (a `what`) at `r`.
fn expect_tag(r: &mut Reader<'_>, want: u8, what: &str) -> Result<(), EvError> {
    let at = r.pos;
    let found = r.byte(what)?;
    if found != want {
        return Err(EvError::Corrupt {
            at,
            what: format!("section tag {found:#04x} where the {what} belongs"),
        });
    }
    Ok(())
}

/// `X S Z` at `r`: the seek index, the summary and the end marker. The
/// summary's event count must be the one the index adds up to.
pub(super) fn decode_tail(r: &mut Reader<'_>) -> Result<(Vec<EvIndexEntry>, EvSummary), EvError> {
    expect_tag(r, SEC_INDEX, "index section tag")?;
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
    expect_tag(r, SEC_SUMMARY, "summary section tag")?;
    let summary = EvSummary {
        total_ns: r.varint("summary total_ns")?,
        events: r.varint("summary event count")?,
    };
    expect_tag(r, SEC_END, "end marker")?;
    let indexed = entries.iter().fold(0u64, |n, e| n.saturating_add(e.events));
    if indexed != summary.events {
        return Err(r.corrupt(format!(
            "summary declares {} events but the index lists {indexed}",
            summary.events
        )));
    }
    Ok((entries, summary))
}

/// The 12-byte footer at `at`: the offset of the index section, which
/// must lie before the footer, then `XIDX`.
pub(super) fn decode_footer(bytes: &[u8], at: usize) -> Result<usize, EvError> {
    let Some(footer) = bytes.get(at..at.saturating_add(TRAILER_LEN)) else {
        return Err(EvError::Truncated {
            at: bytes.len(),
            what: "index footer".to_string(),
        });
    };
    if footer[8..] != TRAILER_MAGIC {
        return Err(EvError::Corrupt {
            at: at + 8,
            what: "index footer magic is not XIDX".to_string(),
        });
    }
    let off = u64::from_le_bytes(footer[..8].try_into().expect("8-byte slice"));
    usize::try_from(off)
        .ok()
        .filter(|&p| p < at)
        .ok_or(EvError::Corrupt {
            at,
            what: format!("index footer offset {off} is not before the footer"),
        })
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

impl EvTrace {
    /// Decodes a complete in-memory document in one walk through the
    /// grammar, rejecting truncation and trailing garbage. The file must
    /// carry a valid seek index whose entries agree with the events
    /// sections actually decoded.
    pub fn decode(bytes: &[u8]) -> Result<EvTrace, EvError> {
        let (header, mut r) = decode_header(bytes)?;
        let mut doc = EvTrace {
            header,
            ..EvTrace::default()
        };
        let mut walked: Vec<EvIndexEntry> = Vec::new();
        while let tag @ (SEC_EVENTS | SEC_OPS | SEC_COUNTERS | SEC_FAULT) = r.peek("section tag")? {
            let at = r.pos;
            r.pos += 1;
            match tag {
                SEC_EVENTS => {
                    let (stream, entry) = decode_events(&mut r, at)?;
                    doc.streams.push(stream);
                    walked.push(entry);
                }
                SEC_OPS => doc.ops = Some(decode_ops(&mut r)?),
                SEC_COUNTERS => doc.counters = Some(decode_counters(&mut r)?),
                _ => doc.fault_ron = Some(r.string("fault schedule RON")?),
            }
        }
        let index_at = r.pos;
        let (entries, summary) = decode_tail(&mut r)?;
        doc.summary = summary;
        let footer_at = r.pos;
        let pointed = decode_footer(bytes, footer_at)?;
        if pointed != index_at {
            return Err(EvError::Corrupt {
                at: footer_at,
                what: format!(
                    "index footer points at byte {pointed} but the index is at {index_at}"
                ),
            });
        }
        let end = footer_at + TRAILER_LEN;
        if bytes.len() > end {
            return Err(EvError::TrailingGarbage {
                at: end,
                extra: bytes.len() - end,
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
        Ok(doc)
    }

    /// Reads and decodes a file.
    pub fn read_file(path: &std::path::Path) -> Result<EvTrace, EvError> {
        EvTrace::decode(&read_bytes(path)?)
    }
}

pub(super) fn read_bytes(path: &std::path::Path) -> Result<Vec<u8>, EvError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| EvError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evtrace::fixtures::{ev, read_index, sample};
    use crate::evtrace::write::{encode, put_str, put_varint, StreamWriter};

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
    fn an_event_ending_past_u64_max_is_corrupt_at_its_offset() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(1, "x", "test"));
        let late = ev(0, Unit::SendDma, EvName::SendDma, 10, Some(u64::MAX - 5));
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
                events: vec![].into(),
            }],
            ..EvTrace::default()
        };
        let back = EvTrace::decode(&encode(&doc)).unwrap();
        assert_eq!(back, doc);
        assert!(back.ops.is_none() && back.counters.is_none() && back.fault_ron.is_none());
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

    /// `H (E|O|C|F)* X S Z` is one grammar for both readers: three
    /// rearrangements of a valid file, each with its index and footer
    /// offsets rewritten to match, are refused by the whole-file walk and
    /// by the seek alike.
    #[test]
    fn both_readers_refuse_sections_out_of_grammar_order() {
        let doc = sample();
        let good = encode(&doc);
        let (_, mut r) = decode_header(&good).unwrap();
        let h = MAGIC.len() + 1..r.pos;
        let e_at = r.pos;
        r.pos += 1;
        let (_, entry) = decode_events(&mut r, e_at).unwrap();
        let e = e_at..r.pos;
        let mut f = vec![SEC_FAULT];
        put_str(&mut f, doc.fault_ron.as_deref().unwrap());
        let index_at = decode_footer(&good, good.len() - TRAILER_LEN).unwrap();
        let o_c = e.end..index_at - f.len();
        assert_eq!(good[o_c.end..index_at], f);
        let mut s = vec![SEC_SUMMARY];
        put_varint(&mut s, doc.summary.total_ns);
        put_varint(&mut s, doc.summary.events);

        // Lays the pieces out in `order`, writing the index entry and the
        // footer for where the `E` and `X` sections land.
        let layout = |order: [&str; 6]| -> Vec<u8> {
            let mut out = good[..MAGIC.len() + 1].to_vec();
            let (mut e_off, mut x_off) = (0, 0);
            for piece in order {
                match piece {
                    "H" => out.extend_from_slice(&good[h.clone()]),
                    "E" => {
                        e_off = out.len() as u64;
                        out.extend_from_slice(&good[e.clone()]);
                    }
                    "OC" => out.extend_from_slice(&good[o_c.clone()]),
                    "F" => out.extend_from_slice(&f),
                    "X" => {
                        x_off = out.len() as u64;
                        out.push(SEC_INDEX);
                        put_varint(&mut out, 1);
                        put_varint(&mut out, e_off);
                        put_varint(&mut out, entry.events);
                        put_varint(&mut out, entry.first_ns);
                        put_varint(&mut out, entry.last_ns);
                    }
                    "S" => out.extend_from_slice(&s),
                    _ => unreachable!("{piece}"),
                }
            }
            out.push(SEC_END);
            out.extend_from_slice(&x_off.to_le_bytes());
            out.extend_from_slice(&TRAILER_MAGIC);
            out
        };
        assert_eq!(layout(["H", "E", "OC", "F", "X", "S"]), good);
        for order in [
            ["H", "E", "OC", "F", "S", "X"], // the summary before the index
            ["H", "E", "OC", "X", "F", "S"], // a data section after the index
            ["E", "H", "OC", "F", "X", "S"], // events before the header
        ] {
            let bad = layout(order);
            for err in [EvTrace::decode(&bad), EvTrace::decode_at(&bad, u64::MAX)] {
                assert!(
                    matches!(err, Err(EvError::Corrupt { .. })),
                    "{order:?}: {err:?}"
                );
            }
        }
    }

    /// A name table entry outside the vocabulary: a well-formed v2 file
    /// (what a writer with a name unknown here would produce) whose one
    /// event's name is spelled `wrok`.
    #[test]
    fn an_unknown_event_name_is_corrupt_at_its_offset() {
        let mut out = Vec::new();
        let mut w = StreamWriter::new(&mut out, "<mem>", &EvHeader::new(1, "x", "test"));
        w.write_events("emulator", &[ev(0, Unit::Cpu, EvName::Work, 0, None)]);
        w.finish(0).unwrap();
        // The name follows the section tag, its label "emulator", the
        // event's flags byte and its name index.
        let name_at = read_index(&out).unwrap()[0].offset as usize + 1 + 1 + 8 + 1 + 1;
        assert_eq!(&out[name_at..name_at + 5], b"\x04work");
        out[name_at + 1..name_at + 5].copy_from_slice(b"wrok");
        for err in [
            EvTrace::decode(&out).unwrap_err(),
            EvTrace::decode_at(&out, 0).unwrap_err(),
        ] {
            assert_eq!(
                err,
                EvError::Corrupt {
                    at: name_at,
                    what: "event name \"wrok\" is not in the vocabulary".to_string(),
                }
            );
        }
    }
}
