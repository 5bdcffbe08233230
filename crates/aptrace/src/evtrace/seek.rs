//! The seek reader: [`EvTrace::decode_at`] finds the index through the
//! footer and decodes only the events sections a seek needs, through the
//! whole-file reader's parsers.

use super::format::*;
use super::read::{decode_events, decode_footer, decode_header, decode_tail, read_bytes, Reader};

/// Parses the header, then the footer and the tail it points at, without
/// touching the rest of the file. The tail must end where the footer
/// begins.
pub(super) fn read_footer(
    bytes: &[u8],
) -> Result<(EvHeader, Vec<EvIndexEntry>, EvSummary), EvError> {
    let (header, _) = decode_header(bytes)?;
    let footer_at = bytes.len().saturating_sub(TRAILER_LEN);
    let index_at = decode_footer(bytes, footer_at)?;
    let mut r = Reader::at(&bytes[..footer_at], index_at);
    let (entries, summary) = decode_tail(&mut r)?;
    if r.remaining() != 0 {
        return Err(r.corrupt("the end marker is not followed by the footer"));
    }
    Ok((header, entries, summary))
}

impl EvTrace {
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
        let (header, entries, summary) = read_footer(bytes)?;
        let mut doc = EvTrace {
            header,
            summary,
            ..EvTrace::default()
        };
        for e in entries
            .iter()
            .filter(|e| e.events > 0 && e.first_ns <= at_ns)
        {
            let pos = usize::try_from(e.offset).unwrap_or(usize::MAX);
            if bytes.get(pos) != Some(&SEC_EVENTS) {
                return Err(EvError::Corrupt {
                    at: pos.min(bytes.len()),
                    what: format!("seek index offset {} is not an events section", e.offset),
                });
            }
            let mut r = Reader::at(bytes, pos + 1);
            let (stream, walked) = decode_events(&mut r, pos)?;
            if walked != *e {
                return Err(EvError::Corrupt {
                    at: pos,
                    what: format!("seek index promises {e:?}, section holds {walked:?}"),
                });
            }
            doc.streams.push(stream);
        }
        Ok(doc)
    }

    /// Reads a file through the seek fast path (see
    /// [`EvTrace::decode_at`]).
    pub fn read_file_at(path: &std::path::Path, at_ns: u64) -> Result<EvTrace, EvError> {
        EvTrace::decode_at(&read_bytes(path)?, at_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evtrace::fixtures::{ev, read_index, sample};
    use crate::evtrace::write::encode;
    use apobs::{EvName, Unit};

    #[test]
    fn footer_index_locates_every_events_section() {
        let mut doc = sample();
        doc.streams.push(EvStream {
            label: "tnet".to_string(),
            events: vec![ev(3, Unit::Net, EvName::Hop, 999, None)].into(),
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
            events: vec![ev(3, Unit::Net, EvName::Hop, 999, None)].into(),
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
            let events = starts.map(|t| ev(3, Unit::Net, EvName::Hop, t, Some(30)));
            doc.streams.push(EvStream {
                label: label.to_string(),
                events: events.to_vec().into(),
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
}
