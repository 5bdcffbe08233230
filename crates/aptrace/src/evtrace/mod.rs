//! The `ap1000plus.evtrace` compact binary trace store (format v2).
//!
//! Chrome-trace JSON (`apobs::chrome_trace`) is the right interchange
//! format for small machines, but at the 1024-cell paper scale a timeline
//! runs to millions of events and the textual form is an order of
//! magnitude larger than the information it carries. This module stores
//! runs in one binary grammar, which both readers enforce (DESIGN §9
//! gives it field by field):
//!
//! ```text
//! MAGIC VERSION H (E|O|C|F)* X S Z footer
//! ```
//!
//! A magic + version prefix, so stale readers fail loudly; the header
//! (machine size, workload); events sections of delta/varint-encoded
//! [`TimelineEvent`](apobs::TimelineEvent)s, each with its own string
//! table so it decodes alone; the optional op trace (what MLSim replays),
//! counter ticks and fault schedule (RON); the seek index (each events
//! section's offset, event count and sim-time range); the summary, whose
//! absence marks a truncated file; the end marker; and a 12-byte footer,
//! the index's offset plus `XIDX`. Everything else multi-byte is a LEB128
//! varint (zigzag where deltas go negative).
//!
//! [`StreamWriter`] encodes incrementally against an [`std::io::Write`]
//! and implements [`apobs::EventSink`], so a machine of any size streams
//! its events straight to disk, in engine order, without ever
//! materializing the timeline — how every recording is written.
//! [`EvTrace::decode`] walks a whole file; [`EvTrace::decode_at`] reads
//! the footer and decodes only the sections a seek needs. Decoding is
//! strict: every length is validated against the remaining input, and no
//! input — truncated, bit-flipped, or hostile — panics a reader; it earns
//! a structured [`EvError`]. v1 files (no footer, file-global string
//! table) are refused with [`EvError::Version`].
//!
//! # Examples
//!
//! ```
//! use aptrace::evtrace::{EvHeader, EvTrace, StreamWriter};
//! use apobs::{Bucket, EvName, TimelineEvent, Unit};
//! use aputil::SimTime;
//!
//! let ev = TimelineEvent {
//!     cell: 3,
//!     unit: Unit::Cpu,
//!     name: EvName::Work,
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
//! assert_eq!(*t.streams[0].events, [ev]);
//! assert_eq!(t.summary.total_ns, 140);
//! ```
//!
//! `format` holds the constants, [`EvError`] and the document; `write`
//! the encoder; `read` one parser per piece of the grammar and the
//! whole-file reader; `seek` the seek reader.

mod format;
mod read;
mod seek;
mod write;

pub use format::{
    CounterTicks, EvError, EvHeader, EvIndexEntry, EvStream, EvSummary, EvTrace, MAGIC, VERSION,
};
pub use write::{encode, StreamWriter};

/// Documents and helpers the module's tests share.
#[cfg(test)]
mod fixtures {
    use super::format::*;
    use super::seek::read_footer;
    use crate::op::{Op, Trace};
    use apobs::{Bucket, EvName, TimelineEvent, Unit};
    use aputil::{CellId, SimTime};

    pub(super) fn read_index(bytes: &[u8]) -> Result<Vec<EvIndexEntry>, EvError> {
        read_footer(bytes).map(|(_, entries, _)| entries)
    }

    pub(super) fn ev(
        cell: u32,
        unit: Unit,
        name: EvName,
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

    pub(super) fn sample() -> EvTrace {
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
                    ev(0, Unit::Cpu, EvName::Work, 0, Some(100)),
                    ev(1, Unit::Net, EvName::Hop, 40, None),
                    ev(0, Unit::SendDma, EvName::SendDma, 120, Some(64)),
                ]
                .into(),
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::op::{Op, Trace};
    use apobs::{Bucket, EvName, TimelineEvent, Unit};
    use aputil::{CellId, SimTime};
    use proptest::prelude::*;

    fn arb_event() -> BoxedStrategy<TimelineEvent> {
        (
            0u32..2048,
            0usize..Unit::ALL.len(),
            0usize..EvName::ALL.len(),
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
                    name: EvName::ALL[name],
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
                        events: events.into(),
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
