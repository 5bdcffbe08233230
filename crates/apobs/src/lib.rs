//! # apobs — observability for the AP1000+ reproduction
//!
//! The instrumentation substrate the rest of the workspace reports
//! through: a zero-overhead-when-disabled event [`Recorder`] producing
//! sim-time [`TimelineEvent`]s, dependency-free log2-bucket histograms
//! ([`Hist`]), the unified [`Counters`] block surfaced on run reports, and
//! a Chrome-trace-event exporter ([`chrome_trace`]) whose output opens
//! directly in Perfetto.
//!
//! The same event vocabulary is emitted by the `apcore` emulator kernel,
//! the `apmsc`/`apnet` hardware models, and `mlsim` replay, so emulator
//! and model timelines are directly comparable side by side.
//!
//! # Examples
//!
//! ```
//! use apobs::{Bucket, Recorder, Timeline, TimelineMode, Unit, chrome_trace};
//! use aputil::SimTime;
//!
//! let mut rec = Recorder::new(TimelineMode::Full);
//! rec.span(0, Unit::Cpu, "work", SimTime::ZERO, SimTime::from_nanos(500), Bucket::Exec, 25);
//! rec.instant(0, Unit::Queue, "enqueue", SimTime::from_nanos(500), Bucket::Hw, 1);
//! let timeline = Timeline::from_events("emulator", rec.take_events());
//! let doc = chrome_trace(&[&timeline]);
//! assert!(doc.to_string().contains("traceEvents"));
//! ```

pub mod chrome;
pub mod counters;
pub mod critpath;
pub mod event;
pub mod hist;
pub mod latency;
pub mod recorder;
pub mod timeline;

pub use chrome::{chrome_trace, stream_chrome_trace, write_chrome_trace, write_chrome_trace_with};
pub use counters::{CacheCounters, Counters};
pub use critpath::{critical_path, CritPath, CritStep, GatingOp};
pub use event::{Bucket, BucketTimes, TimelineEvent, Unit};
pub use hist::Hist;
pub use latency::{Seg, SegmentHists, XferKind, XferLat, XferTracker};
pub use recorder::{EventSink, Recorder, SharedSink, TimelineMode};
pub use timeline::Timeline;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Histogram invariant: every sample lands in the bucket whose
        /// range contains it, and count/sum/min/max agree with the samples.
        #[test]
        fn hist_matches_reference(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Hist::new();
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
            prop_assert_eq!(h.sum(), samples.iter().map(|&s| s as u128).sum::<u128>());
            prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
            prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
            let total: u64 = (0..64).map(|i| h.bucket_count(i)).sum();
            prop_assert_eq!(total, samples.len() as u64);
        }

        /// Merging two independently-recorded histograms is exactly
        /// equivalent to recording the concatenated sample stream into
        /// one histogram — the property the parallel sweep driver's
        /// counter aggregation rests on.
        #[test]
        fn hist_merge_equals_concatenated_recording(
            xs in proptest::collection::vec(any::<u64>(), 0..120),
            ys in proptest::collection::vec(any::<u64>(), 0..120),
        ) {
            let mut a = Hist::new();
            for &v in &xs {
                a.record(v);
            }
            let mut b = Hist::new();
            for &v in &ys {
                b.record(v);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            let mut concat = Hist::new();
            for &v in xs.iter().chain(ys.iter()) {
                concat.record(v);
            }
            prop_assert_eq!(&merged, &concat);
            // Percentile queries agree too (same underlying state).
            for q in [0.0, 0.5, 0.99, 1.0] {
                prop_assert_eq!(merged.p(q), concat.p(q));
            }
        }

        /// The Chrome exporter always yields parseable JSON with monotonic
        /// per-track timestamps, for arbitrary event soups.
        #[test]
        fn chrome_export_always_parses(
            evs in proptest::collection::vec(
                (0u32..4, 0usize..5, 0u64..100_000, 0u64..5_000, any::<bool>()),
                0..50,
            )
        ) {
            let mut t = Timeline::new("fuzz");
            for (cell, unit, start, dur, instant) in evs {
                t.events.push(TimelineEvent {
                    cell,
                    unit: Unit::ALL[unit],
                    name: "e",
                    start: aputil::SimTime::from_nanos(start),
                    dur: if instant { None } else { Some(aputil::SimTime::from_nanos(dur)) },
                    bucket: Bucket::Hw,
                    arg: 0,
                    tid: 0,
                });
            }
            let doc = chrome_trace(&[&t]);
            let parsed = aputil::Json::parse(&doc.to_string()).unwrap();
            let events = parsed.get("traceEvents").and_then(aputil::Json::as_arr).unwrap();
            let mut last: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
            for e in events {
                if e.get("ph").and_then(aputil::Json::as_str) == Some("M") {
                    continue;
                }
                let tid = e.get("tid").and_then(aputil::Json::as_u64).unwrap();
                let ts = e.get("ts").and_then(aputil::Json::as_f64).unwrap();
                let prev = last.insert(tid, ts).unwrap_or(f64::MIN);
                prop_assert!(ts >= prev, "tid {} regressed {} -> {}", tid, prev, ts);
            }
        }

        /// Critical-path invariants over arbitrary event soups: the path
        /// is a valid chain (disjoint, chronologically ordered steps) and
        /// the attribution is exact — step durations plus unattributed
        /// time equal the run total, i.e. percentages sum to 100.
        #[test]
        fn critical_path_is_a_valid_exact_chain(
            evs in proptest::collection::vec(
                (0u32..4, 0usize..5, 0u64..100_000, 0u64..5_000, 0u64..4, 0usize..5),
                1..60,
            )
        ) {
            let mut t = Timeline::new("fuzz");
            for (cell, unit, start, dur, tid, kind) in evs {
                let bucket = [Bucket::Exec, Bucket::Rts, Bucket::Overhead, Bucket::Idle, Bucket::Hw][kind];
                t.events.push(TimelineEvent {
                    cell,
                    unit: Unit::ALL[unit],
                    name: "e",
                    start: aputil::SimTime::from_nanos(start),
                    dur: if kind == 4 && dur % 3 == 0 { None } else { Some(aputil::SimTime::from_nanos(dur)) },
                    bucket,
                    arg: 0,
                    tid,
                });
            }
            let p = critical_path(&t);
            let total = t.events.iter().map(TimelineEvent::end).max().unwrap();
            prop_assert_eq!(p.total, total);
            for w in p.steps.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "steps overlap: {:?} then {:?}", w[0], w[1]);
            }
            prop_assert_eq!(p.attributed() + p.unattributed, p.total);
        }

        /// For a fully serialized trace (one cell, one unit, back-to-back
        /// spans) the critical path is the whole trace: its length equals
        /// the total run time with nothing unattributed.
        #[test]
        fn critical_path_of_serialized_trace_is_total(
            durs in proptest::collection::vec(1u64..2_000, 1..40)
        ) {
            let mut t = Timeline::new("serial");
            let mut at = 0u64;
            for d in durs {
                t.events.push(TimelineEvent {
                    cell: 0,
                    unit: Unit::Cpu,
                    name: "work",
                    start: aputil::SimTime::from_nanos(at),
                    dur: Some(aputil::SimTime::from_nanos(d)),
                    bucket: Bucket::Exec,
                    arg: 0,
                    tid: 0,
                });
                at += d;
            }
            let p = critical_path(&t);
            prop_assert_eq!(p.total, aputil::SimTime::from_nanos(at));
            prop_assert_eq!(p.attributed(), p.total);
            prop_assert_eq!(p.unattributed, aputil::SimTime::ZERO);
        }
    }
}
