//! Chrome-trace-event JSON export.
//!
//! Produces the [Trace Event Format] consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`: one *process* per
//! timeline source (emulator, each MLSim model), one *thread* (track) per
//! `(cell, hardware unit)` pair, duration slices (`"ph":"X"`) for spans and
//! instants (`"ph":"i"`) for point events. Slices carry their Figure-8
//! bucket as the event category and a reserved color name, so the
//! exec/rts/overhead/idle lanes read directly off the timeline.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Examples
//!
//! ```
//! use apobs::{chrome_trace, Bucket, EvName, Timeline, TimelineEvent, Unit};
//! use aputil::SimTime;
//!
//! let t = Timeline::from_events("emulator", vec![TimelineEvent {
//!     cell: 0, unit: Unit::Cpu, name: EvName::Work,
//!     start: SimTime::ZERO, dur: Some(SimTime::from_nanos(2000)),
//!     bucket: Bucket::Exec, arg: 100, tid: 0,
//! }]);
//! let json = chrome_trace(&[&t]);
//! assert!(json.get("traceEvents").is_some());
//! ```

use crate::event::Unit;
use crate::timeline::Timeline;
use aputil::Json;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

/// Thread id of a `(cell, unit)` track inside its process.
fn tid(cell: u32, unit: Unit) -> u64 {
    cell as u64 * Unit::ALL.len() as u64 + unit.index() as u64
}

fn micros(t: aputil::SimTime) -> Json {
    // The format's `ts`/`dur` are microseconds; fractional values are
    // allowed, preserving nanosecond resolution.
    Json::F(t.as_nanos() as f64 / 1000.0)
}

/// The `process_name` metadata event for one timeline.
fn process_meta(pid: u64, source: &str) -> Json {
    Json::obj([
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("name", Json::from("process_name")),
        ("args", Json::obj([("name", Json::from(source))])),
    ])
}

/// The `thread_name` + `thread_sort_index` metadata events for one track.
fn track_meta(pid: u64, cell: u32, unit: Unit) -> [Json; 2] {
    let t = tid(cell, unit);
    [
        Json::obj([
            ("ph", Json::from("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(t)),
            ("name", Json::from("thread_name")),
            (
                "args",
                Json::obj([("name", Json::from(format!("cell{cell} {}", unit.label())))]),
            ),
        ]),
        Json::obj([
            ("ph", Json::from("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(t)),
            ("name", Json::from("thread_sort_index")),
            ("args", Json::obj([("sort_index", Json::from(t))])),
        ]),
    ]
}

/// One timeline event as a trace-event object.
fn event_json(e: &crate::event::TimelineEvent, pid: u64) -> Json {
    let mut members = vec![
        ("name".to_string(), Json::from(e.name.as_str())),
        ("cat".to_string(), Json::from(e.bucket.label())),
        ("pid".to_string(), Json::from(pid)),
        ("tid".to_string(), Json::from(tid(e.cell, e.unit))),
        ("ts".to_string(), micros(e.start)),
    ];
    match e.dur {
        Some(d) => {
            members.insert(0, ("ph".to_string(), Json::from("X")));
            members.push(("dur".to_string(), micros(d)));
            members.push(("cname".to_string(), Json::from(e.bucket.chrome_color())));
        }
        None => {
            members.insert(0, ("ph".to_string(), Json::from("i")));
            // Thread-scoped instant.
            members.push(("s".to_string(), Json::from("t")));
        }
    }
    let mut args = vec![("arg".to_string(), Json::from(e.arg))];
    if e.tid != 0 {
        // Transfer-chain id: lets Perfetto queries group one
        // PUT/GET's issue→DMA→net→delivery events across tracks.
        args.push(("xfer".to_string(), Json::from(e.tid)));
    }
    members.push(("args".to_string(), Json::Obj(args)));
    Json::Obj(members)
}

/// Feeds every trace event for `timelines` (then `extra`, verbatim) to
/// `emit`, in the document's canonical order. Both the in-memory and the
/// streaming serializer run through here, so they cannot diverge.
fn for_each_event<E>(
    timelines: &[&Timeline],
    extra: &[Json],
    mut emit: impl FnMut(&Json) -> Result<(), E>,
) -> Result<(), E> {
    for (i, timeline) in timelines.iter().enumerate() {
        let pid = i as u64 + 1;
        emit(&process_meta(pid, &timeline.source))?;

        // Name and order every track that has at least one event.
        let tracks: BTreeSet<(u32, Unit)> =
            timeline.events.iter().map(|e| (e.cell, e.unit)).collect();
        for &(cell, unit) in &tracks {
            for m in track_meta(pid, cell, unit) {
                emit(&m)?;
            }
        }

        let mut sorted = (*timeline).clone();
        sorted.sort();
        for e in &sorted.events {
            emit(&event_json(e, pid))?;
        }
    }
    for j in extra {
        emit(j)?;
    }
    Ok(())
}

/// Builds the Chrome-trace JSON document for the given timelines. Each
/// timeline becomes its own process (`pid` = position + 1); events are
/// sorted so every track's timestamps are monotonically non-decreasing.
///
/// For big traces prefer [`stream_chrome_trace`], which writes the same
/// bytes without materializing the document.
pub fn chrome_trace(timelines: &[&Timeline]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for_each_event::<std::convert::Infallible>(timelines, &[], |e| {
        events.push(e.clone());
        Ok(())
    })
    .unwrap();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Streams the Chrome trace for `timelines` into `w`, one event at a
/// time — the serialized bytes are identical to
/// `chrome_trace(timelines).to_string()` but peak memory is one event,
/// not the whole document (the scale limit the in-memory builder hits on
/// big traces). `extra` events (e.g. `apmon` Perfetto counter tracks) are
/// appended verbatim to the event array. String escaping is
/// [`aputil::write_json_escaped`], shared with `Json`'s own writer.
pub fn stream_chrome_trace<W: Write>(
    w: &mut W,
    timelines: &[&Timeline],
    extra: &[Json],
) -> std::io::Result<()> {
    w.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for_each_event(timelines, extra, |e| {
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        write!(w, "{e}")
    })?;
    w.write_all(b"],\"displayTimeUnit\":\"ms\"}")
}

/// Writes the Chrome trace for `timelines` to `path` (streaming). The
/// file is whole or absent: a failed write leaves `path` as it was.
pub fn write_chrome_trace(path: &Path, timelines: &[&Timeline]) -> std::io::Result<()> {
    write_chrome_trace_with(path, timelines, &[])
}

/// [`write_chrome_trace`] with extra pre-built events (counter tracks)
/// appended to the event array.
pub fn write_chrome_trace_with(
    path: &Path,
    timelines: &[&Timeline],
    extra: &[Json],
) -> std::io::Result<()> {
    aputil::write_replacing(path, |w| stream_chrome_trace(w, timelines, extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Bucket, EvName, TimelineEvent};
    use aputil::SimTime;

    fn sample_timeline() -> Timeline {
        let mut t = Timeline::from_events("emulator", Vec::new());
        // Deliberately emitted out of order to prove the exporter sorts.
        let ev = |cell, unit, name, start_ns: u64, dur_ns: Option<u64>, bucket| TimelineEvent {
            cell,
            unit,
            name,
            start: SimTime::from_nanos(start_ns),
            dur: dur_ns.map(SimTime::from_nanos),
            bucket,
            arg: 7,
            tid: 0,
        };
        t.events.push(ev(
            0,
            Unit::Cpu,
            EvName::WaitFlag,
            5000,
            Some(300),
            Bucket::Idle,
        ));
        t.events
            .push(ev(0, Unit::Cpu, EvName::Work, 0, Some(2000), Bucket::Exec));
        t.events.push(ev(
            1,
            Unit::SendDma,
            EvName::SendDma,
            100,
            Some(600),
            Bucket::Hw,
        ));
        t.events
            .push(ev(0, Unit::Cpu, EvName::Rts, 2000, Some(500), Bucket::Rts));
        t.events
            .push(ev(0, Unit::Queue, EvName::Enqueue, 40, None, Bucket::Hw));
        t
    }

    #[test]
    fn export_has_required_fields_and_monotonic_tracks() {
        let t = sample_timeline();
        let doc = chrome_trace(&[&t]);
        let text = doc.to_string();
        // Re-parse: the exported document must be valid JSON.
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());

        let mut last_ts: std::collections::HashMap<(u64, u64), f64> =
            std::collections::HashMap::new();
        let mut slices = 0;
        let mut instants = 0;
        for e in events {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .expect("every event has ph");
            let pid = e
                .get("pid")
                .and_then(Json::as_u64)
                .expect("every event has pid");
            match ph {
                "M" => continue,
                "X" => {
                    slices += 1;
                    assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
                }
                "i" => instants += 1,
                other => panic!("unexpected ph {other}"),
            }
            let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let prev = last_ts.insert((pid, tid), ts).unwrap_or(f64::MIN);
            assert!(
                ts >= prev,
                "track ({pid},{tid}) went backwards: {prev} -> {ts}"
            );
        }
        assert_eq!(slices, 4);
        assert_eq!(instants, 1);
    }

    #[test]
    fn processes_and_threads_are_named() {
        let t = sample_timeline();
        let doc = chrome_trace(&[&t]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let proc_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert_eq!(proc_names, ["emulator"]);
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(thread_names.contains(&"cell0 cpu"));
        assert!(thread_names.contains(&"cell1 send-dma"));
        assert!(thread_names.contains(&"cell0 msc-queue"));
    }

    #[test]
    fn streaming_writer_matches_in_memory_bytes() {
        let t = sample_timeline();
        let mut b = sample_timeline();
        // A hostile source name exercises the shared escaping path.
        b.source = "mlsim \"q\"\\\n\ttab\u{1}".to_string();
        let in_memory = chrome_trace(&[&t, &b]).to_string();
        let mut streamed = Vec::new();
        stream_chrome_trace(&mut streamed, &[&t, &b], &[]).unwrap();
        assert_eq!(in_memory.as_bytes(), &streamed[..]);
        // And the escaping really is aputil's: round-trips through its
        // parser to the original string.
        let parsed = Json::parse(&in_memory).unwrap();
        let names: Vec<&str> = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(names.contains(&b.source.as_str()));
    }

    #[test]
    fn extra_events_are_appended_verbatim() {
        let t = sample_timeline();
        let counter = Json::obj([
            ("ph", Json::from("C")),
            ("pid", Json::from(9u64)),
            ("name", Json::from("queue_depth")),
            ("ts", Json::F(1.5)),
            ("args", Json::obj([("value", Json::from(3u64))])),
        ]);
        let mut streamed = Vec::new();
        stream_chrome_trace(&mut streamed, &[&t], std::slice::from_ref(&counter)).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&streamed).unwrap()).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(last.get("name").and_then(Json::as_str), Some("queue_depth"));
    }

    #[test]
    fn multiple_timelines_get_distinct_pids() {
        let a = sample_timeline();
        let mut b = sample_timeline();
        b.source = "mlsim/ap1000+".to_string();
        let doc = chrome_trace(&[&a, &b]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let pids: BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
