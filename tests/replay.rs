//! Tier-1 replay-conformance gate.
//!
//! `tests/traces/cg_test.evtrace` is a checked-in recording of the CG
//! workload at test scale (regenerate with
//! `repro record --apps CG --scale test --trace-out tests/traces/cg_test.evtrace`
//! after an intentional emulator-timing change). The gate pins three
//! independent properties:
//!
//! 1. **Determinism, event for event** — a fresh CG run reproduces the
//!    recording exactly (strict conformance), and re-recording produces
//!    byte-identical files. This is a much finer pin than the final-time
//!    table in `tests/determinism.rs`: any reordering, re-timing, or
//!    renaming of any event on any cell unit fails here first.
//! 2. **Codec robustness** — corrupting or truncating the file yields a
//!    structured [`aptrace::EvError`], never a panic; a single mutated
//!    event fails strict replay with a two-sided context window.
//! 3. **Format economy** — the binary recording stays ≥5× smaller than
//!    the equivalent JSON serializations (`tracecat stats` pins the same
//!    ratio in CI).
//! 4. **Isolation** — a recording owns its writer, so recordings running
//!    side by side (streamed ones included) write exactly the bytes they
//!    write alone. Nothing here serializes: the whole suite runs under
//!    the default parallel test runner.

use apapps::Scale;
use apbench::record::{
    canonical, conformance, record_app, record_apps, remodel_rows, seek_report, trace_stats,
};
use apbench::ReplayMode;
use aptrace::{EvError, EvTrace};
use std::path::PathBuf;
use std::sync::Barrier;

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/traces/cg_test.evtrace"
    ))
}

fn golden() -> EvTrace {
    EvTrace::read_file(&golden_path()).expect("golden trace decodes")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ap1000plus-replay-{}-{name}", std::process::id()))
}

#[test]
fn golden_trace_decodes_to_the_pinned_shape() {
    let doc = golden();
    assert_eq!(doc.header.app, "CG");
    assert_eq!(doc.header.scale, "test");
    assert_eq!(doc.header.ncells, 4);
    // Must agree with the CG pin in tests/determinism.rs.
    assert_eq!(doc.summary.total_ns, 3_727_248);
    assert!(doc.summary.events > 1000, "CG records a real timeline");
    assert!(doc.ops.is_some(), "ops section present for remodeling");
}

#[test]
fn golden_trace_strict_replay_is_byte_identical() {
    let doc = golden();
    let conf = conformance(&doc, ReplayMode::Strict).expect("replay runs");
    assert!(conf.passed(), "{}", conf.render());

    // Re-recording writes the very same bytes.
    let path = tmp("rerecord.evtrace");
    record_app("CG", Scale::Test, None, None, &path, false).expect("re-record CG");
    let fresh = std::fs::read(&path).expect("read re-recording");
    let gold = std::fs::read(golden_path()).expect("read golden");
    assert_eq!(
        fresh, gold,
        "re-recording CG must reproduce the golden trace byte for byte \
         (if the emulator's timing changed intentionally, regenerate the golden trace)"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn one_mutated_event_fails_strict_with_a_context_window() {
    let mut doc = golden();
    let k = doc.streams[0].events.len() / 3;
    doc.streams[0].events[k].arg ^= 1;
    let conf = conformance(&doc, ReplayMode::Strict).expect("replay runs");
    assert!(!conf.passed());
    let window = conf.mismatch.as_deref().expect("context window rendered");
    assert!(window.contains("first mismatch"), "{window}");
    assert!(window.contains("recorded:") && window.contains("replayed:"));
    assert!(window.contains('>'), "mismatch marker present: {window}");
    // The mutation left timing untouched, so the lenient gate stays green.
    let lenient = conformance(&doc, ReplayMode::Lenient).expect("lenient replay");
    assert!(lenient.passed(), "{}", lenient.render());
}

#[test]
fn corruption_and_truncation_are_structured_errors_not_panics() {
    let bytes = std::fs::read(golden_path()).expect("read golden");
    // Every prefix decodes to an error, never a panic or an Ok.
    for len in [0, 1, 7, 8, 9, bytes.len() / 2, bytes.len() - 1] {
        let err = EvTrace::decode(&bytes[..len]).expect_err("prefix cannot decode");
        assert!(
            matches!(
                err,
                EvError::Truncated { .. } | EvError::Corrupt { .. } | EvError::BadMagic
            ),
            "unexpected error for prefix {len}: {err}"
        );
    }
    // A flipped byte mid-file is caught structurally (whatever it hits).
    let mut bad = bytes.clone();
    bad[1000] ^= 0xFF;
    assert!(EvTrace::decode(&bad).is_err(), "bit flip must not decode");
}

#[test]
fn streamed_and_buffered_recordings_agree_event_for_event() {
    let bpath = tmp("ep-buffered.evtrace");
    let spath = tmp("ep-streamed.evtrace");
    record_app("EP", Scale::Test, None, None, &bpath, false).expect("buffered record");
    record_app("EP", Scale::Test, None, None, &spath, true).expect("streamed record");
    let buffered = EvTrace::read_file(&bpath).expect("decode buffered");
    let streamed = EvTrace::read_file(&spath).expect("decode streamed");
    assert_eq!(buffered.summary.total_ns, streamed.summary.total_ns);
    assert_eq!(buffered.summary.events, streamed.summary.events);
    assert_eq!(
        canonical(buffered.all_events()),
        canonical(streamed.all_events()),
        "section order may differ; canonical event sets may not"
    );
    let _ = std::fs::remove_file(&bpath);
    let _ = std::fs::remove_file(&spath);
}

#[test]
fn concurrent_streamed_recordings_write_the_bytes_they_write_alone() {
    let alone = |app: &str| {
        let path = tmp(&format!("{app}-alone.evtrace"));
        record_app(app, Scale::Test, None, None, &path, true).expect("record alone");
        let bytes = std::fs::read(&path).expect("read solo recording");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let want = [("CG", alone("CG")), ("SCG", alone("SCG"))];
    for round in 0..4 {
        // Both recordings leave the barrier together, so their runs —
        // each streaming thousands of events — overlap.
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for (app, solo) in &want {
                let start = &start;
                s.spawn(move || {
                    let path = tmp(&format!("{app}-pair{round}.evtrace"));
                    start.wait();
                    record_app(app, Scale::Test, None, None, &path, true).expect("record");
                    let bytes = std::fs::read(&path).expect("read paired recording");
                    let _ = std::fs::remove_file(&path);
                    assert!(
                        bytes == *solo,
                        "round {round}: {app} recorded beside another streamed recording \
                         differs from {app} recorded alone ({} vs {} bytes)",
                        bytes.len(),
                        solo.len()
                    );
                });
            }
        });
    }
}

#[test]
fn streamed_record_apps_is_thread_count_invariant() {
    let apps = ["EP", "CG", "SCG"];
    let record = |threads: usize| {
        let outs: Vec<(String, PathBuf)> = apps
            .iter()
            .map(|a| (a.to_string(), tmp(&format!("{a}-t{threads}.evtrace"))))
            .collect();
        let machine = apcore::MachineConfig::new(1);
        for r in record_apps(&outs, Scale::Test, None, None, true, threads, &machine) {
            r.expect("streamed recording");
        }
        outs.into_iter().map(|(_, path)| {
            let bytes = std::fs::read(&path).expect("read recording");
            let _ = std::fs::remove_file(&path);
            bytes
        })
    };
    for (app, (serial, parallel)) in apps.iter().zip(record(1).zip(record(2))) {
        assert!(
            serial == parallel,
            "{app}: --stream at 2 threads differs from 1 thread"
        );
    }
}

#[test]
fn seek_reconstructs_state_inside_the_recorded_run() {
    let doc = golden();
    let dump = seek_report(&doc, doc.summary.total_ns / 2, None);
    assert!(dump.contains("state at t="), "{dump}");
    assert!(dump.contains("in-flight transfers"), "{dump}");
    assert!(dump.contains("queue depths"), "{dump}");
    assert!(dump.contains("blocked cells"), "{dump}");
    // Past-the-end seeks warn instead of failing.
    let past = seek_report(&doc, doc.summary.total_ns + 1, None);
    assert!(past.contains("past the end"), "{past}");
}

#[test]
fn remodel_emits_a_versioned_bench_report_without_the_emulator() {
    let doc = golden();
    let rows = remodel_rows(&doc, &[0.5, 1.0]).expect("remodel");
    assert_eq!(rows.len(), 2);
    let report = apbench::bench_report(&rows, Scale::Test, Some("replay-gate"));
    let parsed = aputil::Json::parse(&report.to_string()).expect("report parses");
    assert_eq!(
        parsed.get("schema").and_then(aputil::Json::as_str),
        Some(apbench::BENCH_SCHEMA)
    );
    assert_eq!(
        parsed.get("version").and_then(aputil::Json::as_u64),
        Some(1)
    );
    let apps = parsed.get("apps").and_then(aputil::Json::as_arr).unwrap();
    assert_eq!(apps.len(), 2);
}

#[test]
fn binary_recording_is_at_least_5x_smaller_than_json() {
    let doc = golden();
    let bytes = std::fs::metadata(golden_path()).unwrap().len();
    let st = trace_stats(&doc, bytes);
    assert!(
        st.ratio() >= 5.0,
        "acceptance: binary must be >=5x smaller than the JSON equivalent, got {:.1}x",
        st.ratio()
    );
}
