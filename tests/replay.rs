//! Tier-1 replay-conformance gate.
//!
//! `tests/traces/cg_test.evtrace` is a checked-in recording of the CG
//! workload at test scale, in engine order like every recording
//! (regenerate with
//! `repro record --apps CG --scale test --trace-out tests/traces/cg_test.evtrace`
//! after an intentional emulator-timing change). The gate pins four
//! independent properties:
//!
//! 1. **Determinism, event for event** — a fresh CG run reproduces the
//!    recording exactly and in order (strict conformance), and
//!    re-recording produces byte-identical files. This is a much finer
//!    pin than the final-time table in `tests/determinism.rs`: any
//!    reordering, re-timing, or renaming of any event on any cell unit
//!    fails here first. The golden file's sorted re-encode still hits the
//!    digest of the sorted-order golden it replaced.
//! 2. **Codec robustness** — corrupting or truncating the file yields a
//!    structured [`aptrace::EvError`], never a panic; a single mutated,
//!    missing or extra event fails strict replay — at any machine size —
//!    with a two-sided context window naming the index.
//! 3. **Format economy** — the binary recording stays ≥5× smaller than
//!    the equivalent JSON serializations (`tracecat stats` pins the same
//!    ratio in CI).
//! 4. **Isolation** — a recording owns its writer, so recordings running
//!    side by side write exactly the bytes they write alone. Nothing
//!    here serializes: the whole suite runs under the default parallel
//!    test runner.

mod common;

use apapps::Scale;
use apbench::record::{
    conformance, fmt_event, record_app_on, record_apps, remodel_rows, seek_report, trace_stats,
};
use apbench::{RecordedTrace, ReplayMode};
use aptrace::{EvError, EvTrace};
use std::path::{Path, PathBuf};
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

/// Flips one bit of recorded event `k`'s `arg`; returns how a context
/// window prints what is now recorded there and what a replay produces.
fn mutate(doc: &mut EvTrace, k: usize) -> (String, String) {
    let event = &mut doc.streams[0].events[k];
    let replayed = fmt_event(event);
    event.arg ^= 1;
    (fmt_event(event), replayed)
}

fn record(app: &str, size: Option<u32>, path: &Path) -> RecordedTrace {
    let machine = apcore::MachineConfig::new(1);
    record_app_on(app, Scale::Test, size, None, path, &machine)
        .unwrap_or_else(|e| panic!("record {app}: {e}"))
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
    record("CG", None, &path);
    let fresh = std::fs::read(&path).expect("read re-recording");
    let gold = std::fs::read(golden_path()).expect("read golden");
    assert_eq!(
        fresh, gold,
        "re-recording CG must reproduce the golden trace byte for byte \
         (if the emulator's timing changed intentionally, regenerate the golden trace)"
    );
    let _ = std::fs::remove_file(&path);
}

/// The sorted-order golden this file replaced: 50 820 bytes.
const SORTED_GOLDEN_BYTES: usize = 50_820;
const SORTED_GOLDEN_FNV1A: u64 = 0x6dfc_4984_02e3_0fad;

#[test]
fn golden_trace_sorted_reencode_hits_the_sorted_golden_digest() {
    let gold = std::fs::read(golden_path()).expect("read golden");
    assert_eq!(gold.len(), 50_017, "engine-order golden length moved");
    assert_eq!(aputil::hash::fnv1a_64(&gold), 0x95dd_46f7_150c_1dd8);
    let sorted = common::sorted_reencode(&gold);
    assert_eq!(sorted.len(), SORTED_GOLDEN_BYTES);
    assert_eq!(
        aputil::hash::fnv1a_64(&sorted),
        SORTED_GOLDEN_FNV1A,
        "engine order must hold exactly the events the sorted golden held"
    );
}

#[test]
fn one_mutated_event_fails_strict_with_a_context_window() {
    let mut doc = golden();
    let k = doc.streams[0].events.len() / 3;
    let (expected, got) = mutate(&mut doc, k);
    let conf = conformance(&doc, ReplayMode::Strict).expect("replay runs");
    assert!(!conf.passed());
    let window = conf.mismatch.as_deref().expect("context window rendered");
    assert!(
        window.contains(&format!("first mismatch at event {k} ")),
        "{window}"
    );
    assert!(window.contains("recorded:") && window.contains("replayed:"));
    // Both sides mark index k, with three events of context either side.
    for side in [&expected, &got] {
        assert!(
            window.contains(&format!("  > {k:>8}  {side}\n")),
            "{window}"
        );
    }
    let ctx = |i: usize| format!("    {i:>8}  {}\n", fmt_event(&doc.streams[0].events[i]));
    for i in (k - 3..k).chain(k + 1..=k + 3) {
        assert_eq!(window.matches(&ctx(i)).count(), 2, "event {i}: {window}");
    }
    assert_eq!(window.lines().count(), 1 + 2 * 8, "{window}");
    // The mutation left timing untouched, so the lenient gate stays
    // green — and prints the same first divergence.
    let lenient = conformance(&doc, ReplayMode::Lenient).expect("lenient replay");
    assert!(lenient.passed(), "{}", lenient.render());
    assert_eq!(lenient.mismatch, conf.mismatch);
    assert!(lenient.render().contains("first mismatch"));
}

/// Which sides of a context window say their stream ends at `index`.
fn ends_at(window: &str, index: usize) -> (bool, bool) {
    let marker = format!("  > {index:>8}  (stream ends here)");
    let (recorded, replayed) = window
        .split_once("  replayed:\n")
        .expect("two-sided window");
    (recorded.contains(&marker), replayed.contains(&marker))
}

#[test]
fn a_missing_or_extra_event_ends_the_right_stream() {
    let gold = golden();
    let n = gold.summary.events as usize;
    let strict = |doc: &EvTrace| {
        let conf = conformance(doc, ReplayMode::Strict).expect("replay runs");
        assert!(!conf.passed());
        // Lenient gates on final time alone: same divergence, still green.
        let lenient = conformance(doc, ReplayMode::Lenient).expect("lenient replay");
        assert!(lenient.passed());
        assert_eq!(lenient.mismatch, conf.mismatch);
        conf
    };

    // Recording one event short: it ends where the fresh run goes on.
    let mut short = gold.clone();
    let last = short.streams.last_mut().expect("events section");
    let dropped = last.events.pop().expect("nonempty section");
    let conf = strict(&short);
    assert_eq!((conf.recorded_events, conf.replayed_events), (n - 1, n));
    let window = conf.mismatch.expect("window");
    let at = format!("first mismatch at event {} ", n - 1);
    assert!(window.contains(&at), "{window}");
    assert_eq!(ends_at(&window, n - 1), (true, false), "{window}");
    let got = format!("  > {:>8}  {}", n - 1, fmt_event(&dropped));
    assert!(window.contains(&got), "{window}");

    // Recording one event long: the fresh run ends first.
    let mut long = gold.clone();
    let last = long.streams.last_mut().expect("events section");
    last.events.push(dropped.clone());
    let conf = strict(&long);
    assert_eq!((conf.recorded_events, conf.replayed_events), (n + 1, n));
    let window = conf.mismatch.expect("window");
    let at = format!("first mismatch at event {n} ");
    assert!(window.contains(&at), "{window}");
    assert_eq!(ends_at(&window, n), (false, true), "{window}");
    let expected = format!("  > {n:>8}  {}", fmt_event(&dropped));
    assert!(window.contains(&expected), "{window}");
}

#[test]
fn strict_replay_works_past_1024_cells() {
    // EP's test instance is too small to deal out to 2048 cells.
    let path = tmp("ep2048.evtrace");
    let machine = apcore::MachineConfig::new(1);
    let rec = record_app_on("EP", Scale::Paper, Some(2048), None, &path, &machine)
        .expect("record EP-2048");
    let mut doc = EvTrace::read_file(&path).expect("decode EP-2048");
    let _ = std::fs::remove_file(&path);
    assert_eq!(doc.header.ncells, 2048);
    let conf = conformance(&doc, ReplayMode::Strict).expect("strict replay at 2048 cells");
    assert!(conf.passed(), "{}", conf.render());
    assert_eq!(conf.replayed_events as u64, rec.events);

    let k = doc.streams[0].events.len() / 2;
    let (expected, got) = mutate(&mut doc, k);
    let conf = conformance(&doc, ReplayMode::Strict).expect("replay of the mutated recording");
    assert!(!conf.passed());
    let report = conf.render();
    assert!(report.contains("FAIL"), "{report}");
    assert!(
        report.contains(&format!("first mismatch at event {k} ")),
        "{report}"
    );
    assert!(
        report.contains(&format!("> {k:>8}  {expected}")),
        "{report}"
    );
    assert!(report.contains(&format!("> {k:>8}  {got}")), "{report}");
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
fn concurrent_streamed_recordings_write_the_bytes_they_write_alone() {
    let alone = |app: &str| {
        let path = tmp(&format!("{app}-alone.evtrace"));
        record(app, None, &path);
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
                    record(app, None, &path);
                    let bytes = std::fs::read(&path).expect("read paired recording");
                    let _ = std::fs::remove_file(&path);
                    assert!(
                        bytes == *solo,
                        "round {round}: {app} recorded beside another recording \
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
        for r in record_apps(&outs, Scale::Test, None, None, threads, &machine) {
            r.expect("recording");
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
            "{app}: recorded at 2 threads differs from 1 thread"
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

/// A `.evtrace` is outside input: one whose ops section names a cell the
/// machine does not have is an inconsistent trace — `repro remodel` exit
/// 1 and a message naming the op — not a torus index panic (exit 101, or
/// `job_crashed` from `apserve`).
#[test]
fn remodel_rejects_an_op_naming_a_cell_outside_the_machine() {
    let mut doc = golden();
    let ops = doc.ops.as_mut().expect("golden has an ops section");
    let pe = ops.pe_mut(apcore::CellId::new(1));
    let (k, peer) = (pe.ops.iter_mut().enumerate())
        .find_map(|(k, op)| match op {
            aptrace::Op::Put { dst, .. } | aptrace::Op::Send { dst, .. } => Some((k, dst)),
            _ => None,
        })
        .expect("CG cell 1 sends");
    *peer = apcore::CellId::new(peer.as_u32() ^ 64);
    let named = format!(
        "pe1 op {k} names {peer}, but the trace has {} cells",
        doc.header.ncells
    );
    let Err(err) = remodel_rows(&doc, &[1.0]) else {
        panic!("an inconsistent trace remodels");
    };
    assert!(err.contains(&named), "{err}");

    let path = tmp("stray-peer.evtrace");
    std::fs::write(&path, aptrace::evtrace::encode(&doc)).expect("write the crafted trace");
    let argv = ["remodel".to_string(), path.display().to_string()];
    assert_eq!(apbench::cli::REPRO.main(&argv), 1);
    let _ = std::fs::remove_file(&path);
}

/// An op whose operand is too large to time — `flops = u64::MAX` — is an
/// inconsistent trace as well: `repro remodel` exit 1 and a message
/// naming the op and the value, not "SimTime addition overflowed" (exit
/// 101, or `job_crashed` from `apserve`).
#[test]
fn remodel_rejects_an_astronomic_operand() {
    let mut doc = golden();
    let ops = doc.ops.as_mut().expect("golden has an ops section");
    let pe = ops.pe_mut(apcore::CellId::new(1));
    let k = (pe.ops.iter_mut().enumerate())
        .find_map(|(k, op)| match op {
            aptrace::Op::Work { flops } => {
                *flops = u64::MAX;
                Some(k)
            }
            _ => None,
        })
        .expect("CG cell 1 computes");
    let named = format!("pe1 op {k} carries flops {}, past the", u64::MAX);
    let Err(err) = remodel_rows(&doc, &[1.0]) else {
        panic!("a trace with an astronomic operand remodels");
    };
    assert!(err.contains(&named), "{err}");

    let path = tmp("astronomic-flops.evtrace");
    std::fs::write(&path, aptrace::evtrace::encode(&doc)).expect("write the crafted trace");
    let argv = ["remodel".to_string(), path.display().to_string()];
    assert_eq!(apbench::cli::REPRO.main(&argv), 1);
    let _ = std::fs::remove_file(&path);
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
