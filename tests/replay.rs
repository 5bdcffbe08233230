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
//!    pin than the final times in the `test/bench.json` manifest row:
//!    any reordering, re-timing, or renaming of any event on any cell
//!    unit fails here first. `tests/determinism.rs` pins the golden's bytes to
//!    its `test/CG.evtrace` row of `results/ARTIFACTS.fnv`.
//! 2. **Codec robustness** — corrupting or truncating the file yields a
//!    structured [`aptrace::EvError`], never a panic; a single mutated,
//!    missing or extra event fails strict replay — at any machine size —
//!    with a two-sided context window naming the index.
//! 3. **Format economy** — the binary recording stays ≥5× smaller than
//!    its Chrome-trace JSON timeline, and `tracecat stats --min-ratio 5`
//!    gates on the same ratio.
//! 4. **Isolation** — a recording owns its writer, so recordings running
//!    side by side write exactly the bytes they write alone. Nothing
//!    here serializes: the whole suite runs under the default parallel
//!    test runner.

use apapps::Scale;
use apbench::record::{
    conformance, fmt_event, record_app_on, record_apps, remodel_rows, seek_report, trace_stats,
};
use apbench::{RecordedTrace, ReplayMode};
use apobs::EvName;
use aptrace::{EvError, EvTrace};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

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
    let event = &mut Arc::make_mut(&mut doc.streams[0].events)[k];
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
    // Must agree with the `test/CG.evtrace` row of results/ARTIFACTS.fnv.
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
    let dropped = Arc::make_mut(&mut last.events)
        .pop()
        .expect("nonempty section");
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
    Arc::make_mut(&mut last.events).push(dropped);
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

    // One byte overwritten near the head: `repro replay` fails, exit 1.
    let mut bad = bytes;
    bad[100] = 0xFF;
    let path = tmp("corrupt.evtrace");
    std::fs::write(&path, &bad).expect("write the corrupted trace");
    let file = path.display().to_string();
    assert_eq!(apbench::cli::REPRO.main(&argv(&["replay", &file])), 1);
    let _ = std::fs::remove_file(&path);
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// The commands that read a recording, on the golden one: the strict
/// replay, a seek, and `tracecat`'s header and size-ratio gate.
#[test]
fn the_recording_commands_accept_the_golden_trace() {
    let file = golden_path().display().to_string();
    let repro = |args: &[&str]| apbench::cli::REPRO.main(&argv(args));
    let tracecat = |args: &[&str]| apbench::cli::TRACECAT.main(&argv(args));
    assert_eq!(repro(&["replay", &file]), 0);
    assert_eq!(repro(&["replay", &file, "--at", "1800000"]), 0);
    assert_eq!(tracecat(&["header", &file]), 0);
    assert_eq!(tracecat(&["stats", &file, "--min-ratio", "5"]), 0);
}

/// Past the hardware limit, two recordings side by side: CG and SCG on
/// 2048 cells at two threads (~300 MB of trace), then CG's strict replay.
#[test]
#[ignore = "records 300 MB; CI runs it in release"]
fn a_2048_cell_recording_made_beside_another_replays_strictly() {
    let dir = tmp("big");
    let out = dir.display().to_string();
    let repro = |args: &[&str]| apbench::cli::REPRO.main(&argv(args));
    let record = [
        "record", "--apps", "CG,SCG", "--scale", "test", "--size", "2048",
    ];
    assert_eq!(
        repro(&[&record[..], &["--out-dir", &out, "--threads", "2"]].concat()),
        0
    );
    let cg = dir.join("CG.evtrace").display().to_string();
    let code = repro(&["replay", &cg]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 0);
}

#[test]
fn a_fresh_ft_recording_replays_strictly() {
    let path = tmp("ft.evtrace");
    let rec = record("FT", None, &path);
    let doc = EvTrace::read_file(&path).expect("decode FT");
    let _ = std::fs::remove_file(&path);
    let conf = conformance(&doc, ReplayMode::Strict).expect("strict replay of FT");
    assert!(conf.passed(), "{}", conf.render());
    assert_eq!(conf.replayed_events as u64, rec.events);
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

/// A remodel is a live run minus the emulator: `remodel_rows` on a fresh
/// CG recording and `run_sweep` of CG at the same factors replay the same
/// trace through the same step, so every model result — totals, per-PE
/// breakdowns, counters — and the Table-3 statistics are identical; only
/// the row names differ.
#[test]
fn a_remodel_equals_a_live_run() {
    let path = tmp("remodel-vs-live.evtrace");
    record("CG", None, &path);
    let doc = EvTrace::read_file(&path).expect("decode");
    let _ = std::fs::remove_file(&path);
    let factors = [0.5, 1.0];
    let remodeled = remodel_rows(&doc, &factors).expect("remodel");
    let live = apbench::run_sweep(&apbench::SweepConfig {
        scale: Scale::Test,
        apps: vec!["CG".into()],
        sizes: vec![None],
        factors: factors.to_vec(),
        threads: 1,
        machine: apcore::MachineConfig::new(1),
    });
    assert!(live.failures.is_empty(), "{:?}", live.failures);
    let names = |rows: &[apbench::ExperimentRow]| -> Vec<String> {
        rows.iter().map(|r| r.name.clone()).collect()
    };
    assert_eq!(names(&remodeled), ["CG cf0.50", "CG cf1.00"]);
    assert_eq!(names(&live.rows), ["CG pedef cf0.50", "CG pedef cf1.00"]);
    for (r, l) in remodeled.iter().zip(&live.rows) {
        assert_eq!(r.pe, l.pe);
        assert_eq!(r.emulator_total, l.emulator_total);
        assert_eq!(r.stats, l.stats);
        for (a, b) in [
            (&r.ap1000, &l.ap1000),
            (&r.star, &l.star),
            (&r.plus, &l.plus),
        ] {
            assert_eq!(a.total, b.total, "{}: {}", r.name, a.model);
            assert_eq!(a.per_pe, b.per_pe, "{}: {}", r.name, a.model);
            assert_eq!(a, b, "{}: {}", r.name, a.model);
        }
    }
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

/// An event whose `start + dur` passes `u64::MAX` ns cannot be timed: the
/// reader rejects it as corrupt — on the full decode and on the seek fast
/// path — so `repro replay --at`, strict `repro replay` and `tracecat
/// stats` exit 1 instead of panicking in `TimelineEvent::end` (exit 101).
#[test]
fn an_event_ending_past_the_end_of_time_is_corrupt_not_a_panic() {
    let late = apobs::TimelineEvent {
        cell: 0,
        unit: apobs::Unit::SendDma,
        name: EvName::SendDma,
        start: aputil::SimTime::from_nanos(10),
        dur: Some(aputil::SimTime::from_nanos(u64::MAX - 5)),
        bucket: apobs::Bucket::Hw,
        arg: 0,
        tid: 0,
    };
    let mut bytes = Vec::new();
    let header = aptrace::EvHeader::new(1, "CG", "test");
    let mut w = aptrace::StreamWriter::new(&mut bytes, "<mem>", &header);
    w.write_events("emulator", &[late]);
    w.finish(15).expect("the writer takes the event");
    let corrupt = |err: EvError| {
        assert!(
            matches!(&err, EvError::Corrupt { what, .. } if what.contains("overflows")),
            "{err:?}"
        );
    };
    corrupt(EvTrace::decode(&bytes).expect_err("decode"));
    corrupt(EvTrace::decode_at(&bytes, 15).expect_err("decode_at"));

    let path = tmp("end-of-time.evtrace");
    std::fs::write(&path, &bytes).expect("write the crafted trace");
    let file = path.display().to_string();
    assert_eq!(
        apbench::cli::REPRO.main(&argv(&["replay", &file, "--at", "15"])),
        1
    );
    assert_eq!(apbench::cli::REPRO.main(&argv(&["replay", &file])), 1);
    assert_eq!(apbench::cli::TRACECAT.main(&argv(&["stats", &file])), 1);
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
