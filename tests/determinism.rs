//! Determinism suite for the hot-path overhaul.
//!
//! The zero-copy payload path, the indexed waiter slots, the request
//! batching and the parallel sweep driver are all host-side mechanics:
//! none of them may move a single simulated nanosecond. Four pins enforce
//! that:
//!
//! * the Table-2 suite's final emulator times at test scale are frozen to
//!   the values the pre-overhaul kernel produced (the fuzz corpus in
//!   `tests/fuzz_corpus.rs` separately replays its reproducers through
//!   the full differential referees);
//! * an `apsweep` grid run on 1 thread and on N threads serializes to
//!   byte-identical bench-report JSON;
//! * a single 1024-cell CG run records the byte-identical evtrace and
//!   final simulated time the serial-baton kernel produced, two
//!   cell↔kernel protocols ago (DESIGN.md §10) — pinned as constants, so
//!   tier-1 records it once. The serial reference was a sorted-order
//!   file; recordings are engine-order now, so its digest is asserted on
//!   the recording's sorted re-encode and the engine-order bytes carry a
//!   pin of their own;
//! * CG on 4096 cells — four times the hardware limit — ends at the
//!   simulated time the last thread-per-cell kernel gave it. The pin
//!   runs in about 4.5 s of a debug build on a 2-core Xeon: the machine
//!   is one host thread, and a scalar reduction walks its tree by index
//!   instead of building a 4096-entry group on every cell.
//!
//! If an *intentional* timing-model change moves the suite times, update
//! the constants here in the same commit and say why.

mod common;

use apapps::{standard_suite, Scale};
use apbench::{bench_report, record_app, run_sweep, SweepConfig};

/// Final simulated time of each Table-2 workload at test scale, pinned
/// to the pre-zero-copy kernel's output.
const FINAL_TIMES_NS: &[(&str, u64)] = &[
    ("EP", 512_000),
    ("CG", 3_727_248),
    ("FT", 660_112),
    ("SP", 10_464_120),
    ("TC st", 2_145_696),
    ("TC no st", 4_141_128),
    ("MatMul", 492_016),
    ("SCG", 4_617_904),
];

#[test]
fn suite_final_times_are_unchanged() {
    for w in standard_suite(Scale::Test) {
        let report = w
            .run()
            .unwrap_or_else(|e| panic!("{} failed on the emulator: {e}", w.name()));
        let want = FINAL_TIMES_NS
            .iter()
            .find(|(n, _)| *n == w.name())
            .unwrap_or_else(|| panic!("no pinned time for {}", w.name()))
            .1;
        assert_eq!(
            report.total_time.as_nanos(),
            want,
            "{}: simulated final time moved — the hot path must not \
             change simulation results",
            w.name()
        );
    }
}

#[test]
fn sweep_is_thread_count_invariant() {
    let cfg = |threads| SweepConfig {
        scale: Scale::Test,
        apps: vec!["EP".into(), "CG".into()],
        sizes: vec![None, Some(4)],
        factors: vec![0.25, 1.0],
        threads,
        machine: apcore::MachineConfig::new(1),
    };
    let serial = run_sweep(&cfg(1));
    let parallel = run_sweep(&cfg(8));
    assert!(serial.failures.is_empty(), "{:?}", serial.failures);
    assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
    let a = bench_report(&serial.rows, Scale::Test, Some("pin")).to_string();
    let b = bench_report(&parallel.rows, Scale::Test, Some("pin")).to_string();
    assert_eq!(a, b, "sweep output must not depend on thread count");
}

/// The 1024-cell CG recording of the serial-baton kernel: event count,
/// final simulated time, evtrace byte length and FNV-1a-64 digest of the
/// file. Captured where the serial baton (one channel round trip per
/// wake) was still the default protocol; windowed delivery and then
/// run-to-block recorded the identical bytes. The file pinned here is
/// the sorted form ([`common::sorted_reencode`]).
const CG1024_EVENTS: u64 = 3_599_496;
const CG1024_FINAL_NS: u64 = 893_617_068;
const CG1024_EVTRACE_BYTES: usize = 34_539_412;
const CG1024_EVTRACE_FNV1A: u64 = 0x7eda_33bb_84e3_873a;
/// The same run as recorded: engine order, `"live"` sections.
const CG1024_ENGINE_ORDER_BYTES: usize = 35_011_352;
const CG1024_ENGINE_ORDER_FNV1A: u64 = 0x11c2_b0e3_d62a_e79a;

#[test]
fn cg1024_recording_matches_the_serial_reference_pin() {
    // 1024 cells: the hardware limit, and every request family CG uses.
    let path =
        std::env::temp_dir().join(format!("ap1000plus-cg1024-{}.evtrace", std::process::id()));
    let rec = record_app("CG", Scale::Test, Some(1024), None, &path, false)
        .unwrap_or_else(|e| panic!("record CG-1024: {e}"));
    let bytes = std::fs::read(&path).expect("read recorded trace");
    let _ = std::fs::remove_file(&path);
    assert_eq!(rec.events, CG1024_EVENTS, "event count moved");
    assert_eq!(
        rec.total.as_nanos(),
        CG1024_FINAL_NS,
        "final simulated time moved"
    );
    assert_eq!(
        bytes.len(),
        CG1024_ENGINE_ORDER_BYTES,
        "evtrace length moved"
    );
    assert_eq!(
        aputil::hash::fnv1a_64(&bytes),
        CG1024_ENGINE_ORDER_FNV1A,
        "engine-order evtrace bytes moved"
    );
    let sorted = common::sorted_reencode(&bytes);
    assert_eq!(
        sorted.len(),
        CG1024_EVTRACE_BYTES,
        "sorted evtrace length moved"
    );
    assert_eq!(
        aputil::hash::fnv1a_64(&sorted),
        CG1024_EVTRACE_FNV1A,
        "evtrace events diverged from the serial reference recording"
    );
}

/// Test-scale CG on 4096 cells: final simulated time at `f1e670c`, the
/// last thread-per-cell commit.
const CG4096_FINAL_NS: u64 = 3_554_435_316;

#[test]
fn cg4096_final_time_matches_the_threaded_pin() {
    let cg = apapps::cg::Cg {
        pe: 4096,
        ..apapps::cg::Cg::new(Scale::Test)
    };
    let report = apapps::Workload::run(&cg).expect("CG on 4096 cells");
    assert_eq!(report.total_time.as_nanos(), CG4096_FINAL_NS);
}
