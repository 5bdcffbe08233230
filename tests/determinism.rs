//! Tier-1 half of the artifact manifest `results/ARTIFACTS.fnv`: the
//! `test/` rows, rebuilt in-process once per run of this file, and the
//! checked-in readable copies of three rows. `repro pins` rebuilds every
//! row for CI. After an intentional change to simulated results, run
//! `repro pins > results/ARTIFACTS.fnv` (and regenerate the copies) in
//! the same commit: the manifest diff names every artifact that moved.

use apbench::pins::{manifest, manifest_row, Rows};
use std::sync::OnceLock;

fn repo(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

fn checked_in() -> String {
    std::fs::read_to_string(repo("results/ARTIFACTS.fnv")).expect("read results/ARTIFACTS.fnv")
}

/// The `test/` rows as this tree builds them, built by the first test
/// that asks.
fn built() -> &'static str {
    static BUILT: OnceLock<String> = OnceLock::new();
    BUILT.get_or_init(|| manifest(Rows::Test).unwrap_or_else(|e| panic!("building test/: {e}")))
}

/// The line of `rows` naming `name`.
fn row<'a>(rows: &'a str, name: &str) -> &'a str {
    (rows.lines())
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("no {name} row in\n{rows}"))
}

/// Asserts the built rows `names` equal the manifest's.
fn assert_rows(names: &[&str]) {
    let want = checked_in();
    for name in names {
        assert_eq!(row(built(), name), row(&want, name), "{name} moved");
    }
}

#[test]
fn the_test_rows_match_the_manifest() {
    let want = checked_in();
    let want: Vec<&str> = want.lines().filter(|l| l.starts_with("test/")).collect();
    assert!(!want.is_empty(), "the manifest has no test/ rows");
    assert_eq!(built().lines().collect::<Vec<_>>(), want);
}

/// Every application's final simulated time at test scale.
#[test]
fn suite_final_times_are_unchanged() {
    assert_rows(&["test/bench.json", "test/all.txt"]);
}

/// Building the row runs the grid at 1 and at 8 threads and fails
/// unless both write the same bytes.
#[test]
fn sweep_is_thread_count_invariant() {
    assert_rows(&["test/sweep.json"]);
}

/// CG on 1024 cells, the hardware limit, records the bytes pinned since
/// the serial-baton kernel (DESIGN.md §10).
#[test]
fn cg1024_recording_matches_the_serial_reference_pin() {
    assert_rows(&["test/CG1024.evtrace"]);
}

/// CG on 4096 cells, four times the hardware limit, ends at the time the
/// last thread-per-cell kernel gave it.
#[test]
fn cg4096_final_time_matches_the_threaded_pin() {
    assert_rows(&["test/CG4096.json"]);
}

#[test]
fn the_checked_in_copies_match_their_rows() {
    let manifest = checked_in();
    for (file, name) in [
        ("results/paper_scale.txt", "paper/all.txt"),
        ("results/ablations.txt", "paper/ablations.txt"),
        ("tests/traces/cg_test.evtrace", "test/CG.evtrace"),
    ] {
        let bytes = std::fs::read(repo(file)).unwrap_or_else(|e| panic!("read {file}: {e}"));
        let got = manifest_row(name, &bytes);
        assert_eq!(got, row(&manifest, name), "{file} drifted from {name}");
    }
}
