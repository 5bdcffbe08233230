//! Negative CLI tests: malformed flags must produce structured usage
//! errors that name the offending flag and exit with the usage status
//! (2) — never a panic, and never a silent fallback to a default.
//!
//! Every case here exits during argument validation, before any
//! simulation work, so the whole suite runs in milliseconds.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn tracecat(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tracecat"))
        .args(args)
        .output()
        .expect("run tracecat")
}

fn probe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .output()
        .expect("run probe")
}

/// Asserts: exit code 2, stderr names `flag`, and no panic backtrace.
fn assert_usage_error(out: std::process::Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected usage exit for {flag}; stderr: {stderr}"
    );
    assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn bad_scale_is_a_named_error_not_a_panic() {
    assert_usage_error(repro(&["table2", "--scale", "huge"]), "--scale");
    assert_usage_error(
        repro(&["sweep", "--bench-out", "/tmp/x.json", "--scale", "gigantic"]),
        "--scale",
    );
    // Dangling `--scale` (no value) is also an error, not a default.
    assert_usage_error(repro(&["table2", "--scale"]), "--scale");
}

#[test]
fn bad_numeric_flags_name_the_flag() {
    assert_usage_error(repro(&["fig7", "--bytes", "many"]), "--bytes");
    assert_usage_error(repro(&["fig7", "--bytes", "0"]), "--bytes");
    assert_usage_error(
        repro(&["compare", "a.json", "b.json", "--threshold", "ten"]),
        "--threshold",
    );
    assert_usage_error(repro(&["replay", "t.evtrace", "--at", "noon"]), "--at");
    assert_usage_error(
        repro(&["sweep", "--bench-out", "/tmp/x.json", "--threads", "lots"]),
        "--threads",
    );
    assert_usage_error(
        repro(&["sweep", "--bench-out", "/tmp/x.json", "--sizes", "4,big"]),
        "--sizes",
    );
    assert_usage_error(
        repro(&[
            "sweep",
            "--bench-out",
            "/tmp/x.json",
            "--factors",
            "0.5,fast",
        ]),
        "--factors",
    );
    assert_usage_error(repro(&["fault", "--fault-seed", "lucky"]), "--fault-seed");
    assert_usage_error(
        repro(&["table2", "--metrics-interval", "soon"]),
        "--metrics-interval",
    );
}

#[test]
fn retired_scaling_command_is_an_unknown_command() {
    assert_usage_error(
        repro(&["scaling", "--out", "/tmp/x.json"]),
        "unknown command 'scaling'",
    );
}

#[test]
fn serve_and_submit_validate_their_flags() {
    assert_usage_error(repro(&["serve", "--workers", "0"]), "--workers");
    assert_usage_error(repro(&["serve", "--queue-cap", "none"]), "--queue-cap");
    assert_usage_error(
        repro(&["serve", "--cache-entries", "-3"]),
        "--cache-entries",
    );
    // submit without --addr is a usage error.
    assert_usage_error(repro(&["submit", "--job", "{}"]), "--addr");
    // submit with neither --job nor --job-file (and no query flag).
    let out = repro(&["submit", "--addr", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--job"));
}

#[test]
fn sandbox_flags_validate_their_preconditions() {
    // The per-job knobs only mean something in sandbox mode.
    for flag in ["--job-timeout", "--job-mem-mb", "--job-retries"] {
        let out = repro(&["serve", flag, "1"]);
        assert_eq!(out.status.code(), Some(2), "{flag} without --sandbox");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--sandbox"), "{flag}: {stderr}");
    }
    // And their values must parse as positive numbers.
    assert_usage_error(
        repro(&["serve", "--sandbox", "--job-timeout", "0"]),
        "--job-timeout",
    );
    assert_usage_error(
        repro(&["serve", "--sandbox", "--job-mem-mb", "lots"]),
        "--job-mem-mb",
    );
    assert_usage_error(
        repro(&["serve", "--sandbox", "--job-retries", "-1"]),
        "--job-retries",
    );
    // A disk byte budget needs a disk tier to govern.
    assert_usage_error(
        repro(&["serve", "--disk-cache-bytes", "1000000"]),
        "--cache-dir",
    );
    assert_usage_error(
        repro(&["serve", "--cache-dir", "/tmp/x", "--disk-cache-bytes", "0"]),
        "--disk-cache-bytes",
    );
    // Client-side retry count must be a number.
    assert_usage_error(
        repro(&[
            "submit",
            "--addr",
            "127.0.0.1:1",
            "--job",
            "{}",
            "--retry",
            "soon",
        ]),
        "--retry",
    );
}

#[test]
fn tracecat_validates_before_reading_the_trace() {
    // The flag error must surface even though the trace file does not
    // exist — validation happens before the (possibly expensive) read.
    assert_usage_error(
        tracecat(&["stats", "no-such-file.evtrace", "--min-ratio", "high"]),
        "--min-ratio",
    );
    assert_usage_error(
        tracecat(&["stats", "no-such-file.evtrace", "--min-ratio", "NaN"]),
        "--min-ratio",
    );
    // Unknown subcommands are usage errors before the read, too.
    let out = tracecat(&["frobnicate", "no-such-file.evtrace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_trace_file_is_a_clean_failure() {
    let out = tracecat(&["stats", "no-such-file.evtrace"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-file.evtrace"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

// One validation path (PR 15): each case below exited 0 with a default,
// or panicked with exit 101, before the strict parser.

#[test]
fn a_typo_or_an_inapplicable_flag_is_not_silently_ignored() {
    assert_usage_error(repro(&["fig7", "--byts", "10"]), "--byts");
    assert_usage_error(repro(&["table1", "--bogus"]), "--bogus");
    // table1 takes no flags at all, so a valid value does not help...
    assert_usage_error(repro(&["table1", "--scale", "banana"]), "--scale");
    // ...and telemetry flags are no longer validated for every command.
    assert_usage_error(
        repro(&["table1", "--flight-recorder", "x"]),
        "--flight-recorder",
    );
    assert_usage_error(
        tracecat(&["header", "no-such-file.evtrace", "--min-ratio", "5"]),
        "--min-ratio",
    );
    assert_usage_error(repro(&["table2", "--json", "--json"]), "--json");
}

#[test]
fn a_dangling_value_flag_is_an_error_not_a_default() {
    assert_usage_error(repro(&["fig7", "--bytes"]), "--bytes");
    assert_usage_error(
        repro(&["record", "--apps", "CG", "--out-dir", "/tmp/x", "--threads"]),
        "--threads",
    );
    assert_usage_error(probe(&["--trace-out"]), "--trace-out");
    // A following flag is not a value either.
    assert_usage_error(repro(&["fig7", "--bytes", "--json"]), "--bytes");
}

#[test]
fn flags_and_positionals_come_in_any_order() {
    let base = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_baseline.json"
    );
    let out = repro(&["compare", "--threshold", "5", base, base]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    assert_usage_error(repro(&["compare", base]), "CURRENT.json");
}

#[test]
fn relations_between_flags_are_checked() {
    // --cell only narrows a seek.
    assert_usage_error(repro(&["replay", "t.evtrace", "--cell", "3"]), "--at");
    // A seek re-executes nothing, so no flag that shapes a run applies to
    // it — the file is never opened, and the generated usage follows.
    for flag in [
        &["--lenient"][..],
        &["--progress"],
        &["--heatmap"],
        &["--metrics-out", "/tmp/never-written.json"],
        &["--metrics-interval", "50"],
        &["--flight-dump", "/tmp/never-written.json"],
    ] {
        let out = repro(&[&["replay", "t.evtrace", "--at", "5", "--cell", "0"], flag].concat());
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_usage_error(out, flag[0]);
        assert!(stderr.contains("does not apply to a seek"), "{stderr}");
        assert!(stderr.contains("usage: repro replay"), "{stderr}");
    }
    // `record` has one order: the old switch is an unknown flag.
    let out = repro(&[
        "record",
        "--apps",
        "CG",
        "--trace-out",
        "/tmp/never-written.evtrace",
        "--stream",
    ]);
    assert_usage_error(out, "--stream is not a flag");
    // Nor has `submit`: every answer is one length-delimited response.
    let job = r#"{"kind":"sleep","ms":40}"#;
    let out = repro(&["submit", "--addr", "127.0.0.1:1", "--stream", "--job", job]);
    assert_usage_error(out, "--stream is not a flag of this command");
    // Exactly one submit action.
    assert_usage_error(
        repro(&[
            "submit",
            "--addr",
            "127.0.0.1:1",
            "--stats",
            "--health",
            "--shutdown",
        ]),
        "exactly one",
    );
    assert_usage_error(
        repro(&[
            "fault",
            "--faults",
            "a.ron",
            "--fault-seed",
            "1",
            "--scale",
            "test",
        ]),
        "--fault-seed",
    );
}

#[test]
fn a_fault_file_naming_cells_no_selected_machine_has_is_rejected() {
    // Parses, but neither event could ever fire: it used to run to
    // completion and report "survived".
    let path = std::env::temp_dir().join(format!("ap-no-such-cell-{}.ron", std::process::id()));
    let spec = "(seed: None, \
        recovery: (ack_timeout_ns: 400000, backoff_cap_ns: 3200000, max_retries: 8), \
        events: [(from_ns: 0, until_ns: 1000, kind: LinkDown(from: 15, to: 0)), \
        (from_ns: 5, until_ns: 5, kind: Crash(cell: 99))])";
    std::fs::write(&path, spec).expect("write fault spec");
    let file = path.to_str().expect("utf-8 temp path");
    let out = repro(&[
        "fault", "--faults", file, "--scale", "paper", "--apps", "CG",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_usage_error(out, "event 1 `Crash(cell: 99)` names cell99");
    assert!(stderr.contains("has 16 cells"), "{stderr}");
    // `record --size` picks the machine, so the same file is judged
    // against that.
    let out = repro(&[
        "record",
        "--apps",
        "CG",
        "--scale",
        "test",
        "--size",
        "64",
        "--faults",
        file,
        "--trace-out",
        "/tmp/never-written.evtrace",
    ]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_usage_error(out, "names cell99");
    assert!(stderr.contains("has 64 cells"), "{stderr}");
}

#[test]
fn record_and_replay_refuse_the_flight_recorder() {
    // A ring on a recording keeps its tail and drops the rest; the
    // commands that take the flag for post-mortems still do.
    assert_usage_error(
        repro(&[
            "record",
            "--apps",
            "CG",
            "--scale",
            "test",
            "--flight-recorder",
            "4",
            "--trace-out",
            "/tmp/never-written.evtrace",
        ]),
        "--flight-recorder",
    );
    assert_usage_error(
        repro(&["replay", "t.evtrace", "--flight-recorder", "4"]),
        "--flight-recorder",
    );
    // Past the parser, so the flag was accepted: the app is what is wrong.
    // (`--bench-out` is renamed into place, so it must be a plain path.)
    let report = std::env::temp_dir().join(format!("ap-fr-sweep-{}.json", std::process::id()));
    let out = repro(&[
        "sweep",
        "--bench-out",
        report.to_str().expect("utf-8 temp path"),
        "--apps",
        "NoSuchApp",
        "--flight-recorder",
        "4",
    ]);
    let _ = std::fs::remove_file(&report);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn a_size_the_problem_does_not_decompose_over_is_a_failure_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("ap-bad-size-{}", std::process::id()));
    let out = repro(&[
        "record",
        "--apps",
        "MatMul",
        "--scale",
        "test",
        "--size",
        "2048",
        "--out-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("FAILED  MatMul: "), "{stderr}");
    assert!(stderr.contains("pe must divide n"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("--out-dir exists").collect();
    assert!(left.is_empty(), "no half-written recording: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // The sweep's failure line carries the same text, without a banner.
    let report = std::env::temp_dir().join(format!("ap-bad-size-{}.json", std::process::id()));
    let out = repro(&[
        "sweep",
        "--bench-out",
        report.to_str().expect("utf-8 temp path"),
        "--scale",
        "test",
        "--apps",
        "FT",
        "--sizes",
        "3",
    ]);
    let _ = std::fs::remove_file(&report);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("FAILED  FT pe3 cf1.00: ") && stderr.contains("pe must divide nx"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cell_counts_are_range_checked_not_asserted() {
    for size in ["0", "70000"] {
        let out = repro(&[
            "record",
            "--apps",
            "CG",
            "--scale",
            "test",
            "--size",
            size,
            "--trace-out",
            "/tmp/never-written.evtrace",
        ]);
        assert_usage_error(out, "--size");
    }
    assert_usage_error(
        repro(&["sweep", "--bench-out", "/tmp/x.json", "--sizes", "4,0"]),
        "--sizes",
    );
    assert_usage_error(
        repro(&["replay", "t.evtrace", "--at", "5", "--cell", "65536"]),
        "--cell",
    );
}

#[test]
fn probe_names_its_workloads_instead_of_panicking() {
    let out = probe(&["NOPE"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_usage_error(out, "NOPE");
    for name in ["EP", "CG", "TC no st", "SCG"] {
        assert!(stderr.contains(name), "must list {name}: {stderr}");
    }
    assert_usage_error(probe(&["SP", "CG"]), "[WORKLOAD]");
}

#[test]
fn computation_factors_are_range_checked_as_the_flag_is_parsed() {
    // Each of these reached `SimTime::from_micros_f64`'s assert: exit 101
    // from `remodel`, a failed grid point from `sweep`.
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/cg_test.evtrace"
    );
    for bad in ["-1", "0", "nan", "inf", "1001", "1e300"] {
        let out = repro(&["remodel", trace, "--factors", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_usage_error(out, "--factors");
        assert!(stderr.contains("(0, 1000]"), "{bad}: {stderr}");
        assert_usage_error(
            repro(&["sweep", "--bench-out", "/tmp/x.json", "--factors", bad]),
            "--factors",
        );
    }
}

#[test]
fn a_fig7_message_too_large_for_sim_time_is_refused() {
    // The chain's legs used to overflow `SimTime` with a panic (exit 101).
    for bad in ["18446744073709551615", "4294967296"] {
        assert_usage_error(repro(&["fig7", "--bytes", bad]), "--bytes");
    }
    let out = repro(&["fig7", "--bytes", "4294967295"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn a_fault_file_integer_wider_than_its_field_is_refused_not_wrapped() {
    // `cell: 4294967296` used to wrap to cell 0, pass the range check, and
    // crash CG's cell 0.
    let path = std::env::temp_dir().join(format!("ap-wide-cell-{}.ron", std::process::id()));
    let spec = "(seed: None, events: [(from_ns: 0, until_ns: 9, kind: Crash(cell: 4294967296))])";
    std::fs::write(&path, spec).expect("write fault spec");
    let out = repro(&[
        "fault",
        "--faults",
        path.to_str().expect("utf-8 temp path"),
        "--scale",
        "test",
        "--apps",
        "CG",
    ]);
    let _ = std::fs::remove_file(&path);
    assert_usage_error(out, "`cell` needs an integer that fits u32");
}
