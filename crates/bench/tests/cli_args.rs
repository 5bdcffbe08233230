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
        repro(&["submit", "--addr", "127.0.0.1:1", "--job", "{}", "--retry", "soon"]),
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
