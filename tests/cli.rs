//! The CLI traffic, fed to the in-process parser.
//!
//! Every `repro` / `tracecat` / `probe` command line that appears in
//! `.github/workflows/ci.yml` and `perf/src/serve.rs` (and the documented
//! ones from README/EXPERIMENTS) is transcribed here — one line each,
//! split on whitespace into the argv the shell would build — and must
//! resolve to the expected command with no usage error, so tightening the
//! parser cannot silently break CI or the benchmark. Resolution touches
//! nothing: no file is read and no server starts.

use apbench::cli::{Tool, PROBE, REPRO, TRACECAT};

fn resolve(tool: &Tool, line: &str) -> Result<&'static str, String> {
    let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    tool.resolve(&argv).map(|(cmd, _)| cmd.name)
}

/// Each line's first word is the command it must resolve to.
fn all_resolve(tool: &Tool, lines: &[&str]) {
    for line in lines {
        let expect = line.split_whitespace().next().unwrap_or("");
        match resolve(tool, line) {
            Ok(name) => assert_eq!(name, expect, "{} {line}", tool.prog),
            Err(text) => panic!("`{} {line}` must parse:\n{text}", tool.prog),
        }
    }
}

fn rejected(tool: &Tool, line: &str, needle: &str) {
    let text = resolve(tool, line).expect_err(line);
    assert!(text.contains(needle), "`{line}`: {text}");
}

#[test]
fn every_ci_command_line_resolves() {
    let repro = [
        // fault-smoke
        "fault --faults tests/faults/cg_survivable.ron --scale paper --threads 1 --out fault_t1.txt",
        "fault --faults tests/faults/cg_survivable.ron --scale paper --threads 2 --out fault_t2.txt",
        // bench-compare
        "bench --scale test --bench-out BENCH_current.json --rev 0123abcd",
        "compare results/BENCH_baseline.json BENCH_current.json --threshold 10",
        "bench --scale test --bench-out BENCH_current.json --trace-out regression_trace.json",
        // sweep-determinism
        "sweep --scale test --apps EP,CG,MatMul --sizes default,4 --factors 0.5,1.0 --threads 1 --bench-out sweep_t1.json",
        "sweep --scale test --apps EP,CG,MatMul --sizes default,4 --factors 0.5,1.0 --threads 2 --bench-out sweep_t2.json",
        // metrics-smoke
        "sweep --scale paper --apps CG --threads 1 --bench-out bench_m1.json --metrics-out metrics_t1.json --heatmap",
        "sweep --scale paper --apps CG --threads 2 --bench-out bench_m2.json --metrics-out metrics_t2.json",
        // serve-smoke
        "serve --addr 127.0.0.1:0 --workers 2 --queue-cap 1 --cache-entries 64 --cache-dir apcache --allow-sleep",
        r#"submit --addr 127.0.0.1:4242 --job {"kind":"bench","apps":["EP"],"scale":"test"} --out cold.json"#,
        r#"submit --addr 127.0.0.1:4242 --job {"kind":"fault","scale":"test","fault_seed":1} --out fault.json"#,
        r#"submit --addr 127.0.0.1:4242 --job {"kind":"sleep","ms":4000}"#,
        "submit --addr 127.0.0.1:4242 --stats",
        "submit --addr 127.0.0.1:4242 --shutdown",
        // sandbox-smoke
        "serve --addr 127.0.0.1:0 --workers 2 --cache-entries 64 --cache-dir apcache --disk-cache-bytes 1000000 --allow-sleep --sandbox --job-timeout 2000 --drain-ms 500",
        "serve --addr 127.0.0.1:0 --allow-sleep",
        r#"submit --addr 127.0.0.1:4242 --job {"kind":"sleep","ms":1,"crash":"panic"}"#,
        "submit --addr 127.0.0.1:4242 --health",
        // replay-smoke
        "record --apps CG,FT --scale test --threads 1 --out-dir traces_t1",
        "record --apps CG,FT --scale test --threads 4 --out-dir traces_t4",
        "replay traces_t1/CG.evtrace",
        "replay traces_t1/CG.evtrace --at 1800000",
        "remodel traces_t1/CG.evtrace --factors 0.5,1.0,2.0",
        "record --apps CG --scale test --size 1024 --trace-out cg1024.evtrace",
        "record --apps CG,SCG --scale test --size 2048 --out-dir big_t1 --threads 1",
        "record --apps CG,SCG --scale test --size 2048 --out-dir big_t2 --threads 2",
        "replay big_t2/CG.evtrace",
        // scale-smoke (all three under a 1 GiB address-space limit)
        "sweep --apps CG --sizes 4096 --scale test --threads 1 --bench-out cg4096.json",
        "sweep --apps EP --sizes 16384 --scale test --threads 1 --bench-out ep16384.json",
        "sweep --apps EP --sizes 65536 --scale test --threads 1 --bench-out ep65536.json",
        // referee-files
        "all --scale paper",
        "ablations",
    ];
    all_resolve(&REPRO, &repro);
    // replay-smoke's one exit-2 step: recordings have a single order.
    let line = "record --apps CG --scale test --stream --trace-out never.evtrace";
    rejected(&REPRO, line, "--stream is not a flag");
    let tracecat = [
        "header traces_t1/CG.evtrace",
        "stats traces_t1/CG.evtrace --min-ratio 5",
    ];
    all_resolve(&TRACECAT, &tracecat);
}

#[test]
fn the_benchmark_harness_command_lines_resolve() {
    // perf/src/serve.rs: the fixed prefix, then the optional tail; and the
    // worker `serve --sandbox` self-execs.
    let lines = [
        "serve --addr 127.0.0.1:0 --workers 2 --cache-entries 32",
        "serve --addr 127.0.0.1:0 --workers 2 --cache-entries 32 --sandbox --cache-dir /tmp/apperf",
        "job-exec",
        "job-exec --tag=anything-at-all",
    ];
    all_resolve(&REPRO, &lines);
    assert!(!REPRO.usage().contains("job-exec"), "job-exec stays hidden");
}

#[test]
fn documented_command_lines_resolve() {
    let repro = [
        "all",
        "all --scale test --json",
        "table3 --scale test",
        "fig7 --bytes 11200",
        "ablations",
        "fig8 --scale test --ascii --trace-out suite.json",
        "sweep --bench-out sweep.json --apps CG,FT,SCG --sizes default,4,16 --factors 0.5,1.0,2.0 --threads 8 --scale test --rev abc",
        "sweep --bench-out bench4k.json --apps CG --sizes 4096 --scale test --threads 1 --metrics-out metrics4k.json --heatmap --flight-recorder 64 --flight-dump flight4k.json --progress",
        "fault --fault-seed 42 --scale test",
        "replay /tmp/cg.evtrace --at 1800000 --cell 17",
        "remodel /tmp/cg.evtrace --factors 0.5,1.0,2.0 --bench-out /tmp/remodel.json",
        "serve --addr 127.0.0.1:0 --workers 4 --sandbox --job-timeout 600000 --job-mem-mb 2048 --job-retries 1 --cache-dir /tmp/apcache --disk-cache-bytes 256000000",
        r#"submit --addr h:1 --stream --job {"kind":"sleep","ms":40} --retry 5"#,
    ];
    all_resolve(&REPRO, &repro);
    // No command word at all runs `all`; probe takes no command word.
    assert_eq!(resolve(&REPRO, ""), Ok("all"));
    assert_eq!(resolve(&PROBE, "SP --json --trace-out sp.json"), Ok(""));
    assert_eq!(resolve(&PROBE, ""), Ok(""));
}

#[test]
fn resolution_is_strict() {
    // A flag is never mistaken for the command word, and tracecat has no
    // default command to fall back to.
    rejected(&REPRO, "--scale test", "unknown command '--scale'");
    rejected(&TRACECAT, "", "usage: tracecat");
    // Typos, flags of other commands, dangling values, repeats, arity.
    rejected(&REPRO, "fig7 --byts 10", "--byts is not a flag");
    rejected(&REPRO, "fig7 --byts 10", "usage: repro fig7 [--bytes N]");
    rejected(&REPRO, "table1 --flight-recorder x", "--flight-recorder");
    // `record` and `replay` pick the timeline mode themselves.
    let line = "record --apps CG --flight-recorder 4 --trace-out f.evtrace";
    rejected(&REPRO, line, "--flight-recorder is not a flag");
    rejected(
        &REPRO,
        "replay t.evtrace --flight-recorder 4",
        "--flight-recorder",
    );
    rejected(&REPRO, "table2 --scale", "--scale needs a value");
    rejected(&REPRO, "table2 --json --json", "more than once");
    rejected(&REPRO, "compare only.json", "BASELINE.json CURRENT.json");
    rejected(&TRACECAT, "header t --min-ratio 5", "--min-ratio");
    rejected(&PROBE, "SP CG", "[WORKLOAD]");
}

#[test]
fn no_command_lists_a_flag_twice() {
    // The parser takes the first declaration of a name; a second one
    // (say, through two overlapping groups) would be dead text.
    for tool in [&REPRO, &TRACECAT, &PROBE] {
        for cmd in tool.commands {
            let flags = cmd.flags.iter().flat_map(|g| g.iter());
            let names: Vec<&str> = flags.map(|f| f.name).collect();
            for (i, name) in names.iter().enumerate() {
                let dup = names[..i].contains(name);
                assert!(!dup, "`{}` lists {name} twice", cmd.name);
            }
        }
    }
}
