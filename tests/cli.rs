//! The CLI traffic, fed to the in-process parser.
//!
//! Every `repro` command line that `.github/workflows/ci.yml` and
//! `perf/src/serve.rs` spell out (CI's one is `repro pins`; every other
//! step is a cargo command), and the documented ones from
//! README/EXPERIMENTS, is transcribed here — one line each, split on
//! whitespace into the argv the shell would build — and must resolve to
//! the expected command with no usage error, so tightening the parser
//! cannot silently break CI or the benchmark. Resolution touches nothing:
//! no file is read and no server starts.

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
    // The pins job's `repro pins | diff results/ARTIFACTS.fnv -`; every
    // other CI step is a cargo command.
    all_resolve(&REPRO, &["pins"]);
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
        "pins",
        "compare BASE.json CURRENT.json --threshold 10",
        "ablations",
        "fig8 --scale test --ascii --trace-out suite.json",
        "sweep --bench-out sweep.json --apps CG,FT,SCG --sizes default,4,16 --factors 0.5,1.0,2.0 --threads 8 --scale test --rev abc",
        "sweep --bench-out bench4k.json --apps CG --sizes 4096 --scale test --threads 1 --metrics-out metrics4k.json --heatmap --flight-recorder 64 --flight-dump flight4k.json --progress",
        "fault --fault-seed 42 --scale test",
        "replay /tmp/cg.evtrace --at 1800000 --cell 17",
        "remodel /tmp/cg.evtrace --factors 0.5,1.0,2.0 --bench-out /tmp/remodel.json",
        "serve --addr 127.0.0.1:0 --workers 4 --sandbox --job-timeout 600000 --job-mem-mb 2048 --job-retries 1 --cache-dir /tmp/apcache --disk-cache-bytes 256000000",
        r#"submit --addr h:1 --job {"kind":"sleep","ms":40} --retry 5"#,
        r#"submit --addr h:1 --job {"kind":"bench","apps":["EP","CG"],"scale":"test","factors":[0.5,1.0]} --out /tmp/grid.json"#,
    ];
    all_resolve(&REPRO, &repro);
    // A submit answers in one piece: there is no progress stream to ask for.
    let line = r#"submit --addr h:1 --stream --job {"kind":"sleep","ms":40}"#;
    rejected(&REPRO, line, "--stream is not a flag of this command");
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
    // Recordings have a single order, so there is no streaming switch.
    let line = "record --apps CG --scale test --stream --trace-out never.evtrace";
    rejected(&REPRO, line, "--stream is not a flag");
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
