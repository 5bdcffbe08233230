//! `repro` — regenerate every table and figure of the AP1000+ paper.
//!
//! ```text
//! repro table1                 # machine specifications (static)
//! repro fig6                   # MLSim parameter files
//! repro fig7 [--bytes N]       # PUT communication model chains
//! repro table2 [--scale s]     # speedups vs AP1000 (runs the suite)
//! repro table3 [--scale s]     # per-PE communication statistics
//! repro fig8   [--scale s]     # normalized execution-time breakdown
//! repro fig8 --ascii           # the same as ASCII stacked bars
//! repro all    [--scale s]     # everything above, one suite run
//! repro bench  --bench-out F   # versioned machine-readable bench report
//! repro compare BASE CUR       # diff two bench reports, exit 1 on regression
//! repro sweep  --bench-out F   # parallel app × size × factor grid sweep
//! repro fault  --faults F.ron  # run apps under a fault-injection schedule
//! repro record  --apps CG ...  # record a run as a binary .evtrace file
//! repro replay  T.evtrace      # re-execute and gate against the recording
//! repro remodel T.evtrace      # replay recorded traffic under new models
//! repro serve  --addr A:P      # simulation-as-a-service job server
//! repro submit --addr A:P ...  # client for a running repro serve
//! ```
//!
//! Suite-running commands also accept `--json` (machine-readable rows on
//! stdout), `--trace-out FILE` (record sim-time event timelines on
//! every emulator run and write one Chrome-trace JSON file, one process
//! group per workload, viewable in Perfetto), `--bench-out FILE` (write
//! the versioned bench report documented in DESIGN.md; implies timeline
//! recording so critical-path and divergence sections are populated;
//! `--rev REV` stamps a revision into it), `--markdown` (GitHub-flavored
//! tables instead of plain text) and `--md-out FILE` (write the full
//! Markdown report, e.g. into `results/`).
//!
//! Telemetry flags (suite-running commands): `--metrics-out FILE` writes
//! the versioned `ap1000plus.metrics` artifact (sampled gauge series,
//! torus heatmaps, per-link busy times) and implies sampling;
//! `--metrics-interval USECS` sets the sim-time sampling period (default
//! 100 µs); `--heatmap` prints the ASCII torus heatmaps; `--progress`
//! prints rate-limited live progress lines per emulator run;
//! `--flight-recorder N` bounds timeline recording to the last N events
//! per cell unit (the only recording mode allowed past 1024 cells);
//! `--flight-dump FILE` writes the recorded tail as a Chrome trace when a
//! run dies of a deadlock, lost cell, or unsurvivable fault. Counter
//! tracks from sampled runs are merged into `--trace-out` exports.
//!
//! `repro compare BASE CUR [--threshold PCT]` exits nonzero when any
//! app's emulator or model total in CUR is more than PCT percent (default
//! 10) slower than in BASE — the perf-regression gate CI runs against
//! `results/BENCH_baseline.json`.
//!
//! `repro sweep --bench-out FILE [--apps A,B] [--sizes default,4,8]
//! [--factors 0.5,1.0] [--threads N] [--scale test|paper] [--rev REV]`
//! fans the app × machine-size × computation-factor grid across N host
//! threads (default: all cores) and writes the merged `ap1000plus.bench`
//! report in deterministic grid order — byte-identical for any N. Failed
//! grid points are reported on stderr and make the command exit 1.
//!
//! `repro fault (--faults SPEC.ron | --fault-seed N) [--out FILE]
//! [--apps CG] [--scale test|paper] [--threads N]` runs the fault-capable
//! applications under a deterministic fault-injection schedule — loaded
//! from a RON spec file or derived (survivable) from a seed — and writes
//! one merged text report: the schedule, each surviving app's simulated
//! total and `FaultReport` (retries, drops, detours, acks), and any
//! failures. The report is byte-identical for any `--threads`; a failed
//! or unsurvived app makes the command exit 1.
//!
//! `repro record --apps CG[,FT,..] (--trace-out FILE | --out-dir DIR)
//! [--scale test|paper] [--size N] [--threads N] [--faults SPEC.ron]
//! [--stream] [--metrics-interval USECS]` runs each app on the emulator
//! with full event tracing and writes one compact binary `.evtrace` file
//! per app (wire format: DESIGN.md §9). Recording is deterministic:
//! re-recording the same app produces byte-identical files regardless of
//! `--threads` (host fan-out across apps). Machines past 1024 cells (or
//! any run with `--stream`) stream events to disk instead of buffering
//! the timeline.
//!
//! `repro replay TRACE.evtrace [--lenient] [--at NS [--cell ID]]`
//! re-executes the recorded workload and gates the fresh run against the
//! file: strict mode (default) exits 1 on the first mismatching event
//! with a two-sided context window; `--lenient` compares final simulated
//! times only and prints a divergence summary. `--at NS` skips
//! re-execution and dumps reconstructed machine state (in-flight
//! transfers, queue depths, blocked cells) at that recorded sim-time.
//!
//! `repro remodel TRACE.evtrace [--factors 0.5,1.0] [--bench-out FILE]
//! [--rev REV]` replays the recorded traffic under each
//! computation-factor multiple of the three paper models — no emulator —
//! and writes a normal versioned `ap1000plus.bench` report.
//!
//! `repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//! [--cache-entries N] [--cache-dir DIR] [--disk-cache-bytes N]
//! [--allow-sleep] [--sandbox] [--job-timeout MS] [--job-mem-mb N]
//! [--job-retries N] [--drain-ms MS]` runs the apserve job server
//! (DESIGN.md §11): clients POST JSON job documents to `/submit` and
//! identical requests are answered byte-identically from a
//! content-addressed result cache. `--sandbox` executes each job in a
//! self-exec'd `repro job-exec` child process with a wall-clock
//! deadline and optional address-space ceiling, so a crashing or
//! runaway job yields a structured 500/504 instead of taking the
//! server down; a key that crashes through its retry is poisoned
//! (422). `--addr 127.0.0.1:0` binds an ephemeral port; the bound
//! address is printed as `listening ADDR` on stdout. `POST /shutdown`
//! (or `repro submit --shutdown`) drains in-flight jobs for
//! `--drain-ms`, then kills the remaining children — no orphans.
//!
//! `repro submit --addr HOST:PORT (--job JSON | --job-file FILE |
//! --stats | --health | --shutdown) [--stream] [--retry N] [--out
//! FILE]` talks to a running server: prints the report on stdout (or
//! atomically writes it to `--out`), the `X-Cache`/`X-Key` diagnosis
//! on stderr. Exit codes: 0 success, 3 queue-full backpressure (retry
//! later), 2 rejected request (including a poisoned key), 1 transport
//! or job failure. `--retry N` honours the 429 `Retry-After` header
//! with capped exponential backoff before giving up with exit 3.
//! `--stream` prints NDJSON progress lines on stderr as the job
//! advances.
//!
//! `tracecat` (a sibling binary) inspects `.evtrace` headers and size
//! statistics.
//!
//! `--scale test` uses small instances (seconds); the default `paper`
//! scale uses the reduced-but-paper-shaped instances documented in
//! DESIGN.md/EXPERIMENTS.md.

use apbench::{
    bench_report, compare_reports, crosscheck, fault_sweep_text, fig6, fig7, fig8, fig8_ascii,
    markdown_report, parse_scale, record, report, run_fault_sweep, run_suite, run_sweep,
    suite_json, table1, table2, table3, write_bench_report, FaultSweepConfig, ReplayMode,
    SweepConfig, FAULT_APPS, SWEEP_APPS,
};
use aputil::ApError;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// [`parse_scale`] with the CLI exit convention: a bad `--scale` prints
/// the structured error and exits with the usage status.
fn scale_or_die(args: &[String]) -> apapps::Scale {
    parse_scale(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Exits 1 with a structured error (the `ApError::Io` path-bearing kind
/// for write failures) instead of panicking on a full disk or a bad
/// output directory.
fn fail_io(err: ApError) -> ! {
    eprintln!("{err}");
    std::process::exit(1);
}

/// [`std::fs::write`] with the path woven into the failure message.
fn write_or_die(path: &str, contents: &str) {
    record::write_file(Path::new(path), contents.as_bytes()).unwrap_or_else(|e| fail_io(e));
}

/// Applies the telemetry flags shared by the suite-running commands by
/// setting the process-wide emulator defaults before any machine is
/// built. Returns the `--metrics-out` path; metrics sampling turns on
/// when it, `--metrics-interval`, or `--heatmap` is present.
fn apply_telemetry_flags(args: &[String]) -> Option<String> {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let metrics_out = flag_value(args, "--metrics-out");
    let interval = flag_value(args, "--metrics-interval");
    let heatmap = args.iter().any(|a| a == "--heatmap");
    if metrics_out.is_some() || interval.is_some() || heatmap {
        let us: u64 = match &interval {
            Some(s) => s.parse().ok().filter(|&us| us > 0).unwrap_or_else(|| {
                bad(format!(
                    "--metrics-interval takes microseconds (> 0), got '{s}'"
                ))
            }),
            None => 100,
        };
        apcore::set_metrics_default(Some(aputil::SimTime::from_micros(us)));
    }
    if args.iter().any(|a| a == "--progress") {
        apcore::set_progress_default(true);
    }
    if let Some(s) = flag_value(args, "--flight-recorder") {
        let cap: usize = s.parse().unwrap_or_else(|_| {
            bad(format!(
                "--flight-recorder takes an event capacity, got '{s}'"
            ))
        });
        apcore::set_flight_recorder_default(std::num::NonZeroUsize::new(cap));
    }
    if let Some(path) = flag_value(args, "--flight-dump") {
        apcore::set_flight_dump_path(Some(path.into()));
    }
    metrics_out
}

/// Writes the `ap1000plus.metrics` artifact and/or prints ASCII torus
/// heatmaps for the rows that carried sampled telemetry.
fn emit_metrics(args: &[String], metrics_out: Option<&str>, rows: &[apbench::ExperimentRow]) {
    let runs: Vec<(String, &apmon::RunMetrics)> = rows
        .iter()
        .filter_map(|r| r.metrics.as_deref().map(|m| (r.name.clone(), m)))
        .collect();
    if let Some(path) = metrics_out {
        apmon::write_metrics_report(Path::new(path), &runs)
            .unwrap_or_else(|e| fail_io(ApError::io(path.to_string(), e)));
        eprintln!("wrote metrics report to {path} ({} run(s))", runs.len());
    }
    if args.iter().any(|a| a == "--heatmap") {
        for (name, m) in &runs {
            for h in [&m.cell_busy, &m.link_util].into_iter().flatten() {
                println!("== {name} ==");
                print!("{}", h.render(64));
            }
        }
    }
}

fn compare_cmd(args: &[String]) -> ! {
    let paths: Vec<&String> = args
        .iter()
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let [base_path, cur_path] = paths[..] else {
        eprintln!("usage: repro compare BASELINE.json CURRENT.json [--threshold PCT]");
        std::process::exit(2);
    };
    let threshold: f64 = flag_value(args, "--threshold")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("--threshold takes a number, got '{s}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(10.0);
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        aputil::Json::parse(&text).unwrap_or_else(|e| fail(format!("cannot parse {path}: {e}")))
    };
    match compare_reports(&load(base_path), &load(cur_path), threshold) {
        Ok(cmp) => {
            print!("{}", cmp.render());
            std::process::exit(if cmp.pass() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("compare failed: {e}");
            std::process::exit(2);
        }
    }
}

fn sweep_cmd(args: &[String]) -> ! {
    let Some(out_path) = flag_value(args, "--bench-out") else {
        eprintln!(
            "usage: repro sweep --bench-out FILE [--apps A,B,..] [--sizes default,4,8] \
             [--factors 0.5,1.0] [--threads N] [--scale test|paper] [--rev REV] [--markdown] \
             [--metrics-out FILE] [--metrics-interval USECS] [--heatmap] [--progress] \
             [--flight-recorder N] [--flight-dump FILE]"
        );
        std::process::exit(2);
    };
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let apps: Vec<String> = match flag_value(args, "--apps") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => SWEEP_APPS.iter().map(|s| s.to_string()).collect(),
    };
    let sizes: Vec<Option<u32>> = match flag_value(args, "--sizes") {
        Some(list) => list
            .split(',')
            .map(|s| match s {
                "default" => None,
                n => Some(
                    n.parse()
                        .unwrap_or_else(|_| bad(format!("--sizes takes PE counts, got '{n}'"))),
                ),
            })
            .collect(),
        None => vec![None],
    };
    let factors: Vec<f64> = match flag_value(args, "--factors") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| bad(format!("--factors takes numbers, got '{s}'")))
            })
            .collect(),
        None => vec![1.0],
    };
    let threads: usize = match flag_value(args, "--threads") {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| bad(format!("--threads takes a count, got '{s}'"))),
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let cfg = SweepConfig {
        scale: scale_or_die(args),
        apps,
        sizes,
        factors,
        threads,
    };
    let grid_len = cfg.grid().len();
    eprintln!(
        "sweeping {grid_len} grid points ({} apps x {} sizes x {} factors) on {} threads at \
         {:?} scale...",
        cfg.apps.len(),
        cfg.sizes.len(),
        cfg.factors.len(),
        cfg.threads,
        cfg.scale
    );
    let t0 = Instant::now();
    let out = run_sweep(&cfg);
    eprintln!(
        "sweep done in {:.1}s: {} points ok, {} failed",
        t0.elapsed().as_secs_f64(),
        out.rows.len(),
        out.failures.len()
    );
    let rev = flag_value(args, "--rev");
    let doc = bench_report(&out.rows, cfg.scale, rev.as_deref());
    write_or_die(&out_path, &doc.to_string());
    eprintln!("wrote sweep report to {out_path}");
    emit_metrics(
        args,
        flag_value(args, "--metrics-out").as_deref(),
        &out.rows,
    );
    if args.iter().any(|a| a == "--markdown") {
        print!("{}", report::table2_markdown(&out.rows));
    }
    for f in &out.failures {
        eprintln!("  FAILED  {f}");
    }
    std::process::exit(if out.failures.is_empty() { 0 } else { 1 });
}

fn fault_cmd(args: &[String]) -> ! {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let apps: Vec<String> = match flag_value(args, "--apps") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => FAULT_APPS.iter().map(|s| s.to_string()).collect(),
    };
    let spec = match (
        flag_value(args, "--faults"),
        flag_value(args, "--fault-seed"),
    ) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| bad(format!("cannot read {path}: {e}")));
            apfault::from_ron(&text).unwrap_or_else(|e| bad(format!("{path}: {e}")))
        }
        (None, Some(s)) => {
            let seed: u64 = s
                .parse()
                .unwrap_or_else(|_| bad(format!("--fault-seed takes a number, got '{s}'")));
            // Survivable schedules only: chaos crash testing lives in the
            // apfuzz referee; `repro fault` asserts verified completion.
            // Cell ids are drawn for the largest selected machine; events
            // naming cells a smaller machine lacks simply never fire.
            let scale = scale_or_die(args);
            let max_pe = apps
                .iter()
                .filter_map(|a| apbench::sweep::build_workload(a, scale, None).ok())
                .map(|w| w.pe())
                .max()
                .unwrap_or(16);
            apcore::FaultSpec::random(seed, max_pe, true)
        }
        (Some(_), Some(_)) => bad("--faults and --fault-seed are mutually exclusive".into()),
        (None, None) => bad(
            "usage: repro fault (--faults SPEC.ron | --fault-seed N) [--out FILE] \
             [--apps CG,..] [--scale test|paper] [--threads N]"
                .into(),
        ),
    };
    let threads: usize = match flag_value(args, "--threads") {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| bad(format!("--threads takes a count, got '{s}'"))),
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let cfg = FaultSweepConfig {
        scale: scale_or_die(args),
        apps,
        spec,
        threads,
    };
    eprintln!(
        "running {} app(s) under a {}-event fault schedule on {} threads at {:?} scale...",
        cfg.apps.len(),
        cfg.spec.events.len(),
        cfg.threads,
        cfg.scale
    );
    let t0 = Instant::now();
    let out = run_fault_sweep(&cfg);
    eprintln!(
        "fault sweep done in {:.1}s: {} survived, {} failed",
        t0.elapsed().as_secs_f64(),
        out.rows.len(),
        out.failures.len()
    );
    let text = fault_sweep_text(&cfg, &out);
    match flag_value(args, "--out") {
        Some(path) => {
            write_or_die(&path, &text);
            eprintln!("wrote fault report to {path}");
        }
        None => print!("{text}"),
    }
    for f in &out.failures {
        eprintln!("  FAILED  {f}");
    }
    std::process::exit(if out.failures.is_empty() { 0 } else { 1 });
}

fn record_cmd(args: &[String]) -> ! {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let usage = || -> ! {
        bad(
            "usage: repro record --apps CG[,FT,..] (--trace-out FILE | --out-dir DIR) \
             [--scale test|paper] [--size N] [--threads N] [--faults SPEC.ron] \
             [--stream] [--metrics-interval USECS]"
                .into(),
        )
    };
    let Some(apps) = flag_value(args, "--apps") else {
        usage();
    };
    let apps: Vec<String> = apps.split(',').map(str::to_string).collect();
    let scale = scale_or_die(args);
    let size: Option<u32> = flag_value(args, "--size").map(|s| {
        s.parse()
            .unwrap_or_else(|_| bad(format!("--size takes a PE count, got '{s}'")))
    });
    let stream = args.iter().any(|a| a == "--stream");
    let fault = flag_value(args, "--faults").map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| bad(format!("cannot read {path}: {e}")));
        apfault::from_ron(&text).unwrap_or_else(|e| bad(format!("{path}: {e}")))
    });
    let outs: Vec<(String, PathBuf)> = match (
        flag_value(args, "--trace-out"),
        flag_value(args, "--out-dir"),
    ) {
        (Some(path), None) => {
            if apps.len() != 1 {
                bad("--trace-out records one app; use --out-dir for several".into());
            }
            vec![(apps[0].clone(), PathBuf::from(path))]
        }
        (None, Some(dir)) => {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| fail_io(ApError::io(dir.display().to_string(), e)));
            apps.iter()
                .map(|a| (a.clone(), dir.join(format!("{a}.evtrace"))))
                .collect()
        }
        _ => usage(),
    };
    let threads: usize = match flag_value(args, "--threads") {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| bad(format!("--threads takes a count, got '{s}'"))),
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    // Streaming installs a process-global sink, so streamed recordings
    // must not share the process with other machine builds: serialize.
    let workers = if stream {
        1
    } else {
        threads.clamp(1, outs.len())
    };
    let t0 = Instant::now();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<record::RecordedTrace, String>)> =
        std::thread::scope(|s| {
            let outs = &outs;
            let next = &next;
            let fault = fault.as_ref();
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some((app, path)) = outs.get(i) else {
                                break;
                            };
                            let r = record::record_app(app, scale, size, fault, path, stream)
                                .map_err(|e| format!("{app}: {e}"));
                            done.push((i, r));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("record worker panicked"))
                .collect()
        });
    results.sort_by_key(|&(i, _)| i);
    let mut failed = false;
    for (_, r) in results {
        match r {
            Ok(rec) => eprintln!(
                "recorded {} to {} ({} events, {} bytes, final time {})",
                rec.app,
                rec.path.display(),
                rec.events,
                rec.bytes,
                rec.total
            ),
            Err(e) => {
                failed = true;
                eprintln!("  FAILED  {e}");
            }
        }
    }
    eprintln!("record done in {:.1}s", t0.elapsed().as_secs_f64());
    std::process::exit(if failed { 1 } else { 0 });
}

fn replay_cmd(args: &[String]) -> ! {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let Some(path) = args.iter().skip(1).find(|a| !a.starts_with("--")) else {
        bad("usage: repro replay TRACE.evtrace [--lenient] [--at NS [--cell ID]]".into());
    };
    if let Some(at) = flag_value(args, "--at") {
        let at_ns: u64 = at
            .parse()
            .unwrap_or_else(|_| bad(format!("--at takes sim-time nanoseconds, got '{at}'")));
        let cell: Option<u32> = flag_value(args, "--cell").map(|s| {
            s.parse()
                .unwrap_or_else(|_| bad(format!("--cell takes a cell id, got '{s}'")))
        });
        // v2 traces seek through the footer index, decoding only the
        // events sections that can hold state at `at_ns`; v1 traces
        // fall back to the full linear decode inside `read_file_at`.
        let doc = aptrace::EvTrace::read_file_at(Path::new(path), at_ns).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        print!("{}", record::seek_report(&doc, at_ns, cell));
        std::process::exit(0);
    }
    let doc = aptrace::EvTrace::read_file(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let mode = if args.iter().any(|a| a == "--lenient") {
        ReplayMode::Lenient
    } else {
        ReplayMode::Strict
    };
    eprintln!(
        "replaying {} ({} cells, {} scale) against {path}...",
        doc.header.app, doc.header.ncells, doc.header.scale
    );
    let t0 = Instant::now();
    let conf = record::conformance(&doc, mode).unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    });
    eprintln!("replay done in {:.1}s", t0.elapsed().as_secs_f64());
    print!("{}", conf.render());
    std::process::exit(if conf.passed() { 0 } else { 1 });
}

fn remodel_cmd(args: &[String]) -> ! {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let Some(path) = args.iter().skip(1).find(|a| !a.starts_with("--")) else {
        bad(
            "usage: repro remodel TRACE.evtrace [--factors 0.5,1.0] [--bench-out FILE] \
             [--rev REV]"
                .into(),
        );
    };
    let doc = aptrace::EvTrace::read_file(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let factors: Vec<f64> = match flag_value(args, "--factors") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| bad(format!("--factors takes numbers, got '{s}'")))
            })
            .collect(),
        None => vec![1.0],
    };
    let rows = record::remodel_rows(&doc, &factors).unwrap_or_else(|e| bad(format!("{path}: {e}")));
    let scale = record::parse_scale_label(&doc.header.scale).unwrap_or_else(|e| bad(e));
    if let Some(out) = flag_value(args, "--bench-out") {
        let rev = flag_value(args, "--rev");
        let report = bench_report(&rows, scale, rev.as_deref());
        write_or_die(&out, &report.to_string());
        eprintln!("wrote bench report to {out}");
    }
    print!("{}", record::remodel_text(&rows));
    std::process::exit(0);
}

fn serve_cmd(args: &[String]) -> ! {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let count = |flag: &str, default: usize| -> usize {
        match flag_value(args, flag) {
            Some(s) => s
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| bad(format!("{flag} takes a count (> 0), got '{s}'"))),
            None => default,
        }
    };
    let u64_flag = |flag: &str| -> Option<u64> {
        flag_value(args, flag).map(|s| {
            s.parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| bad(format!("{flag} takes a positive integer, got '{s}'")))
        })
    };
    let sandbox = if args.iter().any(|a| a == "--sandbox") {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| bad(format!("cannot locate own executable for --sandbox: {e}")));
        let mut sb = apserve::SandboxConfig::new(vec![
            exe.to_string_lossy().into_owned(),
            "job-exec".to_string(),
        ]);
        if let Some(ms) = u64_flag("--job-timeout") {
            sb.job_timeout_ms = ms;
        }
        if let Some(mb) = u64_flag("--job-mem-mb") {
            sb.mem_limit_bytes = Some(mb.saturating_mul(1024 * 1024));
        }
        if let Some(s) = flag_value(args, "--job-retries") {
            sb.retries = s
                .parse()
                .unwrap_or_else(|_| bad(format!("--job-retries takes a count (>= 0), got '{s}'")));
        }
        Some(sb)
    } else {
        for flag in ["--job-timeout", "--job-mem-mb", "--job-retries"] {
            if flag_value(args, flag).is_some() {
                bad(format!("{flag} requires --sandbox"));
            }
        }
        None
    };
    let cfg = apserve::Config {
        addr: flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:8090".into()),
        workers: count("--workers", 2),
        queue_cap: count("--queue-cap", 8),
        cache_entries: count("--cache-entries", 64),
        cache_dir: flag_value(args, "--cache-dir").map(PathBuf::from),
        disk_cache_bytes: u64_flag("--disk-cache-bytes"),
        allow_sleep: args.iter().any(|a| a == "--allow-sleep"),
        sandbox,
        drain_ms: u64_flag("--drain-ms").unwrap_or(2_000),
    };
    if cfg.disk_cache_bytes.is_some() && cfg.cache_dir.is_none() {
        bad("--disk-cache-bytes requires --cache-dir".into());
    }
    let handle = apserve::serve(cfg, apbench::simulator_executor()).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(1);
    });
    // Machine-parseable bind line on stdout — `--addr 127.0.0.1:0` gets
    // an ephemeral port, and scripts need to learn which.
    println!("listening {}", handle.addr);
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "apserve ready on {} (POST /submit, GET /stats, POST /shutdown)",
        handle.addr
    );
    while !handle.shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.shutdown();
    std::process::exit(0);
}

fn submit_cmd(args: &[String]) -> ! {
    let bad = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let Some(addr) = flag_value(args, "--addr") else {
        bad(
            "usage: repro submit --addr HOST:PORT (--job JSON | --job-file FILE | --stats | \
             --health | --shutdown) [--stream] [--retry N] [--out FILE]"
                .into(),
        );
    };
    let transport_fail = |e: String| -> ! {
        eprintln!("submit failed: {e}");
        std::process::exit(1);
    };
    if args.iter().any(|a| a == "--stats" || a == "--health") {
        let path = if args.iter().any(|a| a == "--stats") {
            "/stats"
        } else {
            "/healthz"
        };
        let resp = apserve::client::get(&addr, path).unwrap_or_else(|e| transport_fail(e));
        println!("{}", resp.body_str());
        std::process::exit(if resp.status == 200 { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "--shutdown") {
        let resp = apserve::client::request(&addr, "POST", "/shutdown", b"")
            .unwrap_or_else(|e| transport_fail(e));
        println!("{}", resp.body_str());
        std::process::exit(if resp.status == 200 { 0 } else { 1 });
    }
    let job = match (flag_value(args, "--job"), flag_value(args, "--job-file")) {
        (Some(json), None) => json,
        (None, Some(path)) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| bad(format!("cannot read {path}: {e}"))),
        _ => bad("submit takes exactly one of --job JSON or --job-file FILE".into()),
    };
    if args.iter().any(|a| a == "--stream") {
        // The flag is transport-only: inject `"stream": true` into the
        // job document (it is excluded from the cache key), so the
        // server narrates progress instead of answering in one piece.
        let job = match aputil::Json::parse(&job) {
            Ok(aputil::Json::Obj(mut fields)) => {
                fields.retain(|(k, _)| k != "stream");
                fields.push(("stream".to_string(), aputil::Json::Bool(true)));
                aputil::Json::Obj(fields).to_string()
            }
            _ => bad(format!("--stream needs a JSON object job, got: {job}")),
        };
        // Progress lines go to stderr as they arrive; the final report
        // line is the stdout payload, same as the non-streamed mode.
        let report = apserve::client::submit_stream(&addr, &job, |line| eprintln!("{line}"))
            .unwrap_or_else(|e| transport_fail(e));
        // A streamed job failure arrives as a final `{"error": ...}`
        // line over the same 200 stream; it is not a report.
        if let Ok(doc) = aputil::Json::parse(&report) {
            if doc.get("error").is_some() {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
        emit_report(args, &report);
        std::process::exit(0);
    }
    // `--retry N`: on 429 backpressure, honor the server's Retry-After
    // header with capped exponential backoff instead of exiting 3
    // immediately. Only 429 retries — structural errors would just fail
    // again, and 5xx may not be idempotent to wait out.
    let retries: u32 = match flag_value(args, "--retry") {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| bad(format!("--retry takes a count (>= 0), got '{s}'"))),
        None => 0,
    };
    let mut attempt: u32 = 0;
    let resp = loop {
        let resp = apserve::client::submit(&addr, &job).unwrap_or_else(|e| transport_fail(e));
        if resp.status != 429 || attempt >= retries {
            break resp;
        }
        attempt += 1;
        let after_secs: u64 = resp
            .header("retry-after")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let delay_ms = after_secs
            .saturating_mul(1000)
            .saturating_mul(1u64 << (attempt - 1).min(10))
            .min(10_000);
        eprintln!("server busy (429); retry {attempt}/{retries} in {delay_ms} ms");
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    };
    if let Some(cache) = resp.header("x-cache") {
        eprintln!(
            "x-cache: {cache}  x-key: {}",
            resp.header("x-key").unwrap_or("?")
        );
    }
    match resp.status {
        200 => {
            emit_report(args, &resp.body_str());
            std::process::exit(0);
        }
        // Backpressure gets its own exit code so retry loops can tell
        // "try again later" from "this request is broken".
        429 => {
            eprintln!("{}", resp.body_str());
            std::process::exit(3);
        }
        // Structural rejections, including a poisoned key: the request
        // (or its crash history) is the problem, not the server's load.
        400 | 404 | 405 | 413 | 422 => {
            eprintln!("{}", resp.body_str());
            std::process::exit(2);
        }
        _ => {
            eprintln!("{}", resp.body_str());
            std::process::exit(1);
        }
    }
}

/// Prints the report to stdout, or writes it (atomically) to `--out`.
fn emit_report(args: &[String], report: &str) {
    match flag_value(args, "--out") {
        Some(path) => {
            write_or_die(&path, report);
            eprintln!("wrote report to {path}");
        }
        None => println!("{report}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    if cmd == "job-exec" {
        // Hidden worker mode, spawned by `repro serve --sandbox`: one
        // canonical request on stdin, one result envelope on stdout.
        // Dispatched before any flag handling — its only interface is
        // the pipe protocol.
        apbench::job_exec_main();
    }
    let json_out = args.iter().any(|a| a == "--json");
    let ascii = args.iter().any(|a| a == "--ascii");
    let markdown = args.iter().any(|a| a == "--markdown");
    let trace_out = flag_value(&args, "--trace-out");
    let bench_out = flag_value(&args, "--bench-out");
    let md_out = flag_value(&args, "--md-out");
    let metrics_out = apply_telemetry_flags(&args);
    match cmd {
        "table1" => print!("{}", table1()),
        "fig6" => print!("{}", fig6()),
        "fig7" => {
            let bytes = match flag_value(&args, "--bytes") {
                Some(s) => s.parse().ok().filter(|&b| b > 0).unwrap_or_else(|| {
                    eprintln!("--bytes takes a message size in bytes (> 0), got '{s}'");
                    std::process::exit(2);
                }),
                None => 1600,
            };
            print!("{}", fig7(bytes));
        }
        "ablations" => {
            let scale = scale_or_die(&args);
            print!("{}", apbench::ablations(scale));
        }
        "compare" => compare_cmd(&args),
        "serve" => serve_cmd(&args),
        "submit" => submit_cmd(&args),
        "sweep" => sweep_cmd(&args),
        "fault" => fault_cmd(&args),
        "record" => record_cmd(&args),
        "replay" => replay_cmd(&args),
        "remodel" => remodel_cmd(&args),
        "table2" | "table3" | "fig8" | "all" | "bench" => {
            let scale = scale_or_die(&args);
            if cmd == "bench" && bench_out.is_none() {
                eprintln!("usage: repro bench --bench-out FILE [--scale test|paper] [--rev REV]");
                std::process::exit(2);
            }
            if trace_out.is_some() || bench_out.is_some() {
                // Every machine the suite builds records its timeline (the
                // bench report needs it for critical-path and divergence).
                apcore::set_timeline_default(true);
            }
            eprintln!("running the application suite at {scale:?} scale...");
            let t0 = Instant::now();
            let rows = run_suite(scale);
            eprintln!(
                "suite done in {:.1}s (all results verified)",
                t0.elapsed().as_secs_f64()
            );
            if let Some(path) = &trace_out {
                let refs: Vec<&apobs::Timeline> = rows.iter().map(|r| &r.timeline).collect();
                // Sampled counter tracks ride along in their own processes
                // after the per-workload ones (which hold pids 1..=N).
                let mut extra = Vec::new();
                for (i, r) in rows.iter().enumerate() {
                    if let Some(m) = &r.metrics {
                        let pid = (rows.len() + 1 + i) as u64;
                        extra.extend(apmon::perfetto_counter_events(&m.series, pid));
                    }
                }
                apobs::write_chrome_trace_with(Path::new(path), &refs, &extra)
                    .unwrap_or_else(|e| fail_io(ApError::io(path.clone(), e)));
                eprintln!("wrote Chrome trace to {path}");
            }
            if let Some(path) = &bench_out {
                let rev = flag_value(&args, "--rev");
                write_bench_report(Path::new(path), &rows, scale, rev.as_deref())
                    .unwrap_or_else(|e| fail_io(ApError::io(path.clone(), e)));
                eprintln!("wrote bench report to {path}");
            }
            emit_metrics(&args, metrics_out.as_deref(), &rows);
            if let Some(path) = &md_out {
                write_or_die(path, &markdown_report(&rows, scale));
                eprintln!("wrote Markdown report to {path}");
            }
            if json_out {
                println!("{}", suite_json(&rows));
                return;
            }
            match cmd {
                "bench" => {}
                "table2" if markdown => print!("{}", report::table2_markdown(&rows)),
                "table2" => print!("{}", table2(&rows)),
                "table3" if markdown => print!("{}", report::table3_markdown(&rows)),
                "table3" => print!("{}", table3(&rows)),
                "fig8" if markdown => print!("{}", report::fig8_markdown(&rows)),
                "fig8" if ascii => print!("{}", fig8_ascii(&rows)),
                "fig8" => print!("{}", fig8(&rows)),
                "all" if markdown => print!("{}", markdown_report(&rows, scale)),
                _ => {
                    print!("{}", table1());
                    println!();
                    print!("{}", fig6());
                    println!();
                    print!("{}", fig7(1600));
                    println!();
                    print!("{}", table2(&rows));
                    println!();
                    print!("{}", table3(&rows));
                    println!();
                    print!("{}", fig8(&rows));
                    println!();
                    print!("{}", fig8_ascii(&rows));
                    println!();
                    print!("{}", crosscheck(&rows));
                }
            }
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!(
                "usage: repro [table1|fig6|fig7|table2|table3|fig8|ablations|all|bench|compare|\
                 sweep|fault|record|replay|remodel] [--scale test|paper] [--json] [--ascii] \
                 [--markdown] [--trace-out FILE] [--bench-out FILE] [--rev REV] [--md-out FILE] \
                 [--threshold PCT] [--apps A,B] [--sizes default,4] [--factors 0.5,1.0] \
                 [--threads N] [--faults SPEC.ron] [--fault-seed N] [--out FILE] \
                 [--metrics-out FILE] [--metrics-interval USECS] [--heatmap] [--progress] \
                 [--flight-recorder N] [--flight-dump FILE]"
            );
            std::process::exit(2);
        }
    }
}
