//! The command tables behind `repro`, `tracecat` and `probe`.
//!
//! Each binary is a [`Tool`]: a table of [`Command`]s, each declaring its
//! positionals and flag groups for the one strict parser
//! ([`aputil::cli`]) and a body that is parse → library call → print.
//! Usage text is generated from the table. Exit codes: 0 success, 1 the
//! work failed ([`CliError::Failed`], a regression, a failed gate), 2 the
//! command line or an input it names is wrong ([`CliError::Usage`], a
//! request the server rejected), 3 `submit` backpressure (retry later).
//! DESIGN.md §12 has the rationale.

use crate::{record, report, ExperimentRow, FaultSweepConfig, ReplayMode, SweepConfig};
use apapps::Scale;
use aputil::cli::{self, Args, Factor, Flag, Ranged, UsageError};
use aputil::{ApError, Json};
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a command body fails.
#[derive(Debug)]
pub enum CliError {
    /// The command line (or a file it names) is wrong: exit 2, and the
    /// command's generated usage follows the message.
    Usage(String),
    /// The work itself failed: exit 1.
    Failed(String),
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> CliError {
        CliError::Usage(e.to_string())
    }
}

impl From<ApError> for CliError {
    fn from(e: ApError) -> CliError {
        CliError::Failed(e.to_string())
    }
}

type Run = fn(&Args) -> Result<i32, CliError>;

/// Positionals of a command whose argv is ignored, not parsed.
const UNPARSED: &[&str] = &["[...]"];

/// One row of a command table.
pub struct Command {
    /// The subcommand word (empty for a tool without subcommands).
    pub name: &'static str,
    /// One line for the tool-level usage; empty hides the row.
    pub about: &'static str,
    /// Positional names for [`aputil::cli::parse`] (`[NAME]` = optional).
    pub positionals: &'static [&'static str],
    /// The flag groups this command accepts — and no others.
    pub flags: &'static [&'static [Flag]],
    /// The body; `Ok` carries the exit code.
    pub run: Run,
}

/// One binary: its name, its command table, and the command an empty
/// argv runs.
pub struct Tool {
    pub prog: &'static str,
    pub commands: &'static [Command],
    pub default: Option<&'static str>,
}

impl Tool {
    fn command_usage(&self, cmd: &Command) -> String {
        let line = format!("{} {}", self.prog, cmd.name);
        cli::usage(line.trim_end(), cmd.positionals, cmd.flags)
    }

    /// The tool-level usage: every visible command with its one-liner.
    pub fn usage(&self) -> String {
        let mut s = format!("usage: {} COMMAND [ARGS] [--FLAGS]\n", self.prog);
        for c in self.commands.iter().filter(|c| !c.about.is_empty()) {
            s.push_str(&format!("  {:9} {}\n", c.name, c.about));
        }
        if let Some(d) = self.default {
            s.push_str(&format!("no COMMAND runs `{d}`; "));
        }
        s.push_str("a flag the command does not list is an error that prints its flags\n");
        s
    }

    /// Picks the command and parses its arguments, touching nothing
    /// else. The error is the complete text for stderr (exit 2).
    pub fn resolve(&self, argv: &[String]) -> Result<(&'static Command, Args), String> {
        let (cmd, rest) = match self.commands {
            [only] if only.name.is_empty() => (only, argv),
            commands => {
                let first = argv.first().map(String::as_str);
                let name = first.or(self.default).ok_or_else(|| self.usage())?;
                let cmd = commands.iter().find(|c| c.name == name);
                let unknown = || format!("unknown command '{name}'\n\n{}", self.usage());
                (cmd.ok_or_else(unknown)?, argv.get(1..).unwrap_or_default())
            }
        };
        let rest = if cmd.positionals == UNPARSED {
            &[]
        } else {
            rest
        };
        match cli::parse(rest, cmd.flags, cmd.positionals) {
            Ok(args) => Ok((cmd, args)),
            Err(e) => Err(format!("{e}\n\n{}", self.command_usage(cmd))),
        }
    }

    /// Runs one invocation and returns the process exit code.
    pub fn main(&self, argv: &[String]) -> i32 {
        let (cmd, args) = match self.resolve(argv) {
            Ok(found) => found,
            Err(text) => {
                eprint!("{text}");
                return 2;
            }
        };
        match (cmd.run)(&args) {
            Ok(code) => code,
            Err(CliError::Usage(msg)) => {
                eprint!("{msg}\n\n{}", self.command_usage(cmd));
                2
            }
            Err(CliError::Failed(msg)) => {
                eprintln!("{msg}");
                1
            }
        }
    }
}

/// A machine size: no CLI value can reach `MachineConfig::new`'s assert.
type CellCount = Ranged<1, 65536>;

/// A Figure 7 message size. Summed over the five legs of its chain, the
/// slowest model charges under 90 ns per byte, so even 4 GiB stays near
/// 400 s: far inside `SimTime`'s 584 years, so no leg's `+` can overflow.
type MessageBytes = Ranged<1, { u32::MAX }>;

/// One `--sizes` element: `default` keeps the scale's own PE count.
struct SizeArg(Option<u32>);

impl std::str::FromStr for SizeArg {
    type Err = String;
    fn from_str(s: &str) -> Result<SizeArg, String> {
        if s == "default" {
            return Ok(SizeArg(None));
        }
        s.parse::<CellCount>().map(|c| SizeArg(Some(c.0)))
    }
}

/// Maps the `TELEMETRY` flags onto the prototype machine a command's
/// drivers carry down to every machine they build — the one site that
/// does (DESIGN.md §12). The cell count is a placeholder each driver
/// stamps over.
fn apply_telemetry(args: &Args) -> Result<apcore::MachineConfig, UsageError> {
    let mut machine = apcore::MachineConfig::new(1);
    let interval = args.value::<NonZeroU64>("--metrics-interval")?;
    if interval.is_some() || args.switch("--metrics-out") || args.switch("--heatmap") {
        let us = interval.map_or(100, NonZeroU64::get);
        machine.metrics_interval = Some(aputil::SimTime::from_micros(us));
    }
    machine.progress = args.switch("--progress");
    // `record` and `replay` decide the timeline themselves.
    if args.accepts("--flight-recorder") {
        let cap = args.value::<usize>("--flight-recorder")?;
        machine = machine.with_flight_recorder(cap.and_then(NonZeroUsize::new));
    }
    machine.flight_dump = args.value::<PathBuf>("--flight-dump")?;
    Ok(machine)
}

// ---------------------------------------------------------------------------
// Shared pieces of the command bodies.
// ---------------------------------------------------------------------------

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn scale(args: &Args) -> Result<Scale, UsageError> {
    Ok(args.value("--scale")?.unwrap_or(Scale::Paper))
}

fn threads(args: &Args) -> Result<usize, UsageError> {
    let given = args.value("--threads")?;
    Ok(given.unwrap_or_else(aputil::available_threads))
}

fn apps(args: &Args, default: &[&str]) -> Result<Vec<String>, UsageError> {
    let given = args.list("--apps")?;
    Ok(given.unwrap_or_else(|| default.iter().map(|s| s.to_string()).collect()))
}

fn factors(args: &Args) -> Result<Vec<f64>, UsageError> {
    let given = args.list::<Factor>("--factors")?;
    Ok(given.map_or_else(|| vec![1.0], |fs| fs.into_iter().map(|f| f.0).collect()))
}

fn positional(args: &Args, i: usize) -> &str {
    let given = args.positional(i);
    given.expect("the parser checked the positional count")
}

/// Atomic write (a full disk or a bad directory is exit 1 naming the
/// path), then the `wrote WHAT to PATH` note.
fn write_out(path: &str, contents: &str, what: &str) -> Result<(), CliError> {
    record::write_file(Path::new(path), contents.as_bytes())?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}

/// Reads a user-authored fault schedule for runs on `apps`. The kernel
/// drops events naming cells its machine lacks — a seeded sweep draws ids
/// for the largest selected machine and relies on that — so an event
/// naming a cell not even that machine has would silently fire nowhere:
/// it is rejected here, like a malformed file.
fn load_faults(
    path: &str,
    apps: &[String],
    scale: Scale,
    size: Option<u32>,
) -> Result<apcore::FaultSpec, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| usage_err(format!("cannot read {path}: {e}")))?;
    let spec = apfault::from_ron(&text).map_err(|e| usage_err(format!("{path}: {e}")))?;
    // No app builds: the run itself reports each one.
    let ncells = crate::fault::largest_machine(apps, scale, size).unwrap_or(u32::MAX);
    for (i, e) in spec.events.iter().enumerate() {
        if let Some(cell) = e.kind.cells().into_iter().find(|c| c.as_u32() >= ncells) {
            return Err(usage_err(format!(
                "{path}: event {i} `{}` names {cell}, but the largest selected machine has \
                 {ncells} cells",
                e.kind
            )));
        }
    }
    Ok(spec)
}

fn read_trace(path: &str) -> Result<aptrace::EvTrace, CliError> {
    let doc = aptrace::EvTrace::read_file(Path::new(path));
    doc.map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

/// Lists the failed grid points; the exit code says whether any did.
fn failures_exit(failures: &[String]) -> i32 {
    for f in failures {
        eprintln!("  FAILED  {f}");
    }
    i32::from(!failures.is_empty())
}

/// Writes the `ap1000plus.metrics` artifact and/or prints ASCII torus
/// heatmaps for the rows that carried sampled telemetry.
fn emit_metrics(args: &Args, rows: &[ExperimentRow]) -> Result<(), CliError> {
    let runs: Vec<(String, &apmon::RunMetrics)> = rows
        .iter()
        .filter_map(|r| r.metrics.as_deref().map(|m| (r.name.clone(), m)))
        .collect();
    if let Some(path) = args.value::<String>("--metrics-out")? {
        apmon::write_metrics_report(Path::new(&path), &runs)
            .map_err(|e| ApError::io(path.clone(), e))?;
        eprintln!("wrote metrics report to {path} ({} run(s))", runs.len());
    }
    if args.switch("--heatmap") {
        for (name, m) in &runs {
            for h in [&m.cell_busy, &m.link_util].into_iter().flatten() {
                println!("== {name} ==");
                print!("{}", h.render(64));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// repro.
// ---------------------------------------------------------------------------

fn show(text: String) -> Result<i32, CliError> {
    print!("{text}");
    Ok(0)
}

fn fig7_cmd(args: &Args) -> Result<i32, CliError> {
    let bytes = args.value::<MessageBytes>("--bytes")?;
    show(crate::fig7(bytes.map_or(1600, |b| u64::from(b.0))))
}

/// `table2`, `table3`, `fig8`, `all` and `bench`: one suite run, then
/// the artifacts asked for and the view named by `cmd`.
fn suite_cmd(args: &Args, cmd: &str) -> Result<i32, CliError> {
    let scale = scale(args)?;
    let trace_out = args.value::<String>("--trace-out")?;
    let bench_out = match cmd {
        "bench" => Some(args.required::<String>("--bench-out")?),
        _ => args.value("--bench-out")?,
    };
    let md_out = args.value::<String>("--md-out")?;
    let rev = args.value::<String>("--rev")?;
    let markdown = args.switch("--markdown");
    // Every machine the suite builds records its timeline when an
    // artifact needs it (the bench report's critical-path and divergence
    // sections, the Chrome trace).
    let mut machine = apply_telemetry(args)?;
    if trace_out.is_some() || bench_out.is_some() {
        machine = machine.with_timeline(true);
    }
    eprintln!("running the application suite at {scale:?} scale...");
    let t0 = Instant::now();
    let rows = crate::run_suite(scale, &machine);
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("suite done in {secs:.1}s (all results verified)");
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
            .map_err(|e| ApError::io(path.clone(), e))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &bench_out {
        crate::write_bench_report(Path::new(path), &rows, scale, rev.as_deref())
            .map_err(|e| ApError::io(path.clone(), e))?;
        eprintln!("wrote bench report to {path}");
    }
    emit_metrics(args, &rows)?;
    if let Some(path) = &md_out {
        write_out(
            path,
            &crate::markdown_report(&rows, scale),
            "Markdown report",
        )?;
    }
    if args.switch("--json") {
        println!("{}", crate::suite_json(&rows));
        return Ok(0);
    }
    show(match cmd {
        "bench" => String::new(),
        "table2" if markdown => report::table2_markdown(&rows),
        "table2" => crate::table2(&rows),
        "table3" if markdown => report::table3_markdown(&rows),
        "table3" => crate::table3(&rows),
        "fig8" if markdown => report::fig8_markdown(&rows),
        "fig8" if args.switch("--ascii") => crate::fig8_ascii(&rows),
        "fig8" => crate::fig8(&rows),
        "all" if markdown => crate::markdown_report(&rows, scale),
        _ => crate::all_text(&rows),
    })
}

fn compare_cmd(args: &Args) -> Result<i32, CliError> {
    let threshold: f64 = args.value("--threshold")?.unwrap_or(10.0);
    let load = |path: &str| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| usage_err(format!("cannot read {path}: {e}")))?;
        Json::parse(&text).map_err(|e| usage_err(format!("cannot parse {path}: {e}")))
    };
    let (base, cur) = (load(positional(args, 0))?, load(positional(args, 1))?);
    let cmp = crate::compare_reports(&base, &cur, threshold)
        .map_err(|e| usage_err(format!("compare failed: {e}")))?;
    print!("{}", cmp.render());
    Ok(i32::from(!cmp.pass()))
}

fn sweep_cmd(args: &Args) -> Result<i32, CliError> {
    let out_path: String = args.required("--bench-out")?;
    let cfg = SweepConfig {
        scale: scale(args)?,
        apps: apps(args, crate::SWEEP_APPS)?,
        sizes: match args.list::<SizeArg>("--sizes")? {
            Some(list) => list.into_iter().map(|s| s.0).collect(),
            None => vec![None],
        },
        factors: factors(args)?,
        threads: threads(args)?,
        machine: apply_telemetry(args)?,
    };
    let rev = args.value::<String>("--rev")?;
    eprintln!(
        "sweeping {} grid points ({} apps x {} sizes x {} factors) on {} threads at \
         {:?} scale...",
        cfg.grid().len(),
        cfg.apps.len(),
        cfg.sizes.len(),
        cfg.factors.len(),
        cfg.threads,
        cfg.scale
    );
    let t0 = Instant::now();
    let out = crate::run_sweep(&cfg);
    eprintln!(
        "sweep done in {:.1}s: {} points ok, {} failed",
        t0.elapsed().as_secs_f64(),
        out.rows.len(),
        out.failures.len()
    );
    let doc = crate::bench_report(&out.rows, cfg.scale, rev.as_deref());
    write_out(&out_path, &doc.to_string(), "sweep report")?;
    emit_metrics(args, &out.rows)?;
    if args.switch("--markdown") {
        print!("{}", report::table2_markdown(&out.rows));
    }
    Ok(failures_exit(&out.failures))
}

fn fault_cmd(args: &Args) -> Result<i32, CliError> {
    let (scale, apps, threads) = (scale(args)?, apps(args, crate::FAULT_APPS)?, threads(args)?);
    let out_path = args.value::<String>("--out")?;
    let faults = args.value::<String>("--faults")?;
    let machine = apply_telemetry(args)?;
    let cfg = match (faults, args.value::<u64>("--fault-seed")?) {
        (Some(path), None) => FaultSweepConfig {
            spec: load_faults(&path, &apps, scale, None)?,
            scale,
            apps,
            threads,
            machine,
        },
        (None, Some(seed)) => FaultSweepConfig::from_seed(scale, apps, seed, threads, machine)
            .map_err(CliError::Failed)?,
        _ => {
            return Err(usage_err(
                "fault takes exactly one of --faults, --fault-seed",
            ))
        }
    };
    eprintln!(
        "running {} app(s) under a {}-event fault schedule on {} threads at {:?} scale...",
        cfg.apps.len(),
        cfg.spec.events.len(),
        cfg.threads,
        cfg.scale
    );
    let t0 = Instant::now();
    let out = crate::run_fault_sweep(&cfg);
    eprintln!(
        "fault sweep done in {:.1}s: {} survived, {} failed",
        t0.elapsed().as_secs_f64(),
        out.rows.len(),
        out.failures.len()
    );
    let text = crate::fault_sweep_text(&cfg, &out);
    match out_path {
        Some(path) => write_out(&path, &text, "fault report")?,
        None => print!("{text}"),
    }
    Ok(failures_exit(&out.failures))
}

fn record_cmd(args: &Args) -> Result<i32, CliError> {
    let apps: Vec<String> = args
        .required::<String>("--apps")?
        .split(',')
        .map(str::to_string)
        .collect();
    let scale = scale(args)?;
    let size = args.value::<CellCount>("--size")?.map(|c| c.0);
    let threads = threads(args)?;
    let fault = match args.value::<String>("--faults")? {
        Some(path) => Some(load_faults(&path, &apps, scale, size)?),
        None => None,
    };
    let trace_out = args.value::<PathBuf>("--trace-out")?;
    let outs: Vec<(String, PathBuf)> = match (trace_out, args.value::<PathBuf>("--out-dir")?) {
        (Some(path), None) => match &apps[..] {
            [app] => vec![(app.clone(), path)],
            _ => {
                return Err(usage_err(
                    "--trace-out records one app; use --out-dir for several",
                ))
            }
        },
        (None, Some(dir)) => {
            std::fs::create_dir_all(&dir).map_err(|e| ApError::io(dir.display().to_string(), e))?;
            let out = |a: &String| (a.clone(), dir.join(format!("{a}.evtrace")));
            apps.iter().map(out).collect()
        }
        _ => {
            return Err(usage_err(
                "record takes exactly one of --trace-out, --out-dir",
            ))
        }
    };
    let machine = apply_telemetry(args)?;
    let t0 = Instant::now();
    let mut failed = false;
    for r in record::record_apps(&outs, scale, size, fault.as_ref(), threads, &machine) {
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
    Ok(i32::from(failed))
}

fn replay_cmd(args: &Args) -> Result<i32, CliError> {
    let path = positional(args, 0);
    // A cell id on the largest machine `CellCount` admits.
    let cell = args.value::<Ranged<0, 65535>>("--cell")?.map(|c| c.0);
    if let Some(at_ns) = args.value::<u64>("--at")? {
        // A seek re-executes nothing: a flag that shapes a run is a
        // mistake, not something to ignore.
        let run_flags = table::REPLAY_RUN.iter().flat_map(|g| g.iter());
        if let Some(f) = run_flags.map(|f| f.name).find(|name| args.switch(name)) {
            return Err(usage_err(format!(
                "{f} shapes a re-execution: it does not apply to a seek (--at NS)"
            )));
        }
        // The seek goes through the footer index, decoding only the
        // events sections that can hold state at `at_ns`.
        let doc = aptrace::EvTrace::read_file_at(Path::new(path), at_ns)
            .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
        return show(record::seek_report(&doc, at_ns, cell));
    }
    if cell.is_some() {
        return Err(usage_err("--cell narrows a seek: it needs --at NS"));
    }
    let doc = read_trace(path)?;
    let mode = if args.switch("--lenient") {
        ReplayMode::Lenient
    } else {
        ReplayMode::Strict
    };
    eprintln!(
        "replaying {} ({} cells, {} scale) against {path}...",
        doc.header.app, doc.header.ncells, doc.header.scale
    );
    let t0 = Instant::now();
    let conf = record::conformance_on(doc, mode, &apply_telemetry(args)?)
        .map_err(|e| CliError::Failed(format!("replay failed: {e}")))?;
    eprintln!("replay done in {:.1}s", t0.elapsed().as_secs_f64());
    print!("{}", conf.render());
    Ok(i32::from(!conf.passed()))
}

fn remodel_cmd(args: &Args) -> Result<i32, CliError> {
    let path = positional(args, 0);
    let factors = factors(args)?;
    let bench_out = args.value::<String>("--bench-out")?;
    let rev = args.value::<String>("--rev")?;
    let doc = read_trace(path)?;
    let rows = record::remodel_rows(&doc, &factors)
        .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    let scale = record::parse_scale_label(&doc.header.scale).map_err(usage_err)?;
    if let Some(out) = bench_out {
        let report = crate::bench_report(&rows, scale, rev.as_deref());
        write_out(&out, &report.to_string(), "bench report")?;
    }
    show(record::remodel_text(&rows))
}

fn serve_cmd(args: &Args) -> Result<i32, CliError> {
    fn set<T>(slot: &mut T, given: Option<T>) {
        if let Some(v) = given {
            *slot = v;
        }
    }
    let count =
        |flag| Ok::<_, UsageError>(args.value::<NonZeroUsize>(flag)?.map(NonZeroUsize::get));
    let positive = |flag| Ok::<_, UsageError>(args.value::<NonZeroU64>(flag)?.map(NonZeroU64::get));
    let mut cfg = apserve::Config::default();
    set(&mut cfg.addr, args.value("--addr")?);
    set(&mut cfg.workers, count("--workers")?);
    set(&mut cfg.queue_cap, count("--queue-cap")?);
    set(&mut cfg.cache_entries, count("--cache-entries")?);
    cfg.cache_dir = args.value("--cache-dir")?;
    cfg.disk_cache_bytes = positive("--disk-cache-bytes")?;
    cfg.allow_sleep = args.switch("--allow-sleep");
    set(&mut cfg.drain_ms, positive("--drain-ms")?);
    let (timeout, mem_mb) = (positive("--job-timeout")?, positive("--job-mem-mb")?);
    let retries = args.value::<u32>("--job-retries")?;
    if args.switch("--sandbox") {
        let exe = std::env::current_exe()
            .map_err(|e| CliError::Failed(format!("cannot locate own executable: {e}")))?;
        let exe = exe.to_string_lossy().into_owned();
        let mut sb = apserve::SandboxConfig::new(vec![exe, "job-exec".to_string()]);
        set(&mut sb.job_timeout_ms, timeout);
        sb.mem_limit_bytes = mem_mb.map(|mb| mb.saturating_mul(1024 * 1024));
        set(&mut sb.retries, retries);
        cfg.sandbox = Some(sb);
    } else if let Some(flag) = ["--job-timeout", "--job-mem-mb", "--job-retries"]
        .into_iter()
        .find(|f| args.switch(f))
    {
        return Err(usage_err(format!("{flag} requires --sandbox")));
    }
    if cfg.disk_cache_bytes.is_some() && cfg.cache_dir.is_none() {
        return Err(usage_err("--disk-cache-bytes requires --cache-dir"));
    }
    let handle = apserve::serve(cfg, crate::simulator_executor())
        .map_err(|e| CliError::Failed(format!("cannot start server: {e}")))?;
    // Machine-parseable bind line on stdout — `--addr 127.0.0.1:0` gets
    // an ephemeral port, and scripts need to learn which.
    println!("listening {}", handle.addr);
    std::io::Write::flush(&mut std::io::stdout()).ok();
    let addr = &handle.addr;
    eprintln!("apserve ready on {addr} (POST /submit, GET /stats, POST /shutdown)");
    while !handle.shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.shutdown();
    Ok(0)
}

fn submit_cmd(args: &Args) -> Result<i32, CliError> {
    use apserve::client;
    let addr: String = args.required("--addr")?;
    let retries = args.value::<u32>("--retry")?.unwrap_or(0);
    let out = args.value::<String>("--out")?;
    let job = args.value::<String>("--job")?;
    let job_file = args.value::<String>("--job-file")?;
    let query = ["--stats", "--health", "--shutdown"].map(|f| args.switch(f));
    let given = [job.is_some(), job_file.is_some()];
    if given.iter().chain(&query).filter(|&&on| on).count() != 1 {
        let actions = "--job, --job-file, --stats, --health, --shutdown";
        return Err(usage_err(format!("submit takes exactly one of {actions}")));
    }
    let transport = |e: String| CliError::Failed(format!("submit failed: {e}"));
    let job = match (job, job_file) {
        (Some(json), _) => json,
        (_, Some(path)) => std::fs::read_to_string(&path)
            .map_err(|e| usage_err(format!("cannot read {path}: {e}")))?,
        _ => {
            let resp = match query {
                [true, ..] => client::get(&addr, "/stats"),
                [_, true, _] => client::get(&addr, "/healthz"),
                _ => client::request(&addr, "POST", "/shutdown", b""),
            };
            let resp = resp.map_err(transport)?;
            println!("{}", resp.body_str());
            return Ok(i32::from(resp.status != 200));
        }
    };
    let on_retry = |attempt, delay_ms| {
        eprintln!("server busy (429); retry {attempt}/{retries} in {delay_ms} ms")
    };
    let resp = client::submit_with_retry(&addr, &job, retries, on_retry).map_err(transport)?;
    if let Some(cache) = resp.header("x-cache") {
        let key = resp.header("x-key").unwrap_or("?");
        eprintln!("x-cache: {cache}  x-key: {key}");
    }
    if resp.status == 200 {
        // The report goes to stdout, or (atomically) to `--out`.
        let report = resp.body_str();
        return match &out {
            Some(path) => write_out(path, &report, "report").map(|()| 0),
            None => {
                println!("{report}");
                Ok(0)
            }
        };
    }
    eprintln!("{}", resp.body_str());
    Ok(match resp.status {
        // Backpressure gets its own exit code so retry loops can tell
        // "try again later" from "this request is broken".
        429 => 3,
        // Structural rejections, including a poisoned key: the request
        // (or its crash history) is the problem, not the server's load.
        400 | 404 | 405 | 413 | 422 => 2,
        _ => 1,
    })
}

// ---------------------------------------------------------------------------
// tracecat.
// ---------------------------------------------------------------------------

fn tracecat_stats(args: &Args) -> Result<i32, CliError> {
    let path = positional(args, 0);
    // Flags are validated before the (possibly large) trace read: a bad
    // `--min-ratio` is diagnosed even when the file is missing.
    let min_ratio = args.value::<f64>("--min-ratio")?;
    if let Some(r) = min_ratio.filter(|r| !(r.is_finite() && *r >= 0.0)) {
        return Err(usage_err(format!(
            "--min-ratio takes a non-negative number, got '{r}'"
        )));
    }
    let doc = read_trace(path)?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let st = record::trace_stats(&doc, bytes);
    println!("binary: {} bytes ({} events)", st.binary_bytes, st.events);
    println!(
        "json equivalent: {} bytes (Chrome-trace timeline)",
        st.json_bytes
    );
    println!("ratio: {:.1}x", st.ratio());
    if let Some(min) = min_ratio.filter(|&min| st.ratio() < min) {
        eprintln!(
            "FAIL: ratio {:.1}x is below the required {min}x",
            st.ratio()
        );
        return Ok(1);
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// probe.
// ---------------------------------------------------------------------------

fn probe_cmd(args: &Args) -> Result<i32, CliError> {
    use mlsim::{replay_observed, ModelParams};
    let name = args.positional(0).unwrap_or("SP");
    let scale = if args.switch("--paper") {
        Scale::Paper
    } else {
        Scale::Test
    };
    let trace_out = args.value::<String>("--trace-out")?;
    let suite = apapps::standard_suite(scale);
    let Some(w) = suite.iter().find(|w| w.name() == name) else {
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        let names = names.join(", ");
        return Err(usage_err(format!(
            "no workload '{name}' (expected one of: {names})"
        )));
    };
    let failed = |what: &str, e: &dyn std::fmt::Display| {
        CliError::Failed(format!("{name} failed {what}: {e}"))
    };
    let machine = apcore::MachineConfig::new(w.pe()).with_timeline(trace_out.is_some());
    let report = w
        .run_on(machine, None)
        .map_err(|e| failed("on the emulator", &e))?;
    let mut replays = Vec::new();
    for m in &ModelParams::paper_models() {
        let r = replay_observed(&report.trace, m, trace_out.is_some());
        replays.push(r.map_err(|e| failed(&format!("replay under {}", m.name), &e))?);
    }
    if let Some(path) = &trace_out {
        let mut emu = report.timeline.clone();
        emu.source = format!("emulator/{name}");
        let mut tls = vec![emu];
        for r in &replays {
            let mut t = r.timeline.clone();
            t.source = format!("mlsim/{}", r.model);
            tls.push(t);
        }
        let refs: Vec<&apobs::Timeline> = tls.iter().collect();
        apobs::write_chrome_trace(Path::new(path), &refs)
            .map_err(|e| ApError::io(path.clone(), e))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if args.switch("--json") {
        let model_json = |r: &mlsim::ReplayResult| {
            Json::obj(vec![
                ("model", Json::Str(r.model.clone())),
                ("total_ns", Json::U(r.total.as_nanos())),
                ("mean_exec_ns", Json::U(r.mean(|b| b.exec).as_nanos())),
                ("mean_rts_ns", Json::U(r.mean(|b| b.rts).as_nanos())),
                (
                    "mean_overhead_ns",
                    Json::U(r.mean(|b| b.overhead).as_nanos()),
                ),
                ("mean_idle_ns", Json::U(r.mean(|b| b.idle).as_nanos())),
            ])
        };
        let out = Json::obj(vec![
            ("workload", Json::Str(name.to_string())),
            ("emulator_total_ns", Json::U(report.total_time.as_nanos())),
            ("counters", report.counters.to_json()),
            (
                "models",
                Json::Arr(replays.iter().map(model_json).collect()),
            ),
        ]);
        println!("{out}");
        return Ok(0);
    }
    println!("emulator total {}", report.total_time);
    for r in &replays {
        let mean = |f: fn(&mlsim::PeBreakdown) -> aputil::SimTime| r.mean(f).to_string();
        println!(
            "{:8} total {:>12}  exec {:>12} rts {:>12} overhead {:>12} idle {:>12}",
            r.model,
            r.total.to_string(),
            mean(|b| b.exec),
            mean(|b| b.rts),
            mean(|b| b.overhead),
            mean(|b| b.idle)
        );
    }
    println!("\ncounters:\n{}", report.counters.render());
    Ok(0)
}

// ---------------------------------------------------------------------------
// The tables. One row per flag and per command, so rustfmt stays out.
// Help strings are the one place per-flag prose lives.
// ---------------------------------------------------------------------------

pub use table::{PROBE, REPRO, TRACECAT};

#[rustfmt::skip]
mod table {
    use super::*;

    const SCALE: &[Flag] = &[Flag::new("--scale test|paper", "test = small instances (seconds); paper = reduced paper-shaped instances (default)")];
    const THREADS: &[Flag] = &[Flag::new("--threads N", "host worker threads (default: all cores); output is byte-identical for any N")];
    const APPS: Flag = Flag::new("--apps A,B,..", "applications, from EP,CG,FT,SP,TCst,TCnost,MatMul,SCG");
    const FACTORS: Flag = Flag::new("--factors F,..", "computation_factor multipliers for the three models, each in (0, 1000] (default 1.0)");
    const SIZES: Flag = Flag::new("--sizes N,..", "machine sizes in cells (1..=65536), or `default` for the scale's own");
    const BENCH_OUT: Flag = Flag::new("--bench-out FILE", "write the versioned ap1000plus.bench report (DESIGN.md §6) to FILE");
    const REV: Flag = Flag::new("--rev REV", "revision stamped into the bench report");
    const MARKDOWN: Flag = Flag::new("--markdown", "print GitHub-flavored tables");
    const FAULTS: Flag = Flag::new("--faults SPEC.ron", "fault-injection schedule file");
    const SUITE_OUT: &[Flag] = &[
        Flag::new("--json", "print machine-readable rows instead of tables"),
        MARKDOWN,
        Flag::new("--trace-out FILE", "record sim-time timelines on every run; write one Chrome-trace JSON (Perfetto)"),
        BENCH_OUT, // implies timeline recording: the suite report carries critical-path and divergence
        REV,
        Flag::new("--md-out FILE", "write the full Markdown report to FILE"),
    ];
    const METRICS_OUT: Flag = Flag::new("--metrics-out FILE", "write the ap1000plus.metrics artifact (suite and sweep runs); implies sampling");
    const METRICS_INTERVAL: Flag = Flag::new("--metrics-interval USECS", "sim-time sampling period (default 100); implies sampling");
    const HEATMAP: Flag = Flag::new("--heatmap", "print ASCII torus heatmaps; implies sampling");
    const PROGRESS: Flag = Flag::new("--progress", "rate-limited live progress lines per emulator run");
    const FLIGHT_DUMP: Flag = Flag::new("--flight-dump FILE", "write the recorded tail as a Chrome trace when a run dies");
    /// Read by [`apply_telemetry`] in every command that lists the group.
    const TELEMETRY: &[Flag] = &[
        METRICS_OUT, METRICS_INTERVAL, HEATMAP, PROGRESS,
        Flag::new("--flight-recorder N", "keep only the last N timeline events per cell unit (the only mode past 1024 cells)"),
        FLIGHT_DUMP,
    ];
    /// [`TELEMETRY`] for `record` and `replay`, which choose the timeline
    /// mode themselves: a flight recorder could only truncate a recording.
    const TELEMETRY_RECORDING: &[Flag] = &[METRICS_OUT, METRICS_INTERVAL, HEATMAP, PROGRESS, FLIGHT_DUMP];
    const SUITE: &[&[Flag]] = &[SCALE, SUITE_OUT, TELEMETRY];
    const FIG7: &[Flag] = &[Flag::new("--bytes N", "message size in bytes, 1..=4294967295 (default 1600)")];
    const ASCII: &[Flag] = &[Flag::new("--ascii", "render ASCII stacked bars")];
    const COMPARE: &[Flag] = &[Flag::new("--threshold PCT", "fail when a total in CURRENT is more than PCT percent slower (default 10)")];
    const GRID: &[Flag] = &[APPS, SIZES, FACTORS];
    const SWEEP: &[&[Flag]] = &[&[BENCH_OUT, REV, MARKDOWN], GRID, SCALE, THREADS, TELEMETRY];
    const FAULT: &[Flag] = &[
        FAULTS,
        Flag::new("--fault-seed N", "derive a survivable schedule from a seed instead of --faults"),
        Flag::new("--out FILE", "write the report to FILE instead of stdout"),
        APPS,
    ];
    const RECORD: &[Flag] = &[
        APPS,
        Flag::new("--trace-out FILE", "where the one app's trace goes"),
        Flag::new("--out-dir DIR", "write APP.evtrace per app into DIR"),
        Flag::new("--size N", "machine size in cells (1..=65536)"),
        FAULTS,
    ];
    const LENIENT: &[Flag] = &[Flag::new("--lenient", "gate final simulated times only; the first diverging event is still printed")];
    const SEEK: &[Flag] = &[
        Flag::new("--at NS", "skip re-execution; dump reconstructed machine state at sim-time NS (takes only --cell)"),
        Flag::new("--cell ID", "narrow the --at dump to one cell (0..=65535)"),
    ];
    /// The `replay` flags that shape a re-execution, so not a seek.
    pub(super) const REPLAY_RUN: &[&[Flag]] = &[LENIENT, TELEMETRY_RECORDING];
    const REMODEL: &[Flag] = &[FACTORS, BENCH_OUT, REV];
    const SERVE: &[Flag] = &[
        Flag::new("--addr HOST:PORT", "listen address (default 127.0.0.1:0 = ephemeral port, printed as `listening ADDR`)"),
        Flag::new("--workers N", "jobs executed at once (default 2)"),
        Flag::new("--queue-cap N", "admitted-but-not-running jobs before a 429 (default 8)"),
        Flag::new("--cache-entries N", "memory cache capacity (default 64)"),
        Flag::new("--cache-dir DIR", "persistent disk cache tier"),
        Flag::new("--disk-cache-bytes N", "disk tier byte budget, LRU (needs --cache-dir)"),
        Flag::new("--allow-sleep", "accept the test-only `sleep` job kind"),
        Flag::new("--sandbox", "run each job in a supervised `repro job-exec` child process"),
        Flag::new("--job-timeout MS", "per-job wall-clock deadline (needs --sandbox, default 600000)"),
        Flag::new("--job-mem-mb N", "per-job address-space ceiling (needs --sandbox)"),
        Flag::new("--job-retries N", "retries of a crashed job before its key is poisoned (needs --sandbox, default 1)"),
        Flag::new("--drain-ms MS", "shutdown grace for in-flight jobs (default 2000)"),
    ];
    const SUBMIT: &[Flag] = &[
        Flag::new("--addr HOST:PORT", "the server (required)"),
        Flag::new("--job JSON", "submit this job document"),
        Flag::new("--job-file FILE", "submit the job document in FILE"),
        Flag::new("--stats", "print GET /stats"),
        Flag::new("--health", "print GET /healthz"),
        Flag::new("--shutdown", "POST /shutdown: drain, then stop the server"),
        Flag::new("--retry N", "wait out up to N 429 answers (Retry-After, capped backoff)"),
        Flag::new("--out FILE", "write the report to FILE instead of stdout"),
    ];
    const MIN_RATIO: &[Flag] = &[Flag::new("--min-ratio R", "exit 1 when the size ratio falls below R")];
    const PROBE_FLAGS: &[Flag] = &[
        Flag::new("--paper", "paper-scale instance (default: test scale)"),
        Flag::new("--json", "print the breakdown as one JSON object"),
        Flag::new("--trace-out FILE", "emulator + the three MLSim replays as one Chrome-trace JSON"),
    ];
    const TRACE: &[&str] = &["TRACE.evtrace"];

    const fn cmd(name: &'static str, about: &'static str, positionals: &'static [&'static str], flags: &'static [&'static [Flag]], run: Run) -> Command {
        Command { name, about, positionals, flags, run }
    }

    /// `repro` — regenerate every table and figure of the AP1000+ paper.
    pub static REPRO: Tool = Tool { prog: "repro", default: Some("all"), commands: &[
        cmd("table1",    "machine specifications (static)",             &[], &[],                              |_| show(crate::table1())),
        cmd("fig6",      "MLSim parameter files",                       &[], &[],                              |_| show(crate::fig6())),
        cmd("fig7",      "PUT communication model chains",              &[], &[FIG7],                          fig7_cmd),
        cmd("table2",    "speedups vs AP1000 (runs the suite)",         &[], SUITE,                            |a| suite_cmd(a, "table2")),
        cmd("table3",    "per-PE communication statistics",             &[], SUITE,                            |a| suite_cmd(a, "table3")),
        cmd("fig8",      "normalized execution-time breakdown",         &[], &[SCALE, ASCII, SUITE_OUT, TELEMETRY], |a| suite_cmd(a, "fig8")),
        cmd("all",       "everything above, one suite run",             &[], SUITE,                            |a| suite_cmd(a, "all")),
        cmd("ablations", "the DESIGN.md §4 design-choice ablations",    &[], &[SCALE],                         |a| show(crate::ablations(scale(a)?))),
        cmd("bench",     "versioned bench report (needs --bench-out)",  &[], SUITE,                            |a| suite_cmd(a, "bench")),
        cmd("compare",   "diff two bench reports, exit 1 on regression", &["BASELINE.json", "CURRENT.json"], &[COMPARE], compare_cmd),
        cmd("sweep",     "parallel app x size x factor grid (needs --bench-out)", &[], SWEEP, sweep_cmd),
        cmd("fault",     "run apps under a fault-injection schedule",   &[], &[FAULT, SCALE, THREADS, TELEMETRY],  fault_cmd),
        cmd("record",    "record runs as binary .evtrace files",        &[], &[RECORD, SCALE, THREADS, TELEMETRY_RECORDING], record_cmd),
        cmd("replay",    "re-execute and gate against a recording, or seek into it", TRACE, &[LENIENT, SEEK, TELEMETRY_RECORDING], replay_cmd),
        cmd("remodel",   "replay recorded traffic under scaled models, no emulator", TRACE, &[REMODEL],          remodel_cmd),
        cmd("pins",      "rebuild every pinned artifact, print results/ARTIFACTS.fnv", &[], &[],                 |_| show(crate::pins::manifest(crate::pins::Rows::All).map_err(CliError::Failed)?)),
        cmd("serve",     "simulation-as-a-service job server",          &[], &[SERVE],                         serve_cmd),
        cmd("submit",    "client for a running repro serve (exit 3 = queue full)", &[], &[SUBMIT],              submit_cmd),
        // Hidden worker mode, spawned by `repro serve --sandbox`: its only
        // interface is the pipe protocol, so whatever else rides on its argv
        // (the sandbox tests tag their children there) is ignored.
        cmd("job-exec",  "",                                            UNPARSED, &[],                              |_| crate::job_exec_main().map(|()| 0).map_err(CliError::Failed)),
    ] };

    /// `tracecat` — inspect binary `.evtrace` recordings.
    pub static TRACECAT: Tool = Tool { prog: "tracecat", default: None, commands: &[
        cmd("header", "header + section inventory",                    TRACE, &[],          |a| show(record::header_text(&read_trace(positional(a, 0))?))),
        cmd("stats",  "size vs the Chrome-trace JSON timeline",          TRACE, &[MIN_RATIO], tracecat_stats),
    ] };

    /// `probe` — dev tool: per-model breakdown for one workload (not part
    /// of the reproduction tables; useful when calibrating).
    pub static PROBE: Tool = Tool { prog: "probe", default: None, commands: &[
        cmd("", "", &["[WORKLOAD]"], &[PROBE_FLAGS], probe_cmd),
    ] };
}
