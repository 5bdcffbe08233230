//! Process isolation for simulator work: every simulator workload and
//! probe runs as `apperf child <kind>` in a fresh process pinned to one
//! CPU, because (a) thread-per-cell makes unpinned wall time scheduler
//! noise and (b) the library mutates process-global defaults
//! (`record_app` switches the timeline default on and never back) that
//! must not leak from one workload into the next.
//!
//! Protocol: the child prints `ready` once it is set up, runs, and
//! prints one JSON object as its last stdout line. The parent may sample
//! the child's `Threads` from `/proc` meanwhile.

use crate::host;
use crate::metrics::{EMU, RECORD, SUITE};
use crate::pins::{Observed, Pins};
use crate::sim::{self, Iteration};
use crate::spans::{self, Recorder, Span};
use apapps::Scale;
use aputil::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const MICRO: &str = "micro";
pub const TAPS: &str = "taps";

/// How long a child keeps starting iterations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    Iters(u32),
    /// As many iterations as bring the measured total nearest to this
    /// many seconds (at least one).
    Seconds(f64),
}

/// Everything a child needs to know, spelled as its command line.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildSpec {
    /// A simulator workload name, [`MICRO`] or [`TAPS`].
    pub kind: String,
    pub budget: Budget,
    /// Reduced sizes, no pins: `apperf run --quick`.
    pub quick: bool,
    pub trace: bool,
    pub pin: bool,
    /// Machine-size override of the emulate-only workload (CG-256 for
    /// the unpinned and PDES probes).
    pub cells: Option<u32>,
    pub sim_threads: Option<u32>,
    /// Sampled metrics on, for the `HostProf` split.
    pub metrics: bool,
    /// Exit right after `ready`: a set-up rehearsal.
    pub setup_only: bool,
    pub seed: u64,
}

impl ChildSpec {
    pub fn new(kind: &str, budget: Budget) -> ChildSpec {
        ChildSpec {
            kind: kind.to_string(),
            budget,
            quick: false,
            trace: false,
            pin: true,
            cells: None,
            sim_threads: None,
            metrics: false,
            setup_only: false,
            seed: 1,
        }
    }

    pub fn to_args(&self) -> Vec<String> {
        let mut a = vec!["child".to_string(), self.kind.clone()];
        match self.budget {
            Budget::Iters(n) => a.extend(["--iters".to_string(), n.to_string()]),
            Budget::Seconds(s) => a.extend(["--seconds".to_string(), s.to_string()]),
        }
        a.extend(["--seed".to_string(), self.seed.to_string()]);
        for (on, flag) in [
            (self.quick, "--quick"),
            (self.trace, "--trace"),
            (!self.pin, "--no-pin"),
            (self.metrics, "--metrics"),
            (self.setup_only, "--setup-only"),
        ] {
            if on {
                a.push(flag.to_string());
            }
        }
        if let Some(c) = self.cells {
            a.extend(["--cells".to_string(), c.to_string()]);
        }
        if let Some(t) = self.sim_threads {
            a.extend(["--sim-threads".to_string(), t.to_string()]);
        }
        a
    }

    /// Parses the arguments after `child`.
    pub fn from_args(args: &[String]) -> Result<ChildSpec, String> {
        let kind = args.first().ok_or("child needs a kind")?;
        let mut spec = ChildSpec::new(kind, Budget::Iters(1));
        let mut it = args[1..].iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| -> Result<&String, String> {
                it.next().ok_or(format!("{flag} takes {what}"))
            };
            fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
                s.parse().map_err(|_| format!("{flag}: bad value '{s}'"))
            }
            match flag.as_str() {
                "--iters" => spec.budget = Budget::Iters(num(flag, value("a count")?)?),
                "--seconds" => spec.budget = Budget::Seconds(num(flag, value("seconds")?)?),
                "--seed" => spec.seed = num(flag, value("a seed")?)?,
                "--cells" => spec.cells = Some(num(flag, value("a cell count")?)?),
                "--sim-threads" => spec.sim_threads = Some(num(flag, value("a count")?)?),
                "--quick" => spec.quick = true,
                "--trace" => spec.trace = true,
                "--no-pin" => spec.pin = false,
                "--metrics" => spec.metrics = true,
                "--setup-only" => spec.setup_only = true,
                other => return Err(format!("unknown child flag {other}")),
            }
        }
        Ok(spec)
    }
}

/// What a child reports back.
#[derive(Clone, Debug, Default)]
pub struct ChildReport {
    /// CPU the child pinned itself to; `None` when it ran unpinned.
    pub pinned_cpu: Option<u64>,
    /// Host seconds of each iteration, in order.
    pub samples: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, naming the iteration and the field.
    pub failures: Vec<String>,
    /// Simulated nanoseconds of the last iteration.
    pub sim_total_ns: Option<u64>,
    /// Named side measurements (medians across iterations where a value
    /// recurs).
    pub values: BTreeMap<String, f64>,
    pub peak_rss_kb: u64,
    pub spans: Vec<Span>,
    /// Highest `Threads` the parent saw in `/proc/<pid>/status`.
    pub threads_peak: Option<u64>,
}

impl ChildReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("pinned_cpu", self.pinned_cpu.map_or(Json::Null, Json::U)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&s| Json::F(s)).collect()),
            ),
            ("attempted", Json::U(self.attempted)),
            ("failed", Json::U(self.failed)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "sim_total_ns",
                self.sim_total_ns.map_or(Json::Null, Json::U),
            ),
            (
                "values",
                Json::obj(self.values.iter().map(|(k, v)| (k.clone(), Json::F(*v)))),
            ),
            ("peak_rss_kb", Json::U(self.peak_rss_kb)),
            ("spans", spans::to_json(&self.spans)),
        ])
    }

    fn from_json(doc: &Json) -> Option<ChildReport> {
        Some(ChildReport {
            pinned_cpu: doc.get("pinned_cpu")?.as_u64(),
            samples: doc
                .get("samples")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            failures: doc
                .get("failures")?
                .as_arr()?
                .iter()
                .map(|j| j.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            sim_total_ns: doc.get("sim_total_ns")?.as_u64(),
            values: doc
                .get("values")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            peak_rss_kb: doc.get("peak_rss_kb")?.as_u64()?,
            spans: spans::from_json(doc.get("spans")?)?,
            threads_peak: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Child side.
// ---------------------------------------------------------------------------

/// Entry point of `apperf child ...`. Never returns.
pub fn child_main(args: &[String]) -> ! {
    let code = match run_child_process(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("apperf child: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run_child_process(args: &[String]) -> Result<(), String> {
    let spec = ChildSpec::from_args(args)?;
    // Pin before anything spawns a thread: affinity is inherited.
    let pinned_cpu = if spec.pin {
        Some(host::pin_to_one_cpu()? as u64)
    } else {
        None
    };
    let root = host::repo_root()?;
    let tmp = host::TmpDir::create(&root)?;
    let pins = if spec.quick {
        None
    } else {
        Some(Pins::load(&root)?)
    };
    if let Some(t) = spec.sim_threads {
        apcore::set_sim_threads_default(t);
    }
    if spec.metrics {
        sim::enable_sampled_metrics();
    }
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    if spec.setup_only {
        return Ok(());
    }

    let mut report = match spec.kind.as_str() {
        MICRO => ChildReport {
            values: crate::micro::run_all(spec.seed, spec.quick)?,
            ..ChildReport::default()
        },
        TAPS => ChildReport {
            values: sim::tap_probes(spec.cells.unwrap_or(256), &tmp.path().join("taps.evtrace"))?,
            ..ChildReport::default()
        },
        EMU | SUITE | RECORD => run_workload(&spec, pins.as_ref(), tmp.path())?,
        other => return Err(format!("unknown child kind '{other}'")),
    };
    report.pinned_cpu = pinned_cpu;
    report.peak_rss_kb = host::proc_status(std::process::id(), "VmHWM").unwrap_or(0);
    println!("{}", report.to_json());
    Ok(())
}

fn run_workload(spec: &ChildSpec, pins: Option<&Pins>, tmp: &Path) -> Result<ChildReport, String> {
    // A size override means "a probe", not the pinned workload.
    let pin: Option<&Observed> = match spec.cells {
        Some(_) => None,
        None => pins.and_then(|p| p.for_workload(&spec.kind)),
    };
    let paper = pins.map_or_else(crate::pins::table2_paper_plus, |p| {
        p.table2_paper_plus.clone()
    });
    let trace_path = tmp.join("workload.evtrace");
    let mut rec = Recorder::new(spec.trace);
    let mut report = ChildReport::default();
    let mut recurring: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last_doc = None;
    let started = Instant::now();
    let mut measured = 0.0;
    for i in 0u64.. {
        let go_on = match spec.budget {
            Budget::Iters(n) => i < u64::from(n),
            // Run the whole number of iterations whose total lands
            // nearest to the budget: one more only if it overshoots by
            // less than stopping here undershoots. (Plain "while under
            // budget" flips between n and n+1 iterations whenever n of
            // them take about the budget, which two suite passes do.)
            Budget::Seconds(s) => i == 0 || measured + 0.5 * measured / (i as f64) < s,
        };
        if !go_on {
            break;
        }
        rec.set_iter(i);
        let t0 = Instant::now();
        rec.enter(if spec.kind == SUITE { "pass" } else { "iter" });
        let it: Iteration = match spec.kind.as_str() {
            EMU => sim::emu_iter(
                &mut rec,
                spec.cells.unwrap_or(if spec.quick { 64 } else { 1024 }),
            ),
            SUITE => sim::suite_iter(
                &mut rec,
                if spec.quick {
                    Scale::Test
                } else {
                    Scale::Paper
                },
                &paper,
            ),
            RECORD => {
                let (it, doc) =
                    sim::record_iter(&mut rec, if spec.quick { 16 } else { 256 }, &trace_path);
                last_doc = doc;
                it
            }
            _ => unreachable!("run_workload is only called for the simulator workloads"),
        };
        rec.exit();
        let secs = t0.elapsed().as_secs_f64();
        measured += secs;
        report.samples.push(secs);
        report.attempted += 1;
        let mut errors = it.errors;
        if let Some(pin) = pin {
            errors.extend(it.observed.mismatches(pin));
        }
        if !errors.is_empty() {
            report.failed += 1;
            report
                .failures
                .extend(errors.into_iter().map(|e| format!("iteration {i}: {e}")));
        }
        report.sim_total_ns = it.observed.sim_total_ns;
        for (k, v) in [
            ("events", it.observed.events),
            ("trace_bytes", it.observed.trace_bytes),
        ] {
            if let Some(v) = v {
                recurring.entry(k.to_string()).or_default().push(v as f64);
            }
        }
        for (k, v) in it.values {
            recurring.entry(k).or_default().push(v);
        }
        // A stuck simulator must not eat the whole time limit.
        if started.elapsed() > Duration::from_secs(150) {
            break;
        }
    }
    for (k, v) in recurring {
        report.values.insert(k, crate::stats::median(&v));
    }
    if spec.trace && spec.kind == RECORD {
        let doc = last_doc.ok_or("record produced no trace to probe")?;
        report
            .values
            .extend(sim::evtrace_probes(&doc, &trace_path)?);
    }
    report.spans = rec.into_spans();
    Ok(report)
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// A spawned child that has printed `ready`.
pub struct RunningChild {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
}

/// Spawns `apperf child` for `spec` and waits for its `ready` line.
pub fn spawn(spec: &ChildSpec) -> Result<RunningChild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate apperf: {e}"))?;
    let mut child = Command::new(exe)
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn apperf child: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let mut line = String::new();
    let ready = stdout.read_line(&mut line).map_err(|e| e.to_string());
    if !matches!(ready, Ok(n) if n > 0 && line.trim_end() == "ready") {
        let _ = child.kill();
        let status = child.wait().map_err(|e| e.to_string())?;
        return Err(format!(
            "apperf child {} died during set-up ({status})",
            spec.kind
        ));
    }
    Ok(RunningChild { child, stdout })
}

impl RunningChild {
    /// Waits for the child to finish and parses its report. With
    /// `sample_threads`, polls the child's `Threads` while it runs.
    pub fn finish(mut self, sample_threads: bool) -> Result<ChildReport, String> {
        let pid = self.child.id();
        let mut stdout = self.stdout;
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            stdout.read_to_string(&mut text).map(|_| text)
        });
        let mut threads_peak = None;
        let status = loop {
            if sample_threads {
                threads_peak = threads_peak.max(host::proc_status(pid, "Threads"));
            }
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let text = reader
            .join()
            .map_err(|_| "child stdout reader panicked".to_string())?
            .map_err(|e| format!("reading child stdout: {e}"))?;
        if !status.success() {
            return Err(format!("apperf child failed ({status})"));
        }
        let last = text.lines().last().unwrap_or("");
        let doc = Json::parse(last).map_err(|e| format!("child report: {e}"))?;
        let mut report = ChildReport::from_json(&doc).ok_or("child report is missing fields")?;
        report.threads_peak = threads_peak;
        Ok(report)
    }

    /// Reaps a set-up rehearsal.
    pub fn wait_exit(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("apperf child set-up rehearsal failed ({status})"))
        }
    }
}

/// Spawn + finish.
pub fn run(spec: &ChildSpec, sample_threads: bool) -> Result<ChildReport, String> {
    spawn(spec)?.finish(sample_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_its_command_line() {
        let mut spec = ChildSpec::new(EMU, Budget::Seconds(12.5));
        spec.quick = true;
        spec.trace = true;
        spec.pin = false;
        spec.cells = Some(256);
        spec.sim_threads = Some(2);
        spec.metrics = true;
        spec.seed = 42;
        let args = spec.to_args();
        assert_eq!(args[0], "child");
        assert_eq!(ChildSpec::from_args(&args[1..]).unwrap(), spec);

        let plain = ChildSpec::new(SUITE, Budget::Iters(2));
        assert_eq!(ChildSpec::from_args(&plain.to_args()[1..]).unwrap(), plain);
        assert!(ChildSpec::from_args(&["x".into(), "--bogus".into()]).is_err());
        assert!(ChildSpec::from_args(&["x".into(), "--iters".into()]).is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = ChildReport {
            pinned_cpu: Some(1),
            samples: vec![1.5, 2.25],
            attempted: 2,
            failed: 1,
            failures: vec!["iteration 1: events: got 1, pinned 2".into()],
            sim_total_ns: Some(9),
            values: BTreeMap::from([("x".to_string(), 0.5)]),
            peak_rss_kb: 7,
            spans: vec![Span {
                name: "iter".into(),
                start_ns: 1,
                end_ns: 2,
                parent: None,
                iter: 0,
            }],
            threads_peak: None,
        };
        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        let back = ChildReport::from_json(&doc).unwrap();
        assert_eq!(back.samples, report.samples);
        assert_eq!(back.failures, report.failures);
        assert_eq!(back.values, report.values);
        assert_eq!(back.spans, report.spans);
        assert_eq!(back.pinned_cpu, Some(1));
    }
}
