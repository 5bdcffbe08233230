//! The three simulator workloads, as they run inside a pinned
//! `apperf child` process, and the instrumented variants the traced run
//! adds. Everything is measured from outside: each step is a call into a
//! crate's public function with a span around it.

use crate::pins::{table2_err_pct, Observed, Pins};
use crate::spans::Recorder;
use crate::stats::median;
use apapps::{standard_suite, Scale};
use apbench::sweep::build_workload;
use apbench::{bench_report, conformance, record_app, remodel_rows, ExperimentRow, ReplayMode};
use aptrace::{AppStats, EvTrace};
use mlsim::{replay, ModelParams};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `rev` stamped into the reports whose FNV is pinned.
const REPORT_REV: &str = "perf";
/// Remodel factor grid of the record/replay workload.
const REMODEL_FACTORS: [f64; 3] = [0.5, 1.0, 2.0];
/// Sampled-metrics interval of the metrics-on runs.
const METRICS_INTERVAL_US: u64 = 10;

/// What one iteration produced: the values compared against the pins,
/// every way it failed, and named side measurements.
#[derive(Default)]
pub struct Iteration {
    pub observed: Observed,
    pub errors: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Iteration {
    fn failed(stage: &str, e: impl std::fmt::Display) -> Iteration {
        Iteration {
            errors: vec![format!("{stage}: {e}")],
            ..Iteration::default()
        }
    }
}

/// `emu_cg1024`: build the workload and run it on the emulator. `run`
/// verifies the numerical result itself. With sampled metrics on, the
/// kernel's own `HostProf` phase split comes back as shares of its wall.
pub fn emu_iter(rec: &mut Recorder, cells: u32) -> Iteration {
    let built = rec.scope("apapps.build", |_| {
        build_workload("CG", Scale::Test, Some(cells))
    });
    let w = match built {
        Ok(w) => w,
        Err(e) => return Iteration::failed("build", e),
    };
    let report = match rec.scope("apcore.run", |_| w.run()) {
        Ok(r) => r,
        Err(e) => return Iteration::failed("emulate/verify", e),
    };
    let mut it = Iteration {
        observed: Observed {
            sim_total_ns: Some(report.total_time.as_nanos()),
            ops: Some(report.trace.total_ops() as u64),
            ..Observed::default()
        },
        ..Iteration::default()
    };
    if let Some(host) = report.metrics.as_ref().and_then(|m| m.host.as_ref()) {
        let wall = host.wall_ns().max(1) as f64;
        for (name, phase) in [
            ("pop", apmon::HostPhase::Pop),
            ("dispatch", apmon::HostPhase::Dispatch),
            ("drain", apmon::HostPhase::Drain),
            ("wakeup", apmon::HostPhase::Wakeup),
        ] {
            it.values.insert(
                format!("apcore.hostprof.{name}_share"),
                host.estimated_ns(phase) as f64 / wall,
            );
        }
    }
    it
}

/// `suite_paper`: the eight-app suite, serially, through the same steps
/// as `apbench::run_experiment` (emulate → verify → `AppStats` →
/// replay×3) and then the versioned bench report. Timelines are off, as
/// in a plain `repro all`, so the report has no analysis sections.
pub fn suite_iter(rec: &mut Recorder, scale: Scale, paper: &[(String, f64)]) -> Iteration {
    let mut rows = Vec::new();
    let mut sim_total_ns = 0u64;
    let mut ops = 0u64;
    for (w, cli_name) in standard_suite(scale).iter().zip(apbench::SWEEP_APPS) {
        rec.enter(&format!("apapps.{cli_name}"));
        let row = (|| -> Result<ExperimentRow, String> {
            let report = rec
                .scope("apcore.run", |_| w.run())
                .map_err(|e| format!("{cli_name} emulate/verify: {e}"))?;
            let stats = rec.scope("aptrace.stats", |_| {
                AppStats::from_trace(&report.trace).to_row()
            });
            let mut model = |span: &str, m: ModelParams| {
                rec.scope(span, |_| replay(&report.trace, &m))
                    .map_err(|e| format!("{cli_name} replay under {}: {e}", m.name))
            };
            let ap1000 = model("mlsim.replay.ap1000", ModelParams::ap1000())?;
            let star = model("mlsim.replay.star", ModelParams::ap1000_star())?;
            let plus = model("mlsim.replay.plus", ModelParams::ap1000_plus())?;
            sim_total_ns += report.total_time.as_nanos();
            ops += report.trace.total_ops() as u64;
            Ok(ExperimentRow {
                name: w.name().to_string(),
                pe: w.pe(),
                stats,
                ap1000,
                star,
                plus,
                emulator_total: report.total_time,
                counters: report.counters,
                timeline: report.timeline,
                critpath: None,
                divergence: None,
                host_ms: None,
                metrics: report.metrics,
            })
        })();
        rec.exit();
        match row {
            Ok(row) => rows.push(row),
            Err(e) => return Iteration::failed("suite", e),
        }
    }
    let text = rec.scope("apbench.report.emit", |_| {
        bench_report(&rows, scale, Some(REPORT_REV)).to_string()
    });
    let mut it = Iteration {
        observed: Observed {
            sim_total_ns: Some(sim_total_ns),
            ops: Some(ops),
            report_fnv: Some(aputil::fnv1a_64(text.as_bytes())),
            ..Observed::default()
        },
        ..Iteration::default()
    };
    let ours: Vec<f64> = rows.iter().map(|r| r.table2().0).collect();
    if ours.len() == paper.len() {
        it.values
            .insert("table2_err_pct".into(), table2_err_pct(&ours, paper));
    }
    // Each trace is replayed under three models.
    it.values.insert("replay_ops".into(), 3.0 * ops as f64);
    it
}

/// `record_replay_cg256`: streamed record → decode → strict conformance
/// (a second, instrumented run) → remodel. Returns the decoded document
/// too, for the traced run's evtrace probes.
pub fn record_iter(rec: &mut Recorder, cells: u32, path: &Path) -> (Iteration, Option<EvTrace>) {
    let recorded = rec.scope("apbench.record", |_| {
        record_app("CG", Scale::Test, Some(cells), None, path, true)
    });
    let recorded = match recorded {
        Ok(r) => r,
        Err(e) => return (Iteration::failed("record", e), None),
    };
    let decoded = rec.scope("aptrace.decode", |_| {
        std::fs::read(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|bytes| EvTrace::decode(&bytes).map_err(|e| e.to_string()))
    });
    let doc = match decoded {
        Ok(d) => d,
        Err(e) => return (Iteration::failed("decode", e), None),
    };
    let mut it = Iteration {
        observed: Observed {
            sim_total_ns: Some(recorded.total.as_nanos()),
            events: Some(recorded.events),
            ops: doc.ops.as_ref().map(|t| t.total_ops() as u64),
            trace_bytes: Some(recorded.bytes),
            ..Observed::default()
        },
        ..Iteration::default()
    };
    match rec.scope("apbench.conformance", |_| {
        conformance(&doc, ReplayMode::Strict)
    }) {
        Ok(c) if c.passed() => {}
        Ok(c) => it.errors.push(format!("conformance: {}", c.render())),
        Err(e) => it.errors.push(format!("conformance: {e}")),
    }
    match rec.scope("mlsim.remodel", |_| remodel_rows(&doc, &REMODEL_FACTORS)) {
        Ok(rows) => {
            let text = bench_report(&rows, Scale::Test, Some(REPORT_REV)).to_string();
            it.observed.report_fnv = Some(aputil::fnv1a_64(text.as_bytes()));
        }
        Err(e) => it.errors.push(format!("remodel: {e}")),
    }
    (it, Some(doc))
}

/// Median seconds of `n` runs of `f`.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The traced record run's isolated probes on the recorded document:
/// evtrace encode / decode / mid-run seek and the critical-path analysis
/// of the same timeline.
pub fn evtrace_probes(doc: &EvTrace, path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mb = bytes.len() as f64 / 1e6;
    let encode_s = median_secs(3, || {
        std::hint::black_box(aptrace::evtrace::encode(std::hint::black_box(doc)));
    });
    out.insert("aptrace.evtrace.encode_mb_s".into(), mb / encode_s);
    let decode_s = median_secs(3, || {
        std::hint::black_box(EvTrace::decode(std::hint::black_box(&bytes)).ok());
    });
    out.insert("aptrace.evtrace.decode_mb_s".into(), mb / decode_s);
    let mid = doc.summary.total_ns / 2;
    let mut seek_err = None;
    let seek_s = median_secs(5, || {
        if let Err(e) = EvTrace::read_file_at(path, mid) {
            seek_err = Some(e.to_string());
        }
    });
    if let Some(e) = seek_err {
        return Err(format!("seek to {mid} ns: {e}"));
    }
    out.insert("aptrace.evtrace.seek_ms".into(), seek_s * 1e3);
    let timeline = apobs::Timeline::from_events(doc.header.app.clone(), doc.all_events());
    let crit_s = median_secs(3, || {
        std::hint::black_box(apobs::critical_path(std::hint::black_box(&timeline)));
    });
    out.insert("apobs.critpath.ms".into(), crit_s * 1e3);
    Ok(out)
}

/// Recorder-tap and sampler overhead on one machine size, all in one
/// process and in this order because the switches are process-global and
/// `record_app` never turns the timeline default back off: plain runs,
/// then sampled-metrics runs, then streamed recordings.
pub fn tap_probes(cells: u32, path: &Path) -> Result<BTreeMap<String, f64>, String> {
    const REPEATS: usize = 3;
    let mut err: Option<String> = None;
    let mut plain = || {
        let r = build_workload("CG", Scale::Test, Some(cells)).and_then(|w| {
            w.run().map_err(|e| e.to_string())?;
            Ok(())
        });
        if let Err(e) = r {
            err = Some(e);
        }
    };
    let plain_s = median_secs(REPEATS, &mut plain);
    apcore::set_metrics_default(Some(aputil::SimTime::from_micros(METRICS_INTERVAL_US)));
    let sampled_s = median_secs(REPEATS, &mut plain);
    apcore::set_metrics_default(None);
    if let Some(e) = err {
        return Err(format!("CG-{cells}: {e}"));
    }
    let mut rec_err = None;
    let record_s = median_secs(REPEATS, || {
        if let Err(e) = record_app("CG", Scale::Test, Some(cells), None, path, true) {
            rec_err = Some(e.to_string());
        }
    });
    if let Some(e) = rec_err {
        return Err(format!("record CG-{cells}: {e}"));
    }
    Ok(BTreeMap::from([
        (
            "apobs.recorder.tap_overhead".to_string(),
            record_s / plain_s,
        ),
        ("apmon.sampler.overhead".to_string(), sampled_s / plain_s),
    ]))
}

/// Turns the sampled-metrics default on for the metrics-on CG-1024 run.
pub fn enable_sampled_metrics() {
    apcore::set_metrics_default(Some(aputil::SimTime::from_micros(METRICS_INTERVAL_US)));
}

/// Regenerates every pin. Timeline-off measurements first: the record
/// steps switch the process-wide timeline default on for good.
pub fn regenerate_pins(tmp: &Path) -> Result<Pins, String> {
    let paper = crate::pins::table2_paper_plus();
    let mut off = Recorder::new(false);
    let ok = |what: &str, it: Iteration| -> Result<Observed, String> {
        if it.errors.is_empty() {
            Ok(it.observed)
        } else {
            Err(format!("{what}: {}", it.errors.join("; ")))
        }
    };
    eprintln!("pin: emu_cg1024 (timeline off)");
    let mut emu = ok("emu_cg1024", emu_iter(&mut off, 1024))?;
    eprintln!("pin: suite_paper (timeline off)");
    let mut suite = ok("suite_paper", suite_iter(&mut off, Scale::Paper, &paper))?;
    eprintln!("pin: record_replay_cg256");
    let trace = tmp.join("pin.evtrace");
    let record = ok("record_replay_cg256", record_iter(&mut off, 256, &trace).0)?;

    let count_events = |app: &str, scale: Scale, size: Option<u32>| {
        record_app(app, scale, size, None, &trace, true).map_err(|e| format!("{app}: {e}"))
    };
    eprintln!("pin: event counts (timeline on)");
    emu.events = Some(count_events("CG", Scale::Test, Some(1024))?.events);
    let mut suite_events = 0;
    for app in apbench::SWEEP_APPS {
        suite_events += count_events(app, Scale::Paper, None)?.events;
    }
    suite.events = Some(suite_events);
    let mut serve_apps = Vec::new();
    for app in crate::pins::SERVE_APPS {
        let r = count_events(app, Scale::Test, None)?;
        serve_apps.push(crate::pins::ServeApp {
            name: app.to_string(),
            sim_total_ns: r.total.as_nanos(),
            events: r.events,
        });
    }
    Ok(Pins {
        emu,
        suite,
        record,
        serve_apps,
        table2_paper_plus: paper,
    })
}
