//! The five workloads, end to end: set-up (timed, outside the measured
//! region), the tracing-off measurement with every output checked, and
//! the separate traced run that produces the per-layer numbers.

use crate::child::{self, Budget, ChildReport, ChildSpec};
use crate::host::{self, TmpDir};
use crate::metrics::{self, COLD, EMU, HIT, RECORD, SUITE};
use crate::pins::Pins;
use crate::serve::{self, CacheStats, Mix, Pass, PassLimit, Server, ServerOpts, CLIENTS};
use crate::spans::{self, Span};
use crate::stats::median;
use aputil::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How much to run. `apperf run` uses the fixed counts the workloads
/// were sized with; `apperf bench` derives them from `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Iterations or measured seconds of a simulator workload.
    pub sim: Budget,
    /// Serve passes and the seconds each lasts.
    pub passes: usize,
    pub pass_secs: f64,
    /// Times set-up is performed (at least 1); `setup_s` is their median.
    pub setups: usize,
    /// Reduced sizes, each workload about a second: a smoke run whose
    /// numbers are not comparable with anything.
    pub quick: bool,
    pub seed: u64,
}

/// Serve passes per run. The tail of a pass is set by bursts of host
/// noise rather than by its sample count (a 3.6 s `serve_hit` pass has
/// 230 samples beyond its p99, a `serve_cold` pass 13), so five shorter
/// passes give a steadier median p99 than the three 6 s passes ISSUE 11
/// sketched, for the same 18 s.
const SERVE_PASSES: usize = 5;

/// Set-ups per run; `setup_s` is their median. The first in a process
/// (and, in a fresh checkout, the one that really builds) is slower, so
/// there have to be enough for quartiles to ignore it.
const SETUPS: usize = 5;

impl Plan {
    /// The sizing of `apperf run` (ISSUE 11): 6 / 2 / 8 iterations and
    /// 18 s of serve passes, about 90 s of timed runs per set.
    pub fn full(workload: &str, seed: u64) -> Plan {
        Plan {
            sim: Budget::Iters(match workload {
                EMU => 6,
                SUITE => 2,
                _ => 8,
            }),
            passes: SERVE_PASSES,
            pass_secs: 18.0 / SERVE_PASSES as f64,
            setups: SETUPS,
            quick: false,
            seed,
        }
    }

    pub fn quick(seed: u64) -> Plan {
        Plan {
            sim: Budget::Iters(1),
            passes: SERVE_PASSES,
            pass_secs: 0.2,
            setups: 1,
            quick: true,
            seed,
        }
    }

    /// Measure for `seconds`, as the acceptance driver asks.
    pub fn timed(seconds: f64, seed: u64) -> Plan {
        Plan {
            sim: Budget::Seconds(seconds),
            passes: SERVE_PASSES,
            pass_secs: seconds / SERVE_PASSES as f64,
            setups: SETUPS,
            quick: false,
            seed,
        }
    }
}

/// What every workload needs from the host.
pub struct Ctx {
    pub root: PathBuf,
    pub tmp: TmpDir,
    pub repro: PathBuf,
}

impl Ctx {
    pub fn new() -> Result<Ctx, String> {
        let root = host::repo_root()?;
        let tmp = TmpDir::create(&root)?;
        let repro = host::repro_path(&root);
        Ok(Ctx { root, tmp, repro })
    }

    /// The part of set-up every workload shares: an up-to-date `repro`
    /// and the pins.
    fn prepare(&self) -> Result<Pins, String> {
        host::ensure_repro_built(&self.root)?;
        Pins::load(&self.root)
    }
}

/// One end-to-end metric of one workload: the reported value and the
/// samples behind it (`compare` judges the spread from them).
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Value {
    fn median_of(samples: Vec<f64>) -> Value {
        Value {
            value: median(&samples),
            samples,
        }
    }

    fn single(value: f64) -> Value {
        Value {
            value,
            samples: vec![value],
        }
    }
}

/// The tracing-off result of one workload.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    pub workload: String,
    /// End-to-end metric name → value; a metric that does not apply to
    /// the workload is absent.
    pub metrics: BTreeMap<String, Value>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sample counts and other facts a reader needs beside the numbers.
    pub notes: Vec<(String, Json)>,
}

impl Measured {
    fn put(&mut self, name: &str, v: Value) {
        debug_assert!(metrics::end_to_end(name).is_some(), "{name}");
        self.metrics.insert(name.to_string(), v);
    }

    fn note(&mut self, key: &str, v: impl Into<Json>) {
        self.notes.push((key.to_string(), v.into()));
    }

    fn finish(mut self) -> Measured {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.put("fail_ratio", Value::single(ratio));
        self
    }
}

/// The traced result of one workload: per-layer metric name → value for
/// every layer the run exercised, plus its spans.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub workload: String,
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Checked operations (iterations, requests, proofs) of every phase.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Traced {
    fn put(&mut self, name: &str, v: f64) {
        debug_assert!(metrics::per_layer(name).is_some(), "{name}");
        self.layers.insert(name.to_string(), v);
    }

    /// Counts a child's checked iterations and files the per-layer
    /// metrics among its values.
    fn absorb(&mut self, report: &ChildReport) {
        self.attempted += report.attempted;
        self.failed += report.failed;
        self.failures.extend(report.failures.iter().cloned());
        for (k, v) in &report.values {
            if metrics::per_layer(k).is_some() {
                self.layers.insert(k.clone(), *v);
            }
        }
    }

    fn count_pass(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.failures.extend(pass.failures.iter().cloned());
    }
}

pub fn measure(ctx: &Ctx, workload: &str, plan: &Plan) -> Result<Measured, String> {
    match metrics::workload(workload) {
        Some(w) if w.sim => measure_sim(ctx, workload, plan),
        Some(_) => measure_serve(ctx, workload, plan),
        None => Err(format!("unknown workload '{workload}'")),
    }
}

pub fn trace(ctx: &Ctx, workload: &str, plan: &Plan) -> Result<Traced, String> {
    let mut t = match workload {
        EMU => trace_emu(ctx, plan),
        SUITE => trace_suite(ctx, plan),
        RECORD => trace_record(ctx, plan),
        HIT => trace_hit(ctx, plan),
        COLD => trace_cold(ctx, plan),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    // The isolated probes ride along with every traced run, in their own
    // pinned child, so none of their time lands in a workload.
    let mut micro = ChildSpec::new(child::MICRO, Budget::Iters(1));
    micro.quick = plan.quick;
    micro.seed = plan.seed;
    t.absorb(&child::run(&micro, false)?);
    Ok(t)
}

// ---------------------------------------------------------------------------
// Simulator workloads.
// ---------------------------------------------------------------------------

fn sim_spec(workload: &str, plan: &Plan) -> ChildSpec {
    let mut spec = ChildSpec::new(workload, plan.sim);
    spec.quick = plan.quick;
    spec.seed = plan.seed;
    spec
}

fn measure_sim(ctx: &Ctx, workload: &str, plan: &Plan) -> Result<Measured, String> {
    // Set-up, repeated: build check, pins, a pinned child that is ready
    // to run. Rehearsal children exit at `ready`; the last one goes on to
    // measure.
    let mut setups = Vec::new();
    let mut running = None;
    let mut pins = None;
    for k in 0..plan.setups {
        let t0 = Instant::now();
        pins = Some(ctx.prepare()?);
        let mut spec = sim_spec(workload, plan);
        spec.setup_only = k + 1 < plan.setups;
        let child = child::spawn(&spec)?;
        setups.push(t0.elapsed().as_secs_f64());
        if spec.setup_only {
            child.wait_exit()?;
        } else {
            running = Some(child);
        }
    }
    let pins = pins.expect("at least one set-up ran");
    let report = running
        .expect("the last set-up keeps its child")
        .finish(false)?;

    let mut m = Measured {
        workload: workload.to_string(),
        attempted: report.attempted,
        failed: report.failed,
        failures: report.failures.clone(),
        ..Measured::default()
    };
    m.put("setup_s", Value::median_of(setups));
    let wall = Value::median_of(report.samples.clone());
    let events = if plan.quick {
        report.values.get("events").copied()
    } else {
        pins.for_workload(workload)
            .and_then(|p| p.events)
            .map(|e| e as f64)
    };
    if let Some(events) = events {
        m.put(
            "events_per_s",
            Value {
                value: events / wall.value,
                samples: report.samples.iter().map(|s| events / s).collect(),
            },
        );
        m.note("events", events);
    }
    let total: f64 = report.samples.iter().sum();
    m.put(
        "req_per_s",
        Value::single((report.attempted - report.failed) as f64 / total),
    );
    // No percentile of a handful of iterations has ten samples beyond
    // it, and their maximum is host noise, not a property of the
    // program: the median stands in for the tail.
    let lat = Value {
        value: wall.value * 1e3,
        samples: report.samples.iter().map(|s| s * 1e3).collect(),
    };
    m.put("lat_p99_ms", lat.clone());
    m.put("lat_p50_ms", lat);
    m.put("wall_s", wall);
    m.put(
        "peak_rss_mb",
        Value::single(report.peak_rss_kb as f64 / 1024.0),
    );
    if let Some(ns) = report.sim_total_ns {
        m.put("sim_total_ms", Value::single(ns as f64 / 1e6));
    }
    if let Some(&err) = report.values.get("table2_err_pct") {
        m.put("table2_err_pct", Value::single(err));
    }
    if let (Some(bytes), Some(ev)) = (
        report.values.get("trace_bytes"),
        report.values.get("events"),
    ) {
        m.put("trace_bytes_per_event", Value::single(bytes / ev));
    }
    m.note("samples", report.samples.len());
    m.note("pinned_cpu", report.pinned_cpu.map_or(Json::Null, Json::U));
    Ok(m.finish())
}

fn one_iteration(workload: &str, plan: &Plan, traced: bool) -> ChildSpec {
    let mut spec = sim_spec(workload, plan);
    spec.budget = Budget::Iters(1);
    spec.trace = traced;
    spec
}

/// Runs the workload once untraced and once traced; returns the traced
/// report and files `trace_overhead_pct`.
fn traced_pair(workload: &str, plan: &Plan, t: &mut Traced) -> Result<ChildReport, String> {
    let plain = child::run(&one_iteration(workload, plan, false), false)?;
    let traced = child::run(&one_iteration(workload, plan, true), workload == EMU)?;
    t.absorb(&plain);
    t.absorb(&traced);
    t.put(
        "trace_overhead_pct",
        (median(&traced.samples) / median(&plain.samples) - 1.0) * 100.0,
    );
    t.spans = traced.spans.clone();
    Ok(traced)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn trace_emu(ctx: &Ctx, plan: &Plan) -> Result<Traced, String> {
    let pins = ctx.prepare()?;
    let mut t = Traced {
        workload: EMU.to_string(),
        ..Traced::default()
    };
    let traced = traced_pair(EMU, plan, &mut t)?;
    if let Some(events) = pins.emu.events.filter(|_| !plan.quick) {
        t.put(
            "apcore.ns_per_event",
            spans::total_ns(&traced.spans, "apcore.run") as f64 / events as f64,
        );
    }
    if let Some(threads) = traced.threads_peak {
        t.put("apcore.threads_peak", threads as f64);
    }

    // The kernel's own phase split, from one metrics-on run.
    let mut prof = one_iteration(EMU, plan, false);
    prof.metrics = true;
    t.absorb(&child::run(&prof, false)?);

    // What the thread-per-cell design costs without pinning, and what
    // the PDES engine buys, on CG-256 (quick: CG-64): median of 3 each.
    let probe = |pin: bool, sim_threads: u32| -> Result<f64, String> {
        let mut spec = sim_spec(EMU, plan);
        spec.budget = Budget::Iters(3);
        spec.cells = Some(if plan.quick { 64 } else { 256 });
        spec.pin = pin;
        spec.sim_threads = Some(sim_threads);
        let r = child::run(&spec, false)?;
        if r.failed > 0 {
            return Err(format!("CG probe failed: {}", r.failures.join("; ")));
        }
        Ok(median(&r.samples))
    };
    let pinned = probe(true, 1)?;
    let unpinned = probe(false, 1)?;
    let unpinned_t2 = probe(false, 2)?;
    t.put("apcore.unpinned_wall_ratio", unpinned / pinned);
    t.put("apcore.pdes.speedup_t2", unpinned / unpinned_t2);
    Ok(t)
}

fn trace_suite(ctx: &Ctx, plan: &Plan) -> Result<Traced, String> {
    ctx.prepare()?;
    let mut t = Traced {
        workload: SUITE.to_string(),
        ..Traced::default()
    };
    let traced = traced_pair(SUITE, plan, &mut t)?;
    let s = &traced.spans;
    for app in apbench::SWEEP_APPS {
        let parent = format!("apapps.{app}");
        let emu: u64 = s
            .iter()
            .filter(|x| x.name == "apcore.run" && x.parent.is_some_and(|p| s[p].name == parent))
            .map(Span::dur_ns)
            .sum();
        t.put(&format!("apapps.{app}.emu_ms"), ms(emu));
    }
    let replay: u64 = ["ap1000", "star", "plus"]
        .iter()
        .map(|m| spans::total_ns(s, &format!("mlsim.replay.{m}")))
        .sum();
    let pass = spans::total_ns(s, "pass");
    if let Some(&ops) = traced.values.get("replay_ops") {
        t.put("mlsim.replay.ops_per_s", ops / (replay as f64 / 1e9));
    }
    t.put("mlsim.replay.share", replay as f64 / pass.max(1) as f64);
    t.put(
        "apbench.report.emit_ms",
        ms(spans::total_ns(s, "apbench.report.emit")),
    );
    Ok(t)
}

fn trace_record(ctx: &Ctx, plan: &Plan) -> Result<Traced, String> {
    ctx.prepare()?;
    let mut t = Traced {
        workload: RECORD.to_string(),
        ..Traced::default()
    };
    let traced = traced_pair(RECORD, plan, &mut t)?;
    let s = &traced.spans;
    t.put("mlsim.remodel.ms", ms(spans::total_ns(s, "mlsim.remodel")));
    if let Some(&events) = traced.values.get("events") {
        let secs = spans::total_ns(s, "apbench.conformance") as f64 / 1e9;
        t.put("apbench.conformance.events_per_s", events / secs);
    }
    let mut taps = ChildSpec::new(child::TAPS, Budget::Iters(1));
    taps.cells = Some(if plan.quick { 16 } else { 256 });
    t.absorb(&child::run(&taps, false)?);
    Ok(t)
}

// ---------------------------------------------------------------------------
// Serve workloads.
// ---------------------------------------------------------------------------

const WORKLOAD_OPTS: ServerOpts = ServerOpts {
    sandbox: false,
    cache_dir: None,
    cache_entries: 64,
};

struct ServeSetup {
    server: Server,
    mix: Mix,
    pins: Pins,
}

fn start_server(ctx: &Ctx, opts: &ServerOpts, tag: &str) -> Result<Server, String> {
    Server::start(
        &ctx.repro,
        opts,
        &ctx.tmp.path().join(format!("server-{tag}.log")),
    )
}

/// Set-up of a serve workload: build check, pins, server start, and for
/// the hit workload the 32 warm runs.
fn serve_setup(ctx: &Ctx, workload: &str, tag: &str) -> Result<ServeSetup, String> {
    let pins = ctx.prepare()?;
    let server = start_server(ctx, &WORKLOAD_OPTS, tag)?;
    let mix = if workload == HIT {
        Mix::Hit(serve::warm_hit_keys(&server, &pins)?)
    } else {
        serve::cold_mix(&pins)
    };
    Ok(ServeSetup { server, mix, pins })
}

fn limit(plan: &Plan) -> PassLimit {
    PassLimit {
        seconds: plan.pass_secs,
        max_requests: None,
    }
}

/// Checks a stats delta against what the workload claims to do.
fn check_stats(workload: &str, delta: &CacheStats, verified: u64, failures: &mut Vec<String>) {
    let mut want = |what: &str, ok: bool| {
        if !ok {
            failures.push(format!(
                "/stats delta: {what} ({delta:?}, {verified} verified)"
            ));
        }
    };
    if workload == HIT {
        want("hit workload ran the simulator", delta.runs == 0);
        want("hit workload evicted", delta.evictions == 0);
        want("hit workload missed", delta.hit_ratio() == 1.0);
    } else {
        want("cold workload hit the cache", delta.hit_ratio() == 0.0);
        want("cold runs != verified requests", delta.runs == verified);
    }
}

fn measure_serve(ctx: &Ctx, workload: &str, plan: &Plan) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..plan.setups {
        let t0 = Instant::now();
        let setup = serve_setup(ctx, workload, &format!("{workload}-{k}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(ServeSetup { server, .. }) = kept.replace(setup) {
            server.stop()?;
        }
    }
    let ServeSetup { server, mix, pins } = kept.expect("at least one set-up ran");

    let before = server.stats()?;
    let passes: Vec<Pass> = (0..plan.passes.max(1))
        .map(|p| {
            serve::run_pass(
                server.addr,
                &mix,
                CLIENTS,
                limit(plan),
                plan.seed,
                p as u64,
                false,
            )
        })
        .collect();
    let delta = server.stats()?.since(&before);
    let peak_rss_kb = server.peak_rss_kb();
    let server_cpu = server.cpu;
    let stopped = server.stop();

    let mut m = Measured {
        workload: workload.to_string(),
        ..Measured::default()
    };
    for p in &passes {
        m.attempted += p.attempted;
        m.failed += p.failed;
        m.failures.extend(p.failures.iter().cloned());
    }
    // The /stats proof and the clean shutdown are one more checked
    // operation beside the requests.
    let mut proof = Vec::new();
    check_stats(workload, &delta, m.attempted - m.failed, &mut proof);
    if let Err(e) = stopped {
        proof.push(format!("server shutdown: {e}"));
    }
    m.attempted += 1;
    m.failed += u64::from(!proof.is_empty());
    m.failures.extend(proof);

    let per_pass = |f: &dyn Fn(&Pass) -> f64| Value::median_of(passes.iter().map(f).collect());
    m.put("setup_s", Value::median_of(setups));
    m.put("wall_s", per_pass(&|p| p.secs));
    m.put("events_per_s", per_pass(&|p| p.events as f64 / p.secs));
    m.put("req_per_s", per_pass(&Pass::req_per_s));
    m.put("lat_p50_ms", per_pass(&Pass::p50_ms));
    m.put("lat_p99_ms", per_pass(&Pass::p99_ms));
    m.put("peak_rss_mb", Value::single(peak_rss_kb as f64 / 1024.0));
    let distinct_ns: u64 = pins.serve_apps.iter().map(|a| a.sim_total_ns).sum();
    m.put("sim_total_ms", Value::single(distinct_ns as f64 / 1e6));
    m.note("clients", CLIENTS);
    m.note("pinned_cpu", server_cpu);
    m.note(
        "requests_per_pass",
        Json::Arr(passes.iter().map(|p| Json::U(p.attempted)).collect()),
    );
    m.note(
        "samples_beyond_p99",
        Json::Arr(passes.iter().map(|p| Json::from(p.beyond_p99())).collect()),
    );
    // The highest percentile every pass can resolve (>= 10 samples
    // beyond it); lat_p99_ms is only as good as this says.
    let fewest = passes.iter().map(|p| p.lat_ms.len()).min().unwrap_or(0);
    m.note(
        "highest_percentile_with_10_beyond",
        crate::stats::tail_percentile(fewest).map_or(Json::Null, Json::F),
    );
    m.note("stats_runs", delta.runs);
    m.note("stats_evictions", delta.evictions);
    m.note("stats_hit_ratio", delta.hit_ratio());
    Ok(m.finish())
}

/// Mean microseconds of the spans named `name`.
fn mean_us(s: &[Span], name: &str) -> f64 {
    let n = s.iter().filter(|x| x.name == name).count().max(1);
    spans::total_ns(s, name) as f64 / 1e3 / n as f64
}

/// The untraced and traced passes of a serve workload's traced run, the
/// per-request span means and the `/stats` proof.
fn traced_passes(
    workload: &str,
    setup: &ServeSetup,
    plan: &Plan,
    t: &mut Traced,
) -> Result<Pass, String> {
    let before = setup.server.stats()?;
    let pass = |n: u64, traced: bool| {
        serve::run_pass(
            setup.server.addr,
            &setup.mix,
            CLIENTS,
            limit(plan),
            plan.seed,
            n,
            traced,
        )
    };
    let plain = pass(0, false);
    let mut traced = pass(1, true);
    let delta = setup.server.stats()?.since(&before);
    t.count_pass(&plain);
    t.count_pass(&traced);
    let mut proof = Vec::new();
    check_stats(
        workload,
        &delta,
        plain.verified() + traced.verified(),
        &mut proof,
    );
    t.attempted += 1;
    t.failed += u64::from(!proof.is_empty());
    t.failures.extend(proof);
    // A closed loop does work in proportion to its speed, so the tracing
    // overhead of a time-boxed pass shows as lost throughput.
    t.put(
        "trace_overhead_pct",
        (plain.req_per_s() / traced.req_per_s() - 1.0) * 100.0,
    );
    t.put("apserve.connect_us", mean_us(&traced.spans, "connect"));
    t.put("apserve.ttfb_us", mean_us(&traced.spans, "ttfb"));
    t.put("apserve.stats.hit_ratio", delta.hit_ratio());
    t.put("apserve.stats.runs", delta.runs as f64);
    t.put("apserve.stats.evictions", delta.evictions as f64);
    t.spans = std::mem::take(&mut traced.spans);
    Ok(traced)
}

fn trace_hit(ctx: &Ctx, plan: &Plan) -> Result<Traced, String> {
    let mut t = Traced {
        workload: HIT.to_string(),
        ..Traced::default()
    };
    let setup = serve_setup(ctx, HIT, "trace-hit")?;
    let floor = serve::run_pass(
        setup.server.addr,
        &Mix::Health,
        CLIENTS,
        limit(plan),
        plan.seed,
        9,
        false,
    );
    t.count_pass(&floor);
    let hit = traced_passes(HIT, &setup, plan, &mut t)?;
    setup.server.stop()?;
    t.put("apserve.http.floor_p50_ms", floor.p50_ms());
    t.put(
        "apserve.hit_service_share",
        (hit.p50_ms() - floor.p50_ms()) / hit.p50_ms(),
    );

    // Disk tier: one memory entry and 8 keys visited round-robin by one
    // client, so every request misses memory and is answered from disk.
    let disk_opts = ServerOpts {
        cache_dir: Some(ctx.tmp.path().join("disk-cache")),
        cache_entries: 1,
        ..WORKLOAD_OPTS
    };
    let server = start_server(ctx, &disk_opts, "trace-disk")?;
    let keys = serve::warm(&server, &setup.pins, 2)?;
    let disk = serve::run_pass(
        server.addr,
        &Mix::DiskHit(keys),
        1,
        limit(plan),
        plan.seed,
        10,
        false,
    );
    server.stop()?;
    t.count_pass(&disk);
    t.put("apserve.disk.hit_p50_ms", disk.p50_ms());
    Ok(t)
}

fn trace_cold(ctx: &Ctx, plan: &Plan) -> Result<Traced, String> {
    let mut t = Traced {
        workload: COLD.to_string(),
        ..Traced::default()
    };
    let setup = serve_setup(ctx, COLD, "trace-cold")?;
    let cold = traced_passes(COLD, &setup, plan, &mut t)?;

    // Hit latency on the same server, for the share of a cold request
    // that is execution rather than serving.
    let keys = serve::warm(&setup.server, &setup.pins, 1)?;
    let hit = serve::run_pass(
        setup.server.addr,
        &Mix::Hit(keys),
        CLIENTS,
        PassLimit {
            seconds: plan.pass_secs / 3.0,
            max_requests: None,
        },
        plan.seed,
        9,
        false,
    );
    setup.server.stop()?;
    t.count_pass(&hit);
    t.put(
        "apserve.exec_share_cold",
        (cold.p50_ms() - hit.p50_ms()) / cold.p50_ms(),
    );

    // Process-isolated workers: the same cold mix against --sandbox.
    let sandbox_opts = ServerOpts {
        sandbox: true,
        ..WORKLOAD_OPTS
    };
    let server = start_server(ctx, &sandbox_opts, "trace-sandbox")?;
    let sandboxed = serve::run_pass(
        server.addr,
        &setup.mix,
        CLIENTS,
        PassLimit {
            seconds: plan.pass_secs,
            max_requests: Some(300),
        },
        plan.seed,
        10,
        false,
    );
    server.stop()?;
    t.count_pass(&sandboxed);
    t.put("apserve.worker.sandbox_cold_p50_ms", sandboxed.p50_ms());
    t.put(
        "apserve.worker.spawn_overhead_ms",
        sandboxed.p50_ms() - cold.p50_ms(),
    );
    Ok(t)
}
