//! Record/replay engine behind `repro record`, `repro replay`, and
//! `repro remodel`.
//!
//! **Record** runs a workload on the machine emulator with full event
//! tracing and writes one compact binary `.evtrace` file (format:
//! DESIGN.md §9): the event timeline, the probe-op trace MLSim replays,
//! sampled counter ticks when telemetry is on, and the injected fault
//! schedule when the run was faulted. There is one recording order —
//! *engine order*: every machine, whatever its size, streams its events
//! through [`aptrace::StreamWriter`] as the kernel commits them, so the
//! timeline never accumulates in memory and the file is byte-reproducible
//! across host thread counts and neighbours. Each recording owns its
//! writer — it rides in that one machine's [`MachineConfig`] — so any
//! number of recordings run side by side.
//!
//! **Replay** re-executes the recorded workload — the emulator is
//! deterministic, so a healthy tree reproduces the recording event for
//! event, in order — into a sink that walks the recording beside the
//! fresh run and stops comparing at the first divergence, keeping a
//! two-sided context window. Nothing is buffered or sorted, so it works
//! at any machine size the recording itself decodes at. Strict mode fails
//! on a divergence; lenient mode gates final simulated times only and
//! prints the divergence for information. `--at` skips re-execution
//! entirely and reconstructs machine state (in-flight transfers, queue
//! depths, blocked cells) at a recorded sim-time: time-travel debugging
//! from the trace alone.
//!
//! **Remodel** replays the recorded traffic under scaled
//! [`ModelParams`] via [`mlsim::remodel`] — no emulator, seconds instead
//! of minutes — and emits a normal versioned `ap1000plus.bench` report.

use crate::sweep::build_workload;
use crate::ExperimentRow;
use apapps::Scale;
use apcore::{MachineConfig, TimelineMode};
use apobs::{Bucket, Timeline, TimelineEvent, Unit};
use aptrace::{AppStats, CounterTicks, EvHeader, EvTrace, StreamWriter};
use aputil::{ApError, SimTime};
use mlsim::ModelParams;
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Writes `contents` to `path` atomically (temp file + rename, via
/// [`aputil::write_atomic`]), wrapping failure as [`ApError::Io`] so the
/// message names the path (a full disk or a bad `--out` directory is
/// diagnosable without a backtrace). Atomicity matters because these are
/// baseline and report files CI diffs byte-for-byte: a crash mid-write
/// must leave the old bytes or nothing, never a truncated document.
pub fn write_file(path: &Path, contents: &[u8]) -> Result<(), ApError> {
    aputil::write_atomic(path, contents).map_err(|e| ApError::io(path.display().to_string(), e))
}

/// The scale label recorded in (and parsed back from) a trace header.
pub fn scale_label(scale: Scale) -> String {
    format!("{scale:?}").to_ascii_lowercase()
}

/// Inverse of [`scale_label`]; unknown labels error rather than guess.
pub fn parse_scale_label(label: &str) -> Result<Scale, String> {
    label
        .parse()
        .map_err(|_| format!("unknown scale label '{label}' in trace header"))
}

/// Flattens sampled telemetry into the delta-friendly column series the
/// counters section stores (one named series per gauge, one value per
/// tick, [`apmon::MetricsSample::COLUMNS`] order).
pub fn counter_ticks(m: &apmon::RunMetrics) -> CounterTicks {
    let s = &m.series.samples;
    let col = |f: &dyn Fn(&apmon::MetricsSample) -> u64| -> Vec<u64> { s.iter().map(f).collect() };
    CounterTicks {
        interval_ns: m.series.interval.as_nanos(),
        series: vec![
            ("t_ns".into(), col(&|x| x.t.as_nanos())),
            ("events".into(), col(&|x| x.events)),
            ("msgs".into(), col(&|x| x.msgs)),
            ("bytes".into(), col(&|x| x.bytes)),
            ("puts_inflight".into(), col(&|x| x.puts_inflight as u64)),
            ("gets_inflight".into(), col(&|x| x.gets_inflight as u64)),
            ("cells_blocked".into(), col(&|x| x.cells_blocked as u64)),
            ("barrier_waiting".into(), col(&|x| x.barrier_waiting as u64)),
            ("queue_depth".into(), col(&|x| x.queue_depth)),
            ("queue_depth_max".into(), col(&|x| x.queue_depth_max)),
            ("send_dma_busy".into(), col(&|x| x.send_dma_busy as u64)),
            ("recv_dma_busy".into(), col(&|x| x.recv_dma_busy as u64)),
            ("link_busy_ns".into(), col(&|x| x.link_busy_ns)),
            ("retries".into(), col(&|x| x.retries)),
            ("detours".into(), col(&|x| x.detours)),
        ],
    }
}

/// What one `repro record` run produced.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    /// Workload name as recorded in the header.
    pub app: String,
    /// Where the trace landed.
    pub path: PathBuf,
    /// Events encoded.
    pub events: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Final simulated time of the recorded run.
    pub total: SimTime,
}

fn evtrace_err(e: aptrace::EvError) -> ApError {
    match e {
        aptrace::EvError::Io { path, detail } => ApError::Io { path, detail },
        other => ApError::InvalidArg(other.to_string()),
    }
}

fn finalize_writer<W: Write>(
    sw: &mut StreamWriter<W>,
    report: &apcore::RunReport<()>,
    fault: Option<&apcore::FaultSpec>,
) -> Result<u64, ApError> {
    if report.trace.total_ops() > 0 {
        sw.append_ops(&report.trace);
    }
    if let Some(m) = &report.metrics {
        sw.append_counters(&counter_ticks(m));
    }
    if let Some(spec) = fault {
        sw.append_fault_ron(&apfault::to_ron(spec));
    }
    let events = sw.events_written();
    sw.finish(report.total_time.as_nanos())
        .map_err(evtrace_err)?;
    Ok(events)
}

/// Records one workload run into `out` on a default machine. `_stream`
/// is ignored — every recording streams — and stays only because the
/// frozen `perf/` harness passes it; it goes with the `[benchmark]`
/// refresh (ROADMAP item 1).
pub fn record_app(
    app: &str,
    scale: Scale,
    size: Option<u32>,
    fault: Option<&apcore::FaultSpec>,
    out: &Path,
    _stream: bool,
) -> Result<RecordedTrace, ApError> {
    record_app_on(app, scale, size, fault, out, &MachineConfig::new(1))
}

/// Records one workload run into `out`, with `machine`'s sampling,
/// progress and post-mortem options. The machine streams to this
/// recording's own writer: events go to disk in engine order as they
/// happen and never accumulate in memory.
///
/// The bytes land in a temporary sibling of `out` that is renamed into
/// place once the trailer is written (no `fsync`: a recording can be
/// re-recorded): a run that fails — or panics — leaves `out` untouched.
pub fn record_app_on(
    app: &str,
    scale: Scale,
    size: Option<u32>,
    fault: Option<&apcore::FaultSpec>,
    out: &Path,
    machine: &MachineConfig,
) -> Result<RecordedTrace, ApError> {
    let w = build_workload(app, scale, size).map_err(ApError::InvalidArg)?;
    let header = EvHeader::new(w.pe(), w.name(), &scale_label(scale));
    let path_str = out.display().to_string();
    let io_err = |e| ApError::io(path_str.clone(), e);
    let tmp = aputil::TempSibling::new(out).map_err(io_err)?;
    let bufw = BufWriter::new(File::create(tmp.path()).map_err(io_err)?);
    let writer = Arc::new(Mutex::new(StreamWriter::new(bufw, &path_str, &header)));
    let mut machine = machine.clone().with_cells(w.pe());
    machine.timeline = TimelineMode::Stream(writer.clone());
    let report = w.run_on(machine, fault)?;
    let mut sw = writer.lock().expect("stream writer poisoned");
    let events = finalize_writer(&mut sw, &report, fault)?;
    let bytes = std::fs::metadata(tmp.path()).map_err(io_err)?.len();
    tmp.commit().map_err(io_err)?;
    Ok(RecordedTrace {
        app: w.name().to_string(),
        path: out.to_path_buf(),
        events,
        bytes,
        total: report.total_time,
    })
}

/// Records each `(app, output path)` pair, fanning the apps across
/// `threads` host workers; results come back in `outs` order, failures
/// as `"<app>: <error>"`.
pub fn record_apps(
    outs: &[(String, PathBuf)],
    scale: Scale,
    size: Option<u32>,
    fault: Option<&apcore::FaultSpec>,
    threads: usize,
    machine: &MachineConfig,
) -> Vec<Result<RecordedTrace, String>> {
    aputil::par_map_ordered(outs, threads, |(app, path)| {
        record_app_on(app, scale, size, fault, path, machine).map_err(|e| format!("{app}: {e}"))
    })
}

// ---------------------------------------------------------------------------
// Replay conformance.
// ---------------------------------------------------------------------------

/// How hard `repro replay` gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Event-for-event identity, in order; the first divergence fails
    /// the gate.
    Strict,
    /// Final-sim-time identity only; the first divergence is printed but
    /// does not fail the gate.
    Lenient,
}

/// Outcome of gating a re-executed run against a recording.
#[derive(Clone, Debug)]
pub struct Conformance {
    /// Workload that was replayed.
    pub app: String,
    /// Mode the gate ran in.
    pub mode: ReplayMode,
    /// Events in the recording / in the fresh run.
    pub recorded_events: usize,
    /// Events the re-executed run produced.
    pub replayed_events: usize,
    /// Final simulated time the recording declares.
    pub recorded_total_ns: u64,
    /// Final simulated time of the fresh run.
    pub replayed_total_ns: u64,
    /// Rendered context window around the first diverging event.
    pub mismatch: Option<String>,
}

impl Conformance {
    /// True when the gate passes under its mode.
    pub fn passed(&self) -> bool {
        match self.mode {
            ReplayMode::Strict => {
                self.mismatch.is_none() && self.recorded_total_ns == self.replayed_total_ns
            }
            ReplayMode::Lenient => self.recorded_total_ns == self.replayed_total_ns,
        }
    }

    /// Human rendering: verdict line, totals, divergence summary, and
    /// the mismatch window when there is one.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} replay of {}: {}\n  recorded: {} events, final time {} ns\n  replayed: {} events, final time {} ns\n",
            match self.mode {
                ReplayMode::Strict => "strict",
                ReplayMode::Lenient => "lenient",
            },
            self.app,
            if self.passed() { "PASS" } else { "FAIL" },
            self.recorded_events,
            self.recorded_total_ns,
            self.replayed_events,
            self.replayed_total_ns,
        );
        if self.recorded_total_ns != self.replayed_total_ns {
            let d = self.replayed_total_ns as i128 - self.recorded_total_ns as i128;
            s.push_str(&format!("  divergence: final time {d:+} ns\n"));
        }
        if let Some(m) = &self.mismatch {
            s.push_str(m);
        }
        s
    }
}

/// One line of the mismatch context window.
pub fn fmt_event(e: &TimelineEvent) -> String {
    let dur = match e.dur {
        Some(d) => format!("+{}", d.as_nanos()),
        None => "instant".to_string(),
    };
    format!(
        "cell {:>4} {:?}/{:?} {} @{} {} arg={} tid={}",
        e.cell,
        e.unit,
        e.bucket,
        e.name,
        e.start.as_nanos(),
        dur,
        e.arg,
        e.tid
    )
}

/// Events of context kept either side of the first divergence.
const CONTEXT: usize = 3;

/// The [`apobs::EventSink`] a replay re-executes into: it walks the
/// recording's events in file order beside the fresh run's, counts, and
/// stops comparing at the first divergence. Consumed sections are freed
/// as the walk passes them.
struct Lockstep {
    recorded: Box<dyn Iterator<Item = TimelineEvent> + Send>,
    replayed_events: usize,
    /// The last [`CONTEXT`] matched events, newest first.
    before: VecDeque<TimelineEvent>,
    /// Index of the first divergence, and what each side holds from
    /// there on: the diverging event plus [`CONTEXT`] more, or nothing
    /// when that side ended.
    diverged_at: Option<usize>,
    recorded_after: Vec<TimelineEvent>,
    replayed_after: Vec<TimelineEvent>,
}

impl Lockstep {
    /// Parts ways at the current index, where the recording holds
    /// `recorded` (if anything).
    fn diverge(&mut self, recorded: Option<TimelineEvent>) {
        self.diverged_at = Some(self.replayed_events);
        let following = self.recorded.by_ref().take(CONTEXT);
        self.recorded_after = recorded.into_iter().chain(following).collect();
    }

    /// The two-sided window: `>` marks the diverging index, and a side
    /// with no event there says so.
    fn render(&self, recorded_events: usize) -> Option<String> {
        let i = self.diverged_at?;
        let replayed_events = self.replayed_events;
        let mut s = format!(
            "  first mismatch at event {i} ({recorded_events} recorded / {replayed_events} replayed):\n"
        );
        let sides = [&self.recorded_after, &self.replayed_after];
        for (label, side) in ["recorded", "replayed"].into_iter().zip(sides) {
            s.push_str(&format!("  {label}:\n"));
            let context = self.before.iter().rev().chain(side);
            for (k, e) in (i - self.before.len()..).zip(context) {
                let mark = if k == i { '>' } else { ' ' };
                s.push_str(&format!("  {mark} {k:>8}  {}\n", fmt_event(e)));
            }
            if side.is_empty() {
                s.push_str(&format!("  > {i:>8}  (stream ends here)\n"));
            }
        }
        Some(s)
    }
}

impl apobs::EventSink for Lockstep {
    fn event(&mut self, ev: &TimelineEvent) {
        if self.diverged_at.is_none() {
            match self.recorded.next() {
                Some(want) if want == *ev => {
                    self.before.truncate(CONTEXT - 1);
                    self.before.push_front(want);
                }
                other => self.diverge(other),
            }
        }
        if self.diverged_at.is_some() && self.replayed_after.len() <= CONTEXT {
            self.replayed_after.push(ev.clone());
        }
        self.replayed_events += 1;
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// [`conformance_on`] a default machine, for callers that keep the
/// document (one clone of it, as [`EvTrace::all_events`] would make).
pub fn conformance(doc: &EvTrace, mode: ReplayMode) -> Result<Conformance, ApError> {
    conformance_on(doc.clone(), mode, &MachineConfig::new(1))
}

/// Re-executes the workload a trace records, with `machine`'s sampling,
/// progress and post-mortem options, into a [`Lockstep`] sink that takes
/// over the document's events. Faulted recordings re-run under the
/// recorded schedule. `mode` only decides whether a divergence fails the
/// gate.
///
/// # Errors
///
/// Errors when the header names an unknown app or scale, the fault RON
/// fails to parse, or the re-executed run itself fails.
pub fn conformance_on(
    doc: EvTrace,
    mode: ReplayMode,
    machine: &MachineConfig,
) -> Result<Conformance, ApError> {
    let scale = parse_scale_label(&doc.header.scale).map_err(ApError::InvalidArg)?;
    let w = build_workload(&doc.header.app, scale, Some(doc.header.ncells))
        .map_err(ApError::InvalidArg)?;
    let fault = doc
        .fault_ron
        .as_deref()
        .map(apfault::from_ron)
        .transpose()
        .map_err(|e| ApError::InvalidArg(format!("recorded fault schedule: {e}")))?;
    let recorded_events = doc.streams.iter().map(|s| s.events.len()).sum();
    let sink = Arc::new(Mutex::new(Lockstep {
        recorded: Box::new(doc.streams.into_iter().flat_map(|s| s.events)),
        replayed_events: 0,
        before: VecDeque::new(),
        diverged_at: None,
        recorded_after: Vec::new(),
        replayed_after: Vec::new(),
    }));
    let mut machine = machine.clone().with_cells(w.pe());
    machine.timeline = TimelineMode::Stream(sink.clone());
    let report = w.run_on(machine, fault.as_ref())?;
    let mut sink = sink.lock().expect("lockstep sink poisoned");
    // A recording with events left diverges where the run ended.
    if sink.diverged_at.is_none() {
        if let Some(left) = sink.recorded.next() {
            sink.diverge(Some(left));
        }
    }
    Ok(Conformance {
        app: doc.header.app,
        mode,
        recorded_events,
        replayed_events: sink.replayed_events,
        recorded_total_ns: doc.summary.total_ns,
        replayed_total_ns: report.total_time.as_nanos(),
        mismatch: sink.render(recorded_events),
    })
}

// ---------------------------------------------------------------------------
// Time-travel seek.
// ---------------------------------------------------------------------------

/// Reconstructs machine state at sim-time `at_ns` from the recorded
/// events alone (no re-execution): in-flight DMA/network transfers
/// (duration spans covering the instant), per-cell MSC+ queue depths
/// (the last queue-unit event at or before it carries the depth in
/// `arg`), and blocked cells (idle spans covering it, barrier waiters
/// called out). `cell` narrows the dump to one cell. One pass over the
/// document in file order; only the few selected events are ordered, by
/// `(cell, unit, start)`, for printing.
pub fn seek_report(doc: &EvTrace, at_ns: u64, cell: Option<u32>) -> String {
    const MAX_LINES: usize = 64;
    let t = SimTime::from_nanos(at_ns);
    let want = |c: u32| cell.is_none_or(|only| c == only);
    let covers = |e: &TimelineEvent| e.dur.is_some() && e.start <= t && t < e.end();
    // Print order, extended to a total order so ties never depend on
    // where in the file an event sits.
    let order = |e: &TimelineEvent| {
        let (unit, bucket) = (e.unit.index(), e.bucket.index());
        (e.cell, unit, e.start, e.end(), e.name, bucket, e.arg, e.tid)
    };

    let mut s = format!(
        "state at t={at_ns} ns (app {}, {} cells, run ends at {} ns)\n",
        doc.header.app, doc.header.ncells, doc.summary.total_ns
    );
    if at_ns > doc.summary.total_ns {
        s.push_str("  (seek time is past the end of the recording)\n");
    }

    let mut inflight = Vec::new();
    let mut blocked = Vec::new();
    // Per cell, the latest queue-unit event at or before t.
    let mut queue: BTreeMap<u32, &TimelineEvent> = BTreeMap::new();
    for e in doc.streams.iter().flat_map(|st| &st.events) {
        if !want(e.cell) {
            continue;
        }
        if e.unit == Unit::Queue && e.start <= t {
            let latest = queue.entry(e.cell).or_insert(e);
            if order(latest) <= order(e) {
                *latest = e;
            }
        }
        if !covers(e) {
            continue;
        }
        match e.unit {
            Unit::SendDma | Unit::RecvDma | Unit::Net => inflight.push(e),
            Unit::Cpu if e.bucket == Bucket::Idle => blocked.push(e),
            _ => {}
        }
    }
    inflight.sort_by_key(|e| order(e));
    blocked.sort_by_key(|e| order(e));
    let in_barrier = blocked.iter().filter(|e| e.name == "barrier").count();

    s.push_str(&format!("  in-flight transfers ({}):\n", inflight.len()));
    for e in inflight.iter().take(MAX_LINES) {
        let span = e.end().as_nanos() - e.start.as_nanos();
        let pct = ((at_ns - e.start.as_nanos()) * 100)
            .checked_div(span)
            .unwrap_or(100);
        s.push_str(&format!("    {} ({pct}% elapsed)\n", fmt_event(e)));
    }
    if inflight.len() > MAX_LINES {
        s.push_str(&format!("    … and {} more\n", inflight.len() - MAX_LINES));
    }

    let nonzero: Vec<_> = queue.iter().filter(|(_, e)| e.arg > 0).collect();
    s.push_str(&format!("  queue depths (nonzero: {}):\n", nonzero.len()));
    for (c, e) in nonzero.iter().take(MAX_LINES) {
        s.push_str(&format!("    cell {c:>4}: {}\n", e.arg));
    }

    s.push_str(&format!(
        "  blocked cells ({}, {in_barrier} in barrier):\n",
        blocked.len()
    ));
    for e in blocked.iter().take(MAX_LINES) {
        s.push_str(&format!(
            "    cell {:>4} idle in {} since {} ns\n",
            e.cell,
            e.name,
            e.start.as_nanos()
        ));
    }
    if blocked.len() > MAX_LINES {
        s.push_str(&format!("    … and {} more\n", blocked.len() - MAX_LINES));
    }
    s
}

// ---------------------------------------------------------------------------
// Trace-driven re-modeling.
// ---------------------------------------------------------------------------

/// Replays a recording's traffic under each `computation_factor`
/// multiple of all three paper models and shapes the results as
/// [`ExperimentRow`]s, so [`crate::bench_report`] emits the same
/// versioned `ap1000plus.bench` document a live run would — without
/// touching the emulator.
///
/// # Errors
///
/// Errors when the trace has no ops section or a replay rejects it.
pub fn remodel_rows(doc: &EvTrace, factors: &[f64]) -> Result<Vec<ExperimentRow>, String> {
    let trace = doc
        .ops
        .as_ref()
        .ok_or("trace has no ops section (recorded without probe tracing?)")?;
    let replay_grid = |base: ModelParams| {
        mlsim::remodel(trace, &mlsim::factor_grid(&base, factors))
            .map_err(|e| format!("remodel under {}: {e}", base.name))
    };
    let ap1000 = replay_grid(ModelParams::ap1000())?;
    let star = replay_grid(ModelParams::ap1000_star())?;
    let plus = replay_grid(ModelParams::ap1000_plus())?;
    // Summed only once a replay has bounded the trace's operands.
    let stats = AppStats::from_trace(trace).to_row();
    let mut rows = Vec::new();
    for (i, &f) in factors.iter().enumerate() {
        rows.push(ExperimentRow {
            name: format!("{} cf{f:.2}", doc.header.app),
            pe: doc.header.ncells,
            stats,
            ap1000: ap1000[i].1.clone(),
            star: star[i].1.clone(),
            plus: plus[i].1.clone(),
            emulator_total: SimTime::from_nanos(doc.summary.total_ns),
            counters: apobs::Counters::new(),
            timeline: Timeline::new("remodel"),
            critpath: None,
            divergence: None,
            host_ms: None,
            metrics: None,
        });
    }
    Ok(rows)
}

/// Plain-text remodel summary: one line per factor point with all three
/// model totals and the Table-2 speedup pair.
pub fn remodel_text(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("Trace-driven remodel (recorded traffic, scaled models)\n");
    s.push_str(&format!(
        "{:20} {:>4} {:>14} {:>14} {:>14} {:>9} {:>9}\n",
        "Point", "PE", "AP1000", "AP1000*", "AP1000+", "spd+", "spd*"
    ));
    for r in rows {
        let (plus, star) = r.table2();
        s.push_str(&format!(
            "{:20} {:>4} {:>14} {:>14} {:>14} {:>9.2} {:>9.2}\n",
            r.name,
            r.pe,
            r.ap1000.total.to_string(),
            r.star.total.to_string(),
            r.plus.total.to_string(),
            plus,
            star
        ));
    }
    s
}

// ---------------------------------------------------------------------------
// Inspection (`tracecat`).
// ---------------------------------------------------------------------------

/// Size accounting for `tracecat stats`: the binary recording vs the
/// same data serialized the pre-binary way (Chrome-trace JSON for the
/// timeline, the versioned JSON op codec for the probe trace).
#[derive(Clone, Copy, Debug)]
pub struct TraceStats {
    /// Bytes of the binary `.evtrace` file.
    pub binary_bytes: u64,
    /// Bytes of the equivalent Chrome-trace JSON timeline.
    pub json_timeline_bytes: u64,
    /// Bytes of the equivalent JSON op-trace document (0 if no ops).
    pub json_ops_bytes: u64,
    /// Events across all streams.
    pub events: u64,
}

impl TraceStats {
    /// Total JSON-equivalent size.
    pub fn json_bytes(&self) -> u64 {
        self.json_timeline_bytes + self.json_ops_bytes
    }

    /// Compression ratio (JSON bytes per binary byte).
    pub fn ratio(&self) -> f64 {
        self.json_bytes() as f64 / self.binary_bytes.max(1) as f64
    }
}

struct CountWriter(u64);

impl Write for CountWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Measures a decoded trace against its JSON-equivalent serializations
/// without materializing them (`binary_bytes` comes from the file).
pub fn trace_stats(doc: &EvTrace, binary_bytes: u64) -> TraceStats {
    let tl = Timeline::from_events(doc.header.app.clone(), doc.all_events());
    let mut cw = CountWriter(0);
    apobs::stream_chrome_trace(&mut cw, &[&tl], &[]).expect("counting writer cannot fail");
    let json_ops_bytes = doc
        .ops
        .as_ref()
        .map_or(0, |t| t.to_json_string().len() as u64);
    TraceStats {
        binary_bytes,
        json_timeline_bytes: cw.0,
        json_ops_bytes,
        events: doc.streams.iter().map(|s| s.events.len() as u64).sum(),
    }
}

/// Renders a trace's header, section inventory, and trailer for
/// `tracecat header`.
pub fn header_text(doc: &EvTrace) -> String {
    let mut s = format!(
        "ap1000plus.evtrace v{}\n  app: {}\n  scale: {}\n  cells: {}\n",
        aptrace::evtrace::VERSION,
        doc.header.app,
        doc.header.scale,
        doc.header.ncells
    );
    for st in &doc.streams {
        s.push_str(&format!(
            "  events[{}]: {} events\n",
            st.label,
            st.events.len()
        ));
    }
    match &doc.ops {
        Some(t) => s.push_str(&format!(
            "  ops: {} cells, {} ops\n",
            t.ncells(),
            t.total_ops()
        )),
        None => s.push_str("  ops: absent\n"),
    }
    match &doc.counters {
        Some(c) => s.push_str(&format!(
            "  counters: {} series x {} ticks every {} ns\n",
            c.series.len(),
            c.series.first().map_or(0, |(_, v)| v.len()),
            c.interval_ns
        )),
        None => s.push_str("  counters: absent\n"),
    }
    match &doc.fault_ron {
        Some(r) => s.push_str(&format!("  fault schedule: {} bytes of RON\n", r.len())),
        None => s.push_str("  fault schedule: absent\n"),
    }
    s.push_str(&format!(
        "  summary: {} events, final time {} ns\n",
        doc.summary.events, doc.summary.total_ns
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("apbench-record-{}-{name}", std::process::id()))
    }

    fn record(app: &str, size: Option<u32>, path: &Path) -> Result<RecordedTrace, ApError> {
        record_app_on(app, Scale::Test, size, None, path, &MachineConfig::new(1))
    }

    #[test]
    fn record_then_strict_replay_passes_and_mutation_fails() {
        let path = tmp("ep.evtrace");
        let rec = record("EP", None, &path).expect("record EP");
        assert!(rec.events > 0 && rec.bytes > 0);
        let mut doc = EvTrace::read_file(&path).expect("decode recording");
        assert_eq!(doc.header.app, "EP");
        assert_eq!(doc.summary.total_ns, rec.total.as_nanos());

        let ok = conformance(&doc, ReplayMode::Strict).expect("replay EP");
        assert!(ok.passed(), "{}", ok.render());
        assert!(ok.mismatch.is_none());

        // A single mutated event must fail strict with a context window
        // but leave the lenient (sim-time) gate green — which prints the
        // very same window.
        let k = doc.streams[0].events.len() / 2;
        doc.streams[0].events[k].arg ^= 1;
        let bad = conformance(&doc, ReplayMode::Strict).expect("replay mutated");
        assert!(!bad.passed());
        let window = bad.mismatch.as_deref().expect("context window");
        assert!(
            window.contains(&format!("first mismatch at event {k} ")) && window.contains('>'),
            "{window}"
        );
        assert!(bad.render().contains("FAIL"));
        let lenient = conformance(&doc, ReplayMode::Lenient).expect("lenient replay");
        assert!(lenient.passed(), "{}", lenient.render());
        assert_eq!(lenient.mismatch, bad.mismatch);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_recording_leaves_no_file() {
        // 7 PEs do not divide MatMul's rows: the run is refused after the
        // output file was opened.
        let dir = tmp("failed-dir");
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("MatMul.evtrace");
        let err = record("MatMul", Some(7), &path).expect_err("7 PEs cannot run MatMul");
        assert!(err.to_string().contains("pe must divide n"), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{left:?}");
        // An existing recording survives a failed re-recording untouched.
        let path = dir.join("EP.evtrace");
        record("EP", None, &path).expect("record EP");
        let before = std::fs::read(&path).unwrap();
        let quiet = apcore::FaultSpec::quiet();
        record_app("EP", Scale::Test, None, Some(&quiet), &path, false)
            .expect_err("EP has no fault support");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_replay_counts_both_sides() {
        let path = tmp("cg-lenient.evtrace");
        let rec = record("CG", None, &path).expect("record CG");
        let doc = EvTrace::read_file(&path).expect("decode");
        let conf = conformance(&doc, ReplayMode::Lenient).expect("lenient replay");
        assert!(conf.passed(), "{}", conf.render());
        assert_eq!(conf.recorded_events as u64, rec.events);
        assert_eq!(conf.replayed_events as u64, rec.events);
        assert!(conf.mismatch.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seek_reconstructs_midrun_state() {
        let path = tmp("cg-seek.evtrace");
        let rec = record("CG", None, &path).expect("record CG");
        let doc = EvTrace::read_file(&path).expect("decode");
        let dump = seek_report(&doc, rec.total.as_nanos() / 2, None);
        assert!(dump.contains("in-flight transfers"), "{dump}");
        assert!(dump.contains("queue depths"), "{dump}");
        assert!(dump.contains("blocked cells"), "{dump}");
        // Narrowing to one cell never widens the dump.
        let narrowed = seek_report(&doc, rec.total.as_nanos() / 2, Some(0));
        assert!(narrowed.len() <= dump.len());
        let _ = std::fs::remove_file(&path);
    }

    /// The indexed seek path (partial decode through the v2 footer) and
    /// the full linear decode reconstruct identical state at every probe
    /// time.
    #[test]
    fn indexed_seek_matches_full_decode() {
        let path = tmp("cg-idx.evtrace");
        let rec = record("CG", None, &path).expect("record CG");
        let full = EvTrace::read_file(&path).expect("full decode");
        let total = rec.total.as_nanos();
        for at in [0, total / 7, total / 2, total - 1, total + 5] {
            let fast = EvTrace::read_file_at(&path, at).expect("seek decode");
            assert_eq!(
                seek_report(&fast, at, None),
                seek_report(&full, at, None),
                "seek at {at} ns diverged"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A seek reads the document in whatever order its sections hold:
    /// reversing the file order changes nothing it prints.
    #[test]
    fn seek_does_not_depend_on_file_order() {
        let path = tmp("cg-order.evtrace");
        let rec = record("CG", None, &path).expect("record CG");
        let doc = EvTrace::read_file(&path).expect("decode");
        let mut reversed = doc.clone();
        reversed.streams.reverse();
        for st in &mut reversed.streams {
            st.events.reverse();
        }
        let total = rec.total.as_nanos();
        for at in [total / 7, total / 2, total - 1] {
            assert_eq!(
                seek_report(&reversed, at, None),
                seek_report(&doc, at, None)
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn remodel_rows_scale_with_factors_and_serialize() {
        let path = tmp("ep-remodel.evtrace");
        record("EP", None, &path).expect("record EP");
        let doc = EvTrace::read_file(&path).expect("decode");
        let rows = remodel_rows(&doc, &[0.5, 1.0]).expect("remodel");
        assert_eq!(rows.len(), 2);
        // EP is compute-bound: halving the computation factor halves the
        // modeled total.
        let half = rows[0].plus.total.as_nanos() as f64;
        let full = rows[1].plus.total.as_nanos() as f64;
        assert!((half * 2.0 - full).abs() / full < 0.01, "{half} vs {full}");
        let doc = crate::bench_report(&rows, Scale::Test, Some("remodel"));
        let parsed = aputil::Json::parse(&doc.to_string()).expect("report parses");
        assert_eq!(
            parsed.get("schema").and_then(aputil::Json::as_str),
            Some(crate::BENCH_SCHEMA)
        );
        assert!(remodel_text(&rows).contains("cf0.50"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_show_binary_wins_over_json() {
        let path = tmp("ep-stats.evtrace");
        record("EP", None, &path).expect("record EP");
        let doc = EvTrace::read_file(&path).expect("decode");
        let st = trace_stats(&doc, std::fs::metadata(&path).unwrap().len());
        assert!(st.events > 0);
        assert!(
            st.ratio() >= 5.0,
            "binary must be >=5x smaller than JSON, got {:.1}x ({} vs {} bytes)",
            st.ratio(),
            st.json_bytes(),
            st.binary_bytes
        );
        assert!(header_text(&doc).contains("ap1000plus.evtrace v2"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_file_errors_name_the_path() {
        let err = write_file(Path::new("/nonexistent-dir/x/y.json"), b"hi").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("/nonexistent-dir/x/y.json") && msg.contains("i/o error"),
            "{msg}"
        );
    }

    #[test]
    fn scale_labels_round_trip() {
        for s in [Scale::Test, Scale::Paper] {
            assert_eq!(parse_scale_label(&scale_label(s)).unwrap(), s);
        }
        assert!(parse_scale_label("huge").is_err());
    }
}
