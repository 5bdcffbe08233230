//! Shared harness for regenerating the paper's tables and figures.
//!
//! The flow mirrors §5: run each application on the machine emulator
//! (collecting its probe trace and verifying its numerical result), then
//! replay the trace under the three MLSim parameter files. Table 2 is the
//! speedup column pair, Table 3 the trace statistics, Figure 8 the
//! normalized time breakdown.

use apapps::{standard_suite, Scale, Workload};
use apcore::{MachineConfig, TimelineMode};
use apnet::HEADER_BYTES;
use apobs::{Counters, CritPath, Timeline};
use aptrace::{AppStats, StatsRow, Trace};
use aputil::{Json, SimTime};
use mlsim::{
    fig8_rows, replay, replay_observed, speedup, DivergenceReport, Fig8Row, ModelParams,
    ReplayResult,
};

pub mod cli;
pub mod fault;
pub mod pins;
pub mod record;
pub mod report;
pub mod serve_exec;
pub mod sweep;
pub use fault::{
    fault_sweep_text, run_fault_sweep, FaultOutcome, FaultRow, FaultSweepConfig, FAULT_APPS,
};
pub use record::{
    conformance, conformance_on, record_app, record_app_on, remodel_rows, remodel_text,
    seek_report, trace_stats, Conformance, RecordedTrace, ReplayMode, TraceStats,
};
pub use report::{
    bench_report, compare_reports, markdown_report, write_bench_report, CompareReport, Regression,
    BENCH_SCHEMA, BENCH_SCHEMA_VERSION,
};
pub use serve_exec::{job_exec_main, simulator_executor};
pub use sweep::{run_sweep, SweepConfig, SweepOutcome, SweepPoint, SWEEP_APPS};

/// Everything measured for one application.
pub struct ExperimentRow {
    /// Table row label (a Table-2 name, or a sweep point label like
    /// `"CG pe16 cf0.50"`).
    pub name: String,
    /// PE count.
    pub pe: u32,
    /// Table-3 statistics from the trace.
    pub stats: StatsRow,
    /// MLSim replay under the AP1000 parameters.
    pub ap1000: ReplayResult,
    /// MLSim replay under the AP1000★ (SuperSPARC + software handling)
    /// parameters.
    pub star: ReplayResult,
    /// MLSim replay under the AP1000+ parameters.
    pub plus: ReplayResult,
    /// Total simulated time reported by the machine emulator itself
    /// (hardware-level cross-check of the AP1000+ replay).
    pub emulator_total: aputil::SimTime,
    /// Unified hardware counters from the emulator run.
    pub counters: Counters,
    /// Emulator event timeline, labeled with the workload name (empty
    /// unless timeline recording was enabled, e.g. via `--trace-out`).
    pub timeline: Timeline,
    /// Critical path extracted from the emulator timeline (`None` unless
    /// timeline recording was enabled).
    pub critpath: Option<CritPath>,
    /// Emulator-vs-MLSim(AP1000+) per-op divergence (`None` unless
    /// timeline recording was enabled).
    pub divergence: Option<DivergenceReport>,
    /// Host wall-clock milliseconds spent on this experiment (emulate +
    /// replays). Filled by [`run_suite`], left `None` by the sweep
    /// driver. Informational only: it appears in `--json` output but is
    /// stripped from the versioned bench report so baselines and sweep
    /// outputs stay byte-reproducible; `repro compare` never reads it.
    pub host_ms: Option<f64>,
    /// Sampled telemetry from the emulator run (`None` unless metrics
    /// sampling was enabled, e.g. via `--metrics-out`). Exported through
    /// the separate `ap1000plus.metrics` artifact, never serialized into
    /// the bench report — its host-profiling block would break the
    /// report's byte-reproducibility.
    pub metrics: Option<Box<apmon::RunMetrics>>,
}

impl ExperimentRow {
    /// Table 2's two columns: speedup of the AP1000+ and of the AP1000★
    /// over the AP1000.
    pub fn table2(&self) -> (f64, f64) {
        (
            speedup(&self.ap1000, &self.plus),
            speedup(&self.ap1000, &self.star),
        )
    }

    /// Figure 8's two bars (AP1000+ = 100%, then AP1000★).
    pub fn fig8(&self) -> (Fig8Row, Fig8Row) {
        let rows = fig8_rows(&self.plus, &[&self.plus, &self.star]);
        (rows[0], rows[1])
    }

    /// Machine-readable form of everything in this row.
    pub fn to_json(&self) -> Json {
        self.to_json_with_host(true)
    }

    /// [`to_json`](Self::to_json) with `host_ms` optionally left out —
    /// the versioned bench report strips it so baselines and sweep
    /// outputs are byte-reproducible across machines and runs.
    pub(crate) fn to_json_with_host(&self, include_host: bool) -> Json {
        let (sp_plus, sp_star) = self.table2();
        let (f8_plus, f8_star) = self.fig8();
        let fig8_json = |r: &Fig8Row| {
            Json::obj(vec![
                ("exec", Json::F(r.exec)),
                ("rts", Json::F(r.rts)),
                ("overhead", Json::F(r.overhead)),
                ("idle", Json::F(r.idle)),
                ("total", Json::F(r.total)),
            ])
        };
        let replay_json = |r: &ReplayResult| {
            Json::obj(vec![
                ("model", Json::Str(r.model.clone())),
                ("total_ns", Json::U(r.total.as_nanos())),
            ])
        };
        let mut members = vec![
            ("app", Json::Str(self.name.clone())),
            ("pe", Json::U(self.pe as u64)),
            (
                "stats",
                Json::obj(vec![
                    ("send", Json::F(self.stats.send)),
                    ("gop", Json::F(self.stats.gop)),
                    ("vgop", Json::F(self.stats.vgop)),
                    ("sync", Json::F(self.stats.sync)),
                    ("put", Json::F(self.stats.put)),
                    ("puts", Json::F(self.stats.puts)),
                    ("get", Json::F(self.stats.get)),
                    ("gets", Json::F(self.stats.gets)),
                    ("msg_size", Json::F(self.stats.msg_size)),
                ]),
            ),
            ("speedup_plus", Json::F(sp_plus)),
            ("speedup_star", Json::F(sp_star)),
            ("fig8_plus", fig8_json(&f8_plus)),
            ("fig8_star", fig8_json(&f8_star)),
            (
                "models",
                Json::Arr(vec![
                    replay_json(&self.ap1000),
                    replay_json(&self.star),
                    replay_json(&self.plus),
                ]),
            ),
            ("emulator_total_ns", Json::U(self.emulator_total.as_nanos())),
            ("counters", self.counters.to_json()),
        ];
        if let Some(cp) = &self.critpath {
            members.push(("critical_path", cp.to_json()));
        }
        if let Some(d) = &self.divergence {
            members.push(("divergence", d.to_json()));
        }
        if include_host {
            if let Some(ms) = self.host_ms {
                members.push(("host_ms", Json::F(ms)));
            }
        }
        Json::obj(members)
    }
}

/// JSON array of [`ExperimentRow::to_json`] for a whole suite run.
pub fn suite_json(rows: &[ExperimentRow]) -> Json {
    Json::Arr(rows.iter().map(|r| r.to_json()).collect())
}

/// Replays `trace` under [`ModelParams::paper_models`] with each
/// `computation_factor` scaled by `factor`: the one replay step behind
/// every [`ExperimentRow`]. Only AP1000+ records its timeline, and only
/// when `observe_plus` asks (the run is analyzed against it).
///
/// # Errors
///
/// `"under <model>: <replay error>"` for the first model that rejects
/// the trace.
fn replay_models(
    trace: &Trace,
    factor: f64,
    observe_plus: bool,
) -> Result<[ReplayResult; 3], String> {
    let run = |mut m: ModelParams, observed: bool| {
        m.computation_factor *= factor;
        replay_observed(trace, &m, observed).map_err(|e| format!("under {}: {e}", m.name))
    };
    let [ap1000, star, plus] = ModelParams::paper_models();
    Ok([
        run(ap1000, false)?,
        run(star, false)?,
        run(plus, observe_plus)?,
    ])
}

/// The emulator's half of an [`ExperimentRow`]. A remodel has no
/// emulator run: it brings the recording's final time and defaults.
#[derive(Default)]
struct EmulatorSide {
    total: SimTime,
    counters: Counters,
    timeline: Timeline,
    metrics: Option<Box<apmon::RunMetrics>>,
    /// The timeline is a full buffered run, so the row gets its critical
    /// path and its divergence from the AP1000+ replay.
    analyze: bool,
}

/// Assembles the row `label` of a `pe`-cell run: replays `trace` under
/// the paper models scaled by `factor`, takes its Table-3 statistics —
/// after the replays, which are what bound an outside trace's operands —
/// and joins the emulator side.
///
/// # Errors
///
/// Like [`replay_models`].
fn experiment_row(
    label: String,
    pe: u32,
    trace: &Trace,
    factor: f64,
    emu: EmulatorSide,
) -> Result<ExperimentRow, String> {
    let [ap1000, star, plus] = replay_models(trace, factor, emu.analyze)?;
    let stats = AppStats::from_trace(trace).to_row();
    let mut timeline = emu.timeline;
    timeline.source = label.clone();
    let critpath = emu.analyze.then(|| apobs::critical_path(&timeline));
    let divergence = emu
        .analyze
        .then(|| mlsim::divergence(&timeline, &plus.timeline, &emu.counters, &plus.counters));
    Ok(ExperimentRow {
        name: label,
        pe,
        stats,
        ap1000,
        star,
        plus,
        emulator_total: emu.total,
        counters: emu.counters,
        timeline,
        critpath,
        divergence,
        host_ms: None,
        metrics: emu.metrics,
    })
}

/// One experiment: emulate `w` on `machine` (a prototype — its options on
/// a machine of the workload's own size), verify, and build its row under
/// `factor`. `label` names the row. A run that buffered its full timeline
/// is also analyzed (critical path, emulator-vs-model divergence); a
/// flight-recorder tail is not a timeline to analyze.
fn experiment(
    w: &dyn Workload,
    machine: &MachineConfig,
    factor: f64,
    label: String,
) -> Result<ExperimentRow, String> {
    let report = w
        .run_on(machine.clone().with_cells(w.pe()), None)
        .map_err(|e| format!("{label} failed on the emulator: {e}"))?;
    let emu = EmulatorSide {
        total: report.total_time,
        counters: report.counters,
        timeline: report.timeline,
        metrics: report.metrics,
        analyze: matches!(machine.timeline, TimelineMode::Full),
    };
    experiment_row(label.clone(), w.pe(), &report.trace, factor, emu)
        .map_err(|e| format!("{label} failed replay {e}"))
}

/// Runs one workload end-to-end (emulate → verify → replay×3) on a
/// default machine.
///
/// # Panics
///
/// Panics if the workload fails to verify or its trace fails to replay —
/// both indicate bugs worth failing loudly on in a harness.
pub fn run_experiment(w: &dyn Workload) -> ExperimentRow {
    experiment(w, &MachineConfig::new(w.pe()), 1.0, w.name().to_string())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the full suite at `scale` with `machine`'s run options, fanning
/// the workloads across host threads (each simulation is fully
/// independent). Rows come back in Table-2 order regardless of completion
/// order, and every simulated number is identical to a serial run — only
/// host wall-clock changes.
///
/// # Panics
///
/// Like [`run_experiment`].
pub fn run_suite(scale: Scale, machine: &MachineConfig) -> Vec<ExperimentRow> {
    let suite = standard_suite(scale);
    aputil::par_map_ordered(&suite, aputil::available_threads(), |w| {
        let t0 = std::time::Instant::now();
        let mut row = experiment(w.as_ref(), machine, 1.0, w.name().to_string())
            .unwrap_or_else(|e| panic!("{e}"));
        row.host_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
        row
    })
}

/// Renders Table 1 (AP1000+ specifications).
pub fn table1() -> String {
    let mut s = String::new();
    s.push_str("Table 1: AP1000+ specifications\n");
    s.push_str("--------------------------------------------------------\n");
    s.push_str("Processor               SuperSPARC (50 MHz)\n");
    s.push_str("Processor performance   50 MFLOPS\n");
    s.push_str("Memory per cell         16, 64 megabytes\n");
    s.push_str("Cache per cell          36 kilobytes, write-through\n");
    s.push_str("System configuration    4 - 1024 cells\n");
    s.push_str("System performance      0.2 - 51.2 GFLOPS\n");
    s.push_str("T-net                   25 MB/s/channel, 2-D torus\n");
    s.push_str("B-net                   50 MB/s broadcast\n");
    s.push_str("S-net                   hardware barrier tree\n");
    s
}

/// Renders Figure 6: the parameter file of each paper model.
pub fn fig6() -> String {
    ModelParams::paper_models()
        .map(|m| m.to_figure6())
        .join("\n")
}

/// Figure 7's PUT chain under the AP1000 and AP1000+ models for one
/// message of `bytes`: per model, send CPU, send HW, network over 4 hops,
/// receive CPU and receive HW.
fn fig7_chains(bytes: u64) -> Vec<(String, [SimTime; 5])> {
    [ModelParams::ap1000(), ModelParams::ap1000_plus()]
        .into_iter()
        .map(|m| {
            let net = m.net.prolog
                + m.net.per_hop * 4
                + m.net.per_byte.saturating_mul(bytes + HEADER_BYTES);
            let legs = [
                m.send_cpu_overhead(bytes),
                m.send_hw_latency(bytes),
                net,
                m.recv_cpu_overhead(bytes),
                m.recv_hw_latency(bytes),
            ];
            (m.name, legs)
        })
        .collect()
}

/// Renders Figure 7 (the PUT communication model): the overhead chains of
/// one PUT of `bytes` under both models.
pub fn fig7(bytes: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 7: PUT communication model ({bytes}-byte message)\n"
    ));
    for (name, [send, hw_send, net, recv, hw_recv]) in fig7_chains(bytes) {
        out.push_str(&format!(
            "  {:8}  send-CPU {:>10}   send-HW {:>10}   network(4 hops) {:>10}   \
             recv-CPU {:>10}   recv-HW {:>10}   end-to-end {:>10}\n",
            name,
            send.to_string(),
            hw_send.to_string(),
            net.to_string(),
            recv.to_string(),
            hw_recv.to_string(),
            (send + hw_send + net + recv + hw_recv).to_string(),
        ));
    }
    out
}

/// [`fig7`] as the GitHub-flavored table EXPERIMENTS.md carries, in µs.
pub fn fig7_markdown(bytes: u64) -> String {
    let mut out = String::from(
        "| model | send CPU | send HW | network (4 hops) | recv CPU | recv HW | end to end |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for (name, legs) in fig7_chains(bytes) {
        let total: SimTime = legs.iter().copied().sum();
        out.push_str(&format!("| {name} |"));
        for t in legs.iter().chain([&total]) {
            out.push_str(&format!(" {} µs |", t.as_micros_f64()));
        }
        out.push('\n');
    }
    out
}

/// Renders Table 2 from experiment rows.
pub fn table2(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 2: Performance simulation: speedup compared to AP1000\n");
    s.push_str(&format!(
        "{:10} {:>4} {:>9} {:>9}\n",
        "App", "PE", "AP1000+", "AP1000*"
    ));
    for r in rows {
        let (plus, star) = r.table2();
        s.push_str(&format!(
            "{:10} {:>4} {:>9.2} {:>9.2}\n",
            r.name, r.pe, plus, star
        ));
    }
    s
}

/// Renders Table 3 from experiment rows.
pub fn table3(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 3: Application statistics (per PE)\n");
    s.push_str(&format!(
        "{:10} {:>4} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>7} {:>9}\n",
        "App", "PE", "SEND", "Gop", "VGop", "Sync", "PUT", "PUTS", "GET", "GETS", "MsgBytes"
    ));
    for r in rows {
        let t = &r.stats;
        s.push_str(&format!(
            "{:10} {:>4} {:>8.1} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>8.1} {:>8.1} {:>7.1} {:>9.1}\n",
            r.name, r.pe, t.send, t.gop, t.vgop, t.sync, t.put, t.puts, t.get, t.gets, t.msg_size
        ));
    }
    s
}

/// Renders Figure 8 from experiment rows.
pub fn fig8(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("Figure 8: Effect of PUT/GET hardware support\n");
    s.push_str("(normalized to AP1000+ = 100; components are means over PEs)\n");
    s.push_str(&format!(
        "{:10} {:8} {:>7} {:>6} {:>9} {:>6} {:>7}\n",
        "App", "Model", "Exec", "RTS", "Overhead", "Idle", "Total"
    ));
    for r in rows {
        let (p, st) = r.fig8();
        for (label, row) in [("AP1000+", p), ("AP1000*", st)] {
            s.push_str(&format!(
                "{:10} {:8} {:>7.1} {:>6.1} {:>9.1} {:>6.1} {:>7.1}\n",
                r.name, label, row.exec, row.rts, row.overhead, row.idle, row.total
            ));
        }
    }
    s
}

/// Renders Figure 8 as horizontal ASCII stacked bars, one pair of bars
/// per application, built from [`mlsim::fig8_rows`] percentages. The
/// tallest bar spans the full width; everything else scales to it.
pub fn fig8_ascii(rows: &[ExperimentRow]) -> String {
    const WIDTH: f64 = 60.0;
    let mut s = String::new();
    s.push_str("Figure 8 (ASCII): normalized execution-time breakdown\n");
    s.push_str("legend: #=exec r=rts o=overhead .=idle  (AP1000+ = 100)\n");
    let tallest = rows
        .iter()
        .map(|r| {
            let (p, st) = r.fig8();
            p.stack().max(st.stack())
        })
        .fold(100.0_f64, f64::max);
    let scale = WIDTH / tallest;
    for r in rows {
        let (p, st) = r.fig8();
        for (label, row) in [("AP1000+", p), ("AP1000*", st)] {
            let mut bar = String::new();
            for (ch, val) in [
                ('#', row.exec),
                ('r', row.rts),
                ('o', row.overhead),
                ('.', row.idle),
            ] {
                let cols = (val * scale).round() as usize;
                bar.extend(std::iter::repeat_n(ch, cols));
            }
            s.push_str(&format!(
                "{:10} {:8} {:<62} {:>6.1}\n",
                r.name,
                label,
                bar,
                row.stack()
            ));
        }
    }
    s
}

/// Renders the emulator-vs-MLSim cross-check.
pub fn crosscheck(rows: &[ExperimentRow]) -> String {
    let mut s = String::new();
    s.push_str("Cross-check: machine emulator vs MLSim(AP1000+) total time\n");
    s.push_str(&format!(
        "{:10} {:>14} {:>14} {:>7}\n",
        "App", "Emulator", "MLSim", "ratio"
    ));
    for r in rows {
        let ratio = r.emulator_total.as_nanos() as f64 / r.plus.total.as_nanos().max(1) as f64;
        s.push_str(&format!(
            "{:10} {:>14} {:>14} {:>7.2}\n",
            r.name,
            r.emulator_total.to_string(),
            r.plus.total.to_string(),
            ratio
        ));
    }
    s
}

/// What `repro all` prints: Table 1, Figures 6 and 7, Tables 2 and 3,
/// Figure 8 twice and the cross-check, over one suite run's `rows`.
pub(crate) fn all_text(rows: &[ExperimentRow]) -> String {
    [
        table1(),
        fig6(),
        fig7(1600),
        table2(rows),
        table3(rows),
        fig8(rows),
        fig8_ascii(rows),
        crosscheck(rows),
    ]
    .join("\n")
}

/// Runs the design-choice ablations called out in DESIGN.md §4 and
/// renders the results.
///
/// 1. **Ring-reduction streaming** (CG): §4.5's ring-buffer reduction can
///    store-and-forward the whole vector per hop (our conservative
///    default, matching Table 3's one SEND per hop) or stream it in
///    chunks ("the receiving cell executes the data of the ring buffer
///    directly"). Streaming is what recovers the paper's CG speedups.
/// 2. **Combined flag update vs separate flag message** (§1.2): sending
///    the completion flag as a second message doubles the message count
///    and delays completion detection.
/// 3. **T-net contention**: the pure-latency network model (what MLSim
///    uses) vs serializing each cell's injection/ejection channels vs a
///    full per-link wormhole model with head-of-line blocking.
pub fn ablations(scale: Scale) -> String {
    use apcore::{run_with, MachineConfig, VAddr};
    let mut s = String::new();

    // --- 1. CG ring streaming -----------------------------------------
    s.push_str("Ablation 1: CG vector-reduction ring — store-and-forward vs streamed\n");
    for streamed in [false, true] {
        let cg = apapps::cg::Cg {
            streamed_ring: streamed,
            ..apapps::cg::Cg::new(scale)
        };
        let report = cg.run().expect("CG failed");
        let plus = replay(&report.trace, &ModelParams::ap1000_plus()).expect("replay");
        let old = replay(&report.trace, &ModelParams::ap1000()).expect("replay");
        s.push_str(&format!(
            "  {:18} emulator {:>12}  AP1000+ {:>12}  speedup vs AP1000 {:>5.2}\n",
            if streamed {
                "streamed ring"
            } else {
                "store-and-forward"
            },
            report.total_time.to_string(),
            plus.total.to_string(),
            speedup(&old, &plus)
        ));
    }

    // --- 2. flag update combined with data vs separate ------------------
    s.push_str("\nAblation 2: flag update combined with data transfer vs separate flag message\n");
    let msgs = 32u64;
    let run_flags = |combined: bool| {
        let r = run_with(MachineConfig::new(2).with_trace(false), move |cell| {
            let data = cell.alloc_bytes(msgs * 1024);
            let token = cell.alloc::<f64>(1);
            let flag = cell.alloc_flag();
            cell.barrier();
            if cell.id() == 0 {
                for i in 0..msgs {
                    let slot = data + i * 1024;
                    if combined {
                        // §1.2: "flag updating should be combined with the
                        // completion of data transfer".
                        cell.put(1, slot, slot, 1024, VAddr::NULL, flag, false);
                    } else {
                        // Data first, then a separate flag message.
                        cell.put(1, slot, slot, 1024, VAddr::NULL, VAddr::NULL, false);
                        cell.put(1, token, token, 8, VAddr::NULL, flag, false);
                    }
                }
            } else {
                cell.wait_flag(flag, msgs as u32);
            }
            cell.barrier();
        })
        .expect("flag ablation failed");
        (r.total_time, r.tnet.messages)
    };
    let (t_comb, m_comb) = run_flags(true);
    let (t_sep, m_sep) = run_flags(false);
    s.push_str(&format!(
        "  combined : {:>12} ({m_comb} messages)\n  separate : {:>12} ({m_sep} messages, {:.2}x slower)\n",
        t_comb.to_string(),
        t_sep.to_string(),
        t_sep.as_nanos() as f64 / t_comb.as_nanos() as f64
    ));

    // --- 3. network contention model -----------------------------------
    s.push_str("\nAblation 3: T-net model — pure latency vs injection/ejection port contention\n");
    for contention in [
        apnet::Contention::None,
        apnet::Contention::Ports,
        apnet::Contention::Links,
    ] {
        let r = run_with(
            MachineConfig::new(8)
                .with_contention(contention)
                .with_trace(false),
            |cell| {
                // All-to-all burst: worst case for port serialization.
                let n = cell.ncells();
                let buf = cell.alloc_bytes(n as u64 * 4096);
                let flag = cell.alloc_flag();
                cell.barrier();
                for k in 1..n {
                    let dst = (cell.id() + k) % n;
                    let slot = buf + cell.id() as u64 * 4096;
                    cell.put(dst, slot, slot, 4096, VAddr::NULL, flag, false);
                }
                cell.wait_flag(flag, (n - 1) as u32);
                cell.barrier();
            },
        )
        .expect("contention ablation failed");
        s.push_str(&format!(
            "  {:?}: all-to-all of 4 KB completes at {}\n",
            contention, r.total_time
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_renders_contain_key_facts() {
        assert!(table1().contains("50 MFLOPS"));
        assert!(fig6().contains("put_prolog_time"));
        let f7 = fig7(1024);
        assert!(f7.contains("AP1000+") && f7.contains("AP1000 "));
    }

    /// A factor scales computation and nothing else: a compute-only
    /// trace's exec time scales with it exactly, a communication-only
    /// trace (the network and handling parameters) does not move. The
    /// models come back in Figure-6 order, and only an observed AP1000+
    /// records a timeline.
    #[test]
    fn replay_models_scale_only_computation() {
        use aptrace::Op;
        use aputil::CellId;
        let mut work = Trace::new(2);
        for c in 0..2 {
            work.pe_mut(CellId::new(c)).push(Op::Work { flops: 10_000 });
            work.pe_mut(CellId::new(c)).push(Op::Barrier);
        }
        let mut comm = Trace::new(2);
        comm.pe_mut(CellId::new(0)).push(Op::Put {
            dst: CellId::new(1),
            bytes: 1024,
            stride: false,
            ack: false,
            send_flag: 0,
            recv_flag: 7,
        });
        comm.pe_mut(CellId::new(1))
            .push(Op::WaitFlag { flag: 7, target: 1 });

        let half = replay_models(&work, 0.5, false).unwrap();
        let full = replay_models(&work, 1.0, true).unwrap();
        let names: Vec<&str> = full.iter().map(|r| r.model.as_str()).collect();
        let paper = ModelParams::paper_models().map(|m| m.name);
        assert_eq!(names, paper);
        for (h, f) in half.iter().zip(&full) {
            assert_eq!(h.mean(|b| b.exec) * 2, f.mean(|b| b.exec), "{}", f.model);
            assert!(h.timeline.events.is_empty());
        }
        assert!(full[0].timeline.events.is_empty() && full[1].timeline.events.is_empty());
        assert!(!full[2].timeline.events.is_empty(), "AP1000+ is observed");

        let slow = replay_models(&comm, 2.0, false).unwrap();
        let fast = replay_models(&comm, 0.25, false).unwrap();
        for (s, f) in slow.iter().zip(&fast) {
            assert!(s.total > SimTime::ZERO);
            assert_eq!(
                s.per_pe, f.per_pe,
                "{}: a factor moved communication",
                s.model
            );
        }
    }

    #[test]
    fn ep_experiment_shape() {
        let row = run_experiment(&apapps::ep::Ep::new(Scale::Test));
        let (plus, star) = row.table2();
        // No communication: both models speed up by the processor factor.
        assert!((plus - 8.0).abs() < 0.2, "EP AP1000+ speedup {plus}");
        assert!((star - 8.0).abs() < 0.2, "EP AP1000* speedup {star}");
    }

    #[test]
    fn fig8_ascii_bars_scale_with_totals() {
        let row = run_experiment(&apapps::ep::Ep::new(Scale::Test));
        let art = fig8_ascii(std::slice::from_ref(&row));
        assert!(art.contains("legend"));
        let bars: Vec<&str> = art.lines().skip(2).collect();
        assert_eq!(bars.len(), 2, "one AP1000+ and one AP1000* bar");
        // EP is compute-bound: the exec run dominates both bars.
        for bar in bars {
            let hashes = bar.matches('#').count();
            let others = bar.matches('o').count() + bar.matches('.').count();
            assert!(hashes > others, "EP bar should be mostly exec: {bar}");
        }
    }

    #[test]
    fn experiment_row_serializes_to_json() {
        let row = run_experiment(&apapps::ep::Ep::new(Scale::Test));
        let json = suite_json(std::slice::from_ref(&row)).to_string();
        let parsed = aputil::Json::parse(&json).expect("row JSON parses");
        let arr = parsed.as_arr().expect("array of rows");
        let first = &arr[0];
        assert_eq!(first.get("app").and_then(|j| j.as_str()), Some("EP"));
        assert!(first.get("speedup_plus").is_some());
        assert!(first.get("counters").is_some());
    }

    #[test]
    fn tomcatv_critical_path_covers_the_whole_run() {
        // Acceptance: with timelines on, the reported critical path's total
        // equals the run's simulated total time, and the bench report
        // carries critical-path + per-segment latency + Figure-8 data.
        let tc = apapps::tomcatv::Tomcatv::new(Scale::Test, true);
        let machine = MachineConfig::new(1).with_timeline(true);
        let row = experiment(&tc, &machine, 1.0, "TC st".into()).expect("TC st runs");
        let cp = row.critpath.as_ref().expect("critical path computed");
        assert_eq!(
            cp.total, row.emulator_total,
            "critical-path total must equal the emulator's simulated time"
        );
        assert!(!cp.steps.is_empty());
        let d = row.divergence.as_ref().expect("divergence computed");
        assert!(d.model_total.as_nanos() > 0);

        let doc = bench_report(std::slice::from_ref(&row), Scale::Test, Some("deadbeef"));
        let parsed = Json::parse(&doc.to_string()).expect("bench report parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(report::BENCH_SCHEMA)
        );
        assert_eq!(parsed.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("rev").and_then(Json::as_str), Some("deadbeef"));
        let app = &parsed.get("apps").and_then(Json::as_arr).unwrap()[0];
        assert!(app.get("fig8_plus").is_some());
        assert!(app.get("critical_path").is_some());
        assert!(app.get("divergence").is_some());
        let put = app
            .get("counters")
            .and_then(|c| c.get("put_latency"))
            .expect("per-segment put latency");
        let total_hist = put.get("total").expect("total segment");
        assert!(total_hist.get("p50_ns").is_some() && total_hist.get("p99_ns").is_some());
    }

    #[test]
    fn markdown_tables_are_gfm() {
        let row = run_experiment(&apapps::ep::Ep::new(Scale::Test));
        let md = markdown_report(std::slice::from_ref(&row), Scale::Test);
        assert!(md.contains("## Table 2"));
        assert!(md.contains("| App | PE | AP1000+ | AP1000* |"));
        assert!(md.contains("| EP |"));
        assert!(md.contains("| --- |"));
    }
}
