//! Acceptance suite for the `apmon` telemetry stack.
//!
//! Three properties gate the observability layer:
//!
//! * the `ap1000plus.metrics` artifact is a **byte-reproducibility
//!   surface**: identical across host thread counts and across re-runs,
//!   with every `host_*` field stripped;
//! * **huge machines** (beyond the paper's 1024 cells) refuse unbounded
//!   timeline recording but accept the bounded flight recorder, and the
//!   sampled-metrics path works at that size;
//! * sampling **only watches**: the same run with the sampler on and
//!   off has identical times, counters and op trace, and the series
//!   covers it to the last tick (the wall-clock cost is printed here and
//!   measured pinned by the benchmark's `apmon.sampler.overhead`).
//!
//! Every setting travels in the `MachineConfig` each run is handed, so
//! the tests share nothing and run in parallel.

use apapps::Scale;
use apbench::{run_sweep, SweepConfig, SweepOutcome};
use apcore::{run_with, MachineConfig, VAddr};
use aputil::SimTime;
use std::num::NonZeroUsize;

fn sweep_cfg(threads: usize) -> SweepConfig {
    SweepConfig {
        scale: Scale::Test,
        apps: vec!["EP".into(), "CG".into()],
        sizes: vec![None],
        factors: vec![1.0],
        threads,
        machine: MachineConfig::new(1).with_metrics_interval(Some(SimTime::from_micros(10))),
    }
}

fn metrics_doc(out: &SweepOutcome) -> String {
    let runs: Vec<(String, &apmon::RunMetrics)> = out
        .rows
        .iter()
        .filter_map(|r| r.metrics.as_deref().map(|m| (r.name.clone(), m)))
        .collect();
    assert_eq!(runs.len(), out.rows.len(), "every row must carry metrics");
    apmon::metrics_report(&runs).to_string()
}

#[test]
fn metrics_artifact_is_thread_count_invariant_and_reruns_identically() {
    let serial = run_sweep(&sweep_cfg(1));
    let parallel = run_sweep(&sweep_cfg(8));
    let again = run_sweep(&sweep_cfg(1));
    assert!(serial.failures.is_empty(), "{:?}", serial.failures);
    assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
    let a = metrics_doc(&serial);
    assert_eq!(
        a,
        metrics_doc(&parallel),
        "metrics artifact must not depend on host thread count"
    );
    assert_eq!(
        a,
        metrics_doc(&again),
        "metrics artifact must be byte-identical across re-runs"
    );
    let doc = aputil::Json::parse(&a).expect("artifact parses");
    apmon::check_metrics_schema(&doc).expect("versioned schema");
    assert!(
        !a.contains("\"host_"),
        "host profiling leaked into the versioned artifact"
    );
}

#[test]
fn huge_machines_refuse_unbounded_timeline_but_accept_the_flight_recorder() {
    // Unbounded timeline on a beyond-hardware machine: refused up front,
    // pointing at the flight recorder (no machine is ever built, so this
    // is cheap even at 4096 cells).
    let err = run_with(MachineConfig::new(4096).with_timeline(true), |cell| {
        cell.id()
    })
    .expect_err("unbounded timeline on 4096 cells must be refused");
    let msg = err.to_string();
    assert!(msg.contains("flight recorder"), "{msg}");

    // The bounded ring at the same class of size is accepted, keeps the
    // recorded tail small, and the sampled metrics carry torus heatmaps.
    let cells = 1156u32; // 34x34 torus, just past the hardware limit
    let r = run_with(
        MachineConfig::new(cells)
            .with_flight_recorder(NonZeroUsize::new(64))
            .with_metrics_interval(Some(SimTime::from_micros(1))),
        |cell| {
            let peer = (cell.id() + 1) % cell.ncells();
            let a = cell.alloc::<u64>(8);
            cell.put(peer, a, a, 64, VAddr::NULL, VAddr::NULL, false);
            cell.barrier();
            cell.id()
        },
    )
    .expect("flight-recorder run on 1156 cells");
    assert!(
        !r.timeline.events.is_empty(),
        "ring recorder must keep a tail"
    );
    let m = r.metrics.expect("sampling was on");
    let busy = m.cell_busy.expect("cell-busy heatmap");
    assert_eq!((busy.width, busy.height), (34, 34));
    assert_eq!(busy.values.len(), cells as usize);
    // The run moved real traffic, so some link saw busy time.
    assert!(!m.links.is_empty(), "per-link busy table is empty");
}

#[test]
fn sampled_metrics_overhead_is_bounded() {
    // Paper-scale CG (the communication-heaviest Table-2 row) with and
    // without sampling, min-of-3 each. What is asserted is that sampling
    // only watches: the run it observed is the run that would have
    // happened anyway. The wall-clock ratio is printed, not asserted —
    // unpinned wall time in this sandbox is bimodal far beyond any
    // budget; the pinned measurement is the benchmark's
    // `apmon.sampler.overhead` layer metric (perf/README.md).
    let scale = if cfg!(debug_assertions) {
        Scale::Test
    } else {
        Scale::Paper
    };
    let interval = SimTime::from_micros(100);
    let time = |metrics: Option<SimTime>| {
        let runs = (0..3).map(|_| {
            let w = apbench::sweep::build_workload("CG", scale, None).unwrap();
            let machine = MachineConfig::new(w.pe()).with_metrics_interval(metrics);
            let t0 = std::time::Instant::now();
            let report = w.run_on(machine, None).expect("CG run");
            (t0.elapsed(), report)
        });
        runs.min_by_key(|(wall, _)| *wall).unwrap()
    };
    let (off, plain) = time(None);
    let (on, sampled) = time(Some(interval));
    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    eprintln!("sampled-metrics overhead: off={off:?} on={on:?} ratio={ratio:.3}");

    assert!(plain.metrics.is_none());
    assert_eq!(sampled.total_time, plain.total_time);
    assert_eq!(sampled.times, plain.times);
    assert_eq!(sampled.counters, plain.counters);
    assert!(sampled.trace == plain.trace, "op trace moved");
    // One sample per tick, from t = 0 to the last tick the run reached.
    let series = &sampled.metrics.as_ref().expect("sampling was on").series;
    let last_tick = sampled.total_time.as_nanos() / interval.as_nanos();
    assert_eq!(series.samples.len() as u64, last_tick + 1);
    let last = series.samples.last().expect("tick 0 is always sampled");
    assert_eq!(last.t, interval.saturating_mul(last_tick));
}
