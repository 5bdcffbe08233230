//! `apsweep` — the parallel parameter-sweep driver behind `repro sweep`.
//!
//! Evaluating the paper's design space means more than the eight Table-2
//! points: Figure 6's models are parameterized by a `computation_factor`,
//! and every application runs at multiple machine sizes. This module fans
//! an app × machine-size × computation-factor grid across host worker
//! threads — each grid point is a fully independent simulation — and
//! merges the results **deterministically in grid order**, so the merged
//! report is byte-identical no matter how many threads ran it or in what
//! order they finished. The output is the same `ap1000plus.bench` v1
//! document `repro bench` emits, so `repro compare` gates sweeps too.

use crate::ExperimentRow;
use apapps::{Scale, Workload};
use apcore::MachineConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// CLI names of the sweepable applications, in Table-2 order. `TCst` and
/// `TCnost` are the space-free spellings of "TC st" / "TC no st".
pub const SWEEP_APPS: &[&str] = &["EP", "CG", "FT", "SP", "TCst", "TCnost", "MatMul", "SCG"];

/// One grid point: an application at a machine size under a scaled
/// computation factor.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Application name (one of [`SWEEP_APPS`]).
    pub app: String,
    /// PE-count override (`None` = the scale's default size).
    pub pe: Option<u32>,
    /// Multiplier applied to each model's `computation_factor`.
    pub factor: f64,
}

impl SweepPoint {
    /// The point's row label, e.g. `"CG pe16 cf0.50"` (`pedef` when the
    /// scale default size is used — the resolved size still lands in the
    /// row's `pe` field).
    pub fn label(&self) -> String {
        let pe = match self.pe {
            Some(p) => format!("pe{p}"),
            None => "pedef".to_string(),
        };
        format!("{} {pe} cf{:.2}", self.app, self.factor)
    }
}

/// What to sweep and how wide to fan out.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Problem-size preset each workload is built at.
    pub scale: Scale,
    /// Applications to sweep (subset of [`SWEEP_APPS`]).
    pub apps: Vec<String>,
    /// Machine sizes; `None` keeps the scale's default PE count.
    pub sizes: Vec<Option<u32>>,
    /// `computation_factor` multipliers.
    pub factors: Vec<f64>,
    /// Host worker threads (clamped to `[1, grid size]`).
    pub threads: usize,
    /// Run options of every grid point's machine (a prototype: each
    /// point stamps its own cell count onto a clone).
    pub machine: MachineConfig,
}

impl SweepConfig {
    /// The grid in its canonical order: apps outermost, then sizes, then
    /// factors. Merged output follows this order exactly.
    pub fn grid(&self) -> Vec<SweepPoint> {
        let mut g = Vec::new();
        for app in &self.apps {
            for &pe in &self.sizes {
                for &factor in &self.factors {
                    g.push(SweepPoint {
                        app: app.clone(),
                        pe,
                        factor,
                    });
                }
            }
        }
        g
    }
}

/// A finished sweep: rows in grid order, plus the grid points that
/// failed (label + error or panic message), also in grid order.
pub struct SweepOutcome {
    /// One row per successful grid point, in [`SweepConfig::grid`] order.
    pub rows: Vec<ExperimentRow>,
    /// `"<label>: <message>"` per failed grid point.
    pub failures: Vec<String>,
}

/// Builds the named workload at `scale`, overriding its PE count when
/// `pe` is given. Errors on unknown names.
pub fn build_workload(
    name: &str,
    scale: Scale,
    pe: Option<u32>,
) -> Result<Box<dyn Workload>, String> {
    // Each arm sets the override on the concrete struct; the trait object
    // exposes no mutable size.
    macro_rules! built {
        ($w:expr) => {{
            let mut w = $w;
            if let Some(p) = pe {
                w.pe = p;
            }
            Box::new(w) as Box<dyn Workload>
        }};
    }
    Ok(match name {
        "EP" => built!(apapps::ep::Ep::new(scale)),
        "CG" => built!(apapps::cg::Cg::new(scale)),
        "FT" => built!(apapps::ft::Ft::new(scale)),
        "SP" => built!(apapps::sp::Sp::new(scale)),
        "TCst" | "TC st" => built!(apapps::tomcatv::Tomcatv::new(scale, true)),
        "TCnost" | "TC no st" => built!(apapps::tomcatv::Tomcatv::new(scale, false)),
        "MatMul" => built!(apapps::matmul::MatMul::new(scale)),
        "SCG" => built!(apapps::scg::Scg::new(scale)),
        other => {
            return Err(format!(
                "unknown sweep app '{other}' (expected one of {SWEEP_APPS:?})"
            ))
        }
    })
}

/// Runs one grid point: emulate once, then replay the trace under the
/// three models with each `computation_factor` scaled by the point's
/// multiplier.
fn run_point(cfg: &SweepConfig, p: &SweepPoint) -> Result<ExperimentRow, String> {
    let w = build_workload(&p.app, cfg.scale, p.pe)?;
    crate::experiment(w.as_ref(), &cfg.machine, p.factor, p.label())
}

/// Fans the grid across `cfg.threads` workers and merges the results in
/// grid order. Simulated numbers are independent of the thread count;
/// `run_sweep` with 1 thread and with N threads serialize to the same
/// bytes. A point that fails — or panics — becomes a failure line.
pub fn run_sweep(cfg: &SweepConfig) -> SweepOutcome {
    let grid = cfg.grid();
    let collected = aputil::par_map_ordered(&grid, cfg.threads, |p| {
        catch_unwind(AssertUnwindSafe(|| run_point(cfg, p)))
            .unwrap_or_else(|e| Err(aputil::panic_message(e.as_ref())))
            .map_err(|msg| format!("{}: {msg}", p.label()))
    });
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for r in collected {
        match r {
            Ok(row) => rows.push(row),
            Err(f) => failures.push(f),
        }
    }
    SweepOutcome { rows, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_report;

    fn small_cfg(threads: usize) -> SweepConfig {
        SweepConfig {
            scale: Scale::Test,
            apps: vec!["EP".into(), "MatMul".into()],
            sizes: vec![None, Some(4)],
            factors: vec![0.5, 1.0],
            threads,
            machine: MachineConfig::new(1),
        }
    }

    #[test]
    fn grid_is_in_canonical_nested_order() {
        let cfg = small_cfg(1);
        let labels: Vec<String> = cfg.grid().iter().map(SweepPoint::label).collect();
        assert_eq!(
            labels,
            [
                "EP pedef cf0.50",
                "EP pedef cf1.00",
                "EP pe4 cf0.50",
                "EP pe4 cf1.00",
                "MatMul pedef cf0.50",
                "MatMul pedef cf1.00",
                "MatMul pe4 cf0.50",
                "MatMul pe4 cf1.00",
            ]
        );
    }

    #[test]
    fn sweep_output_is_byte_identical_across_thread_counts() {
        let serial = run_sweep(&small_cfg(1));
        let parallel = run_sweep(&small_cfg(4));
        assert!(serial.failures.is_empty(), "{:?}", serial.failures);
        assert!(parallel.failures.is_empty(), "{:?}", parallel.failures);
        let a = bench_report(&serial.rows, Scale::Test, Some("sweep")).to_string();
        let b = bench_report(&parallel.rows, Scale::Test, Some("sweep")).to_string();
        assert_eq!(a, b, "sweep report must not depend on the thread count");
    }

    #[test]
    fn factor_scales_model_times() {
        let cfg = SweepConfig {
            scale: Scale::Test,
            apps: vec!["EP".into()],
            sizes: vec![None],
            factors: vec![0.5, 1.0],
            threads: 2,
            machine: MachineConfig::new(1),
        };
        let out = run_sweep(&cfg);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.rows.len(), 2);
        // EP is pure computation: halving the computation factor halves
        // the replayed total (emulator time is untouched by the factor).
        let half = out.rows[0].plus.total.as_nanos() as f64;
        let full = out.rows[1].plus.total.as_nanos() as f64;
        assert!(
            (half * 2.0 - full).abs() / full < 0.01,
            "cf0.5 {half} vs cf1.0 {full}"
        );
        assert_eq!(
            out.rows[0].emulator_total, out.rows[1].emulator_total,
            "the factor is a model parameter, not an emulator one"
        );
    }

    #[test]
    fn unknown_app_is_a_reported_failure_not_a_crash() {
        let cfg = SweepConfig {
            scale: Scale::Test,
            apps: vec!["NoSuchApp".into()],
            sizes: vec![None],
            factors: vec![1.0],
            threads: 1,
            machine: MachineConfig::new(1),
        };
        let out = run_sweep(&cfg);
        assert!(out.rows.is_empty());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("NoSuchApp"), "{:?}", out.failures);
    }
}
