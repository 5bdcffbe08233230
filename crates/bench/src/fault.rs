//! `repro fault` — application runs under deterministic fault injection.
//!
//! Runs each selected workload through [`apapps::Workload::run_on`]
//! with one shared [`FaultSpec`], fanning the apps across host threads
//! exactly like [`crate::run_sweep`], and renders one merged text report
//! **deterministically in app order** — byte-identical for any thread
//! count, which is what the CI `fault-smoke` job asserts. A grid point
//! whose schedule is unsurvivable (or whose workload has no fault
//! support) becomes a structured failure line, never a hang.

use crate::sweep::build_workload;
use apapps::Scale;
use apcore::{FaultSpec, MachineConfig};
use aputil::{FaultReport, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Applications with fault-recovery support, in Table-2 order. CG — the
/// paper's communication worst case — is the reference workload.
pub const FAULT_APPS: &[&str] = &["CG"];

/// What to run and under which schedule.
#[derive(Clone, Debug)]
pub struct FaultSweepConfig {
    /// Problem-size preset each workload is built at.
    pub scale: Scale,
    /// Applications to run (names from [`crate::SWEEP_APPS`]).
    pub apps: Vec<String>,
    /// The fault schedule every app runs under.
    pub spec: FaultSpec,
    /// Host worker threads (clamped to `[1, app count]`).
    pub threads: usize,
    /// Run options of every app's machine (a prototype: each app stamps
    /// its own cell count onto a clone).
    pub machine: MachineConfig,
}

impl FaultSweepConfig {
    /// The config for a schedule derived from `seed`. Survivable
    /// schedules only: chaos crash testing lives in the apfuzz referee,
    /// a fault sweep asserts verified completion. Cell ids are drawn for
    /// the largest selected machine; events naming cells a smaller
    /// machine lacks simply never fire.
    pub fn from_seed(
        scale: Scale,
        apps: Vec<String>,
        seed: u64,
        threads: usize,
        machine: MachineConfig,
    ) -> Result<FaultSweepConfig, String> {
        let max_pe = largest_machine(&apps, scale, None)
            .ok_or_else(|| format!("no runnable app among {apps:?}"))?;
        Ok(FaultSweepConfig {
            scale,
            apps,
            spec: FaultSpec::random(seed, max_pe, true),
            threads,
            machine,
        })
    }
}

/// Cell count of the largest machine `apps` build at `scale` (`size`
/// overrides each app's own); `None` if no app builds at all.
pub fn largest_machine(apps: &[String], scale: Scale, size: Option<u32>) -> Option<u32> {
    let built = apps
        .iter()
        .filter_map(|a| build_workload(a, scale, size).ok());
    built.map(|w| w.pe()).max()
}

/// One surviving app run.
pub struct FaultRow {
    /// Application name.
    pub app: String,
    /// PE count it ran at.
    pub pe: u32,
    /// Total simulated time of the faulted run.
    pub total: SimTime,
    /// The recovery protocol's report.
    pub report: FaultReport,
}

/// A finished fault sweep: rows and failures, both in app order.
pub struct FaultOutcome {
    /// One row per app that survived with a verified result.
    pub rows: Vec<FaultRow>,
    /// `"<app>: <error>"` per app that aborted (structured fault error,
    /// verification failure, or missing fault support).
    pub failures: Vec<String>,
}

fn run_app(cfg: &FaultSweepConfig, app: &str) -> Result<FaultRow, String> {
    let w = build_workload(app, cfg.scale, None)?;
    let machine = cfg.machine.clone().with_cells(w.pe());
    let report = catch_unwind(AssertUnwindSafe(|| w.run_on(machine, Some(&cfg.spec))))
        .map_err(|e| {
            format!(
                "verification panicked: {}",
                aputil::panic_message(e.as_ref())
            )
        })?
        .map_err(|e| e.to_string())?;
    let fault = report
        .fault
        .ok_or_else(|| "faulted run carried no fault report".to_string())?;
    Ok(FaultRow {
        app: app.to_string(),
        pe: w.pe(),
        total: report.total_time,
        report: fault,
    })
}

/// Fans `cfg.apps` across `cfg.threads` workers. Simulated results are
/// independent of the thread count: [`fault_sweep_text`] over the outcome
/// serializes to the same bytes for any `threads`.
pub fn run_fault_sweep(cfg: &FaultSweepConfig) -> FaultOutcome {
    let collected = aputil::par_map_ordered(&cfg.apps, cfg.threads, |app| {
        run_app(cfg, app).map_err(|e| format!("{app}: {e}"))
    });
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for r in collected {
        match r {
            Ok(row) => rows.push(row),
            Err(f) => failures.push(f),
        }
    }
    FaultOutcome { rows, failures }
}

/// Canonical text rendering of a fault sweep: the schedule (in RON), then
/// one section per surviving app with its simulated total and the full
/// [`FaultReport::render`], then the failure lines. Every byte is a
/// function of (config, simulated events) only.
pub fn fault_sweep_text(cfg: &FaultSweepConfig, out: &FaultOutcome) -> String {
    let mut s = String::new();
    s.push_str("ap1000plus fault sweep v1\n");
    s.push_str(&format!("scale: {:?}\n", cfg.scale));
    s.push_str("spec:\n");
    for line in apfault::to_ron(&cfg.spec).lines() {
        s.push_str(&format!("    {line}\n"));
    }
    for row in &out.rows {
        s.push_str(&format!(
            "\n== {} (pe {}) ==\ntotal: {}\n{}\n",
            row.app,
            row.pe,
            row.total,
            row.report.render()
        ));
    }
    if !out.failures.is_empty() {
        s.push_str("\nfailures:\n");
        for f in &out.failures {
            s.push_str(&format!("  {f}\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcore::{CellId, FaultEvent, FaultKind, RecoveryParams};

    fn survivable_cfg(threads: usize) -> FaultSweepConfig {
        FaultSweepConfig {
            scale: Scale::Test,
            apps: vec!["CG".into()],
            spec: FaultSpec {
                seed: Some(42),
                recovery: RecoveryParams::default(),
                events: vec![
                    FaultEvent {
                        from: SimTime::ZERO,
                        until: SimTime::from_nanos(5_000_000),
                        kind: FaultKind::LinkDown {
                            from: CellId::new(1),
                            to: CellId::new(0),
                        },
                    },
                    FaultEvent {
                        from: SimTime::ZERO,
                        until: SimTime::from_nanos(1_000_000_000),
                        kind: FaultKind::Corrupt {
                            src: CellId::new(0),
                            dst: CellId::new(1),
                            count: 1,
                        },
                    },
                ],
            },
            threads,
            machine: MachineConfig::new(1),
        }
    }

    #[test]
    fn fault_sweep_text_is_byte_identical_across_thread_counts() {
        let cfg1 = survivable_cfg(1);
        let cfg2 = survivable_cfg(2);
        let a = fault_sweep_text(&cfg1, &run_fault_sweep(&cfg1));
        let b = fault_sweep_text(&cfg2, &run_fault_sweep(&cfg2));
        assert_eq!(a, b);
        assert!(a.contains("== CG"), "{a}");
        assert!(a.contains("retries"), "{a}");
    }

    #[test]
    fn unsupported_app_is_a_reported_failure_not_a_crash() {
        let cfg = FaultSweepConfig {
            scale: Scale::Test,
            apps: vec!["EP".into()],
            spec: FaultSpec::default(),
            threads: 1,
            machine: MachineConfig::new(1),
        };
        let out = run_fault_sweep(&cfg);
        assert!(out.rows.is_empty());
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0].contains("not wired up"),
            "{:?}",
            out.failures
        );
        assert!(fault_sweep_text(&cfg, &out).contains("failures:"));
    }
}
