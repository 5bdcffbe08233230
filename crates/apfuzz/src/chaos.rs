//! Chaos referee: generated fuzz programs under deterministic fault
//! schedules.
//!
//! The contract it enforces is the fault layer's "never hang, never
//! corrupt" guarantee:
//!
//! * **Survivable schedule** (no fail-stop crash): the run must complete
//!   and every destination byte, flag count, DSM-window byte, and
//!   remote-load result must still match the fault-free oracle — retries,
//!   detours, and duplicate suppression have to be invisible to the
//!   program's memory.
//! * **Unsurvivable schedule** (contains a crash): the run must abort with
//!   a *structured* error — [`ApError::Fault`] or
//!   [`ApError::BarrierAborted`] — never a hang, an opaque panic, or an
//!   oracle miss. (If the program finishes before the crash fires, the
//!   skipped crash makes the run survivable after the fact; the referee
//!   then requires the full survivable contract.)
//! * **Determinism**: the identical (program, schedule) pair run twice
//!   must produce a byte-identical verdict — same [`aputil::FaultReport`]
//!   rendering on survival, same error rendering on abort.
//!
//! Hostile programs (which abort on their own even fault-free) are refereed
//! by the plain [`crate::run_program`] pipeline instead: layering injected
//! faults over an expected protocol error would make the abort ambiguous.

use crate::plan::Plan;
use crate::program::FuzzProgram;
use crate::runner::{self, CellOut};
use apcore::{run, ApError, FaultSpec, MachineConfig};

/// What a chaos run did, when it met the contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// The run completed with oracle-verified memory. Carries the
    /// canonical [`aputil::FaultReport::render`] text and the number of
    /// envelope retransmissions, so callers can assert byte-identical
    /// reproduction across runs, threads, or machines.
    Survived {
        /// `FaultReport::render()` of the attached report.
        report: String,
        /// Envelope retransmissions the recovery protocol performed.
        retries: u64,
    },
    /// The run aborted with the contained structured-error rendering.
    Aborted(String),
}

fn fail(category: &str, detail: String) -> String {
    format!("{category}: {detail}")
}

/// Runs `prog` under the fault schedule `spec`, twice, and checks the
/// chaos contract (see the module docs).
///
/// # Errors
///
/// A `"category: detail"` violation string, same shape as
/// [`crate::run_program`]: `chaos-unsurvived` (a survivable schedule
/// aborted), `chaos-error` (an unstructured abort), `chaos-report`
/// (missing or inconsistent fault report), `chaos-nondeterminism`
/// (the two runs differed), or any memory-oracle category.
pub fn run_chaos(prog: &FuzzProgram, spec: &FaultSpec) -> Result<ChaosVerdict, String> {
    let plan = Plan::build(prog);
    if plan.expect_error.is_some() {
        return runner::run_program(prog).map(|()| ChaosVerdict::Survived {
            report: String::new(),
            retries: 0,
        });
    }
    let first = run_once(&plan, prog.seed, spec)?;
    let second = run_once(&plan, prog.seed, spec)?;
    if first != second {
        return Err(fail(
            "chaos-nondeterminism",
            format!("identical (program, schedule) diverged:\n--- first\n{first:?}\n--- second\n{second:?}"),
        ));
    }
    Ok(first)
}

fn run_once(plan: &Plan, seed: u64, spec: &FaultSpec) -> Result<ChaosVerdict, String> {
    let cfg = MachineConfig::new(plan.ncells).with_mem_size(plan.mem_size);
    let read_dsm = plan.expected.remote_stores > 0;
    let result = run(cfg, Some(spec), async |cell| {
        runner::execute(plan, seed, read_dsm, cell).await
    });
    match result {
        Ok(report) => {
            let completed: &[CellOut] = &report.outputs;
            runner::check_state(plan, seed, read_dsm, completed)?;
            let fr = report
                .fault
                .as_ref()
                .ok_or_else(|| fail("chaos-report", "faulted run carried no report".to_string()))?;
            if !fr.survived() {
                return Err(fail(
                    "chaos-report",
                    format!("completed run reports failure: {}", fr.cause),
                ));
            }
            Ok(ChaosVerdict::Survived {
                report: fr.render(),
                retries: fr.total_retries(),
            })
        }
        Err(err @ (ApError::Fault(_) | ApError::BarrierAborted { .. })) => {
            if spec.is_survivable() {
                Err(fail(
                    "chaos-unsurvived",
                    format!("survivable schedule aborted: {err}"),
                ))
            } else {
                Ok(ChaosVerdict::Aborted(err.to_string()))
            }
        }
        Err(other) => Err(fail(
            "chaos-error",
            format!("unstructured abort under faults: {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_program;

    #[test]
    fn quiet_schedule_survives_with_no_retries() {
        let prog = gen_program(11, 4);
        match run_chaos(&prog, &FaultSpec::default()).unwrap() {
            ChaosVerdict::Survived { retries, .. } => assert_eq!(retries, 0),
            ChaosVerdict::Aborted(e) => panic!("quiet schedule aborted: {e}"),
        }
    }

    #[test]
    fn survivable_grid_passes_the_memory_oracle() {
        for seed in 0..3 {
            let prog = gen_program(seed, 4);
            for fault_seed in 0..3 {
                let spec = FaultSpec::random(fault_seed, 4, true);
                let v = run_chaos(&prog, &spec)
                    .unwrap_or_else(|e| panic!("seed {seed}/fault {fault_seed}: {e}"));
                assert!(
                    matches!(v, ChaosVerdict::Survived { .. }),
                    "seed {seed}/fault {fault_seed}: survivable schedule aborted: {v:?}"
                );
            }
        }
    }

    #[test]
    fn unsurvivable_schedules_abort_structurally_or_finish_first() {
        let mut aborted = 0;
        for fault_seed in 0..4 {
            let prog = gen_program(5, 4);
            let spec = FaultSpec::random(fault_seed, 4, false);
            match run_chaos(&prog, &spec).unwrap() {
                ChaosVerdict::Aborted(e) => {
                    aborted += 1;
                    assert!(
                        e.contains("fail-stop") || e.contains("barrier") || e.contains("lost"),
                        "abort is structured: {e}"
                    );
                }
                ChaosVerdict::Survived { .. } => {} // crash landed after the end
            }
        }
        assert!(aborted > 0, "at least one crash should land mid-run");
    }
}
