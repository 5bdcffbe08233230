//! # apapps — the paper's workloads on the AP1000+ PUT/GET interface
//!
//! The eight applications of §5.2, implemented as real SPMD programs on
//! the `apcore` emulator: each computes an actual numerical answer through
//! the simulated machine and validates it against a sequential reference,
//! while the runtime's probes record the trace that `mlsim` replays.
//!
//! * [`ep::Ep`] — NPB EP: embarrassingly parallel random-number deviates
//!   (no communication).
//! * [`cg::Cg`] — NPB CG: conjugate-gradient eigenvalue estimation; vector
//!   global sums dominate (the paper's worst case).
//! * [`ft::Ft`] — NPB FT: 3-D FFT with all-to-all transposes via stride
//!   PUT/GET.
//! * [`sp::Sp`] — NPB SP-style ADI: pentadiagonal line solves, pipelined
//!   across the partition with many medium PUTs.
//! * [`tomcatv::Tomcatv`] — SPEC TOMCATV: 257×257 mesh generation with
//!   overlap-area boundary exchange; runs **with or without** hardware
//!   stride transfer (the §5.4 ablation).
//! * [`matmul::MatMul`] — dense matrix multiply in "C with PUT/GET":
//!   ring-rotated blocks, communication overlapped with computation.
//! * [`scg::Scg`] — scaled conjugate gradient on a 5-point Poisson matrix:
//!   halo exchange by PUT one way and SEND the other, flag
//!   synchronization, a single final barrier.
//!
//! Language split follows the paper: the five VPP-Fortran applications
//! charge run-time-system work and use the Ack & Barrier model
//! (acknowledged PUTs); the two C applications use flags directly and
//! overlap communication with computation.

pub mod cg;
pub mod ep;
pub mod ft;
pub mod matmul;
pub mod scg;
pub mod sp;
pub mod tomcatv;
pub mod util;

use apcore::{ApError, ApResult, FaultSpec, RunReport};

/// Problem-size presets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny instances for unit tests (seconds of host time).
    Test,
    /// Reduced paper-shaped instances for the reproduction harness: the
    /// per-PE communication statistics stay proportional to Table 3.
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = String;
    /// `test` or `paper` — the spelling of `--scale` and of a trace
    /// header's scale label.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "test" => Ok(Scale::Test),
            "paper" => Ok(Scale::Paper),
            _ => Err("expected test or paper".to_string()),
        }
    }
}

/// A runnable workload with the paper's metadata.
pub trait Workload: Send + Sync {
    /// Table-2/3 row label.
    fn name(&self) -> &'static str;
    /// Number of processing elements.
    fn pe(&self) -> u32;
    /// `true` for the VPP Fortran applications (RTS time reported).
    fn is_vpp(&self) -> bool;
    /// Runs on the emulator; `Ok` implies the numerical result verified.
    fn run(&self) -> ApResult<RunReport<()>>;

    /// Like [`run`](Workload::run), but under a deterministic fault
    /// schedule: a survived run returns `Ok` with a verified numerical
    /// result and the [`apcore::FaultReport`](aputil::FaultReport) in
    /// [`RunReport::fault`]; an unsurvivable schedule aborts with a
    /// structured error. Workloads opt in (CG, the paper's communication
    /// worst case, is the reference implementation); the default reports
    /// that fault injection is not wired up for this application.
    fn run_faulted(&self, faults: &FaultSpec) -> ApResult<RunReport<()>> {
        let _ = faults;
        Err(ApError::InvalidArg(format!(
            "{}: fault injection is not wired up for this workload",
            self.name()
        )))
    }
}

/// The paper's application list at the given scale, in Table-2 order:
/// EP, CG, FT, SP, TOMCATV (stride), TOMCATV (no stride), MatMul, SCG.
pub fn standard_suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(ep::Ep::new(scale)),
        Box::new(cg::Cg::new(scale)),
        Box::new(ft::Ft::new(scale)),
        Box::new(sp::Sp::new(scale)),
        Box::new(tomcatv::Tomcatv::new(scale, true)),
        Box::new(tomcatv::Tomcatv::new(scale, false)),
        Box::new(matmul::MatMul::new(scale)),
        Box::new(scg::Scg::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_rows_in_table_order() {
        let suite = standard_suite(Scale::Test);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            ["EP", "CG", "FT", "SP", "TC st", "TC no st", "MatMul", "SCG"]
        );
        // Language split per §5.2: five VPP Fortran + TOMCATV twice, two C.
        let vpp: Vec<bool> = suite.iter().map(|w| w.is_vpp()).collect();
        assert_eq!(vpp, [true, true, true, true, true, true, false, false]);
    }

    #[test]
    fn run_faulted_defaults_to_a_structured_unsupported_error() {
        let err = ep::Ep::new(Scale::Test)
            .run_faulted(&FaultSpec::quiet())
            .unwrap_err();
        assert!(err.to_string().contains("not wired up"), "{err}");
    }
}
