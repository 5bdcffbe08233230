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

use apcore::{ApError, ApResult, FaultSpec, MachineConfig, RunReport};

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
    /// Runs on `machine` — which carries every run option (timeline mode,
    /// sampling, progress, post-mortem dump) and must have exactly
    /// [`pe`](Workload::pe) cells — optionally under a deterministic fault
    /// schedule. `Ok` implies the numerical result verified; a survived
    /// faulted run also carries its [`apcore::FaultReport`] in
    /// [`RunReport::fault`], and an unsurvivable schedule aborts with a
    /// structured error. Workloads opt in to fault injection (CG, the
    /// paper's communication worst case, is the reference implementation).
    ///
    /// # Errors
    ///
    /// [`ApError::InvalidArg`] when the machine size is not the
    /// workload's, the problem does not decompose over it, or `faults` is
    /// given to a workload without fault support; otherwise whatever the
    /// run raises.
    fn run_on(&self, machine: MachineConfig, faults: Option<&FaultSpec>)
        -> ApResult<RunReport<()>>;

    /// [`run_on`](Workload::run_on) a default machine, fault-free.
    fn run(&self) -> ApResult<RunReport<()>> {
        self.run_on(MachineConfig::new(self.pe()), None)
    }

    /// [`run_on`](Workload::run_on) a default machine under `faults`.
    fn run_faulted(&self, faults: &FaultSpec) -> ApResult<RunReport<()>> {
        self.run_on(MachineConfig::new(self.pe()), Some(faults))
    }
}

/// The preflight every [`Workload::run_on`] starts with: `machine` must be
/// the workload's size, and `unsupported` — the fault schedule handed to a
/// workload that cannot run under one — must be absent.
pub(crate) fn admit(
    w: &dyn Workload,
    machine: &MachineConfig,
    unsupported: Option<&FaultSpec>,
) -> ApResult<()> {
    if machine.ncells != w.pe() {
        return Err(ApError::InvalidArg(format!(
            "{}: built for {} PEs, handed a {}-cell machine",
            w.name(),
            w.pe(),
            machine.ncells
        )));
    }
    if unsupported.is_some() {
        return Err(ApError::InvalidArg(format!(
            "{}: fault injection is not wired up for this workload",
            w.name()
        )));
    }
    Ok(())
}

/// `pe must divide <dim>`: the block decompositions need equal shares.
pub(crate) fn must_divide(w: &dyn Workload, dim: &str, extent: usize) -> ApResult<()> {
    if extent.is_multiple_of(w.pe() as usize) {
        Ok(())
    } else {
        Err(ApError::InvalidArg(format!(
            "{}: pe must divide {dim} (pe = {}, {dim} = {extent})",
            w.name(),
            w.pe()
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

    #[test]
    fn a_machine_of_the_wrong_size_is_refused() {
        for w in standard_suite(Scale::Test) {
            let err = w
                .run_on(MachineConfig::new(w.pe() + 1), None)
                .expect_err("size mismatch must not run");
            assert!(matches!(err, ApError::InvalidArg(_)), "{err}");
            assert!(err.to_string().contains("PEs"), "{err}");
        }
    }

    #[test]
    fn an_impossible_decomposition_is_an_error_not_a_panic() {
        let cases: [(Box<dyn Workload>, &str); 4] = [
            (
                Box::new(matmul::MatMul {
                    pe: 7,
                    ..matmul::MatMul::new(Scale::Test)
                }),
                "pe must divide n",
            ),
            (
                Box::new(sp::Sp {
                    pe: 7,
                    ..sp::Sp::new(Scale::Test)
                }),
                "pe must divide n",
            ),
            (
                Box::new(ft::Ft {
                    pe: 3,
                    ..ft::Ft::new(Scale::Test)
                }),
                "pe must divide nx",
            ),
            (
                Box::new(ft::Ft {
                    pe: 8,
                    nx: 8,
                    nz: 4,
                    ..ft::Ft::new(Scale::Test)
                }),
                "pe must divide nz",
            ),
        ];
        for (w, text) in cases {
            let err = w.run().expect_err("must not decompose");
            assert!(matches!(err, ApError::InvalidArg(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(text) && msg.contains(&format!("pe = {}", w.pe())),
                "{msg}"
            );
        }
    }
}
