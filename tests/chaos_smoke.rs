//! The chaos smoke suite: a (program seed × fault seed) grid of random
//! fuzz programs under random fault schedules, checked by the chaos
//! referee — survivable schedules must complete with oracle-verified
//! memory and byte-identical fault reports across repeated runs;
//! unsurvivable schedules must abort with a structured fault error, never
//! hang or corrupt memory. Tier-1 runs [`SEEDS`] program seeds per
//! machine size, three schedules each; CI runs the `#[ignore]`d
//! [`CI_SEEDS`] grid in release.

use apcore::FaultSpec;
use apfuzz::{gen_program, run_chaos, ChaosVerdict};

const FAULT_SEEDS: u64 = 3;
/// Program seeds per machine size in the tier-1 grids.
const SEEDS: u64 = 4;
/// Program seeds per machine size in the full grids.
const CI_SEEDS: u64 = 12;

#[test]
fn chaos_survivable_grid() {
    survivable_grid(SEEDS);
}

#[test]
fn chaos_unsurvivable_grid() {
    unsurvivable_grid(SEEDS);
}

#[test]
#[ignore = "three times the tier-1 grids; CI runs it in release"]
fn chaos_grids_full_size() {
    survivable_grid(CI_SEEDS);
    unsurvivable_grid(CI_SEEDS);
}

fn survivable_grid(seeds: u64) {
    for ncells in [4u32, 9] {
        for seed in 0..seeds {
            let prog = gen_program(seed, ncells);
            for fault_seed in 0..FAULT_SEEDS {
                let spec = FaultSpec::random(fault_seed, ncells, true);
                let v = run_chaos(&prog, &spec).unwrap_or_else(|e| {
                    panic!("seed {seed} ncells {ncells} fault {fault_seed}: {e}")
                });
                assert!(
                    matches!(v, ChaosVerdict::Survived { .. }),
                    "seed {seed} ncells {ncells} fault {fault_seed}: \
                     survivable schedule aborted: {v:?}"
                );
            }
        }
    }
}

fn unsurvivable_grid(seeds: u64) {
    for seed in 0..seeds {
        let prog = gen_program(0xC4A05 ^ seed, 4);
        for fault_seed in 0..FAULT_SEEDS {
            let spec = FaultSpec::random(fault_seed, 4, false);
            // Ok(Aborted) = the crash landed and the abort was structured;
            // Ok(Survived) = the program finished before the crash fired.
            // Either meets the contract — an Err means it was violated.
            run_chaos(&prog, &spec)
                .unwrap_or_else(|e| panic!("seed {seed} fault {fault_seed}: {e}"));
        }
    }
}
