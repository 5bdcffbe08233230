//! The fuzz smoke suite: hundreds of random programs across several
//! machine sizes (including a prime and the degenerate 1-cell machine),
//! each checked against the memory oracle, the planned op counts, the
//! latency-segment identity, and the MLSim replay — see the `apfuzz`
//! crate docs for the full invariant list.
//!
//! On failure the program is shrunk and printed as a standalone RON
//! reproducer; set `APFUZZ_WRITE_CORPUS=1` to also write it into
//! `tests/corpus/` for permanent regression coverage. Tier-1 sweeps
//! [`SEEDS`] programs per machine size (~210 programs, a few seconds);
//! CI runs the `#[ignore]`d [`CI_SEEDS`] sweep in release.

use apfuzz::{gen_big_chunk, gen_program, run_program, shrink, to_ron, FuzzProgram, Plan};

fn check(prog: &FuzzProgram) {
    let Err(violation) = run_program(prog) else {
        return;
    };
    let shrunk = shrink(prog, &violation, |p| run_program(p).err());
    let mut min = shrunk.program;
    // Refresh the recorded expectation so the reproducer documents what
    // the *minimized* program demands.
    min.expect_error = Plan::build(&min).expect_error.clone();
    let ron = to_ron(&min);
    if std::env::var("APFUZZ_WRITE_CORPUS").as_deref() == Ok("1") {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
        std::fs::create_dir_all(dir).expect("create corpus dir");
        let path = format!("{dir}/shrunk-seed{}-n{}.ron", min.seed, min.ncells);
        std::fs::write(&path, &ron).expect("write corpus file");
        eprintln!("wrote reproducer to {path}");
        // The binary-trace twin: replayable with `repro replay`/`remodel`
        // (absent when the reproducer aborts before completing a run).
        if let Some(bytes) = apfuzz::program_evtrace(&min) {
            let tpath = format!("{dir}/shrunk-seed{}-n{}.evtrace", min.seed, min.ncells);
            std::fs::write(&tpath, &bytes).expect("write corpus trace");
            eprintln!("wrote binary trace to {tpath}");
        }
    }
    panic!(
        "fuzz violation (seed {}, ncells {}): {}\n\
         shrunk to {} action(s) after {} candidate run(s):\n{ron}",
        prog.seed,
        prog.ncells,
        shrunk.violation,
        min.total_actions(),
        shrunk.attempts,
    );
}

/// Programs per machine size in the tier-1 sweep.
const SEEDS: u64 = 70;
/// Programs per machine size in the full sweep.
const CI_SEEDS: u64 = 400;

/// Random programs on a power-of-two, a prime, and an odd-composite
/// machine.
fn sweep(seeds: u64) {
    for ncells in [4u32, 7, 9] {
        for seed in 0..seeds {
            check(&gen_program(seed, ncells));
        }
    }
}

#[test]
fn fuzz_random_programs() {
    sweep(SEEDS);
}

#[test]
#[ignore = "1200 programs; CI runs it in release"]
fn fuzz_random_programs_full_sweep() {
    sweep(CI_SEEDS);
}

/// Degenerate and awkward machine sizes: a single cell (every transfer is
/// a loopback), a pair, and sizes whose torus is non-square.
#[test]
fn fuzz_edge_machine_sizes() {
    for (ncells, seeds) in [(1u32, 8u64), (2, 8), (12, 5), (13, 5)] {
        for seed in 0..seeds {
            check(&gen_program(0xED6E ^ seed, ncells));
        }
    }
}

/// One program whose PUT exceeds the 4 MB DMA limit: exercises the
/// transparent chunking path (three in-order chunks, flags and the
/// acknowledge riding the last one) at full differential depth.
#[test]
fn fuzz_big_chunk_program() {
    check(&gen_big_chunk(2026));
}

/// The binary-trace twin of a written reproducer decodes cleanly and
/// carries the program's ops and timeline.
#[test]
fn reproducer_evtrace_round_trips() {
    let prog = gen_program(3, 4);
    let bytes = apfuzz::program_evtrace(&prog).expect("healthy program records");
    let doc = aptrace::EvTrace::decode(&bytes).expect("evtrace decodes");
    assert_eq!(doc.header.app, "apfuzz");
    assert_eq!(doc.header.ncells, 4);
    assert!(doc.ops.is_some(), "ops section present");
    assert!(doc.summary.events > 0, "timeline recorded");
    assert!(doc.summary.total_ns > 0);
}
