//! Seeded random program generation.
//!
//! Everything is derived from one `u64` seed through the deterministic
//! `rand` shim, so a failing seed printed by the smoke test reproduces the
//! exact program forever. The generator needs no validity knowledge: any
//! field values describe *some* program, because the [`crate::plan`]
//! clamps offsets and sizes and suppresses what cannot fit.

use crate::program::{Action, FuzzProgram, StrideMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn gen_mode(rng: &mut SmallRng) -> StrideMode {
    match rng.gen_range(0u32..4) {
        0 => StrideMode::Contig,
        1 => StrideMode::Stride,
        2 => StrideMode::SendStride,
        _ => StrideMode::RecvStride,
    }
}

fn gen_action(rng: &mut SmallRng, ncells: u32) -> Action {
    let cell = |rng: &mut SmallRng| rng.gen_range(0..ncells);
    match rng.gen_range(0u32..100) {
        0..=34 => Action::Put {
            src: cell(rng),
            dst: cell(rng),
            src_off: rng.gen_range(0u32..1 << 20),
            item: rng.gen_range(1u32..=512),
            count: rng.gen_range(1u32..=16),
            extra: rng.gen_range(0u32..=64),
            mode: gen_mode(rng),
            flag_send: rng.gen_range(-6i8..=11),
            flag_recv: rng.gen_range(-6i8..=11),
            ack: rng.gen_range(0u32..4) == 0,
        },
        35..=59 => Action::Get {
            owner: cell(rng),
            reader: cell(rng),
            src_off: rng.gen_range(0u32..1 << 20),
            item: rng.gen_range(1u32..=512),
            count: rng.gen_range(1u32..=16),
            extra: rng.gen_range(0u32..=64),
            mode: gen_mode(rng),
            flag_send: rng.gen_range(-6i8..=11),
            flag_recv: rng.gen_range(-6i8..=11),
        },
        60..=69 => Action::Send {
            src: cell(rng),
            dst: cell(rng),
            src_off: rng.gen_range(0u32..1 << 20),
            bytes: rng.gen_range(1u32..=2048),
        },
        70..=74 => Action::Bcast {
            root: cell(rng),
            bytes: rng.gen_range(8u32..=1024),
        },
        75..=82 => Action::RStore {
            src: cell(rng),
            owner: cell(rng),
            bytes: rng.gen_range(1u32..=512),
            pattern: rng.gen_range(0u32..u32::MAX),
        },
        83..=89 => Action::RLoad {
            reader: cell(rng),
            owner: cell(rng),
            off: rng.gen_range(0u32..1 << 20),
            bytes: rng.gen_range(1u32..=512),
        },
        _ => Action::Work {
            cell: cell(rng),
            flops: rng.gen_range(1u32..=50_000),
        },
    }
}

fn gen_hostile_action(rng: &mut SmallRng, ncells: u32) -> Action {
    let cell = |rng: &mut SmallRng| rng.gen_range(0..ncells);
    match rng.gen_range(0u32..3) {
        0 => Action::BadPutEmpty {
            src: cell(rng),
            dst: cell(rng),
        },
        1 => Action::BadPutOverlap {
            src: cell(rng),
            dst: cell(rng),
        },
        _ => Action::BadGetMismatch {
            reader: cell(rng),
            owner: cell(rng),
        },
    }
}

/// Generates the fuzz program for `(seed, ncells)`. About one program in
/// sixteen is *hostile*: it contains exactly one malformed operation that
/// issue-time validation must reject with the documented error.
pub fn gen_program(seed: u64, ncells: u32) -> FuzzProgram {
    let mut rng = SmallRng::seed_from_u64(seed ^ (ncells as u64) << 48);
    let region = 1u64 << rng.gen_range(12u32..=16);
    let nrounds = rng.gen_range(1usize..=4);
    let mut rounds: Vec<Vec<Action>> = (0..nrounds)
        .map(|_| {
            let n = rng.gen_range(2usize..=8);
            (0..n).map(|_| gen_action(&mut rng, ncells)).collect()
        })
        .collect();
    let mut expect_error = None;
    if rng.gen_range(0u32..16) == 0 {
        let a = gen_hostile_action(&mut rng, ncells);
        expect_error = Some(hostile_expect(&a).to_string());
        let r = rng.gen_range(0usize..rounds.len());
        let at = rng.gen_range(0usize..=rounds[r].len());
        rounds[r].insert(at, a);
    }
    FuzzProgram {
        seed,
        ncells,
        region,
        expect_error,
        rounds,
    }
}

fn hostile_expect(a: &Action) -> &'static str {
    match a {
        Action::BadPutEmpty { .. } => "zero-length",
        Action::BadPutOverlap { .. } => "overlap",
        Action::BadGetMismatch { .. } => "recv side",
        _ => unreachable!("not hostile"),
    }
}

/// A program whose single PUT exceeds the 4 MB DMA limit, exercising the
/// transparent chunking path (three in-order chunks, flags on the last).
pub fn gen_big_chunk(seed: u64) -> FuzzProgram {
    FuzzProgram {
        seed,
        ncells: 2,
        region: 24 << 20,
        expect_error: None,
        rounds: vec![vec![
            Action::Put {
                src: 0,
                dst: 1,
                src_off: 4096,
                item: 5 << 20,
                count: 2,
                extra: 0,
                mode: StrideMode::Contig,
                flag_send: 1,
                flag_recv: 2,
                ack: true,
            },
            Action::Work {
                cell: 0,
                flops: 100,
            },
        ]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_program(42, 4), gen_program(42, 4));
        assert_ne!(gen_program(42, 4), gen_program(43, 4));
    }

    #[test]
    fn hostile_programs_carry_their_expected_error() {
        let mut hostile = 0;
        for seed in 0..200 {
            let p = gen_program(seed, 4);
            // The actions issue-time validation must reject.
            let is_hostile = p.rounds.iter().flatten().any(|a| {
                matches!(
                    a,
                    Action::BadPutEmpty { .. }
                        | Action::BadPutOverlap { .. }
                        | Action::BadGetMismatch { .. }
                )
            });
            assert_eq!(is_hostile, p.expect_error.is_some());
            hostile += usize::from(is_hostile);
        }
        assert!(hostile > 0, "hostile programs should appear in 200 seeds");
    }
}
