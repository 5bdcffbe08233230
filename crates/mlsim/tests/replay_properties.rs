//! Property tests of the replay engine on randomized well-formed traces.

use aptrace::evtrace::{encode, EvHeader, EvTrace};
use aptrace::{Op, Trace};
use aputil::{CellId, SimTime};
use mlsim::{replay, ModelParams};
use proptest::prelude::*;

/// A generator for well-formed traces: arbitrary non-blocking ops plus an
/// equal number of barriers on every PE (so replay always completes).
fn arb_trace() -> impl Strategy<Value = Trace> {
    let op = prop_oneof![
        (1u64..10_000).prop_map(|flops| Op::Work { flops }),
        (1u64..100).prop_map(|units| Op::Rts { units }),
        (0u32..4, 1u64..4096).prop_map(|(dst, bytes)| Op::Put {
            dst: CellId::new(dst),
            bytes,
            stride: false,
            ack: false,
            send_flag: 0,
            recv_flag: 0,
        }),
        (0u32..4, 1u64..512).prop_map(|(dst, bytes)| Op::RemoteStore {
            dst: CellId::new(dst),
            bytes,
        }),
    ];
    (
        proptest::collection::vec(proptest::collection::vec(op, 0..25), 4),
        0usize..4,
    )
        .prop_map(|(per_pe, barriers)| {
            let mut t = Trace::new(4);
            for (i, ops) in per_pe.into_iter().enumerate() {
                let pe = t.pe_mut(CellId::new(i as u32));
                for (k, op) in ops.into_iter().enumerate() {
                    pe.push(op);
                    // Interleave the same number of barriers everywhere.
                    if k < barriers {
                        pe.push(Op::Barrier);
                    }
                }
                for _ in t
                    .pe(CellId::new(i as u32))
                    .ops
                    .iter()
                    .filter(|o| matches!(o, Op::Barrier))
                    .count()..barriers
                {
                    t.pe_mut(CellId::new(i as u32)).push(Op::Barrier);
                }
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every well-formed trace replays to completion under all three
    /// models, with the paper's model ordering and sane buckets.
    #[test]
    fn replay_completes_and_orders_models(trace in arb_trace()) {
        let plus = replay(&trace, &ModelParams::ap1000_plus()).unwrap();
        let star = replay(&trace, &ModelParams::ap1000_star()).unwrap();
        let old = replay(&trace, &ModelParams::ap1000()).unwrap();
        prop_assert!(plus.total <= star.total, "plus {} star {}", plus.total, star.total);
        prop_assert!(star.total <= old.total, "star {} old {}", star.total, old.total);
        for r in [&plus, &star, &old] {
            for (i, b) in r.per_pe.iter().enumerate() {
                prop_assert!(b.finish <= r.total, "pe{i} finishes after total");
                // Program-side buckets fit within the program's lifetime
                // (+ event slack). Overhead is excluded deliberately: under
                // software handling a PE keeps paying interrupt service for
                // arrivals even after its own program finished — which is
                // the paper's point about software message handling.
                let program_side = b.exec + b.rts + b.idle;
                prop_assert!(
                    program_side <= b.finish + SimTime::from_micros(10),
                    "{}: pe{i} exec+rts+idle {} > finish {}",
                    r.model, program_side, b.finish
                );
            }
        }
    }

    /// Replay is a pure function of (trace, params).
    #[test]
    fn replay_is_deterministic(trace in arb_trace()) {
        let a = replay(&trace, &ModelParams::ap1000()).unwrap();
        let b = replay(&trace, &ModelParams::ap1000()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A trace is outside input — `repro remodel` and `apserve` replay
    /// whatever an `.evtrace` decodes to. Flip any bit of an encoded
    /// recording: if it still decodes, the replay of its ops returns
    /// (`Ok`, `Stuck` or `Mismatch`); it never panics on a peer the flip
    /// moved off the machine.
    #[test]
    fn replay_of_a_bit_flipped_recording_returns(
        trace in arb_trace(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let doc = EvTrace {
            header: EvHeader::new(4, "fuzz", "test"),
            ops: Some(trace),
            ..EvTrace::default()
        };
        let mut bytes = encode(&doc);
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        if let Ok(EvTrace { ops: Some(ops), .. }) = EvTrace::decode(&bytes) {
            let _ = replay(&ops, &ModelParams::ap1000_star());
        }
    }

    /// Scaling only the processor (computation_factor) can never slow a
    /// trace down, and pure-compute traces scale exactly linearly.
    #[test]
    fn computation_factor_scales_work(flops in 1u64..1_000_000) {
        let mut t = Trace::new(1);
        t.pe_mut(CellId::new(0)).push(Op::Work { flops });
        let slow = replay(&t, &ModelParams::ap1000()).unwrap();
        let fast = replay(&t, &ModelParams::ap1000_plus()).unwrap();
        prop_assert_eq!(slow.total.as_nanos(), fast.total.as_nanos() * 8);
    }
}
