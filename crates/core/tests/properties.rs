//! Property tests of whole-machine behaviour: randomized communication
//! patterns checked against host-side oracles.

use apcore::{run, MachineConfig, ReduceOp, VAddr};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any batch of PUTs into distinct slots, synchronized Ack & Barrier
    /// style, delivers exactly the oracle's memory image.
    #[test]
    fn random_put_batch_delivers_exactly(
        ncells in 2u32..6,
        puts in proptest::collection::vec((0u32..6, 0u32..6, 0u32..16), 1..40),
    ) {
        // Normalize to the machine size; slot collisions resolved by
        // last-writer via distinct (src, slot) addressing.
        let puts: Arc<Vec<(u32, u32, u32)>> = Arc::new(
            puts.into_iter()
                .map(|(s, d, slot)| (s % ncells, d % ncells, slot))
                .collect(),
        );
        // Oracle: value at (dst, src, slot) = encoded sender value; each
        // (src, dst, slot) is written once with a deterministic value
        // (duplicates collapse to the same value, so order is irrelevant).
        let oracle = Arc::clone(&puts);
        let r = run(MachineConfig::new(ncells), None, async move |cell| {
            let me = cell.id() as u32;
            let n = cell.ncells() as u32;
            // inbox[src][slot] on every cell; same layout everywhere.
            let inbox = cell.alloc::<f64>((n * 16) as usize);
            let out = cell.alloc::<f64>(16);
            for slot in 0..16u64 {
                cell.write_pod(out + slot * 8, (me as f64) * 1000.0 + slot as f64);
            }
            cell.barrier();
            for &(src, dst, slot) in puts.iter() {
                if src == me {
                    let raddr = inbox + (src as u64 * 16 + slot as u64) * 8;
                    cell.put(
                        dst as usize,
                        raddr,
                        out + slot as u64 * 8,
                        8,
                        VAddr::NULL,
                        VAddr::NULL,
                        true,
                    );
                }
            }
            cell.wait_acks();
            cell.barrier();
            cell.read_slice::<f64>(inbox, (n * 16) as usize).await
        })
        .unwrap();
        for (dst, image) in r.outputs.iter().enumerate() {
            for src in 0..ncells {
                for slot in 0..16u32 {
                    let expected = if oracle
                        .iter()
                        .any(|&(s, d, sl)| s == src && d == dst as u32 && sl == slot)
                    {
                        src as f64 * 1000.0 + slot as f64
                    } else {
                        0.0
                    };
                    let got = image[(src * 16 + slot) as usize];
                    prop_assert_eq!(got, expected, "dst {} src {} slot {}", dst, src, slot);
                }
            }
        }
    }

    /// Tree reductions agree with the oracle for every operator, any
    /// machine size (including non-powers of two).
    #[test]
    fn reductions_match_oracle(
        ncells in 1u32..9,
        seeds in proptest::collection::vec(-100i32..100, 9),
    ) {
        let seeds = Arc::new(seeds);
        let values: Vec<f64> = (0..ncells as usize).map(|i| seeds[i] as f64).collect();
        let expect_sum: f64 = values.iter().sum();
        let expect_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let r = run(MachineConfig::new(ncells), None, async move |cell| {
            let x = seeds[cell.id()] as f64;
            let s = cell.reduce_f64(x, ReduceOp::Sum).await;
            let m = cell.reduce_f64(x, ReduceOp::Max).await;
            (s, m)
        })
        .unwrap();
        for &(s, m) in &r.outputs {
            prop_assert!((s - expect_sum).abs() < 1e-9, "sum {} vs {}", s, expect_sum);
            prop_assert_eq!(m, expect_max);
        }
    }

    /// Ring-buffer messages between a fixed pair arrive in FIFO order
    /// regardless of sizes.
    #[test]
    fn ring_buffer_is_fifo(lens in proptest::collection::vec(1usize..50, 1..20)) {
        let lens = Arc::new(lens);
        let check = Arc::clone(&lens);
        let r = run(MachineConfig::new(2), None, async move |cell| {
            let buf = cell.alloc::<u32>(64);
            let mut received = Vec::new();
            if cell.id() == 0 {
                for (i, &len) in lens.iter().enumerate() {
                    cell.write_slice(buf, &vec![i as u32 + 1; len]);
                    cell.send(1, buf, (len * 4) as u64);
                }
            } else {
                for &len in lens.iter() {
                    let n = cell.recv(0, buf, 256).await;
                    assert_eq!(n, (len * 4) as u64);
                    received.push(cell.read_pod::<u32>(buf).await);
                }
            }
            received
        })
        .unwrap();
        let got = &r.outputs[1];
        let expect: Vec<u32> = (0..check.len()).map(|i| i as u32 + 1).collect();
        prop_assert_eq!(got, &expect);
    }

    /// Simulated time is monotone in message size: PUTting more bytes
    /// never finishes earlier.
    #[test]
    fn put_latency_monotone_in_size(sizes in proptest::collection::vec(1u64..8192, 2..6)) {
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let mut times = Vec::new();
        for &bytes in &sorted {
            let r = run(MachineConfig::new(2).with_trace(false), None, async move |cell| {
                let buf = cell.alloc_bytes(8192);
                let flag = cell.alloc_flag();
                cell.barrier();
                if cell.id() == 0 {
                    cell.put(1, buf, buf, bytes, VAddr::NULL, flag, false);
                } else {
                    cell.wait_flag(flag, 1);
                }
                cell.barrier();
            })
            .unwrap();
            times.push(r.total_time);
        }
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0], "latency decreased with size: {:?}", times);
        }
    }
}
