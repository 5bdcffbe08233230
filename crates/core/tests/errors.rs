//! Error-path coverage: every §3.2 protection case and protocol misuse
//! must surface as a structured error, never a hang or silent corruption.

use apcore::{run, ApError, BlockReason, CellId, MachineConfig, ReduceOp, VAddr};

fn cfg(n: u32) -> MachineConfig {
    MachineConfig::new(n)
}

#[test]
fn put_to_nonexistent_cell_is_rejected() {
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        cell.put(7, buf, buf, 8, VAddr::NULL, VAddr::NULL, false);
    })
    .unwrap_err();
    assert!(matches!(err, ApError::NoSuchCell { .. }), "got {err}");
}

#[test]
fn get_from_nonexistent_cell_is_rejected() {
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        cell.get(9, buf, buf, 8, VAddr::NULL, flag);
    })
    .unwrap_err();
    assert!(matches!(err, ApError::NoSuchCell { .. }), "got {err}");
}

#[test]
fn mismatched_put_strides_are_rejected() {
    use apcore::StrideSpec;
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(64);
        cell.put_stride(
            1,
            buf,
            buf,
            StrideSpec::new(8, 4, 16), // 32 bytes
            StrideSpec::new(8, 5, 16), // 40 bytes
            VAddr::NULL,
            VAddr::NULL,
            false,
        );
    })
    .unwrap_err();
    match err {
        ApError::InvalidArg(msg) => assert!(msg.contains("bytes"), "msg: {msg}"),
        other => panic!("expected InvalidArg, got {other}"),
    }
}

#[test]
fn oversized_dma_is_rejected() {
    use apcore::StrideSpec;
    // The contiguous `put` API chunks transparently (next test), but an
    // explicit stride spec beyond the 4 MB single-DMA maximum of §4.1
    // must still be rejected.
    let err = run(cfg(2).with_mem_size(32 << 20), None, async |cell| {
        let buf = cell.alloc_bytes(8 << 20);
        cell.put_stride(
            1,
            buf,
            buf,
            StrideSpec::new(1 << 20, 8, 1 << 20),
            StrideSpec::new(1 << 20, 8, 1 << 20),
            VAddr::NULL,
            VAddr::NULL,
            false,
        );
    })
    .unwrap_err();
    match err {
        ApError::InvalidArg(msg) => assert!(msg.contains("4 MB"), "msg: {msg}"),
        other => panic!("expected InvalidArg, got {other}"),
    }
}

#[test]
fn large_put_chunks_at_dma_limit() {
    // A 9 MB contiguous put splits into 4 + 4 + 1 MB chunks; the in-order
    // T-net delivers them in sequence, the recv flag rides the last chunk
    // and bumps exactly once, and every byte lands intact.
    const BYTES: u64 = 9 << 20;
    let r = run(cfg(2).with_mem_size(32 << 20), None, async |cell| {
        let buf = cell.alloc_bytes(BYTES);
        let flag = cell.alloc_flag();
        let words = (BYTES / 8) as usize;
        if cell.id() == 0 {
            let data: Vec<u64> = (0..words as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            cell.write_slice(buf, &data);
            cell.put(1, buf, buf, BYTES, VAddr::NULL, flag, false);
            cell.barrier();
            0u64
        } else {
            cell.wait_flag(flag, 1);
            let got: Vec<u64> = cell.read_slice(buf, words).await;
            let ok = got
                .iter()
                .enumerate()
                .all(|(i, &w)| w == (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let flag_val = cell.read_flag(flag).await as u64;
            cell.barrier();
            u64::from(ok) | (flag_val << 1)
        }
    })
    .unwrap();
    assert_eq!(r.outputs[1] & 1, 1, "payload corrupted across chunks");
    assert_eq!(r.outputs[1] >> 1, 1, "recv flag must bump exactly once");
    let puts: usize = r
        .trace
        .pe(CellId::new(0))
        .ops
        .iter()
        .filter(|op| matches!(op, aptrace::Op::Put { .. }))
        .count();
    assert_eq!(puts, 3, "9 MB should issue as three DMA chunks");
}

#[test]
fn zero_byte_get_is_rejected() {
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        cell.get(1, buf, buf, 0, VAddr::NULL, VAddr::NULL);
    })
    .unwrap_err();
    match err {
        ApError::InvalidArg(msg) => assert!(msg.contains("zero-length"), "msg: {msg}"),
        other => panic!("expected InvalidArg, got {other}"),
    }
}

#[test]
fn wait_on_unmapped_flag_faults() {
    let err = run(cfg(2), None, async |cell| {
        cell.wait_flag(VAddr::new(0xeeee_0000), 1);
    })
    .unwrap_err();
    assert!(matches!(err, ApError::PageFault { .. }), "got {err}");
}

#[test]
fn reduction_protocol_violation_is_detected() {
    // Two cells run *different* reductions concurrently: their register
    // stores collide on a set p-bit, which the kernel reports instead of
    // corrupting values.
    let err = run(cfg(4), None, async |cell| {
        if cell.id() < 2 {
            let group = vec![0, 1];
            cell.group_reduce_f64(&group, 1.0, ReduceOp::Sum).await;
        } else {
            // Overlapping group using the same register slots, racing the
            // other group's protocol on cells 0/1... simulate misuse by
            // storing directly into a busy register.
            cell.reg_store(0, 0, 7);
            cell.reg_store(0, 0, 8); // second store before any load
        }
    })
    .unwrap_err();
    match err {
        ApError::InvalidArg(msg) => {
            assert!(
                msg.contains("p-bit") || msg.contains("register"),
                "msg: {msg}"
            )
        }
        // Depending on interleaving the reduction may also deadlock after
        // the stray value is consumed; both are structured failures.
        ApError::Deadlock(_) | ApError::CellFailed { .. } => {}
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn group_member_missing_panics_cleanly() {
    let err = run(cfg(4), None, async |cell| {
        if cell.id() == 3 {
            // Not a member of the group it joins.
            cell.group_barrier(&[0, 1, 2]).await;
        }
    })
    .unwrap_err();
    match err {
        ApError::CellFailed { reason, .. } => {
            assert!(reason.contains("member"), "reason: {reason}")
        }
        // The other cells may be reported first as deadlocked.
        ApError::Deadlock(_) => {}
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn recv_truncates_to_max() {
    let r = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(16);
        if cell.id() == 0 {
            cell.write_slice(buf, &[1.0f64; 16]);
            cell.send(1, buf, 128);
            0
        } else {
            // Only accept 40 of the 128 bytes.
            cell.recv(0, buf, 40).await
        }
    })
    .unwrap();
    assert_eq!(r.outputs[1], 40);
}

#[test]
fn allocation_exhaustion_is_reported() {
    let err = run(cfg(1).with_mem_size(1 << 20), None, async |cell| loop {
        let _ = cell.alloc_bytes(1 << 19);
    })
    .unwrap_err();
    match err {
        ApError::InvalidArg(msg) => assert!(msg.contains("allocate"), "msg: {msg}"),
        other => panic!("expected allocation failure, got {other}"),
    }
}

#[test]
fn deadlock_report_carries_per_cell_diagnostics() {
    // Cell 0 waits forever on a flag nobody bumps; cell 1 blocks in a
    // barrier cell 0 never reaches. The report must name both cells with
    // their precise block reasons.
    let err = run(cfg(2), None, async |cell| {
        if cell.id() == 0 {
            let flag = cell.alloc_flag();
            cell.wait_flag(flag, 3);
        } else {
            cell.barrier();
        }
    })
    .unwrap_err();
    let report = match err {
        ApError::Deadlock(report) => report,
        other => panic!("expected Deadlock, got {other}"),
    };
    assert_eq!(report.total_cells, 2);
    assert_eq!(report.finished_cells, 0);
    assert_eq!(report.blocked.len(), 2);

    let c0 = report
        .blocked
        .iter()
        .find(|b| b.cell == CellId::new(0))
        .expect("cell 0 in report");
    match c0.reason {
        BlockReason::FlagWait {
            current, target, ..
        } => {
            assert_eq!(current, 0, "flag was never bumped");
            assert_eq!(target, 3);
        }
        ref other => panic!("cell 0 should block on a flag, got {other}"),
    }
    assert!(c0.pending_tx.is_empty(), "cell 0 issued no transfers");

    let c1 = report
        .blocked
        .iter()
        .find(|b| b.cell == CellId::new(1))
        .expect("cell 1 in report");
    assert!(
        matches!(c1.reason, BlockReason::Barrier),
        "cell 1 should block in the barrier, got {}",
        c1.reason
    );

    // The rendered form names the flag wait for log-grepping users.
    let text = report.to_string();
    assert!(text.contains("wait_flag"), "report text: {text}");
    assert!(text.contains("barrier"), "report text: {text}");
}

#[test]
fn deadlock_report_lists_pending_queue_contents() {
    // Cell 0 PUTs to cell 1 and then waits on an ack flag that can never
    // be bumped because the wait target exceeds the number of transfers.
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(8);
        let flag = cell.alloc_flag();
        if cell.id() == 0 {
            cell.put(1, buf, buf, 64, flag, VAddr::NULL, false);
            cell.wait_flag(flag, 2); // only one PUT was issued
        } else {
            cell.wait_flag(flag, 1); // nobody PUTs to cell 1's flag
        }
    })
    .unwrap_err();
    let report = match err {
        ApError::Deadlock(report) => report,
        other => panic!("expected Deadlock, got {other}"),
    };
    let c0 = report
        .blocked
        .iter()
        .find(|b| b.cell == CellId::new(0))
        .expect("cell 0 blocked");
    match c0.reason {
        BlockReason::FlagWait {
            current, target, ..
        } => {
            assert_eq!(current, 1, "send-side ack arrived");
            assert_eq!(target, 2);
        }
        ref other => panic!("cell 0 should block on the ack flag, got {other}"),
    }
}

#[test]
fn bcast_size_mismatch_is_detected() {
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(4);
        if cell.id() == 0 {
            cell.bcast(0, buf, 32);
        } else {
            cell.bcast(0, buf, 16);
        }
    })
    .unwrap_err();
    match err {
        ApError::InvalidArg(msg) => assert!(msg.contains("bcast"), "msg: {msg}"),
        other => panic!("expected InvalidArg, got {other}"),
    }
}
