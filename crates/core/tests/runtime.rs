//! End-to-end tests of the machine emulator and PUT/GET runtime.

use apcore::{run, ApError, MachineConfig, ReduceOp, StrideSpec, VAddr};

fn cfg(n: u32) -> MachineConfig {
    MachineConfig::new(n)
}

#[test]
fn put_moves_real_data_between_cells() {
    let r = run(cfg(4), None, async |cell| {
        let n = cell.ncells();
        let me = cell.id();
        let buf = cell.alloc::<f64>(8);
        let inbox = cell.alloc::<f64>(8);
        let flag = cell.alloc_flag();
        let data: Vec<f64> = (0..8).map(|i| (me * 100 + i) as f64).collect();
        cell.write_slice(buf, &data);
        cell.barrier();
        cell.put((me + 1) % n, inbox, buf, 64, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
        cell.read_slice::<f64>(inbox, 8).await
    })
    .unwrap();
    for me in 0..4usize {
        let left = (me + 3) % 4;
        let expect: Vec<f64> = (0..8).map(|i| (left * 100 + i) as f64).collect();
        assert_eq!(r.outputs[me], expect, "cell {me} inbox");
    }
}

#[test]
fn get_fetches_remote_data() {
    let r = run(cfg(4), None, async |cell| {
        let me = cell.id();
        let n = cell.ncells();
        let src_buf = cell.alloc::<f64>(4);
        let dst_buf = cell.alloc::<f64>(4);
        let flag = cell.alloc_flag();
        cell.write_slice(src_buf, &[me as f64; 4]);
        cell.barrier();
        let victim = (me + 1) % n;
        cell.get(victim, src_buf, dst_buf, 32, VAddr::NULL, flag);
        cell.wait_flag(flag, 1);
        cell.read_slice::<f64>(dst_buf, 4).await
    })
    .unwrap();
    for me in 0..4usize {
        assert_eq!(r.outputs[me], vec![((me + 1) % 4) as f64; 4]);
    }
}

#[test]
fn get_send_flag_updates_on_remote_cell() {
    // Cell 0 GETs from cell 1; cell 1 observes its own send flag bump.
    let r = run(cfg(2), None, async |cell| {
        let data = cell.alloc::<f64>(1);
        let dst = cell.alloc::<f64>(1);
        let sflag = cell.alloc_flag();
        let rflag = cell.alloc_flag();
        cell.write_pod(data, 7.5f64);
        cell.barrier();
        if cell.id() == 0 {
            cell.get(1, data, dst, 8, sflag, rflag);
            cell.wait_flag(rflag, 1);
            cell.read_pod::<f64>(dst).await
        } else {
            // The serving cell sees send_flag increment when its reply left.
            cell.wait_flag(sflag, 1);
            -1.0
        }
    })
    .unwrap();
    assert_eq!(r.outputs, vec![7.5, -1.0]);
}

#[test]
fn put_stride_transposes_columns_to_rows() {
    // Classic SPREAD MOVE shape: a column of an 8x8 matrix lands as a
    // contiguous row on the destination.
    const N: usize = 8;
    let r = run(cfg(2), None, async |cell| {
        let mat = cell.alloc::<f64>(N * N);
        let row = cell.alloc::<f64>(N);
        let flag = cell.alloc_flag();
        let sflag = cell.alloc_flag();
        if cell.id() == 0 {
            let data: Vec<f64> = (0..N * N).map(|i| i as f64).collect();
            cell.write_slice(mat, &data);
            cell.barrier();
            // Send column 3: items of 8 bytes, skip one row (N*8).
            let send = StrideSpec::new(8, N as u32, (N * 8) as u32);
            let recv = StrideSpec::contiguous((N * 8) as u64);
            cell.put_stride(1, row, mat + 3 * 8, send, recv, sflag, flag, false);
            cell.wait_flag(sflag, 1);
            Vec::new()
        } else {
            cell.barrier();
            cell.wait_flag(flag, 1);
            cell.read_slice::<f64>(row, N).await
        }
    })
    .unwrap();
    let expect: Vec<f64> = (0..N).map(|r| (r * N + 3) as f64).collect();
    assert_eq!(r.outputs[1], expect);
}

#[test]
fn get_stride_reblocks_figure3_style() {
    let r = run(cfg(2), None, async |cell| {
        let src = cell.alloc::<f64>(16);
        let dst = cell.alloc::<f64>(16);
        let flag = cell.alloc_flag();
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        cell.write_slice(src, &vals);
        cell.barrier();
        if cell.id() == 0 {
            // Gather every other f64 from cell 1 (8 items), scatter locally
            // as 4 items of 2 f64s with gaps.
            let send = StrideSpec::new(8, 8, 16);
            let recv = StrideSpec::new(16, 4, 32);
            cell.get_stride(1, src, dst, send, recv, VAddr::NULL, flag);
            cell.wait_flag(flag, 1);
            cell.read_slice::<f64>(dst, 16).await
        } else {
            Vec::new()
        }
    })
    .unwrap();
    // Gathered payload: 0,2,4,6,8,10,12,14 scattered as pairs at offsets
    // 0,4,8,12 (in f64 units).
    let out = &r.outputs[0];
    assert_eq!(out[0..2], [0.0, 2.0]);
    assert_eq!(out[4..6], [4.0, 6.0]);
    assert_eq!(out[8..10], [8.0, 10.0]);
    assert_eq!(out[12..14], [12.0, 14.0]);
}

#[test]
fn flags_count_multiple_messages() {
    // 3 senders PUT to one receiver; a single flag counts to 3 (§3.2:
    // "to check arrival of multiple messages, the flag value is
    // incremented").
    let r = run(cfg(4), None, async |cell| {
        let slot = cell.alloc::<f64>(4);
        let flag = cell.alloc_flag();
        cell.barrier();
        if cell.id() != 0 {
            let me = cell.id();
            let mine = cell.alloc::<f64>(1);
            cell.write_pod(mine, me as f64);
            cell.put(
                0,
                slot + (me as u64 - 1) * 8,
                mine,
                8,
                VAddr::NULL,
                flag,
                false,
            );
            0.0
        } else {
            cell.wait_flag(flag, 3);
            cell.read_slice::<f64>(slot, 3).await.iter().sum::<f64>()
        }
    })
    .unwrap();
    assert_eq!(r.outputs[0], 6.0);
}

#[test]
fn ack_and_barrier_model_works() {
    // Every cell PUTs with ack and waits for all acks before the barrier —
    // the paper's Ack & Barrier pattern (§2.2, §4.1).
    let r = run(cfg(8), None, async |cell| {
        let me = cell.id();
        let n = cell.ncells();
        let outbox = cell.alloc::<f64>(1);
        let inbox = cell.alloc::<f64>(8);
        cell.write_pod(outbox, me as f64);
        cell.barrier();
        for k in 1..n {
            let dst = (me + k) % n;
            cell.put(
                dst,
                inbox + (me as u64) * 8,
                outbox,
                8,
                VAddr::NULL,
                VAddr::NULL,
                true,
            );
        }
        cell.wait_acks();
        cell.barrier();
        // After Ack & Barrier every inbox slot j (j != me) must hold j.
        let got = cell.read_slice::<f64>(inbox, n).await;
        (0..n).filter(|&j| j != me).all(|j| got[j] == j as f64)
    })
    .unwrap();
    assert!(r.outputs.iter().all(|&ok| ok), "some inbox incomplete");
    // The trace must classify ack probes separately.
    let stats = aptrace::AppStats::from_trace(&r.trace);
    assert_eq!(stats.ack_gets, 8 * 7);
    assert_eq!(stats.put, 8 * 7);
    assert_eq!(stats.get, 0);
}

#[test]
fn send_recv_ring_buffer() {
    let r = run(cfg(3), None, async |cell| {
        let me = cell.id();
        let n = cell.ncells();
        let buf = cell.alloc::<f64>(2);
        let inbox = cell.alloc::<f64>(2);
        cell.write_slice(buf, &[me as f64, 10.0 * me as f64]);
        // Everyone sends to the right, receives from the left.
        cell.send((me + 1) % n, buf, 16);
        let got = cell.recv((me + n - 1) % n, inbox, 16).await;
        assert_eq!(got, 16);
        cell.read_slice::<f64>(inbox, 2).await
    })
    .unwrap();
    assert_eq!(r.outputs[0], vec![2.0, 20.0]);
    assert_eq!(r.outputs[1], vec![0.0, 0.0]);
    assert_eq!(r.outputs[2], vec![1.0, 10.0]);
}

#[test]
fn recv_filters_by_source() {
    // Cell 0 receives from 2 then from 1, regardless of arrival order.
    let r = run(cfg(3), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        let inbox = cell.alloc::<f64>(1);
        match cell.id() {
            0 => {
                let mut out = Vec::new();
                cell.recv(2, inbox, 8).await;
                out.push(cell.read_pod::<f64>(inbox).await);
                cell.recv(1, inbox, 8).await;
                out.push(cell.read_pod::<f64>(inbox).await);
                out
            }
            me => {
                cell.write_pod(buf, me as f64);
                cell.send(0, buf, 8);
                Vec::new()
            }
        }
    })
    .unwrap();
    assert_eq!(r.outputs[0], vec![2.0, 1.0]);
}

#[test]
fn scalar_reduction_all_ops() {
    let r = run(cfg(16), None, async |cell| {
        let x = cell.id() as f64;
        let sum = cell.reduce_f64(x, ReduceOp::Sum).await;
        let max = cell.reduce_f64(x, ReduceOp::Max).await;
        let min = cell.reduce_f64(-x, ReduceOp::Min).await;
        (sum, max, min)
    })
    .unwrap();
    for &(s, mx, mn) in &r.outputs {
        assert_eq!(s, 120.0);
        assert_eq!(mx, 15.0);
        assert_eq!(mn, -15.0);
    }
    let stats = aptrace::AppStats::from_trace(&r.trace);
    assert_eq!(stats.gop, 3 * 16);
}

#[test]
fn scalar_reduction_non_power_of_two() {
    let r = run(cfg(7), None, async |cell| {
        cell.reduce_sum_f64(1.0 + cell.id() as f64).await
    })
    .unwrap();
    assert!(r.outputs.iter().all(|&s| s == 28.0));
}

#[test]
fn group_reduction_and_barrier() {
    // Two disjoint groups reduce independently (§2.3 group support).
    let r = run(cfg(8), None, async |cell| {
        let me = cell.id();
        let group: Vec<usize> = if me < 4 {
            (0..4).collect()
        } else {
            (4..8).collect()
        };
        cell.group_barrier(&group).await;
        cell.group_reduce_f64(&group, me as f64, ReduceOp::Sum)
            .await
    })
    .unwrap();
    for me in 0..8usize {
        let expect = if me < 4 { 6.0 } else { 22.0 };
        assert_eq!(r.outputs[me], expect, "cell {me}");
    }
}

#[test]
fn vector_reduction_ring() {
    const N: usize = 64;
    let r = run(cfg(8), None, async |cell| {
        let mut xs: Vec<f64> = (0..N).map(|i| (cell.id() * N + i) as f64).collect();
        cell.reduce_vec_sum_f64(&mut xs).await;
        xs
    })
    .unwrap();
    let mut expect = vec![0.0f64; N];
    for c in 0..8 {
        for (i, e) in expect.iter_mut().enumerate() {
            *e += (c * N + i) as f64;
        }
    }
    for out in &r.outputs {
        assert_eq!(out, &expect);
    }
    // Table-3 bookkeeping: one V Gop per cell, (P-1) sends total.
    let stats = aptrace::AppStats::from_trace(&r.trace);
    assert_eq!(stats.vgop, 8);
    assert_eq!(stats.send, 7);
}

#[test]
fn bcast_delivers_to_all() {
    let r = run(cfg(6), None, async |cell| {
        let buf = cell.alloc::<f64>(4);
        if cell.id() == 2 {
            cell.write_slice(buf, &[9.0, 8.0, 7.0, 6.0]);
        }
        cell.bcast(2, buf, 32);
        cell.read_slice::<f64>(buf, 4).await
    })
    .unwrap();
    for out in &r.outputs {
        assert_eq!(out, &vec![9.0, 8.0, 7.0, 6.0]);
    }
}

#[test]
fn dsm_remote_store_load_round_trip() {
    let r = run(cfg(4), None, async |cell| {
        let me = cell.id();
        let n = cell.ncells();
        // Everyone stores its id into neighbour's shared window, fences,
        // barriers, then loads it back from its own window... via a remote
        // load from the neighbour of the neighbour's data.
        cell.remote_store((me + 1) % n, 64, &[me as u8; 8]);
        cell.remote_fence();
        cell.barrier();
        let data = cell.remote_load((me + 1) % n, 64, 8).await;
        data[0]
    })
    .unwrap();
    // Cell i reads from cell i+1's window, which cell i stored itself.
    assert_eq!(r.outputs, vec![0, 1, 2, 3]);
}

#[test]
fn barrier_orders_phases() {
    let r = run(cfg(8), None, async |cell| {
        let me = cell.id();
        let shared = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        // Phase 1: cell 0 writes to everyone.
        if me == 0 {
            let v = cell.alloc::<f64>(1);
            cell.write_pod(v, 42.0f64);
            for dst in 0..cell.ncells() {
                if dst != 0 {
                    cell.put(dst, shared, v, 8, VAddr::NULL, flag, true);
                }
            }
            cell.wait_acks();
        }
        cell.barrier();
        if me == 0 {
            42.0
        } else {
            cell.read_pod::<f64>(shared).await
        }
    })
    .unwrap();
    assert!(r.outputs.iter().all(|&v| v == 42.0));
    assert_eq!(r.barriers, 1);
}

#[test]
fn page_fault_aborts_run() {
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        // PUT from an unmapped local address: hardware protection fires.
        cell.put(
            1,
            buf,
            VAddr::new(0x0dea_dbee_f000),
            8,
            VAddr::NULL,
            flag,
            false,
        );
        cell.wait_flag(flag, 1);
    })
    .unwrap_err();
    assert!(
        matches!(err, ApError::PageFault { .. }),
        "expected page fault, got {err}"
    );
}

#[test]
fn remote_page_fault_detected_at_receiver() {
    let err = run(cfg(2), None, async |cell| {
        if cell.id() == 0 {
            let buf = cell.alloc::<f64>(1);
            // Remote address far outside anything mapped on cell 1.
            cell.put(
                1,
                VAddr::new(0xbad0_0000_0000),
                buf,
                8,
                VAddr::NULL,
                VAddr::NULL,
                false,
            );
        }
        cell.barrier();
    })
    .unwrap_err();
    assert!(matches!(err, ApError::PageFault { .. }), "got {err}");
}

#[test]
fn zero_length_put_is_rejected() {
    let err = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        cell.put(1, buf, buf, 0, VAddr::NULL, VAddr::NULL, false);
    })
    .unwrap_err();
    // Issue-time validation rejects the empty transfer with a structured
    // error instead of panicking the cell in spec construction.
    match err {
        ApError::InvalidArg(msg) => assert!(msg.contains("zero-length"), "msg: {msg}"),
        other => panic!("expected InvalidArg, got {other}"),
    }
}

#[test]
fn deadlock_is_reported_not_hung() {
    let err = run(cfg(2), None, async |cell| {
        if cell.id() == 0 {
            let flag = cell.alloc_flag();
            cell.wait_flag(flag, 1); // nobody ever bumps it
        } else {
            let _ = cell.alloc_flag();
        }
    })
    .unwrap_err();
    match err {
        ApError::Deadlock(report) => {
            assert!(report.to_string().contains("wait_flag"), "report: {report}")
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn program_panic_becomes_cell_failed() {
    let err = run(cfg(2), None, async |cell| {
        if cell.id() == 1 {
            panic!("numerical blow-up");
        }
        cell.barrier();
    })
    .unwrap_err();
    match err {
        ApError::CellFailed { reason, .. } => {
            assert!(reason.contains("numerical blow-up"), "reason: {reason}")
        }
        other => panic!("expected CellFailed, got {other}"),
    }
}

#[test]
fn runs_are_deterministic() {
    let go = || {
        run(cfg(8), None, async |cell| {
            let mut xs: Vec<f64> = (0..32).map(|i| (cell.id() + i) as f64).collect();
            cell.reduce_vec_sum_f64(&mut xs).await;
            let s = cell.reduce_sum_f64(xs[0]).await;
            cell.barrier();
            s
        })
        .unwrap()
    };
    let a = go();
    let b = go();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.trace, b.trace);
    for (x, y) in a.times.iter().zip(&b.times) {
        assert_eq!(x, y);
    }
}

#[test]
fn queue_overflow_spills_and_still_delivers() {
    // Fire 100 PUTs back to back: the 8-deep user queue must spill to DRAM
    // and every payload must still arrive, in order.
    const SLOT: u64 = 4096; // 4 KB: DMA time >> issue time, queue fills
    let r = run(cfg(2), None, async |cell| {
        let n_msgs = 64u64;
        let inbox = cell.alloc_bytes(n_msgs * SLOT);
        let out = cell.alloc_bytes(n_msgs * SLOT);
        let flag = cell.alloc_flag();
        cell.barrier();
        if cell.id() == 0 {
            for i in 0..n_msgs {
                let src = out + i * SLOT;
                cell.write_slice(src, &[i as f64; 8]);
                cell.put(1, inbox + i * SLOT, src, SLOT, VAddr::NULL, flag, false);
            }
            cell.barrier();
            Vec::new()
        } else {
            cell.wait_flag(flag, n_msgs as u32);
            cell.barrier();
            let mut got = Vec::new();
            for i in 0..n_msgs {
                got.push(cell.read_pod::<f64>(inbox + i * SLOT).await);
            }
            got
        }
    })
    .unwrap();
    let expect: Vec<f64> = (0..64).map(|i| i as f64).collect();
    assert_eq!(r.outputs[1], expect, "spilled commands must still run FIFO");
    assert!(
        r.counters.queue_spills > 0,
        "expected user send queue to spill"
    );
}

#[test]
fn send_flag_protects_send_area() {
    // The documented-correct version of the above: waiting on send_flag
    // before reusing the buffer guarantees payload integrity.
    let r = run(cfg(2), None, async |cell| {
        let n_msgs = 40u64;
        let inbox = cell.alloc::<f64>(n_msgs as usize);
        let out = cell.alloc::<f64>(1);
        let sflag = cell.alloc_flag();
        let rflag = cell.alloc_flag();
        cell.barrier();
        if cell.id() == 0 {
            for i in 0..n_msgs {
                cell.write_pod(out, i as f64);
                cell.put(1, inbox + i * 8, out, 8, sflag, rflag, false);
                cell.wait_flag(sflag, (i + 1) as u32);
            }
            cell.barrier();
            Vec::new()
        } else {
            cell.wait_flag(rflag, n_msgs as u32);
            cell.barrier();
            cell.read_slice::<f64>(inbox, n_msgs as usize).await
        }
    })
    .unwrap();
    let expect: Vec<f64> = (0..40).map(|i| i as f64).collect();
    assert_eq!(r.outputs[1], expect);
}

#[test]
fn stride_hardware_beats_elementwise_transfers() {
    // The §5.4 TOMCATV effect in miniature: one strided PUT of 256 items
    // must be much faster than 256 single-item PUTs.
    let items = 256u32;
    let strided = run(cfg(2), None, async |cell| {
        let src = cell.alloc::<f64>(2 * 256);
        let dst = cell.alloc::<f64>(256);
        let flag = cell.alloc_flag();
        cell.barrier();
        if cell.id() == 0 {
            let send = StrideSpec::new(8, 256, 16);
            let recv = StrideSpec::contiguous(2048);
            cell.put_stride(1, dst, src, send, recv, VAddr::NULL, flag, false);
        } else {
            cell.wait_flag(flag, 1);
        }
        cell.barrier();
    })
    .unwrap();
    let elementwise = run(cfg(2), None, async |cell| {
        let src = cell.alloc::<f64>(2 * 256);
        let dst = cell.alloc::<f64>(256);
        let flag = cell.alloc_flag();
        cell.barrier();
        if cell.id() == 0 {
            for i in 0..256u64 {
                cell.put(1, dst + i * 8, src + i * 16, 8, VAddr::NULL, flag, false);
            }
        } else {
            cell.wait_flag(flag, 256);
        }
        cell.barrier();
    })
    .unwrap();
    assert!(
        elementwise.total_time.as_nanos() * 2 > 3 * strided.total_time.as_nanos(),
        "elementwise {} vs strided {}",
        elementwise.total_time,
        strided.total_time
    );
    let _ = items;
}

#[test]
fn time_accounting_buckets_are_sane() {
    let r = run(cfg(4), None, async |cell| {
        cell.work(1000);
        cell.rts(10);
        cell.barrier();

        cell.reduce_sum_f64(1.0).await
    })
    .unwrap();
    for t in &r.times {
        assert_eq!(t.exec.as_nanos() % 20, 0, "exec is whole flops");
        assert!(t.exec.as_nanos() >= 1000 * 20);
        assert!(t.rts.as_nanos() >= 10 * 500);
        assert!(
            t.finish >= t.accounted() - t.idle,
            "finish covers busy time"
        );
    }
    assert!(r.total_time > aputil::SimTime::ZERO);
}

#[test]
fn single_cell_machine_degenerates_gracefully() {
    let r = run(cfg(1), None, async |cell| {
        let mut xs = vec![1.0, 2.0];
        cell.reduce_vec_sum_f64(&mut xs).await;
        let s = cell.reduce_sum_f64(3.0).await;
        cell.barrier();
        (xs, s)
    })
    .unwrap();
    assert_eq!(r.outputs[0].0, vec![1.0, 2.0]);
    assert_eq!(r.outputs[0].1, 3.0);
}

#[test]
fn loopback_put_to_self_works() {
    let r = run(cfg(2), None, async |cell| {
        let a = cell.alloc::<f64>(1);
        let b = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        cell.write_pod(a, 5.0f64);
        cell.put(cell.id(), b, a, 8, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
        cell.read_pod::<f64>(b).await
    })
    .unwrap();
    assert_eq!(r.outputs, vec![5.0, 5.0]);
}

#[test]
fn tnet_stats_are_recorded() {
    let r = run(cfg(4), None, async |cell| {
        let a = cell.alloc::<f64>(16);
        let flag = cell.alloc_flag();
        cell.barrier();
        if cell.id() == 0 {
            cell.put(2, a, a, 128, VAddr::NULL, flag, false);
        } else if cell.id() == 2 {
            cell.wait_flag(flag, 1);
        }
        cell.barrier();
    })
    .unwrap();
    assert!(r.tnet.messages >= 1);
    assert!(r.tnet.bytes >= 128);
    let row = aptrace::AppStats::from_trace(&r.trace).to_row();
    assert!(
        (row.msg_size - 128.0).abs() < 1e-9,
        "mean PUT/GET message size"
    );
}

#[test]
fn queue_refill_interrupts_cost_time() {
    // The same spilling burst under zero vs paper OS-interrupt cost: the
    // §4.1 DRAM-reload interrupts must make the run measurably slower.
    let burst = |os_us: f64| {
        let hw = apcore::HwParams {
            os_interrupt_time: aputil::SimTime::from_micros_f64(os_us),
            ..apcore::HwParams::default()
        };
        let r = run(
            MachineConfig {
                hw,
                ..MachineConfig::new(2).with_trace(false)
            },
            None,
            async |cell| {
                let n_msgs = 64u64;
                let buf = cell.alloc_bytes(n_msgs * 4096);
                let flag = cell.alloc_flag();
                cell.barrier();
                if cell.id() == 0 {
                    for i in 0..n_msgs {
                        cell.put(
                            1,
                            buf + i * 4096,
                            buf + i * 4096,
                            4096,
                            VAddr::NULL,
                            flag,
                            false,
                        );
                    }
                } else {
                    cell.wait_flag(flag, 64);
                }
                cell.barrier();
            },
        )
        .unwrap();
        assert!(r.counters.queue_spills > 0, "burst must spill");
        r.total_time
    };
    let free = burst(0.0);
    let costly = burst(20.0);
    assert!(
        costly > free,
        "OS reload interrupts must add time: {costly} vs {free}"
    );
}

#[test]
fn ring_buffer_overflow_interrupts_os() {
    // Flood one cell's ring buffer past its capacity without receiving:
    // §4.3 says the MSC+ interrupts the OS to allocate a new buffer.
    let r = run(MachineConfig::new(2), None, async |cell| {
        let buf = cell.alloc_bytes(32 << 10);
        if cell.id() == 0 {
            for _ in 0..6 {
                cell.send(1, buf, 16 << 10); // 96 KB total into a 64 KB ring
            }
        } else {
            // Busy receiver: all six messages land in the ring before the
            // first RECEIVE drains any of them.
            cell.work(10_000_000);
            for _ in 0..6 {
                cell.recv(0, buf, 16 << 10).await;
            }
        }
        cell.barrier();
    })
    .unwrap();
    assert!(r.counters.ring_overflows >= 1, "expected a ring overflow");
}

#[test]
fn timeline_records_events_and_counters_fill_histograms() {
    let r = run(cfg(4).with_timeline(true), None, async |cell| {
        let buf = cell.alloc::<f64>(64);
        let flag = cell.alloc_flag();
        let n = cell.ncells();
        cell.work(1000);
        cell.barrier();
        cell.put((cell.id() + 1) % n, buf, buf, 512, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
    })
    .unwrap();

    assert!(
        !r.timeline.events.is_empty(),
        "timeline recording was enabled"
    );
    let names: std::collections::HashSet<&str> = r.timeline.events.iter().map(|e| e.name).collect();
    for expected in [
        "work",
        "barrier",
        "put_issue",
        "enqueue",
        "send_dma",
        "recv_dma",
    ] {
        assert!(
            names.contains(expected),
            "missing event {expected:?} in {names:?}"
        );
    }

    // Histograms are always on, independent of the timeline switch.
    assert_eq!(r.counters.msg_size.count(), 4, "one PUT per cell");
    assert!(r.counters.flag_wait.count() >= 4, "one wait_flag per cell");
    // One PUT per cell into an idle queue: four enqueues, each at depth 1.
    let occ = &r.counters.queue_occupancy;
    assert_eq!((occ.count(), occ.min(), occ.max()), (4, 1, 1));
    assert!(r.counters.hop_latency.count() > 0);
}

#[test]
fn queue_occupancy_records_every_enqueue_depth_machine_wide() {
    // Each cell issues a burst of 4 KB PUTs. The send DMA takes the first
    // at once and then needs ~50 µs per PUT, far longer than the 1 µs
    // issue, so the rest pile up behind it: depths 1, 1, 2, …, N-1 per
    // cell, merged over both cells.
    const N: u64 = 12;
    let r = run(cfg(2), None, async |cell| {
        let buf = cell.alloc_bytes(4096);
        let flag = cell.alloc_flag();
        let peer = 1 - cell.id();
        for _ in 0..N {
            cell.put(peer, buf, buf, 4096, VAddr::NULL, flag, false);
        }
        cell.wait_flag(flag, N as u32);
    })
    .unwrap();
    let occ = &r.counters.queue_occupancy;
    assert_eq!((occ.count(), occ.min(), occ.max()), (2 * N, 1, N - 1));
    assert_eq!(occ.sum(), 2 * (1 + (N - 1) * N / 2) as u128);
}

#[test]
fn timeline_off_by_default_but_histograms_still_collected() {
    let r = run(cfg(2), None, async |cell| {
        let buf = cell.alloc::<f64>(8);
        let flag = cell.alloc_flag();
        cell.put((cell.id() + 1) % 2, buf, buf, 64, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
    })
    .unwrap();
    assert!(r.timeline.events.is_empty(), "timeline must default off");
    assert_eq!(r.counters.msg_size.count(), 2);
}
