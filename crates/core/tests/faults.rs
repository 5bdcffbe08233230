//! Kernel-level fault injection and recovery: drop/retry/detour on link
//! outages, checksum-detected corruption, duplicate suppression when acks
//! are lost, fail-stop crashes, and byte-reproducible fault reports.

use apcore::{
    run, ApError, CellId, FaultEvent, FaultKind, FaultSpec, MachineConfig, RecoveryParams, SimTime,
    VAddr,
};

fn c(i: u32) -> CellId {
    CellId::new(i)
}

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

fn spec(events: Vec<FaultEvent>) -> FaultSpec {
    FaultSpec {
        seed: Some(7),
        recovery: RecoveryParams::default(),
        events,
    }
}

/// Ring shift on 4 cells (a 2x2 torus): each cell PUTs its id to its right
/// neighbour and waits on the receive flag, then reports (value, flag).
fn ring_shift(faults: Option<&FaultSpec>) -> apcore::RunReport<(f64, u32)> {
    run(MachineConfig::new(4), faults, async |cell| {
        let buf = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        let me = cell.id();
        let n = cell.ncells();
        cell.write_pod(buf, me as f64);
        cell.barrier();
        cell.put((me + 1) % n, buf, buf, 8, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
        (cell.read_pod::<f64>(buf).await, cell.read_flag(flag).await)
    })
    .expect("survivable schedule must complete")
}

#[test]
fn quiet_schedule_preserves_results_and_reports_nothing() {
    let baseline = run(MachineConfig::new(4), None, async |cell| {
        let buf = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        let me = cell.id();
        let n = cell.ncells();
        cell.write_pod(buf, me as f64);
        cell.barrier();
        cell.put((me + 1) % n, buf, buf, 8, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
        (cell.read_pod::<f64>(buf).await, cell.read_flag(flag).await)
    })
    .unwrap();
    assert!(baseline.fault.is_none(), "fault-free runs carry no report");

    let r = ring_shift(Some(&FaultSpec::quiet()));
    assert_eq!(r.outputs, baseline.outputs);
    let report = r.fault.expect("faulted run carries a report");
    assert!(report.survived());
    assert_eq!(report.total_retries(), 0);
    assert_eq!(report.drops, 0);
    assert_eq!(r.counters.retries, 0);
    assert!(r.counters.acks > 0, "every envelope is acknowledged");
}

#[test]
fn link_outage_is_survived_via_retry_and_detour() {
    // On the 2x2 torus, cell1 -> cell2 routes X-first through link 1->0.
    // Taking that link down forces: discovery drop, ack-timeout retry,
    // then the Y-then-X detour (1->3->2), which is link-disjoint.
    let s = spec(vec![FaultEvent {
        from: t(0),
        until: t(10_000_000),
        kind: FaultKind::LinkDown {
            from: c(1),
            to: c(0),
        },
    }]);
    let r = ring_shift(Some(&s));
    assert_eq!(
        r.outputs,
        vec![(3.0, 1), (0.0, 1), (1.0, 1), (2.0, 1)],
        "every cell holds its left neighbour's value, each flag bumped once"
    );
    let report = r.fault.expect("report");
    assert!(report.survived());
    assert!(report.drops >= 1, "discovery drop recorded");
    assert!(report.total_retries() >= 1, "timeout retry recorded");
    assert!(report.detours >= 1, "known outage rerouted Y-then-X");
    assert_eq!(r.counters.retries, report.total_retries());
    assert_eq!(r.counters.detours, report.detours);
}

#[test]
fn corrupted_packet_is_detected_and_retried() {
    let s = spec(vec![FaultEvent {
        from: t(0),
        until: t(10_000_000),
        kind: FaultKind::Corrupt {
            src: c(0),
            dst: c(1),
            count: 1,
        },
    }]);
    let r = ring_shift(Some(&s));
    assert_eq!(r.outputs[1], (0.0, 1), "cell1 still receives cell0's value");
    let report = r.fault.expect("report");
    assert!(report.survived());
    assert_eq!(report.corrupt_detected, 1, "checksum caught the flip");
    assert!(report.total_retries() >= 1, "unacked envelope was resent");
}

#[test]
fn lost_ack_triggers_replay_which_is_suppressed() {
    // The PutData 0 -> 1 travels link 0->1; its ack returns over 1->0.
    // Downing 1->0 early drops the ack: the sender retries the PUT, the
    // receiver suppresses the duplicate (flag must NOT reach 2) and
    // re-acks once the window closes.
    let s = spec(vec![FaultEvent {
        from: t(0),
        until: t(500_000),
        kind: FaultKind::LinkDown {
            from: c(1),
            to: c(0),
        },
    }]);
    let r = ring_shift(Some(&s));
    assert_eq!(
        r.outputs[1],
        (0.0, 1),
        "idempotent replay: one scatter, one flag bump"
    );
    let report = r.fault.expect("report");
    assert!(report.survived());
    assert!(report.dup_suppressed >= 1, "duplicate PUT was deduplicated");
    assert_eq!(r.counters.dup_suppressed, report.dup_suppressed);
}

#[test]
fn identical_spec_reproduces_the_report_byte_for_byte() {
    let s = spec(vec![
        FaultEvent {
            from: t(0),
            until: t(500_000),
            kind: FaultKind::LinkDown {
                from: c(1),
                to: c(0),
            },
        },
        FaultEvent {
            from: t(0),
            until: t(10_000_000),
            kind: FaultKind::Corrupt {
                src: c(2),
                dst: c(3),
                count: 1,
            },
        },
    ]);
    let a = ring_shift(Some(&s));
    let b = ring_shift(Some(&s));
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(
        a.fault.unwrap().render(),
        b.fault.unwrap().render(),
        "same seed, same schedule, same bytes"
    );
}

#[test]
fn crash_without_collectives_degrades_gracefully() {
    // Cells compute independently; cell2 dies mid-work. The survivors
    // finish, and the run reports the crash structurally.
    let s = spec(vec![FaultEvent {
        from: t(100_000),
        until: t(100_000),
        kind: FaultKind::Crash { cell: c(2) },
    }]);
    let err = run(MachineConfig::new(4), Some(&s), async |cell| {
        cell.work(50_000); // 1 ms: the crash lands inside
        cell.id()
    })
    .expect_err("a crashed cell cannot finish");
    match err {
        ApError::Fault(report) => {
            assert!(!report.survived());
            assert_eq!(report.crashed, vec![(c(2), t(100_000))]);
            assert!(report.cause.contains("crashed fail-stop"));
        }
        other => panic!("expected ApError::Fault, got {other}"),
    }
}

#[test]
fn barrier_with_dead_participant_aborts_eagerly() {
    let s = spec(vec![FaultEvent {
        from: t(100_000),
        until: t(100_000),
        kind: FaultKind::Crash { cell: c(1) },
    }]);
    let err = run(MachineConfig::new(4), Some(&s), async |cell| {
        cell.work(50_000); // crash fires while everyone computes
        cell.barrier();
        cell.id()
    })
    .expect_err("barrier cannot release over a dead cell");
    match err {
        ApError::BarrierAborted { dead, .. } => {
            assert_eq!(dead, vec![c(1)], "the dead participant is named");
        }
        other => panic!("expected BarrierAborted, got {other}"),
    }
}

#[test]
fn outage_outlasting_the_retry_budget_aborts_structurally() {
    // Tight retry budget + an outage covering both the primary route and
    // the whole run: the transfer is undeliverable and the run must abort
    // with a structured delivery failure, not hang.
    let s = FaultSpec {
        seed: None,
        recovery: RecoveryParams {
            ack_timeout: t(100_000),
            backoff_cap: t(200_000),
            max_retries: 2,
        },
        // Same-row link on the 2x2 torus: 0 -> 1 has no Y component, so
        // the Y-then-X detour degenerates to the primary route and every
        // retry is dropped until the budget runs out.
        events: vec![FaultEvent {
            from: t(0),
            until: t(1_000_000_000),
            kind: FaultKind::LinkDown {
                from: c(0),
                to: c(1),
            },
        }],
    };
    let err = run(MachineConfig::new(4), Some(&s), async |cell| {
        let buf = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        let me = cell.id();
        let n = cell.ncells();
        cell.barrier();
        cell.put((me + 1) % n, buf, buf, 8, VAddr::NULL, flag, false);
        cell.wait_flag(flag, 1);
    })
    .expect_err("undeliverable transfer must abort");
    match err {
        ApError::Fault(report) => {
            assert_eq!(report.failures.len(), 1);
            let f = &report.failures[0];
            assert_eq!((f.src, f.dst), (c(0), c(1)));
            assert_eq!(f.attempts, 3, "first send + max_retries");
            assert!(report.cause.contains("undeliverable"));
        }
        other => panic!("expected ApError::Fault, got {other}"),
    }
}
