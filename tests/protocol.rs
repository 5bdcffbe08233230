//! Conformance pin of the cell↔kernel protocol (DESIGN.md §10).
//!
//! There is one protocol — run-to-block — so nothing is left to hold it
//! against at run time. What it is held against instead is the *serial
//! baton* of thread-per-cell days: every constant below was captured at
//! the last commit where that protocol still existed (fault-free shapes
//! from `Engine::Serial`, fault-armed shapes from the entry point that
//! chose the baton whenever a schedule was armed), or — the allocation
//! and ping-pong shapes — at the last thread-per-cell commit. The mix and
//! the three failure shapes are the ones the former in-crate
//! `engine_equivalence` differential ran.
//!
//! If an *intentional* timing-model change moves these, update the
//! constants in the same commit and say why.

use apcore::{
    run, run_with, ApError, Cell, CellId, FaultEvent, FaultKind, FaultSpec, MachineConfig,
    RecoveryParams, RunReport, SimTime, StrideSpec, VAddr,
};
use aputil::hash::fnv1a_64;
use std::cell::Cell as HostCell;

fn cfg(cells: u32) -> MachineConfig {
    MachineConfig::new(cells).with_timeline(true)
}

/// A synthetic SPMD mix touching every request family: flagged PUT/GET
/// with an ack probe, stride, the SEND ring with a halo receive,
/// barriers, reductions and DSM remote store/fence/load. Per-cell work
/// is skewed so wakes interleave.
async fn mix(cell: &mut Cell) -> f64 {
    let (me, n) = (cell.id(), cell.ncells());
    let (left, right) = ((me + n - 1) % n, (me + 1) % n);
    let buf = cell.alloc::<f64>(16);
    let inbox = cell.alloc::<f64>(16);
    let got = cell.alloc::<f64>(16);
    let (put_flag, get_flag) = (cell.alloc_flag(), cell.alloc_flag());
    let data: Vec<f64> = (0..16).map(|i| (me * 16 + i) as f64).collect();
    cell.write_slice(buf, &data);
    cell.work(100 + 37 * me as u64);
    cell.barrier();

    cell.put(right, inbox, buf, 128, VAddr::NULL, put_flag, true);
    cell.wait_flag(put_flag, 1);
    cell.wait_acks();
    cell.get(left, buf, got, 128, VAddr::NULL, get_flag);
    cell.wait_flag(get_flag, 1);
    cell.put_stride(
        right,
        inbox,
        buf,
        StrideSpec::new(8, 4, 16),
        StrideSpec::contiguous(32),
        VAddr::NULL,
        put_flag,
        false,
    );
    cell.wait_flag(put_flag, 2);
    cell.barrier();

    cell.send(right, buf, 64);
    let (len, halo) = cell.recv_slice::<f64>(left, inbox, 128, 8).await;
    cell.work(50 * (n - me) as u64);
    let sum = cell.reduce_sum_f64(halo[0] + len as f64).await;
    let max = cell.reduce_max_f64(me as f64).await;

    cell.remote_store(right, 64, &[me as u8; 8]);
    cell.remote_fence();
    cell.barrier();
    let loaded = cell.remote_load(right, 64, 8).await;
    sum + max + f64::from(loaded[0]) + cell.read_pod::<f64>(got).await
}

/// What a completed run of the mix is pinned by: final simulated time
/// and FNV-1a-64 of the counters, the op trace and the timeline.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    total_ns: u64,
    counters: u64,
    ops: u64,
    timeline: u64,
}

fn digest(r: &RunReport<f64>) -> Digest {
    Digest {
        total_ns: r.total_time.as_nanos(),
        counters: fnv1a_64(r.counters.to_json().to_string().as_bytes()),
        ops: fnv1a_64(r.trace.to_json_string().as_bytes()),
        timeline: fnv1a_64(format!("{:?}", r.timeline.events).as_bytes()),
    }
}

/// Cell 0 closes the ring, so its output stands apart; the others step
/// by 17 (16 from the halo value, 1 from the remote-loaded id byte).
fn mix_outputs(cells: u32) -> Vec<f64> {
    let (first, second) = match cells {
        1 => (64.0, 0.0),
        2 => (161.0, 146.0),
        16 => (3199.0, 2960.0),
        64 => (37423.0, 36416.0),
        _ => unreachable!("no pin for {cells} cells"),
    };
    (0..cells)
        .map(|i| match i {
            0 => first,
            _ => second + 17.0 * f64::from(i - 1),
        })
        .collect()
}

const MIX_16: Digest = Digest {
    total_ns: 138_492,
    counters: 0x52e9_4b87_4bac_eff7,
    ops: 0x641f_1ccb_d60d_4e73,
    timeline: 0xc03a_6d07_0c84_d9f7,
};

const MIX: [(u32, Digest); 4] = [
    (
        1,
        Digest {
            total_ns: 29_532,
            counters: 0xd8d3_5002_2124_2361,
            ops: 0x195e_5831_e0c5_53ef,
            timeline: 0xc39f_d4c5_7301_3fed,
        },
    ),
    (
        2,
        Digest {
            total_ns: 74_072,
            counters: 0x06eb_5145_cb5b_286a,
            ops: 0xfaa3_f646_1a6b_812a,
            timeline: 0xff18_db00_b980_2297,
        },
    ),
    (16, MIX_16),
    (
        64,
        Digest {
            total_ns: 248_732,
            counters: 0x3069_6c4a_ba60_7fa0,
            ops: 0xbe49_92ba_59b6_c8bb,
            timeline: 0x0f77_8a87_c04a_9d19,
        },
    ),
];

/// On the 16-cell mix, cell 5's wake out of the first S-net barrier. It
/// resumes nothing: the posted PUT behind it dispatches at its commit.
const BARRIER_RELEASE_NS: u64 = 14_100;
/// On the 16-cell mix, cell 5's wake carrying the halo RECEIVE's length:
/// scheduled 1480 ns (the copy-out) ahead of its commit, and the program
/// is suspended on it.
const RECV_WAKE_NS: u64 = 59_408;

#[test]
fn mix_matches_the_serial_reference_pin() {
    for (cells, want) in MIX {
        let r = run(cfg(cells), None, mix).expect("mix");
        assert_eq!(r.outputs, mix_outputs(cells), "{cells} cells");
        assert_eq!(digest(&r), want, "{cells} cells");
        if cells == 16 {
            // The anchors the fault-armed shapes below aim their crashes at.
            let end_of = |name: &str| {
                let mut spans = r.timeline.events.iter();
                let first = spans.find(|e| e.cell == 5 && e.name == name);
                first.expect("cell 5 has the span").end().as_nanos()
            };
            assert_eq!(end_of("barrier"), BARRIER_RELEASE_NS);
            assert_eq!(end_of("recv_copy"), RECV_WAKE_NS);
        }
    }
}

/// The second pinned program: the event paths neither `mix` nor the nine
/// app recordings reach. A B-net broadcast from a non-zero root with
/// skewed arrivals; a `remote_fence` with nothing to wait for; an
/// immediate and a blocked `reg_load`; twelve
/// back-to-back 1 KB PUTs, which overflow the 8-entry user send queue
/// (`spill`, then `queue_refill`); a blocked and then an immediate
/// `wait_flag` (`flag_check`) around the GET ack probe; and three blocking
/// SENDs (`send_wait`) into a 256-byte receive ring whose owner is either
/// already blocked in RECEIVE (`recv_wait`) or still computing
/// (`ring_overflow`).
async fn edges(cell: &mut Cell) -> f64 {
    let (me, n) = (cell.id(), cell.ncells());
    let (left, right) = ((me + n - 1) % n, (me + 1) % n);
    let buf = cell.alloc::<f64>(128);
    let inbox = cell.alloc::<f64>(128);
    let put_flag = cell.alloc_flag();
    let data: Vec<f64> = (0..128).map(|i| (me * 128 + i) as f64).collect();
    cell.write_slice(buf, &data);

    cell.work(20 * me as u64);
    cell.rts(1 + me as u64);
    cell.remote_fence();
    cell.bcast(1 % n, buf, 64);

    cell.reg_store(me, 40, me as u32 + 1);
    let own = cell.reg_load(40).await;
    cell.work(200 * (n - me) as u64);
    cell.reg_store(right, 41, 7 * me as u32);
    let theirs = cell.reg_load(41).await;

    for k in 0..12 {
        cell.put(right, inbox, buf, 1024, VAddr::NULL, put_flag, k == 11);
    }
    cell.wait_flag(put_flag, 12);
    cell.wait_acks();
    cell.wait_flag(put_flag, 12);
    let seen = cell.read_flag(put_flag).await;
    cell.barrier();

    for _ in 0..3 {
        cell.send(right, buf, 128);
    }
    cell.work(5000 * (me % 2) as u64);
    let mut received = 0;
    for _ in 0..3 {
        received += cell.recv(left, inbox, 128).await;
    }
    let landed = cell.read_pod::<f64>(inbox + 8).await;
    f64::from(own + theirs + seen) + received as f64 + landed + cell.read_pod::<f64>(buf).await
}

/// `cfg` with a receive ring three 128-byte messages overflow.
fn edges_cfg(cells: u32) -> MachineConfig {
    let hw = apcore::HwParams {
        ring_capacity: 256,
        ..Default::default()
    };
    cfg(cells).with_hw(hw)
}

/// (cells, FNV-1a-64 of the outputs' `Debug`, fault-free digest, digest
/// under `FaultSpec::quiet()`), captured at `d00720b` — the last commit
/// whose kernel was one file with a 463-line `dispatch`.
const EDGES: [(u32, u64, Digest, Digest); 3] = [
    (
        4,
        0x24a4_9f61_5ad6_5700,
        Digest {
            total_ns: 376_752,
            counters: 0x5966_653c_9ce3_b653,
            ops: 0xf885_7d78_3003_a806,
            timeline: 0xb253_00b1_af26_0f37,
        },
        Digest {
            total_ns: 376_752,
            counters: 0xd6e3_f2cf_0a7d_e9ec,
            ops: 0xf885_7d78_3003_a806,
            timeline: 0x5a6e_650f_0b56_9db9,
        },
    ),
    (
        7,
        0xf425_c73e_54c3_bc68,
        Digest {
            total_ns: 391_132,
            counters: 0x72bc_d041_eac2_acf6,
            ops: 0x062a_0988_d088_64d1,
            timeline: 0x83b5_3d0a_840e_d567,
        },
        Digest {
            total_ns: 391_132,
            counters: 0xb7aa_93b3_f8b4_8a99,
            ops: 0x062a_0988_d088_64d1,
            timeline: 0xfcf9_7d1f_a3c7_2fb3,
        },
    ),
    (
        16,
        0xb1b4_740d_aa8b_5f89,
        Digest {
            total_ns: 435_232,
            counters: 0xf093_bea8_899f_e1eb,
            ops: 0x52db_766b_c949_268b,
            timeline: 0xe3f1_cf09_33d9_262e,
        },
        Digest {
            total_ns: 435_232,
            counters: 0xb803_aa86_c35f_313e,
            ops: 0x52db_766b_c949_268b,
            timeline: 0x59b1_2c36_632b_7391,
        },
    ),
];

#[test]
fn edges_match_the_single_file_kernel_pin() {
    for (cells, outputs, plain, quiet) in EDGES {
        for (spec, want) in [(None, plain), (Some(FaultSpec::quiet()), quiet)] {
            let r = run(edges_cfg(cells), spec.as_ref(), edges).expect("edges");
            let what = format!("{cells} cells, faults armed: {}", spec.is_some());
            let got = fnv1a_64(format!("{:?}", r.outputs).as_bytes());
            assert_eq!(got, outputs, "{what}: {:?}", r.outputs);
            assert_eq!(digest(&r), want, "{what}");
            // The program is only a referee while it reaches these paths.
            for name in [
                "bcast",
                "reg_load",
                "reg_load_wait",
                "spill",
                "queue_refill",
                "wait_flag",
                "flag_check",
                "send_wait",
                "recv_wait",
                "ring_overflow",
            ] {
                let hit = r.timeline.events.iter().any(|e| e.name == name);
                assert!(hit, "{what}: no {name:?} event");
            }
            assert!(r.counters.queue_spills > 0 && r.counters.queue_refills > 0);
            assert!(r.counters.ring_overflows > 0, "{what}");
        }
    }
}

/// MLSim's side of the same referee: the op trace `edges` records,
/// replayed with the timeline on under the paper's three models. One
/// FNV-1a-64 per (cells, model) over the total, the per-PE buckets, the
/// counters and the timeline — captured at `d00720b` like [`EDGES`].
const EDGES_REPLAYED: [(u32, [u64; 3]); 3] = [
    (
        4,
        [
            0x78b8_e7e8_8fc9_8c89,
            0x29fe_a820_f0db_8cb1,
            0x4a59_5875_5351_51f5,
        ],
    ),
    (
        7,
        [
            0xea3a_83d3_d46e_e6d9,
            0xdabf_77a8_1c63_b73d,
            0xc13d_e3af_9552_ecd0,
        ],
    ),
    (
        16,
        [
            0xb5be_a337_fe4a_ff8d,
            0x2fec_e5cb_989c_d899,
            0xa132_a58a_f2d0_1090,
        ],
    ),
];

#[test]
fn edges_replay_matches_the_single_function_mlsim_pin() {
    use mlsim::ModelParams;
    for (cells, want) in EDGES_REPLAYED {
        let trace = run(edges_cfg(cells), None, edges).expect("edges").trace;
        let models = [
            ModelParams::ap1000(),
            ModelParams::ap1000_star(),
            ModelParams::ap1000_plus(),
        ];
        let got = models.map(|model| {
            let r = mlsim::replay_observed(&trace, &model, true).expect("replay");
            let counters = r.counters.to_json().to_string();
            let buckets = r.per_pe.iter();
            let buckets: Vec<_> = buckets
                .map(|b| [b.exec, b.rts, b.overhead, b.idle, b.finish])
                .collect();
            let all = format!("{:?}{buckets:?}{counters}{:?}", r.total, r.timeline.events);
            fnv1a_64(all.as_bytes())
        });
        assert_eq!(got, want, "{cells} cells: {got:#x?}");
    }
}

/// Cell 0's flag wait can never be satisfied (one PUT, target 2); the
/// rest block on a flag nobody bumps or in a barrier cell 0 never joins.
fn deadlock(cell: &mut Cell) {
    let buf = cell.alloc::<f64>(8);
    let flag = cell.alloc_flag();
    match cell.id() {
        0 => {
            cell.put(1, buf, buf, 64, flag, VAddr::NULL, false);
            cell.wait_flag(flag, 2);
        }
        1 => cell.wait_flag(flag, 1),
        _ => cell.barrier(),
    }
}

/// Cell 1 dies between two barriers the others complete and enter.
fn panicking(cell: &mut Cell) {
    cell.work(10 * cell.id() as u64);
    cell.barrier();
    if cell.id() == 1 {
        panic!("cell 1 gives up");
    }
    cell.barrier();
}

/// Collective misuse the kernel rejects: the cells disagree on the
/// broadcast size.
fn bcast_mismatch(cell: &mut Cell) {
    let buf = cell.alloc::<f64>(4);
    cell.work(5 * cell.id() as u64);
    cell.bcast(0, buf, if cell.id() == 0 { 32 } else { 16 });
}

#[test]
fn failure_shapes_match_the_serial_reference_pin() {
    type Program = fn(&mut Cell);
    const DEADLOCK_2: &str = "simulation deadlock: 2 of 2 cells never finished at 7.696µs \
        [cell0: wait_flag(v:0x12000 = 1, want 2) since 1.000µs, \
        cell1: wait_flag(v:0x12000 = 0, want 1) since 0ns]";
    let deadlock_16 = format!(
        "simulation deadlock: 16 of 16 cells never finished at 7.696µs \
         [cell0: wait_flag(v:0x12000 = 1, want 2) since 1.000µs, \
         cell1: wait_flag(v:0x12000 = 0, want 1) since 0ns{}]",
        (2..16)
            .map(|i| format!(", cell{i}: barrier since 0ns"))
            .collect::<String>()
    );
    const PANIC: &str = "cell1 failed: cell 1 gives up";
    const BCAST: &str = "invalid argument: mismatched bcast: cell1 gave root cell0/16B, \
        collective started with root cell0/32B";
    let shapes: [(Program, u32, &str); 6] = [
        (deadlock, 2, DEADLOCK_2),
        (deadlock, 16, &deadlock_16),
        (panicking, 2, PANIC),
        (panicking, 16, PANIC),
        (bcast_mismatch, 2, BCAST),
        (bcast_mismatch, 16, BCAST),
    ];
    for (program, cells, want) in shapes {
        let err = run_with(cfg(cells), program).expect_err(want);
        assert_eq!(err.to_string(), want, "{cells} cells");
    }
}

fn ns(t: u64) -> SimTime {
    SimTime::from_nanos(t)
}

/// Fail-stop crash of `cell` at `at` ns.
fn crash(cell: u32, at: u64) -> FaultSpec {
    FaultSpec {
        seed: Some(7),
        recovery: RecoveryParams::default(),
        events: vec![FaultEvent {
            from: ns(at),
            until: ns(at),
            kind: FaultKind::Crash {
                cell: CellId::new(cell),
            },
        }],
    }
}

/// Link 0 → 1 (same torus row, so the Y-then-X detour is the primary
/// route) down for the whole run, against a two-retry budget.
fn outage() -> FaultSpec {
    FaultSpec {
        seed: None,
        recovery: RecoveryParams {
            ack_timeout: ns(100_000),
            backoff_cap: ns(200_000),
            max_retries: 2,
        },
        events: vec![FaultEvent {
            from: ns(0),
            until: ns(1_000_000_000),
            kind: FaultKind::LinkDown {
                from: CellId::new(0),
                to: CellId::new(1),
            },
        }],
    }
}

#[test]
fn quiet_schedule_matches_the_serial_reference_pin() {
    // Arming the fault layer wraps every packet in an acknowledged
    // envelope, so the tail of the run (acks draining) and the hardware
    // timeline move; what the programs did and computed does not.
    const QUIET: Digest = Digest {
        total_ns: 140_252,
        counters: 0xfdbe_003e_b220_cfed,
        ops: MIX_16.ops,
        timeline: 0x5ba8_014f_a03a_821e,
    };
    const REPORT: &str = "fault report\n  seed: none (explicit spec)\n  outcome: survived\n  \
        injected (0):\n  retries (0 total):\n  \
        drops: 0  corrupt: 0  dups: 0  detours: 0  acks: 296\n";
    for _ in 0..2 {
        let r = run(cfg(16), Some(&FaultSpec::quiet()), mix).expect("quiet");
        assert_eq!(r.outputs, mix_outputs(16));
        assert_eq!(digest(&r), QUIET);
        assert_eq!(r.fault.expect("report").render(), REPORT);
    }
}

#[test]
fn unsurvivable_schedules_match_the_serial_reference_pin() {
    const AT_SECOND_BARRIER: &str =
        "barrier aborted at 48.752µs: dead participants [cell5], waiting [cell2]";
    const REGSTORE_LOST: &str = "fault injection: aborted under faults: 1 injected, 32 retries, \
        0 drops, 1 crashed (RegStore cell12->cell5 undeliverable after 9 attempts at 22.083ms)";
    const PARKED: &str = "barrier aborted at 6.000µs: dead participants [cell0], \
        waiting [cell1, cell2, cell3, cell4, cell5]";
    const PUT_LOST: &str = "fault injection: aborted under faults: 1 injected, 4 retries, \
        6 drops, 0 crashed (PutData cell0->cell1 undeliverable after 3 attempts at 517.136µs)";
    // (schedule, the error's Display, FNV-1a-64 of the rendered report
    // behind an `ApError::Fault`)
    let shapes: [(FaultSpec, &str, Option<u64>); 9] = [
        // Just before, exactly at and just after the barrier-release wake.
        (crash(5, BARRIER_RELEASE_NS - 1), AT_SECOND_BARRIER, None),
        (crash(5, BARRIER_RELEASE_NS), AT_SECOND_BARRIER, None),
        (crash(5, BARRIER_RELEASE_NS + 1), AT_SECOND_BARRIER, None),
        // Mid-batch, between the two posted PUTs.
        (crash(5, 30_000), AT_SECOND_BARRIER, None),
        // Just before, exactly at and just after the early-released
        // RECEIVE wake.
        (
            crash(5, RECV_WAKE_NS - 1),
            REGSTORE_LOST,
            Some(0xa5cb_14da_6f36_78fc),
        ),
        (
            crash(5, RECV_WAKE_NS),
            REGSTORE_LOST,
            Some(0x409c_7227_8c9a_6612),
        ),
        (
            crash(5, RECV_WAKE_NS + 1),
            REGSTORE_LOST,
            Some(0xabc0_031b_df32_f504),
        ),
        // A cell parked at the S-net barrier.
        (crash(0, 6_000), PARKED, None),
        // A link outage outlasting the retry budget.
        (outage(), PUT_LOST, Some(0xfa72_439a_5771_31d9)),
    ];
    for (spec, display, report) in shapes {
        let what = apfault::to_ron(&spec);
        let abort = || run(cfg(16), Some(&spec), mix).expect_err(&what);
        let (first, second) = (abort(), abort());
        assert_eq!(first, second, "two runs disagree under {what}");
        assert_eq!(first.to_string(), display, "{what}");
        let rendered = match &first {
            ApError::Fault(report) => Some(report.render()),
            _ => None,
        };
        let fnv = rendered.as_ref().map(|r| fnv1a_64(r.as_bytes()));
        assert_eq!(fnv, report, "{what}: {rendered:?}");
    }
}

/// A RECEIVE's wake is scheduled one copy-out ahead of its commit; a
/// crash of that cell in between cancels the wake, and the program must
/// then never see the response — host-visible state a dead cell's program
/// touches stops where its simulated life did. Nothing guards this: a
/// response reaches a program only at its wake's commit, and a cancelled
/// wake never commits.
#[test]
fn a_wake_cancelled_by_a_crash_is_never_observed() {
    let ring_run = |spec: &FaultSpec| {
        let received = HostCell::new(0u32);
        let r = run(cfg(4), Some(spec), async |cell| {
            let (me, n) = (cell.id(), cell.ncells());
            let buf = cell.alloc::<f64>(8);
            cell.send((me + 1) % n, buf, 64);
            cell.recv((me + n - 1) % n, buf, 64).await;
            received.set(received.get() | 1 << me);
            cell.barrier();
        });
        (r, received.get())
    };
    let (quiet, received) = ring_run(&FaultSpec::quiet());
    assert_eq!(received, 0b1111);
    let quiet = quiet.expect("quiet");
    let copy_out = quiet.timeline.events.iter();
    let wake = copy_out
        .filter(|e| e.cell == 1 && e.name == "recv_copy")
        .map(|e| e.end().as_nanos())
        .next()
        .expect("cell 1 copies its message out");
    for (at, cell1_received) in [(wake - 1, false), (wake, false), (wake + 1, true)] {
        for _ in 0..2 {
            let (r, received) = ring_run(&crash(1, at));
            r.expect_err("cell 1 crashed");
            assert_eq!(received & 0b10 != 0, cell1_received, "crash at {at} ns");
        }
    }
}

/// The same argument swept: crash cell 5 of the 16-cell mix one
/// nanosecond before, exactly at and one after every instant its
/// timeline shows — every wake of the cell commits at one of them. Each
/// run ends the same way twice: a structured abort, or (once the crash
/// lands after the program's end and is skipped) the fault-free outputs.
#[test]
fn a_crash_at_any_wake_of_a_cell_aborts_the_same_way_twice() {
    let quiet = run(cfg(16), Some(&FaultSpec::quiet()), mix).expect("quiet");
    let mut instants: Vec<u64> = quiet
        .timeline
        .events
        .iter()
        .filter(|e| e.cell == 5)
        .flat_map(|e| [e.start.as_nanos(), e.end().as_nanos()])
        .flat_map(|t| [t.saturating_sub(1), t, t + 1])
        .collect();
    instants.sort_unstable();
    instants.dedup();
    assert!(
        instants.len() > 100,
        "cell 5 has {} instants",
        instants.len()
    );
    let (mut aborted, mut survived) = (0, 0);
    for at in instants {
        let spec = crash(5, at);
        let outcome = || match run(cfg(16), Some(&spec), mix) {
            Ok(r) => Ok((r.outputs, r.total_time)),
            Err(e @ (ApError::Fault(_) | ApError::BarrierAborted { .. })) => Err(e),
            Err(e) => panic!("crash at {at} ns: unstructured abort {e}"),
        };
        let (first, second) = (outcome(), outcome());
        assert_eq!(first, second, "two runs disagree on a crash at {at} ns");
        match first {
            Ok((outputs, _)) => {
                assert_eq!(outputs, mix_outputs(16), "crash at {at} ns");
                survived += 1;
            }
            Err(_) => aborted += 1,
        }
    }
    assert!(
        aborted > 100 && survived > 0,
        "{aborted} aborted, {survived} survived"
    );
}

/// `alloc` picks its address on the host, ahead of simulated time, but an
/// exhausted allocation is still raised where the program's simulated
/// clock stands when it allocates: cell 0 runs out of its 1 MB at
/// 20.140 µs, and cell 1's own error lands 20 ns before, exactly at (it
/// was scheduled first) or 20 ns after that.
#[test]
fn allocation_exhaustion_is_raised_at_its_simulated_time() {
    const NO_CELL: &str = "no such cell cell9 (machine has 2 cells)";
    const NO_MEMORY: &str = "invalid argument: cell0 cannot allocate 1048576 bytes";
    for (other_work, want) in [(1006, NO_CELL), (1007, NO_CELL), (1008, NO_MEMORY)] {
        let err = run_with(MachineConfig::new(2).with_mem_size(1 << 20), move |cell| {
            if cell.id() == 0 {
                cell.work(1000);
                cell.alloc_bytes(1 << 19);
                cell.work(7);
                cell.alloc_bytes(1 << 20);
            } else {
                cell.work(other_work);
                cell.put(
                    9,
                    VAddr::NULL,
                    VAddr::NULL,
                    8,
                    VAddr::NULL,
                    VAddr::NULL,
                    false,
                );
            }
        })
        .expect_err(want);
        assert_eq!(err.to_string(), want, "cell 1 works {other_work} flops");
    }
    let err = run_with(MachineConfig::new(1), |cell| cell.alloc_bytes(0)).expect_err("empty");
    assert_eq!(
        err.to_string(),
        "invalid argument: cell0 cannot allocate 0 bytes"
    );
}

/// The shape the frozen benchmark's `apcore.put_roundtrip_us` probe runs:
/// a synchronous closure that only posts, through the `run_with` adapter.
#[test]
fn a_posting_only_program_through_run_with_matches_the_threaded_pin() {
    let trips = 100u32;
    let r = run_with(MachineConfig::new(2).with_trace(false), move |cell| {
        let buf = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        cell.barrier();
        let me = cell.id();
        for i in 1..=trips {
            if me == 0 {
                cell.put(1, buf, buf, 8, VAddr::NULL, flag, false);
                cell.wait_flag(flag, i);
            } else {
                cell.wait_flag(flag, i);
                cell.put(0, buf, buf, 8, VAddr::NULL, flag, false);
            }
        }
    })
    .expect("ping-pong");
    assert_eq!(r.total_time.as_nanos(), 863_400);
    assert_eq!(r.tnet.messages, 200);
    let counters = r.counters.to_json().to_string();
    assert_eq!(fnv1a_64(counters.as_bytes()), 0xaf22_ab89_c041_cd29);
}
