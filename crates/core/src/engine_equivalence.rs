//! Differential test of the two cell↔kernel protocols (DESIGN.md §10):
//! the serial baton is the reference, windowed delivery must reproduce
//! every simulated time, timeline event, trace op and structured error.

use crate::kernel::Engine;
use crate::{run_on, ApError, ApResult, Cell, MachineConfig, RunReport, StrideSpec, VAddr};

fn run<T: Send + 'static>(
    engine: Engine,
    cells: u32,
    program: fn(&mut Cell) -> T,
) -> ApResult<RunReport<T>> {
    run_on(
        engine,
        MachineConfig::new(cells).with_timeline(true),
        None,
        program,
    )
}

/// A synthetic SPMD mix touching every request family: flagged PUT/GET
/// with an ack probe, stride, the SEND ring with a pipelined halo
/// receive, barriers, reductions (pipelined register loads) and DSM
/// remote store/fence/load. Per-cell work is skewed so wakes interleave.
fn mix(cell: &mut Cell) -> f64 {
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
    let (len, halo) = cell.recv_slice::<f64>(left, inbox, 128, 8);
    cell.work(50 * (n - me) as u64);
    let sum = cell.reduce_sum_f64(halo[0] + len as f64);
    let max = cell.reduce_max_f64(me as f64);

    cell.remote_store(right, 64, &[me as u8; 8]);
    cell.remote_fence();
    cell.barrier();
    let loaded = cell.remote_load(right, 64, 8);
    sum + max + f64::from(loaded[0]) + cell.read_pod::<f64>(got)
}

#[test]
fn engine_equivalence_on_the_spmd_mix() {
    for cells in [1, 2, 16, 64] {
        let serial = run(Engine::Serial, cells, mix).expect("serial mix");
        let windowed = run(Engine::Windowed, cells, mix).expect("windowed mix");
        assert!(!serial.timeline.events.is_empty() && serial.trace.total_ops() > 0);
        assert_eq!(windowed.outputs, serial.outputs, "{cells} cells");
        assert_eq!(windowed.total_time, serial.total_time, "{cells} cells");
        assert_eq!(windowed.times, serial.times, "{cells} cells");
        assert_eq!(windowed.barriers, serial.barriers, "{cells} cells");
        assert_eq!(windowed.tnet, serial.tnet, "{cells} cells");
        assert_eq!(windowed.counters, serial.counters, "{cells} cells");
        assert!(windowed.trace == serial.trace, "{cells} cells: op trace");
        assert!(
            windowed.timeline == serial.timeline,
            "{cells} cells: timeline"
        );
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
fn engine_equivalence_on_failure_shapes() {
    type Program = fn(&mut Cell);
    let shapes: [(&str, Program); 3] = [
        ("deadlock", deadlock),
        ("panic", panicking),
        ("bcast", bcast_mismatch),
    ];
    for (name, program) in shapes {
        for cells in [2, 16] {
            let serial = run(Engine::Serial, cells, program).expect_err(name);
            let windowed = run(Engine::Windowed, cells, program).expect_err(name);
            assert_eq!(windowed, serial, "{name} at {cells} cells");
            match (name, &serial) {
                ("deadlock", ApError::Deadlock(r)) => {
                    assert_eq!(r.blocked.len(), cells as usize)
                }
                ("panic", ApError::CellFailed { .. } | ApError::Deadlock(_)) => {}
                ("bcast", ApError::InvalidArg(_)) => {}
                _ => panic!("{name}: unexpected error shape {serial}"),
            }
        }
    }
}
