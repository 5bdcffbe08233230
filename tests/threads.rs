//! A machine is one host thread however many cells it has (DESIGN.md
//! §10). This binary holds one test so that nothing else in the process
//! starts or ends a thread while it samples.

#![cfg(target_os = "linux")]

use apcore::{run, MachineConfig};

/// The `Threads:` line of `/proc/self/status`.
fn host_threads() -> u32 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line").trim().parse().expect("count")
}

#[test]
fn a_1024_cell_run_holds_the_process_thread_count_constant() {
    let before = host_threads();
    // Each program samples as it starts and again out of the reduction,
    // which none leaves before all 1024 have entered it.
    let r = run(MachineConfig::new(1024), None, async |cell| {
        let first = host_threads();
        cell.reduce_sum_f64(1.0).await;
        (first, host_threads())
    })
    .expect("run");
    for (cell, &(first, last)) in r.outputs.iter().enumerate() {
        assert_eq!((first, last), (before, before), "sampled by cell {cell}");
    }
}
