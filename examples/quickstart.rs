//! Quickstart: the PUT/GET interface in one page.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Four cells pass real data through the emulated AP1000+: a ring-shift
//! PUT with completion flags, a GET, a hardware barrier, and a scalar
//! global reduction over the communication registers — the §3.1 interface
//! end to end.

use apcore::{run, MachineConfig, VAddr};

fn main() {
    let report = run(MachineConfig::new(4), None, async |cell| {
        let me = cell.id();
        let n = cell.ncells();

        // Every cell allocates the same logical addresses (SPMD lockstep),
        // so "my buffer" names the same place on every cell.
        let outbox = cell.alloc::<f64>(1);
        let inbox = cell.alloc::<f64>(1);
        let fetched = cell.alloc::<f64>(1);
        let recv_flag = cell.alloc_flag();
        let get_flag = cell.alloc_flag();

        cell.write_pod(outbox, 100.0 + me as f64);
        cell.barrier();

        // One-sided write to my right neighbour; its recv_flag increments
        // when the receive DMA lands the data (§4.1).
        cell.put(
            (me + 1) % n,
            inbox,
            outbox,
            8,
            VAddr::NULL,
            recv_flag,
            false,
        );
        cell.wait_flag(recv_flag, 1);
        let from_left = cell.read_pod::<f64>(inbox).await;

        // One-sided read from my left neighbour.
        cell.get((me + n - 1) % n, outbox, fetched, 8, VAddr::NULL, get_flag);
        cell.wait_flag(get_flag, 1);
        let also_from_left = cell.read_pod::<f64>(fetched).await;
        assert_eq!(from_left, also_from_left);

        // Scalar global sum on the communication registers (§4.4/§4.5).
        let total = cell.reduce_sum_f64(from_left).await;
        (from_left, total)
    })
    .expect("simulation failed");

    println!("cell outputs (value received, global sum):");
    for (i, (v, total)) in report.outputs.iter().enumerate() {
        println!("  cell{i}: received {v}, sum {total}");
    }
    println!(
        "simulated time: {} | T-net messages: {} | barriers: {}",
        report.total_time, report.tnet.messages, report.barriers
    );
    let t = &report.times[0];
    println!(
        "cell0 breakdown: exec {} rts {} overhead {} idle {}",
        t.exec, t.rts, t.overhead, t.idle
    );
}
