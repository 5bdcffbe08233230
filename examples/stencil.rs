//! A 1-D heat-diffusion stencil with PUT halo exchange.
//!
//! Run with `cargo run --release --example stencil`.
//!
//! Classic domain decomposition in the paper's style: each cell owns a
//! band of a rod, pushes its boundary temperatures into the neighbours'
//! halo slots with one-sided PUTs, waits on its receive flag, and relaxes.
//! The distributed result is checked against a sequential solver, and the
//! run's time breakdown is printed — watch idle time fall as the
//! computation grows relative to communication.

use apcore::{run, MachineConfig, VAddr};

const CELLS: u32 = 8;
const POINTS: usize = 1024; // rod discretization
const STEPS: usize = 200;
const ALPHA: f64 = 0.25;

fn sequential() -> Vec<f64> {
    let mut t: Vec<f64> = (0..POINTS).map(init).collect();
    for _ in 0..STEPS {
        let old = t.clone();
        for i in 1..POINTS - 1 {
            t[i] = old[i] + ALPHA * (old[i - 1] - 2.0 * old[i] + old[i + 1]);
        }
    }
    t
}

fn init(i: usize) -> f64 {
    if i > POINTS / 4 && i < POINTS / 3 {
        100.0
    } else {
        0.0
    }
}

fn main() {
    let reference = sequential();
    let golden = reference.clone();
    let report = run(MachineConfig::new(CELLS), None, async move |cell| {
        let me = cell.id();
        let p = cell.ncells();
        let nb = POINTS / p;
        let lo = me * nb;
        // Simulated halo slots + outgoing staging.
        let halo_left = cell.alloc::<f64>(1); // neighbour's rightmost point
        let halo_right = cell.alloc::<f64>(1); // neighbour's leftmost point
        let stage = cell.alloc::<f64>(1);
        let flag = cell.alloc_flag();
        let mut seen = 0u32;

        let mut t: Vec<f64> = (lo..lo + nb).map(init).collect();
        cell.barrier();

        for _ in 0..STEPS {
            let mut incoming = 0u32;
            // Push my edge temperatures into the neighbours' halos.
            if me > 0 {
                cell.write_pod(stage, t[0]);
                cell.put(me - 1, halo_right, stage, 8, VAddr::NULL, flag, false);
                incoming += 1; // left neighbour pushes back symmetrically
            }
            if me + 1 < p {
                cell.write_pod(stage, t[nb - 1]);
                cell.put(me + 1, halo_left, stage, 8, VAddr::NULL, flag, false);
                incoming += 1;
            }
            seen += incoming;
            cell.wait_flag(flag, seen);
            let left = if me > 0 {
                cell.read_pod::<f64>(halo_left).await
            } else {
                0.0
            };
            let right = if me + 1 < p {
                cell.read_pod::<f64>(halo_right).await
            } else {
                0.0
            };

            let old = t.clone();
            for i in 0..nb {
                let gi = lo + i;
                if gi == 0 || gi == POINTS - 1 {
                    continue; // fixed boundary
                }
                let l = if i == 0 { left } else { old[i - 1] };
                let r = if i == nb - 1 { right } else { old[i + 1] };
                t[i] = old[i] + ALPHA * (l - 2.0 * old[i] + r);
            }
            cell.work(4 * nb as u64);
            cell.barrier();
        }

        // Verify my band against the sequential run.
        for (i, &v) in t.iter().enumerate() {
            let want = golden[lo + i];
            assert!((v - want).abs() < 1e-9, "point {} diverged", lo + i);
        }
        t.iter().sum::<f64>()
    })
    .expect("simulation failed");

    let total_heat: f64 = report.outputs.iter().sum();
    let want: f64 = reference.iter().sum();
    println!("distributed heat {total_heat:.6} vs sequential {want:.6} ✓");
    println!("simulated time: {}", report.total_time);
    for (i, t) in report.times.iter().enumerate() {
        println!(
            "  cell{i}: exec {:>10} overhead {:>10} idle {:>10}",
            t.exec.to_string(),
            t.overhead.to_string(),
            t.idle.to_string()
        );
    }
}
