//! Distributed matrix transpose: the stride-hardware ablation in miniature.
//!
//! Run with `cargo run --release --example transpose`.
//!
//! A row-block distributed N×N matrix is transposed twice — once with one
//! `put_stride` per destination (the AP1000+ hardware path), once sending
//! every element separately (what a machine without stride support is
//! reduced to). Both produce the correct transpose; the simulated times
//! show the §5.4 TOMCATV effect: the paper reports the stride version
//! "about 50% faster" at machine scale.

use apcore::{run, MachineConfig, StrideSpec, VAddr};

const CELLS: u32 = 4;
const N: usize = 64;

fn element(i: usize, j: usize) -> f64 {
    (i * N + j) as f64
}

fn transpose(stride: bool) -> (bool, aputil::SimTime) {
    let report = run(MachineConfig::new(CELLS), None, async move |cell| {
        let me = cell.id();
        let p = cell.ncells();
        let nb = N / p; // rows per cell
        let a = cell.alloc::<f64>(nb * N); // my rows of A
        let t = cell.alloc::<f64>(nb * N); // my rows of Aᵀ
        let flag = cell.alloc_flag();

        let mine: Vec<f64> = (0..nb * N)
            .map(|k| element(me * nb + k / N, k % N))
            .collect();
        cell.write_slice(a, &mine);
        cell.barrier();

        // A[my rows][dst cols] must land at dst as T[dst rows][my cols],
        // transposed: my element (i, j) -> dst's (j - dst*nb, me*nb + i).
        for dst in 0..p {
            for i in 0..nb {
                // Row i restricted to dst's column block, sent as a
                // column of T (stride nb... of dst's T rows).
                let src = a + ((i * N + dst * nb) * 8) as u64;
                let dst_addr = t + ((me * nb + i) * 8) as u64;
                if stride {
                    let send = StrideSpec::contiguous((nb * 8) as u64);
                    let recv = StrideSpec::new(8, nb as u32, (N * 8) as u32);
                    cell.put_stride(dst, dst_addr, src, send, recv, VAddr::NULL, flag, false);
                } else {
                    for k in 0..nb {
                        cell.put(
                            dst,
                            dst_addr + (k * N * 8) as u64,
                            src + (k * 8) as u64,
                            8,
                            VAddr::NULL,
                            flag,
                            false,
                        );
                    }
                }
            }
        }
        let expected = (p * nb * if stride { 1 } else { nb }) as u32;
        cell.wait_flag(flag, expected);
        cell.barrier();

        // Verify my block of the transpose.
        let got = cell.read_slice::<f64>(t, nb * N).await;
        (0..nb * N).all(|k| got[k] == element(k % N, me * nb + k / N))
    })
    .expect("simulation failed");
    (report.outputs.iter().all(|&ok| ok), report.total_time)
}

fn main() {
    let (ok_s, t_stride) = transpose(true);
    let (ok_e, t_elem) = transpose(false);
    assert!(ok_s && ok_e, "transpose verification failed");
    println!("{N}x{N} transpose over {CELLS} cells — both verified correct");
    println!("  with stride hardware : {t_stride}");
    println!("  element by element   : {t_elem}");
    println!(
        "  stride speedup       : {:.2}x",
        t_elem.as_nanos() as f64 / t_stride.as_nanos() as f64
    );
}
