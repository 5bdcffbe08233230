//! MatMul — dense matrix multiplication in "C with PUT/GET".
//!
//! §5.2: *"MatMul calculates A × B = C. The matrix to be calculated is a
//! dense 800 × 800 matrix."* A and B are row-block distributed; the B
//! block rotates around a ring. Each of the P steps multiplies the
//! resident block and PUTs it onward into the *other* half of a double
//! buffer **before** computing — the §5.4 remark that "the two C language
//! applications use PUT/GET directly and overlap communication with
//! computation". One PUT and one barrier per step reproduce Table 3's
//! 64 PUTs / 64 Syncs of 76 800-byte messages.

use crate::{Scale, Workload};
use apcore::{run, ApResult, FaultSpec, MachineConfig, RunReport, VAddr};

/// MatMul instance: `n × n` over `pe` cells (`pe` divides `n`).
#[derive(Clone, Copy, Debug)]
pub struct MatMul {
    /// Number of cells (64 in the paper).
    pub pe: u32,
    /// Matrix order (800 in the paper).
    pub n: usize,
}

impl MatMul {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => MatMul { pe: 4, n: 32 },
            Scale::Paper => MatMul { pe: 64, n: 768 },
        }
    }

    /// Deterministic matrix entries.
    fn a_at(i: usize, j: usize) -> f64 {
        (((i * 37 + j * 11) % 199) as f64 / 199.0) - 0.5
    }

    fn b_at(i: usize, j: usize) -> f64 {
        (((i * 13 + j * 29) % 211) as f64 / 211.0) - 0.5
    }
}

impl Workload for MatMul {
    fn name(&self) -> &'static str {
        "MatMul"
    }

    fn pe(&self) -> u32 {
        self.pe
    }

    fn is_vpp(&self) -> bool {
        false
    }

    fn run_on(
        &self,
        machine: MachineConfig,
        faults: Option<&FaultSpec>,
    ) -> ApResult<RunReport<()>> {
        crate::admit(self, &machine, faults)?;
        crate::must_divide(self, "n", self.n)?;
        let cfg = *self;
        run(machine, None, async |cell| {
            let me = cell.id();
            let p = cell.ncells();
            let n = cfg.n;
            let nb = n / p; // rows per cell
            let block = nb * n; // f64s per block
                                // Double-buffered B block in simulated memory.
            let b0 = cell.alloc::<f64>(block);
            let b1 = cell.alloc::<f64>(block);
            let flag = cell.alloc_flag();
            let bufs = [b0, b1];

            // Local A rows [me*nb, (me+1)*nb) and initial B block (host
            // mirrors for compute; B travels through simulated memory).
            let a: Vec<f64> = (0..block)
                .map(|k| MatMul::a_at(me * nb + k / n, k % n))
                .collect();
            let binit: Vec<f64> = (0..block)
                .map(|k| MatMul::b_at(me * nb + k / n, k % n))
                .collect();
            cell.write_slice(b0, &binit);
            let mut c = vec![0.0f64; block];
            cell.barrier();

            for s in 0..p {
                let cur = bufs[s % 2];
                let nxt = bufs[(s + 1) % 2];
                // Whose B block is resident this step?
                let owner = (me + s) % p;
                // Ship it onward first — communication overlaps compute.
                if s + 1 < p {
                    let dst = (me + p - 1) % p;
                    cell.put(dst, nxt, cur, (block * 8) as u64, VAddr::NULL, flag, false);
                }
                // Multiply: C[my rows] += A[:, owner block] × B_owner.
                let bcur = cell.read_slice::<f64>(cur, block).await;
                for i in 0..nb {
                    for k in 0..nb {
                        let aik = a[i * n + owner * nb + k];
                        let brow = &bcur[k * n..(k + 1) * n];
                        for (cv, bv) in c[i * n..(i + 1) * n].iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
                cell.work((2 * nb * nb * n) as u64);
                if s + 1 < p {
                    cell.wait_flag(flag, (s + 1) as u32);
                }
                cell.barrier();
            }

            // Verification: every entry against the closed-form dot
            // product (entries are deterministic functions, so the full
            // check is O(nb·n·n) — same order as one multiply step).
            for i in 0..nb {
                let gi = me * nb + i;
                for j in (0..n).step_by((n / 16).max(1)) {
                    let mut want = 0.0f64;
                    for k in 0..n {
                        want += MatMul::a_at(gi, k) * MatMul::b_at(k, j);
                    }
                    let got = c[i * n + j];
                    let rel = (got - want).abs() / want.abs().max(1e-9);
                    assert!(
                        rel < 1e-9,
                        "cell {me}: C[{gi}][{j}] = {got} vs {want} (rel {rel:e})"
                    );
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptrace::AppStats;

    #[test]
    fn matmul_verifies_with_table3_shape() {
        let cfg = MatMul::new(Scale::Test);
        let report = cfg.run().unwrap();
        let row = AppStats::from_trace(&report.trace).to_row();
        // P-1 PUTs and P+1 barriers per PE (init + per step).
        let p = cfg.pe as usize;
        assert_eq!(row.put, (p - 1) as f64);
        assert_eq!(row.sync, (p + 1) as f64);
        assert_eq!(row.gop + row.vgop, 0.0, "C app: no global ops");
        // Message = one row block.
        let block_bytes = (cfg.n / p * cfg.n * 8) as f64;
        assert_eq!(row.msg_size, block_bytes);
        // No acknowledge GETs: C apps synchronize with flags.
        let stats = AppStats::from_trace(&report.trace);
        assert_eq!(stats.ack_gets, 0);
    }

    #[test]
    fn single_cell_matmul() {
        MatMul { pe: 1, n: 16 }.run().unwrap();
    }
}
