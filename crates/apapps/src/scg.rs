//! SCG — scaled conjugate gradient in "C with PUT/GET".
//!
//! §5.2: *"SCG solves Poisson's differential equation using the scaled
//! conjugate gradient method in which the coefficient matrix is scaled by
//! diagonal elements. The matrix to be solved is a sparse 40000 × 40000
//! matrix"* — the 5-point operator of a 200×200 grid, whose rows are
//! band-partitioned. Each iteration's matvec needs one halo row from each
//! neighbour: the row going **up** travels by PUT (flag-synchronized),
//! the row going **down** by SEND/RECEIVE — reproducing Table 3's
//! striking SCG row where SENDs ≈ PUTs (878.1 each) with 1600-byte
//! messages (200 × 8), two scalar Gops per iteration, and a single
//! barrier in the whole run.

use crate::util::sparse::Csr;
use crate::{Scale, Workload};
use apcore::{run, ApResult, FaultSpec, MachineConfig, RunReport, VAddr};

/// SCG instance: Poisson on a `gx × gy` grid over `pe` cells.
#[derive(Clone, Copy, Debug)]
pub struct Scg {
    /// Number of cells (64 in the paper).
    pub pe: u32,
    /// Grid width (200 in the paper).
    pub gx: usize,
    /// Grid height (200 in the paper).
    pub gy: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on `‖r‖`.
    pub tol: f64,
}

impl Scg {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Scg {
                pe: 4,
                gx: 24,
                gy: 24,
                max_iters: 200,
                tol: 1e-8,
            },
            Scale::Paper => Scg {
                pe: 64,
                gx: 200,
                gy: 200,
                max_iters: 450,
                tol: 1e-8,
            },
        }
    }

    /// Sequential reference: identical diagonally-scaled CG. Returns
    /// `(x, iterations, final ‖r‖²)`.
    pub fn reference(&self) -> (Vec<f64>, usize, f64) {
        let a = Csr::poisson_5pt(self.gx, self.gy);
        let n = a.n;
        let b = vec![1.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut r = b;
        let mut z: Vec<f64> = r.iter().map(|v| v / 4.0).collect();
        let mut p = z.clone();
        let mut q = vec![0.0f64; n];
        let mut rho: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let mut iters = 0;
        let mut rr: f64 = r.iter().map(|v| v * v).sum();
        while iters < self.max_iters && rr.sqrt() > self.tol {
            a.matvec(&p, &mut q);
            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let alpha = rho / pq;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            for i in 0..n {
                z[i] = r[i] / 4.0;
            }
            let rho_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            rr = rho_new * 4.0; // r·z = r·r/4 for constant scaling
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
            iters += 1;
        }
        (x, iters, rr)
    }
}

impl Workload for Scg {
    fn name(&self) -> &'static str {
        "SCG"
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
        let cfg = *self;
        let (ref_x, ref_iters, _) = cfg.reference();
        run(machine, None, async |cell| {
            let me = cell.id();
            let p = cell.ncells();
            let (gx, gy) = (cfg.gx, cfg.gy);
            // Band of grid rows.
            let chunk = gy.div_ceil(p);
            let ylo = (me * chunk).min(gy);
            let yhi = ((me + 1) * chunk).min(gy);
            let nrows = yhi - ylo;
            let nloc = nrows * gx;
            let has_up = ylo > 0 && nrows > 0;
            let has_dn = yhi < gy && nrows > 0;

            // Simulated halo rows: `halo_top` mirrors the last row of the
            // band above (arrives by SEND), `halo_bot` the first row of
            // the band below (arrives by PUT).
            let halo_top = cell.alloc::<f64>(gx);
            let halo_bot = cell.alloc::<f64>(gx);
            let out_row = cell.alloc::<f64>(gx);
            let put_flag = cell.alloc_flag();
            let mut puts_seen = 0u32;

            // Local p (search direction) with room for both halos:
            // index 0..gx = top halo, gx.. = owned rows, tail = bottom halo.
            let mut pv = vec![0.0f64; nloc];
            let (mut x, mut r): (Vec<f64>, Vec<f64>) = (vec![0.0; nloc], vec![1.0; nloc]);
            let mut z: Vec<f64> = r.iter().map(|v| v / 4.0).collect();
            pv.copy_from_slice(&z);
            let mut q = vec![0.0f64; nloc];

            let local_dot =
                |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
            let mut rho = cell.reduce_sum_f64(local_dot(&r, &z)).await;
            let mut rr = cell.reduce_sum_f64(local_dot(&r, &r)).await;
            let mut iters = 0usize;

            while iters < cfg.max_iters && rr.sqrt() > cfg.tol {
                // ---- halo exchange for pv --------------------------------
                // Up: PUT my first row into the upper neighbour's bottom halo.
                if has_up {
                    cell.write_slice(out_row, &pv[0..gx]);
                    cell.put(
                        me - 1,
                        halo_bot,
                        out_row,
                        (gx * 8) as u64,
                        VAddr::NULL,
                        put_flag,
                        false,
                    );
                }
                // Down: SEND my last row to the lower neighbour.
                if has_dn {
                    cell.write_slice(out_row, &pv[(nrows - 1) * gx..]);
                    cell.send(me + 1, out_row, (gx * 8) as u64);
                }
                let top = if has_up {
                    cell.recv_slice::<f64>(me - 1, halo_top, (gx * 8) as u64, gx)
                        .await
                        .1
                } else {
                    vec![0.0; gx]
                };
                let bot = if has_dn {
                    puts_seen += 1;
                    cell.wait_flag(put_flag, puts_seen);
                    cell.read_slice::<f64>(halo_bot, gx).await
                } else {
                    vec![0.0; gx]
                };

                // ---- q = A p on my band ----------------------------------
                for yy in 0..nrows {
                    for xx in 0..gx {
                        let i = yy * gx + xx;
                        let mut s = 4.0 * pv[i];
                        if xx > 0 {
                            s -= pv[i - 1];
                        }
                        if xx + 1 < gx {
                            s -= pv[i + 1];
                        }
                        if yy > 0 {
                            s -= pv[i - gx];
                        } else if has_up {
                            s -= top[xx];
                        }
                        if yy + 1 < nrows {
                            s -= pv[i + gx];
                        } else if has_dn {
                            s -= bot[xx];
                        }
                        q[i] = s;
                    }
                }
                cell.work(10 * nloc as u64);

                // ---- scalar reductions & updates -------------------------
                let pq = cell.reduce_sum_f64(local_dot(&pv, &q)).await;
                let alpha = rho / pq;
                for i in 0..nloc {
                    x[i] += alpha * pv[i];
                    r[i] -= alpha * q[i];
                    z[i] = r[i] / 4.0;
                }
                cell.work(5 * nloc as u64);
                let rho_new = cell.reduce_sum_f64(local_dot(&r, &z)).await;
                rr = rho_new * 4.0;
                let beta = rho_new / rho;
                rho = rho_new;
                for i in 0..nloc {
                    pv[i] = z[i] + beta * pv[i];
                }
                cell.work(2 * nloc as u64);
                iters += 1;
            }
            // The single barrier of Table 3's SCG row.
            cell.barrier();

            // ---- verification ----------------------------------------
            assert_eq!(iters, ref_iters, "cell {me}: iteration count diverged");
            assert!(rr.sqrt() <= cfg.tol || iters == cfg.max_iters);
            for yy in 0..nrows {
                for xx in 0..gx {
                    let got = x[yy * gx + xx];
                    let want = ref_x[(ylo + yy) * gx + xx];
                    assert!(
                        (got - want).abs() < 1e-6 * want.abs().max(1.0),
                        "cell {me}: x({xx},{}) = {got} vs {want}",
                        ylo + yy
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
    fn scg_verifies_with_table3_shape() {
        let cfg = Scg::new(Scale::Test);
        let report = cfg.run().unwrap();
        let row = AppStats::from_trace(&report.trace).to_row();
        let stats = AppStats::from_trace(&report.trace);
        // SENDs ≈ PUTs (both are (P-1)/P per iteration on average).
        assert!(
            (row.send - row.put).abs() < 1e-9,
            "send {} vs put {}",
            row.send,
            row.put
        );
        assert!(row.put > 0.0);
        // Exactly one barrier in the whole run.
        assert_eq!(row.sync, 1.0);
        // Message size = one grid row.
        assert_eq!(row.msg_size, (cfg.gx * 8) as f64);
        // ~2 Gops per iteration (plus the 2 initial ones).
        assert!(row.gop > 2.0);
        assert_eq!(stats.ack_gets, 0, "C app: flag sync, no acks");
    }

    #[test]
    fn reference_converges() {
        let cfg = Scg::new(Scale::Test);
        let (x, iters, rr) = cfg.reference();
        assert!(iters < cfg.max_iters, "did not converge in {iters}");
        assert!(rr.sqrt() <= cfg.tol * 4.0);
        // Check A x = 1 directly.
        let a = Csr::poisson_5pt(cfg.gx, cfg.gy);
        let mut ax = vec![0.0; a.n];
        a.matvec(&x, &mut ax);
        for v in &ax {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }
}
