//! Sparse matrices for CG and SCG.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Compressed-sparse-row symmetric positive-definite matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    /// Matrix order.
    pub n: usize,
    /// Row pointers (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices.
    pub cols: Vec<usize>,
    /// Values.
    pub vals: Vec<f64>,
}

impl Csr {
    /// `y = A x` (dense vectors).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths don't match `n`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, out) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.vals[k] * x[self.cols[k]];
            }
            *out = s;
        }
    }

    /// Deterministic random sparse SPD matrix: ~`per_row` symmetric
    /// off-diagonal entries per row plus a dominant diagonal — the CG
    /// benchmark's "random pattern" at adjustable scale.
    pub fn random_spd(n: usize, per_row: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Collect symmetric off-diagonal entries per row.
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        #[allow(clippy::needless_range_loop)] // symmetric inserts touch entries[j] too
        for i in 0..n {
            for _ in 0..per_row / 2 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v = rng.gen_range(-1.0..1.0);
                    entries[i].push((j, v));
                    entries[j].push((i, v));
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for (i, row) in entries.iter_mut().enumerate() {
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by_key(|&mut (j, _)| j);
            let offdiag_sum: f64 = row.iter().map(|&(_, v)| v.abs()).sum();
            // Diagonal dominance => SPD for a symmetric matrix.
            let mut inserted_diag = false;
            for &(j, v) in row.iter() {
                if j > i && !inserted_diag {
                    cols.push(i);
                    vals.push(offdiag_sum + 1.0);
                    inserted_diag = true;
                }
                cols.push(j);
                vals.push(v);
            }
            if !inserted_diag {
                cols.push(i);
                vals.push(offdiag_sum + 1.0);
            }
            row_ptr.push(cols.len());
        }
        Csr {
            n,
            row_ptr,
            cols,
            vals,
        }
    }

    /// 5-point Poisson operator on an `nx × ny` grid (SCG's system:
    /// 40000×40000 from a 200×200 grid in the paper).
    pub fn poisson_5pt(nx: usize, ny: usize) -> Self {
        let n = nx * ny;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for y in 0..ny {
            for x in 0..nx {
                let mut push = |c: usize, v: f64| {
                    cols.push(c);
                    vals.push(v);
                };
                if y > 0 {
                    push(idx(x, y - 1), -1.0);
                }
                if x > 0 {
                    push(idx(x - 1, y), -1.0);
                }
                push(idx(x, y), 4.0);
                if x + 1 < nx {
                    push(idx(x + 1, y), -1.0);
                }
                if y + 1 < ny {
                    push(idx(x, y + 1), -1.0);
                }
                row_ptr.push(cols.len());
            }
        }
        Csr {
            n,
            row_ptr,
            cols,
            vals,
        }
    }
}

/// Sequential conjugate gradient (reference for CG/SCG validation).
/// Returns `(solution, iterations, final residual norm²)`.
pub fn cg_reference(a: &Csr, b: &[f64], max_iter: usize, tol: f64) -> (Vec<f64>, usize, f64) {
    let n = a.n;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut iters = 0;
    while iters < max_iter && rr.sqrt() > tol {
        a.matvec(&p, &mut q);
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let alpha = rr / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
        iters += 1;
    }
    (x, iters, rr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn random_spd_is_symmetric_and_dominant() {
        let a = Csr::random_spd(100, 8, 1);
        // Build a dense mirror to check symmetry.
        let mut dense = vec![vec![0.0f64; a.n]; a.n];
        for i in 0..a.n {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                dense[i][a.cols[k]] = a.vals[k];
            }
        }
        for i in 0..a.n {
            let mut off = 0.0;
            for j in 0..a.n {
                if i != j {
                    assert_eq!(dense[i][j], dense[j][i], "asymmetry at ({i},{j})");
                    off += dense[i][j].abs();
                }
            }
            assert!(dense[i][i] > off, "row {i} not dominant");
        }
    }

    #[test]
    fn poisson_rows_sum_to_small_nonnegative() {
        let a = Csr::poisson_5pt(5, 4);
        assert_eq!(a.n, 20);
        for i in 0..a.n {
            let s: f64 = (a.row_ptr[i]..a.row_ptr[i + 1]).map(|k| a.vals[k]).sum();
            assert!(s >= 0.0, "row {i} sums to {s}");
        }
    }

    #[test]
    fn cg_solves_poisson() {
        let a = Csr::poisson_5pt(16, 16);
        let b = vec![1.0; a.n];
        let (x, iters, rr) = cg_reference(&a, &b, 1000, 1e-10);
        assert!(rr.sqrt() < 1e-10, "residual {}", rr.sqrt());
        assert!(iters > 5 && iters < 1000);
        // Check A x = b directly.
        let mut ax = vec![0.0; a.n];
        a.matvec(&x, &mut ax);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-8);
        }
    }
}
