//! Pentadiagonal line solver (the "scalar pentadiagonal" of NPB SP).
//!
//! Solves `A x = d` where `A` has bands at offsets −2..2, by Gaussian
//! elimination without pivoting — valid for the diagonally dominant
//! systems ADI sweeps produce.
//!
//! The row-level steps [`eliminate_step`] and [`back_step`] are exposed
//! separately because SP's **distributed** z-sweep pipelines exactly these
//! across cells: a forward pass hands the next cell the last two
//! eliminated rows, a backward pass hands the previous cell the first two
//! solution values. Sequential [`Penta::solve`] is built from the same
//! steps, so the distributed solver is bit-identical to the reference.

/// An eliminated row: `[diag, sup1, sup2, rhs]` after removing both
/// sub-diagonals.
pub type WRow = [f64; 4];

/// Eliminates row `i` given its raw bands `[a2, a1, d, c1, c2]`, raw rhs,
/// and the two previously eliminated rows (`None` at the top boundary).
///
/// # Panics
///
/// Panics (via non-finite checks in debug) only on singular systems;
/// diagonally dominant inputs are always safe.
pub fn eliminate_step(prev2: Option<&WRow>, prev1: Option<&WRow>, row: [f64; 5], rhs: f64) -> WRow {
    let mut a1 = row[1];
    let mut d = row[2];
    let c1 = row[3];
    let c2 = row[4];
    let mut b = rhs;
    if let Some(p2) = prev2 {
        let f = row[0] / p2[0];
        a1 -= f * p2[1];
        d -= f * p2[2];
        b -= f * p2[3];
    }
    if let Some(p1) = prev1 {
        let f = a1 / p1[0];
        d -= f * p1[1];
        return [d, c1 - f * p1[2], c2, b - f * p1[3]];
    }
    [d, c1, c2, b]
}

/// Back-substitutes one row: `x_i` from its eliminated row and the two
/// following solution values (`None` at the bottom boundary).
pub fn back_step(w: &WRow, x1: Option<f64>, x2: Option<f64>) -> f64 {
    let mut v = w[3];
    if let Some(x) = x1 {
        v -= w[1] * x;
    }
    if let Some(x) = x2 {
        v -= w[2] * x;
    }
    v / w[0]
}

/// A pentadiagonal system of `n` rows; row `i` holds
/// `[a2, a1, d, c1, c2]` = offsets `[-2, -1, 0, +1, +2]`, plus `rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Penta {
    /// Band coefficients per row.
    pub rows: Vec<[f64; 5]>,
    /// Right-hand side.
    pub rhs: Vec<f64>,
}

impl Penta {
    /// Direct sequential solve (reference for the pipelined version).
    pub fn solve(&self) -> Vec<f64> {
        let n = self.rows.len();
        let mut w: Vec<WRow> = Vec::with_capacity(n);
        for i in 0..n {
            let prev1 = if i >= 1 { Some(&w[i - 1]) } else { None };
            let prev2 = if i >= 2 { Some(&w[i - 2]) } else { None };
            let row = eliminate_step(prev2, prev1, self.rows[i], self.rhs[i]);
            w.push(row);
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let x1 = if i + 1 < n { Some(x[i + 1]) } else { None };
            let x2 = if i + 2 < n { Some(x[i + 2]) } else { None };
            x[i] = back_step(&w[i], x1, x2);
        }
        x
    }

    /// Residual max-norm `‖A x − rhs‖∞` of a candidate solution.
    pub fn residual(&self, x: &[f64]) -> f64 {
        let n = self.rows.len();
        let mut worst = 0.0f64;
        for i in 0..n {
            let r = self.rows[i];
            let mut v = r[2] * x[i];
            if i >= 2 {
                v += r[0] * x[i - 2];
            }
            if i >= 1 {
                v += r[1] * x[i - 1];
            }
            if i + 1 < n {
                v += r[3] * x[i + 1];
            }
            if i + 2 < n {
                v += r[4] * x[i + 2];
            }
            worst = worst.max((v - self.rhs[i]).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diagonally dominant test system from a deterministic pattern.
    fn diagonally_dominant(n: usize, seed: u64) -> Penta {
        let mut rows = Vec::with_capacity(n);
        let mut rhs = Vec::with_capacity(n);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 1000.0 - 0.5
        };
        for _ in 0..n {
            let (a2, a1, c1, c2) = (next(), next(), next(), next());
            let d = 4.0 + a2.abs() + a1.abs() + c1.abs() + c2.abs();
            rows.push([a2, a1, d, c1, c2]);
            rhs.push(next() * 10.0);
        }
        Penta { rows, rhs }
    }

    #[test]
    fn solves_identity() {
        let n = 10;
        let p = Penta {
            rows: vec![[0.0, 0.0, 1.0, 0.0, 0.0]; n],
            rhs: (0..n).map(|i| i as f64).collect(),
        };
        let x = p.solve();
        assert_eq!(x, (0..n).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn random_dominant_system_solves_accurately() {
        for seed in [1, 7, 42] {
            let p = diagonally_dominant(64, seed);
            let x = p.solve();
            assert!(p.residual(&x) < 1e-9, "residual {}", p.residual(&x));
        }
    }

    #[test]
    fn tiny_systems() {
        for n in 1..=4 {
            let p = diagonally_dominant(n, 5);
            let x = p.solve();
            assert!(p.residual(&x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn pipelined_elimination_equals_sequential() {
        // Split a 40-row system into 4 chunks of 10 and run the chunked
        // (carry-passing) elimination — must be bit-identical to solve().
        let p = diagonally_dominant(40, 9);
        let expected = p.solve();
        let mut w: Vec<WRow> = Vec::new();
        // Forward across chunks: the carry is just the last two w rows.
        for chunk in 0..4 {
            for i in chunk * 10..(chunk + 1) * 10 {
                let prev1 = if i >= 1 { Some(&w[i - 1]) } else { None };
                let prev2 = if i >= 2 { Some(&w[i - 2]) } else { None };
                let row = eliminate_step(prev2, prev1, p.rows[i], p.rhs[i]);
                w.push(row);
            }
        }
        let mut x = vec![0.0; 40];
        for chunk in (0..4).rev() {
            for i in (chunk * 10..(chunk + 1) * 10).rev() {
                let x1 = if i + 1 < 40 { Some(x[i + 1]) } else { None };
                let x2 = if i + 2 < 40 { Some(x[i + 2]) } else { None };
                x[i] = back_step(&w[i], x1, x2);
            }
        }
        assert_eq!(x, expected);
    }
}
