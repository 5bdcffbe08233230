//! Iterative radix-2 complex FFT, as a plan built once per size and
//! direction.
//!
//! An `FftPlan` holds the bit-reversal swaps and every stage's twiddle
//! factors, so applying it only permutes and runs butterflies. The twiddles
//! come from the recurrence `c ← c·w` that a textbook kernel runs inside
//! each block, so every butterfly sees the same operands and the output is
//! bit-identical to that kernel's (the tests keep it as the oracle). Every
//! FT transform runs on it. Complex numbers are `(re, im)` pairs in
//! interleaved `f64` slices, matching how FT stages them in simulated
//! memory.

use std::f64::consts::PI;

/// A radix-2 FFT of one power-of-two size in one direction.
#[derive(Debug)]
pub(crate) struct FftPlan {
    n: usize,
    inverse: bool,
    /// The `(i, j)` pairs, `i < j`, that the bit-reversal permutation swaps.
    swaps: Vec<(usize, usize)>,
    /// `(re, im)` twiddles of the stages of half-width 1, 2, 4, …, `n / 2`,
    /// concatenated (`n − 1` in all).
    twiddles: Vec<(f64, f64)>,
}

impl FftPlan {
    /// The plan for `n` complex values; `inverse` selects the inverse
    /// transform (including the `1/n` scaling). `n = 1` is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub(crate) fn new(n: usize, inverse: bool) -> Self {
        assert!(n.is_power_of_two(), "FFT size {n} must be a power of two");
        let bits = n.trailing_zeros();
        // At `n = 1` there is no bit to reverse and nothing to swap.
        let swaps = (0..n)
            .filter_map(|i| {
                let j = i
                    .reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0);
                (j > i).then_some((i, j))
            })
            .collect();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut c = (1.0f64, 0.0f64);
            for _ in 0..len / 2 {
                twiddles.push(c);
                c = (c.0 * wr - c.1 * wi, c.0 * wi + c.1 * wr);
            }
            len <<= 1;
        }
        FftPlan {
            n,
            inverse,
            swaps,
            twiddles,
        }
    }

    /// Transforms the `n` complex values interleaved in `buf` in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2 * n`.
    pub(crate) fn apply(&self, buf: &mut [f64]) {
        assert_eq!(buf.len(), 2 * self.n, "interleaved complex buffer length");
        for &(i, j) in &self.swaps {
            buf.swap(2 * i, 2 * j);
            buf.swap(2 * i + 1, 2 * j + 1);
        }
        let mut rest = &self.twiddles[..];
        let mut half = 1;
        while half < self.n {
            let (tw, next) = rest.split_at(half);
            rest = next;
            for block in buf.chunks_exact_mut(4 * half) {
                let (lo, hi) = block.split_at_mut(2 * half);
                for ((a, b), &(cr, ci)) in
                    lo.chunks_exact_mut(2).zip(hi.chunks_exact_mut(2)).zip(tw)
                {
                    let (ar, ai) = (a[0], a[1]);
                    let (br, bi) = (b[0], b[1]);
                    let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                    a[0] = ar + tr;
                    a[1] = ai + ti;
                    b[0] = ar - tr;
                    b[1] = ai - ti;
                }
            }
            half <<= 1;
        }
        if self.inverse {
            let scale = 1.0 / self.n as f64;
            for v in buf.iter_mut() {
                *v *= scale;
            }
        }
    }
}

/// Number of floating-point operations of one radix-2 FFT of size `n`
/// (the standard `5 n log2 n` count), for `work()` accounting.
pub fn fft_flops(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    5 * n as u64 * n.trailing_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook kernel the plan replaced: it reruns the twiddle
    /// recurrence in every block of every stage. The oracle for the plan's
    /// bits (`n > 1` only: its bit reversal shifts a `u32` by 32 at `n = 1`).
    fn recurrence_fft(buf: &mut [f64], n: usize, inverse: bool) {
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
            if j > i {
                buf.swap(2 * i, 2 * j);
                buf.swap(2 * i + 1, 2 * j + 1);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            for start in (0..n).step_by(len) {
                let (mut cr, mut ci) = (1.0f64, 0.0f64);
                for k in 0..len / 2 {
                    let a = start + k;
                    let b = start + k + len / 2;
                    let (ar, ai) = (buf[2 * a], buf[2 * a + 1]);
                    let (br, bi) = (buf[2 * b], buf[2 * b + 1]);
                    let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                    buf[2 * a] = ar + tr;
                    buf[2 * a + 1] = ai + ti;
                    buf[2 * b] = ar - tr;
                    buf[2 * b + 1] = ai - ti;
                    let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                    cr = ncr;
                    ci = nci;
                }
            }
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for v in buf.iter_mut() {
                *v *= scale;
            }
        }
    }

    fn naive_dft(input: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; 2 * n];
        for k in 0..n {
            let (mut sr, mut si) = (0.0f64, 0.0f64);
            for j in 0..n {
                let ang = -2.0 * PI * (k * j) as f64 / n as f64;
                let (re, im) = (input[2 * j], input[2 * j + 1]);
                sr += re * ang.cos() - im * ang.sin();
                si += re * ang.sin() + im * ang.cos();
            }
            out[2 * k] = sr;
            out[2 * k + 1] = si;
        }
        out
    }

    /// Seeded `(re, im)` data of `n` points from the NPB generator.
    fn seeded(n: usize, seed: u64) -> Vec<f64> {
        let mut r = crate::util::lcg::NpbRandom::skip_to(seed, 0);
        (0..2 * n).map(|_| r.next_f64() - 0.5).collect()
    }

    /// Every power of two from 1 to 512, both directions; at `n = 1` the
    /// plan must leave the point as it is.
    #[test]
    fn plan_matches_the_recurrence_kernel_bit_for_bit() {
        for bits in 0..=9 {
            let n = 1usize << bits;
            for inverse in [false, true] {
                let orig = seeded(n, 1 + bits as u64);
                let mut got = orig.clone();
                FftPlan::new(n, inverse).apply(&mut got);
                let mut want = orig.clone();
                if n > 1 {
                    recurrence_fft(&mut want, n, inverse);
                }
                let (got, want): (Vec<u64>, Vec<u64>) = got
                    .iter()
                    .zip(&want)
                    .map(|(g, w)| (g.to_bits(), w.to_bits()))
                    .unzip();
                assert_eq!(got, want, "n = {n}, inverse = {inverse}");
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let mut buf: Vec<f64> = (0..2 * n)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let reference = naive_dft(&buf, n);
        FftPlan::new(n, false).apply(&mut buf);
        for (a, b) in buf.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let n = 256;
        let orig: Vec<f64> = (0..2 * n).map(|i| (i as f64).sin()).collect();
        let mut buf = orig.clone();
        FftPlan::new(n, false).apply(&mut buf);
        FftPlan::new(n, true).apply(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 8;
        let mut buf = vec![0.0; 2 * n];
        buf[0] = 1.0;
        FftPlan::new(n, false).apply(&mut buf);
        for k in 0..n {
            assert!((buf[2 * k] - 1.0).abs() < 1e-12);
            assert!(buf[2 * k + 1].abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        FftPlan::new(3, false);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(fft_flops(8), 5 * 8 * 3);
        assert_eq!(fft_flops(1), 0);
    }
}
