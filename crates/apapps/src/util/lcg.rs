//! The NAS Parallel Benchmarks linear congruential generator.
//!
//! NPB specifies `x_{k+1} = a · x_k mod 2^46` with `a = 5^13` and seed
//! `271828183`. Its key property for parallel use is the `O(log k)` skip:
//! any PE can jump straight to its slice of the stream, which is exactly
//! how EP distributes work with zero communication.

/// NPB multiplier `5^13`.
pub const A: u64 = 1_220_703_125;
/// NPB default seed.
pub const SEED: u64 = 271_828_183;
const M46: u64 = (1 << 46) - 1;

/// The 46-bit NPB LCG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpbRandom {
    x: u64,
}

impl NpbRandom {
    /// Starts at position `k` of the stream from `seed`, in `O(log k)`.
    pub fn skip_to(seed: u64, k: u64) -> Self {
        // x_k = a^k * seed mod 2^46.
        let ak = pow_mod46(A, k);
        NpbRandom {
            x: mul_mod46(ak, seed & M46),
        }
    }

    /// Next uniform deviate in `(0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.x = mul_mod46(A, self.x);
        self.x as f64 / (1u64 << 46) as f64
    }
}

#[inline]
fn mul_mod46(a: u64, b: u64) -> u64 {
    // 46-bit × 46-bit fits in u128.
    ((a as u128 * b as u128) & M46 as u128) as u64
}

fn pow_mod46(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base &= M46;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod46(acc, base);
        }
        base = mul_mod46(base, base);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_matches_sequential() {
        let mut seq = NpbRandom::skip_to(SEED, 0);
        for _ in 0..1000 {
            seq.next_f64();
        }
        let skipped = NpbRandom::skip_to(SEED, 1000);
        assert_eq!(seq, skipped);
    }

    #[test]
    fn deviates_are_in_unit_interval() {
        let mut r = NpbRandom::skip_to(SEED, 0);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn partitioned_streams_tile_the_sequence() {
        // 4 PEs × 250 numbers == 1000 sequential numbers.
        let mut seq = Vec::new();
        let mut r = NpbRandom::skip_to(SEED, 0);
        for _ in 0..1000 {
            seq.push(r.next_f64());
        }
        let mut par = Vec::new();
        for pe in 0..4u64 {
            let mut r = NpbRandom::skip_to(SEED, pe * 250);
            for _ in 0..250 {
                par.push(r.next_f64());
            }
        }
        assert_eq!(seq, par);
    }

    #[test]
    fn mean_is_about_half() {
        let mut r = NpbRandom::skip_to(SEED, 0);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
