//! NPB EP — embarrassingly parallel.
//!
//! §5.2: *"EP generates 2^28 pseudo-random numbers and has no
//! communication."* Each PE jumps to its slice of the NPB random stream
//! (the `O(log k)` LCG skip), generates Gaussian deviates by the
//! Marsaglia polar method, and tallies them into annuli. Table 3's EP row
//! is all zeros — and so is ours: the only trace ops are `Work`.

use crate::util::lcg::{NpbRandom, SEED};
use crate::{Scale, Workload};
use apcore::{run, ApResult, FaultSpec, MachineConfig, RunReport};

/// EP instance: `2^log2_pairs` candidate pairs over `pe` cells.
#[derive(Clone, Copy, Debug)]
pub struct Ep {
    /// Number of cells (64 in the paper's run).
    pub pe: u32,
    /// log2 of the number of candidate pairs (28 in the paper; scaled
    /// down here).
    pub log2_pairs: u32,
}

/// Per-slice tallies: accepted-deviate annulus counts and coordinate sums.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpTally {
    /// Counts of deviates with `k ≤ max(|x|,|y|) < k+1`.
    pub counts: [u64; 10],
    /// Sum of x deviates.
    pub sx: f64,
    /// Sum of y deviates.
    pub sy: f64,
}

/// Generates the tally for pairs `[lo, hi)` of the stream (shared by the
/// SPMD program and the sequential reference).
pub fn tally_range(lo: u64, hi: u64) -> EpTally {
    // Two deviates per candidate pair.
    let mut rng = NpbRandom::skip_to(SEED, 2 * lo);
    let mut t = EpTally::default();
    for _ in lo..hi {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let s = x * x + y * y;
        if s <= 1.0 && s > 0.0 {
            let f = (-2.0 * s.ln() / s).sqrt();
            let (gx, gy) = (x * f, y * f);
            let bin = gx.abs().max(gy.abs()) as usize;
            if bin < 10 {
                t.counts[bin] += 1;
            }
            t.sx += gx;
            t.sy += gy;
        }
    }
    t
}

impl Ep {
    /// Standard instance at `scale` (64 PEs as in Table 3).
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Ep {
                pe: 4,
                log2_pairs: 12,
            },
            Scale::Paper => Ep {
                pe: 64,
                log2_pairs: 20,
            },
        }
    }
}

impl Workload for Ep {
    fn name(&self) -> &'static str {
        "EP"
    }

    fn pe(&self) -> u32 {
        self.pe
    }

    fn is_vpp(&self) -> bool {
        true
    }

    fn run_on(
        &self,
        machine: MachineConfig,
        faults: Option<&FaultSpec>,
    ) -> ApResult<RunReport<()>> {
        crate::admit(self, &machine, faults)?;
        let pairs = 1u64 << self.log2_pairs;
        let pe = self.pe as u64;
        run(machine, None, async |cell| {
            let me = cell.id() as u64;
            let chunk = pairs.div_ceil(pe);
            let lo = (me * chunk).min(pairs);
            let hi = ((me + 1) * chunk).min(pairs);
            let t = tally_range(lo, hi);
            // ~25 flops per pair (2 deviates, polar test, transform).
            cell.work(25 * (hi - lo));
            // Verification: identical to the sequential reference slice.
            let reference = tally_range(lo, hi);
            assert_eq!(t, reference, "EP slice mismatch on cell {me}");
            // The polar method rejects a pair with probability 1 − π/4, so
            // only a slice of some length is certain to accept one (at
            // 16 384 cells the test-scale slices are single pairs).
            assert!(
                t.counts.iter().sum::<u64>() > 0 || hi - lo < 32,
                "EP produced no deviates on cell {me}"
            );
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptrace::AppStats;

    #[test]
    fn ep_runs_and_has_no_communication() {
        let report = Ep::new(Scale::Test).run().unwrap();
        let stats = AppStats::from_trace(&report.trace);
        assert_eq!(stats.put + stats.puts + stats.get + stats.gets, 0);
        assert_eq!(stats.send, 0);
        assert_eq!(stats.gop + stats.vgop, 0);
        assert_eq!(stats.sync, 0);
        assert!(stats.work_flops > 0);
        // No communication => no idle time anywhere.
        for t in &report.times {
            assert_eq!(t.idle, aputil::SimTime::ZERO);
        }
    }

    #[test]
    fn slices_tile_the_whole_stream() {
        let whole = tally_range(0, 4096);
        let mut merged = EpTally::default();
        for pe in 0..4 {
            let part = tally_range(pe * 1024, (pe + 1) * 1024);
            for (m, p) in merged.counts.iter_mut().zip(part.counts) {
                *m += p;
            }
            merged.sx += part.sx;
            merged.sy += part.sy;
        }
        assert_eq!(whole.counts, merged.counts);
        assert!((whole.sx - merged.sx).abs() < 1e-9);
        assert!((whole.sy - merged.sy).abs() < 1e-9);
    }

    #[test]
    fn acceptance_rate_is_pi_over_four() {
        let t = tally_range(0, 100_000);
        let accepted: u64 = t.counts.iter().sum();
        let rate = accepted as f64 / 100_000.0;
        assert!(
            (rate - std::f64::consts::PI / 4.0).abs() < 0.01,
            "rate {rate}"
        );
    }
}
