//! Idempotent replay: `(src, seq)` deduplication.
//!
//! The retry protocol may deliver the same packet more than once (the
//! original was delivered but its ack was lost, or a retransmission raced
//! the original past a healed link). Side effects — scattering payload
//! bytes and incrementing the receive flag — must happen exactly once, so
//! the receive path consults a [`ReplayGuard`] keyed by the sender and the
//! packet's sequence number before applying any of them.

use aputil::CellId;
use std::collections::HashSet;

/// Tracks which `(src, seq)` pairs a receiver has already applied.
#[derive(Clone, Debug, Default)]
pub struct ReplayGuard {
    seen: HashSet<(u32, u64)>,
}

impl ReplayGuard {
    /// An empty guard.
    pub fn new() -> ReplayGuard {
        ReplayGuard::default()
    }

    /// `true` exactly once per `(src, seq)`: the first sighting applies
    /// the packet's effects, every later one suppresses them (the packet
    /// is still re-acked so the sender stops retrying).
    pub fn first_sighting(&mut self, src: CellId, seq: u64) -> bool {
        self.seen.insert((src.index() as u32, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_suppressed() {
        let mut g = ReplayGuard::new();
        assert!(g.first_sighting(CellId::new(0), 7));
        assert!(!g.first_sighting(CellId::new(0), 7));
        assert!(g.first_sighting(CellId::new(1), 7), "per-sender sequences");
        assert!(g.first_sighting(CellId::new(0), 8));
    }
}

#[cfg(test)]
mod proptests {
    //! Retry idempotence (ISSUE 5 satellite): any delivery schedule made
    //! of duplicated, reordered retransmissions of a set of PUTs — as long
    //! as each PUT is delivered at least once — must leave exactly the
    //! final memory and flag values of the fault-free sequential run.
    //!
    //! The model mirrors the real plan's safety precondition: destination
    //! slots are disjoint per PUT (the fuzzer allocates destinations
    //! uniquely program-wide), while flags are shared counters that every
    //! duplicate would corrupt without the guard.

    use super::*;
    use proptest::prelude::*;

    /// One modeled PUT: writes `value` over a disjoint destination slot
    /// and increments one of a small set of shared flags.
    #[derive(Clone, Copy, Debug)]
    struct ModelPut {
        src: u32,
        seq: u64,
        slot: usize,
        value: u8,
        flag: usize,
    }

    const SLOTS: usize = 32;
    const FLAGS: usize = 4;

    fn apply(mem: &mut [u8; SLOTS], flags: &mut [u32; FLAGS], p: &ModelPut) {
        mem[p.slot] = p.value;
        flags[p.flag] += 1;
    }

    /// The fault-free run: each PUT applied exactly once, in issue order.
    fn baseline(puts: &[ModelPut]) -> ([u8; SLOTS], [u32; FLAGS]) {
        let mut mem = [0u8; SLOTS];
        let mut flags = [0u32; FLAGS];
        for p in puts {
            apply(&mut mem, &mut flags, p);
        }
        (mem, flags)
    }

    /// Strategy: up to `SLOTS` PUTs with pairwise-distinct slots, plus a
    /// delivery schedule that repeats and reorders them arbitrarily while
    /// covering each at least once.
    fn arb_case() -> impl Strategy<Value = (Vec<ModelPut>, Vec<usize>)> {
        (1usize..=SLOTS, any::<u64>()).prop_flat_map(|(n, mix)| {
            let puts: Vec<ModelPut> = (0..n)
                .map(|i| {
                    let h = (mix ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    ModelPut {
                        src: (h % 5) as u32,
                        // Sequence numbers are unique per (src, op) as the
                        // kernel allocates them globally.
                        seq: i as u64,
                        slot: i,
                        value: (h >> 8) as u8 | 1,
                        flag: (h >> 16) as usize % FLAGS,
                    }
                })
                .collect();
            // Indices into `puts`, each appearing 1..=3 times, shuffled by
            // sampling: draw 3n slots from a bag seeded with one copy of
            // each index plus random extras.
            let dup = proptest::collection::vec(0usize..n, 0..2 * n);
            (Just(puts), dup).prop_map(|(puts, extras)| {
                let n = puts.len();
                let mut schedule: Vec<usize> = (0..n).chain(extras).collect();
                // Deterministic reorder: sort by a hash of (index,
                // position) so duplicates interleave with originals.
                let keyed: Vec<(u64, usize)> = schedule
                    .drain(..)
                    .enumerate()
                    .map(|(pos, idx)| {
                        let k =
                            ((idx as u64) << 32 | pos as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                        (k, idx)
                    })
                    .collect();
                let mut keyed = keyed;
                keyed.sort_unstable();
                (puts, keyed.into_iter().map(|(_, idx)| idx).collect())
            })
        })
    }

    proptest! {
        /// Deduped delivery of any duplicated/reordered schedule matches
        /// the fault-free run byte for byte, flag for flag.
        #[test]
        fn deduped_replay_matches_fault_free_run((puts, schedule) in arb_case()) {
            let (want_mem, want_flags) = baseline(&puts);
            let mut guard = ReplayGuard::new();
            let mut mem = [0u8; SLOTS];
            let mut flags = [0u32; FLAGS];
            let mut suppressed = 0u32;
            for &idx in &schedule {
                let p = &puts[idx];
                if guard.first_sighting(CellId::new(p.src), p.seq) {
                    apply(&mut mem, &mut flags, p);
                } else {
                    suppressed += 1;
                }
            }
            prop_assert_eq!(mem, want_mem);
            prop_assert_eq!(flags, want_flags);
            prop_assert_eq!(
                suppressed as usize,
                schedule.len() - puts.len(),
                "every duplicate, and only duplicates, suppressed"
            );
        }

        /// Sanity check on the model itself: without the guard, any
        /// schedule containing a duplicate over-counts a flag.
        #[test]
        fn without_dedup_duplicates_corrupt_flags((puts, schedule) in arb_case()) {
            prop_assume!(schedule.len() > puts.len());
            let (_, want_flags) = baseline(&puts);
            let mut mem = [0u8; SLOTS];
            let mut flags = [0u32; FLAGS];
            for &idx in &schedule {
                apply(&mut mem, &mut flags, &puts[idx]);
            }
            let total: u32 = flags.iter().sum();
            let want_total: u32 = want_flags.iter().sum();
            prop_assert!(total > want_total);
        }

        /// Prefix monotonicity: after any prefix of the schedule, every
        /// touched slot holds either its initial or its final value, and
        /// no flag exceeds its fault-free count — a partially recovered
        /// run can be behind, never corrupted.
        #[test]
        fn prefixes_never_overshoot((puts, schedule) in arb_case()) {
            let (want_mem, want_flags) = baseline(&puts);
            let mut guard = ReplayGuard::new();
            let mut mem = [0u8; SLOTS];
            let mut flags = [0u32; FLAGS];
            for &idx in &schedule {
                let p = &puts[idx];
                if guard.first_sighting(CellId::new(p.src), p.seq) {
                    apply(&mut mem, &mut flags, p);
                }
                for s in 0..SLOTS {
                    prop_assert!(mem[s] == 0 || mem[s] == want_mem[s]);
                }
                for fl in 0..FLAGS {
                    prop_assert!(flags[fl] <= want_flags[fl]);
                }
            }
        }
    }
}
