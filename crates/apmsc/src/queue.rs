//! MSC+ hardware command queues with DRAM spill.
//!
//! Paper §4.1: *"The MSC+ contains five queues in its own RAM. … Since the
//! maximum queue size is 64 words, it is possible that an MSC+ queue may
//! become full. In this case, the MSC+ is able to automatically write the
//! data directly to a previously allocated buffer in DRAM. All data written
//! by the processor after the queue becomes full is written into the buffer
//! in DRAM. When the queue empties, the MSC+ interrupts the operating
//! system, which then loads data from the buffer in DRAM back into the
//! queue in the MSC+."*
//!
//! The model keeps the *ordering* semantics exact (FIFO across the RAM part
//! and the spill part) and surfaces the events the timing layer must
//! charge: how many entries went to DRAM, and how many OS refill
//! interrupts fired.

use std::collections::VecDeque;

/// Words of on-chip RAM per queue (§4.1).
pub const QUEUE_RAM_WORDS: usize = 64;

/// Where a pushed entry landed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushOutcome {
    /// Entry fit in the on-chip RAM.
    Ram,
    /// RAM was full; the entry was written to the DRAM spill buffer.
    Spilled,
}

/// Counters for one queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueStats {
    /// Entries pushed in total.
    pub pushed: u64,
    /// Entries that had to spill to DRAM.
    pub spilled: u64,
    /// OS interrupts taken to reload spilled entries into RAM.
    pub refill_interrupts: u64,
    /// High-water mark of total occupancy (RAM + spill), in entries.
    pub high_water: usize,
}

/// One MSC+ command queue: a fixed-size on-chip FIFO backed by an
/// unbounded DRAM spill buffer.
///
/// `entry_words` is the size of one entry (8 words for PUT/GET commands,
/// fewer for remote-access descriptors); capacity in entries is
/// `QUEUE_RAM_WORDS / entry_words`.
///
/// # Examples
///
/// ```
/// use apmsc::{HwQueue, PushOutcome};
///
/// let mut q: HwQueue<u32> = HwQueue::new("user send", 8);
/// assert_eq!(q.ram_capacity(), 8);
/// for i in 0..8 {
///     assert_eq!(q.push(i), PushOutcome::Ram);
/// }
/// assert_eq!(q.push(8), PushOutcome::Spilled);
/// assert_eq!(q.pop(), Some(0)); // FIFO across RAM and spill
/// ```
#[derive(Clone, Debug)]
pub struct HwQueue<T> {
    name: &'static str,
    ram: VecDeque<T>,
    spill: VecDeque<T>,
    ram_capacity: usize,
    stats: QueueStats,
}

impl<T> HwQueue<T> {
    /// Creates a queue whose entries occupy `entry_words` words each.
    ///
    /// # Panics
    ///
    /// Panics if `entry_words` is 0 or exceeds [`QUEUE_RAM_WORDS`].
    pub fn new(name: &'static str, entry_words: usize) -> Self {
        assert!(
            entry_words > 0 && entry_words <= QUEUE_RAM_WORDS,
            "invalid entry size {entry_words} words"
        );
        HwQueue {
            name,
            ram: VecDeque::new(),
            spill: VecDeque::new(),
            ram_capacity: QUEUE_RAM_WORDS / entry_words,
            stats: QueueStats::default(),
        }
    }

    /// Queue name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// On-chip capacity in entries.
    pub fn ram_capacity(&self) -> usize {
        self.ram_capacity
    }

    /// Entries currently queued (RAM + spill).
    pub fn len(&self) -> usize {
        self.ram.len() + self.spill.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ram.is_empty() && self.spill.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Pushes an entry; reports whether it landed in RAM or spilled.
    pub fn push(&mut self, entry: T) -> PushOutcome {
        self.stats.pushed += 1;
        let outcome = if self.spill.is_empty() && self.ram.len() < self.ram_capacity {
            self.ram.push_back(entry);
            PushOutcome::Ram
        } else {
            // Once anything has spilled, later entries must also go to DRAM
            // to preserve FIFO order ("all data written by the processor
            // after the queue becomes full is written into the buffer").
            self.spill.push_back(entry);
            self.stats.spilled += 1;
            PushOutcome::Spilled
        };
        self.stats.high_water = self.stats.high_water.max(self.len());
        outcome
    }

    /// Pops the oldest entry. When popping drains the RAM part while
    /// entries remain in DRAM, the OS refill interrupt fires and up to a
    /// RAM's worth of spilled entries are reloaded — visible in
    /// [`QueueStats::refill_interrupts`].
    pub fn pop(&mut self) -> Option<T> {
        let entry = self.ram.pop_front().or_else(|| {
            // RAM empty but spill non-empty can only happen transiently
            // inside refill; treat as direct DRAM pop.
            self.spill.pop_front()
        })?;
        if self.ram.is_empty() && !self.spill.is_empty() {
            self.stats.refill_interrupts += 1;
            for _ in 0..self.ram_capacity {
                match self.spill.pop_front() {
                    Some(e) => self.ram.push_back(e),
                    None => break,
                }
            }
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_without_spill() {
        let mut q: HwQueue<u32> = HwQueue::new("t", 8);
        for i in 0..5 {
            assert_eq!(q.push(i), PushOutcome::Ram);
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.stats().spilled, 0);
        assert_eq!(q.stats().refill_interrupts, 0);
    }

    #[test]
    fn spill_preserves_global_fifo() {
        let mut q: HwQueue<u32> = HwQueue::new("t", 8);
        for i in 0..50 {
            q.push(i);
        }
        assert_eq!(q.stats().spilled, 50 - 8);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..50).collect::<Vec<_>>());
        assert!(q.stats().refill_interrupts >= 1);
        assert_eq!(q.stats().high_water, 50);
    }

    #[test]
    fn entries_keep_spilling_until_refill() {
        let mut q: HwQueue<u32> = HwQueue::new("t", 8);
        for i in 0..9 {
            q.push(i); // 8 RAM + 1 spill
        }
        // RAM has room only after pops; a push *now* must spill to keep order.
        assert_eq!(q.push(9), PushOutcome::Spilled);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn remote_access_queue_has_different_geometry() {
        let q: HwQueue<u32> = HwQueue::new("remote access", 4);
        assert_eq!(q.ram_capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "invalid entry size")]
    fn zero_entry_words_panics() {
        let _: HwQueue<u32> = HwQueue::new("t", 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any interleaving of pushes and pops the queue behaves like
        /// an unbounded FIFO; spill machinery never reorders or loses
        /// entries.
        #[test]
        fn equivalent_to_unbounded_fifo(ops in proptest::collection::vec(any::<bool>(), 1..300)) {
            let mut q: HwQueue<u64> = HwQueue::new("t", 8);
            let mut model = std::collections::VecDeque::new();
            let mut next = 0u64;
            for push in ops {
                if push {
                    q.push(next);
                    model.push_back(next);
                    next += 1;
                } else {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
            }
            while let Some(v) = model.pop_front() {
                prop_assert_eq!(q.pop(), Some(v));
            }
            prop_assert!(q.is_empty());
        }
    }
}
