//! The deterministic event queue.

use aputil::SimTime;
use std::collections::VecDeque;

/// A time-ordered event queue: events pop in nondecreasing time order and,
/// among equal times, in push order — what makes simulations built on it
/// reproducible run-to-run.
///
/// A monotone radix heap: pushes never precede the last popped time, events
/// at exactly that time wait in a FIFO, and bucket `b` holds those first
/// differing from it in bit `b`; a dry FIFO is refilled by draining the
/// lowest non-empty bucket in order. Ties need no sequence number: equal
/// times always share a bucket, a bucket only receives events by in-order
/// append, and it is only refilled while it is empty.
///
/// # Examples
///
/// ```
/// use apsim::EventQueue;
/// use aputil::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(1), 'b');
/// q.push(SimTime::from_nanos(1), 'c');
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The last popped time (zero before the first pop).
    last: SimTime,
    /// The events at exactly `last`, in push order.
    due: VecDeque<E>,
    /// `buckets[b]`: the events whose time first differs from `last` in bit `b`.
    buckets: [Vec<(SimTime, E)>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    mask: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            last: SimTime::ZERO,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
        }
    }

    /// Schedules `event` at absolute time `time`, which must not precede
    /// the last popped time: a causality bug panics here, at its source.
    pub fn push(&mut self, time: SimTime, event: E) {
        let last = self.last;
        assert!(time >= last, "event scheduled in the past: {time} < {last}");
        self.place(time, event);
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() && self.mask != 0 {
            self.refill();
        }
        self.due.pop_front().map(|e| (self.last, e))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.due.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty() && self.mask == 0
    }

    /// Files an event at `time >= last`: in `due` if it is at `last`, else
    /// at the back of the bucket of the highest bit the two times differ in.
    fn place(&mut self, time: SimTime, event: E) {
        match (time.as_nanos() ^ self.last.as_nanos()).checked_ilog2() {
            None => self.due.push_back(event),
            Some(b) => {
                self.buckets[b as usize].push((time, event));
                self.mask |= 1 << b;
            }
        }
    }

    /// Drains the lowest non-empty bucket into `due` and the buckets below
    /// it; the emptied `Vec` keeps its slot and its capacity.
    fn refill(&mut self) {
        let b = self.mask.trailing_zeros() as usize;
        self.mask &= !(1 << b);
        let mut drained = std::mem::take(&mut self.buckets[b]);
        self.last = drained.iter().map(|&(t, _)| t).min().unwrap_or(self.last);
        for (time, event) in drained.drain(..) {
            self.place(time, event);
        }
        self.buckets[b] = drained;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 'a');
        q.push(SimTime::from_nanos(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        // New same-time event scheduled *after* 'b' must come out after 'b'.
        q.push(SimTime::from_nanos(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Interleaved monotone pushes and pops: every pop returns the
        /// earliest pending event, FIFO among equal times. Each step pushes
        /// at `last + delta` (deltas repeat, so ties are common) or pops.
        #[test]
        fn interleaved_pops_are_a_stable_sort(
            steps in proptest::collection::vec((0u64..4, 0u64..40), 0..300)
        ) {
            let mut q = EventQueue::new();
            let mut pending: Vec<(u64, usize)> = Vec::new();
            let mut last = 0;
            for (i, &(op, delta)) in steps.iter().enumerate() {
                if op == 0 {
                    let want = pending.iter().copied().min();
                    pending.retain(|&e| Some(e) != want);
                    let got = q.pop().map(|(t, i)| (t.as_nanos(), i));
                    prop_assert_eq!(got, want);
                    last = got.map_or(last, |(t, _)| t);
                } else {
                    q.push(SimTime::from_nanos(last + delta), i);
                    pending.push((last + delta, i));
                }
            }
            let mut rest = Vec::new();
            while let Some((t, i)) = q.pop() {
                rest.push((t.as_nanos(), i));
            }
            pending.sort();
            prop_assert_eq!(rest, pending);
        }
    }
}
