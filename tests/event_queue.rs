//! `apsim::EventQueue` against a reference: a `BinaryHeap` of
//! `Reverse((time, seq))`, the textbook stable priority queue. Both are
//! driven with the same seeded pushes and pops and must pop the same
//! `(time, payload)` sequence — times in order and, among equal times,
//! payloads in push order.
//!
//! The queue is a monotone radix heap, so every case keeps to its
//! contract: no push before the last popped time (the last case checks
//! that such a push panics).

use apsim::EventQueue;
use aputil::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The queue under test and the reference, in lockstep. Each event's
/// payload is its push index, which is also the reference's `seq`.
#[derive(Default)]
struct Lockstep {
    q: EventQueue<u64>,
    reference: BinaryHeap<Reverse<(u64, u64)>>,
    pushed: u64,
    last: u64,
}

impl Lockstep {
    fn push(&mut self, t: u64) {
        assert!(t >= self.last, "the test itself broke the contract");
        self.q.push(SimTime::from_nanos(t), self.pushed);
        self.reference.push(Reverse((t, self.pushed)));
        self.pushed += 1;
    }

    /// Pops both; panics on the first disagreement.
    fn pop(&mut self) -> Option<u64> {
        let got = self.q.pop().map(|(t, id)| (t.as_nanos(), id));
        let want = self.reference.pop().map(|Reverse(e)| e);
        assert_eq!(got, want, "pop after {} pushes", self.pushed);
        assert_eq!(self.q.len(), self.reference.len());
        let (t, _) = got?;
        self.last = t;
        Some(t)
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.q.is_empty());
    }
}

/// A random gap whose magnitude spans every bucket up to bit `max_bits`.
fn gap(rng: &mut SmallRng, max_bits: u32) -> u64 {
    let bits = rng.gen_range(0..=max_bits);
    rng.gen_range(0..=(u64::MAX >> (64 - bits.max(1))))
}

#[test]
fn interleaved_monotone_push_pop_with_ties() {
    for seed in 0..16 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = Lockstep::default();
        let mut prev = 0;
        for _ in 0..20_000 {
            if rng.gen_range(0..3) == 0 {
                s.pop();
                continue;
            }
            // A quarter of the pushes tie with the previous one's time
            // (or, once that is popped, with the last popped time).
            prev = if rng.gen_range(0..4) == 0 {
                prev.max(s.last)
            } else {
                s.last + gap(&mut rng, 40)
            };
            s.push(prev);
        }
        s.drain();
    }
}

#[test]
fn bursts_at_one_instant_straddle_a_redistribution() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut s = Lockstep::default();
    for _ in 0..200 {
        // A burst at `t`, neighbours on both sides of it in the same
        // high bucket, then a partial drain: the pop that reaches `t`
        // redistributes the bucket with half the burst still to come.
        let t = s.last + 1 + gap(&mut rng, 30);
        for i in 0..rng.gen_range(1..40) {
            s.push(t + i % 3);
            s.push(t);
        }
        for _ in 0..rng.gen_range(0..30) {
            s.pop();
        }
        // Later pushes at the same instants must queue behind the burst.
        let at = s.last;
        for _ in 0..rng.gen_range(0..10) {
            s.push(at);
            s.push(at + 1);
            s.push(t.max(at));
        }
        for _ in 0..rng.gen_range(0..60) {
            s.pop();
        }
    }
    s.drain();
}

#[test]
fn times_up_to_simtime_max() {
    let max = SimTime::MAX.as_nanos();
    let mut s = Lockstep::default();
    for t in [max, 0, 1 << 63, max, (1 << 63) - 1, max - 1, 0, 1 << 62] {
        s.push(t);
    }
    for t in [0, 0, 1 << 62, (1 << 63) - 1] {
        assert_eq!(s.pop(), Some(t));
    }
    for t in [1 << 63, max, max - 1, (1 << 63) + 1] {
        s.push(t);
    }
    assert_eq!(s.pop(), Some(1 << 63));
    s.push(1 << 63);
    s.push(max);
    s.drain();
    assert_eq!(s.last, max);
    // At `SimTime::MAX` itself the queue is a plain FIFO.
    for _ in 0..5 {
        s.push(max);
    }
    s.pop();
    s.push(max);
    s.drain();
}

#[test]
fn push_everything_then_pop_everything() {
    // The pre-run pattern of boot (every cell woken at zero, a fault
    // schedule's crashes queued behind them) and of the queue
    // micro-benchmark: no pop until every event is in.
    for seed in 0..4 {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let mut s = Lockstep::default();
        for _ in 0..1024 {
            s.push(0);
        }
        let mut t = 0;
        for _ in 0..50_000 {
            if rng.gen_range(0..4) != 0 {
                t = rng.gen_range(0..1_000_000_000);
            }
            s.push(t);
        }
        s.drain();
    }
}

#[test]
#[should_panic(expected = "event scheduled in the past")]
fn a_push_before_the_last_popped_time_panics() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_nanos(10), 'a');
    q.push(SimTime::from_nanos(20), 'b');
    assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 'a')));
    q.push(SimTime::from_nanos(9), 'c');
}
