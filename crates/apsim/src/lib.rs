//! Discrete-event simulation kernel for the AP1000+ reproduction.
//!
//! This crate provides the time-ordered machinery every simulator in the
//! workspace is built on:
//!
//! * [`EventQueue`] — a monotone priority queue of `(SimTime, E)` pairs
//!   (nothing is scheduled before the last popped time) with strict FIFO
//!   ordering among events scheduled for the same instant, which is the
//!   property that makes whole-machine simulations deterministic.
//! * [`Clock`] — the monotonically advancing notion of "now".
//! * [`resource::Resource`] — a serially-occupied hardware
//!   resource (a DMA engine, a network link, the B-net bus) with
//!   busy-until-time reservation semantics.
//!
//! # Examples
//!
//! ```
//! use apsim::{Clock, EventQueue};
//! use aputil::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_nanos(10), "late");
//! q.push(SimTime::from_nanos(5), "early");
//! q.push(SimTime::from_nanos(5), "early-but-second");
//!
//! let mut clock = Clock::new();
//! let mut order = Vec::new();
//! while let Some((t, e)) = q.pop() {
//!     clock.advance_to(t);
//!     order.push(e);
//! }
//! assert_eq!(order, ["early", "early-but-second", "late"]);
//! assert_eq!(clock.now(), SimTime::from_nanos(10));
//! ```

pub mod queue;
pub mod resource;

pub use queue::EventQueue;
pub use resource::Resource;

use aputil::SimTime;

/// The simulation clock: a monotone "current time".
///
/// The clock can only move forward; [`Clock::advance_to`] with an earlier
/// time is a logic error and panics, catching causality bugs at their source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "clock moved backwards: {} -> {}",
            self.now,
            t
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_nanos(5));
        c.advance_to(SimTime::from_nanos(5)); // same instant is fine
        assert_eq!(c.now(), SimTime::from_nanos(5));
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn clock_rejects_time_travel() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_nanos(5));
        c.advance_to(SimTime::from_nanos(4));
    }
}
