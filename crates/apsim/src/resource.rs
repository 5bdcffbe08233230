//! Serially-occupied hardware resources.

use aputil::SimTime;

/// A hardware unit that serves one job at a time.
///
/// DMA engines, T-net links, and the B-net bus all share the same timing
/// shape: a job arriving at time `t` starts at `max(t, busy_until)`, holds
/// the unit for its duration, and pushes `busy_until` forward. `Resource`
/// captures that shape once.
///
/// # Examples
///
/// ```
/// use apsim::Resource;
/// use aputil::SimTime;
///
/// let mut link = Resource::new();
/// let (s1, e1) = link.reserve(SimTime::ZERO, SimTime::from_nanos(100));
/// assert_eq!((s1.as_nanos(), e1.as_nanos()), (0, 100));
/// // A job arriving at t=40 must wait for the link to free up.
/// let (s2, e2) = link.reserve(SimTime::from_nanos(40), SimTime::from_nanos(10));
/// assert_eq!((s2.as_nanos(), e2.as_nanos()), (100, 110));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resource {
    busy_until: SimTime,
}

impl Resource {
    /// A resource that is free from time zero.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Reserves the resource for a job arriving at `earliest` that needs it
    /// for `duration`. Returns the `(start, end)` of the granted occupation.
    pub fn reserve(&mut self, earliest: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = earliest.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        (start, end)
    }

    /// The time at which the resource next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn back_to_back_jobs_serialize() {
        let mut r = Resource::new();
        let (_, e1) = r.reserve(ns(0), ns(50));
        let (s2, e2) = r.reserve(ns(0), ns(50));
        assert_eq!(s2, e1);
        assert_eq!(e2, ns(100));
    }

    #[test]
    fn an_idle_gap_is_not_waited_out() {
        let mut r = Resource::new();
        r.reserve(ns(0), ns(10));
        let (s, e) = r.reserve(ns(100), ns(10));
        assert_eq!((s, e), (ns(100), ns(110)));
        assert_eq!(r.busy_until(), ns(110));
    }

    #[test]
    fn zero_duration_job_is_instant() {
        let mut r = Resource::new();
        let (s, e) = r.reserve(ns(5), SimTime::ZERO);
        assert_eq!(s, e);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Grants never overlap and never start before the job arrives.
        #[test]
        fn grants_are_disjoint_and_causal(
            jobs in proptest::collection::vec((0u64..1000, 0u64..100), 1..100)
        ) {
            let mut r = Resource::new();
            let mut arrivals: Vec<(u64, u64)> = jobs;
            // Resource semantics assume nondecreasing arrival inspection is
            // NOT required — jobs may arrive in any order; grants still
            // serialize. Track the previous end.
            let mut prev_end = SimTime::ZERO;
            for (arr, dur) in arrivals.drain(..) {
                let (s, e) = r.reserve(SimTime::from_nanos(arr), SimTime::from_nanos(dur));
                prop_assert!(s >= SimTime::from_nanos(arr));
                prop_assert!(s >= prev_end);
                prop_assert_eq!(e, s + SimTime::from_nanos(dur));
                prev_end = e;
            }
        }
    }
}
