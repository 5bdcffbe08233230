//! The B-net broadcast network.
//!
//! Paper §4: *"a broadcast network, or B-net, for broadcast communication
//! and data distribution and collection"*, 50 MB/s (Figure 5). The B-net is
//! a bus: one sender holds it at a time, and a broadcast reaches every cell
//! at the same instant once the payload has been serialized.

use apsim::Resource;
use aputil::{CellId, SimTime};

/// Timing and arbitration model of the broadcast bus.
///
/// # Examples
///
/// ```
/// use apnet::BNet;
/// use aputil::{CellId, SimTime};
///
/// // The hardware's bus: 0.16 µs prolog, 50 MB/s ⇒ 20 ns per byte.
/// let mut b = BNet::with_params(16, SimTime::from_nanos(160), SimTime::from_nanos(20));
/// let t1 = b.broadcast(SimTime::ZERO, CellId::new(0), 1000);
/// let t2 = b.broadcast(SimTime::ZERO, CellId::new(1), 1000);
/// assert!(t2 > t1, "bus serializes broadcasts");
/// ```
#[derive(Clone, Debug)]
pub struct BNet {
    bus: Resource,
    prolog: SimTime,
    per_byte: SimTime,
    ncells: u32,
}

impl BNet {
    /// Creates a B-net with explicit timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ncells` is zero.
    pub fn with_params(ncells: u32, prolog: SimTime, per_byte: SimTime) -> Self {
        assert!(ncells > 0, "B-net needs at least one cell");
        BNet {
            bus: Resource::new(),
            prolog,
            per_byte,
            ncells,
        }
    }

    /// Broadcasts `size` bytes from `src` at `now`; returns the instant the
    /// payload is visible at **all** cells.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not on the bus.
    pub fn broadcast(&mut self, now: SimTime, src: CellId, size: u64) -> SimTime {
        assert!(
            src.as_u32() < self.ncells,
            "{src} is not on this {}-cell B-net",
            self.ncells
        );
        let hold = self.prolog + self.per_byte.saturating_mul(size);
        let (_, end) = self.bus.reserve(now, hold);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hardware's bus (Figure 5): 0.16 µs prolog, 20 ns per byte.
    fn bnet(ncells: u32) -> BNet {
        BNet::with_params(ncells, SimTime::from_nanos(160), SimTime::from_nanos(20))
    }

    #[test]
    fn latency_is_prolog_plus_serialization() {
        let mut b = bnet(4);
        let t = b.broadcast(SimTime::ZERO, CellId::new(0), 100);
        assert_eq!(t.as_nanos(), 160 + 2000);
    }

    #[test]
    fn bus_arbitration_serializes() {
        let mut b = bnet(4);
        let t1 = b.broadcast(SimTime::ZERO, CellId::new(0), 50);
        let t2 = b.broadcast(SimTime::from_nanos(10), CellId::new(1), 50);
        assert_eq!(t2, t1 + SimTime::from_nanos(160 + 1000));
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut b = bnet(4);
        b.broadcast(SimTime::ZERO, CellId::new(0), 10);
        let late = SimTime::from_nanos(1_000_000);
        let t = b.broadcast(late, CellId::new(2), 0);
        assert_eq!(t, late + SimTime::from_nanos(160));
    }

    #[test]
    #[should_panic(expected = "not on this")]
    fn foreign_cell_panics() {
        let mut b = bnet(2);
        b.broadcast(SimTime::ZERO, CellId::new(5), 1);
    }
}
