//! Simulated time.
//!
//! The paper's MLSim parameters (Figure 6) are given in microseconds with two
//! decimal digits (e.g. `put_msg_time 0.05`). We store time as an integer
//! number of **nanoseconds** so that arithmetic is exact and ordering is
//! total; `0.04 µs` becomes 40 ns with no floating-point drift across the
//! millions of events of a long simulation.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// paper's models never need the distinction and one type keeps the
/// arithmetic honest.
///
/// # Examples
///
/// ```
/// use aputil::SimTime;
///
/// let hop = SimTime::from_micros_f64(0.16);
/// let four_hops = hop * 4;
/// assert_eq!(four_hops.as_micros_f64(), 0.64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant, origin of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely late" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from a fractional microsecond count, rounding to the
    /// nearest nanosecond. This is the natural constructor for Figure-6
    /// parameter values.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "SimTime::from_micros_f64: invalid duration {us}"
        );
        let ns = us * 1_000.0;
        assert!(ns <= u64::MAX as f64, "SimTime overflow: {us} µs");
        SimTime(ns.round() as u64)
    }

    /// Whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as fractional milliseconds (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - other`, floored at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Multiplies a per-unit cost by a count with saturation, e.g.
    /// `per_byte * message_size`.
    #[inline]
    pub fn saturating_mul(self, n: u64) -> SimTime {
        SimTime(self.0.saturating_mul(n))
    }

    /// Checked multiplication, `None` on overflow — for cost arithmetic
    /// that must surface overflow instead of clamping sim time.
    #[inline]
    pub fn checked_mul(self, n: u64) -> Option<SimTime> {
        self.0.checked_mul(n).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime addition overflowed"),
        )
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_sub`] when that is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflowed"),
        )
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(
            self.0
                .checked_mul(rhs)
                .expect("SimTime multiplication overflowed"),
        )
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn micros_round_trip() {
        let t = SimTime::from_micros_f64(0.16);
        assert_eq!(t.as_nanos(), 160);
        assert!((t.as_micros_f64() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn figure6_values_are_exact() {
        // Every parameter value printed in Figure 6 must be representable
        // exactly in nanoseconds.
        for us in [1.0, 0.16, 20.0, 15.0, 0.05, 0.04, 0.5, 0.125, 0.0] {
            let t = SimTime::from_micros_f64(us);
            assert_eq!(t.as_nanos() as f64, us * 1000.0);
        }
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((b * 3).as_nanos(), 120);
        assert_eq!((a / 2).as_nanos(), 50);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_micros_panics() {
        let _ = SimTime::from_micros_f64(-1.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_nanos(1500).to_string(), "1.500µs");
        assert_eq!(SimTime::from_nanos(2_000_000).to_string(), "2.000ms");
        assert_eq!(SimTime::from_nanos(2_500_000_000).to_string(), "2.500s");
    }

    #[test]
    fn saturating_mul_caps() {
        assert_eq!(SimTime::MAX.saturating_mul(2), SimTime::MAX);
        assert_eq!(SimTime::from_nanos(3).saturating_mul(4).as_nanos(), 12);
    }
}
