//! The simulation clock value.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation clock.
///
/// `SimTime` wraps an `f64` number of simulation time units (the distributed
/// database model measures everything in mean disk-access times). It differs
/// from a bare `f64` in two ways that matter for a simulation kernel:
///
/// * it is **totally ordered** — constructing a `SimTime` from a NaN panics,
///   so `Ord`/`Eq` are safe to implement and event queues can rely on them;
/// * it is **non-negative** — simulated time starts at [`SimTime::ZERO`] and
///   only moves forward.
///
/// # Example
///
/// ```
/// use dqa_sim::SimTime;
///
/// let t = SimTime::new(2.5) + 1.5;
/// assert_eq!(t, SimTime::new(4.0));
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t - SimTime::new(1.0), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimTime(TotalF64);

/// Private total-order wrapper; invariant: the value is finite and >= 0.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Invariant: never NaN, so total_cmp agrees with partial_cmp.
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for TotalF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(TotalF64(0.0));

    /// Creates a simulation time from a number of time units.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN, infinite, or negative; those values would break
    /// the total ordering that the event queue depends on.
    #[must_use]
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite(), "SimTime must be finite, got {t}");
        assert!(t >= 0.0, "SimTime must be non-negative, got {t}");
        SimTime(TotalF64(t))
    }

    /// Rebuilds a time from the bits of a value that already passed
    /// [`SimTime::new`]'s checks, skipping them (the event queue stores
    /// times as order-preserving keys).
    #[inline]
    pub(crate) fn from_valid_bits(bits: u64) -> Self {
        let t = f64::from_bits(bits);
        debug_assert!(t.is_finite() && t >= 0.0, "not a valid SimTime: {t}");
        SimTime(TotalF64(t))
    }

    /// Returns the clock value as a plain `f64` number of time units.
    #[must_use]
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 .0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0 .0)
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.as_f64()
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances the clock by `rhs` time units.
    ///
    /// # Panics
    ///
    /// Panics if the result would be NaN, infinite, or negative.
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.as_f64() + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;

    /// Returns the (possibly negative) span `self - rhs` in time units.
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.as_f64() - rhs.as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_f64(), 0.0);
    }

    #[test]
    fn ordering_matches_f64() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(10.0);
        assert_eq!((t + 5.0).as_f64(), 15.0);
        assert_eq!(t - SimTime::new(4.0), 6.0);
        let mut u = t;
        u += 2.0;
        assert_eq!(u, SimTime::new(12.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::new(1.5)).is_empty());
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = SimTime::new(f64::INFINITY);
    }

    #[test]
    fn conversion_into_f64() {
        let x: f64 = SimTime::new(3.25).into();
        assert_eq!(x, 3.25);
    }
}
