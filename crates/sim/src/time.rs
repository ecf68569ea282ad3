//! Virtual time for the discrete-event simulation.
//!
//! All simulated clocks in this workspace are expressed in *virtual
//! nanoseconds*. The unit is arbitrary but calibrated loosely to the wall
//! clock of the Jureca-DC nodes used in the paper, so that overheads and
//! run times land on a familiar scale.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `VirtualTime` is a monotone, totally ordered timestamp. It never goes
/// backwards on a location; the engine enforces this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(pub u64);

impl VirtualTime {
    /// Simulation epoch.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Raw nanosecond value.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reports).
    #[inline]
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration since an earlier instant. Saturates at zero rather than
    /// panicking so that analysis code can take differences defensively.
    #[inline]
    pub fn saturating_since(self, earlier: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }
}

impl VirtualDuration {
    /// Zero-length span.
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        VirtualDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VirtualDuration(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        VirtualDuration((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanosecond value.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Scale by a non-negative factor, rounding to the nearest nanosecond.
    ///
    /// Used by the contention and noise models, which express perturbations
    /// as multiplicative factors on a base duration.
    #[inline]
    pub fn scale(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "duration scale factor must be >= 0");
        VirtualDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = VirtualDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`VirtualTime::saturating_since`] where inversion is possible.
    #[inline]
    fn sub(self, rhs: VirtualTime) -> VirtualDuration {
        debug_assert!(self.0 >= rhs.0, "virtual time went backwards");
        VirtualDuration(self.0 - rhs.0)
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualDuration {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn sub(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for VirtualDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: VirtualDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn mul(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 * rhs)
    }
}

impl Div<u64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn div(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 / rhs)
    }
}

impl Sum for VirtualDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(VirtualDuration::ZERO, Add::add)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_to_time() {
        let t = VirtualTime(100) + VirtualDuration(50);
        assert_eq!(t, VirtualTime(150));
    }

    #[test]
    fn subtract_times_yields_duration() {
        assert_eq!(VirtualTime(150) - VirtualTime(100), VirtualDuration(50));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(VirtualTime(10).saturating_since(VirtualTime(100)), VirtualDuration::ZERO);
        assert_eq!(VirtualTime(100).saturating_since(VirtualTime(10)), VirtualDuration(90));
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(VirtualDuration(100).scale(1.5), VirtualDuration(150));
        assert_eq!(VirtualDuration(3).scale(0.5), VirtualDuration(2)); // 1.5 rounds to 2
        assert_eq!(VirtualDuration(100).scale(0.0), VirtualDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(VirtualDuration::from_micros(1), VirtualDuration(1_000));
        assert_eq!(VirtualDuration::from_millis(1), VirtualDuration(1_000_000));
        assert_eq!(VirtualDuration::from_secs_f64(1.5), VirtualDuration(1_500_000_000));
        assert_eq!(VirtualDuration::from_secs_f64(-1.0), VirtualDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(VirtualDuration(12).to_string(), "12ns");
        assert_eq!(VirtualDuration(12_000).to_string(), "12.000us");
        assert_eq!(VirtualDuration(12_000_000).to_string(), "12.000ms");
        assert_eq!(VirtualDuration(1_200_000_000).to_string(), "1.200s");
    }

    #[test]
    fn sum_of_durations() {
        let total: VirtualDuration =
            [VirtualDuration(1), VirtualDuration(2), VirtualDuration(3)].into_iter().sum();
        assert_eq!(total, VirtualDuration(6));
    }
}
