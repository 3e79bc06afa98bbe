//! Virtual time: nanosecond-resolution instants and durations.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The epoch (simulation boot).
    pub const ZERO: SimTime = SimTime(0);

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {earlier} > {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns this instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns this instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `n` nanoseconds.
    pub const fn nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Creates a duration of `n` microseconds.
    pub const fn micros(n: u64) -> Self {
        SimDuration(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Saturates at the end of time (`u64::MAX` ns, about 584 years): a
/// deadline past it never fires, instead of wrapping to before `now`.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
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
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::micros(1).0, 1_000);
        assert_eq!(SimDuration::millis(1).0, 1_000_000);
        assert_eq!(SimDuration::secs(1).0, 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).0, 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0).0, 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::millis(5);
        assert_eq!(t.0, 5_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::millis(5));
        assert_eq!(t - SimDuration::millis(2), SimTime(3_000_000));
    }

    #[test]
    fn time_add_saturates_instead_of_wrapping() {
        // `from_secs_f64` saturates a huge span at u64::MAX ns; adding
        // it to a later instant must not wrap to before that instant.
        let now = SimTime(5_000_000_000);
        let huge = SimDuration::from_secs_f64(1e12);
        assert_eq!(huge, SimDuration(u64::MAX));
        let deadline = now + huge;
        assert_eq!(deadline, SimTime(u64::MAX));
        assert!(deadline.since(now) > SimDuration::secs(1));
        let mut t = now;
        t += huge;
        assert_eq!(t, SimTime(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_rejects_reversed_order() {
        SimTime(1).since(SimTime(2));
    }

    #[test]
    fn duration_arithmetic_saturates_on_sub() {
        let a = SimDuration::millis(1);
        let b = SimDuration::millis(3);
        assert_eq!(b - a, SimDuration::millis(2));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a * 4, SimDuration::millis(4));
        assert_eq!(SimDuration::millis(4) / 2, SimDuration::millis(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::secs(2).to_string(), "2.000s");
        assert_eq!(SimTime(1_500_000_000).to_string(), "t=1.500000s");
    }
}
