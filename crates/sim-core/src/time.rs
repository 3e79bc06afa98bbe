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
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `n` nanoseconds.
    pub const fn nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn millis(n: u64) -> Self {
        SimDuration(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn secs(n: u64) -> Self {
        SimDuration(n * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero
    /// (and at `u64::MAX` ns), rounded to the nearest nanosecond with
    /// ties away from zero. NaN is zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_to_u64(s.max(0.0) * 1e9))
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
    pub(crate) const fn is_zero(self) -> bool {
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

/// `x.round() as u64` for `x ≥ 0` (or +∞), without the software
/// `round` the baseline x86-64 target calls: truncate, then step up when
/// the dropped fraction is at least one half. Below 2^52 the fraction
/// `x - ⌊x⌋` is exact; from 2^52 on every `f64` is an integer, so it is
/// 0 until the cast saturates, where the step saturates too.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::millis(1).0, 1_000_000);
        assert_eq!(SimDuration::secs(1).0, 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).0, 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0).0, 0);
    }

    /// The conversion `from_secs_f64` replaced, kept as its oracle.
    fn reference(s: f64) -> u64 {
        (s.max(0.0) * 1e9).round() as u64
    }

    #[test]
    fn rounding_matches_round_on_edge_values() {
        let two52 = (1u64 << 52) as f64;
        let two64 = 18_446_744_073_709_551_616.0_f64;
        let xs = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            2.0 * two52,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
        ];
        for x in xs {
            // As seconds, through the multiply, and as nanoseconds.
            for s in [x, x / 1e9, -x] {
                assert_eq!(
                    SimDuration::from_secs_f64(s).0,
                    reference(s),
                    "s = {s:e} ({:#x})",
                    s.to_bits()
                );
            }
            let x = x.max(0.0);
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn rounding_matches_round_on_random_draws() {
        let mut rng = crate::rng::DetRng::new(0x5EC5);
        for _ in 0..200_000 {
            let bits = rng.range(0, u64::MAX);
            // Any bit pattern (every exponent, NaN payloads, both
            // signs), a time-key-sized span, and an exact tie of
            // whole-plus-half nanoseconds below 2^52.
            let any = f64::from_bits(bits);
            let span = (bits >> 11) as f64 / (1u64 << 53) as f64 * 1e6;
            let tie = (bits >> 13) as f64 + 0.5;
            for s in [any, span] {
                assert_eq!(SimDuration::from_secs_f64(s).0, reference(s), "s = {s:e}");
            }
            assert_eq!(round_to_u64(tie), tie.round() as u64, "x = {tie}");
            assert_eq!(
                round_to_u64(any.abs()),
                any.abs().round() as u64,
                "x = {any:e}"
            );
        }
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
        assert_eq!(SimDuration::nanos(12_000).to_string(), "12.000us");
        assert_eq!(SimDuration::millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::secs(2).to_string(), "2.000s");
        assert_eq!(SimTime(1_500_000_000).to_string(), "t=1.500000s");
    }
}
