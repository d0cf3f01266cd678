//! Integer simulation clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time, measured in integer microseconds since the
/// start of the run.
///
/// An integer clock keeps the future-event list's ordering exact: two
/// events scheduled from the same arithmetic always compare identically,
/// so simulations are bit-reproducible given the same seed. Microsecond
/// resolution is 5000× finer than the finest constant in the paper's
/// parameter table (5 ms service time), so rounding is negligible.
///
/// # Examples
///
/// ```
/// use radar_simcore::{SimDuration, SimTime};
/// let t = SimTime::from_secs(1.5) + SimDuration::from_millis(250.0);
/// assert_eq!(t.as_secs(), 1.75);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from (non-negative, finite) seconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// The time as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The time as floating-point seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction producing a duration (zero if `earlier` is
    /// actually later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

/// A span of simulated time in integer microseconds.
///
/// # Examples
///
/// ```
/// use radar_simcore::SimDuration;
/// let d = SimDuration::from_millis(10.0) * 3;
/// assert_eq!(d.as_secs(), 0.03);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from (non-negative, finite) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }

    /// Creates a duration from (non-negative, finite) milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative, NaN, or too large to represent.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1e3)
    }

    /// The duration as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration as floating-point seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time must be finite and non-negative, got {secs}"
    );
    let micros = secs * MICROS_PER_SEC as f64;
    assert!(
        micros <= u64::MAX as f64,
        "time {secs}s overflows the simulation clock"
    );
    micros.round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// The time `rhs` later.
    ///
    /// # Panics
    ///
    /// Panics if the sum is beyond [`SimTime::MAX`]. Scenario validation
    /// keeps every time and delay below 2^53 µs, so the event loop never
    /// gets near.
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("scenario validation bounds the clock"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Duration between two times.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, wraps in release) if `rhs` is later than
    /// `self`; use [`SimTime::saturating_since`] when order is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_secs(1.0).as_micros(), 1_000_000);
        assert_eq!(SimTime::from_micros(500).as_secs(), 0.0005);
        assert_eq!(SimDuration::from_millis(10.0).as_micros(), 10_000);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn rounding_to_nearest_microsecond() {
        assert_eq!(SimTime::from_secs(0.0000004).as_micros(), 0);
        assert_eq!(SimTime::from_secs(0.0000006).as_micros(), 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let _ = SimDuration::from_secs(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(2.0);
        let d = SimDuration::from_secs(0.5);
        assert_eq!((t + d).as_secs(), 2.5);
        assert_eq!((t + d) - t, d);
        assert_eq!((d * 4).as_secs(), 2.0);
        assert_eq!((d / 2).as_secs(), 0.25);
        let mut acc = t;
        acc += d;
        assert_eq!(acc.as_secs(), 2.5);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(b.saturating_since(a).as_secs(), 2.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1.0) < SimTime::from_secs(1.000001));
        assert!(SimTime::MAX > SimTime::from_secs(1e9));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=3).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 6.0);
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_millis(2.0).to_string(), "0.002000s");
    }
}
