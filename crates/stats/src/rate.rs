//! Interval-averaged event rates — the paper's load metric.

/// Events-per-second averaged over consecutive measurement intervals.
///
/// The paper (§2.1, §6.1) measures a host's load as "the rate of serviced
/// requests … averaged over a period called the *load measurement
/// interval*" (20 s in the evaluation). `WindowedRate` implements exactly
/// that: events are counted within the current interval, and when the
/// clock crosses an interval boundary the completed interval's rate
/// becomes the *current measurement*. (`radar_core::HostState` inlines
/// the same windowing because it must roll per-object rates on the same
/// boundary; this standalone meter serves external consumers.)
///
/// The rate reported by [`rate`](Self::rate) is always the rate of the
/// most recently *completed* interval, matching the paper's assumption
/// that "a load measurement taken right after an object relocation event
/// … will not reflect the change".
///
/// # Examples
///
/// ```
/// use radar_stats::WindowedRate;
/// let mut load = WindowedRate::new(20.0);
/// for i in 0..40 {
///     load.record(i as f64 * 0.5); // 2 events/sec for 20s
/// }
/// load.advance_to(20.0);
/// assert_eq!(load.rate(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedRate {
    interval: f64,
    /// Start time of the interval currently being accumulated.
    window_start: f64,
    /// Events counted in the current (incomplete) interval.
    pending: u64,
    /// Rate of the last completed interval.
    current: f64,
}

impl WindowedRate {
    /// Creates a rate meter with the given measurement interval in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not strictly positive and finite.
    pub fn new(interval: f64) -> Self {
        assert!(
            interval.is_finite() && interval > 0.0,
            "measurement interval must be positive and finite, got {interval}"
        );
        Self {
            interval,
            window_start: 0.0,
            pending: 0,
            current: 0.0,
        }
    }

    /// The measurement interval in seconds.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Rolls the window forward so that `t` falls inside the current
    /// interval, completing (and possibly zero-filling) intervals along
    /// the way.
    pub fn advance_to(&mut self, t: f64) {
        while t >= self.window_start + self.interval {
            self.current = self.pending as f64 / self.interval;
            self.pending = 0;
            self.window_start += self.interval;
        }
    }

    /// Records one event at time `t` (advancing the window first).
    ///
    /// Events must be recorded in non-decreasing time order; an event
    /// earlier than the current window start still counts toward the
    /// current window.
    pub fn record(&mut self, t: f64) {
        self.advance_to(t);
        self.pending += 1;
    }

    /// Rate (events/second) of the most recently completed interval.
    pub fn rate(&self) -> f64 {
        self.current
    }

    /// Number of events accumulated in the not-yet-complete interval.
    pub fn pending(&self) -> u64 {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rate_is_zero() {
        let r = WindowedRate::new(10.0);
        assert_eq!(r.rate(), 0.0);
    }

    #[test]
    fn completes_interval_on_advance() {
        let mut r = WindowedRate::new(10.0);
        for i in 0..30 {
            r.record(i as f64 / 3.0); // 3/sec for 10s
        }
        r.advance_to(10.0);
        assert_eq!(r.rate(), 3.0);
    }

    #[test]
    fn idle_intervals_zero_the_rate() {
        let mut r = WindowedRate::new(10.0);
        r.record(1.0);
        r.advance_to(10.0);
        assert_eq!(r.rate(), 0.1);
        r.advance_to(30.0); // two empty intervals pass
        assert_eq!(r.rate(), 0.0);
    }

    #[test]
    fn rate_reflects_only_completed_interval() {
        let mut r = WindowedRate::new(10.0);
        for i in 0..100 {
            r.record(5.0 + i as f64 * 0.01); // burst inside first interval
        }
        // Still inside the first interval: rate is from the (empty) past.
        assert_eq!(r.rate(), 0.0);
        r.advance_to(10.0);
        assert_eq!(r.rate(), 10.0);
    }

    #[test]
    fn an_event_past_skipped_windows_counts_in_its_own() {
        let mut r = WindowedRate::new(5.0);
        r.record(12.0);
        // Recording at 12.0 completed the empty [0,5) and [5,10).
        assert_eq!(r.rate(), 0.0);
        r.advance_to(15.0);
        assert_eq!(r.rate(), 1.0 / 5.0);
    }

    #[test]
    #[should_panic(expected = "measurement interval must be positive")]
    fn zero_interval_rejected() {
        let _ = WindowedRate::new(0.0);
    }
}
