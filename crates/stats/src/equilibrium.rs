//! Equilibrium detection and the paper's adjustment-time metric (Table 2).

use crate::TimeSeries;

/// Fraction of a series, from its end, whose mean is the equilibrium
/// level. The paper runs each simulation long enough for this tail to be
/// flat.
pub const EQUILIBRIUM_TAIL: f64 = 0.25;

/// Allowed excess above equilibrium: the paper computes adjustment time
/// as "the time it takes to reach a bandwidth consumption that is 10%
/// above the average equilibrium bandwidth consumption" (Table 2), so a
/// bin is adjusted when its value is at most `(1 + ADJUSTMENT_MARGIN) ×`
/// the equilibrium mean.
pub const ADJUSTMENT_MARGIN: f64 = 0.10;

/// Result of an adjustment-time computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjustmentOutcome {
    /// Simulation time (seconds, bin start) from which the series stays at
    /// or below the threshold for the remainder of the run.
    pub adjustment_time: f64,
    /// Mean of the tail window used as the equilibrium level.
    pub equilibrium: f64,
    /// The threshold `(1 + ADJUSTMENT_MARGIN) × equilibrium` the series
    /// had to reach.
    pub threshold: f64,
}

/// Mean of the trailing [`EQUILIBRIUM_TAIL`] of the series' bin sums.
///
/// Returns `None` for an empty series. At least one bin is always
/// included, even for a single-bin series.
///
/// # Examples
///
/// ```
/// use radar_stats::{equilibrium_mean, BinSpec, TimeSeries};
/// let mut ts = TimeSeries::new(BinSpec::new(1.0));
/// for (t, v) in [(0.0, 100.0), (1.0, 50.0), (2.0, 10.0), (3.0, 10.0)] {
///     ts.record(t, v);
/// }
/// assert_eq!(equilibrium_mean(&ts), Some(10.0));
/// ```
pub fn equilibrium_mean(series: &TimeSeries) -> Option<f64> {
    let n = series.len();
    if n == 0 {
        return None;
    }
    let tail_len = ((n as f64 * EQUILIBRIUM_TAIL).round() as usize).clamp(1, n);
    let start = n - tail_len;
    let sum: f64 = series.sums()[start..].iter().sum();
    Some(sum / tail_len as f64)
}

/// Computes the paper's Table 2 adjustment time for a bandwidth series.
///
/// Finds the first bin *after which every bin* stays at or below
/// `(1 + ADJUSTMENT_MARGIN) × equilibrium`, and reports that bin's start time. This
/// "stays below" reading avoids declaring adjustment on a transient dip,
/// which matters for series that oscillate while replicas are still being
/// shuffled.
///
/// Returns `None` if the series is empty or never settles below the
/// threshold.
///
/// # Examples
///
/// ```
/// use radar_stats::{adjustment_time, BinSpec, TimeSeries};
/// let mut ts = TimeSeries::new(BinSpec::new(100.0));
/// let values = [100.0, 80.0, 40.0, 11.0, 10.0, 10.0, 10.0, 10.0];
/// for (i, v) in values.iter().enumerate() {
///     ts.record(i as f64 * 100.0, *v);
/// }
/// let out = adjustment_time(&ts).unwrap();
/// assert_eq!(out.adjustment_time, 300.0); // bin with value 11.0 <= 1.1*10
/// ```
pub fn adjustment_time(series: &TimeSeries) -> Option<AdjustmentOutcome> {
    let equilibrium = equilibrium_mean(series)?;
    let threshold = (1.0 + ADJUSTMENT_MARGIN) * equilibrium;
    let sums = series.sums();
    // Walk backwards to find the last bin exceeding the threshold; the
    // adjustment point is the bin after it.
    let mut settled_from = 0usize;
    for (i, &v) in sums.iter().enumerate() {
        if v > threshold {
            settled_from = i + 1;
        }
    }
    if settled_from >= sums.len() {
        return None;
    }
    Some(AdjustmentOutcome {
        adjustment_time: series.spec().bin_start(settled_from),
        equilibrium,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinSpec;

    fn series_of(values: &[f64], width: f64) -> TimeSeries {
        let mut ts = TimeSeries::new(BinSpec::new(width));
        for (i, &v) in values.iter().enumerate() {
            ts.record(i as f64 * width, v);
        }
        ts
    }

    #[test]
    fn equilibrium_mean_of_empty_is_none() {
        let ts = TimeSeries::new(BinSpec::new(1.0));
        assert_eq!(equilibrium_mean(&ts), None);
    }

    #[test]
    fn equilibrium_mean_uses_tail_only() {
        let ts = series_of(&[100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 4.0, 6.0], 1.0);
        assert_eq!(equilibrium_mean(&ts), Some(5.0));
    }

    #[test]
    fn equilibrium_mean_includes_at_least_one_bin() {
        let ts = series_of(&[3.0], 1.0);
        assert_eq!(equilibrium_mean(&ts), Some(3.0));
    }

    #[test]
    fn adjustment_immediately_settled_is_time_zero() {
        let ts = series_of(&[10.0, 10.0, 10.0, 10.0], 100.0);
        let out = adjustment_time(&ts).unwrap();
        assert_eq!(out.adjustment_time, 0.0);
        assert_eq!(out.equilibrium, 10.0);
    }

    #[test]
    fn adjustment_ignores_transient_dip() {
        // Dips below threshold at bin 1 but bounces back above at bin 2;
        // true settling is bin 3.
        let ts = series_of(&[100.0, 10.0, 50.0, 10.0, 10.0, 10.0, 10.0, 10.0], 100.0);
        let out = adjustment_time(&ts).unwrap();
        assert_eq!(out.adjustment_time, 300.0);
    }

    #[test]
    fn never_settles_returns_none() {
        // Last bin spikes above threshold => never settles.
        let ts = series_of(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 100.0], 100.0);
        assert_eq!(adjustment_time(&ts), None);
    }

    #[test]
    fn empty_series_returns_none() {
        let ts = TimeSeries::new(BinSpec::new(1.0));
        assert_eq!(adjustment_time(&ts), None);
    }

    #[test]
    fn threshold_is_margin_above_equilibrium() {
        let ts = series_of(&[50.0, 20.0, 20.0, 20.0], 10.0);
        let out = adjustment_time(&ts).unwrap();
        assert_eq!(out.equilibrium, 20.0);
        assert!((out.threshold - 22.0).abs() < 1e-12);
        assert_eq!(out.adjustment_time, 10.0);
    }
}
