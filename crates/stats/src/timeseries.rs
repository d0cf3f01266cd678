//! Fixed-width time-binned accumulation.

/// Specification of the binning grid for a [`TimeSeries`]: bins of equal
/// `width` seconds starting at time zero.
///
/// # Examples
///
/// ```
/// use radar_stats::BinSpec;
/// let spec = BinSpec::new(20.0);
/// assert_eq!(spec.bin_index(0.0), 0);
/// assert_eq!(spec.bin_index(19.999), 0);
/// assert_eq!(spec.bin_index(20.0), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinSpec {
    width: f64,
}

impl BinSpec {
    /// Creates a grid of bins of `width` seconds starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive and finite.
    pub fn new(width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "bin width must be positive and finite, got {width}"
        );
        Self { width }
    }

    /// Width of each bin in seconds.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Index of the bin containing time `t`. Negative times clamp to
    /// bin 0.
    pub fn bin_index(&self, t: f64) -> usize {
        let rel = t / self.width;
        if rel <= 0.0 {
            0
        } else {
            rel.floor() as usize
        }
    }

    /// Start time of bin `i`.
    pub fn bin_start(&self, i: usize) -> f64 {
        i as f64 * self.width
    }
}

/// A time series of `(sum, count)` accumulators over fixed-width bins.
///
/// One structure serves two roles in the evaluation harness:
///
/// * **extensive quantities** (bytes×hops transferred, requests served):
///   read [`bin_sum`](Self::bin_sum) or [`sums`](Self::sums);
/// * **intensive quantities** (response latency): record each sample and
///   read [`bin_mean`](Self::bin_mean) or
///   [`means_filled`](Self::means_filled).
///
/// Bins are created lazily; recording at time `t` grows the vector to cover
/// `t`. Missing trailing bins read as zero sum / zero count.
///
/// # Examples
///
/// ```
/// use radar_stats::{BinSpec, TimeSeries};
/// let mut lat = TimeSeries::new(BinSpec::new(10.0));
/// lat.record(1.0, 0.25);
/// lat.record(2.0, 0.75);
/// assert_eq!(lat.bin_mean(0), Some(0.5));
/// assert_eq!(lat.bin_mean(5), None); // no samples there
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    spec: BinSpec,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates an empty series over the given binning grid.
    pub fn new(spec: BinSpec) -> Self {
        Self {
            spec,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The binning grid.
    pub fn spec(&self) -> BinSpec {
        self.spec
    }

    /// Records sample `value` at time `t`.
    pub fn record(&mut self, t: f64, value: f64) {
        let i = self.spec.bin_index(t);
        if i >= self.sums.len() {
            self.sums.resize(i + 1, 0.0);
            self.counts.resize(i + 1, 0);
        }
        self.sums[i] += value;
        self.counts[i] += 1;
    }

    /// Number of bins that have been touched (the series length).
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Sum of samples in bin `i` (zero if the bin was never touched).
    pub fn bin_sum(&self, i: usize) -> f64 {
        self.sums.get(i).copied().unwrap_or(0.0)
    }

    /// Number of samples in bin `i`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Mean of samples in bin `i`, or `None` if the bin holds no samples.
    pub fn bin_mean(&self, i: usize) -> Option<f64> {
        let c = self.bin_count(i);
        if c == 0 {
            None
        } else {
            Some(self.bin_sum(i) / c as f64)
        }
    }

    /// All bin sums in order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// All bin counts in order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin means with empty bins carried forward from the previous
    /// non-empty bin (and `0.0` before the first sample). Convenient for
    /// plotting continuous lines.
    pub fn means_filled(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        let mut last = 0.0;
        for i in 0..self.len() {
            if let Some(m) = self.bin_mean(i) {
                last = m;
            }
            out.push(last);
        }
        out
    }

    /// Per-bin sums divided by the bin width — i.e., a rate series
    /// (units/second). For a bandwidth series recorded in bytes×hops this
    /// yields bytes×hops per second.
    pub fn rates(&self) -> Vec<f64> {
        let w = self.spec.width();
        self.sums.iter().map(|s| s / w).collect()
    }

    /// Total of all sums across bins.
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }

    /// Total sample count across bins.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Discards all bins at index `bins` and beyond. Useful to drop a
    /// trailing partial bin before computing equilibrium statistics.
    pub fn truncate(&mut self, bins: usize) {
        self.sums.truncate(bins);
        self.counts.truncate(bins);
    }

    /// Merges another series recorded on the same grid into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two series use different [`BinSpec`]s.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge time series with different bin specs"
        );
        if other.sums.len() > self.sums.len() {
            self.sums.resize(other.sums.len(), 0.0);
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, (&s, &c)) in other.sums.iter().zip(&other.counts).enumerate() {
            self.sums[i] += s;
            self.counts[i] += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_index_boundaries() {
        let spec = BinSpec::new(100.0);
        assert_eq!(spec.bin_index(0.0), 0);
        assert_eq!(spec.bin_index(99.9999), 0);
        assert_eq!(spec.bin_index(100.0), 1);
        assert_eq!(spec.bin_index(250.0), 2);
    }

    #[test]
    fn bin_index_clamps_negative_times() {
        let spec = BinSpec::new(10.0);
        assert_eq!(spec.bin_index(-1e300), 0);
        assert_eq!(spec.bin_index(-5.0), 0);
        assert_eq!(spec.bin_index(0.0), 0);
        assert_eq!(spec.bin_index(10.0), 1);
    }

    #[test]
    fn bin_start_is_index_times_width() {
        let spec = BinSpec::new(20.0);
        assert_eq!(spec.bin_start(0), 0.0);
        assert_eq!(spec.bin_start(2), 40.0);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_width_rejected() {
        let _ = BinSpec::new(0.0);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn nan_width_rejected() {
        let _ = BinSpec::new(f64::NAN);
    }

    #[test]
    fn record_and_query() {
        let mut ts = TimeSeries::new(BinSpec::new(10.0));
        ts.record(0.0, 5.0);
        ts.record(5.0, 3.0);
        ts.record(25.0, 7.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.bin_sum(0), 8.0);
        assert_eq!(ts.bin_count(0), 2);
        assert_eq!(ts.bin_mean(0), Some(4.0));
        assert_eq!(ts.bin_sum(1), 0.0);
        assert_eq!(ts.bin_mean(1), None);
        assert_eq!(ts.bin_sum(2), 7.0);
        assert_eq!(ts.total(), 15.0);
        assert_eq!(ts.total_count(), 3);
    }

    #[test]
    fn out_of_range_bins_read_zero() {
        let ts = TimeSeries::new(BinSpec::new(10.0));
        assert_eq!(ts.bin_sum(100), 0.0);
        assert_eq!(ts.bin_count(100), 0);
        assert_eq!(ts.bin_mean(100), None);
        assert!(ts.is_empty());
    }

    #[test]
    fn rates_divide_by_width() {
        let mut ts = TimeSeries::new(BinSpec::new(4.0));
        ts.record(0.0, 8.0);
        ts.record(4.5, 2.0);
        assert_eq!(ts.rates(), vec![2.0, 0.5]);
    }

    #[test]
    fn means_filled_carries_forward() {
        let mut ts = TimeSeries::new(BinSpec::new(1.0));
        ts.record(0.5, 2.0);
        ts.record(3.5, 6.0);
        assert_eq!(ts.means_filled(), vec![2.0, 2.0, 2.0, 6.0]);
    }

    #[test]
    fn merge_combines_bins() {
        let spec = BinSpec::new(10.0);
        let mut a = TimeSeries::new(spec);
        a.record(0.0, 1.0);
        let mut b = TimeSeries::new(spec);
        b.record(0.0, 2.0);
        b.record(15.0, 4.0);
        a.merge(&b);
        assert_eq!(a.bin_sum(0), 3.0);
        assert_eq!(a.bin_count(0), 2);
        assert_eq!(a.bin_sum(1), 4.0);
    }

    #[test]
    fn truncate_drops_trailing_bins() {
        let mut ts = TimeSeries::new(BinSpec::new(1.0));
        ts.record(0.5, 1.0);
        ts.record(2.5, 3.0);
        ts.truncate(2);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.bin_sum(2), 0.0);
        ts.truncate(10); // no-op beyond current length
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different bin specs")]
    fn merge_rejects_mismatched_specs() {
        let mut a = TimeSeries::new(BinSpec::new(10.0));
        let b = TimeSeries::new(BinSpec::new(20.0));
        a.merge(&b);
    }
}
