//! Arbitrary popularity distributions, e.g. measured from access logs.

use radar_core::ObjectId;
use radar_simcore::SimRng;
use radar_simnet::NodeId;

use crate::Workload;

/// A workload drawing objects from an explicit popularity table — the
/// bridge from measured traces (the paper's companion report runs
/// trace-driven simulations) to this repository's synthetic harness:
/// histogram your log into per-object weights and replay the
/// distribution.
///
/// Sampling is O(log n) by binary search over the cumulative weights.
///
/// # Examples
///
/// ```
/// use radar_simcore::SimRng;
/// use radar_simnet::NodeId;
/// use radar_workload::{Weighted, Workload};
///
/// // Object 2 is ten times as popular as objects 0 and 1.
/// let mut w = Weighted::new(vec![1.0, 1.0, 10.0])?;
/// let mut rng = SimRng::seed_from(1);
/// let draws: Vec<_> = (0..100).map(|_| w.choose(0.0, NodeId::new(0), &mut rng)).collect();
/// assert!(draws.iter().filter(|o| o.index() == 2).count() > 50);
/// # Ok::<(), radar_workload::WeightedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Weighted {
    cumulative: Vec<f64>,
    total: f64,
}

/// Why a weight table was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightedError {
    /// The table was empty.
    Empty,
    /// A weight was negative, NaN, or infinite.
    BadWeight {
        /// Index of the offending weight.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// All weights were zero.
    AllZero,
}

impl std::fmt::Display for WeightedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightedError::Empty => f.write_str("popularity table is empty"),
            WeightedError::BadWeight { index, value } => {
                write!(f, "weight {index} is not finite and non-negative: {value}")
            }
            WeightedError::AllZero => f.write_str("all weights are zero"),
        }
    }
}

impl std::error::Error for WeightedError {}

impl Weighted {
    /// Builds the sampler from per-object weights (index = object id).
    /// Zero weights are allowed (those objects are never drawn) as long
    /// as at least one weight is positive.
    ///
    /// # Errors
    ///
    /// Returns [`WeightedError`] for an empty table, non-finite or
    /// negative entries, or an all-zero table.
    pub fn new(weights: Vec<f64>) -> Result<Self, WeightedError> {
        if weights.is_empty() {
            return Err(WeightedError::Empty);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for (index, &value) in weights.iter().enumerate() {
            if !(value.is_finite() && value >= 0.0) {
                return Err(WeightedError::BadWeight { index, value });
            }
            total += value;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(WeightedError::AllZero);
        }
        Ok(Self { cumulative, total })
    }

    /// Number of objects in the table.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` if the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

impl Workload for Weighted {
    fn choose(&mut self, _now: f64, _gateway: NodeId, rng: &mut SimRng) -> ObjectId {
        let pick = rng.unit() * self.total;
        // partition_point: first index whose cumulative weight exceeds
        // the pick. Zero-weight objects have zero-length intervals and
        // are skipped naturally.
        let idx = self.cumulative.partition_point(|&c| c <= pick);
        ObjectId::new(idx.min(self.cumulative.len() - 1) as u32)
    }

    fn name(&self) -> &str {
        "weighted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_histogram(w: &mut Weighted, n: usize) -> Vec<usize> {
        let mut rng = SimRng::seed_from(99);
        let mut hist = vec![0usize; w.len()];
        for _ in 0..n {
            hist[w.choose(0.0, NodeId::new(0), &mut rng).index()] += 1;
        }
        hist
    }

    #[test]
    fn frequencies_match_weights() {
        let mut w = Weighted::new(vec![1.0, 3.0, 6.0]).unwrap();
        let hist = draw_histogram(&mut w, 30_000);
        let f: Vec<f64> = hist.iter().map(|&c| c as f64 / 30_000.0).collect();
        assert!((f[0] - 0.1).abs() < 0.01, "{f:?}");
        assert!((f[1] - 0.3).abs() < 0.01, "{f:?}");
        assert!((f[2] - 0.6).abs() < 0.01, "{f:?}");
    }

    #[test]
    fn zero_weight_objects_never_drawn() {
        let mut w = Weighted::new(vec![0.0, 1.0, 0.0, 1.0]).unwrap();
        let hist = draw_histogram(&mut w, 5_000);
        assert_eq!(hist[0], 0);
        assert_eq!(hist[2], 0);
        assert!(hist[1] > 0 && hist[3] > 0);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(Weighted::new(vec![]).unwrap_err(), WeightedError::Empty);
        assert!(matches!(
            Weighted::new(vec![1.0, -2.0]).unwrap_err(),
            WeightedError::BadWeight { index: 1, .. }
        ));
        assert!(matches!(
            Weighted::new(vec![1.0, f64::NAN]).unwrap_err(),
            WeightedError::BadWeight { index: 1, .. }
        ));
        assert_eq!(
            Weighted::new(vec![0.0, 0.0]).unwrap_err(),
            WeightedError::AllZero
        );
        for e in [
            WeightedError::Empty,
            WeightedError::AllZero,
            WeightedError::BadWeight {
                index: 0,
                value: -1.0,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
