//! Protocol tuning parameters (paper Table 1 and §4.2).

use std::fmt;

/// `MIGR_RATIO` (Figs. 3–5): the fraction of an object's preference
/// paths a candidate must lie on to attract a geo-migration.
pub const MIGR_RATIO: f64 = 0.6;

/// `REPL_RATIO` (Figs. 3–5): the fraction required to attract a
/// geo-replication.
pub const REPL_RATIO: f64 = 1.0 / 6.0;

// §4.2: `MIGR_RATIO > 0.5` keeps two nodes from each seeing a majority
// and ping-ponging an object between them, and `REPL_RATIO < MIGR_RATIO`
// is needed "for replication to ever take place".
const _: () = assert!(MIGR_RATIO > 0.5 && REPL_RATIO < MIGR_RATIO);

/// Bytes per object (Table 1's 12-KB objects): the size of the default
/// scenario's catalog. The `LedgerConfig` and `MetricsConfig` defaults in
/// `radar-obs`, a crate below this one, repeat the literal, and the log
/// readers price copies with them.
pub const OBJECT_SIZE: u64 = 12 * 1024;

/// All tunable parameters of the protocol, with the constraints the paper
/// derives for stability.
///
/// | Field | Paper symbol | Paper value |
/// |---|---|---|
/// | `low_watermark` | lw | 80 req/s (40 in the high-load runs) |
/// | `high_watermark` | hw | 90 req/s (50 in the high-load runs) |
/// | `deletion_threshold` | u | 0.03 req/s |
/// | `replication_threshold` | m | 6u = 0.18 req/s |
/// | `distribution_constant` | the "2" in Fig. 2 | 2.0 |
/// | `placement_period` | inter-placement time | 100 s |
/// | `measurement_interval` | load measurement interval | 20 s |
///
/// The two path-share ratios of Figs. 3–5 are the constants
/// [`MIGR_RATIO`] and [`REPL_RATIO`]. Constraints checked by
/// [`Params::check`], which the simulator's scenario builder calls on
/// every run's parameters:
///
/// * `4u < m` — Theorem 5's stability condition: replicas created by a
///   replication can never immediately fall below the deletion threshold,
///   so replicate→delete cycles cannot occur;
/// * `lw < hw`, and all rates/periods positive.
///
/// # Examples
///
/// ```
/// use radar_core::Params;
/// let p = Params::paper();
/// assert_eq!(p.high_watermark, 90.0);
/// assert!(4.0 * p.deletion_threshold < p.replication_threshold);
///
/// let high_load = Params { low_watermark: 40.0, high_watermark: 50.0, ..p };
/// assert_eq!(high_load, Params::paper_high_load());
/// assert!(high_load.check().is_ok());
/// let inverted = Params { low_watermark: 95.0, ..p };
/// assert!(inverted.check().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Low load watermark `lw` (requests/second).
    pub low_watermark: f64,
    /// High load watermark `hw` (requests/second).
    pub high_watermark: f64,
    /// Deletion threshold `u` (requests/second per affinity unit).
    pub deletion_threshold: f64,
    /// Replication threshold `m` (requests/second per affinity unit).
    pub replication_threshold: f64,
    /// The constant of the request distribution algorithm (Fig. 2): the
    /// closest replica keeps receiving requests until its unit request
    /// count exceeds `constant ×` the minimum unit request count.
    pub distribution_constant: f64,
    /// Seconds between placement-decision runs on each host.
    pub placement_period: f64,
    /// Seconds per load measurement interval (§2.1).
    pub measurement_interval: f64,
}

impl Params {
    /// The paper's Table 1 configuration (normal-load watermarks
    /// hw=90 / lw=80).
    pub fn paper() -> Self {
        Params {
            low_watermark: 80.0,
            high_watermark: 90.0,
            deletion_threshold: 0.03,
            replication_threshold: 0.18,
            distribution_constant: 2.0,
            placement_period: 100.0,
            measurement_interval: 20.0,
        }
    }

    /// The paper's high-load configuration (Fig. 9): hw=50 / lw=40, all
    /// other parameters as in [`Params::paper`].
    pub fn paper_high_load() -> Self {
        Params {
            low_watermark: 40.0,
            high_watermark: 50.0,
            ..Self::paper()
        }
    }

    /// Checks the §4.2 constraints listed on [`Params`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the first violated constraint.
    pub fn check(&self) -> Result<(), ParamsError> {
        let p = self;
        let positives = [
            ("low_watermark", p.low_watermark),
            ("high_watermark", p.high_watermark),
            ("deletion_threshold", p.deletion_threshold),
            ("replication_threshold", p.replication_threshold),
            ("distribution_constant", p.distribution_constant),
            ("placement_period", p.placement_period),
            ("measurement_interval", p.measurement_interval),
        ];
        for (field, value) in positives {
            if !(value.is_finite() && value > 0.0) {
                return Err(ParamsError::NonPositive { field, value });
            }
        }
        if p.low_watermark >= p.high_watermark {
            return Err(ParamsError::WatermarksInverted {
                low: p.low_watermark,
                high: p.high_watermark,
            });
        }
        if 4.0 * p.deletion_threshold >= p.replication_threshold {
            return Err(ParamsError::ThresholdsUnstable {
                deletion: p.deletion_threshold,
                replication: p.replication_threshold,
            });
        }
        if p.distribution_constant <= 1.0 {
            return Err(ParamsError::DistributionConstantTooLow(
                p.distribution_constant,
            ));
        }
        Ok(())
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::paper()
    }
}

/// Why a parameter set was rejected. See [`Params`] for the constraint
/// rationale.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// A field that must be strictly positive and finite was not.
    NonPositive {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `lw ≥ hw`.
    WatermarksInverted {
        /// Low watermark.
        low: f64,
        /// High watermark.
        high: f64,
    },
    /// `4u ≥ m`, violating Theorem 5's stability condition.
    ThresholdsUnstable {
        /// Deletion threshold `u`.
        deletion: f64,
        /// Replication threshold `m`.
        replication: f64,
    },
    /// Distribution constant must exceed 1 (at 1 the closest replica
    /// never gets preference).
    DistributionConstantTooLow(f64),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::NonPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ParamsError::WatermarksInverted { low, high } => {
                write!(f, "low watermark {low} must be below high watermark {high}")
            }
            ParamsError::ThresholdsUnstable {
                deletion,
                replication,
            } => write!(
                f,
                "stability requires 4·u < m (theorem 5), got u={deletion}, m={replication}"
            ),
            ParamsError::DistributionConstantTooLow(v) => {
                write!(f, "distribution constant must exceed 1, got {v}")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_match_table_1() {
        let p = Params::paper();
        assert_eq!(p.low_watermark, 80.0);
        assert_eq!(p.high_watermark, 90.0);
        assert_eq!(p.deletion_threshold, 0.03);
        assert_eq!(p.replication_threshold, 0.18);
        assert_eq!(p.distribution_constant, 2.0);
        assert_eq!(p.placement_period, 100.0);
        assert_eq!(p.measurement_interval, 20.0);
    }

    #[test]
    fn high_load_params_lower_watermarks_only() {
        let p = Params::paper_high_load();
        assert_eq!(p.low_watermark, 40.0);
        assert_eq!(p.high_watermark, 50.0);
        assert_eq!(p.deletion_threshold, Params::paper().deletion_threshold);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Params::default(), Params::paper());
    }

    #[test]
    fn paper_params_pass_the_check() {
        assert_eq!(Params::paper().check(), Ok(()));
        assert_eq!(Params::paper_high_load().check(), Ok(()));
    }

    #[test]
    fn inverted_watermarks_rejected() {
        let err = Params {
            low_watermark: 90.0,
            high_watermark: 80.0,
            ..Params::paper()
        }
        .check()
        .unwrap_err();
        assert!(matches!(err, ParamsError::WatermarksInverted { .. }));
    }

    fn thresholds(deletion_threshold: f64, replication_threshold: f64) -> Params {
        Params {
            deletion_threshold,
            replication_threshold,
            ..Params::paper()
        }
    }

    fn constant(distribution_constant: f64) -> Params {
        Params {
            distribution_constant,
            ..Params::paper()
        }
    }

    #[test]
    fn theorem5_constraint_enforced() {
        let err = thresholds(0.05, 0.2).check().unwrap_err();
        assert!(matches!(err, ParamsError::ThresholdsUnstable { .. }));
        // Exactly 4u == m is also rejected (strict inequality).
        let err = thresholds(0.05, 0.05 * 4.0).check().unwrap_err();
        assert!(matches!(err, ParamsError::ThresholdsUnstable { .. }));
    }

    #[test]
    fn distribution_constant_above_one() {
        let err = constant(1.0).check().unwrap_err();
        assert!(matches!(err, ParamsError::DistributionConstantTooLow(_)));
    }

    #[test]
    fn non_positive_fields_rejected() {
        let err = Params {
            placement_period: 0.0,
            ..Params::paper()
        }
        .check()
        .unwrap_err();
        assert!(matches!(
            err,
            ParamsError::NonPositive {
                field: "placement_period",
                ..
            }
        ));
        let err = Params {
            measurement_interval: f64::NAN,
            ..Params::paper()
        }
        .check()
        .unwrap_err();
        assert!(matches!(err, ParamsError::NonPositive { .. }));
    }

    #[test]
    fn error_display_nonempty() {
        let inverted = Params {
            low_watermark: 90.0,
            high_watermark: 80.0,
            ..Params::paper()
        };
        for p in [inverted, thresholds(1.0, 1.0), constant(0.5)] {
            assert!(!p.check().unwrap_err().to_string().is_empty());
        }
    }
}
