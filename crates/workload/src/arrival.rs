//! Request arrival processes.

use radar_simcore::SimRng;

/// When requests enter a gateway.
///
/// The paper's simulation uses constant-rate arrivals ("each backbone
/// node generates client requests at a constant rate", 40 req/s per
/// node). [`ArrivalProcess::Deterministic`] reproduces that, and is the
/// only process a simulation scenario runs; no scenario selects
/// [`ArrivalProcess::Poisson`].
///
/// # Examples
///
/// ```
/// use radar_simcore::SimRng;
/// use radar_workload::ArrivalProcess;
///
/// let mut rng = SimRng::seed_from(7);
/// let det = ArrivalProcess::Deterministic { rate: 40.0 };
/// assert_eq!(det.next_interarrival(&mut rng), 0.025);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals at `rate` requests/second.
    Deterministic {
        /// Requests per second.
        rate: f64,
    },
    /// Poisson arrivals (exponential inter-arrival times) at `rate`
    /// requests/second.
    Poisson {
        /// Requests per second (mean).
        rate: f64,
    },
}

impl ArrivalProcess {
    /// The mean arrival rate in requests/second.
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Deterministic { rate } | ArrivalProcess::Poisson { rate } => rate,
        }
    }

    /// Draws the next inter-arrival gap in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the configured rate is not strictly positive and finite.
    pub fn next_interarrival(&self, rng: &mut SimRng) -> f64 {
        let rate = self.rate();
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive and finite, got {rate}"
        );
        match self {
            ArrivalProcess::Deterministic { .. } => 1.0 / rate,
            ArrivalProcess::Poisson { .. } => rng.exponential(rate),
        }
    }

    /// A deterministic per-source phase offset in `[0, 1/rate)`, used to
    /// de-synchronize the constant-rate sources of different gateways
    /// (the paper's nodes are not phase-locked).
    pub fn phase_offset(&self, source_index: usize, num_sources: usize) -> f64 {
        let period = 1.0 / self.rate();
        if num_sources == 0 {
            return 0.0;
        }
        period * (source_index % num_sources) as f64 / num_sources as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_interarrival_is_period() {
        let mut rng = SimRng::seed_from(1);
        let a = ArrivalProcess::Deterministic { rate: 50.0 };
        for _ in 0..10 {
            assert_eq!(a.next_interarrival(&mut rng), 0.02);
        }
        assert_eq!(a.rate(), 50.0);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut rng = SimRng::seed_from(2);
        let a = ArrivalProcess::Poisson { rate: 10.0 };
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| a.next_interarrival(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.1).abs() < 0.005, "mean inter-arrival {mean}");
    }

    #[test]
    fn phase_offsets_spread_within_period() {
        let a = ArrivalProcess::Deterministic { rate: 40.0 };
        let offsets: Vec<f64> = (0..8).map(|i| a.phase_offset(i, 8)).collect();
        for &o in &offsets {
            assert!((0.0..0.025).contains(&o));
        }
        let distinct: std::collections::BTreeSet<u64> =
            offsets.iter().map(|o| (o * 1e9) as u64).collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_rejected() {
        let mut rng = SimRng::seed_from(1);
        let _ = ArrivalProcess::Deterministic { rate: 0.0 }.next_interarrival(&mut rng);
    }
}
