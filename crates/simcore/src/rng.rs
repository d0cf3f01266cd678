//! Seeded random number generation for reproducible experiments.
//!
//! The generator is a self-contained xoshiro256++ implementation seeded
//! through SplitMix64, so the whole workspace builds without any external
//! crates and every stream is stable across platforms and compiler
//! versions.

/// The simulation's random number generator: xoshiro256++ seeded from a
/// single `u64` via SplitMix64, with the handful of sampling helpers the
/// workloads need.
///
/// Every experiment in the reproduction is a pure function of
/// `(scenario, seed)`; all randomness flows through this type.
///
/// # Examples
///
/// ```
/// use radar_simcore::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.index(1000), b.index(1000)); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = splitmix64(&mut sm);
        }
        // SplitMix64 cannot emit four zeros for any seed, but guard the
        // all-zero fixed point anyway.
        if state == [0; 4] {
            state = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { state }
    }

    /// Derives an independent child generator, e.g. one per traffic
    /// source, so adding a source does not perturb the others' streams.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the stream id into fresh seed material drawn from self.
        let base = self.next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit output of the generator.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// A uniform `f64` in `[0, 1)`, built from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, len)`.
    ///
    /// Uses Lemire's widening-multiply rejection method, so every index
    /// is exactly equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot sample an index from an empty collection");
        let n = len as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            // Reject the partial final stripe to stay unbiased.
            if lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed sample with the given `rate`
    /// (mean `1/rate`), for Poisson arrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive and finite, got {rate}"
        );
        // Inverse-CDF; 1-unit() is in (0,1] so ln() is finite.
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5, "streams should diverge, {same} collisions");
    }

    #[test]
    fn forked_streams_are_independent_and_reproducible() {
        let mut root1 = SimRng::seed_from(99);
        let mut root2 = SimRng::seed_from(99);
        let mut c1 = root1.fork(3);
        let mut c2 = root2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut root3 = SimRng::seed_from(99);
        let mut other = root3.fork(4);
        // Extremely unlikely to collide if streams differ.
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn unit_mean_close_to_half() {
        let mut r = SimRng::seed_from(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(5.0)); // clamped
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn index_bounds() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn index_covers_all_values() {
        let mut r = SimRng::seed_from(8);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn index_of_empty_panics() {
        let mut r = SimRng::seed_from(3);
        let _ = r.index(0);
    }

    #[test]
    #[should_panic(expected = "exponential rate")]
    fn bad_exponential_rate_panics() {
        let mut r = SimRng::seed_from(3);
        let _ = r.exponential(0.0);
    }
}
