//! Estimators over repetitions of the same deterministic work.

/// Median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// ones the benchmark is accepted by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let len = v.len();
    let at = |i: usize| {
        // Position i·(len+1)/4 in 1-based ranks, clamped as Python does.
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The smallest of `values` (infinity when empty): the fastest batch,
/// slice or repetition.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The largest of `values` (negative infinity when empty).
pub fn slowest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// Fastest repetition of each slice.
///
/// # Panics
///
/// Panics if there are no repetitions or their slice counts differ.
pub fn slice_best(reps: &[&[f64]]) -> Vec<f64> {
    let first = reps.first().expect("at least one repetition");
    assert!(
        reps.iter().all(|s| s.len() == first.len()),
        "repetitions of one input have the same number of slices"
    );
    (0..first.len())
        .map(|k| fastest(reps.iter().map(|s| s[k])))
        .collect()
}

/// The per-slice composite: same-seed repetitions do bit-identical work
/// in slice `k`, so the best estimate of that slice's cost is the fastest
/// repetition of it; the run's cost is the sum over slices of those
/// minima plus the fastest `finish()`. Interference from a neighbour
/// lengthens some slices of every repetition but rarely the same slice
/// of all of them, so this is steadier than the fastest or median whole
/// repetition. Each repetition is `(slice seconds, finish seconds)`.
///
/// # Panics
///
/// As [`slice_best`].
pub fn slice_composite(reps: &[(&[f64], f64)]) -> f64 {
    let slices: Vec<&[f64]> = reps.iter().map(|&(s, _)| s).collect();
    slice_best(&slices).iter().sum::<f64>() + fastest(reps.iter().map(|&(_, finish)| finish))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_takes_each_slice_from_its_fastest_repetition() {
        let a = [1.0, 5.0, 1.0];
        let b = [2.0, 2.0, 2.0];
        let c = [3.0, 3.0, 0.5];
        let reps: Vec<(&[f64], f64)> = vec![(&a, 0.3), (&b, 0.1), (&c, 0.2)];
        assert_eq!(slice_composite(&reps), 1.0 + 2.0 + 0.5 + 0.1);
        // Never above the fastest whole repetition, never below the sum of
        // global minima.
        let fastest_whole = 2.0 + 2.0 + 2.0 + 0.1;
        assert!(slice_composite(&reps) <= fastest_whole);
        assert_eq!(slice_composite(&reps[..1]), 7.3);
    }

    #[test]
    #[should_panic(expected = "same number of slices")]
    fn composite_rejects_ragged_repetitions() {
        let a = [1.0, 2.0];
        let b = [1.0];
        slice_composite(&[(&a, 0.0), (&b, 0.0)]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([7.2, 7.5, 8.6], n=4) == [7.2, 7.5, 8.6]
        assert_eq!(quartiles(&[8.6, 7.2, 7.5]), Some((7.2, 8.6)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
