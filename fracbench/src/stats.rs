//! Order statistics for run-level summaries.

/// Linear-interpolation quantile of `samples` (`q` in `[0, 1]`), the
/// same estimator `fracdram_stats::summary::quantile` uses, but `NaN`
/// instead of a panic for an empty sample (a step with no `ok` reply, a
/// metric missing from one side of a comparison), so a bad run still
/// prints its result line.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let w = pos - lo as f64;
    sorted[lo] * (1.0 - w) + sorted[hi] * w
}

/// Median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones an outside check computes from the same values (including
/// its extrapolation past the data for very small samples). A single
/// sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
            };
            (cut(1), cut(3))
        }
    }
}

/// Interquartile range over the median, the spread measure the bounds
/// in `BENCHMARK.json` are checked against.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // few samples the method extrapolates past the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }
}
