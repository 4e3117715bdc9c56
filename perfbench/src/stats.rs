//! Order statistics for the benchmark's reported numbers.

/// Samples beyond a reported tail percentile. A tail percentile with fewer
/// samples past it is one or two outliers, not a distribution, so it is
/// refused rather than reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in `(0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile that is only reported when at least [`MIN_BEYOND`]
/// samples lie beyond its rank; otherwise an error naming the sample
/// count needed.
pub fn tail_percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    if xs.is_empty() {
        return Err("no samples".into());
    }
    let beyond = xs.len() - rank(xs.len(), p);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are required",
            p * 100.0,
            xs.len()
        ));
    }
    Ok(percentile(xs, p))
}

/// `n=…, min …, median …, max …` of a sample, for the notes.
pub fn summary(xs: &[f64]) -> String {
    format!(
        "n={}, min {:.6}, median {:.6}, max {:.6}",
        xs.len(),
        percentile(xs, 0.0),
        median(xs),
        percentile(xs, 1.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 samples: rank 90 leaves exactly 10 beyond — reportable.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Ok(90.0));
        // 99 samples: rank 90 leaves 9 beyond — refused.
        let err = tail_percentile(&xs[..99], 0.9).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // The median of 20 samples has 10 beyond it.
        assert_eq!(tail_percentile(&xs[..20], 0.5), Ok(10.0));
        assert!(tail_percentile(&[], 0.5).is_err());
    }
}
