//! Order statistics over latency samples.

/// The median; the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of p75/p90/p95/p99 that has at least ten samples beyond
/// it, as `(percentile, value)`; `None` below forty samples. A tail
/// percentile resting on fewer samples is one outlier, not a statistic.
pub fn supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99usize, 95, 90, 75].into_iter().find_map(|p| {
        let beyond = n * (100 - p) / 100;
        (beyond >= 10).then(|| (p as f64, v[n - beyond - 1]))
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread printed here is the one the
/// driver computes.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    let mid = median(samples);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_percentile(&ramp(39)), None);
        assert_eq!(supported_percentile(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(supported_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(supported_percentile(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(supported_percentile(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(supported_percentile(&ramp(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
