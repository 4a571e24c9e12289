//! Percentiles, medians and run-to-run spread.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median with the mean of the two middle samples for even counts;
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A metric's value for a run: the median over rounds of the per-round
/// statistic `pick` extracts. The median does not depend on how many
/// rounds a run completed, so a faster commit, which completes more of
/// them, reads no better for that.
pub fn median_of_rounds<'a, R: 'a>(
    rounds: impl IntoIterator<Item = &'a R>,
    pick: impl Fn(&R) -> f64,
) -> f64 {
    median(&rounds.into_iter().map(pick).collect::<Vec<_>>())
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last
/// cut point. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the repeatability
/// measure the benchmark's bounds are calibrated against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// `max/min − 1`, the widest disagreement between any two runs.
pub fn range_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(&lo), Some(&hi)) if lo > 0.0 => hi / lo - 1.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_rounds_ignores_a_freak_round_and_the_round_count() {
        struct Round {
            p50: f64,
        }
        let rounds: Vec<Round> = [
            410.0, 900.0, 400.0, 405.0, 100.0, 415.0, 395.0, 420.0, 390.0,
        ]
        .iter()
        .map(|&p50| Round { p50 })
        .collect();
        assert_eq!(median_of_rounds(&rounds, |r| r.p50), 405.0);
        // A run that completed twice the rounds of the same distribution
        // reads the same.
        let twice: Vec<&Round> = rounds.iter().chain(&rounds).collect();
        assert_eq!(median_of_rounds(twice, |r| r.p50), 405.0);
        // Only the rounds a filter lets through count.
        let slow = rounds.iter().filter(|r| r.p50 > 400.0);
        assert_eq!(median_of_rounds(slow, |r| r.p50), 415.0);
        assert_eq!(median_of_rounds(&rounds[..0], |r| r.p50), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn range_spread_is_max_over_min_minus_one() {
        assert!((range_spread(&[100.0, 110.0, 105.0]) - 0.10).abs() < 1e-12);
        assert_eq!(range_spread(&[]), 0.0);
    }
}
