//! Order statistics used by every metric: nearest-rank percentiles,
//! medians over equal blocks, and the quartile spread that `agree` and
//! the calibration table report.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of an ascending-sorted sample: the element at
/// rank `⌈p/100 · n⌉` (1-based, clamped to `1..=n`); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample: the middle element, or the mean of the
/// two middle ones (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) — the spread the benchmark contract is checked
/// against. 0 for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    let mid = median(&v);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let quartile = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (quartile(3) - quartile(1)).abs() / mid.abs()
}

/// Splits `samples` into `blocks` equal consecutive runs (a remainder at
/// the tail is dropped) and returns each run's median — the per-block
/// values behind a latency metric's spread.
pub fn block_medians(samples: &[f64], blocks: usize) -> Vec<f64> {
    let len = samples.len() / blocks.max(1);
    if len == 0 {
        return samples.to_vec();
    }
    samples.chunks_exact(len).take(blocks).map(median).collect()
}

/// One reported number with the sample it was drawn from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The metric's value (a median unless the metric says otherwise).
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Samples (or blocks) behind `value`.
    pub n: usize,
    /// Quartile spread of the per-block values, as a share of their median.
    pub spread: f64,
}

impl Summary {
    /// A count or a single measurement: no sample behind it.
    pub fn exact(value: f64) -> Self {
        Self { value, min: value, max: value, n: 1, spread: 0.0 }
    }

    /// The median of per-block values (block rates, repeated set-ups).
    pub fn of_blocks(blocks: &[f64]) -> Self {
        Self::with_value(median(blocks), blocks, blocks)
    }

    /// The median of a latency sample, with the spread taken over the
    /// medians of nine equal blocks of it.
    pub fn of_samples(samples: &[f64]) -> Self {
        Self::with_value(median(samples), samples, &block_medians(samples, 9))
    }

    /// `value` as computed by the caller, bounds from `samples`, spread
    /// from `blocks`.
    pub fn with_value(value: f64, samples: &[f64], blocks: &[f64]) -> Self {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if samples.is_empty() {
            return Self::exact(value);
        }
        Self { value, min, max, n: samples.len(), spread: quartile_spread(blocks) }
    }
}

/// p95 and maximum of an unsorted latency sample.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    (percentile(&v, 95.0), v.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_boundaries() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0], 0.0), 4.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        // ⌈0.5·2⌉ = rank 1: the first of two elements is the p50.
        assert_eq!(percentile(&[1.0, 9.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 9.0], 51.0), 9.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 96.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn block_medians_drop_the_tail_and_resist_one_outlier() {
        // 10 samples in 3 blocks of 3; the tenth is dropped.
        let samples = [1.0, 2.0, 300.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1000.0];
        assert_eq!(block_medians(&samples, 3), vec![2.0, 5.0, 8.0]);
        assert_eq!(Summary::of_blocks(&[2.0, 5.0, 8.0]).value, 5.0);
        // Fewer samples than blocks: each sample is its own block.
        assert_eq!(block_medians(&[1.0, 2.0], 9), vec![1.0, 2.0]);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
        assert!((quartile_spread(&[13.0, 10.0, 12.0, 11.0]) - 2.5 / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn summary_keeps_bounds_and_count() {
        let s = Summary::of_samples(&[3.0, 1.0, 2.0]);
        assert_eq!((s.value, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(Summary::exact(7.0).spread, 0.0);
    }
}
