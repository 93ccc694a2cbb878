//! Percentile, median and ratio arithmetic shared by the end-to-end
//! report and the per-layer ledger.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` is a fraction
/// in `[0, 1]`; an empty slice gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values: the mean of the two middle samples for
/// an even count. An empty slice gives 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sorts finite samples ascending.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Durations (or any per-call quantity) recorded at one layer boundary.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sum: f64,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sum += v;
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Mean, or 0 when the layer never ran.
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.values.len() as f64)
    }

    /// Nearest-rank percentile, or 0 when the layer never ran.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut v = self.values.clone();
        sort(&mut v);
        percentile(&v, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 10.0);
        assert_eq!(percentile(&w, 0.50), 5.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn samples_mean_and_tail() {
        let mut s = Samples::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.99), 0.0);
        for v in [5.0, 1.0, 3.0, 100.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 27.25);
        assert_eq!(s.percentile(0.99), 100.0);
        assert_eq!(s.percentile(0.5), 3.0);
    }
}
