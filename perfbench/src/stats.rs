//! Summaries of repeated samples taken in one run.
//!
//! Contention from other tenants of the host only ever slows a sample
//! down, and it comes in phases that can cover most of a run, so
//! `ns_per_access` reports the fastest of its many windows: across runs
//! on a contended 2-CPU host it moved less than the lower quartile or
//! the median did (see `perfbench/BENCHMARK.md`).

/// Quartiles of `values` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// benchmark and the tooling that compares runs agree on the numbers.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        *slot = data[j - 1] + (data[j] - data[j - 1]) * delta;
    }
    out
}

/// A set of repeated samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn quartiles(&self) -> [f64; 3] {
        quartiles(&self.0)
    }

    pub fn median(&self) -> f64 {
        quartiles(&self.0)[1]
    }

    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Inter-quartile range over the median, in percent.
    pub fn iqr_pct(&self) -> f64 {
        let [q1, median, q3] = quartiles(&self.0);
        if median > 0.0 {
            (q3 - q1) / median * 100.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
