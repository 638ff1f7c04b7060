//! Order statistics for timing samples.

/// Median, quartiles and range of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Panics on an empty sample: a metric with no sample is a harness bug.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&v, 2, 4),
            min: v[0],
            max: v[v.len() - 1],
            q1: quantile(&v, 1, 4),
            q3: quantile(&v, 3, 4),
            samples: v.len(),
        }
    }

    /// A count that was read once, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// The best sample: the smallest where lower is better, else the largest.
    pub fn best(&self, lower_is_better: bool) -> f64 {
        if lower_is_better {
            self.min
        } else {
            self.max
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of `n` cut points of sorted `v`, by the exclusive method of
/// Python's `statistics.quantiles` (the driver's spread uses it), clamped to
/// the sample's range; a single value is every quantile of itself.
fn quantile(v: &[f64], i: usize, n: usize) -> f64 {
    let len = v.len();
    if len == 1 {
        return v[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    let w = (delta / n as f64).clamp(0.0, 1.0);
    v[j - 1] * (1.0 - w) + v[j] * w
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.samples), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn single_sample_and_spread() {
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
        assert_eq!((s.best(true), s.best(false)), (90.0, 110.0));
    }
}
