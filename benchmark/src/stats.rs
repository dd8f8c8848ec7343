//! Order statistics for repeated measurements.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The worst-side percentile that has at least ten samples beyond it,
    /// as `(percentile, value)`; `None` with fewer than eleven samples.
    pub tail: Option<(f64, f64)>,
}

/// Summarise `samples`. `higher_is_worse` picks the side the tail is taken
/// on: the upper tail for times, the lower tail for rates.
pub fn summarize(samples: &[f64], higher_is_worse: bool) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (q1, q3) = quartiles(&s);
    let tail = (n >= 11).then(|| {
        if higher_is_worse {
            let k = n - 11;
            (100.0 * (k + 1) as f64 / n as f64, s[k])
        } else {
            (100.0 * 10.0 / n as f64, s[10])
        }
    });
    Summary {
        n,
        median: median_sorted(&s),
        q1,
        q3,
        tail,
    }
}

/// Median of `samples` (unsorted input).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so figures printed here match the
/// ones a reader computes from the raw samples in Python.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v, true);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!(s.tail.is_none());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, val) = summarize(&v, true).tail.expect("40 samples");
        assert_eq!(val, 30.0);
        assert_eq!(pct, 75.0);
        let (pct, val) = summarize(&v, false).tail.expect("40 samples");
        assert_eq!(val, 11.0);
        assert_eq!(pct, 25.0);
    }
}
