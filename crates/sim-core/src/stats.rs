//! Online statistics used by the metric collectors.
//!
//! All accumulators are *online* (constant memory): a 12-hour epidemic run
//! relays hundreds of thousands of messages and we never want to buffer
//! per-sample vectors inside the engine. Where the paper reports medians we
//! additionally keep a bounded reservoir sample.

use serde::{Deserialize, Serialize};

/// Welford online mean / variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction step).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Bounded reservoir sample (Vitter's algorithm R) for exact medians on
/// moderate sample counts without unbounded memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
    /// Cheap embedded LCG so the reservoir does not need an external RNG
    /// handle; statistical quality is irrelevant for sampling positions.
    state: u64,
}

impl Reservoir {
    /// Reservoir keeping at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::with_capacity(cap.min(4096)),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        // SplitMix-style step; deterministic across runs.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    /// Offer one sample.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let j = self.next() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Total samples offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Quantile over the retained sample (exact when `seen <= cap`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut v = self.samples.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let idx = ((q.clamp(0.0, 1.0)) * (v.len() - 1) as f64).round() as usize;
        Some(v[idx])
    }

    /// Median convenience wrapper.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// A ratio counter for probabilities (delivered / created etc.).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ratio {
    /// Numerator events.
    pub hits: u64,
    /// Denominator events.
    pub total: u64,
}

impl Ratio {
    /// Record a denominator event.
    pub fn observe(&mut self) {
        self.total += 1;
    }

    /// Record a numerator event (does not bump the denominator).
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Current value in `[0, 1]`; 0 when the denominator is empty.
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 3.0)
            .collect();
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let mut whole = Welford::new();
        data.iter().for_each(|&x| whole.push(x));
        let mut left = Welford::new();
        let mut right = Welford::new();
        data[..200].iter().for_each(|&x| left.push(x));
        data[200..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn welford_empty_behaviour() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        let mut a = Welford::new();
        let b = Welford::new();
        a.merge(&b); // merging empties is a no-op
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn reservoir_exact_when_small() {
        let mut r = Reservoir::new(100);
        for i in 0..51 {
            r.push(i as f64);
        }
        assert_eq!(r.median(), Some(25.0));
        assert_eq!(r.seen(), 51);
    }

    #[test]
    fn reservoir_bounded_when_large() {
        let mut r = Reservoir::new(64);
        for i in 0..10_000 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 10_000);
        let med = r.median().unwrap();
        // Very loose: the retained sample should straddle the middle.
        assert!(med > 1_000.0 && med < 9_000.0, "median {med}");
    }

    #[test]
    fn ratio_basics() {
        let mut r = Ratio::default();
        assert_eq!(r.value(), 0.0);
        for i in 0..10 {
            r.observe();
            if i % 2 == 0 {
                r.hit();
            }
        }
        assert!((r.value() - 0.5).abs() < 1e-12);
    }
}
