//! Radio interface parameters.

use serde::{Deserialize, Serialize};

/// A disc-model radio: fixed circular range, fixed transmit rate.
///
/// This is exactly the abstraction the ONE simulator uses for 802.11b in the
/// paper's scenario; fading, capture and MAC contention are not modelled
/// (their first-order effect — limited bytes per contact — is captured by
/// the rate × contact-duration product).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioInterface {
    /// Transmission range in metres.
    pub range: f64,
    /// Transmit rate in bytes per second.
    pub rate: f64,
}

impl RadioInterface {
    /// The paper's interface: 30 m range, 6 Mbit/s (750 000 B/s).
    pub fn paper_80211b() -> Self {
        RadioInterface {
            range: 30.0,
            rate: 750_000.0,
        }
    }

    /// Validate parameters, naming the first bad one. Rates must be finite
    /// as well as positive — `LinkTable::link_up` rejects non-finite rates
    /// (they would poison every completion time), and validating here keeps
    /// that a configuration-time error instead of a mid-run one.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(self.range.is_finite() && self.range > 0.0) {
            return Err("radio range must be finite and positive");
        }
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err("radio rate must be finite and positive");
        }
        Ok(())
    }

    /// Effective rate between two interfaces: the slower side limits, as in
    /// ONE's `Connection.getSpeed()`.
    pub fn link_rate(&self, other: &RadioInterface) -> f64 {
        self.rate.min(other.rate)
    }

    /// Seconds needed to transfer `bytes` over a link with `other`.
    pub fn transfer_time(&self, other: &RadioInterface, bytes: u64) -> f64 {
        bytes as f64 / self.link_rate(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let r = RadioInterface::paper_80211b();
        assert_eq!(r.validate(), Ok(()));
        assert_eq!(r.range, 30.0);
        assert_eq!(r.rate, 750_000.0);
    }

    #[test]
    fn link_rate_is_min() {
        let fast = RadioInterface {
            range: 30.0,
            rate: 1_000_000.0,
        };
        let slow = RadioInterface {
            range: 30.0,
            rate: 250_000.0,
        };
        assert_eq!(fast.link_rate(&slow), 250_000.0);
        assert_eq!(slow.link_rate(&fast), 250_000.0);
    }

    #[test]
    fn transfer_time_examples() {
        let r = RadioInterface::paper_80211b();
        // A 2 MB message (paper maximum) needs ≈2.67 s of contact.
        let t = r.transfer_time(&r, 2_000_000);
        assert!((t - 2.666_666).abs() < 1e-3);
        // A 500 kB message (paper minimum) needs ≈0.67 s.
        let t = r.transfer_time(&r, 500_000);
        assert!((t - 0.666_666).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "range must be finite and positive")]
    fn rejects_zero_range() {
        RadioInterface {
            range: 0.0,
            rate: 1.0,
        }
        .validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "rate must be finite and positive")]
    fn rejects_infinite_rate() {
        RadioInterface {
            range: 30.0,
            rate: f64::INFINITY,
        }
        .validate()
        .unwrap();
    }
}
