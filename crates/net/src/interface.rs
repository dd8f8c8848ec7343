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
    fn transfer_time_examples() {
        use crate::Transfer;
        use vdtn_bundle::{Message, MessageId};
        use vdtn_sim_core::{NodeId, SimDuration, SimTime};
        let r = RadioInterface::paper_80211b();
        let drain = |size| {
            let msg = Message::new(
                MessageId(0),
                NodeId(0),
                NodeId(1),
                size,
                SimTime::ZERO,
                SimDuration::from_mins(60),
            );
            Transfer {
                msg,
                from: NodeId(0),
                to: NodeId(1),
                rate: r.rate,
                started: SimTime::ZERO,
            }
            .drain_duration()
        };
        // A 2 MB message (paper maximum) needs ≈2.67 s of contact, a
        // 500 kB one (paper minimum) ≈0.67 s, each rounded up to the ms.
        assert_eq!(drain(2_000_000), SimDuration::from_millis(2_667));
        assert_eq!(drain(500_000), SimDuration::from_millis(667));
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
