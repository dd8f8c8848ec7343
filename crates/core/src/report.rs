//! Simulation reports: the metrics the paper plots, plus diagnostics.

use serde::{Deserialize, Serialize};
use vdtn_sim_core::stats::{Ratio, Welford};
use vdtn_sim_core::SimTime;

/// Why a stored message left a buffer without being forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropCause {
    /// Evicted by the drop policy on buffer overflow.
    Congestion,
    /// TTL elapsed.
    Expired,
    /// Purged by a MaxProp delivery acknowledgement.
    AckPurge,
    /// Discarded at creation time (could not fit at the source).
    CreationOverflow,
}

/// Raw message-level counters, updated by the engine as events happen.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MessageStats {
    /// Messages created at sources.
    pub created: u64,
    /// Unique messages that reached their destination.
    pub delivered_unique: u64,
    /// Redundant deliveries (extra copies reaching the destination).
    pub delivered_duplicate: u64,
    /// Completed relay transfers (copy stored at a non-destination).
    pub relayed: u64,
    /// Transfers started.
    pub transfers_started: u64,
    /// Transfers aborted by contact loss.
    pub transfers_aborted: u64,
    /// Completed transfers the receiver refused (duplicate, no space, …).
    pub transfers_rejected: u64,
    /// Buffer-policy evictions.
    pub dropped_congestion: u64,
    /// TTL expiries.
    pub dropped_expired: u64,
    /// MaxProp ack purges.
    pub dropped_ack: u64,
    /// Creation-time overflows.
    pub dropped_at_creation: u64,
    /// End-to-end delay of unique deliveries, seconds.
    pub delay: Welford,
    /// Hop counts of unique deliveries.
    pub hops: Welford,
    /// Payload bytes moved by completed transfers.
    pub bytes_transferred: u64,
    /// Payload bytes that were on the wire when their transfer aborted
    /// (contact break or end of run) — spent bandwidth that delivered no
    /// copy, settled analytically from elapsed drain time.
    pub bytes_aborted: u64,
}

impl MessageStats {
    /// Delivery probability: unique deliveries over created messages
    /// (the paper's Figures 5/7/8 metric).
    pub fn delivery_probability(&self) -> f64 {
        let r = Ratio {
            total: self.created,
            hits: self.delivered_unique,
        };
        r.value()
    }

    /// Average end-to-end delay in **minutes** (Figures 4/6/9 metric).
    pub fn avg_delay_mins(&self) -> f64 {
        self.delay.mean() / 60.0
    }

    /// Overhead ratio: relays per delivery, `(relayed − delivered)/delivered`
    /// (∞-free: 0 when nothing was delivered).
    pub fn overhead_ratio(&self) -> f64 {
        if self.delivered_unique == 0 {
            0.0
        } else {
            (self.relayed.saturating_sub(self.delivered_unique)) as f64
                / self.delivered_unique as f64
        }
    }

    /// All buffer exits that were not deliveries.
    pub fn total_drops(&self) -> u64 {
        self.dropped_congestion + self.dropped_expired + self.dropped_ack + self.dropped_at_creation
    }
}

/// One sample of a time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Simulation time of the sample, seconds.
    pub t_secs: f64,
    /// Sampled value.
    pub value: f64,
}

/// Complete report of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Scenario label.
    pub scenario: String,
    /// Router label.
    pub router: String,
    /// Policy label (empty for self-scheduling protocols).
    pub policy: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Message TTL used, minutes.
    pub ttl_mins: f64,
    /// Message-level statistics.
    pub messages: MessageStats,
    /// Contacts observed (link-up events).
    pub contacts: u64,
    /// Mean contact duration, seconds.
    pub mean_contact_secs: f64,
    /// Mean per-pair inter-contact time, seconds.
    pub mean_intercontact_secs: f64,
    /// Mean buffer occupancy samples over time (if sampling enabled).
    pub buffer_occupancy: Vec<Sample>,
    /// Cumulative unique deliveries over time (if sampling enabled).
    pub deliveries_over_time: Vec<Sample>,
    /// Wall-clock runtime of the engine loop, seconds.
    pub wall_secs: f64,
}

impl SimReport {
    /// Delivery probability (paper metric).
    pub fn delivery_probability(&self) -> f64 {
        self.messages.delivery_probability()
    }

    /// Average delay in minutes (paper metric).
    pub fn avg_delay_mins(&self) -> f64 {
        self.messages.avg_delay_mins()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} [{}{}] ttl={}m: created={} delivered={} (P={:.3}) delay={:.1}m relayed={} dropped={} aborted={} (lost {} B)",
            self.scenario,
            self.router,
            if self.policy.is_empty() {
                String::new()
            } else {
                format!(", {}", self.policy)
            },
            self.ttl_mins,
            self.messages.created,
            self.messages.delivered_unique,
            self.delivery_probability(),
            self.avg_delay_mins(),
            self.messages.relayed,
            self.messages.total_drops(),
            self.messages.transfers_aborted,
            self.messages.bytes_aborted,
        )
    }

    /// Record a unique delivery (engine hook).
    pub(crate) fn on_delivered(&mut self, created: SimTime, now: SimTime, hops: u32) {
        self.messages.delivered_unique += 1;
        self.messages.delay.push(now.since(created).as_secs_f64());
        self.messages.hops.push(hops as f64);
    }

    /// Record a drop of `cause` (engine hook).
    pub(crate) fn on_dropped(&mut self, cause: DropCause, count: u64) {
        match cause {
            DropCause::Congestion => self.messages.dropped_congestion += count,
            DropCause::Expired => self.messages.dropped_expired += count,
            DropCause::AckPurge => self.messages.dropped_ack += count,
            DropCause::CreationOverflow => self.messages.dropped_at_creation += count,
        }
    }
}

/// CSV header matching [`SimReport::csv_row`].
pub fn csv_header() -> &'static str {
    "scenario,router,policy,seed,ttl_mins,created,delivered,delivery_prob,avg_delay_mins,\
     relayed,started,aborted,rejected,dropped_congestion,dropped_expired,dropped_ack,\
     contacts,mean_contact_secs,overhead"
}

impl SimReport {
    /// Flat CSV row for spreadsheet-style analysis.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.4},{:.2},{},{},{},{},{},{},{},{},{:.2},{:.2}",
            self.scenario,
            self.router,
            self.policy.replace(',', ";"),
            self.seed,
            self.ttl_mins,
            self.messages.created,
            self.messages.delivered_unique,
            self.delivery_probability(),
            self.avg_delay_mins(),
            self.messages.relayed,
            self.messages.transfers_started,
            self.messages.transfers_aborted,
            self.messages.transfers_rejected,
            self.messages.dropped_congestion,
            self.messages.dropped_expired,
            self.messages.dropped_ack,
            self.contacts,
            self.mean_contact_secs,
            self.messages.overhead_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_probability_and_delay() {
        let mut r = SimReport::default();
        r.messages.created = 10;
        r.on_delivered(SimTime::ZERO, SimTime::from_secs_f64(600.0), 3);
        r.on_delivered(SimTime::ZERO, SimTime::from_secs_f64(1200.0), 5);
        assert!((r.delivery_probability() - 0.2).abs() < 1e-12);
        assert!((r.avg_delay_mins() - 15.0).abs() < 1e-9);
        assert!((r.messages.hops.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_ratio() {
        let mut m = MessageStats::default();
        assert_eq!(m.overhead_ratio(), 0.0);
        m.delivered_unique = 10;
        m.relayed = 110;
        assert!((m.overhead_ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn drop_accounting() {
        let mut r = SimReport::default();
        r.on_dropped(DropCause::Congestion, 3);
        r.on_dropped(DropCause::Expired, 2);
        r.on_dropped(DropCause::AckPurge, 1);
        r.on_dropped(DropCause::CreationOverflow, 1);
        assert_eq!(r.messages.total_drops(), 7);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = SimReport::default();
        let header_cols = csv_header().split(',').count();
        let row_cols = r.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let mut r = SimReport {
            scenario: "fig4".into(),
            router: "Epidemic".into(),
            policy: "FIFO-FIFO".into(),
            ttl_mins: 60.0,
            ..SimReport::default()
        };
        r.messages.created = 5;
        let s = r.summary();
        assert!(s.contains("fig4"));
        assert!(s.contains("Epidemic"));
        assert!(s.contains("created=5"));
    }

    #[test]
    fn serde_round_trip() {
        let r = SimReport::default();
        let json = serde_json::to_string(&r).unwrap();
        let _back: SimReport = serde_json::from_str(&json).unwrap();
    }
}
