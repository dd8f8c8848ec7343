//! Contact tracing: aggregate statistics about contact opportunities.
//!
//! Not a paper metric by itself, but essential for validating the mobility
//! substitution (`vdtn_geo::gen`): the synthetic map must yield contact counts,
//! durations and inter-contact times in the same regime as a real downtown
//! extract, because bytes-per-contact is what makes scheduling policies
//! matter.

use crate::contact::pair_key;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vdtn_sim_core::stats::Welford;
use vdtn_sim_core::{NodeId, SimTime};

/// Aggregate contact statistics, fed from link events.
///
/// The pair maps are ordered, so the serde derive writes the whole trace
/// in canonical pair-key order — it is part of the world snapshot and so
/// of the state hash.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ContactTrace {
    /// Total link-up events observed.
    pub contact_count: u64,
    durations: Welford,
    intercontact: Welford,
    /// Open contacts: pair → start time.
    open: BTreeMap<(u32, u32), SimTime>,
    /// Last contact end per pair, for inter-contact times.
    last_end: BTreeMap<(u32, u32), SimTime>,
}

impl ContactTrace {
    /// Fresh trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a link-up event.
    pub fn on_up(&mut self, a: NodeId, b: NodeId, now: SimTime) {
        let k = pair_key(a, b);
        self.contact_count += 1;
        if let Some(&end) = self.last_end.get(&k) {
            self.intercontact.push(now.since(end).as_secs_f64());
        }
        self.open.insert(k, now);
    }

    /// Record a link-down event.
    pub fn on_down(&mut self, a: NodeId, b: NodeId, now: SimTime) {
        let k = pair_key(a, b);
        if let Some(start) = self.open.remove(&k) {
            self.durations.push(now.since(start).as_secs_f64());
            self.last_end.insert(k, now);
        }
    }

    /// Close any still-open contacts at end of run so their durations count.
    /// They close in pair-key order: Welford accumulation is
    /// order-sensitive at the ULP level.
    pub fn finish(&mut self, now: SimTime) {
        for start in std::mem::take(&mut self.open).into_values() {
            self.durations.push(now.since(start).as_secs_f64());
        }
    }

    /// Mean contact duration, seconds.
    pub fn mean_duration(&self) -> f64 {
        self.durations.mean()
    }

    /// Mean inter-contact time (per pair), seconds.
    pub fn mean_intercontact(&self) -> f64 {
        self.intercontact.mean()
    }

    /// Number of closed contacts measured.
    pub fn measured_contacts(&self) -> u64 {
        self.durations.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn durations_and_intercontact() {
        let mut tr = ContactTrace::new();
        let (a, b) = (NodeId(0), NodeId(1));
        tr.on_up(a, b, t(10.0));
        tr.on_down(a, b, t(25.0)); // 15 s contact
        tr.on_up(a, b, t(125.0)); // 100 s gap
        tr.on_down(a, b, t(130.0)); // 5 s contact
        assert_eq!(tr.contact_count, 2);
        assert_eq!(tr.measured_contacts(), 2);
        assert!((tr.mean_duration() - 10.0).abs() < 1e-9);
        assert!((tr.mean_intercontact() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pair_symmetry() {
        let mut tr = ContactTrace::new();
        tr.on_up(NodeId(5), NodeId(2), t(0.0));
        tr.on_down(NodeId(2), NodeId(5), t(8.0));
        assert_eq!(tr.measured_contacts(), 1);
        assert!((tr.mean_duration() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn finish_closes_open_contacts() {
        let mut tr = ContactTrace::new();
        tr.on_up(NodeId(0), NodeId(1), t(100.0));
        tr.finish(t(160.0));
        assert_eq!(tr.measured_contacts(), 1);
        assert!((tr.mean_duration() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn down_without_up_is_ignored() {
        let mut tr = ContactTrace::new();
        tr.on_down(NodeId(0), NodeId(1), t(5.0));
        assert_eq!(tr.measured_contacts(), 0);
    }
}
