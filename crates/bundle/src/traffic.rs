//! Traffic generation.
//!
//! The paper's workload: messages are created with an inter-creation
//! interval uniform in \[15, 30\] s, sizes uniform in \[500 kB, 2 MB\], with
//! source and destination drawn uniformly among the *vehicles* (relay nodes
//! only store and forward; they never originate traffic).

use crate::message::{Message, MessageId};
use serde::{Deserialize, Serialize};
use vdtn_sim_core::{NodeId, SimDuration, SimRng, SimTime};

/// Workload parameters. [`TrafficSpec::paper`] gives the paper's. The
/// endpoints are not part of the spec: a world derives them from its
/// non-relay nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Minimum inter-creation interval, seconds.
    pub interval_lo: f64,
    /// Maximum inter-creation interval, seconds.
    pub interval_hi: f64,
    /// Minimum message size, bytes.
    pub size_lo: u64,
    /// Maximum message size, bytes.
    pub size_hi: u64,
    /// Message time-to-live.
    pub ttl: SimDuration,
}

impl TrafficSpec {
    /// The paper's workload at the given TTL.
    pub fn paper(ttl: SimDuration) -> Self {
        TrafficSpec {
            interval_lo: 15.0,
            interval_hi: 30.0,
            size_lo: 500_000,
            size_hi: 2_000_000,
            ttl,
        }
    }

    /// Check the parameters, naming the first rule broken.
    pub fn validate(&self) -> Result<(), String> {
        // Intervals count whole milliseconds: a shorter one rounds to a
        // 0 ms gap, and a stream of them never leaves its instant.
        if !(self.interval_lo >= 0.001 && self.interval_hi >= self.interval_lo) {
            return Err(format!(
                "invalid interval range [{}, {}]",
                self.interval_lo, self.interval_hi
            ));
        }
        if !(self.size_lo > 0 && self.size_hi >= self.size_lo) {
            return Err(format!(
                "invalid size range [{}, {}]",
                self.size_lo, self.size_hi
            ));
        }
        if self.ttl.is_zero() {
            return Err("zero TTL would expire messages at birth".into());
        }
        Ok(())
    }

    /// Expected messages created over `horizon` (mean-interval estimate).
    pub fn expected_messages(&self, horizon: SimDuration) -> f64 {
        horizon.as_secs_f64() / ((self.interval_lo + self.interval_hi) / 2.0)
    }
}

/// Deterministic message-creation stream.
///
/// Acts as an iterator of messages tagged with creation times; the engine
/// feeds them into its event queue. Ids are assigned sequentially from 0.
pub struct TrafficGenerator {
    spec: TrafficSpec,
    /// Nodes eligible as sources and destinations (the scenario's vehicles).
    endpoints: Vec<NodeId>,
    rng: SimRng,
    next_time: SimTime,
    next_id: u64,
}

impl TrafficGenerator {
    /// Create a generator; the first message appears one interval after t=0.
    ///
    /// Panics if `spec` fails [`TrafficSpec::validate`] or there are fewer
    /// than two endpoints.
    pub fn new(spec: TrafficSpec, endpoints: Vec<NodeId>, mut rng: SimRng) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        assert!(endpoints.len() >= 2, "traffic needs at least two endpoints");
        let first = SimDuration::from_secs_f64(rng.range_f64(spec.interval_lo, spec.interval_hi));
        TrafficGenerator {
            spec,
            endpoints,
            rng,
            next_time: SimTime::ZERO + first,
            next_id: 0,
        }
    }

    /// Time of the next message creation.
    pub fn peek_time(&self) -> SimTime {
        self.next_time
    }

    /// Produce the next message (advancing the internal clock).
    pub fn next_message(&mut self) -> Message {
        let (si, di) = self.rng.choose_two_distinct(self.endpoints.len());
        let src = self.endpoints[si];
        let dst = self.endpoints[di];
        let size = self.rng.range_u64(self.spec.size_lo, self.spec.size_hi);
        let msg = Message::new(
            MessageId(self.next_id),
            src,
            dst,
            size,
            self.next_time,
            self.spec.ttl,
        );
        self.next_id += 1;
        let gap = self
            .rng
            .range_f64(self.spec.interval_lo, self.spec.interval_hi);
        self.next_time += SimDuration::from_secs_f64(gap);
        msg
    }

    /// Drain every message due at or before `now`.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<Message> {
        let mut out = Vec::new();
        while self.next_time <= now {
            out.push(self.next_message());
        }
        out
    }

    /// Messages created so far.
    pub fn created_count(&self) -> u64 {
        self.next_id
    }

    /// Dynamic state for snapshotting: (RNG, next creation time, next id).
    /// The spec and endpoints are not included — they come from the
    /// scenario. There is no inverse: a restore replays a fresh generator
    /// of the same lane for `next id` messages, which reaches this state
    /// and re-creates every message on the way.
    pub fn snapshot_state(&self) -> (SimRng, SimTime, u64) {
        (self.rng.clone(), self.next_time, self.next_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrafficSpec {
        TrafficSpec::paper(SimDuration::from_mins(60))
    }

    fn gen(seed: u64) -> TrafficGenerator {
        TrafficGenerator::new(
            spec(),
            (0..40).map(NodeId).collect(),
            SimRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn intervals_within_range() {
        let mut g = gen(1);
        let mut prev = SimTime::ZERO;
        for _ in 0..1_000 {
            let t = g.peek_time();
            let gap = t.since(prev).as_secs_f64();
            assert!(
                (15.0..=30.0).contains(&gap),
                "inter-creation gap {gap} outside [15, 30]"
            );
            prev = t;
            g.next_message();
        }
    }

    #[test]
    fn sizes_within_range_and_endpoints_distinct() {
        let mut g = gen(2);
        for _ in 0..1_000 {
            let m = g.next_message();
            assert!((500_000..=2_000_000).contains(&m.size));
            assert_ne!(m.src, m.dst);
            assert!(m.src.0 < 40 && m.dst.0 < 40);
            assert_eq!(m.ttl, SimDuration::from_mins(60));
            assert_eq!(m.hops, 0);
        }
    }

    #[test]
    fn ids_sequential_and_unique() {
        let mut g = gen(3);
        for i in 0..100 {
            assert_eq!(g.next_message().id, MessageId(i));
        }
        assert_eq!(g.created_count(), 100);
    }

    #[test]
    fn drain_due_respects_clock() {
        let mut g = gen(4);
        let first = g.peek_time();
        assert!(g.drain_due(first - SimDuration::from_millis(1)).is_empty());
        let batch = g.drain_due(first + SimDuration::from_secs(120));
        // 120 s window with gaps of 15–30 s: between 4 and 9 messages.
        assert!(
            (4..=9).contains(&batch.len()),
            "unexpected batch size {}",
            batch.len()
        );
        for m in &batch {
            assert!(m.created <= first + SimDuration::from_secs(120));
        }
    }

    #[test]
    fn rate_matches_expectation_over_long_horizon() {
        let mut g = gen(5);
        let horizon = SimDuration::from_hours(12);
        let batch = g.drain_due(SimTime::ZERO + horizon);
        let expected = spec().expected_messages(horizon); // 43200 / 22.5 = 1920
        let actual = batch.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "created {actual}, expected ≈{expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = gen(6);
        let mut b = gen(6);
        for _ in 0..200 {
            assert_eq!(a.next_message(), b.next_message());
        }
    }

    /// A restore replays the lane: a fresh generator advanced by the
    /// snapshot's message count re-creates the same messages, reaches the
    /// same state, and continues the same stream.
    #[test]
    fn restore_resumes_identical_stream() {
        let mut a = gen(7);
        let created: Vec<Message> = (0..50).map(|_| a.next_message()).collect();
        let (_, _, next_id) = a.snapshot_state();
        let mut b = gen(7);
        let replayed: Vec<Message> = (0..next_id).map(|_| b.next_message()).collect();
        assert_eq!(replayed, created);
        assert_eq!(b.snapshot_state(), a.snapshot_state());
        for _ in 0..50 {
            assert_eq!(a.next_message(), b.next_message());
        }
    }

    #[test]
    #[should_panic(expected = "at least two endpoints")]
    fn rejects_single_endpoint() {
        TrafficGenerator::new(spec(), vec![NodeId(0)], SimRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "invalid interval range")]
    fn rejects_bad_interval() {
        let mut s = spec();
        s.interval_hi = 1.0;
        assert_eq!(s.validate(), Err("invalid interval range [15, 1]".into()));
        TrafficGenerator::new(s, vec![NodeId(0), NodeId(1)], SimRng::seed_from_u64(1));
    }

    /// An interval under the clock's 1 ms resolution rounds to a 0 ms gap.
    #[test]
    fn rejects_sub_millisecond_interval() {
        let mut s = spec();
        (s.interval_lo, s.interval_hi) = (0.0001, 0.0001);
        assert_eq!(
            s.validate(),
            Err("invalid interval range [0.0001, 0.0001]".into())
        );
        (s.interval_lo, s.interval_hi) = (0.001, 0.001);
        assert_eq!(s.validate(), Ok(()));
    }
}
