//! Deterministic time-ordered event queue and the engine's event kinds.
//!
//! [`EventQueue`] is a thin wrapper around [`std::collections::BinaryHeap`]
//! that pops events in `(time, insertion sequence)` order. The sequence
//! tie-break makes the queue fully deterministic: two events scheduled for
//! the same millisecond always come out in the order they were scheduled,
//! regardless of heap internals.
//!
//! [`EngineEvent`] enumerates the wake-up kinds the hybrid event-driven
//! scheduler uses to decide *which ticks execute at all*. The contract is
//! deliberately weak: an event is a conservative "something may happen at
//! this tick" marker, never an obligation. The engine re-derives the actual
//! work from simulation state when the tick runs, so stale or duplicate
//! events are harmless — they cost one wasted wake-up, not correctness.

use crate::ids::NodeId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Wake-up kinds scheduled by the hybrid event-driven engine.
///
/// Each variant maps to one class of per-tick work the classic ticked loop
/// performs unconditionally:
///
/// * [`TrafficDue`](EngineEvent::TrafficDue) — the traffic generator's next
///   message creation time (one pending instance, rescheduled after each
///   drain).
/// * [`MovementWake`](EngineEvent::MovementWake) — a node's motion-segment
///   expiry (`Segment::until`): the next instant stepping its movement
///   model can change anything it exports (plan a trip, turn at a
///   waypoint, draw RNG). Between expiries the node's position follows the
///   segment's closed form, so driving nodes wake per *leg*, not per tick.
/// * [`ContactWindow`](EngineEvent::ContactWindow) — the contact
///   detector's earliest slack deadline: the first grid tick at which some
///   pair's worst-case relative motion could flip its in-range status.
///   Derived from per-node slack radii and pairwise quadratic
///   contact-window bounds over the exported motion segments. After a
///   build or a restore, one at the first tick makes that tick execute
///   and prime the detector.
/// * [`LinkRound`](EngineEvent::LinkRound) — a routing round may do work
///   next tick: some idle connection has a direction that is not provably
///   silent (see the engine's silent-round memo).
/// * [`TransferComplete`](EngineEvent::TransferComplete) — an in-flight
///   transfer's exact byte-drain instant (`started + size/rate`), scheduled
///   once when the transfer starts. Like every other event it is a wake-up
///   marker: the tick that executes drains *all* due completions from the
///   link table in ordered-pair-key order, which is the deterministic
///   tie-break for completions due at the same instant (the event queue's
///   own insertion-order tie-break reflects start order, not pair order).
///   A stale instance (the transfer was aborted first) wakes a tick that
///   finds nothing due.
/// * [`TtlExpiry`](EngineEvent::TtlExpiry) — the earliest TTL expiry in one
///   node's buffer (conservative: may fire early after evictions, never
///   late).
/// * [`Sample`](EngineEvent::Sample) — the next time-series sample boundary.
///
/// A tick with no due event is provably a no-op for every engine phase, so
/// the scheduler advances the clock straight to the next due event instead
/// of executing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// Next message creation is due at the traffic generator.
    TrafficDue,
    /// A node's motion-segment deadline (trip planning, waypoint departure,
    /// leg arrival) is due: advance the model across the boundary and
    /// refresh its entry in the segment column.
    MovementWake(NodeId),
    /// The contact detector's earliest slack deadline may elapse: some node
    /// could have drifted within range of a new neighbour (or out of range
    /// of a current one) by this instant. Re-query due nodes only.
    ContactWindow,
    /// Some idle connection may produce a transfer: run a routing round
    /// next tick.
    LinkRound,
    /// The transfer between this (unordered) node pair drains its last byte
    /// at this instant.
    TransferComplete(NodeId, NodeId),
    /// A node's earliest buffered-message TTL may elapse at this time.
    TtlExpiry(NodeId),
    /// A time-series sample boundary.
    Sample,
}

struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of timed events with deterministic FIFO tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Pop the earliest event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(t(100), 1u8);
        q.schedule(t(200), 2u8);
        assert_eq!(q.pop_due(t(50)), None);
        assert_eq!(q.pop_due(t(100)), Some((t(100), 1)));
        assert_eq!(q.pop_due(t(150)), None);
        assert_eq!(q.pop_due(t(250)), Some((t(200), 2)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn engine_events_queue_deterministically() {
        use crate::ids::NodeId;
        let mut q = EventQueue::new();
        q.schedule(t(20), EngineEvent::TtlExpiry(NodeId(3)));
        q.schedule(t(10), EngineEvent::MovementWake(NodeId(1)));
        q.schedule(t(10), EngineEvent::TrafficDue);
        q.schedule(t(10), EngineEvent::ContactWindow);
        // Same-time events come out in schedule order.
        assert_eq!(q.pop(), Some((t(10), EngineEvent::MovementWake(NodeId(1)))));
        assert_eq!(q.pop(), Some((t(10), EngineEvent::TrafficDue)));
        assert_eq!(q.pop(), Some((t(10), EngineEvent::ContactWindow)));
        assert_eq!(q.pop(), Some((t(20), EngineEvent::TtlExpiry(NodeId(3)))));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        q.schedule(now + SimDuration::from_millis(10), 0u32);
        let mut fired = Vec::new();
        for _ in 0..50 {
            now += SimDuration::from_millis(10);
            while let Some((_, p)) = q.pop_due(now) {
                fired.push(p);
                if p < 10 {
                    // Each event reschedules its successor relative to now.
                    q.schedule(now + SimDuration::from_millis(10), p + 1);
                }
            }
        }
        assert_eq!(fired, (0..=10).collect::<Vec<_>>());
    }
}
