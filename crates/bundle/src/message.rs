//! Messages (DTN bundles).
//!
//! A [`Message`] is metadata only — the simulator never materialises
//! payloads. Copies of the same logical message share a [`MessageId`];
//! per-copy state (hop count, remaining spray copies) lives in each node's
//! stored copy.
//!
//! The immutable part of a message ([`MsgMeta`]) is the same in every
//! copy, so a world keeps it once, in a *message table*: a
//! `Vec<MsgMeta>` indexed by id. The traffic generator hands out ids
//! densely from 0, so record `i` is message `i` and the table has no holes.
//! Buffers store the id and the per-copy fields only, and the code that
//! needs a copy's metadata borrows the table (`&[MsgMeta]`) at that point.

use serde::{Deserialize, Serialize};
use std::fmt;
use vdtn_sim_core::{NodeId, SimDuration, SimTime};

/// Globally unique identifier of a logical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct MessageId(pub u64);

impl MessageId {
    /// Position of this message's record in a message table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// The immutable metadata of a logical message, shared by all its copies:
/// one record of a message table (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Size in bytes.
    pub size: u64,
    /// Creation timestamp at the source.
    pub created: SimTime,
    /// Time-to-live measured from `created`.
    pub ttl: SimDuration,
}

impl MsgMeta {
    /// The immutable slice of a message copy.
    pub fn of(msg: &Message) -> Self {
        MsgMeta {
            src: msg.src,
            dst: msg.dst,
            size: msg.size,
            created: msg.created,
            ttl: msg.ttl,
        }
    }

    /// Absolute expiry instant (`created + ttl`, saturating).
    pub fn expiry(&self) -> SimTime {
        self.created.saturating_add(self.ttl)
    }
}

/// One copy of a message as stored in a node buffer or in flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Logical message identity (shared by all replicas).
    pub id: MessageId,
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Size in bytes (the simulator is payload-free; size drives transfer
    /// time and buffer occupancy).
    pub size: u64,
    /// Creation timestamp at the source.
    pub created: SimTime,
    /// Time-to-live measured from `created`.
    pub ttl: SimDuration,
    /// Hops this copy has taken from the source (0 at the source).
    pub hops: u32,
    /// Remaining logical copies for quota-based protocols (Spray and Wait).
    /// Flooding protocols leave this at 1.
    pub copies: u32,
    /// Timestamp this copy was received by the current holder (equals
    /// `created` at the source). Drives FIFO ordering.
    pub received: SimTime,
}

impl Message {
    /// Create a fresh message at its source.
    pub fn new(
        id: MessageId,
        src: NodeId,
        dst: NodeId,
        size: u64,
        created: SimTime,
        ttl: SimDuration,
    ) -> Self {
        Message {
            id,
            src,
            dst,
            size,
            created,
            ttl,
            hops: 0,
            copies: 1,
            received: created,
        }
    }

    /// Absolute time at which this message expires.
    pub fn expiry(&self) -> SimTime {
        self.created.saturating_add(self.ttl)
    }

    /// Remaining lifetime at `now` (zero once expired).
    pub fn remaining_ttl(&self, now: SimTime) -> SimDuration {
        self.expiry().since(now)
    }

    /// True if the TTL has elapsed at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.expiry()
    }

    /// The copy that a receiving node stores after a relay hop at `now`.
    pub fn relayed_copy(&self, now: SimTime) -> Message {
        Message {
            hops: self.hops + 1,
            received: now,
            ..*self
        }
    }

    /// Age of the logical message at `now`.
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.since(self.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::new(
            MessageId(1),
            NodeId(0),
            NodeId(5),
            1_000_000,
            SimTime::from_secs_f64(100.0),
            SimDuration::from_mins(60),
        )
    }

    #[test]
    fn expiry_arithmetic() {
        let m = msg();
        assert_eq!(m.expiry(), SimTime::from_secs_f64(3700.0));
        let now = SimTime::from_secs_f64(1000.0);
        assert_eq!(m.remaining_ttl(now), SimDuration::from_secs(2700));
        assert!(!m.is_expired(now));
        assert!(m.is_expired(SimTime::from_secs_f64(3700.0)));
        assert!(m.is_expired(SimTime::from_secs_f64(9999.0)));
    }

    #[test]
    fn remaining_ttl_saturates_after_expiry() {
        let m = msg();
        assert_eq!(
            m.remaining_ttl(SimTime::from_secs_f64(10_000.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn relayed_copy_bumps_hops_and_received() {
        let m = msg();
        let now = SimTime::from_secs_f64(500.0);
        let c = m.relayed_copy(now);
        assert_eq!(c.hops, 1);
        assert_eq!(c.received, now);
        // Identity, TTL and creation stamp are preserved.
        assert_eq!(c.id, m.id);
        assert_eq!(c.created, m.created);
        assert_eq!(c.expiry(), m.expiry());
        let c2 = c.relayed_copy(SimTime::from_secs_f64(600.0));
        assert_eq!(c2.hops, 2);
    }

    #[test]
    fn age_tracks_creation() {
        let m = msg();
        assert_eq!(
            m.age(SimTime::from_secs_f64(160.0)),
            SimDuration::from_secs(60)
        );
        // Before creation (shouldn't happen, but must not underflow).
        assert_eq!(m.age(SimTime::ZERO), SimDuration::ZERO);
    }
}
