//! Connections and bandwidth-limited transfers.
//!
//! A [`LinkTable`] tracks every active connection (pair of nodes in range)
//! and at most one in-flight [`Transfer`] per connection. Nodes are
//! half-duplex: a node engaged in any transfer (sending *or* receiving)
//! cannot start another until it completes — the same contention model the
//! ONE simulator applies, and the reason scheduling policies matter at all
//! (only the first few messages in the schedule make it through a short
//! contact).
//!
//! # Event-time transfers
//!
//! A transfer is a static record `{msg, from, to, rate, started}`; nothing
//! about it changes while it drains. Its completion instant is the pure
//! function [`Transfer::completion_time`] = `started + ceil(size/rate)`
//! (rounded **up** to the millisecond grid so a transfer never completes
//! before all bytes are on the wire), and the bytes moved by any partial
//! drain are settled analytically from elapsed time
//! ([`Transfer::bytes_transferred`]). This is what lets the engine schedule
//! one completion event per transfer instead of draining byte counters
//! every tick: [`LinkTable::complete_due`] pops every transfer whose
//! completion instant has passed. The event engine calls it at scheduled
//! completion instants; the ticked reference engine polls it every tick.
//!
//! Completions due at the same instant resolve in **ordered-pair-key
//! order**: connections live in per-node sorted adjacency lists, and both
//! drain entry points walk node ids ascending, then each node's
//! higher-id peers ascending — exactly ordered-pair-key order — so
//! simultaneous completions, and the whole routing round, are
//! deterministic regardless of start order.
//!
//! # Slot handles
//!
//! Connection records live in a slab indexed by dense `u32` **slots**;
//! [`LinkTable::link_up`] returns the slot, which stays stable until the
//! matching [`LinkTable::link_down`] frees it for reuse. Callers keeping
//! per-contact state (the engine's `ContactOffers`) index a flat
//! slot-addressed vector with it instead of hashing the node pair on every
//! touch, and the vector's length stays bounded by the *peak concurrent*
//! connection count rather than the cumulative contact count.

use crate::contact::pair_key;
use std::fmt;
use vdtn_bundle::Message;
use vdtn_sim_core::{NodeId, SimDuration, SimTime};

/// A message copy in flight between two connected nodes.
///
/// The record is immutable while the transfer drains: progress is derived
/// from elapsed time, never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// The copy being transmitted (snapshot taken at transfer start).
    pub msg: Message,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Link rate in bytes per second (fixed for the transfer's lifetime).
    pub rate: f64,
    /// When the transfer started.
    pub started: SimTime,
}

impl Transfer {
    /// Time needed to drain all bytes, rounded **up** to the millisecond
    /// grid (a transfer never completes before every byte is on the wire).
    pub fn drain_duration(&self) -> SimDuration {
        SimDuration::from_millis((self.msg.size as f64 * 1000.0 / self.rate).ceil() as u64)
    }

    /// The exact instant the last byte lands: `started + size/rate`.
    pub fn completion_time(&self) -> SimTime {
        self.started + self.drain_duration()
    }

    /// Bytes on the wire by `now`, settled analytically from elapsed time:
    /// `min(size, rate × elapsed)`. Used to account partial progress when a
    /// contact breaks mid-transfer.
    pub fn bytes_transferred(&self, now: SimTime) -> u64 {
        if now >= self.completion_time() {
            return self.msg.size;
        }
        let elapsed = now.since(self.started).as_secs_f64();
        self.msg.size.min((self.rate * elapsed).floor() as u64)
    }
}

/// Result of completing or tearing down a transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferOutcome {
    /// Transfer delivered all bytes.
    Completed(Transfer),
    /// Contact broke (or the run ended) before all bytes were delivered.
    Aborted {
        /// The interrupted transfer record.
        transfer: Transfer,
        /// Bytes that made it onto the wire before the abort (analytic,
        /// see [`Transfer::bytes_transferred`]).
        bytes_transferred: u64,
    },
}

/// Typed error for invalid [`LinkTable`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkError {
    /// [`LinkTable::link_up`] was given a non-finite or non-positive rate,
    /// which would produce NaN or infinite completion times.
    InvalidRate {
        /// The offending rate, in bytes per second.
        rate: f64,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::InvalidRate { rate } => {
                write!(f, "link rate must be finite and positive, got {rate}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// One active link.
#[derive(Debug, Clone)]
struct Connection {
    up_since: SimTime,
    rate: f64,
    transfer: Option<Transfer>,
}

/// All active connections plus node busy-state.
///
/// Storage is node-indexed and slot-indexed throughout — per-node sorted
/// adjacency lists of `(peer, slot)`, a dense `Connection` slab, and a
/// node-indexed busy bitmap — so a world's link state costs a handful of
/// bytes per node plus one slab entry per live connection, with no
/// hash-table or tree-node overhead.
#[derive(Debug, Default)]
pub struct LinkTable {
    /// Per-node adjacency: `(peer id, connection slot)`, sorted by peer id.
    /// Every live connection appears in both endpoints' lists. Iterating
    /// node ids ascending and visiting only higher-id peers walks the
    /// connection set in ordered-pair-key order.
    adj: Vec<Vec<(u32, u32)>>,
    /// Slot-indexed connection slab; `None` entries are free.
    slots: Vec<Option<Connection>>,
    /// Freed slots awaiting reuse (LIFO — the engine's slot-addressed
    /// per-contact state stays bounded by peak concurrency).
    free: Vec<u32>,
    /// `busy[node]` — node is engaged in a transfer (sending or receiving).
    busy: Vec<bool>,
    conn_count: usize,
}

impl LinkTable {
    /// Empty table; node-indexed storage grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with node-indexed storage sized once for `nodes` ids
    /// (the engine sizes it from the scenario so the hot path never
    /// reallocates the columns).
    pub fn with_nodes(nodes: usize) -> Self {
        LinkTable {
            adj: vec![Vec::new(); nodes],
            busy: vec![false; nodes],
            ..Self::default()
        }
    }

    /// Grow node-indexed columns to cover `node`.
    fn ensure_node(&mut self, node: u32) {
        let need = node as usize + 1;
        if self.adj.len() < need {
            self.adj.resize_with(need, Vec::new);
            self.busy.resize(need, false);
        }
    }

    /// This pair's connection slot, if connected.
    pub fn slot_of(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let (lo, hi) = pair_key(a, b);
        let peers = self.adj.get(lo as usize)?;
        peers
            .binary_search_by_key(&hi, |&(p, _)| p)
            .ok()
            .map(|k| peers[k].1)
    }

    /// Register a new link. Returns the connection's **slot handle**,
    /// stable until the matching [`LinkTable::link_down`], or
    /// [`LinkError::InvalidRate`] for a non-finite or non-positive rate
    /// (which would poison every completion time computed from it). Panics
    /// if the pair is already connected (the contact detector never
    /// double-reports).
    pub fn link_up(
        &mut self,
        a: NodeId,
        b: NodeId,
        now: SimTime,
        rate: f64,
    ) -> Result<u32, LinkError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(LinkError::InvalidRate { rate });
        }
        let (lo, hi) = pair_key(a, b);
        self.ensure_node(hi); // hi ≥ lo covers both
        let conn = Connection {
            up_since: now,
            rate,
            transfer: None,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(conn);
                s
            }
            None => {
                self.slots.push(Some(conn));
                (self.slots.len() - 1) as u32
            }
        };
        for (node, peer) in [(lo, hi), (hi, lo)] {
            let peers = &mut self.adj[node as usize];
            match peers.binary_search_by_key(&peer, |&(p, _)| p) {
                Ok(_) => panic!("duplicate link_up for {a}-{b}"),
                Err(pos) => peers.insert(pos, (peer, slot)),
            }
        }
        self.conn_count += 1;
        Ok(slot)
    }

    /// Tear down a link, returning the aborted transfer — with its partial
    /// bytes settled analytically at `now` — if one was active. The pair's
    /// slot handle is freed for reuse.
    pub fn link_down(&mut self, a: NodeId, b: NodeId, now: SimTime) -> Option<TransferOutcome> {
        let (lo, hi) = pair_key(a, b);
        let slot = {
            let peers = self.adj.get_mut(lo as usize)?;
            let k = peers.binary_search_by_key(&hi, |&(p, _)| p).ok()?;
            peers.remove(k).1
        };
        let peers = &mut self.adj[hi as usize];
        let k = peers
            .binary_search_by_key(&lo, |&(p, _)| p)
            .expect("adjacency is symmetric");
        peers.remove(k);
        let conn = self.slots[slot as usize]
            .take()
            .expect("adjacency names a live slot");
        self.free.push(slot);
        self.conn_count -= 1;
        let t = conn.transfer?;
        self.busy[t.from.index()] = false;
        self.busy[t.to.index()] = false;
        let bytes_transferred = t.bytes_transferred(now);
        Some(TransferOutcome::Aborted {
            transfer: t,
            bytes_transferred,
        })
    }

    /// True if the pair is currently connected.
    pub fn is_connected(&self, a: NodeId, b: NodeId) -> bool {
        self.slot_of(a, b).is_some()
    }

    /// True if `node` is engaged in any transfer.
    pub fn is_busy(&self, node: NodeId) -> bool {
        self.busy.get(node.index()).copied().unwrap_or(false)
    }

    /// This node's current radio peers with their connection slots, sorted
    /// by peer id. O(1); callers needing per-contact housekeeping walk this
    /// instead of keying a map by the pair.
    pub fn neighbors(&self, node: NodeId) -> &[(u32, u32)] {
        self.adj.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of active connections.
    pub fn connection_count(&self) -> usize {
        self.conn_count
    }

    /// Connections with no active transfer whose endpoints are both free,
    /// with each pair's slot handle, in deterministic (ordered-pair) order.
    /// These are the opportunities the routing round iterates.
    pub fn idle_contacts(&self) -> Vec<(NodeId, NodeId, u32)> {
        let mut idle = Vec::new();
        for (lo, peers) in self.adj.iter().enumerate() {
            if self.busy[lo] {
                continue;
            }
            for &(hi, slot) in peers {
                if (hi as usize) <= lo || self.busy[hi as usize] {
                    continue;
                }
                let conn = self.slots[slot as usize]
                    .as_ref()
                    .expect("adjacency names a live slot");
                if conn.transfer.is_none() {
                    idle.push((NodeId(lo as u32), NodeId(hi), slot));
                }
            }
        }
        idle
    }

    /// Every live connection in ordered-pair-key order:
    /// `(lo, hi, up_since, rate, in-flight transfer)`. This is the canonical
    /// enumeration a world snapshot records — the same order
    /// the drain entry points use, so it is deterministic by construction.
    pub fn connections(&self) -> Vec<(NodeId, NodeId, SimTime, f64, Option<&Transfer>)> {
        let mut out = Vec::with_capacity(self.conn_count);
        for (lo, peers) in self.adj.iter().enumerate() {
            for &(hi, slot) in peers {
                if (hi as usize) <= lo {
                    continue;
                }
                let conn = self.slots[slot as usize]
                    .as_ref()
                    .expect("adjacency names a live slot");
                out.push((
                    NodeId(lo as u32),
                    NodeId(hi),
                    conn.up_since,
                    conn.rate,
                    conn.transfer.as_ref(),
                ));
            }
        }
        out
    }

    /// Begin transmitting `msg` from `from` to `to`; returns the exact
    /// instant the transfer will complete (for completion-event
    /// scheduling).
    ///
    /// Preconditions (checked): the pair is connected, the connection is
    /// idle, and neither node is busy. The engine upholds these by only
    /// starting transfers on [`LinkTable::idle_contacts`].
    pub fn start_transfer(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: Message,
        now: SimTime,
    ) -> SimTime {
        assert!(!self.is_busy(from), "{from} already transferring");
        assert!(!self.is_busy(to), "{to} already transferring");
        let slot = self
            .slot_of(from, to)
            .unwrap_or_else(|| panic!("no connection {from}-{to}"));
        let conn = self.slots[slot as usize]
            .as_mut()
            .expect("adjacency names a live slot");
        assert!(conn.transfer.is_none(), "connection {from}-{to} busy");
        let t = Transfer {
            msg,
            from,
            to,
            rate: conn.rate,
            started: now,
        };
        let completes = t.completion_time();
        conn.transfer = Some(t);
        self.busy[from.index()] = true;
        self.busy[to.index()] = true;
        completes
    }

    /// Pop every transfer whose completion instant has passed (`≤ now`), in
    /// deterministic ordered-pair-key order — the tie-break rule for
    /// completions due at the same instant. Zero-byte edge cases complete
    /// at the first poll after they start.
    pub fn complete_due(&mut self, now: SimTime) -> Vec<TransferOutcome> {
        let mut done = Vec::new();
        for lo in 0..self.adj.len() {
            for k in 0..self.adj[lo].len() {
                let (hi, slot) = self.adj[lo][k];
                if (hi as usize) <= lo {
                    continue;
                }
                let conn = self.slots[slot as usize]
                    .as_mut()
                    .expect("adjacency names a live slot");
                let finished = match &conn.transfer {
                    Some(t) => t.completion_time() <= now,
                    None => false,
                };
                if finished {
                    let t = conn.transfer.take().expect("checked above");
                    self.busy[t.from.index()] = false;
                    self.busy[t.to.index()] = false;
                    done.push(TransferOutcome::Completed(t));
                }
            }
        }
        done
    }

    /// Drop every connection (end of run), returning aborted transfers with
    /// their partial bytes settled at `now`, in ordered-pair-key order.
    pub fn clear(&mut self, now: SimTime) -> Vec<TransferOutcome> {
        let mut aborted = Vec::new();
        for lo in 0..self.adj.len() {
            for k in 0..self.adj[lo].len() {
                let (hi, slot) = self.adj[lo][k];
                if (hi as usize) <= lo {
                    continue;
                }
                let conn = self.slots[slot as usize]
                    .take()
                    .expect("adjacency names a live slot");
                if let Some(t) = conn.transfer {
                    let bytes_transferred = t.bytes_transferred(now);
                    aborted.push(TransferOutcome::Aborted {
                        transfer: t,
                        bytes_transferred,
                    });
                }
            }
            self.adj[lo].clear();
        }
        self.slots.clear();
        self.free.clear();
        self.busy.iter_mut().for_each(|b| *b = false);
        self.conn_count = 0;
        aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_bundle::MessageId;

    fn msg(id: u64, size: u64) -> Message {
        Message::new(
            MessageId(id),
            NodeId(0),
            NodeId(9),
            size,
            SimTime::ZERO,
            SimDuration::from_mins(60),
        )
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn transfer_completes_at_size_over_rate() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 750_000.0).unwrap();
        let completes = lt.start_transfer(NodeId(0), NodeId(1), msg(1, 1_500_000), t(0.0));
        // 1.5 MB at 750 kB/s = exactly 2 s.
        assert_eq!(completes, t(2.0));
        assert!(lt.is_busy(NodeId(0)) && lt.is_busy(NodeId(1)));
        assert!(lt.complete_due(t(1.0)).is_empty());
        assert!(lt.complete_due(t(1.999)).is_empty());
        let done = lt.complete_due(t(2.0));
        assert_eq!(done.len(), 1);
        match &done[0] {
            TransferOutcome::Completed(tr) => {
                assert_eq!(tr.msg.id, MessageId(1));
                assert_eq!(tr.from, NodeId(0));
                assert_eq!(tr.to, NodeId(1));
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(!lt.is_busy(NodeId(0)) && !lt.is_busy(NodeId(1)));
        // Connection remains up and idle after completion.
        assert!(lt.is_connected(NodeId(0), NodeId(1)));
        assert_eq!(lt.idle_contacts(), vec![(NodeId(0), NodeId(1), 0)]);
    }

    #[test]
    fn completion_time_rounds_up_to_millis() {
        let mut lt = LinkTable::new();
        // 1000 bytes at 300 B/s = 3.333… s → must round UP to 3334 ms.
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 300.0).unwrap();
        let completes = lt.start_transfer(NodeId(0), NodeId(1), msg(1, 1_000), t(0.0));
        assert_eq!(completes, SimTime::from_millis(3_334));
        assert!(lt.complete_due(SimTime::from_millis(3_333)).is_empty());
        assert_eq!(lt.complete_due(SimTime::from_millis(3_334)).len(), 1);
    }

    #[test]
    fn link_down_aborts_with_partial_bytes() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 750_000.0).unwrap();
        lt.start_transfer(NodeId(1), NodeId(0), msg(7, 2_000_000), t(0.0));
        let out = lt.link_down(NodeId(0), NodeId(1), t(1.0)).unwrap();
        match out {
            TransferOutcome::Aborted {
                transfer,
                bytes_transferred,
            } => {
                assert_eq!(transfer.msg.id, MessageId(7));
                // 1 s at 750 kB/s of a 2 MB message.
                assert_eq!(bytes_transferred, 750_000);
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(!lt.is_busy(NodeId(0)) && !lt.is_busy(NodeId(1)));
        assert!(!lt.is_connected(NodeId(0), NodeId(1)));
    }

    #[test]
    fn partial_bytes_cap_at_message_size() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1_000.0).unwrap();
        lt.start_transfer(NodeId(0), NodeId(1), msg(1, 3_000), t(0.0));
        // Same-tick race: the link drops at an instant the completion is
        // also due. Phase order (downs before completion drain) means the
        // abort wins — but all bytes were on the wire, so accounting must
        // not exceed the size nor lose the progress.
        let out = lt.link_down(NodeId(0), NodeId(1), t(5.0)).unwrap();
        match out {
            TransferOutcome::Aborted {
                bytes_transferred, ..
            } => assert_eq!(bytes_transferred, 3_000),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn simultaneous_completions_resolve_in_pair_key_order() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(6), NodeId(7), t(0.0), 1_000.0).unwrap();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1_000.0).unwrap();
        lt.link_up(NodeId(2), NodeId(3), t(0.0), 2_000.0).unwrap();
        // Start in scrambled order; all three complete at exactly t = 2 s.
        lt.start_transfer(NodeId(6), NodeId(7), msg(3, 2_000), t(0.0));
        lt.start_transfer(NodeId(2), NodeId(3), msg(2, 4_000), t(0.0));
        lt.start_transfer(NodeId(0), NodeId(1), msg(1, 2_000), t(0.0));
        let done = lt.complete_due(t(2.0));
        let ids: Vec<u64> = done
            .iter()
            .map(|o| match o {
                TransferOutcome::Completed(tr) => tr.msg.id.0,
                other => panic!("expected completion, got {other:?}"),
            })
            .collect();
        // Pair-key order (0,1) < (2,3) < (6,7), not start order 3, 2, 1.
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn link_down_without_transfer_is_quiet() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(2), NodeId(5), t(0.0), 100.0).unwrap();
        assert!(lt.link_down(NodeId(5), NodeId(2), t(1.0)).is_none());
    }

    #[test]
    fn invalid_rates_are_typed_errors() {
        let mut lt = LinkTable::new();
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = lt
                .link_up(NodeId(0), NodeId(1), t(0.0), rate)
                .expect_err("rate must be rejected");
            assert!(matches!(err, LinkError::InvalidRate { .. }));
            let rendered = err.to_string();
            assert!(rendered.contains("rate"), "unhelpful error: {rendered}");
        }
        // Rejected link_up leaves no connection behind.
        assert!(!lt.is_connected(NodeId(0), NodeId(1)));
        assert_eq!(lt.connection_count(), 0);
    }

    #[test]
    fn busy_nodes_not_listed_idle() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 750_000.0).unwrap();
        lt.link_up(NodeId(0), NodeId(2), t(0.0), 750_000.0).unwrap();
        lt.link_up(NodeId(2), NodeId(3), t(0.0), 750_000.0).unwrap();
        lt.start_transfer(NodeId(0), NodeId(1), msg(1, 10_000_000), t(0.0));
        // 0 and 1 are busy ⇒ only 2-3 is usable.
        assert_eq!(lt.idle_contacts(), vec![(NodeId(2), NodeId(3), 2)]);
    }

    #[test]
    #[should_panic(expected = "already transferring")]
    fn cannot_double_book_a_node() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1000.0).unwrap();
        lt.link_up(NodeId(0), NodeId(2), t(0.0), 1000.0).unwrap();
        lt.start_transfer(NodeId(0), NodeId(1), msg(1, 5_000), t(0.0));
        lt.start_transfer(NodeId(0), NodeId(2), msg(2, 5_000), t(0.0));
    }

    #[test]
    #[should_panic(expected = "duplicate link_up")]
    fn duplicate_link_up_panics() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1000.0).unwrap();
        lt.link_up(NodeId(1), NodeId(0), t(0.0), 1000.0).unwrap();
    }

    #[test]
    fn pair_key_is_order_independent() {
        let mut lt = LinkTable::new();
        let slot = lt.link_up(NodeId(3), NodeId(1), t(0.0), 1000.0).unwrap();
        assert_eq!(lt.slot_of(NodeId(1), NodeId(3)), Some(slot));
        assert_eq!(lt.slot_of(NodeId(3), NodeId(1)), Some(slot));
    }

    #[test]
    fn multiple_transfers_complete_independently() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1_000.0).unwrap();
        lt.link_up(NodeId(2), NodeId(3), t(0.0), 2_000.0).unwrap();
        lt.start_transfer(NodeId(0), NodeId(1), msg(1, 2_000), t(0.0));
        lt.start_transfer(NodeId(2), NodeId(3), msg(2, 2_000), t(0.0));
        // Faster link finishes first.
        let done = lt.complete_due(t(1.0));
        assert_eq!(done.len(), 1);
        assert!(matches!(&done[0], TransferOutcome::Completed(tr) if tr.msg.id == MessageId(2)));
        let done = lt.complete_due(t(2.0));
        assert_eq!(done.len(), 1);
        assert!(matches!(&done[0], TransferOutcome::Completed(tr) if tr.msg.id == MessageId(1)));
    }

    #[test]
    fn clear_aborts_everything_with_partial_bytes() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1_000.0).unwrap();
        lt.link_up(NodeId(2), NodeId(3), t(0.0), 1_000.0).unwrap();
        lt.start_transfer(NodeId(0), NodeId(1), msg(1, 1_000_000), t(0.0));
        let aborted = lt.clear(t(10.0));
        assert_eq!(aborted.len(), 1);
        assert!(matches!(
            &aborted[0],
            TransferOutcome::Aborted {
                bytes_transferred: 10_000,
                ..
            }
        ));
        assert_eq!(lt.connection_count(), 0);
        assert!(!lt.is_busy(NodeId(0)));
    }

    #[test]
    fn slots_are_stable_and_reused_after_teardown() {
        let mut lt = LinkTable::with_nodes(6);
        let s01 = lt.link_up(NodeId(0), NodeId(1), t(0.0), 1000.0).unwrap();
        let s23 = lt.link_up(NodeId(2), NodeId(3), t(0.0), 1000.0).unwrap();
        assert_ne!(s01, s23);
        assert_eq!(lt.slot_of(NodeId(1), NodeId(0)), Some(s01));
        assert_eq!(lt.slot_of(NodeId(2), NodeId(3)), Some(s23));
        assert_eq!(lt.slot_of(NodeId(0), NodeId(2)), None);
        // Teardown frees the slot; the next link reuses it, so slot handles
        // stay bounded by peak concurrency, not cumulative contacts.
        lt.link_down(NodeId(0), NodeId(1), t(1.0));
        let s45 = lt.link_up(NodeId(4), NodeId(5), t(1.0), 1000.0).unwrap();
        assert_eq!(s45, s01, "freed slot is reused");
        assert_eq!(lt.connection_count(), 2);
        // Neighbor lists stay sorted and symmetric.
        assert_eq!(lt.neighbors(NodeId(2)), &[(3, s23)]);
        assert_eq!(lt.neighbors(NodeId(3)), &[(2, s23)]);
        assert_eq!(lt.neighbors(NodeId(0)), &[]);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut lt = LinkTable::new();
        lt.link_up(NodeId(0), NodeId(1), t(0.0), 1_000.0).unwrap();
        let completes = lt.start_transfer(NodeId(0), NodeId(1), msg(1, 0), t(3.0));
        assert_eq!(completes, t(3.0));
        assert_eq!(lt.complete_due(t(3.0)).len(), 1);
    }
}
