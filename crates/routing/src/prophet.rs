//! PRoPHET routing (Lindgren et al., draft-irtf-dtnrg-prophet).
//!
//! Probabilistic routing using a history of encounters and transitivity.
//! Each node maintains a delivery predictability `P(a, b) ∈ [0, 1]` for
//! every other node, updated by three rules:
//!
//! * **encounter**: `P(a,b) ← P(a,b) + (1 − P(a,b)) · P_init`
//! * **aging**: `P(a,b) ← P(a,b) · γ^k` with `k` elapsed time units
//! * **transitivity**: `P(a,c) ← P(a,c) + (1 − P(a,c)) · P(a,b) · P(b,c) · β`
//!
//! Forwarding uses the **GRTRMax** strategy the paper selects: a message is
//! offered to a peer only if the peer's predictability for the destination
//! exceeds ours, and candidates are offered in descending order of the
//! peer's predictability. Buffer eviction is oldest-first (reception FIFO),
//! matching the ONE implementation the paper ran.
//!
//! Aging is applied lazily per entry (each entry stores its last-update
//! time), which is numerically identical to per-tick aging but O(1) per
//! access instead of O(n) per tick.

use crate::offers::OfferView;
use crate::router::{
    CreateOutcome, Digest, ReceiveOutcome, Router, RouterSnapshot, SNAPSHOT_MISMATCH,
};
use crate::state::NodeState;
use crate::util::{make_room_and_store, standard_receive};
use serde::{Deserialize, Serialize};
use vdtn_bundle::{DropPolicy, Message, MessageId, MsgMeta};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// PRoPHET parameters (defaults from the draft / ONE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProphetConfig {
    /// Encounter reinforcement `P_init`.
    pub p_init: f64,
    /// Transitivity scaling `β`.
    pub beta: f64,
    /// Aging base `γ` per time unit.
    pub gamma: f64,
    /// Seconds per aging time unit.
    pub time_unit_secs: f64,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        ProphetConfig {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            time_unit_secs: 30.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    p: f64,
    last_update: SimTime,
}

/// Probabilistic router with GRTRMax forwarding.
pub struct ProphetRouter {
    own: NodeId,
    cfg: ProphetConfig,
    /// `table[d]` = predictability of delivering to node `d`.
    table: Vec<Entry>,
    /// Monotone counter bumped on every table mutation: the router's
    /// routing generation.
    table_gen: u64,
}

impl ProphetRouter {
    /// Create a router for node `own` in a network of `n_nodes` nodes.
    pub fn new(own: NodeId, n_nodes: usize, cfg: ProphetConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.p_init));
        assert!((0.0..=1.0).contains(&cfg.beta));
        assert!((0.0..1.0).contains(&cfg.gamma) || cfg.gamma == 1.0);
        assert!(cfg.time_unit_secs > 0.0);
        ProphetRouter {
            own,
            cfg,
            table: vec![
                Entry {
                    p: 0.0,
                    last_update: SimTime::ZERO,
                };
                n_nodes
            ],
            table_gen: 0,
        }
    }

    /// Aged predictability for `dest` at `now` (read-only).
    pub fn predictability(&self, dest: NodeId, now: SimTime) -> f64 {
        let e = &self.table[dest.index()];
        self.aged(e, now)
    }

    fn aged(&self, e: &Entry, now: SimTime) -> f64 {
        if e.p == 0.0 {
            return 0.0;
        }
        let k = now.since(e.last_update).as_secs_f64() / self.cfg.time_unit_secs;
        e.p * self.cfg.gamma.powf(k)
    }

    fn age_in_place(&mut self, dest: usize, now: SimTime) {
        let aged = self.aged(&self.table[dest], now);
        self.table[dest] = Entry {
            p: aged,
            last_update: now,
        };
    }

    fn on_encounter(&mut self, peer: NodeId, now: SimTime) {
        self.table_gen += 1;
        self.age_in_place(peer.index(), now);
        let e = &mut self.table[peer.index()];
        e.p += (1.0 - e.p) * self.cfg.p_init;
    }

    fn apply_transitivity(&mut self, peer: NodeId, peer_probs: &[(NodeId, f64)], now: SimTime) {
        let p_ab = self.predictability(peer, now);
        if p_ab == 0.0 {
            return;
        }
        self.table_gen += 1;
        for &(c, p_bc) in peer_probs {
            if c == self.own || c == peer {
                continue;
            }
            self.age_in_place(c.index(), now);
            let e = &mut self.table[c.index()];
            e.p += (1.0 - e.p) * p_ab * p_bc * self.cfg.beta;
        }
    }
}

impl Router for ProphetRouter {
    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg: Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> CreateOutcome {
        match make_room_and_store(own, metas, msg, |state| {
            DropPolicy::Fifo.select_victim(&state.buffer, metas, now, rng, |_| false)
        }) {
            Ok(evicted) => CreateOutcome {
                stored: true,
                evicted,
            },
            Err(_) => CreateOutcome {
                stored: false,
                evicted: Vec::new(),
            },
        }
    }

    fn digest(&mut self, _own: &NodeState, now: SimTime) -> Digest {
        let probs: Vec<(NodeId, f64)> = self
            .table
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let p = self.aged(e, now);
                (p > 1e-6).then_some((NodeId(i as u32), p))
            })
            .collect();
        Digest::Prophet { probs }
    }

    fn on_contact_up(
        &mut self,
        _own: &mut NodeState,
        _metas: &[MsgMeta],
        peer: NodeId,
        peer_digest: &Digest,
        now: SimTime,
    ) -> Vec<Message> {
        self.on_encounter(peer, now);
        if let Digest::Prophet { probs } = peer_digest {
            self.apply_transitivity(peer, probs, now);
        }
        Vec::new()
    }

    fn next_transfer(
        &mut self,
        own: &NodeState,
        metas: &[MsgMeta],
        peer: &NodeState,
        peer_router: &dyn Router,
        offers: &mut OfferView<'_>,
        now: SimTime,
        _rng: &mut SimRng,
    ) -> Option<MessageId> {
        // GRTRMax: candidate if the peer is the destination, or the peer's
        // predictability for the destination beats ours; rank by the peer's
        // predictability, destination contacts first.
        let mut best: Option<(f64, MessageId)> = None;
        for msg in own.buffer.iter(metas) {
            if offers.is_offered(msg.id) || peer.knows(msg.id) || msg.is_expired(now) {
                continue;
            }
            if !peer.buffer.could_fit(msg.size) && msg.dst != peer.id {
                continue;
            }
            let rank = if msg.dst == peer.id {
                f64::INFINITY
            } else {
                let p_peer = peer_router.delivery_metric(msg.dst, now).unwrap_or(0.0);
                let p_own = self.predictability(msg.dst, now);
                if p_peer <= p_own {
                    continue;
                }
                p_peer
            };
            // Strict > keeps the earliest-received message on ties, making
            // the choice deterministic.
            if best.map(|(r, _)| rank > r).unwrap_or(true) {
                best = Some((rank, msg.id));
            }
        }
        best.map(|(_, id)| id)
    }

    fn on_message_received(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg: &Message,
        _from: NodeId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ReceiveOutcome {
        standard_receive(own, metas, msg, now, |state| {
            DropPolicy::Fifo.select_victim(&state.buffer, metas, now, rng, |_| false)
        })
    }

    fn on_transfer_success(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg_id: MessageId,
        _to: NodeId,
        delivered: bool,
        _now: SimTime,
    ) {
        // GRTR-family forwarding is replicative: the sender keeps its copy
        // unless the message just reached its destination (paper rule).
        if delivered {
            own.buffer.remove(msg_id, metas);
        }
    }

    fn delivery_metric(&self, dest: NodeId, now: SimTime) -> Option<f64> {
        Some(self.predictability(dest, now))
    }

    fn routing_generation(&self) -> u64 {
        // GRTRMax eligibility compares aged predictabilities; aging scales
        // both sides of the comparison by the same factor, so the verdict
        // can only change when the table itself does.
        self.table_gen
    }

    fn snapshot_state(&self) -> RouterSnapshot {
        // The table is the protocol's entire semantic state; `table_gen` is
        // within-run bookkeeping and excluded.
        RouterSnapshot::Prophet {
            table: self.table.iter().map(|e| (e.p, e.last_update)).collect(),
        }
    }

    fn restore_state(&mut self, snap: RouterSnapshot) -> Result<(), String> {
        match snap {
            RouterSnapshot::Prophet { table } if table.len() == self.table.len() => {
                self.table = table
                    .into_iter()
                    .map(|(p, last_update)| Entry { p, last_update })
                    .collect();
                // Restart generations at 0: every consumer of the old
                // counter (the silence memos) is rebuilt fresh
                // alongside the router, so only monotonicity matters.
                self.table_gen = 0;
                Ok(())
            }
            _ => Err(SNAPSHOT_MISMATCH.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offers::ContactOffers;
    use crate::util::table;
    use vdtn_sim_core::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn router(own: u32) -> ProphetRouter {
        ProphetRouter::new(NodeId(own), 10, ProphetConfig::default())
    }

    fn state(id: u32) -> NodeState {
        NodeState::new(NodeId(id), 100_000, false)
    }

    #[test]
    fn encounter_raises_predictability() {
        let mut r = router(0);
        assert_eq!(r.predictability(NodeId(1), t(0.0)), 0.0);
        r.on_encounter(NodeId(1), t(0.0));
        assert!((r.predictability(NodeId(1), t(0.0)) - 0.75).abs() < 1e-12);
        r.on_encounter(NodeId(1), t(0.0));
        // 0.75 + 0.25·0.75 = 0.9375
        assert!((r.predictability(NodeId(1), t(0.0)) - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn aging_decays_with_time_units() {
        let mut r = router(0);
        r.on_encounter(NodeId(1), t(0.0));
        // 10 time units of 30 s → factor 0.98^10.
        let expected = 0.75 * 0.98f64.powi(10);
        assert!((r.predictability(NodeId(1), t(300.0)) - expected).abs() < 1e-12);
    }

    #[test]
    fn transitivity_learns_through_peers() {
        let mut r = router(0);
        r.on_encounter(NodeId(1), t(0.0));
        // Peer 1 reports P(1, 2) = 0.8.
        r.apply_transitivity(NodeId(1), &[(NodeId(2), 0.8)], t(0.0));
        // P(0,2) = 0 + 1·0.75·0.8·0.25 = 0.15
        assert!((r.predictability(NodeId(2), t(0.0)) - 0.15).abs() < 1e-12);
        // Own and peer entries are skipped by transitivity.
        r.apply_transitivity(NodeId(1), &[(NodeId(0), 0.9), (NodeId(1), 0.9)], t(0.0));
        assert_eq!(r.predictability(NodeId(0), t(0.0)), 0.0);
    }

    #[test]
    fn digest_contains_only_nonzero_entries() {
        let mut r = router(0);
        r.on_encounter(NodeId(3), t(0.0));
        match r.digest(&state(0), t(0.0)) {
            Digest::Prophet { probs } => {
                assert_eq!(probs.len(), 1);
                assert_eq!(probs[0].0, NodeId(3));
            }
            other => panic!("wrong digest {other:?}"),
        }
    }

    #[test]
    fn grtrmax_forwards_only_to_better_peers() {
        let mut rng = SimRng::seed_from_u64(1);
        let now = t(0.0);
        let mut a = router(0);
        let mut b = router(1);
        let mut sa = state(0);
        let sb = state(1);
        // Message destined to node 2.
        let m = Message::new(
            MessageId(1),
            NodeId(0),
            NodeId(2),
            100,
            now,
            SimDuration::from_mins(60),
        );
        let metas = table(&[m]);
        a.on_message_created(&mut sa, &metas, m, now, &mut rng);
        // Neither side knows node 2: no forward.
        assert_eq!(
            a.next_transfer(
                &sa,
                &metas,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            None
        );
        // Peer has met node 2: forward.
        b.on_encounter(NodeId(2), now);
        assert_eq!(
            a.next_transfer(
                &sa,
                &metas,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1))
        );
        // If we now beat the peer, stay silent again.
        a.on_encounter(NodeId(2), now);
        a.on_encounter(NodeId(2), now);
        assert_eq!(
            a.next_transfer(
                &sa,
                &metas,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn destination_contact_trumps_metrics() {
        let mut rng = SimRng::seed_from_u64(1);
        let now = t(0.0);
        let mut a = router(0);
        let b = router(2);
        let mut sa = state(0);
        let sb = state(2); // peer IS the destination
        let m = Message::new(
            MessageId(1),
            NodeId(0),
            NodeId(2),
            100,
            now,
            SimDuration::from_mins(60),
        );
        let metas = table(&[m]);
        a.on_message_created(&mut sa, &metas, m, now, &mut rng);
        assert_eq!(
            a.next_transfer(
                &sa,
                &metas,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1))
        );
    }

    #[test]
    fn ranks_by_peer_predictability() {
        let mut rng = SimRng::seed_from_u64(1);
        let now = t(0.0);
        let mut a = router(0);
        let mut b = router(1);
        let mut sa = state(0);
        let sb = state(1);
        // Peer knows node 2 weakly, node 3 strongly.
        b.on_encounter(NodeId(2), now);
        b.on_encounter(NodeId(3), now);
        b.on_encounter(NodeId(3), now);
        let msgs = [(1u64, 2u32), (2, 3)].map(|(id, dst)| {
            Message::new(
                MessageId(id),
                NodeId(0),
                NodeId(dst),
                100,
                now,
                SimDuration::from_mins(60),
            )
        });
        let metas = table(&msgs);
        for m in msgs {
            a.on_message_created(&mut sa, &metas, m, now, &mut rng);
        }
        // GRTRMax sends the message with the highest peer predictability
        // first: message 2 (dst 3, P ≈ 0.9375) over message 1 (P = 0.75).
        assert_eq!(
            a.next_transfer(
                &sa,
                &metas,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(2))
        );
    }

    #[test]
    fn contact_up_integrates_digest() {
        let now = t(0.0);
        let mut a = router(0);
        let mut b = router(1);
        b.on_encounter(NodeId(4), now);
        let digest_b = b.digest(&state(1), now);
        let dropped = a.on_contact_up(&mut state(0), &[], NodeId(1), &digest_b, now);
        assert!(dropped.is_empty());
        assert!(a.predictability(NodeId(1), now) > 0.7, "direct encounter");
        assert!(a.predictability(NodeId(4), now) > 0.1, "transitive entry");
    }
}
