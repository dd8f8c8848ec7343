//! The policy-driven routers: one router type for every protocol whose
//! buffer order is the paper's pluggable [`PolicyCombo`] (Table I).
//!
//! The paper applies the same scheduling × dropping policies to Epidemic and
//! to Spray-and-Wait; a policy is independent of the protocol's replication
//! rule. [`PolicyRouter`] is that split: storage, the candidate-index scan,
//! the reception pipeline and the snapshot are written once, and the
//! protocol is a replication rule that decides four things — the quota
//! stamped at creation, the eligibility [`Verdict`] of a candidate, the
//! receiver's share of a completed transfer, and what the sender keeps.
//!
//! | [`crate::RouterKind`] | Rule |
//! |---|---|
//! | `Epidemic` (Vahdat & Becker 2000) | flood every message to every peer that lacks it |
//! | `SprayAndWait` (Spyropoulos et al. 2005) | quota `L`; binary halving or source spray, then wait for the destination |
//! | `DirectDelivery` | the source holds every message until it meets the destination |
//! | `FirstContact` | a single copy moves to the first peer that can hold it |
//! | `SprayAndFocus` (Spyropoulos et al. 2007) | binary spray, then hand the single copy to a peer that met the destination more recently |
//!
//! Direct Delivery and First Contact are classic zero-replication baselines
//! that bound the protocol space from below; Spray-and-Focus is the natural
//! extension of the paper's Spray-and-Wait results.

use crate::candidates::Verdict;
use crate::offers::OfferView;
use crate::router::{
    CreateOutcome, Digest, ReceiveOutcome, Router, RouterSnapshot, SNAPSHOT_MISMATCH,
};
use crate::state::NodeState;
use crate::util::{make_room_and_store, policy_victim, standard_receive};
use vdtn_bundle::{Message, MessageId, MsgMeta, PolicyCombo};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// A protocol's replication rule (see the module docs).
pub(crate) enum Replication {
    /// Flooding.
    Flood,
    /// Spray and Wait with quota `initial`.
    Spray {
        /// Initial spray quota `L`.
        initial: u32,
        /// Binary halving (paper) vs. source spray (one copy per hop).
        binary: bool,
    },
    /// Direct Delivery.
    Direct,
    /// First Contact.
    FirstContact,
    /// Spray and Focus with quota `initial`.
    Focus {
        /// Initial spray quota `L`.
        initial: u32,
        /// `last_met[d]` = time this node last encountered node `d`.
        last_met: Vec<Option<SimTime>>,
        /// Bumped on every `last_met` write; the focus verdict compares
        /// recencies, so this is the router's routing generation.
        met_gen: u64,
    },
}

/// Copies a spraying sender holding `copies` hands over: half under binary
/// halving, one under source spray.
fn handed_over(binary: bool, copies: u32) -> u32 {
    if binary {
        copies / 2
    } else {
        1
    }
}

/// The tests every forwarding rule starts with: the peer lacks the message,
/// it is unexpired, and it could fit the peer's buffer. `None` is permanent
/// for this contact direction: a peer-knows hit seen by the index scan can
/// only mean destination consumption (buffer membership is synced from
/// deltas), expiry is final, and capacity fits are constant per message.
#[inline(always)]
fn forwardable(
    own: &NodeState,
    metas: &[MsgMeta],
    peer: &NodeState,
    now: SimTime,
    id: MessageId,
) -> Option<Message> {
    if peer.knows(id) {
        return None;
    }
    let msg = own.buffer.get(id, metas).expect("ordered id is stored");
    (!msg.is_expired(now) && peer.buffer.could_fit(msg.size)).then_some(msg)
}

/// A router whose buffer order and eviction are a [`PolicyCombo`] and whose
/// protocol is a replication rule (see the module docs). Built by
/// [`crate::RouterKind::build`].
pub struct PolicyRouter {
    policy: PolicyCombo,
    rule: Replication,
}

impl PolicyRouter {
    /// Create with the given policies and rule. Panics on a zero spray
    /// quota.
    pub(crate) fn new(policy: PolicyCombo, rule: Replication) -> Self {
        if let Replication::Spray { initial, .. } | Replication::Focus { initial, .. } = rule {
            assert!(initial >= 1, "spray quota must be at least 1");
        }
        PolicyRouter { policy, rule }
    }

    /// Record an encounter with `peer` (Spray and Focus only).
    fn met(&mut self, peer: NodeId, now: SimTime) {
        if let Replication::Focus {
            last_met, met_gen, ..
        } = &mut self.rule
        {
            last_met[peer.index()] = Some(now);
            *met_gen += 1;
        }
    }
}

impl Router for PolicyRouter {
    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        mut msg: Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> CreateOutcome {
        if let Replication::Spray { initial, .. } | Replication::Focus { initial, .. } = self.rule {
            msg.copies = initial;
        }
        let victim = policy_victim(self.policy.dropping, metas, now, rng);
        match make_room_and_store(own, metas, msg, victim) {
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

    fn on_contact_up(
        &mut self,
        _own: &mut NodeState,
        _metas: &[MsgMeta],
        peer: NodeId,
        _peer_digest: &Digest,
        now: SimTime,
    ) -> Vec<Message> {
        self.met(peer, now);
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
        rng: &mut SimRng,
    ) -> Option<MessageId> {
        // One match per round; each arm hands the scan its own verdict, so
        // the scan's inner loop never branches on the rule.
        let (sched, buffer) = (self.policy.scheduling, &own.buffer);
        match &self.rule {
            Replication::Flood | Replication::FirstContact => {
                offers.scan_index(sched, buffer, peer, metas, rng, |id| {
                    match forwardable(own, metas, peer, now, id) {
                        Some(_) => Verdict::Accept,
                        None => Verdict::Never,
                    }
                })
            }
            // A stored copy's quota only ever shrinks (halving edits it in
            // place, a fresh copy is a fresh insert delta), so a wait-phase
            // copy headed elsewhere never comes back: `Never`.
            Replication::Spray { .. } => offers.scan_index(sched, buffer, peer, metas, rng, |id| {
                match forwardable(own, metas, peer, now, id) {
                    Some(msg) if msg.dst == peer.id || msg.copies > 1 => Verdict::Accept,
                    _ => Verdict::Never,
                }
            }),
            // The destination test is constant per direction and expiry is
            // final. Direct Delivery alone skips the capacity fit.
            Replication::Direct => offers.scan_index(sched, buffer, peer, metas, rng, |id| {
                if peer.knows(id) {
                    return Verdict::Never;
                }
                let msg = own.buffer.get(id, metas).expect("ordered id is stored");
                if msg.dst == peer.id && !msg.is_expired(now) {
                    Verdict::Accept
                } else {
                    Verdict::Never
                }
            }),
            // A failed utility comparison is the one non-permanent rejection
            // of the policy routers — recency tables move without a buffer
            // delta — so it keeps the candidate (`NotNow`).
            Replication::Focus { last_met, .. } => {
                offers.scan_index(sched, buffer, peer, metas, rng, |id| {
                    let Some(msg) = forwardable(own, metas, peer, now, id) else {
                        return Verdict::Never;
                    };
                    if msg.dst == peer.id || msg.copies > 1 {
                        return Verdict::Accept; // direct delivery or spray phase
                    }
                    // Focus phase: hand off the single copy only if the peer
                    // has strictly better (more recent) last-encounter utility.
                    let peer_recency = peer_router.delivery_metric(msg.dst, now);
                    let own_recency = last_met[msg.dst.index()]
                        .map(|t| -now.since(t).as_secs_f64())
                        .unwrap_or(f64::NEG_INFINITY);
                    if matches!(peer_recency, Some(p) if p > own_recency) {
                        Verdict::Accept
                    } else {
                        Verdict::NotNow
                    }
                })
            }
        }
    }

    fn on_message_received(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg: &Message,
        from: NodeId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ReceiveOutcome {
        // A quota-carrying snapshot holds the sender's quota at send time;
        // this side stores its share (a focus-phase copy moves whole).
        // Destination delivery ignores quotas.
        let mut incoming = *msg;
        match self.rule {
            Replication::Spray { binary, .. } => {
                incoming.copies = handed_over(binary, msg.copies).max(1);
            }
            Replication::Focus { .. } => {
                self.met(from, now);
                incoming.copies = handed_over(true, msg.copies).max(1);
            }
            Replication::Flood | Replication::Direct | Replication::FirstContact => {}
        }
        standard_receive(
            own,
            metas,
            &incoming,
            now,
            policy_victim(self.policy.dropping, metas, now, rng),
        )
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
        // Paper rule: after handing a message to its final destination the
        // sender discards its own copy.
        let keep = !delivered
            && match self.rule {
                Replication::Flood | Replication::Direct => true,
                // The single copy moved on.
                Replication::FirstContact => false,
                Replication::Spray { binary, .. } => {
                    if let Some(copies) = own.buffer.copies_mut(msg_id) {
                        *copies = (*copies - handed_over(binary, *copies)).max(1);
                    }
                    true
                }
                // Spray keeps the ceiling half; in the focus phase the copy
                // moved to the better custodian.
                Replication::Focus { .. } => match own.buffer.copies_mut(msg_id) {
                    Some(copies) if *copies > 1 => {
                        *copies -= handed_over(true, *copies);
                        true
                    }
                    Some(_) => false,
                    None => true,
                },
            };
        if !keep {
            own.buffer.remove(msg_id, metas);
        }
    }

    fn delivery_metric(&self, dest: NodeId, now: SimTime) -> Option<f64> {
        // Negated recency: higher (closer to zero) = met more recently.
        match &self.rule {
            Replication::Focus { last_met, .. } => {
                last_met[dest.index()].map(|t| -now.since(t).as_secs_f64())
            }
            _ => None,
        }
    }

    fn routing_generation(&self) -> u64 {
        match self.rule {
            Replication::Focus { met_gen, .. } => met_gen,
            _ => 0,
        }
    }

    fn snapshot_state(&self) -> RouterSnapshot {
        // The encounter table is the only semantic state; `met_gen` is
        // within-run bookkeeping.
        match &self.rule {
            Replication::Focus { last_met, .. } => RouterSnapshot::SprayFocus {
                last_met: last_met.clone(),
            },
            _ => RouterSnapshot::Stateless,
        }
    }

    fn restore_state(&mut self, snap: RouterSnapshot) -> Result<(), String> {
        match (&mut self.rule, snap) {
            (
                Replication::Focus {
                    last_met, met_gen, ..
                },
                RouterSnapshot::SprayFocus { last_met: saved },
            ) if saved.len() == last_met.len() => {
                *last_met = saved;
                *met_gen = 0;
                Ok(())
            }
            (rule, RouterSnapshot::Stateless) if !matches!(rule, Replication::Focus { .. }) => {
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
    use crate::RouterKind;
    use vdtn_sim_core::SimDuration;

    fn msg(id: u64, dst: u32, size: u64, ttl_min: u64) -> Message {
        Message::new(
            MessageId(id),
            NodeId(0),
            NodeId(dst),
            size,
            SimTime::ZERO,
            SimDuration::from_mins(ttl_min),
        )
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn router(kind: RouterKind, own: u32, policy: PolicyCombo) -> Box<dyn Router> {
        kind.build(NodeId(own), 10, policy)
    }

    /// Create `msgs` at `own` through `r` at t = 0; returns their table.
    fn create(
        r: &mut dyn Router,
        own: &mut NodeState,
        msgs: &[Message],
        rng: &mut SimRng,
    ) -> Vec<MsgMeta> {
        let metas = table(msgs);
        for &m in msgs {
            r.on_message_created(own, &metas, m, SimTime::ZERO, rng);
        }
        metas
    }

    /// `next_transfer` on a fresh contact, with a dummy peer router.
    fn offer(
        r: &mut dyn Router,
        own: &NodeState,
        metas: &[MsgMeta],
        peer: &NodeState,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<MessageId> {
        let dummy = router(RouterKind::Epidemic, 0, PolicyCombo::FIFO_FIFO);
        r.next_transfer(
            own,
            metas,
            peer,
            &*dummy,
            &mut ContactOffers::new().view(0),
            now,
            rng,
        )
    }

    // --- Epidemic ---

    fn epidemic() -> (Box<dyn Router>, NodeState, NodeState, SimRng) {
        (
            router(RouterKind::Epidemic, 1, PolicyCombo::LIFETIME),
            NodeState::new(NodeId(1), 10_000, false),
            NodeState::new(NodeId(2), 10_000, false),
            SimRng::seed_from_u64(7),
        )
    }

    #[test]
    fn offers_messages_peer_lacks_in_policy_order() {
        let (mut r, mut own, peer, mut rng) = epidemic();
        let now = SimTime::ZERO;
        let msgs = [msg(1, 9, 100, 10), msg(2, 9, 100, 90), msg(3, 9, 100, 50)];
        let metas = create(&mut *r, &mut own, &msgs, &mut rng);
        // Lifetime DESC: longest TTL first → message 2.
        let next = offer(&mut *r, &own, &metas, &peer, now, &mut rng);
        assert_eq!(next, Some(MessageId(2)));
    }

    #[test]
    fn skips_messages_peer_knows_or_excluded() {
        let (mut r, mut own, mut peer, mut rng) = epidemic();
        let now = SimTime::ZERO;
        let dummy = router(RouterKind::Epidemic, 0, PolicyCombo::FIFO_FIFO);
        let msgs = [msg(1, 9, 100, 90), msg(2, 9, 100, 50)];
        let metas = create(&mut *r, &mut own, &msgs, &mut rng);
        // Peer already carries message 1.
        peer.buffer.insert(msg(1, 9, 100, 90)).unwrap();
        let mut offers = ContactOffers::new();
        let mut next = |r: &mut Box<dyn Router>, offers: &mut ContactOffers| {
            let view = &mut offers.view(0);
            r.next_transfer(&own, &metas, &peer, &*dummy, view, now, &mut rng)
        };
        assert_eq!(next(&mut r, &mut offers), Some(MessageId(2)));
        // Marking message 2 offered silences the router.
        offers.record(MessageId(2));
        let next = next(&mut r, &mut offers);
        assert_eq!(next, None);
    }

    #[test]
    fn skips_messages_peer_consumed() {
        let (mut r, mut own, mut peer, mut rng) = epidemic();
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut own, &[msg(1, 2, 100, 90)], &mut rng);
        peer.delivered.insert(MessageId(1));
        assert_eq!(offer(&mut *r, &own, &metas, &peer, now, &mut rng), None);
    }

    #[test]
    fn skips_expired_and_oversized() {
        let (mut r, mut own, _, mut rng) = epidemic();
        let now = SimTime::ZERO;
        let msgs = [msg(1, 9, 100, 1), msg(2, 9, 9_000, 90)];
        let metas = table(&msgs);
        r.on_message_created(&mut own, &metas, msgs[0], now, &mut rng);
        let later = SimTime::from_secs_f64(120.0);
        let peer = NodeState::new(NodeId(2), 10_000, false);
        assert_eq!(
            offer(&mut *r, &own, &metas, &peer, later, &mut rng),
            None,
            "expired message must not be offered"
        );
        // Message larger than the peer's whole buffer is never offered.
        // (Fresh router for the fresh node, as in the engine.)
        let mut r2 = router(RouterKind::Epidemic, 1, PolicyCombo::LIFETIME);
        let mut own2 = NodeState::new(NodeId(1), 10_000, false);
        r2.on_message_created(&mut own2, &metas, msgs[1], now, &mut rng);
        let tiny_peer = NodeState::new(NodeId(2), 1_000, false);
        assert_eq!(
            offer(&mut *r2, &own2, &metas, &tiny_peer, now, &mut rng),
            None
        );
    }

    #[test]
    fn sender_discards_after_final_delivery_only() {
        let (mut r, mut own, _, mut rng) = epidemic();
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut own, &[msg(1, 2, 100, 90)], &mut rng);
        r.on_transfer_success(&mut own, &metas, MessageId(1), NodeId(5), false, now);
        assert!(own.buffer.contains(MessageId(1)), "relay keeps its copy");
        r.on_transfer_success(&mut own, &metas, MessageId(1), NodeId(2), true, now);
        assert!(
            !own.buffer.contains(MessageId(1)),
            "copy discarded after delivering to destination"
        );
    }

    #[test]
    fn creation_overflow_uses_drop_policy() {
        let mut r = router(RouterKind::Epidemic, 1, PolicyCombo::LIFETIME);
        let mut own = NodeState::new(NodeId(1), 250, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        let msgs = [msg(1, 9, 100, 5), msg(2, 9, 100, 90), msg(3, 9, 100, 50)];
        let metas = table(&msgs);
        let c1 = r.on_message_created(&mut own, &metas, msgs[0], now, &mut rng);
        assert!(c1.stored && c1.evicted.is_empty());
        let c2 = r.on_message_created(&mut own, &metas, msgs[1], now, &mut rng);
        assert!(c2.stored);
        // Third message forces eviction of the shortest-TTL (message 1).
        let c3 = r.on_message_created(&mut own, &metas, msgs[2], now, &mut rng);
        assert!(c3.stored);
        assert_eq!(c3.evicted.len(), 1);
        assert_eq!(c3.evicted[0].id, MessageId(1));
    }

    // --- Spray and Wait ---

    fn snw(binary: bool) -> RouterKind {
        RouterKind::SprayAndWait { copies: 12, binary }
    }

    fn spray_and_wait(binary: bool) -> (Box<dyn Router>, NodeState, NodeState, SimRng) {
        (
            router(snw(binary), 1, PolicyCombo::LIFETIME),
            NodeState::new(NodeId(1), 10_000, false),
            NodeState::new(NodeId(2), 10_000, false),
            SimRng::seed_from_u64(3),
        )
    }

    /// One relay hop of a copy holding `copies`: the receiver's stored
    /// quota and the sender's remaining quota afterwards.
    fn shares(binary: bool, copies: u32) -> (u32, u32) {
        let (mut r, mut sender, mut receiver, mut rng) = spray_and_wait(binary);
        let mut m = msg(1, 9, 100, 90);
        m.copies = copies;
        let (metas, now) = (table(&[m]), SimTime::ZERO);
        sender.buffer.insert(m).unwrap();
        r.on_message_received(&mut receiver, &metas, &m, NodeId(1), now, &mut rng);
        r.on_transfer_success(&mut sender, &metas, MessageId(1), NodeId(2), false, now);
        (
            receiver.buffer.get(MessageId(1), &metas).unwrap().copies,
            sender.buffer.get(MessageId(1), &metas).unwrap().copies,
        )
    }

    #[test]
    fn source_stamps_initial_quota() {
        let (mut r, mut own, _, mut rng) = spray_and_wait(true);
        let metas = create(&mut *r, &mut own, &[msg(1, 9, 100, 90)], &mut rng);
        assert_eq!(own.buffer.get(MessageId(1), &metas).unwrap().copies, 12);
    }

    #[test]
    fn binary_halving_shares() {
        assert_eq!(shares(true, 12), (6, 6));
        assert_eq!(shares(true, 3), (1, 2));
        assert_eq!(shares(true, 2), (1, 1));
    }

    #[test]
    fn source_spray_hands_one() {
        assert_eq!(shares(false, 12), (1, 11));
    }

    #[test]
    fn spray_then_wait_transition() {
        let (mut r, mut own, peer, mut rng) = spray_and_wait(true);
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut own, &[msg(1, 9, 100, 90)], &mut rng);
        // Quota 12 > 1 ⇒ sprayable to a non-destination peer.
        assert_eq!(
            offer(&mut *r, &own, &metas, &peer, now, &mut rng),
            Some(MessageId(1))
        );
        // Force the wait phase: single copy left. The in-place quota edit
        // must be visible to the scan (copies is not a scheduling key, so
        // the indexed order stays valid).
        *own.buffer.copies_mut(MessageId(1)).unwrap() = 1;
        assert_eq!(
            offer(&mut *r, &own, &metas, &peer, now, &mut rng),
            None,
            "wait phase: no spray to non-destination"
        );
        // But direct delivery is always allowed.
        let dest = NodeState::new(NodeId(9), 10_000, false);
        assert_eq!(
            offer(&mut *r, &own, &metas, &dest, now, &mut rng),
            Some(MessageId(1))
        );
    }

    #[test]
    fn quota_conserved_across_a_hop() {
        let (mut r, mut sender, mut receiver, mut rng) = spray_and_wait(true);
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut sender, &[msg(1, 9, 100, 90)], &mut rng);
        let snapshot = sender.buffer.get(MessageId(1), &metas).unwrap();
        // Receiver side.
        let out = r.on_message_received(&mut receiver, &metas, &snapshot, NodeId(1), now, &mut rng);
        assert!(matches!(out, ReceiveOutcome::Stored { .. }));
        // Sender side.
        r.on_transfer_success(&mut sender, &metas, MessageId(1), NodeId(2), false, now);
        let s = sender.buffer.get(MessageId(1), &metas).unwrap().copies;
        let v = receiver.buffer.get(MessageId(1), &metas).unwrap().copies;
        assert_eq!(s + v, 12, "logical copies conserved");
        assert_eq!(s, 6);
        assert_eq!(v, 6);
    }

    #[test]
    fn quota_chain_reaches_wait_phase() {
        let mut copies = 12u32;
        let mut hops = 0;
        while copies > 1 {
            copies = shares(true, copies).1;
            hops += 1;
        }
        // 12 → 6 → 3 → 2 → 1: four halvings.
        assert_eq!(hops, 4);
    }

    #[test]
    fn delivery_removes_sender_copy() {
        let (mut r, mut own, _, mut rng) = spray_and_wait(true);
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut own, &[msg(1, 2, 100, 90)], &mut rng);
        r.on_transfer_success(&mut own, &metas, MessageId(1), NodeId(2), true, now);
        assert!(!own.buffer.contains(MessageId(1)));
    }

    #[test]
    fn receiver_share_never_zero() {
        // A sender in wait phase only sends to the destination, but if a
        // quota-1 snapshot ever reaches a relay the share clamps to 1.
        let (mut r, _, mut receiver, mut rng) = spray_and_wait(true);
        let mut m = msg(1, 9, 100, 90);
        m.copies = 1;
        let (metas, now) = (table(&[m]), SimTime::ZERO);
        let out = r.on_message_received(&mut receiver, &metas, &m, NodeId(1), now, &mut rng);
        assert!(matches!(out, ReceiveOutcome::Stored { .. }));
        assert_eq!(receiver.buffer.get(MessageId(1), &metas).unwrap().copies, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_quota_rejected() {
        RouterKind::SprayAndWait {
            copies: 0,
            binary: true,
        }
        .build(NodeId(0), 10, PolicyCombo::FIFO_FIFO);
    }

    // --- Direct Delivery and First Contact ---

    #[test]
    fn direct_delivery_waits_for_destination() {
        let mut r = router(RouterKind::DirectDelivery, 1, PolicyCombo::FIFO_FIFO);
        let mut own = NodeState::new(NodeId(1), 10_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut own, &[msg(1, 9, 100, 90)], &mut rng);

        let relay = NodeState::new(NodeId(5), 10_000, false);
        assert_eq!(
            offer(&mut *r, &own, &metas, &relay, now, &mut rng),
            None,
            "never offers to a relay"
        );
        let dest = NodeState::new(NodeId(9), 10_000, false);
        assert_eq!(
            offer(&mut *r, &own, &metas, &dest, now, &mut rng),
            Some(MessageId(1))
        );
        r.on_transfer_success(&mut own, &metas, MessageId(1), NodeId(9), true, now);
        assert!(own.buffer.is_empty());
    }

    #[test]
    fn first_contact_forwards_to_anyone_and_relinquishes() {
        let mut r = router(RouterKind::FirstContact, 1, PolicyCombo::FIFO_FIFO);
        let mut own = NodeState::new(NodeId(1), 10_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        let metas = create(&mut *r, &mut own, &[msg(1, 9, 100, 90)], &mut rng);

        let relay = NodeState::new(NodeId(5), 10_000, false);
        assert_eq!(
            offer(&mut *r, &own, &metas, &relay, now, &mut rng),
            Some(MessageId(1)),
            "first contact forwards to any peer"
        );
        // Successful relay (not destination): copy leaves the sender.
        r.on_transfer_success(&mut own, &metas, MessageId(1), NodeId(5), false, now);
        assert!(own.buffer.is_empty(), "single copy moves, never replicates");
    }

    #[test]
    fn direct_delivery_orders_multiple_deliverables_by_policy() {
        let mut r = router(RouterKind::DirectDelivery, 1, PolicyCombo::LIFETIME);
        let mut own = NodeState::new(NodeId(1), 10_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        let msgs = [msg(1, 9, 100, 10), msg(2, 9, 100, 90)];
        let metas = create(&mut *r, &mut own, &msgs, &mut rng);
        let dest = NodeState::new(NodeId(9), 10_000, false);
        assert_eq!(
            offer(&mut *r, &own, &metas, &dest, now, &mut rng),
            Some(MessageId(2)),
            "Lifetime DESC offers the longest-lived first"
        );
    }

    // --- Spray and Focus ---

    fn focus_msg(id: u64, dst: u32, copies: u32) -> Message {
        let mut m = msg(id, dst, 100, 90);
        m.copies = copies;
        m
    }

    fn spray_and_focus() -> (Box<dyn Router>, Box<dyn Router>, NodeState, NodeState) {
        let kind = RouterKind::SprayAndFocus { copies: 8 };
        (
            router(kind.clone(), 1, PolicyCombo::LIFETIME),
            router(kind, 2, PolicyCombo::LIFETIME),
            NodeState::new(NodeId(1), 100_000, false),
            NodeState::new(NodeId(2), 100_000, false),
        )
    }

    /// The message table of the Spray-and-Focus tests: message 1, bound
    /// for node 9 (a copy's quota is not part of its record).
    fn focus_metas() -> Vec<MsgMeta> {
        table(&[focus_msg(1, 9, 1)])
    }

    fn focus_offer(
        a: &mut dyn Router,
        sa: &NodeState,
        sb: &NodeState,
        b: &dyn Router,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<MessageId> {
        let mut offers = ContactOffers::new();
        a.next_transfer(sa, &focus_metas(), sb, b, &mut offers.view(0), now, rng)
    }

    #[test]
    fn spray_phase_behaves_like_snw() {
        let (mut a, b, mut sa, sb) = spray_and_focus();
        let mut rng = SimRng::seed_from_u64(1);
        let metas = focus_metas();
        a.on_message_created(&mut sa, &metas, focus_msg(1, 9, 0), t(0.0), &mut rng);
        assert_eq!(sa.buffer.get(MessageId(1), &metas).unwrap().copies, 8);
        assert_eq!(
            focus_offer(&mut *a, &sa, &sb, &*b, t(0.0), &mut rng),
            Some(MessageId(1))
        );
        a.on_transfer_success(&mut sa, &metas, MessageId(1), NodeId(2), false, t(0.0));
        assert_eq!(sa.buffer.get(MessageId(1), &metas).unwrap().copies, 4);
    }

    #[test]
    fn focus_phase_moves_to_better_custodian() {
        let (mut a, mut b, mut sa, mut sb) = spray_and_focus();
        let mut rng = SimRng::seed_from_u64(1);
        sa.buffer.insert(focus_msg(1, 9, 1)).unwrap();

        // Peer never met node 9: no handoff.
        assert_eq!(
            focus_offer(&mut *a, &sa, &sb, &*b, t(100.0), &mut rng),
            None
        );
        // Peer met node 9 at t = 50: handoff happens.
        let metas = focus_metas();
        b.on_contact_up(&mut sb, &metas, NodeId(9), &Digest::None, t(50.0));
        assert_eq!(
            focus_offer(&mut *a, &sa, &sb, &*b, t(100.0), &mut rng),
            Some(MessageId(1))
        );
        // After the handoff the single copy is gone from the sender.
        a.on_transfer_success(&mut sa, &metas, MessageId(1), NodeId(2), false, t(100.0));
        assert!(!sa.buffer.contains(MessageId(1)));
    }

    #[test]
    fn focus_requires_strictly_better_utility() {
        let (mut a, mut b, mut sa, mut sb) = spray_and_focus();
        let mut rng = SimRng::seed_from_u64(1);
        sa.buffer.insert(focus_msg(1, 9, 1)).unwrap();
        // Both met node 9, but we met it more recently.
        let metas = focus_metas();
        a.on_contact_up(&mut sa, &metas, NodeId(9), &Digest::None, t(80.0));
        b.on_contact_up(&mut sb, &metas, NodeId(9), &Digest::None, t(50.0));
        assert_eq!(
            focus_offer(&mut *a, &sa, &sb, &*b, t(100.0), &mut rng),
            None
        );
    }

    #[test]
    fn destination_contact_always_wins() {
        let (mut a, _, mut sa, _) = spray_and_focus();
        let b_dest = router(
            RouterKind::SprayAndFocus { copies: 8 },
            9,
            PolicyCombo::LIFETIME,
        );
        let sb_dest = NodeState::new(NodeId(9), 100_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        sa.buffer.insert(focus_msg(1, 9, 1)).unwrap();
        assert_eq!(
            focus_offer(&mut *a, &sa, &sb_dest, &*b_dest, t(5.0), &mut rng),
            Some(MessageId(1))
        );
        let metas = focus_metas();
        a.on_transfer_success(&mut sa, &metas, MessageId(1), NodeId(9), true, t(5.0));
        assert!(sa.buffer.is_empty());
    }

    #[test]
    fn receive_updates_encounter_table() {
        let (mut a, _, mut sa, _) = spray_and_focus();
        let mut rng = SimRng::seed_from_u64(1);
        let m = focus_msg(1, 9, 4);
        let metas = focus_metas();
        a.on_message_received(&mut sa, &metas, &m, NodeId(3), t(42.0), &mut rng);
        // Met node 3 ten seconds ago: negated recency.
        assert_eq!(a.delivery_metric(NodeId(3), t(52.0)), Some(-10.0));
        // Received copy took half the quota.
        assert_eq!(sa.buffer.get(MessageId(1), &metas).unwrap().copies, 2);
    }
}
