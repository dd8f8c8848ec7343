//! Spray and Wait routing (Spyropoulos et al. 2005).
//!
//! Each message starts with a quota of `L` logical copies (the paper uses
//! `L = 12`). In the **binary** variant a node holding `n > 1` copies hands
//! ⌊n/2⌋ to a peer that has none and keeps ⌈n/2⌉; a node holding a single
//! copy waits and forwards only to the final destination ("wait phase").
//! The non-binary ("source spray") variant hands exactly one copy at a time.
//!
//! The quota travels inside the message snapshot: at transfer completion the
//! sender halves its stored copy and the receiver stores the complement, so
//! the total number of logical copies in the network never exceeds `L`
//! (property-tested in the integration suite).

use crate::candidates::Verdict;
use crate::offers::OfferView;
use crate::router::{CreateOutcome, ReceiveOutcome, Router};
use crate::state::NodeState;
use crate::util::{make_room_and_store, policy_victim, standard_receive};
use vdtn_bundle::{Message, MessageId, PolicyCombo};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// Quota-replication router with pluggable buffer policies.
pub struct SprayAndWaitRouter {
    initial_copies: u32,
    binary: bool,
    policy: PolicyCombo,
}

impl SprayAndWaitRouter {
    /// Create with quota `L = initial_copies`; `binary` selects the paper's
    /// binary halving variant.
    pub fn new(initial_copies: u32, binary: bool, policy: PolicyCombo) -> Self {
        assert!(initial_copies >= 1, "spray quota must be at least 1");
        SprayAndWaitRouter {
            initial_copies,
            binary,
            policy,
        }
    }

    /// Copies the receiver obtains from a sender holding `sender_copies`.
    fn receiver_share(&self, sender_copies: u32) -> u32 {
        if self.binary {
            sender_copies / 2
        } else {
            1
        }
    }

    /// Copies the sender retains after a successful spray.
    fn sender_share(&self, sender_copies: u32) -> u32 {
        sender_copies - self.receiver_share(sender_copies)
    }
}

/// Spray-and-Wait's eligibility verdict. All rejections are permanent for
/// this direction: peer-knows hits at the index scan mean destination
/// consumption, expiry and capacity fits are final, and a stored copy's
/// quota only ever shrinks (halving via `copies_mut`, a fresh copy is a
/// fresh insert delta) — so a wait-phase copy headed elsewhere never comes
/// back.
fn spray_verdict<'a>(
    own: &'a NodeState,
    peer: &'a NodeState,
    now: SimTime,
) -> impl FnMut(MessageId) -> Verdict + 'a {
    move |id| {
        if peer.knows(id) {
            return Verdict::Never;
        }
        let msg = own.buffer.get(id).expect("ordered id is stored");
        if msg.is_expired(now) || !peer.buffer.could_fit(msg.size) {
            return Verdict::Never;
        }
        // Spray phase needs quota; wait phase only direct delivery.
        if msg.dst == peer.id || msg.copies > 1 {
            Verdict::Accept
        } else {
            Verdict::Never
        }
    }
}

impl Router for SprayAndWaitRouter {
    fn kind_label(&self) -> &'static str {
        "Spray and Wait"
    }

    fn wants_buffer_deltas(&self) -> bool {
        true
    }

    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        mut msg: Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> CreateOutcome {
        msg.copies = self.initial_copies;
        match make_room_and_store(own, msg, policy_victim(self.policy.dropping, now, rng)) {
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

    fn next_transfer(
        &mut self,
        own: &NodeState,
        peer: &NodeState,
        _peer_router: &dyn Router,
        offers: &mut OfferView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<MessageId> {
        offers.scan_index(
            self.policy.scheduling,
            &own.buffer,
            peer,
            rng,
            spray_verdict(own, peer, now),
        )
    }

    fn on_message_received(
        &mut self,
        own: &mut NodeState,
        msg: &Message,
        _from: NodeId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ReceiveOutcome {
        // The snapshot carries the sender's quota at send time; this side
        // stores its share. Destination delivery ignores quotas.
        let mut incoming = *msg;
        incoming.copies = self.receiver_share(msg.copies).max(1);
        standard_receive(
            own,
            &incoming,
            now,
            policy_victim(self.policy.dropping, now, rng),
        )
    }

    fn on_transfer_success(
        &mut self,
        own: &mut NodeState,
        msg_id: MessageId,
        _to: NodeId,
        delivered: bool,
        _now: SimTime,
    ) {
        if delivered {
            own.buffer.remove(msg_id);
            return;
        }
        if let Some(copies) = own.buffer.copies_mut(msg_id) {
            *copies = self.sender_share(*copies).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offers::ContactOffers;
    use vdtn_sim_core::SimDuration;

    fn msg(id: u64, dst: u32) -> Message {
        Message::new(
            MessageId(id),
            NodeId(0),
            NodeId(dst),
            100,
            SimTime::ZERO,
            SimDuration::from_mins(90),
        )
    }

    fn setup(binary: bool) -> (SprayAndWaitRouter, NodeState, NodeState, SimRng) {
        (
            SprayAndWaitRouter::new(12, binary, PolicyCombo::LIFETIME),
            NodeState::new(NodeId(1), 10_000, false),
            NodeState::new(NodeId(2), 10_000, false),
            SimRng::seed_from_u64(3),
        )
    }

    #[test]
    fn source_stamps_initial_quota() {
        let (mut r, mut own, _, mut rng) = setup(true);
        r.on_message_created(&mut own, msg(1, 9), SimTime::ZERO, &mut rng);
        assert_eq!(own.buffer.get(MessageId(1)).unwrap().copies, 12);
    }

    #[test]
    fn binary_halving_shares() {
        let (r, ..) = setup(true);
        assert_eq!(r.receiver_share(12), 6);
        assert_eq!(r.sender_share(12), 6);
        assert_eq!(r.receiver_share(3), 1);
        assert_eq!(r.sender_share(3), 2);
        assert_eq!(r.receiver_share(2), 1);
        assert_eq!(r.sender_share(2), 1);
    }

    #[test]
    fn source_spray_hands_one() {
        let (r, ..) = setup(false);
        assert_eq!(r.receiver_share(12), 1);
        assert_eq!(r.sender_share(12), 11);
    }

    #[test]
    fn spray_then_wait_transition() {
        let (mut r, mut own, peer, mut rng) = setup(true);
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 9), now, &mut rng);
        // Quota 12 > 1 ⇒ sprayable to a non-destination peer.
        assert_eq!(
            r.next_transfer(
                &own,
                &peer,
                &dummy(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1))
        );
        // Force the wait phase: single copy left. The in-place quota edit
        // must be visible to the scan (copies is not a scheduling key, so
        // the indexed order stays valid).
        *own.buffer.copies_mut(MessageId(1)).unwrap() = 1;
        assert_eq!(
            r.next_transfer(
                &own,
                &peer,
                &dummy(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            None,
            "wait phase: no spray to non-destination"
        );
        // But direct delivery is always allowed.
        let dest = NodeState::new(NodeId(9), 10_000, false);
        assert_eq!(
            r.next_transfer(
                &own,
                &dest,
                &dummy(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1))
        );
    }

    fn dummy() -> SprayAndWaitRouter {
        SprayAndWaitRouter::new(12, true, PolicyCombo::FIFO_FIFO)
    }

    #[test]
    fn quota_conserved_across_a_hop() {
        let (mut r, mut sender, mut receiver, mut rng) = setup(true);
        let now = SimTime::ZERO;
        r.on_message_created(&mut sender, msg(1, 9), now, &mut rng);
        let snapshot = sender.buffer.get(MessageId(1)).unwrap();
        // Receiver side.
        let out = r.on_message_received(&mut receiver, &snapshot, NodeId(1), now, &mut rng);
        assert!(matches!(out, ReceiveOutcome::Stored { .. }));
        // Sender side.
        r.on_transfer_success(&mut sender, MessageId(1), NodeId(2), false, now);
        let s = sender.buffer.get(MessageId(1)).unwrap().copies;
        let v = receiver.buffer.get(MessageId(1)).unwrap().copies;
        assert_eq!(s + v, 12, "logical copies conserved");
        assert_eq!(s, 6);
        assert_eq!(v, 6);
    }

    #[test]
    fn quota_chain_reaches_wait_phase() {
        let (r, ..) = setup(true);
        let mut copies = 12u32;
        let mut hops = 0;
        while copies > 1 {
            copies = r.sender_share(copies);
            hops += 1;
        }
        // 12 → 6 → 3 → 2 → 1: four halvings.
        assert_eq!(hops, 4);
    }

    #[test]
    fn delivery_removes_sender_copy() {
        let (mut r, mut own, _, mut rng) = setup(true);
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 2), now, &mut rng);
        r.on_transfer_success(&mut own, MessageId(1), NodeId(2), true, now);
        assert!(!own.buffer.contains(MessageId(1)));
    }

    #[test]
    fn receiver_share_never_zero() {
        // A sender in wait phase only sends to the destination, but if a
        // quota-1 snapshot ever reaches a relay the share clamps to 1.
        let (mut r, _, mut receiver, mut rng) = setup(true);
        let mut m = msg(1, 9);
        m.copies = 1;
        let out = r.on_message_received(&mut receiver, &m, NodeId(1), SimTime::ZERO, &mut rng);
        assert!(matches!(out, ReceiveOutcome::Stored { .. }));
        assert_eq!(receiver.buffer.get(MessageId(1)).unwrap().copies, 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_quota_rejected() {
        SprayAndWaitRouter::new(0, true, PolicyCombo::FIFO_FIFO);
    }
}
