//! Baseline routers: Direct Delivery and First Contact.
//!
//! Neither appears in the paper's figures, but both are classic DTN
//! baselines (zero replication) that bound the protocol space from below:
//! Direct Delivery gives the worst-case delay/best-case overhead, First
//! Contact shows what a single wandering copy achieves. They are used by the
//! extension benches and as sanity anchors in the integration tests
//! (Epidemic must dominate both on delivery ratio).

use crate::candidates::Verdict;
use crate::offers::OfferView;
use crate::router::{CreateOutcome, ReceiveOutcome, Router};
use crate::state::NodeState;
use crate::util::{make_room_and_store, policy_victim, standard_receive};
use vdtn_bundle::{Message, MessageId, PolicyCombo};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// Source holds every message until it meets the destination.
pub struct DirectDeliveryRouter {
    policy: PolicyCombo,
}

impl DirectDeliveryRouter {
    /// Create with the given buffer policies (scheduling matters only for
    /// the order of multiple deliverable messages at one contact).
    pub fn new(policy: PolicyCombo) -> Self {
        DirectDeliveryRouter { policy }
    }
}

impl Router for DirectDeliveryRouter {
    fn kind_label(&self) -> &'static str {
        "Direct Delivery"
    }

    fn wants_buffer_deltas(&self) -> bool {
        true
    }

    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        msg: Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> CreateOutcome {
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
        // The destination test is constant per direction and expiry is
        // final, so every rejection is permanent for this contact.
        offers.scan_index(
            self.policy.scheduling,
            &own.buffer,
            peer,
            rng,
            direct_verdict(own, peer, now),
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
        // Only ever receives as the destination, but the standard pipeline
        // handles stray relays gracefully anyway.
        standard_receive(own, msg, now, policy_victim(self.policy.dropping, now, rng))
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
        }
    }
}

/// Direct Delivery's eligibility verdict.
fn direct_verdict<'a>(
    own: &'a NodeState,
    peer: &'a NodeState,
    now: SimTime,
) -> impl FnMut(MessageId) -> Verdict + 'a {
    move |id| {
        if peer.knows(id) {
            return Verdict::Never;
        }
        let msg = own.buffer.get(id).expect("ordered id is stored");
        if msg.dst == peer.id && !msg.is_expired(now) {
            Verdict::Accept
        } else {
            Verdict::Never
        }
    }
}

/// First Contact's eligibility verdict (identical tests to flooding: the
/// single copy goes to the first peer that can hold it).
fn first_contact_verdict<'a>(
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
        Verdict::Accept
    }
}

/// Single copy forwarded to the first peer encountered (and then erased at
/// the sender), hopping until it meets the destination or expires.
pub struct FirstContactRouter {
    policy: PolicyCombo,
}

impl FirstContactRouter {
    /// Create with the given buffer policies.
    pub fn new(policy: PolicyCombo) -> Self {
        FirstContactRouter { policy }
    }
}

impl Router for FirstContactRouter {
    fn kind_label(&self) -> &'static str {
        "First Contact"
    }

    fn wants_buffer_deltas(&self) -> bool {
        true
    }

    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        msg: Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> CreateOutcome {
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
            first_contact_verdict(own, peer, now),
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
        standard_receive(own, msg, now, policy_victim(self.policy.dropping, now, rng))
    }

    fn on_transfer_success(
        &mut self,
        own: &mut NodeState,
        msg_id: MessageId,
        _to: NodeId,
        _delivered: bool,
        _now: SimTime,
    ) {
        // The single copy moved on — always relinquish it.
        own.buffer.remove(msg_id);
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

    #[test]
    fn direct_delivery_waits_for_destination() {
        let mut r = DirectDeliveryRouter::new(PolicyCombo::FIFO_FIFO);
        let mut own = NodeState::new(NodeId(1), 10_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 9), now, &mut rng);

        let relay = NodeState::new(NodeId(5), 10_000, false);
        assert_eq!(
            r.next_transfer(
                &own,
                &relay,
                &dummy_dd(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            None,
            "never offers to a relay"
        );
        let dest = NodeState::new(NodeId(9), 10_000, false);
        assert_eq!(
            r.next_transfer(
                &own,
                &dest,
                &dummy_dd(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1))
        );
        r.on_transfer_success(&mut own, MessageId(1), NodeId(9), true, now);
        assert!(own.buffer.is_empty());
    }

    fn dummy_dd() -> DirectDeliveryRouter {
        DirectDeliveryRouter::new(PolicyCombo::FIFO_FIFO)
    }

    #[test]
    fn first_contact_forwards_to_anyone_and_relinquishes() {
        let mut r = FirstContactRouter::new(PolicyCombo::FIFO_FIFO);
        let mut own = NodeState::new(NodeId(1), 10_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 9), now, &mut rng);

        let relay = NodeState::new(NodeId(5), 10_000, false);
        assert_eq!(
            r.next_transfer(
                &own,
                &relay,
                &dummy_fc(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1)),
            "first contact forwards to any peer"
        );
        // Successful relay (not destination): copy leaves the sender.
        r.on_transfer_success(&mut own, MessageId(1), NodeId(5), false, now);
        assert!(own.buffer.is_empty(), "single copy moves, never replicates");
    }

    fn dummy_fc() -> FirstContactRouter {
        FirstContactRouter::new(PolicyCombo::FIFO_FIFO)
    }

    #[test]
    fn direct_delivery_orders_multiple_deliverables_by_policy() {
        let mut r = DirectDeliveryRouter::new(PolicyCombo::LIFETIME);
        let mut own = NodeState::new(NodeId(1), 10_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        let mut m1 = msg(1, 9);
        m1.ttl = SimDuration::from_mins(10);
        let mut m2 = msg(2, 9);
        m2.ttl = SimDuration::from_mins(90);
        r.on_message_created(&mut own, m1, now, &mut rng);
        r.on_message_created(&mut own, m2, now, &mut rng);
        let dest = NodeState::new(NodeId(9), 10_000, false);
        assert_eq!(
            r.next_transfer(
                &own,
                &dest,
                &dummy_dd(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(2)),
            "Lifetime DESC offers the longest-lived first"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(dummy_dd().kind_label(), "Direct Delivery");
        assert_eq!(dummy_fc().kind_label(), "First Contact");
    }
}
