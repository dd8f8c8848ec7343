//! Epidemic routing (Vahdat & Becker 2000).
//!
//! Nodes replicate every message to every peer that lacks it (summary-vector
//! anti-entropy). With infinite resources this is delay-optimal; under
//! finite buffers and bandwidth its performance hinges entirely on the
//! scheduling and dropping policies — which is precisely the knob the paper
//! turns.

use crate::candidates::Verdict;
use crate::offers::OfferView;
use crate::router::{CreateOutcome, ReceiveOutcome, Router};
use crate::state::NodeState;
use crate::util::{make_room_and_store, policy_victim, standard_receive};
use vdtn_bundle::{Message, MessageId, PolicyCombo};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// Flooding router with pluggable buffer policies.
pub struct EpidemicRouter {
    policy: PolicyCombo,
}

impl EpidemicRouter {
    /// Create with the given scheduling/dropping combination.
    pub fn new(policy: PolicyCombo) -> Self {
        EpidemicRouter { policy }
    }

    /// The active policy combination.
    pub fn policy(&self) -> PolicyCombo {
        self.policy
    }
}

/// The flooding eligibility verdict. Every rejection is permanent for this
/// contact direction: a peer-knows hit seen by the index scan can only mean
/// destination consumption (buffer membership is synced from deltas),
/// expiry is final, and capacity fits are constant per message.
fn flood_verdict<'a>(
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

impl Router for EpidemicRouter {
    fn kind_label(&self) -> &'static str {
        "Epidemic"
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
        // Scheduling policy orders the buffer; offer the first message the
        // peer does not already know and that could physically fit there.
        offers.scan_index(
            self.policy.scheduling,
            &own.buffer,
            peer,
            rng,
            flood_verdict(own, peer, now),
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
        delivered: bool,
        _now: SimTime,
    ) {
        // Paper rule: after handing a message to its final destination the
        // sender discards its own copy. Otherwise Epidemic keeps replicating.
        if delivered {
            own.buffer.remove(msg_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offers::ContactOffers;
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

    fn setup() -> (EpidemicRouter, NodeState, NodeState, SimRng) {
        (
            EpidemicRouter::new(PolicyCombo::LIFETIME),
            NodeState::new(NodeId(1), 10_000, false),
            NodeState::new(NodeId(2), 10_000, false),
            SimRng::seed_from_u64(7),
        )
    }

    #[test]
    fn offers_messages_peer_lacks_in_policy_order() {
        let (mut r, mut own, peer, mut rng) = setup();
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 9, 100, 10), now, &mut rng);
        r.on_message_created(&mut own, msg(2, 9, 100, 90), now, &mut rng);
        r.on_message_created(&mut own, msg(3, 9, 100, 50), now, &mut rng);
        // Lifetime DESC: longest TTL first → message 2.
        let mut offers = ContactOffers::new();
        let next = r.next_transfer(&own, &peer, &r_dummy(), &mut offers.view(0), now, &mut rng);
        assert_eq!(next, Some(MessageId(2)));
    }

    fn r_dummy() -> EpidemicRouter {
        EpidemicRouter::new(PolicyCombo::FIFO_FIFO)
    }

    #[test]
    fn skips_messages_peer_knows_or_excluded() {
        let (mut r, mut own, mut peer, mut rng) = setup();
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 9, 100, 90), now, &mut rng);
        r.on_message_created(&mut own, msg(2, 9, 100, 50), now, &mut rng);
        // Peer already carries message 1.
        peer.buffer.insert(msg(1, 9, 100, 90)).unwrap();
        let mut offers = ContactOffers::new();
        let next = r.next_transfer(&own, &peer, &r_dummy(), &mut offers.view(0), now, &mut rng);
        assert_eq!(next, Some(MessageId(2)));
        // Marking message 2 offered silences the router.
        offers.record(MessageId(2), own.buffer.handle_of(MessageId(2)).unwrap());
        let next = r.next_transfer(&own, &peer, &r_dummy(), &mut offers.view(0), now, &mut rng);
        assert_eq!(next, None);
    }

    #[test]
    fn skips_messages_peer_consumed() {
        let (mut r, mut own, mut peer, mut rng) = setup();
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 2, 100, 90), now, &mut rng);
        peer.delivered.insert(MessageId(1));
        assert_eq!(
            r.next_transfer(
                &own,
                &peer,
                &r_dummy(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn skips_expired_and_oversized() {
        let (mut r, mut own, _, mut rng) = setup();
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 9, 100, 1), now, &mut rng);
        let later = SimTime::from_secs_f64(120.0);
        let peer = NodeState::new(NodeId(2), 10_000, false);
        assert_eq!(
            r.next_transfer(
                &own,
                &peer,
                &r_dummy(),
                &mut ContactOffers::new().view(0),
                later,
                &mut rng
            ),
            None,
            "expired message must not be offered"
        );
        // Message larger than the peer's whole buffer is never offered.
        // (Fresh router for the fresh node, as in the engine.)
        let mut r2 = EpidemicRouter::new(PolicyCombo::LIFETIME);
        let mut own2 = NodeState::new(NodeId(1), 10_000, false);
        r2.on_message_created(&mut own2, msg(2, 9, 9_000, 90), now, &mut rng);
        let tiny_peer = NodeState::new(NodeId(2), 1_000, false);
        assert_eq!(
            r2.next_transfer(
                &own2,
                &tiny_peer,
                &r_dummy(),
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn sender_discards_after_final_delivery_only() {
        let (mut r, mut own, _, mut rng) = setup();
        let now = SimTime::ZERO;
        r.on_message_created(&mut own, msg(1, 2, 100, 90), now, &mut rng);
        r.on_transfer_success(&mut own, MessageId(1), NodeId(5), false, now);
        assert!(own.buffer.contains(MessageId(1)), "relay keeps its copy");
        r.on_transfer_success(&mut own, MessageId(1), NodeId(2), true, now);
        assert!(
            !own.buffer.contains(MessageId(1)),
            "copy discarded after delivering to destination"
        );
    }

    #[test]
    fn creation_overflow_uses_drop_policy() {
        let mut r = EpidemicRouter::new(PolicyCombo::LIFETIME);
        let mut own = NodeState::new(NodeId(1), 250, false);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        let c1 = r.on_message_created(&mut own, msg(1, 9, 100, 5), now, &mut rng);
        assert!(c1.stored && c1.evicted.is_empty());
        let c2 = r.on_message_created(&mut own, msg(2, 9, 100, 90), now, &mut rng);
        assert!(c2.stored);
        // Third message forces eviction of the shortest-TTL (message 1).
        let c3 = r.on_message_created(&mut own, msg(3, 9, 100, 50), now, &mut rng);
        assert!(c3.stored);
        assert_eq!(c3.evicted.len(), 1);
        assert_eq!(c3.evicted[0].id, MessageId(1));
    }
}
