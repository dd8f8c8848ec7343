//! Spray and Focus routing (Spyropoulos et al. 2007) — extension protocol.
//!
//! Identical spray phase to binary Spray and Wait, but instead of *waiting*
//! once a single copy remains, the copy is *focused*: handed off (moved, not
//! copied) to any peer whose utility for the destination is higher. Utility
//! is last-encounter recency — a node that met the destination more recently
//! is a better custodian. This fixes Spray-and-Wait's weakness in scenarios
//! where the source's spray never reaches the destination's neighbourhood,
//! and is the natural "future work" extension of the paper's SnW results.

use crate::candidates::Verdict;
use crate::offers::OfferView;
use crate::router::{CreateOutcome, ReceiveOutcome, Router, RouterSnapshot};
use crate::state::NodeState;
use crate::util::{make_room_and_store, policy_victim, standard_receive};
use vdtn_bundle::{Message, MessageId, PolicyCombo};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// Quota-replication router with utility-based focus phase.
pub struct SprayAndFocusRouter {
    initial_copies: u32,
    policy: PolicyCombo,
    /// `last_met[d]` = time this node last encountered node `d` directly.
    last_met: Vec<Option<SimTime>>,
    /// Bumped on every `last_met` write; the focus-phase eligibility
    /// compares recencies, so this is the router's routing generation.
    met_gen: u64,
}

impl SprayAndFocusRouter {
    /// Create with spray quota `L = initial_copies` (binary halving).
    /// `_own` is accepted for factory-signature uniformity.
    pub fn new(_own: NodeId, n_nodes: usize, initial_copies: u32, policy: PolicyCombo) -> Self {
        assert!(initial_copies >= 1, "spray quota must be at least 1");
        SprayAndFocusRouter {
            initial_copies,
            policy,
            last_met: vec![None; n_nodes],
            met_gen: 0,
        }
    }

    /// Utility for delivering to `dest`: seconds since we last met it
    /// (lower = better), `None` if never met.
    pub fn recency_secs(&self, dest: NodeId, now: SimTime) -> Option<f64> {
        self.last_met[dest.index()].map(|t| now.since(t).as_secs_f64())
    }
}

/// Spray-and-Focus eligibility verdict. A failed *utility* comparison is
/// the one non-permanent rejection in the policy routers — recency tables
/// move without a buffer delta — so it keeps the candidate (`NotNow`);
/// everything else is final.
fn focus_verdict<'a>(
    own: &'a NodeState,
    peer: &'a NodeState,
    peer_router: &'a dyn Router,
    last_met: &'a [Option<SimTime>],
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
        if msg.dst == peer.id || msg.copies > 1 {
            return Verdict::Accept; // direct delivery or spray phase
        }
        // Focus phase: hand off the single copy only if the peer has
        // strictly better (more recent) last-encounter utility.
        let peer_recency = peer_router.delivery_metric(msg.dst, now);
        let own_recency = last_met[msg.dst.index()]
            .map(|t| -now.since(t).as_secs_f64())
            .unwrap_or(f64::NEG_INFINITY);
        if matches!(peer_recency, Some(p) if p > own_recency) {
            Verdict::Accept
        } else {
            Verdict::NotNow
        }
    }
}

impl Router for SprayAndFocusRouter {
    fn kind_label(&self) -> &'static str {
        "Spray and Focus"
    }

    fn routing_generation(&self) -> u64 {
        self.met_gen
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

    fn on_contact_up(
        &mut self,
        _own: &mut NodeState,
        peer: NodeId,
        _peer_digest: &crate::router::Digest,
        now: SimTime,
    ) -> Vec<Message> {
        self.last_met[peer.index()] = Some(now);
        self.met_gen += 1;
        Vec::new()
    }

    fn next_transfer(
        &mut self,
        own: &NodeState,
        peer: &NodeState,
        peer_router: &dyn Router,
        offers: &mut OfferView<'_>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<MessageId> {
        offers.scan_index(
            self.policy.scheduling,
            &own.buffer,
            peer,
            rng,
            focus_verdict(own, peer, peer_router, &self.last_met, now),
        )
    }

    fn on_message_received(
        &mut self,
        own: &mut NodeState,
        msg: &Message,
        from: NodeId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ReceiveOutcome {
        self.last_met[from.index()] = Some(now);
        self.met_gen += 1;
        let mut incoming = *msg;
        // Spray phase splits the quota; focus phase moves the whole copy.
        incoming.copies = if msg.copies > 1 {
            (msg.copies / 2).max(1)
        } else {
            1
        };
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
        let Some(copies) = own.buffer.copies_mut(msg_id) else {
            return;
        };
        if *copies > 1 {
            // Spray: keep the ceiling half.
            *copies -= *copies / 2;
        } else {
            // Focus: the copy moved to the better custodian.
            own.buffer.remove(msg_id);
        }
    }

    fn delivery_metric(&self, dest: NodeId, now: SimTime) -> Option<f64> {
        // Negated recency: higher (closer to zero) = met more recently.
        self.recency_secs(dest, now).map(|s| -s)
    }

    fn snapshot_state(&self) -> RouterSnapshot {
        // The encounter table is the only semantic state; `met_gen` is
        // within-run bookkeeping.
        RouterSnapshot::SprayFocus {
            last_met: self.last_met.clone(),
        }
    }

    fn restore_state(&mut self, snap: RouterSnapshot) {
        match snap {
            RouterSnapshot::SprayFocus { last_met } => {
                assert_eq!(last_met.len(), self.last_met.len(), "node count mismatch");
                self.last_met = last_met;
                self.met_gen = 0;
            }
            other => panic!("Spray and Focus cannot restore {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offers::ContactOffers;
    use vdtn_sim_core::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn msg(id: u64, dst: u32, copies: u32) -> Message {
        let mut m = Message::new(
            MessageId(id),
            NodeId(0),
            NodeId(dst),
            100,
            SimTime::ZERO,
            SimDuration::from_mins(90),
        );
        m.copies = copies;
        m
    }

    fn setup() -> (
        SprayAndFocusRouter,
        SprayAndFocusRouter,
        NodeState,
        NodeState,
    ) {
        (
            SprayAndFocusRouter::new(NodeId(1), 10, 8, PolicyCombo::LIFETIME),
            SprayAndFocusRouter::new(NodeId(2), 10, 8, PolicyCombo::LIFETIME),
            NodeState::new(NodeId(1), 100_000, false),
            NodeState::new(NodeId(2), 100_000, false),
        )
    }

    #[test]
    fn spray_phase_behaves_like_snw() {
        let (mut a, b, mut sa, sb) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        a.on_message_created(&mut sa, msg(1, 9, 0), t(0.0), &mut rng);
        assert_eq!(sa.buffer.get(MessageId(1)).unwrap().copies, 8);
        assert_eq!(
            a.next_transfer(
                &sa,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                t(0.0),
                &mut rng
            ),
            Some(MessageId(1))
        );
        a.on_transfer_success(&mut sa, MessageId(1), NodeId(2), false, t(0.0));
        assert_eq!(sa.buffer.get(MessageId(1)).unwrap().copies, 4);
    }

    #[test]
    fn focus_phase_moves_to_better_custodian() {
        let (mut a, mut b, mut sa, mut sb) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        sa.buffer.insert(msg(1, 9, 1)).unwrap();

        // Peer never met node 9: no handoff.
        assert_eq!(
            a.next_transfer(
                &sa,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                t(100.0),
                &mut rng
            ),
            None
        );
        // Peer met node 9 at t = 50: handoff happens.
        b.on_contact_up(&mut sb, NodeId(9), &crate::router::Digest::None, t(50.0));
        assert_eq!(
            a.next_transfer(
                &sa,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                t(100.0),
                &mut rng
            ),
            Some(MessageId(1))
        );
        // After the handoff the single copy is gone from the sender.
        a.on_transfer_success(&mut sa, MessageId(1), NodeId(2), false, t(100.0));
        assert!(!sa.buffer.contains(MessageId(1)));
    }

    #[test]
    fn focus_requires_strictly_better_utility() {
        let (mut a, mut b, mut sa, mut sb) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        sa.buffer.insert(msg(1, 9, 1)).unwrap();
        // Both met node 9, but we met it more recently.
        a.on_contact_up(&mut sa, NodeId(9), &crate::router::Digest::None, t(80.0));
        b.on_contact_up(&mut sb, NodeId(9), &crate::router::Digest::None, t(50.0));
        assert_eq!(
            a.next_transfer(
                &sa,
                &sb,
                &b,
                &mut ContactOffers::new().view(0),
                t(100.0),
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn destination_contact_always_wins() {
        let (mut a, _, mut sa, _) = setup();
        let b_dest = SprayAndFocusRouter::new(NodeId(9), 10, 8, PolicyCombo::LIFETIME);
        let sb_dest = NodeState::new(NodeId(9), 100_000, false);
        let mut rng = SimRng::seed_from_u64(1);
        sa.buffer.insert(msg(1, 9, 1)).unwrap();
        assert_eq!(
            a.next_transfer(
                &sa,
                &sb_dest,
                &b_dest,
                &mut ContactOffers::new().view(0),
                t(5.0),
                &mut rng
            ),
            Some(MessageId(1))
        );
        a.on_transfer_success(&mut sa, MessageId(1), NodeId(9), true, t(5.0));
        assert!(sa.buffer.is_empty());
    }

    #[test]
    fn receive_updates_encounter_table() {
        let (mut a, _, mut sa, _) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        let m = msg(1, 9, 4);
        a.on_message_received(&mut sa, &m, NodeId(3), t(42.0), &mut rng);
        assert_eq!(a.recency_secs(NodeId(3), t(52.0)), Some(10.0));
        // Received copy took half the quota.
        assert_eq!(sa.buffer.get(MessageId(1)).unwrap().copies, 2);
    }
}
