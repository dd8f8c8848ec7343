//! MaxProp routing (Burgess et al., INFOCOM 2006).
//!
//! MaxProp floods like Epidemic but brings its own transmission and eviction
//! orders, which is why the paper compares against it unmodified:
//!
//! * **Meeting probabilities**: node `i` keeps a normalised vector `f^i`
//!   over peers; meeting `j` increments `f^i_j` by 1 and re-normalises.
//!   Vectors are exchanged at every contact.
//! * **Path cost**: the cost of delivering to `d` is the cheapest path in
//!   the graph whose edge `u → v` costs `1 − f^u_v`, computed by Dijkstra
//!   over all vectors this node has collected.
//! * **Transmission order**: messages destined to the peer first; then a
//!   *head start* for young messages — hop counts below an adaptive
//!   threshold, lowest first — then everything else by ascending path cost.
//! * **Eviction order**: the reverse — highest path cost dropped first,
//!   head-start messages last.
//! * **Acknowledgements**: delivery acks are flooded in contact digests;
//!   acked messages are purged from buffers network-wide.
//!
//! The adaptive threshold follows the MaxProp paper's intent: the head-start
//! set is sized to (a fraction of) the *average bytes transferable per
//! contact*, estimated online from completed contacts. (ONE computes the
//! same statistic; our accounting of it is an approximation: bytes sent per
//! closed contact, as reported by the engine at link-down.)
//!
//! The contact handshake costs word operations. Acks live in an [`AckSet`],
//! a bitset over the dense message-id space that digests share instead of
//! copy; a contact merges the peer's set word by word. Peer vectors are
//! indexed by node and overwritten in place, and Dijkstra reuses its
//! buffers.

use crate::offers::OfferView;
use crate::router::{
    CreateOutcome, Digest, ReceiveOutcome, Router, RouterSnapshot, SNAPSHOT_MISMATCH,
};
use crate::state::NodeState;
use crate::util::{make_room_and_store, standard_receive};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vdtn_bundle::{Message, MessageId, MsgMeta};
use vdtn_sim_core::{NodeId, SimRng, SimTime};

/// MaxProp tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaxPropConfig {
    /// Fraction of the average per-contact byte volume granted to the
    /// young-message head start (the MaxProp paper splits the contact
    /// between new and ranked messages; 0.5 mirrors that split).
    pub head_start_fraction: f64,
}

impl Default for MaxPropConfig {
    fn default() -> Self {
        MaxPropConfig {
            head_start_fraction: 0.5,
        }
    }
}

/// A set of message ids, stored as a bitset over the id space.
///
/// Message ids are issued densely from 0, so bit `id % 64` of word
/// `id / 64` marks `id` and the set costs one bit per message ever created.
/// No word past the highest member is stored, so equal sets have equal
/// words. Clones share the words: a digest snapshot is a reference-count
/// bump, and the first change to a shared set copies it, which leaves the
/// snapshot as it was when taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckSet(Arc<Vec<u64>>);

impl AckSet {
    /// True if `id` is in the set.
    pub fn contains(&self, id: MessageId) -> bool {
        let word = (id.0 / 64) as usize;
        self.0.get(word).is_some_and(|&w| w >> (id.0 % 64) & 1 == 1)
    }

    /// Add `id`; true if it was new.
    pub fn insert(&mut self, id: MessageId) -> bool {
        if self.contains(id) {
            return false;
        }
        let word = (id.0 / 64) as usize;
        let words = Arc::make_mut(&mut self.0);
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        words[word] |= 1 << (id.0 % 64);
        true
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no ids.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &w)| ones(i, w))
    }

    /// Add every id of `other` missing from `self`, calling `on_new` with
    /// each in ascending order; true if any was new. A merge that adds
    /// nothing only reads, so it never copies a shared set.
    pub fn merge(&mut self, other: &AckSet, mut on_new: impl FnMut(MessageId)) -> bool {
        let theirs = &other.0;
        let mine = &self.0;
        let lacks = |i: usize| theirs[i] & !mine.get(i).copied().unwrap_or(0) != 0;
        let Some(first) = (0..theirs.len()).find(|&i| lacks(i)) else {
            return false;
        };
        let words = Arc::make_mut(&mut self.0);
        if words.len() < theirs.len() {
            words.resize(theirs.len(), 0);
        }
        for (i, (w, &t)) in words.iter_mut().zip(theirs.iter()).enumerate().skip(first) {
            let new = t & !*w;
            *w |= new;
            ones(i, new).for_each(&mut on_new);
        }
        true
    }
}

impl FromIterator<MessageId> for AckSet {
    fn from_iter<I: IntoIterator<Item = MessageId>>(ids: I) -> Self {
        let mut set = AckSet::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// The ids marked in word `i` of an [`AckSet`], ascending.
fn ones(i: usize, mut w: u64) -> impl Iterator<Item = MessageId> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let bit = w.trailing_zeros() as u64;
            w &= w - 1;
            MessageId(i as u64 * 64 + bit)
        })
    })
}

/// Flooding router with cost-ranked scheduling, adaptive head start and
/// delivery-ack purging.
pub struct MaxPropRouter {
    own: NodeId,
    n: usize,
    cfg: MaxPropConfig,
    /// Own meeting-probability vector (normalised after the first meeting).
    probs: Vec<f64>,
    /// Vectors of other nodes from contact digests, by node (`None` until
    /// this node first meets that peer).
    known: Vec<Option<Vec<f64>>>,
    /// Flooded delivery acknowledgements.
    acks: AckSet,
    /// Dijkstra result: cost from this node to every destination.
    costs: Vec<f64>,
    /// Dijkstra scratch: tentative cost of every unsettled node, ∞ once
    /// settled, so the argmin is one scan of one array.
    key: Vec<f64>,
    /// Online mean of payload bytes sent per completed contact.
    avg_contact_bytes: f64,
    contacts_closed: u64,
    /// Monotone counter bumped whenever `probs` or `acks` change: the
    /// router's routing generation. Digests are not memoised behind it,
    /// because every contact moves it (a meeting changes `probs`) between
    /// the two digests a node hands out.
    state_gen: u64,
    /// Memoised head-start threshold, keyed by `(buffer generation,
    /// contacts_closed)` — its only inputs are buffer membership (hop
    /// counts and sizes are immutable per stored copy) and the per-contact
    /// volume estimate, which moves only when a contact closes.
    threshold_cache: Option<((u64, u64), u32)>,
}

impl MaxPropRouter {
    /// Create a router for node `own` in a network of `n_nodes`.
    pub fn new(own: NodeId, n_nodes: usize, cfg: MaxPropConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.head_start_fraction));
        MaxPropRouter {
            own,
            n: n_nodes,
            cfg,
            probs: vec![0.0; n_nodes],
            known: vec![None; n_nodes],
            acks: AckSet::default(),
            costs: vec![f64::INFINITY; n_nodes],
            key: vec![f64::INFINITY; n_nodes],
            avg_contact_bytes: 0.0,
            contacts_closed: 0,
            state_gen: 0,
            threshold_cache: None,
        }
    }

    /// Own meeting probability for `peer`.
    pub fn meeting_prob(&self, peer: NodeId) -> f64 {
        self.probs[peer.index()]
    }

    /// Current path cost estimate to `dest` (∞ when unknown).
    pub fn path_cost(&self, dest: NodeId) -> f64 {
        self.costs[dest.index()]
    }

    /// Delivery acknowledgements known to this node.
    pub fn acked(&self, id: MessageId) -> bool {
        self.acks.contains(id)
    }

    fn record_meeting(&mut self, peer: NodeId) {
        self.state_gen += 1;
        self.probs[peer.index()] += 1.0;
        let sum: f64 = self.probs.iter().sum();
        for p in &mut self.probs {
            *p /= sum;
        }
    }

    /// Peers whose vectors this node holds, ascending.
    fn known_peers(&self) -> impl Iterator<Item = (u32, &Vec<f64>)> {
        self.known
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((i as u32, v.as_ref()?)))
    }

    /// Record a delivery acknowledgement; true if it was new.
    fn learn_ack(&mut self, id: MessageId) -> bool {
        let new = self.acks.insert(id);
        if new {
            self.state_gen += 1;
        }
        new
    }

    /// Single-source Dijkstra over the collected probability vectors.
    /// Edge `u → v` costs `1 − f^u_v` (only where `f^u_v > 0`).
    ///
    /// Dense Dijkstra (n ≤ a few hundred in any VDTN scenario) into the
    /// reused `costs`/`key` buffers. Nodes settle in ascending cost, the
    /// lowest index first among equal costs. Relaxation needs no settled
    /// test: a settled `v` has `costs[v] ≤ du ≤ du + (1 − p)` for every
    /// `p ≤ 1`, so it is never improved.
    fn recompute_costs(&mut self) {
        let own = self.own.index();
        let (costs, key) = (&mut self.costs, &mut self.key);
        costs.fill(f64::INFINITY);
        key.fill(f64::INFINITY);
        costs[own] = 0.0;
        key[own] = 0.0;
        for _ in 0..self.n {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for (i, &k) in key.iter().enumerate() {
                if k < best {
                    best = k;
                    u = i;
                }
            }
            if u == usize::MAX {
                break;
            }
            key[u] = f64::INFINITY;
            let fu = if u == own {
                Some(&self.probs)
            } else {
                self.known[u].as_ref()
            };
            let Some(fu) = fu else { continue };
            let du = costs[u];
            for (v, &p) in fu.iter().enumerate() {
                if p > 0.0 {
                    let cand = du + (1.0 - p);
                    if cand < costs[v] {
                        costs[v] = cand;
                        key[v] = cand;
                    }
                }
            }
        }
    }

    /// Hop-count threshold below which messages get the head start.
    ///
    /// The head-start set holds the youngest messages (lowest hop counts)
    /// whose cumulative size fits in `head_start_fraction` of the average
    /// contact volume. With no contact statistics yet the threshold is 0
    /// (pure cost ranking), as in ONE.
    ///
    /// Memoised per `(buffer generation, contacts closed)`: between those
    /// two moving, the O(B log B) hop-count sort would recompute the same
    /// value on every routing round and every reception.
    fn threshold(&mut self, own: &NodeState, metas: &[MsgMeta]) -> u32 {
        if self.contacts_closed == 0 || self.avg_contact_bytes <= 0.0 {
            return 0;
        }
        let key = (own.buffer.generation(), self.contacts_closed);
        if let Some((k, cached)) = self.threshold_cache {
            if k == key {
                return cached;
            }
        }
        let budget = self.cfg.head_start_fraction * self.avg_contact_bytes;
        let mut msgs: Vec<(u32, u64)> = own.buffer.iter(metas).map(|m| (m.hops, m.size)).collect();
        msgs.sort_unstable_by_key(|&(hops, _)| hops);
        let mut acc = 0u64;
        let mut threshold = 0u32;
        for (hops, size) in msgs {
            acc += size;
            if (acc as f64) > budget {
                break;
            }
            threshold = hops + 1;
        }
        self.threshold_cache = Some((key, threshold));
        threshold
    }

    /// Victim chooser: highest path cost first, head-start messages last.
    fn pick_victim(
        &self,
        state: &NodeState,
        metas: &[MsgMeta],
        threshold: u32,
    ) -> Option<MessageId> {
        let rank = |m: &Message| {
            let cost = self.costs[m.dst.index()];
            // Head-start messages are maximally protected.
            if m.hops < threshold {
                (0u8, cost)
            } else {
                (1u8, cost)
            }
        };
        state
            .buffer
            .iter(metas)
            .max_by(|a, b| {
                let (pa, ca) = rank(a);
                let (pb, cb) = rank(b);
                pa.cmp(&pb)
                    .then(ca.partial_cmp(&cb).expect("finite-or-inf costs"))
            })
            .map(|m| m.id)
    }
}

impl Router for MaxPropRouter {
    fn on_message_created(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        msg: Message,
        _now: SimTime,
        _rng: &mut SimRng,
    ) -> CreateOutcome {
        let threshold = self.threshold(own, metas);
        match make_room_and_store(own, metas, msg, |state| {
            self.pick_victim(state, metas, threshold)
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

    fn digest(&mut self, _own: &NodeState, _now: SimTime) -> Digest {
        let probs = self
            .probs
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| (p > 0.0).then_some((NodeId(i as u32), p)))
            .collect();
        Digest::MaxProp {
            probs,
            acks: self.acks.clone(),
        }
    }

    fn on_contact_up(
        &mut self,
        own: &mut NodeState,
        metas: &[MsgMeta],
        peer: NodeId,
        peer_digest: &Digest,
        _now: SimTime,
    ) -> Vec<Message> {
        self.record_meeting(peer);
        let mut purged = Vec::new();
        if let Digest::MaxProp { probs, acks } = peer_digest {
            let dense = self.known[peer.index()].get_or_insert_with(|| vec![0.0; self.n]);
            dense.fill(0.0);
            for &(node, p) in probs {
                dense[node.index()] = p;
            }
            let learned = self.acks.merge(acks, |id| {
                if let Some(m) = own.buffer.remove(id, metas) {
                    purged.push(m);
                }
            });
            if learned {
                self.state_gen += 1;
            }
        }
        self.recompute_costs();
        purged
    }

    fn on_contact_down(
        &mut self,
        _own: &mut NodeState,
        _peer: NodeId,
        bytes_sent: u64,
        _now: SimTime,
    ) {
        // Running mean of payload volume per contact feeds the threshold.
        self.contacts_closed += 1;
        let k = self.contacts_closed as f64;
        self.avg_contact_bytes += (bytes_sent as f64 - self.avg_contact_bytes) / k;
    }

    fn next_transfer(
        &mut self,
        own: &NodeState,
        metas: &[MsgMeta],
        peer: &NodeState,
        _peer_router: &dyn Router,
        offers: &mut OfferView<'_>,
        now: SimTime,
        _rng: &mut SimRng,
    ) -> Option<MessageId> {
        let threshold = self.threshold(own, metas);
        // Rank: (class, key) — class 0 = destined to peer, class 1 = head
        // start (by hop count), class 2 = cost-ranked. Lowest wins.
        let mut best: Option<((u8, f64), MessageId)> = None;
        for msg in own.buffer.iter(metas) {
            if offers.is_offered(msg.id)
                || peer.knows(msg.id)
                || msg.is_expired(now)
                || self.acks.contains(msg.id)
                || !peer.buffer.could_fit(msg.size)
            {
                continue;
            }
            let rank: (u8, f64) = if msg.dst == peer.id {
                (0, 0.0)
            } else if msg.hops < threshold {
                (1, msg.hops as f64)
            } else {
                (2, self.costs[msg.dst.index()])
            };
            let better = match &best {
                None => true,
                Some((r, _)) => rank < *r,
            };
            if better {
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
        _rng: &mut SimRng,
    ) -> ReceiveOutcome {
        if self.acks.contains(msg.id) && msg.dst != own.id {
            return ReceiveOutcome::Rejected(crate::router::RejectReason::AlreadyDelivered);
        }
        let threshold = self.threshold(own, metas);
        let outcome = standard_receive(own, metas, msg, now, |state| {
            self.pick_victim(state, metas, threshold)
        });
        if let ReceiveOutcome::Delivered { .. } = outcome {
            // Destination floods the acknowledgement from now on.
            self.learn_ack(msg.id);
        }
        outcome
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
        if delivered {
            // Sender both discards (paper rule) and starts flooding the ack.
            self.learn_ack(msg_id);
            own.buffer.remove(msg_id, metas);
        }
    }

    fn delivery_metric(&self, dest: NodeId, _now: SimTime) -> Option<f64> {
        Some(-self.costs[dest.index()])
    }

    fn routing_generation(&self) -> u64 {
        // Eligibility depends on the ack set (and, through rank only, the
        // cost vectors); both move exactly with `state_gen`.
        self.state_gen
    }

    fn snapshot_state(&self) -> RouterSnapshot {
        // Semantic state only: probability vectors, acks, costs, and the
        // adaptive-threshold inputs. `state_gen` and the threshold memo are
        // within-run bookkeeping. Peers and acks list in ascending order.
        RouterSnapshot::MaxProp {
            probs: self.probs.clone(),
            known: self
                .known_peers()
                .map(|(peer, v)| (peer, v.clone()))
                .collect(),
            acks: self.acks.iter().collect(),
            costs: self.costs.clone(),
            avg_contact_bytes: self.avg_contact_bytes,
            contacts_closed: self.contacts_closed,
        }
    }

    fn restore_state(&mut self, snap: RouterSnapshot) -> Result<(), String> {
        match snap {
            RouterSnapshot::MaxProp {
                probs,
                known,
                acks,
                costs,
                avg_contact_bytes,
                contacts_closed,
            } if probs.len() == self.n
                && costs.len() == self.n
                && known.iter().all(|(peer, _)| (*peer as usize) < self.n) =>
            {
                self.probs = probs;
                self.known = vec![None; self.n];
                for (peer, v) in known {
                    self.known[peer as usize] = Some(v);
                }
                self.acks = acks.into_iter().collect();
                // An unreachable node costs +∞, which the snapshot file's
                // JSON writes as `null` and reads back as NaN. No cost is
                // ever NaN, so NaN can only be a stored ∞.
                self.costs = costs
                    .into_iter()
                    .map(|c| if c.is_nan() { f64::INFINITY } else { c })
                    .collect();
                self.avg_contact_bytes = avg_contact_bytes;
                self.contacts_closed = contacts_closed;
                self.state_gen = 0;
                self.threshold_cache = None;
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

    fn msg(id: u64, src: u32, dst: u32, size: u64) -> Message {
        Message::new(
            MessageId(id),
            NodeId(src),
            NodeId(dst),
            size,
            SimTime::ZERO,
            SimDuration::from_mins(90),
        )
    }

    fn state(id: u32) -> NodeState {
        NodeState::new(NodeId(id), 100_000, false)
    }

    #[test]
    fn meeting_probs_stay_normalised() {
        let mut r = MaxPropRouter::new(NodeId(0), 5, MaxPropConfig::default());
        r.record_meeting(NodeId(1));
        assert_eq!(r.meeting_prob(NodeId(1)), 1.0);
        r.record_meeting(NodeId(2));
        let sum: f64 = (0..5).map(|i| r.meeting_prob(NodeId(i))).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(r.meeting_prob(NodeId(1)) > r.meeting_prob(NodeId(3)));
        // Repeated meetings dominate.
        for _ in 0..10 {
            r.record_meeting(NodeId(1));
        }
        assert!(r.meeting_prob(NodeId(1)) > 0.8);
    }

    #[test]
    fn path_cost_via_intermediate() {
        // 0 meets 1 often; 1 meets 2 often; 0 never meets 2 directly.
        let mut r0 = MaxPropRouter::new(NodeId(0), 3, MaxPropConfig::default());
        let mut r1 = MaxPropRouter::new(NodeId(1), 3, MaxPropConfig::default());
        r1.record_meeting(NodeId(2));
        r1.record_meeting(NodeId(0));
        let d1 = r1.digest(&state(1), SimTime::ZERO);
        r0.on_contact_up(&mut state(0), &[], NodeId(1), &d1, SimTime::ZERO);
        // Cost to 1: 1 − f^0_1 = 0. Cost to 2 via 1: (1−1) + (1−0.5) = 0.5.
        assert!(r0.path_cost(NodeId(1)) < 1e-9);
        assert!((r0.path_cost(NodeId(2)) - 0.5).abs() < 1e-9);
        // Metric is negated cost.
        assert!((r0.delivery_metric(NodeId(2), SimTime::ZERO).unwrap() + 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_destination_has_infinite_cost() {
        let r = MaxPropRouter::new(NodeId(0), 4, MaxPropConfig::default());
        assert!(r.path_cost(NodeId(3)).is_infinite());
    }

    #[test]
    fn acks_purge_buffers() {
        let mut r = MaxPropRouter::new(NodeId(0), 4, MaxPropConfig::default());
        let mut s = state(0);
        let mut rng = SimRng::seed_from_u64(1);
        let m = msg(7, 0, 3, 100);
        let metas = table(&[m]);
        r.on_message_created(&mut s, &metas, m, SimTime::ZERO, &mut rng);
        assert!(s.buffer.contains(MessageId(7)));
        // Peer digest carries an ack for message 7.
        let digest = Digest::MaxProp {
            probs: vec![],
            acks: [MessageId(7)].into_iter().collect(),
        };
        let purged = r.on_contact_up(&mut s, &metas, NodeId(1), &digest, SimTime::ZERO);
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].id, MessageId(7));
        assert!(!s.buffer.contains(MessageId(7)));
        // And the ack is now re-flooded in our own digest.
        match r.digest(&s, SimTime::ZERO) {
            Digest::MaxProp { acks, .. } => assert!(acks.contains(MessageId(7))),
            other => panic!("wrong digest {other:?}"),
        }
    }

    #[test]
    fn acked_messages_rejected_on_receive_and_not_offered() {
        let mut r = MaxPropRouter::new(NodeId(1), 4, MaxPropConfig::default());
        let mut s = state(1);
        let mut rng = SimRng::seed_from_u64(1);
        r.learn_ack(MessageId(9));
        let m = msg(9, 0, 3, 100);
        let out =
            r.on_message_received(&mut s, &table(&[m]), &m, NodeId(0), SimTime::ZERO, &mut rng);
        assert!(matches!(out, ReceiveOutcome::Rejected(_)));
        assert!(!s.buffer.contains(MessageId(9)));
    }

    #[test]
    fn delivery_creates_ack_and_discards_sender_copy() {
        let mut r = MaxPropRouter::new(NodeId(0), 4, MaxPropConfig::default());
        let mut s = state(0);
        let mut rng = SimRng::seed_from_u64(1);
        let m = msg(1, 0, 2, 100);
        let metas = table(&[m]);
        r.on_message_created(&mut s, &metas, m, SimTime::ZERO, &mut rng);
        r.on_transfer_success(&mut s, &metas, MessageId(1), NodeId(2), true, SimTime::ZERO);
        assert!(!s.buffer.contains(MessageId(1)));
        assert!(r.acked(MessageId(1)));
    }

    #[test]
    fn destination_receipt_creates_ack() {
        let mut r = MaxPropRouter::new(NodeId(2), 4, MaxPropConfig::default());
        let mut s = state(2);
        let mut rng = SimRng::seed_from_u64(1);
        let m = msg(1, 0, 2, 100);
        let out =
            r.on_message_received(&mut s, &table(&[m]), &m, NodeId(0), SimTime::ZERO, &mut rng);
        assert_eq!(out, ReceiveOutcome::Delivered { first_time: true });
        assert!(r.acked(MessageId(1)));
    }

    #[test]
    fn schedule_prefers_peer_destination_then_cost() {
        let mut r = MaxPropRouter::new(NodeId(0), 5, MaxPropConfig::default());
        let mut s = state(0);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        // Learn: node 3 reachable cheaply, node 4 not at all.
        let mut r1 = MaxPropRouter::new(NodeId(1), 5, MaxPropConfig::default());
        r1.record_meeting(NodeId(3));
        let d1 = r1.digest(&state(1), now);
        // Message 1 costs ∞, message 2 is cheap, message 3 is to the peer.
        let msgs = [msg(1, 0, 4, 100), msg(2, 0, 3, 100), msg(3, 0, 1, 100)];
        let metas = table(&msgs);
        r.on_contact_up(&mut s, &metas, NodeId(1), &d1, now);
        for m in msgs {
            r.on_message_created(&mut s, &metas, m, now, &mut rng);
        }

        let peer = state(1);
        let peer_router = MaxPropRouter::new(NodeId(1), 5, MaxPropConfig::default());
        // Message 3 goes first (peer is its destination).
        assert_eq!(
            r.next_transfer(
                &s,
                &metas,
                &peer,
                &peer_router,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(3))
        );
        // With it already offered, the cheap-cost message beats the
        // unreachable one.
        let mut offers = ContactOffers::new();
        offers.record(MessageId(3));
        let view = &mut offers.view(0);
        assert_eq!(
            r.next_transfer(&s, &metas, &peer, &peer_router, view, now, &mut rng),
            Some(MessageId(2))
        );
    }

    #[test]
    fn threshold_grows_with_contact_stats() {
        let mut r = MaxPropRouter::new(NodeId(0), 5, MaxPropConfig::default());
        let mut s = state(0);
        let mut rng = SimRng::seed_from_u64(1);
        let now = SimTime::ZERO;
        // Buffer: two 1-hop messages of 100 B each and a fresh one.
        let msgs = [(1u64, 0u32), (2, 1), (3, 4)].map(|(id, hops)| {
            let mut m = msg(id, 1, 4, 100);
            m.hops = hops;
            m
        });
        let metas = table(&msgs);
        // No stats yet → threshold 0.
        assert_eq!(r.threshold(&s, &metas), 0);
        for m in msgs {
            s.buffer.insert(m).unwrap();
        }
        // One closed contact with 400 B sent → budget 200 B → the two
        // lowest-hop messages fit → threshold = second msg hops + 1 = 2.
        r.on_contact_down(&mut s, NodeId(1), 400, now);
        assert_eq!(r.threshold(&s, &metas), 2);
        // Scheduling now prefers low-hop (head start) over cost.
        let peer = state(2);
        let pr = MaxPropRouter::new(NodeId(2), 5, MaxPropConfig::default());
        assert_eq!(
            r.next_transfer(
                &s,
                &metas,
                &peer,
                &pr,
                &mut ContactOffers::new().view(0),
                now,
                &mut rng
            ),
            Some(MessageId(1)),
            "lowest hop count first within the head start"
        );
    }

    #[test]
    fn victim_is_highest_cost_outside_head_start() {
        let mut r = MaxPropRouter::new(NodeId(0), 5, MaxPropConfig::default());
        let mut s = state(0);
        // Costs: dest 3 cheap, dest 4 unknown (∞).
        let mut r1 = MaxPropRouter::new(NodeId(1), 5, MaxPropConfig::default());
        r1.record_meeting(NodeId(3));
        let d1 = r1.digest(&state(1), SimTime::ZERO);
        let msgs = [msg(1, 0, 3, 100), msg(2, 0, 4, 100)];
        let metas = table(&msgs);
        r.on_contact_up(&mut s, &metas, NodeId(1), &d1, SimTime::ZERO);
        for m in msgs {
            s.buffer.insert(m).unwrap();
        }
        let victim = r.pick_victim(&s, &metas, 0).unwrap();
        assert_eq!(
            victim,
            MessageId(2),
            "unreachable destination dropped first"
        );
    }

    #[test]
    fn avg_contact_bytes_is_running_mean() {
        let mut r = MaxPropRouter::new(NodeId(0), 3, MaxPropConfig::default());
        let mut s = state(0);
        r.on_contact_down(&mut s, NodeId(1), 1000, SimTime::ZERO);
        r.on_contact_down(&mut s, NodeId(1), 3000, SimTime::ZERO);
        assert!((r.avg_contact_bytes - 2000.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use vdtn_sim_core::SimDuration;

    /// Ids on both sides of word boundaries, plus sparse ids far past them.
    const IDS: [u64; 13] = [
        0, 1, 62, 63, 64, 65, 127, 128, 10_000, 10_063, 10_064, 12_345, 20_000,
    ];
    /// Ids no operation ever adds.
    const ABSENT: [u64; 4] = [2, 129, 9_999, 30_000];

    fn ids_of(set: &AckSet) -> Vec<u64> {
        set.iter().map(|id| id.0).collect()
    }

    fn digest_acks(r: &mut MaxPropRouter, s: &NodeState) -> AckSet {
        match r.digest(s, SimTime::ZERO) {
            Digest::MaxProp { acks, .. } => acks,
            other => panic!("wrong digest {other:?}"),
        }
    }

    /// The textbook two-array Dijkstra: a `settled` mask beside `dist`,
    /// fresh buffers per call, settled targets skipped on relaxation.
    fn oracle_costs(r: &MaxPropRouter) -> Vec<f64> {
        let n = r.n;
        let mut dist = vec![f64::INFINITY; n];
        let mut settled = vec![false; n];
        dist[r.own.index()] = 0.0;
        for _ in 0..n {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for (i, &d) in dist.iter().enumerate() {
                if !settled[i] && d < best {
                    best = d;
                    u = i;
                }
            }
            if u == usize::MAX {
                break;
            }
            settled[u] = true;
            let vec_u = if u == r.own.index() {
                Some(&r.probs)
            } else {
                r.known[u].as_ref()
            };
            if let Some(fu) = vec_u {
                for (v, &p) in fu.iter().enumerate() {
                    if p > 0.0 && !settled[v] {
                        let cand = dist[u] + (1.0 - p);
                        if cand < dist[v] {
                            dist[v] = cand;
                        }
                    }
                }
            }
        }
        dist
    }

    /// Edge probabilities: absent edges, `p = 1` (zero-weight) edges, and
    /// values whose costs tie (`0.5 + 0.5 = 0.25 + 0.75`).
    const P: [f64; 8] = [0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.75, 1.0 / 3.0];
    const MAX_N: usize = 14;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of local acks, created messages, contacts
        /// (digests with word-boundary and sparse ids, empty digests, and
        /// this node's own earlier snapshots) and digest snapshots, checked
        /// step by step against a `BTreeSet` model.
        #[test]
        fn ack_set_matches_btreeset_model(
            ops in proptest::collection::vec((0u8..6, 0usize..IDS.len(), 0u32..1 << 13), 1..60),
        ) {
            let mut r = MaxPropRouter::new(NodeId(0), 4, MaxPropConfig::default());
            let mut s = NodeState::new(NodeId(0), 1_000_000, false);
            let mut rng = SimRng::seed_from_u64(1);
            // Every message differs only in its id, so one record serves
            // every row of the table.
            let message = |id: u64| {
                Message::new(
                    MessageId(id),
                    NodeId(0),
                    NodeId(3),
                    100,
                    SimTime::ZERO,
                    SimDuration::from_mins(90),
                )
            };
            let metas = vec![MsgMeta::of(&message(0)); IDS[IDS.len() - 1] as usize + 1];
            let mut acks: BTreeSet<u64> = BTreeSet::new();
            let mut stored: BTreeSet<u64> = BTreeSet::new();
            let mut snapshots: Vec<(AckSet, Vec<u64>)> = Vec::new();
            for (op, idx, mask) in ops {
                let gen = r.routing_generation();
                let mut moves = 0u64;
                let mut purged: BTreeSet<u64> = BTreeSet::new();
                let mut expect_purged: BTreeSet<u64> = BTreeSet::new();
                match op {
                    0 => {
                        let new = r.learn_ack(MessageId(IDS[idx]));
                        prop_assert_eq!(new, acks.insert(IDS[idx]));
                        moves = new as u64;
                    }
                    1 => {
                        if stored.insert(IDS[idx]) {
                            let m = message(IDS[idx]);
                            let out = r.on_message_created(&mut s, &metas, m, SimTime::ZERO, &mut rng);
                            prop_assert!(out.stored && out.evicted.is_empty());
                        }
                    }
                    2..=4 => {
                        let theirs = match op {
                            2 => IDS
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| mask >> i & 1 == 1)
                                .map(|(_, &id)| MessageId(id))
                                .collect(),
                            3 => AckSet::default(),
                            _ => snapshots
                                .get(idx % snapshots.len().max(1))
                                .map(|(set, _)| set.clone())
                                .unwrap_or_default(),
                        };
                        let new: BTreeSet<u64> =
                            ids_of(&theirs).into_iter().filter(|id| !acks.contains(id)).collect();
                        expect_purged = new.intersection(&stored).copied().collect();
                        let digest = Digest::MaxProp {
                            probs: vec![(NodeId(2), 1.0)],
                            acks: theirs,
                        };
                        purged = r
                            .on_contact_up(&mut s, &metas, NodeId(1), &digest, SimTime::ZERO)
                            .iter()
                            .map(|m| m.id.0)
                            .collect();
                        stored.retain(|id| !new.contains(id));
                        moves = 1 + !new.is_empty() as u64;
                        acks.extend(new);
                    }
                    _ => {
                        let snap = digest_acks(&mut r, &s);
                        snapshots.push((snap, acks.iter().copied().collect()));
                    }
                }
                prop_assert_eq!(purged, expect_purged);
                prop_assert_eq!(r.routing_generation() - gen, moves);
                for &id in IDS.iter().chain(&ABSENT) {
                    prop_assert_eq!(r.acked(MessageId(id)), acks.contains(&id));
                }
                let listed = ids_of(&digest_acks(&mut r, &s));
                prop_assert_eq!(&listed, &acks.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(r.acks.len(), acks.len());
                for (snap, ids) in &snapshots {
                    prop_assert_eq!(&ids_of(snap), ids, "a digest snapshot changed after it was taken");
                }
                let held: BTreeSet<u64> = s.buffer.ids_in_order().map(|id| id.0).collect();
                prop_assert_eq!(&held, &stored);
            }
        }

        /// Two random tables in turn on one router (so stale buffers would
        /// show): every cost is bit-identical to the textbook oracle's.
        #[test]
        fn dijkstra_matches_textbook_oracle(
            n in 1usize..MAX_N + 1,
            own in 0usize..MAX_N,
            tables in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..P.len(), MAX_N * MAX_N..MAX_N * MAX_N + 1),
                    proptest::collection::vec(any::<bool>(), MAX_N..MAX_N + 1),
                ),
                2..3,
            ),
        ) {
            let own = own % n;
            let mut r = MaxPropRouter::new(NodeId(own as u32), n, MaxPropConfig::default());
            for (cells, met) in tables {
                let row = |u: usize| -> Vec<f64> {
                    (0..n).map(|v| P[cells[u * MAX_N + v]]).collect()
                };
                r.probs = row(own);
                r.known = (0..n).map(|u| (u != own && met[u]).then(|| row(u))).collect();
                r.recompute_costs();
                let want = oracle_costs(&r);
                let got: Vec<u64> = r.costs.iter().map(|c| c.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|c| c.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
