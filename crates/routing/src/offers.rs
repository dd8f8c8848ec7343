//! Per-contact offer bookkeeping: what was already offered on a connection,
//! each direction's candidate index, and the silent-round memo.
//!
//! The engine owns one [`ContactOffers`] per live connection (replacing the
//! former pair-keyed `HashSet<MessageId>` + separate sent-bytes map) and
//! hands routers a directional [`OfferView`] at every routing round. A
//! router scans through [`OfferView::scan_index`], which syncs that
//! direction's [`CandidateIndex`] from both endpoints' buffer deltas and
//! asks the router's verdict only for live candidates (see
//! [`crate::candidates`]).

use crate::candidates::{CandidateIndex, Verdict};
use crate::state::NodeState;
use vdtn_bundle::{Buffer, MessageId, MsgMeta, SchedulingPolicy};
use vdtn_sim_core::{SimRng, SimTime};

/// The ids already offered during one contact, as a sorted vector.
///
/// Offer sets are small (bounded by live traffic over a contact) but there
/// is one per live connection — on a 100k-node dense mesh that is hundreds
/// of thousands of them — so per-entry size dominates contact memory. A
/// sorted `Vec<MessageId>` costs 8 bytes per tracked id with zero
/// per-instance table overhead; membership tests stay O(log n), insertion
/// O(n) memmove (cheap at these sizes). The message expiry needed for TTL
/// pruning is *not* duplicated per entry: it lives in the message's record
/// in the world's message table and is looked up only during the (rare)
/// prune.
#[derive(Debug, Clone, Default)]
pub struct OfferedSet {
    /// Tracked ids, sorted, unique.
    ids: Vec<MessageId>,
}

impl OfferedSet {
    /// Fresh, empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `id` is in the set.
    pub fn contains(&self, id: MessageId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Record `id`. Idempotent.
    pub fn insert(&mut self, id: MessageId) {
        if let Err(pos) = self.ids.binary_search(&id) {
            self.ids.insert(pos, id);
        }
    }

    /// Drop every id whose message (per its record in the message table
    /// `metas`) has expired at `now`.
    pub fn prune_expired(&mut self, now: SimTime, metas: &[MsgMeta]) {
        self.ids.retain(|&id| metas[id.index()].expiry() > now);
    }

    /// Number of tracked ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Snapshot of every input that can turn a silent routing round loud again:
/// `[sender buffer insert-count, sender routing generation, receiver buffer
/// generation, receiver routing generation, receiver delivered-count]`.
///
/// If a round returned `None` under some key and the key is unchanged, the
/// round is still `None` — every eligibility input is monotone between key
/// changes (offered sets and delivered sets only grow, TTL expiry only
/// removes candidates, capacity fits are constant per message, and the
/// protocols' metric comparisons are invariant under pure time shift — see
/// `Router::routing_generation`). The sender-side component is the buffer's
/// **delta summary** ([`Buffer::insert_count`]) rather than its full
/// generation: a removal from the sender's buffer only shrinks its
/// candidate set, and every survivor was already rejected under identical
/// receiver state at an earlier (or equal) time — so sender removals keep a
/// silent direction silent, and only *inserts* need to break the memo. The
/// engine uses the key two ways: to skip a provably silent round outright
/// within an executed tick, and — since every key input only changes inside
/// executed ticks — to skip scheduling the next tick's `LinkRound` wake
/// entirely when every idle direction is silent under its current key.
pub type SilenceKey = [u64; 5];

/// Offer state for one live connection (both directions).
#[derive(Debug, Clone, Default)]
pub struct ContactOffers {
    /// Ids already offered during this contact; the engine prunes ids
    /// whose message died of TTL (expiry read from the world's message
    /// table) so the set stays bounded by *live* traffic over arbitrarily
    /// long contacts.
    offered: OfferedSet,
    /// Delta-maintained candidate sets per direction
    /// (`[lower-id sender, higher-id sender]`), used by policy-driven
    /// routers; empty and untouched by protocols with native orders.
    indexes: [CandidateIndex; 2],
    /// Payload bytes completed per direction (same indexing), feeding
    /// MaxProp's per-contact volume estimator at contact teardown.
    sent_bytes: [u64; 2],
    /// Last state snapshot under which each direction's routing round
    /// returned `None`. A stale snapshot simply fails to match — no
    /// explicit invalidation is ever needed.
    silence: [Option<SilenceKey>; 2],
}

impl ContactOffers {
    /// Fresh state for a contact that just came up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `id` was offered on this contact. The id leaves both
    /// directions' candidate indexes for good.
    pub fn record(&mut self, id: MessageId) {
        self.offered.insert(id);
        self.indexes[0].on_offered(id);
        self.indexes[1].on_offered(id);
    }

    /// True if `id` was already offered on this contact.
    pub fn is_offered(&self, id: MessageId) -> bool {
        self.offered.contains(id)
    }

    /// Number of ids currently tracked.
    pub fn offered_count(&self) -> usize {
        self.offered.len()
    }

    /// Drop every tracked id whose message (per the message table `metas`)
    /// has expired at `now`.
    ///
    /// Behaviour-neutral: message ids are never reused and every router
    /// refuses to offer expired messages, so a pruned id can never be
    /// re-offered — this is purely a memory bound.
    pub fn prune_expired(&mut self, now: SimTime, metas: &[MsgMeta]) {
        self.offered.prune_expired(now, metas);
    }

    /// Account `bytes` of completed payload for direction `side`.
    pub fn add_sent(&mut self, side: usize, bytes: u64) {
        self.sent_bytes[side] += bytes;
    }

    /// Payload bytes completed per direction.
    pub fn sent_bytes(&self) -> [u64; 2] {
        self.sent_bytes
    }

    /// True if direction `side` is known to be silent under `key` — i.e. a
    /// routing round was already answered `None` from exactly this state.
    pub fn is_silent(&self, side: usize, key: &SilenceKey) -> bool {
        self.silence[side].as_ref() == Some(key)
    }

    /// Record that direction `side` answered `None` under `key`.
    pub fn set_silent(&mut self, side: usize, key: SilenceKey) {
        self.silence[side] = Some(key);
    }

    /// The offered ids, sorted — the canonical enumeration a snapshot
    /// records.
    pub fn offered_ids(&self) -> &[MessageId] {
        &self.offered.ids
    }

    /// Rebuild contact state from snapshotted semantic fields: the offered
    /// ids (sorted) and per-direction sent bytes. Candidate indexes and
    /// silence memos are caches — they start cold and rebuild on first
    /// use, degrading only to rescans, never to different decisions.
    pub fn restore(offered_ids: Vec<MessageId>, sent_bytes: [u64; 2]) -> Self {
        debug_assert!(offered_ids.windows(2).all(|w| w[0] < w[1]), "ids sorted");
        ContactOffers {
            offered: OfferedSet { ids: offered_ids },
            sent_bytes,
            ..Self::default()
        }
    }

    /// Directional view for the sender on `side` (0 = lower node id).
    pub fn view(&mut self, side: usize) -> OfferView<'_> {
        OfferView {
            offered: &self.offered,
            index: &mut self.indexes[side],
        }
    }
}

/// What a router sees of a contact's offer state when choosing the next
/// transfer: the offered-id set plus its own direction's candidate index.
#[derive(Debug)]
pub struct OfferView<'a> {
    offered: &'a OfferedSet,
    index: &'a mut CandidateIndex,
}

impl OfferView<'_> {
    /// True if `id` was already offered during this contact.
    pub fn is_offered(&self, id: MessageId) -> bool {
        self.offered.contains(id)
    }

    /// The scheduling scan of every policy-driven router: sync this
    /// direction's candidate index against both endpoints (ranks read from
    /// the message table `metas`), then return the first candidate
    /// `eligible` accepts in scheduling-rank order — or, under
    /// [`SchedulingPolicy::Random`], one uniform `rng` draw over every
    /// accepted candidate (see [`crate::candidates`]).
    ///
    /// `eligible` receives the bare id and returns a [`Verdict`] — routers
    /// order their rejection tests cheapest-first (a `peer.knows` hit
    /// should not pay for a message fetch) and classify each rejection as
    /// [`Verdict::Never`] (permanent for this direction and contact: the
    /// index drops the entry) or [`Verdict::NotNow`] (re-evaluated next
    /// round).
    pub fn scan_index(
        &mut self,
        policy: SchedulingPolicy,
        buffer: &Buffer,
        peer: &NodeState,
        metas: &[MsgMeta],
        rng: &mut SimRng,
        eligible: impl FnMut(MessageId) -> Verdict,
    ) -> Option<MessageId> {
        self.index.sync(policy, buffer, peer, self.offered, metas);
        if policy == SchedulingPolicy::Random {
            self.index.draw(rng, eligible)
        } else {
            self.index.scan(eligible)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = ContactOffers::new();
        assert!(!c.is_offered(MessageId(1)));
        c.record(MessageId(1));
        assert!(c.is_offered(MessageId(1)));
        assert_eq!(c.offered_count(), 1);
        assert!(c.view(0).is_offered(MessageId(1)));
        assert!(c.view(1).is_offered(MessageId(1)));
    }

    #[test]
    fn prune_drops_only_expired() {
        use vdtn_sim_core::{NodeId, SimDuration};
        // Message 0 expires at 60 s, message 1 at 120 s.
        let metas = [60, 120].map(|ttl_s| MsgMeta {
            src: NodeId(0),
            dst: NodeId(1),
            size: 10,
            created: SimTime::ZERO,
            ttl: SimDuration::from_secs(ttl_s),
        });
        let mut c = ContactOffers::new();
        c.record(MessageId(0));
        c.record(MessageId(1));
        c.prune_expired(SimTime::from_secs_f64(60.0), &metas); // expiry ≤ now is dead
        assert!(!c.is_offered(MessageId(0)));
        assert!(c.is_offered(MessageId(1)));
        assert_eq!(c.offered_count(), 1);
    }

    #[test]
    fn sent_bytes_accumulate_per_side() {
        let mut c = ContactOffers::new();
        c.add_sent(0, 100);
        c.add_sent(1, 40);
        c.add_sent(0, 1);
        assert_eq!(c.sent_bytes(), [101, 40]);
    }
}
