//! Scheduling and dropping policies — the paper's contribution.
//!
//! *Scheduling* orders the messages a node offers to a peer at a contact
//! opportunity; *dropping* selects eviction victims on buffer overflow.
//! Figure 2 of the paper illustrates both; its Table I lists the evaluated
//! combinations, exposed here as [`PolicyCombo`] presets.
//!
//! The key idea being reproduced: ordering transmissions by **descending
//! remaining lifetime** spreads copies that will live long enough to be
//! relayed again, while dropping by **ascending remaining lifetime** evicts
//! copies that were about to die anyway — together cutting average delivery
//! delay sharply and even *raising* delivery probability.

use crate::buffer::Buffer;
use crate::message::{MessageId, MsgMeta};
use serde::{Deserialize, Serialize};
use vdtn_sim_core::{SimRng, SimTime};

/// Transmission-order policy at a contact opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// First-come, first-served by reception time (paper baseline).
    Fifo,
    /// Uniform random order, re-drawn at every contact (paper's middle policy).
    Random,
    /// Longest remaining TTL first (the paper's winning policy).
    LifetimeDesc,
    /// Shortest remaining TTL first (extension; the mirror image, included
    /// for the ablation benches).
    LifetimeAsc,
    /// Smallest message first (extension: maximises messages-per-contact).
    SmallestFirst,
    /// Newest created first (extension).
    YoungestFirst,
    /// Fewest hops first (extension: MaxProp-style head start for young
    /// copies, without the adaptive threshold).
    FewestHops,
}

impl SchedulingPolicy {
    /// Order the buffer's message ids for transmission, most-preferred first
    /// (the buffered copies' metadata read from the message table `metas`).
    ///
    /// Ties (identical keys) preserve reception order, so results are fully
    /// deterministic given the RNG stream.
    ///
    /// Every policy except [`SchedulingPolicy::Random`] keys on **immutable**
    /// message fields, so the result is a pure function of the buffer's
    /// membership state; the routing layer's per-contact candidate index
    /// keeps it incrementally and uses this function as its test oracle.
    /// In particular the lifetime policies sort by
    /// *absolute expiry* rather than remaining TTL: at any fixed `now` the
    /// two keys induce the same ranking over non-expired messages (expiry =
    /// now + remaining), and expired messages — where the saturating
    /// remaining-TTL key would tie at zero — are filtered out by every
    /// scheduling consumer before use.
    pub fn order(&self, buffer: &Buffer, metas: &[MsgMeta], rng: &mut SimRng) -> Vec<MessageId> {
        let mut ids: Vec<MessageId> = buffer.ids_in_order().collect();
        let get = |id| buffer.get(id, metas).expect("listed id");
        match self {
            SchedulingPolicy::Fifo => {} // reception order already
            SchedulingPolicy::Random => rng.shuffle(&mut ids),
            SchedulingPolicy::LifetimeDesc => {
                ids.sort_by_key(|&id| std::cmp::Reverse(get(id).expiry()));
            }
            SchedulingPolicy::LifetimeAsc => {
                ids.sort_by_key(|&id| get(id).expiry());
            }
            SchedulingPolicy::SmallestFirst => {
                ids.sort_by_key(|&id| get(id).size);
            }
            SchedulingPolicy::YoungestFirst => {
                ids.sort_by_key(|&id| std::cmp::Reverse(get(id).created));
            }
            SchedulingPolicy::FewestHops => {
                ids.sort_by_key(|&id| get(id).hops);
            }
        }
        ids
    }

    /// Short label used in reports and figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulingPolicy::Fifo => "FIFO",
            SchedulingPolicy::Random => "Random",
            SchedulingPolicy::LifetimeDesc => "Lifetime DESC",
            SchedulingPolicy::LifetimeAsc => "Lifetime ASC",
            SchedulingPolicy::SmallestFirst => "Smallest First",
            SchedulingPolicy::YoungestFirst => "Youngest First",
            SchedulingPolicy::FewestHops => "Fewest Hops",
        }
    }
}

/// Buffer-overflow eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropPolicy {
    /// Drop the head of the reception queue ("drop head", paper baseline).
    Fifo,
    /// Drop the message whose remaining TTL expires soonest (paper's
    /// winning policy).
    LifetimeAsc,
    /// Drop a uniformly random message (extension).
    Random,
    /// Drop the largest message (extension: frees the most space per drop).
    LargestFirst,
    /// Drop the youngest-received message ("drop tail", extension).
    Tail,
    /// Drop the copy that has travelled the most hops (extension: MaxProp-
    /// style — well-travelled copies are likely already replicated).
    MostHops,
}

impl DropPolicy {
    /// Choose the eviction victim among stored messages for which
    /// `protected` returns false (metadata from the message table
    /// `metas`). Returns `None` when every stored message is protected (or
    /// the buffer is empty).
    pub fn select_victim(
        &self,
        buffer: &Buffer,
        metas: &[MsgMeta],
        now: SimTime,
        rng: &mut SimRng,
        protected: impl Fn(MessageId) -> bool,
    ) -> Option<MessageId> {
        let candidates: Vec<MessageId> =
            buffer.ids_in_order().filter(|&id| !protected(id)).collect();
        if candidates.is_empty() {
            return None;
        }
        let get = |id| buffer.get(id, metas).expect("listed id");
        let victim = match self {
            DropPolicy::Fifo => candidates[0],
            DropPolicy::Tail => *candidates.last().expect("non-empty"),
            DropPolicy::Random => *rng.choose(&candidates),
            DropPolicy::LifetimeAsc => candidates
                .into_iter()
                .min_by_key(|&id| get(id).remaining_ttl(now))
                .expect("non-empty"),
            DropPolicy::LargestFirst => candidates
                .into_iter()
                .max_by_key(|&id| get(id).size)
                .expect("non-empty"),
            DropPolicy::MostHops => candidates
                .into_iter()
                .max_by_key(|&id| get(id).hops)
                .expect("non-empty"),
        };
        Some(victim)
    }

    /// Short label used in reports and figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            DropPolicy::Fifo => "FIFO",
            DropPolicy::LifetimeAsc => "Lifetime ASC",
            DropPolicy::Random => "Random",
            DropPolicy::LargestFirst => "Largest First",
            DropPolicy::Tail => "Tail",
            DropPolicy::MostHops => "Most Hops",
        }
    }
}

/// A scheduling–dropping pair, as evaluated in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PolicyCombo {
    /// Transmission ordering.
    pub scheduling: SchedulingPolicy,
    /// Overflow eviction.
    pub dropping: DropPolicy,
}

impl PolicyCombo {
    /// Paper combination 1: FIFO scheduling, FIFO (drop-head) dropping.
    pub const FIFO_FIFO: PolicyCombo = PolicyCombo {
        scheduling: SchedulingPolicy::Fifo,
        dropping: DropPolicy::Fifo,
    };
    /// Paper combination 2: Random scheduling, FIFO dropping.
    pub const RANDOM_FIFO: PolicyCombo = PolicyCombo {
        scheduling: SchedulingPolicy::Random,
        dropping: DropPolicy::Fifo,
    };
    /// Paper combination 3 (the winner): Lifetime DESC scheduling,
    /// Lifetime ASC dropping.
    pub const LIFETIME: PolicyCombo = PolicyCombo {
        scheduling: SchedulingPolicy::LifetimeDesc,
        dropping: DropPolicy::LifetimeAsc,
    };

    /// The paper's Table I, in presentation order.
    pub fn paper_table() -> [PolicyCombo; 3] {
        [Self::FIFO_FIFO, Self::RANDOM_FIFO, Self::LIFETIME]
    }

    /// Legend label, e.g. `"Lifetime DESC-Lifetime ASC"`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.scheduling.label(), self.dropping.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::table;
    use crate::message::Message;
    use vdtn_sim_core::{NodeId, SimDuration};

    /// Buffer with messages: id 1 (TTL rem 10 min, 100 B), id 2 (rem 30 min,
    /// 300 B), id 3 (rem 20 min, 200 B), received in id order; and their
    /// message table.
    fn setup() -> (Buffer, Vec<MsgMeta>, SimTime) {
        let mut b = Buffer::new(10_000);
        let now = SimTime::from_secs_f64(0.0);
        let msgs =
            [(1u64, 10u64, 100u64), (2, 30, 300), (3, 20, 200)].map(|(id, ttl_min, size)| {
                let mut m = Message::new(
                    MessageId(id),
                    NodeId(0),
                    NodeId(9),
                    size,
                    now,
                    SimDuration::from_mins(ttl_min),
                );
                m.received = now + SimDuration::from_secs(id);
                m
            });
        for m in msgs {
            b.insert(m).unwrap();
        }
        (b, table(&msgs), now)
    }

    fn ids(v: &[MessageId]) -> Vec<u64> {
        v.iter().map(|m| m.0).collect()
    }

    #[test]
    fn fifo_preserves_reception_order() {
        let (b, metas, _) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            ids(&SchedulingPolicy::Fifo.order(&b, &metas, &mut rng)),
            [1, 2, 3]
        );
    }

    #[test]
    fn lifetime_desc_puts_longest_ttl_first() {
        let (b, metas, _) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            ids(&SchedulingPolicy::LifetimeDesc.order(&b, &metas, &mut rng)),
            [2, 3, 1]
        );
    }

    #[test]
    fn lifetime_asc_is_the_mirror() {
        let (b, metas, _) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            ids(&SchedulingPolicy::LifetimeAsc.order(&b, &metas, &mut rng)),
            [1, 3, 2]
        );
    }

    #[test]
    fn smallest_and_youngest() {
        let (b, metas, _) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            ids(&SchedulingPolicy::SmallestFirst.order(&b, &metas, &mut rng)),
            [1, 3, 2]
        );
        // All created at the same instant: YoungestFirst falls back to
        // reception order (stable sort).
        assert_eq!(
            ids(&SchedulingPolicy::YoungestFirst.order(&b, &metas, &mut rng)),
            [1, 2, 3]
        );
    }

    #[test]
    fn random_is_permutation_and_seed_deterministic() {
        let (b, metas, _) = setup();
        let mut rng1 = SimRng::seed_from_u64(42);
        let mut rng2 = SimRng::seed_from_u64(42);
        let o1 = SchedulingPolicy::Random.order(&b, &metas, &mut rng1);
        let o2 = SchedulingPolicy::Random.order(&b, &metas, &mut rng2);
        assert_eq!(o1, o2);
        let mut sorted = ids(&o1);
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2, 3]);
    }

    #[test]
    fn drop_fifo_picks_head_lifetime_picks_soonest() {
        let (b, metas, now) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            DropPolicy::Fifo.select_victim(&b, &metas, now, &mut rng, |_| false),
            Some(MessageId(1))
        );
        assert_eq!(
            DropPolicy::LifetimeAsc.select_victim(&b, &metas, now, &mut rng, |_| false),
            Some(MessageId(1))
        );
        assert_eq!(
            DropPolicy::LargestFirst.select_victim(&b, &metas, now, &mut rng, |_| false),
            Some(MessageId(2))
        );
        assert_eq!(
            DropPolicy::Tail.select_victim(&b, &metas, now, &mut rng, |_| false),
            Some(MessageId(3))
        );
    }

    #[test]
    fn lifetime_drop_tracks_time() {
        // Later in the run, message 3 (20 min TTL) may expire sooner than
        // message 1 if 1 was already dropped; here check the key uses *now*.
        let (b, metas, _) = setup();
        let later = SimTime::from_secs_f64(9.0 * 60.0); // 9 min in
        let mut rng = SimRng::seed_from_u64(1);
        // Remaining: id1 = 1 min, id3 = 11 min, id2 = 21 min → still id 1.
        assert_eq!(
            DropPolicy::LifetimeAsc.select_victim(&b, &metas, later, &mut rng, |_| false),
            Some(MessageId(1))
        );
    }

    #[test]
    fn protection_filters_victims() {
        let (b, metas, now) = setup();
        let mut rng = SimRng::seed_from_u64(1);
        let victim =
            DropPolicy::Fifo.select_victim(&b, &metas, now, &mut rng, |id| id == MessageId(1));
        assert_eq!(victim, Some(MessageId(2)));
        let none = DropPolicy::LifetimeAsc.select_victim(&b, &metas, now, &mut rng, |_| true);
        assert_eq!(none, None);
    }

    #[test]
    fn empty_buffer_yields_no_victim() {
        let b = Buffer::new(100);
        let metas = Vec::new();
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            DropPolicy::Random.select_victim(&b, &metas, SimTime::ZERO, &mut rng, |_| false),
            None
        );
    }

    #[test]
    fn hop_based_policies() {
        let mut b = Buffer::new(10_000);
        let now = SimTime::ZERO;
        let msgs = [(1u64, 3u32), (2, 0), (3, 7)].map(|(id, hops)| {
            let mut m = Message::new(
                MessageId(id),
                NodeId(0),
                NodeId(9),
                100,
                now,
                SimDuration::from_mins(60),
            );
            m.hops = hops;
            m
        });
        for m in msgs {
            b.insert(m).unwrap();
        }
        let metas = table(&msgs);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            ids(&SchedulingPolicy::FewestHops.order(&b, &metas, &mut rng)),
            [2, 1, 3]
        );
        assert_eq!(
            DropPolicy::MostHops.select_victim(&b, &metas, now, &mut rng, |_| false),
            Some(MessageId(3))
        );
        assert_eq!(SchedulingPolicy::FewestHops.label(), "Fewest Hops");
        assert_eq!(DropPolicy::MostHops.label(), "Most Hops");
    }

    #[test]
    fn combo_labels() {
        assert_eq!(PolicyCombo::FIFO_FIFO.label(), "FIFO-FIFO");
        assert_eq!(PolicyCombo::RANDOM_FIFO.label(), "Random-FIFO");
        assert_eq!(PolicyCombo::LIFETIME.label(), "Lifetime DESC-Lifetime ASC");
        assert_eq!(PolicyCombo::paper_table().len(), 3);
    }
}
