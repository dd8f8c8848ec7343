//! Byte-capacity message buffers.
//!
//! A [`Buffer`] stores message copies up to a byte capacity, preserving
//! insertion (reception) order — the order FIFO policies rely on — while
//! providing O(log n) id lookups through a sorted index. Iteration always
//! follows insertion order so every traversal is deterministic.
//!
//! A buffer does **not** store full [`Message`] structs. The immutable
//! metadata of each logical message lives once per world, in the message
//! table (a `Vec<MsgMeta>` indexed by id; see [`crate::message`]); the
//! buffer keeps a single flat reception-ordered `Vec` of `CopyEntry`
//! records — the 32-bit message id plus the genuinely per-copy fields (hop
//! count, spray quota, reception time, insertion sequence). Accessors that
//! need metadata take the table by reference and return messages **by
//! value** (`Message` is `Copy`); membership, order and expiry need no
//! table.
//!
//! A buffer trusts that an id always names the same message, which the
//! world's table guarantees: ids are never reused, so a copy's expiry is
//! fixed by its id.
//!
//! Internally four structures cooperate:
//!
//! * `copies` — reception order (front = oldest) and per-copy state in one
//!   contiguous vector. Removal tombstones the entry in O(1) (sentinel
//!   id) and compacts once tombstones outnumber live entries, so
//!   eviction storms are amortised O(1) per removal;
//! * `ids`/`slots` — two parallel sorted columns mapping id → position in
//!   `copies` for every stored message (the membership source of truth).
//!   A sorted pair of flat vectors instead of a hash map: 12 bytes per
//!   stored copy with zero per-instance table overhead, which matters
//!   because there is one buffer per node and lookups stay O(log n) on
//!   buffers that hold at most a few thousand copies;
//! * `expiry` — a min-heap of `(expiry time, id)` with lazy deletion, so
//!   TTL housekeeping ([`Buffer::next_expiry`], [`Buffer::drain_expired`])
//!   costs O(1) when nothing is due instead of a full-buffer scan. This is
//!   the heap the engine's TTL-expiry events are scheduled from;
//! * `deltas` — an optional bounded membership-change log (see
//!   [`Buffer::watch`]). Once a subscriber opts in, every insert, removal
//!   and TTL expiry is recorded as a [`BufferDelta`] (its generation stamp
//!   is implicit in its log position), and [`Buffer::deltas_since`] replays the
//!   changes between two observed generations so downstream candidate
//!   indexes can patch themselves in O(changes) instead of rescanning the
//!   buffer. Removal deltas carry the removed copy's [`RankMeta`] so
//!   consumers can locate rank-keyed entries without any id→rank side
//!   table of their own. The log is a bounded ring (compacted in amortised
//!   O(1), like the tombstoned `copies` vector): consumers that fall too
//!   far behind get `None` and must rebuild — staleness degrades to a
//!   rescan, never to a wrong answer.

use crate::message::{Message, MessageId, MsgMeta};
use serde::{Deserialize, Serialize};
use vdtn_sim_core::SimTime;

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// The message alone exceeds the total capacity — no eviction can help.
    TooLarge {
        /// Size of the rejected message.
        size: u64,
        /// Total buffer capacity.
        capacity: u64,
    },
    /// Free space is insufficient; the caller should evict via the drop
    /// policy and retry.
    NoSpace {
        /// Bytes missing.
        missing: u64,
    },
    /// A copy of this message is already stored.
    Duplicate(MessageId),
    /// Ids from `u32::MAX` up can never be stored: a stored copy keeps its
    /// id in 32 bits, and `u32::MAX` marks removed entries (the traffic
    /// generator allocates ids sequentially from zero and never reaches
    /// it).
    ReservedId,
}

impl std::fmt::Display for BufferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferError::TooLarge { size, capacity } => {
                write!(
                    f,
                    "message of {size} B exceeds buffer capacity {capacity} B"
                )
            }
            BufferError::NoSpace { missing } => write!(f, "buffer lacks {missing} B"),
            BufferError::Duplicate(id) => write!(f, "duplicate message {id}"),
            BufferError::ReservedId => write!(f, "message ids from u32::MAX up are reserved"),
        }
    }
}

impl std::error::Error for BufferError {}

/// In-place marker for removed `copies` entries: the first reserved id
/// ([`Buffer::insert`] refuses to store it or anything above).
const TOMBSTONE: u32 = u32::MAX;

/// One entry of the lazy expiry min-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExpiryEntry {
    at: SimTime,
    id: MessageId,
}

/// One stored copy: the id of its logical message plus every per-copy
/// field. 24 bytes, stored inline in the reception-order vector — the
/// whole buffer scan is one contiguous walk. The immutable metadata (src,
/// dst, size, created, ttl) is the id's record in the message table.
#[derive(Debug, Clone, Copy)]
struct CopyEntry {
    /// Message id, or `TOMBSTONE` when the slot was removed.
    id: u32,
    /// Hops this copy has taken from the source.
    hops: u32,
    /// Remaining logical copies for quota-based protocols.
    copies: u32,
    /// Buffer-lifetime insertion sequence number (scheduling tie-break —
    /// reception order survives compaction through it). `u32` suffices: a
    /// buffer would need four billion inserts to wrap, and
    /// [`Buffer::insert`] debug-asserts the bound.
    seq: u32,
    /// Reception timestamp at the current holder.
    received: SimTime,
}

/// The immutable fields every [`crate::SchedulingPolicy`] ranks by, snapshot
/// at insertion time. Carried inside every [`DeltaKind`] so a consumer can
/// key a candidate entry even after the message has left the buffer again
/// (insert-then-remove inside one replayed batch), plus the insertion
/// sequence number `seq` that encodes reception order for tie-breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankMeta {
    /// Absolute expiry instant (`created + ttl`).
    pub expiry: SimTime,
    /// Message size in bytes.
    pub size: u64,
    /// Creation timestamp at the source.
    pub created: SimTime,
    /// Hop count of the stored copy (immutable while stored).
    pub hops: u32,
    /// Buffer-lifetime insertion sequence number; strictly increasing with
    /// reception order, never reused. `u32` like the stored copy's — the
    /// packing keeps the whole snapshot at 32 bytes, which matters because
    /// one lives inside every retained [`BufferDelta`].
    pub seq: u32,
}

/// What a [`BufferDelta`] records. Removal variants carry the affected
/// copy's [`RankMeta`] snapshot — the meta the copy was *inserted* with —
/// which lets delta consumers compute the exact rank key of the entry to
/// delete instead of keeping their own id→rank map. Inserts carry **no**
/// snapshot: an inserted copy's rank meta is immutable while stored, so a
/// consumer reads it from the live buffer ([`Buffer::rank_meta`]); if the
/// copy was removed again inside the same replayed batch, skipping the
/// insert is exact because the paired removal delta then matches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaKind {
    /// A message entered the buffer.
    Insert,
    /// A message was removed (forwarding hand-off, delivery discard,
    /// drop-policy eviction).
    Remove(RankMeta),
    /// A message was removed by the TTL sweep ([`Buffer::drain_expired`]).
    /// Consumers treat it like [`DeltaKind::Remove`]; the distinction is
    /// kept for diagnostics and the invalidation tables in ARCHITECTURE.md.
    Expire(RankMeta),
}

/// One membership change. Generations move by exactly one per change and
/// the log is contiguous, so the generation an entry was stamped with is
/// implicit in its position (`log_base + index + 1`) — it is not stored.
///
/// This is the *iteration item* of [`DeltaReplay`]; the retained ring is
/// column-structured (id column, 1-byte tag column, and a meta column
/// populated only for removals — at steady state mostly inserts, ~9 bytes
/// per retained change instead of the 64 of the former array-of-structs
/// log), and entries are reassembled by value on replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferDelta {
    /// The message the change concerns.
    pub id: MessageId,
    /// What happened.
    pub kind: DeltaKind,
}

/// A replayable slice of the delta log, as returned by
/// [`Buffer::deltas_since`]: the membership changes between two observed
/// generations, oldest first.
#[derive(Debug, Clone, Copy)]
pub struct DeltaReplay<'a> {
    ids: &'a [MessageId],
    tags: &'a [u8],
    /// Removal metas for this slice, front-aligned: the first removal tag
    /// in `tags` pairs with `metas[0]`, and so on.
    metas: &'a [RankMeta],
}

/// Ring tag values (`u8` column entries).
const TAG_INSERT: u8 = 0;
const TAG_REMOVE: u8 = 1;
const TAG_EXPIRE: u8 = 2;

impl<'a> DeltaReplay<'a> {
    /// Number of changes in the slice.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the slice replays nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The changes, oldest first, reassembled by value.
    pub fn iter(&self) -> impl Iterator<Item = BufferDelta> + 'a {
        let (ids, tags, metas) = (self.ids, self.tags, self.metas);
        let mut next_meta = 0usize;
        ids.iter().zip(tags).map(move |(&id, &tag)| {
            let kind = match tag {
                TAG_INSERT => DeltaKind::Insert,
                _ => {
                    let meta = metas[next_meta];
                    next_meta += 1;
                    if tag == TAG_REMOVE {
                        DeltaKind::Remove(meta)
                    } else {
                        DeltaKind::Expire(meta)
                    }
                }
            };
            BufferDelta { id, kind }
        })
    }
}

/// Ring bound for the delta log: once more than `2 * DELTA_LOG_CAP` entries
/// accumulate the oldest `DELTA_LOG_CAP` are dropped in one amortised-O(1)
/// batch. Consumers further behind than the retained window rebuild instead
/// of patching.
const DELTA_LOG_CAP: usize = 512;

/// A node's message store.
#[derive(Debug, Clone)]
pub struct Buffer {
    capacity: u64,
    used: u64,
    /// Reception order (front = oldest) and per-copy state, possibly
    /// holding tombstoned entries. Removal overwrites the entry's id
    /// with the `TOMBSTONE` sentinel in place, so liveness checks during
    /// iteration are a plain compare — no id lookups on the hot traversal
    /// paths.
    copies: Vec<CopyEntry>,
    /// Sorted ids of every *stored* message, parallel to `slots`.
    ids: Vec<MessageId>,
    /// `copies` position of each stored id, parallel to `ids`.
    slots: Vec<u32>,
    /// Tombstoned entries currently in `copies`.
    stale: usize,
    /// Min-heap (array layout) of expiry times with lazy deletion: entries
    /// whose id is gone are discarded when they surface. An id's expiry
    /// never changes, so an entry whose id is stored is current (a
    /// re-inserted id leaves a duplicate entry, deduplicated on drain).
    expiry: Vec<ExpiryEntry>,
    /// Monotone membership-change counter: bumped on every successful
    /// insert and remove (and therefore on eviction and TTL drain, which go
    /// through `remove`). Routing candidate indexes sync against it.
    /// In-place mutation via [`Buffer::copies_mut`] does *not* bump it —
    /// see `generation()` for the contract.
    generation: u64,
    /// Count of successful inserts over the buffer's lifetime. Doubles as
    /// the next insertion sequence number and as the "delta summary" the
    /// engine's silent-round memo keys on (removals never make a silent
    /// direction loud, so the memo can ignore them — see
    /// [`Buffer::insert_count`]).
    inserts: u64,
    /// True once a consumer called [`Buffer::watch`]; membership changes
    /// are recorded from that point on.
    log_on: bool,
    /// The delta log covers generations `(log_base, generation]`.
    log_base: u64,
    /// Delta-log id column, oldest first (bounded; see `DELTA_LOG_CAP`).
    delta_ids: Vec<MessageId>,
    /// Delta-log tag column, parallel to `delta_ids` (`TAG_*` values).
    delta_tags: Vec<u8>,
    /// Removal-meta column: one snapshot per `TAG_REMOVE`/`TAG_EXPIRE`
    /// entry, in tag order. Inserts store nothing here.
    delta_metas: Vec<RankMeta>,
}

impl Buffer {
    /// Create an empty buffer with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Buffer {
            capacity,
            used: 0,
            copies: Vec::new(),
            ids: Vec::new(),
            slots: Vec::new(),
            stale: 0,
            expiry: Vec::new(),
            generation: 0,
            inserts: 0,
            log_on: false,
            log_base: 0,
            delta_ids: Vec::new(),
            delta_tags: Vec::new(),
            delta_metas: Vec::new(),
        }
    }

    /// Monotone counter distinguishing buffer *membership* states: any
    /// successful [`Buffer::insert`] or [`Buffer::remove`] bumps it, so two
    /// observations with equal generations hold exactly the same message
    /// set in the same reception order.
    ///
    /// [`Buffer::copies_mut`] deliberately does **not** bump it: the spray
    /// quotas protocols mutate in place are not scheduling keys — every
    /// [`crate::SchedulingPolicy`] orders by immutable message fields
    /// (reception position, absolute expiry, size, creation time, the
    /// stored copy's hop count), which is what makes generation-keyed
    /// schedule caching sound.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of successful inserts over this buffer's lifetime, monotone
    /// and unchanged by removals.
    ///
    /// This is the buffer's **delta summary** for silence reasoning: a
    /// routing direction whose `None` verdict was recorded at some sender
    /// insert-count stays `None` while that count is unchanged, because
    /// removals only shrink the sender's candidate set and every surviving
    /// candidate was already rejected (the engine's `SilenceKey` keys on
    /// this instead of the full generation since PR 5).
    pub fn insert_count(&self) -> u64 {
        self.inserts
    }

    /// Start recording membership deltas. Idempotent; recording stays on
    /// for the buffer's life. The log starts empty at the current
    /// generation, so `deltas_since(generation())` is `Some(&[])`
    /// immediately after.
    pub fn watch(&mut self) {
        if !self.log_on {
            self.log_on = true;
            self.log_base = self.generation;
            self.delta_ids.clear();
            self.delta_tags.clear();
            self.delta_metas.clear();
        }
    }

    /// The membership changes between the observed generation `gen` and the
    /// current one, oldest first, or `None` when the log cannot prove the
    /// interval (never watched, consumer older than the retained window, or
    /// `gen` from a different buffer) — the caller must then rebuild from
    /// the buffer itself. `Some` of an empty replay whenever `gen` is
    /// current, watched or not.
    pub fn deltas_since(&self, gen: u64) -> Option<DeltaReplay<'_>> {
        if gen == self.generation {
            return Some(DeltaReplay {
                ids: &[],
                tags: &[],
                metas: &[],
            });
        }
        if !self.log_on || gen > self.generation || gen < self.log_base {
            return None;
        }
        debug_assert_eq!(
            self.delta_ids.len() as u64,
            self.generation - self.log_base,
            "every generation bump since watch() is logged"
        );
        let start = (gen - self.log_base) as usize;
        // Removal metas before the slice start are skipped by count — tags
        // are a flat byte column, so this is one cheap bounded scan.
        let meta_start = self.delta_tags[..start]
            .iter()
            .filter(|&&t| t != TAG_INSERT)
            .count();
        Some(DeltaReplay {
            ids: &self.delta_ids[start..],
            tags: &self.delta_tags[start..],
            metas: &self.delta_metas[meta_start..],
        })
    }

    /// `copies` position of a stored id (binary search of the sorted
    /// id column).
    fn slot_of(&self, id: MessageId) -> Option<u32> {
        let i = self.ids.binary_search(&id).ok()?;
        Some(self.slots[i])
    }

    /// The scheduling-rank snapshot of a stored message (see [`RankMeta`]),
    /// its immutable fields read from the message table `metas`.
    pub fn rank_meta(&self, id: MessageId, metas: &[MsgMeta]) -> Option<RankMeta> {
        let pos = self.slot_of(id)?;
        Some(rank_meta(&self.copies[pos as usize], metas))
    }

    /// Every stored copy as `(id, rank snapshot)`, in reception order — one
    /// contiguous pass for consumers that rebuild a rank-keyed view of the
    /// whole buffer.
    pub fn rank_entries<'a>(
        &'a self,
        metas: &'a [MsgMeta],
    ) -> impl Iterator<Item = (MessageId, RankMeta)> + 'a {
        self.live()
            .map(move |e| (MessageId(e.id.into()), rank_meta(e, metas)))
    }

    /// The live `copies` entries, in reception order.
    fn live(&self) -> impl Iterator<Item = &CopyEntry> + '_ {
        self.copies.iter().filter(|e| e.id != TOMBSTONE)
    }

    /// Reconstruct a full message copy from its entry and its table record.
    fn reify(e: &CopyEntry, metas: &[MsgMeta]) -> Message {
        let meta = &metas[e.id as usize];
        Message {
            id: MessageId(e.id.into()),
            src: meta.src,
            dst: meta.dst,
            size: meta.size,
            created: meta.created,
            ttl: meta.ttl,
            hops: e.hops,
            copies: e.copies,
            received: e.received,
        }
    }

    fn push_delta(&mut self, id: MessageId, kind: DeltaKind) {
        if !self.log_on {
            return;
        }
        let tag = match kind {
            DeltaKind::Insert => TAG_INSERT,
            DeltaKind::Remove(meta) => {
                self.delta_metas.push(meta);
                TAG_REMOVE
            }
            DeltaKind::Expire(meta) => {
                self.delta_metas.push(meta);
                TAG_EXPIRE
            }
        };
        self.delta_ids.push(id);
        self.delta_tags.push(tag);
        if self.delta_ids.len() > 2 * DELTA_LOG_CAP {
            // Entry `i` covers generation `log_base + i + 1`; dropping the
            // oldest `DELTA_LOG_CAP` advances the base by exactly that much.
            self.log_base += DELTA_LOG_CAP as u64;
            let dropped_metas = self.delta_tags[..DELTA_LOG_CAP]
                .iter()
                .filter(|&&t| t != TAG_INSERT)
                .count();
            self.delta_ids.drain(..DELTA_LOG_CAP);
            self.delta_tags.drain(..DELTA_LOG_CAP);
            self.delta_metas.drain(..dropped_metas);
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// Number of stored messages.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True if a copy of `id` is stored.
    pub fn contains(&self, id: MessageId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// A stored copy, reconstructed by value from its record in `metas` and
    /// the per-copy fields (`Message` is `Copy`; there is no stored struct
    /// to borrow).
    pub fn get(&self, id: MessageId, metas: &[MsgMeta]) -> Option<Message> {
        let pos = self.slot_of(id)?;
        Some(Self::reify(&self.copies[pos as usize], metas))
    }

    /// Mutable access to a stored copy's remaining-copies quota (the only
    /// per-copy field protocols mutate in place — Spray-and-Wait halving).
    pub fn copies_mut(&mut self, id: MessageId) -> Option<&mut u32> {
        let pos = self.slot_of(id)?;
        Some(&mut self.copies[pos as usize].copies)
    }

    /// Insert a message copy. Fails without modifying the buffer if the
    /// message cannot fit or is already present. The copy's immutable
    /// fields must equal its id's record in the message table later
    /// accessors are given.
    pub fn insert(&mut self, msg: Message) -> Result<(), BufferError> {
        let Some(id) = u32::try_from(msg.id.0).ok().filter(|&id| id != TOMBSTONE) else {
            return Err(BufferError::ReservedId);
        };
        let at = match self.ids.binary_search(&msg.id) {
            Ok(_) => return Err(BufferError::Duplicate(msg.id)),
            Err(at) => at,
        };
        if msg.size > self.capacity {
            return Err(BufferError::TooLarge {
                size: msg.size,
                capacity: self.capacity,
            });
        }
        if msg.size > self.free() {
            return Err(BufferError::NoSpace {
                missing: msg.size - self.free(),
            });
        }
        self.used += msg.size;
        self.generation += 1;
        debug_assert!(self.inserts <= u32::MAX as u64, "insert seq wrapped");
        let seq = self.inserts as u32;
        self.inserts += 1;
        self.ids.insert(at, msg.id);
        self.slots.insert(at, self.copies.len() as u32);
        self.copies.push(CopyEntry {
            id,
            hops: msg.hops,
            copies: msg.copies,
            seq,
            received: msg.received,
        });
        self.heap_push(ExpiryEntry {
            at: msg.expiry(),
            id: msg.id,
        });
        self.push_delta(msg.id, DeltaKind::Insert);
        Ok(())
    }

    /// Remove and return a copy (its metadata read from `metas`).
    /// Amortised O(1): the `copies` entry is overwritten with the
    /// `TOMBSTONE` sentinel and reclaimed by a later compaction; the
    /// expiry-heap entry is discarded lazily.
    pub fn remove(&mut self, id: MessageId, metas: &[MsgMeta]) -> Option<Message> {
        self.remove_with(id, metas, false)
    }

    fn remove_with(&mut self, id: MessageId, metas: &[MsgMeta], expired: bool) -> Option<Message> {
        let i = self.ids.binary_search(&id).ok()?;
        self.ids.remove(i);
        let pos = self.slots.remove(i) as usize;
        let msg = Self::reify(&self.copies[pos], metas);
        let meta = rank_meta(&self.copies[pos], metas);
        self.used -= msg.size;
        self.generation += 1;
        self.copies[pos].id = TOMBSTONE;
        self.stale += 1;
        if self.stale * 2 > self.copies.len() {
            self.compact();
        }
        let kind = if expired {
            DeltaKind::Expire(meta)
        } else {
            DeltaKind::Remove(meta)
        };
        self.push_delta(id, kind);
        Some(msg)
    }

    /// Rewrite `copies` without tombstones, preserving relative order.
    fn compact(&mut self) {
        let mut w = 0usize;
        for r in 0..self.copies.len() {
            let e = self.copies[r];
            if e.id != TOMBSTONE {
                self.copies[w] = e;
                let id = MessageId(e.id.into());
                let i = self.ids.binary_search(&id).expect("live ids are indexed");
                self.slots[i] = w as u32;
                w += 1;
            }
        }
        self.copies.truncate(w);
        self.stale = 0;
    }

    /// Oldest-received message id (FIFO head).
    pub fn head(&self) -> Option<MessageId> {
        self.ids_in_order().next()
    }

    /// Ids in reception order (front = oldest). A plain filtered slice
    /// walk — tombstones are in-place sentinels.
    pub fn ids_in_order(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.live().map(|e| MessageId(e.id.into()))
    }

    /// Iterate stored messages in reception order, reconstructed by value
    /// from their records in `metas`.
    pub fn iter<'a>(&'a self, metas: &'a [MsgMeta]) -> impl Iterator<Item = Message> + 'a {
        self.live().map(move |e| Self::reify(e, metas))
    }

    /// Earliest expiry time among stored messages, or `None` when empty.
    ///
    /// O(1) amortised (lazily discards heap entries for removed copies).
    /// The engine schedules its per-node TTL events from this value: no
    /// stored message can expire before it.
    pub fn next_expiry(&mut self) -> Option<SimTime> {
        while let Some(&top) = self.expiry.first() {
            if self.contains(top.id) {
                return Some(top.at);
            }
            self.heap_pop();
        }
        None
    }

    /// Remove every expired message, returning them in reception order (for
    /// stats recording; metadata from `metas`). Driven by the expiry heap:
    /// O(1) when nothing is due, O(expired · log n) otherwise — never a
    /// full-buffer scan.
    pub fn drain_expired(&mut self, now: SimTime, metas: &[MsgMeta]) -> Vec<Message> {
        if self.expiry.first().map_or(true, |top| top.at > now) {
            return Vec::new();
        }
        // Collect due live ids with their reception positions first; the
        // removals below may compact `copies` and shuffle positions.
        let mut due: Vec<(u32, MessageId)> = Vec::new();
        while let Some(&top) = self.expiry.first() {
            if top.at > now {
                break;
            }
            self.heap_pop();
            if let Some(pos) = self.slot_of(top.id) {
                due.push((pos, top.id));
            }
        }
        due.sort_unstable();
        due.dedup_by_key(|e| e.1);
        due.into_iter()
            .map(|(_, id)| {
                self.remove_with(id, metas, true)
                    .expect("live id collected above")
            })
            .collect()
    }

    /// True if `size` bytes could ever fit (possibly after evictions).
    pub fn could_fit(&self, size: u64) -> bool {
        size <= self.capacity
    }

    /// True if `size` bytes fit right now without eviction.
    pub fn fits_now(&self, size: u64) -> bool {
        size <= self.free()
    }

    // --- expiry min-heap primitives (array layout, lazy deletion) ---

    fn heap_push(&mut self, e: ExpiryEntry) {
        self.expiry.push(e);
        let mut i = self.expiry.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.expiry[i] < self.expiry[parent] {
                self.expiry.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_pop(&mut self) -> Option<ExpiryEntry> {
        if self.expiry.is_empty() {
            return None;
        }
        let top = self.expiry.swap_remove(0);
        let mut i = 0usize;
        let n = self.expiry.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.expiry[l] < self.expiry[smallest] {
                smallest = l;
            }
            if r < n && self.expiry[r] < self.expiry[smallest] {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.expiry.swap(i, smallest);
            i = smallest;
        }
        Some(top)
    }
}

/// The scheduling-rank snapshot of a stored copy (see [`RankMeta`]).
fn rank_meta(e: &CopyEntry, metas: &[MsgMeta]) -> RankMeta {
    let meta = &metas[e.id as usize];
    RankMeta {
        expiry: meta.expiry(),
        size: meta.size,
        created: meta.created,
        hops: e.hops,
        seq: e.seq,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vdtn_sim_core::{NodeId, SimDuration};

    fn msg(id: u64, size: u64, created_s: f64, ttl_min: u64) -> Message {
        Message::new(
            MessageId(id),
            NodeId(0),
            NodeId(1),
            size,
            SimTime::from_secs_f64(created_s),
            SimDuration::from_mins(ttl_min),
        )
    }

    /// A message table holding each of `msgs` at its id; ids missing from
    /// `msgs` hold the first message's record, which no test reads.
    pub(crate) fn table(msgs: &[Message]) -> Vec<MsgMeta> {
        let len = msgs.iter().map(|m| m.id.index() + 1).max().unwrap_or(0);
        let mut metas = vec![MsgMeta::of(&msgs[0]); len];
        for m in msgs {
            metas[m.id.index()] = MsgMeta::of(m);
        }
        metas
    }

    /// A buffer of `capacity` bytes holding `msgs` in order, and their table.
    fn stored(capacity: u64, msgs: &[Message]) -> (Buffer, Vec<MsgMeta>) {
        let mut b = Buffer::new(capacity);
        for &m in msgs {
            b.insert(m).unwrap();
        }
        (b, table(msgs))
    }

    fn order_ids(b: &Buffer) -> Vec<MessageId> {
        b.ids_in_order().collect()
    }

    #[test]
    fn insert_and_accounting() {
        let mut b = Buffer::new(1000);
        b.insert(msg(1, 400, 0.0, 60)).unwrap();
        b.insert(msg(2, 300, 1.0, 60)).unwrap();
        assert_eq!(b.used(), 700);
        assert_eq!(b.free(), 300);
        assert_eq!(b.len(), 2);
        assert!((b.occupancy() - 0.7).abs() < 1e-12);
        assert!(b.contains(MessageId(1)));
        assert_eq!(b.head(), Some(MessageId(1)));
    }

    #[test]
    fn get_reconstructs_the_inserted_copy_exactly() {
        let mut m = msg(1, 400, 5.0, 60);
        m.hops = 3;
        m.copies = 8;
        m.received = SimTime::from_secs_f64(9.0);
        let (b, metas) = stored(1000, &[m]);
        assert_eq!(b.get(MessageId(1), &metas), Some(m));
        assert_eq!(b.iter(&metas).collect::<Vec<_>>(), vec![m]);
        assert_eq!(b.get(MessageId(2), &metas), None);
    }

    #[test]
    fn replicas_share_one_table_record() {
        let m = msg(1, 100, 0.0, 60);
        let (b1, metas) = stored(1000, &[m]);
        let (b2, _) = stored(1000, &[m.relayed_copy(SimTime::from_secs_f64(5.0))]);
        assert_eq!(b1.get(MessageId(1), &metas).unwrap().hops, 0);
        assert_eq!(b2.get(MessageId(1), &metas).unwrap().hops, 1);
        assert_eq!(
            b2.get(MessageId(1), &metas).unwrap().received,
            SimTime::from_secs_f64(5.0)
        );
    }

    #[test]
    fn copies_mut_updates_quota_without_generation_bump() {
        let mut m = msg(1, 100, 0.0, 60);
        m.copies = 8;
        let (mut b, metas) = stored(1000, &[m]);
        let gen = b.generation();
        *b.copies_mut(MessageId(1)).unwrap() = 4;
        assert_eq!(b.get(MessageId(1), &metas).unwrap().copies, 4);
        assert_eq!(
            b.generation(),
            gen,
            "in-place quota edits are not membership changes"
        );
        assert!(b.copies_mut(MessageId(9)).is_none());
    }

    #[test]
    fn rejects_duplicate() {
        let mut b = Buffer::new(1000);
        b.insert(msg(1, 100, 0.0, 60)).unwrap();
        assert_eq!(
            b.insert(msg(1, 100, 0.0, 60).relayed_copy(SimTime::from_secs_f64(5.0))),
            Err(BufferError::Duplicate(MessageId(1)))
        );
        assert_eq!(b.used(), 100);
    }

    #[test]
    fn rejects_oversized_and_full() {
        let mut b = Buffer::new(1000);
        assert_eq!(
            b.insert(msg(1, 2000, 0.0, 60)),
            Err(BufferError::TooLarge {
                size: 2000,
                capacity: 1000
            })
        );
        b.insert(msg(2, 800, 0.0, 60)).unwrap();
        assert_eq!(
            b.insert(msg(3, 400, 0.0, 60)),
            Err(BufferError::NoSpace { missing: 200 })
        );
        // Failure must not corrupt accounting.
        assert_eq!(b.used(), 800);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_restores_space_and_order() {
        let msgs = [1, 2, 3].map(|id| msg(id, 300, id as f64, 60));
        let (mut b, metas) = stored(1000, &msgs);
        let removed = b.remove(MessageId(2), &metas).unwrap();
        assert_eq!(removed, msgs[1]);
        assert_eq!(b.used(), 600);
        assert_eq!(order_ids(&b), vec![MessageId(1), MessageId(3)]);
        assert!(b.remove(MessageId(2), &metas).is_none());
    }

    #[test]
    fn iteration_follows_reception_order() {
        let msgs: Vec<Message> = (0..10).map(|i| msg(i, 10, i as f64, 60)).collect();
        let (b, metas) = stored(10_000, &msgs);
        assert_eq!(b.iter(&metas).collect::<Vec<_>>(), msgs);
    }

    #[test]
    fn drain_expired_removes_only_expired() {
        let msgs = [
            msg(1, 10, 0.0, 1),  // expires at 60 s
            msg(2, 10, 0.0, 60), // expires at 3600 s
            msg(3, 10, 30.0, 1), // expires at 90 s
        ];
        let (mut b, metas) = stored(10_000, &msgs);
        let dead = b.drain_expired(SimTime::from_secs_f64(61.0), &metas);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].id, MessageId(1));
        assert_eq!(b.len(), 2);
        let dead = b.drain_expired(SimTime::from_secs_f64(10_000.0), &metas);
        assert_eq!(dead.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn drain_expired_returns_reception_order() {
        // Reception order 5, 4, 3 — all expiring together.
        let (mut b, metas) = stored(10_000, &[5u64, 4, 3].map(|id| msg(id, 10, 0.0, 1)));
        let dead = b.drain_expired(SimTime::from_secs_f64(60.0), &metas);
        let ids: Vec<u64> = dead.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![5, 4, 3]);
    }

    #[test]
    fn next_expiry_tracks_minimum() {
        assert_eq!(Buffer::new(10_000).next_expiry(), None);
        let msgs = [msg(1, 10, 0.0, 60), msg(2, 10, 0.0, 1)]; // 3600 s, 60 s
        let (mut b, metas) = stored(10_000, &msgs);
        assert_eq!(b.next_expiry(), Some(SimTime::from_secs_f64(60.0)));
        // Removing the earliest rolls the minimum forward (lazily).
        b.remove(MessageId(2), &metas).unwrap();
        assert_eq!(b.next_expiry(), Some(SimTime::from_secs_f64(3600.0)));
        b.remove(MessageId(1), &metas).unwrap();
        assert_eq!(b.next_expiry(), None);
    }

    #[test]
    fn reinserted_id_is_tracked_exactly() {
        let m = msg(7, 10, 100.0, 1); // expires at 160 s
        let (mut b, metas) = stored(10_000, &[m]);
        b.remove(MessageId(7), &metas).unwrap();
        // The same message re-received later: its first heap entry is
        // stale, but names the same expiry, and drains only once.
        b.insert(m.relayed_copy(SimTime::from_secs_f64(120.0)))
            .unwrap();
        assert_eq!(b.next_expiry(), Some(SimTime::from_secs_f64(160.0)));
        assert!(b
            .drain_expired(SimTime::from_secs_f64(159.0), &metas)
            .is_empty());
        let dead = b.drain_expired(SimTime::from_secs_f64(160.0), &metas);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].received, SimTime::from_secs_f64(120.0));
        assert_eq!(b.next_expiry(), None);
    }

    #[test]
    fn eviction_storm_keeps_views_consistent() {
        // Tombstone + compaction stress: interleave inserts and removals far
        // past the compaction threshold and re-check every view.
        let msgs: Vec<Message> = (0..=200u64).map(|i| msg(i, 1, i as f64, 60)).collect();
        let (mut b, _) = stored(u64::MAX, &msgs[..100]);
        let metas = table(&msgs);
        // Evict from the head, like a FIFO drop policy under pressure.
        for i in 0..90u64 {
            assert_eq!(b.head(), Some(MessageId(i)));
            b.remove(MessageId(i), &metas).unwrap();
        }
        assert_eq!(b.len(), 10);
        assert_eq!(order_ids(&b), (90..100).map(MessageId).collect::<Vec<_>>());
        // Insert after heavy removal: order still appends at the back.
        b.insert(msgs[200]).unwrap();
        assert_eq!(order_ids(&b).last(), Some(&MessageId(200)));
        assert_eq!(b.used(), 11);
        assert_eq!(
            b.iter(&metas).collect::<Vec<_>>(),
            [&msgs[90..100], &msgs[200..]].concat()
        );
    }

    #[test]
    fn reserved_tombstone_id_rejected() {
        let mut b = Buffer::new(1000);
        for id in [u64::MAX, u32::MAX as u64] {
            assert_eq!(b.insert(msg(id, 10, 0.0, 60)), Err(BufferError::ReservedId));
        }
        assert!(b.is_empty());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn zero_capacity_buffer() {
        let mut b = Buffer::new(0);
        assert!(!b.could_fit(1));
        assert_eq!(b.occupancy(), 1.0);
        assert!(matches!(
            b.insert(msg(1, 1, 0.0, 60)),
            Err(BufferError::TooLarge { .. })
        ));
    }

    #[test]
    fn delta_log_replays_membership_changes() {
        let mut b = Buffer::new(10_000);
        let msgs = [msg(1, 10, 0.0, 60), msg(2, 10, 1.0, 60)];
        let metas = table(&msgs);
        b.insert(msgs[0]).unwrap(); // before watch: unlogged
        b.watch();
        let base = b.generation();
        assert!(b.deltas_since(base).unwrap().is_empty());

        b.insert(msgs[1]).unwrap();
        b.remove(MessageId(1), &metas).unwrap();
        let deltas: Vec<BufferDelta> = b
            .deltas_since(base)
            .expect("within the window")
            .iter()
            .collect();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].id, MessageId(2));
        assert_eq!(deltas[0].kind, DeltaKind::Insert);
        assert_eq!(deltas[1].id, MessageId(1));
        // The removal carries the *insertion-time* meta of the removed copy.
        assert!(matches!(deltas[1].kind, DeltaKind::Remove(m) if m.size == 10 && m.seq == 0));
        // Mid-window replay: only the tail (its meta column realigns too).
        let tail: Vec<BufferDelta> = b.deltas_since(base + 1).unwrap().iter().collect();
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail[0].kind, DeltaKind::Remove(m) if m.seq == 0));
        // A generation the log cannot prove (pre-watch, or foreign).
        assert!(b.deltas_since(base.wrapping_sub(1)).is_none());
        assert!(b.deltas_since(b.generation() + 7).is_none());
    }

    #[test]
    fn delta_log_tags_ttl_expiry() {
        let mut b = Buffer::new(10_000);
        b.watch();
        let metas = table(&[msg(1, 10, 0.0, 1)]);
        b.insert(msg(1, 10, 0.0, 1)).unwrap();
        let gen = b.generation();
        let dead = b.drain_expired(SimTime::from_secs_f64(61.0), &metas);
        assert_eq!(dead.len(), 1);
        let deltas: Vec<BufferDelta> = b.deltas_since(gen).unwrap().iter().collect();
        assert_eq!(deltas.len(), 1);
        assert!(matches!(deltas[0].kind, DeltaKind::Expire(m) if m.seq == 0));
    }

    #[test]
    fn delta_log_overflow_forces_rebuild() {
        let mut b = Buffer::new(u64::MAX);
        b.watch();
        let base = b.generation();
        let msgs: Vec<Message> = (0..2_000u64).map(|i| msg(i, 1, 0.0, 60)).collect();
        let metas = table(&msgs);
        // Far more churn than the retained window holds.
        for m in msgs {
            b.insert(m).unwrap();
            b.remove(m.id, &metas).unwrap();
        }
        assert!(b.deltas_since(base).is_none(), "fell out of the ring");
        // Recent generations still replay exactly, alternating the paired
        // insert/remove churn above.
        let recent = b.generation() - 10;
        let deltas: Vec<BufferDelta> = b.deltas_since(recent).unwrap().iter().collect();
        assert_eq!(deltas.len(), 10);
        assert!(deltas
            .chunks(2)
            .all(|c| c[0].kind == DeltaKind::Insert && matches!(c[1].kind, DeltaKind::Remove(_))));
    }

    #[test]
    fn unwatched_buffer_only_proves_the_current_generation() {
        let mut b = Buffer::new(10_000);
        let g0 = b.generation();
        assert!(b.deltas_since(g0).unwrap().is_empty());
        b.insert(msg(1, 10, 0.0, 60)).unwrap();
        assert!(b.deltas_since(g0).is_none());
        assert!(b.deltas_since(b.generation()).unwrap().is_empty());
    }

    #[test]
    fn insert_count_and_seq_survive_removals_and_compaction() {
        let msgs: Vec<Message> = (0..10u64).map(|i| msg(i, 1, i as f64, 60)).collect();
        let (mut b, metas) = stored(u64::MAX, &msgs);
        assert_eq!(b.insert_count(), 10);
        for i in 0..8u64 {
            b.remove(MessageId(i), &metas).unwrap(); // crosses the compaction threshold
        }
        assert_eq!(b.insert_count(), 10, "removals leave the count alone");
        assert_eq!(b.rank_meta(MessageId(8), &metas).unwrap().seq, 8);
        assert_eq!(b.rank_meta(MessageId(9), &metas).unwrap().seq, 9);
        // Re-insertion gets a fresh, larger seq (reception order restarts at
        // the back).
        b.insert(msgs[3]).unwrap();
        assert_eq!(b.rank_meta(MessageId(3), &metas).unwrap().seq, 10);
        assert_eq!(b.insert_count(), 11);
        assert_eq!(b.rank_meta(MessageId(42), &metas), None);
    }

    #[test]
    fn fits_now_vs_could_fit() {
        let mut b = Buffer::new(100);
        b.insert(msg(1, 80, 0.0, 60)).unwrap();
        assert!(b.could_fit(100));
        assert!(!b.fits_now(30));
        assert!(b.fits_now(20));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vdtn_sim_core::{NodeId, SimDuration};

    /// One message per id `0..n`, each with its own size, creation time and
    /// TTL — the table a world would hold after creating them.
    fn messages(specs: &[(u64, u64, u64)]) -> Vec<Message> {
        specs
            .iter()
            .enumerate()
            .map(|(id, &(size, created_min, ttl_min))| {
                Message::new(
                    MessageId(id as u64),
                    NodeId((id % 5) as u32),
                    NodeId((id % 3) as u32 + 5),
                    size,
                    SimTime::ZERO + SimDuration::from_mins(created_min),
                    SimDuration::from_mins(ttl_min),
                )
            })
            .collect()
    }

    proptest! {
        /// Arbitrary insert/remove sequences keep byte accounting exact and
        /// order/store views consistent.
        #[test]
        fn accounting_under_random_ops(
            specs in proptest::collection::vec((1u64..500, 0u64..5, 10u64..20), 30..31),
            ops in proptest::collection::vec((0usize..30, any::<bool>()), 1..200),
        ) {
            let msgs = messages(&specs);
            let metas: Vec<MsgMeta> = msgs.iter().map(MsgMeta::of).collect();
            let mut b = Buffer::new(5_000);
            let mut expected_used = 0u64;
            for (id, remove) in ops {
                let m = msgs[id];
                if remove {
                    if let Some(m) = b.remove(m.id, &metas) {
                        expected_used -= m.size;
                    }
                } else if !b.contains(m.id) && b.fits_now(m.size) {
                    b.insert(m).unwrap();
                    expected_used += m.size;
                }
                prop_assert_eq!(b.used(), expected_used);
                prop_assert!(b.used() <= b.capacity());
                prop_assert_eq!(b.ids_in_order().count(), b.len());
                let sum: u64 = b.iter(&metas).map(|m| m.size).sum();
                prop_assert_eq!(sum, b.used());
            }
        }

        /// Insertion order is exactly the reception order of surviving ids.
        #[test]
        fn order_is_subsequence_of_insertions(ids in proptest::collection::vec(0u64..50, 1..60)) {
            let mut b = Buffer::new(u64::MAX);
            let mut inserted = Vec::new();
            for id in ids {
                if b.insert(Message::new(
                    MessageId(id),
                    NodeId(0),
                    NodeId(1),
                    1,
                    SimTime::ZERO,
                    SimDuration::from_mins(10),
                ))
                .is_ok()
                {
                    inserted.push(MessageId(id));
                }
            }
            prop_assert_eq!(b.ids_in_order().collect::<Vec<_>>(), inserted);
        }

        /// Heap-driven expiry drains exactly what a full scan would, in
        /// reception order, across random insert/remove/advance sequences.
        #[test]
        fn drain_matches_full_scan_reference(
            specs in proptest::collection::vec((1u64..2, 0u64..60, 1u64..30), 20..21),
            ops in proptest::collection::vec((0usize..20, 0u64..30, 0u64..3), 1..150),
        ) {
            let msgs = messages(&specs);
            let metas: Vec<MsgMeta> = msgs.iter().map(MsgMeta::of).collect();
            let mut b = Buffer::new(u64::MAX);
            let mut now = SimTime::ZERO;
            for (id, advance_min, action) in ops {
                match action {
                    0 => {
                        let _ = b.insert(msgs[id].relayed_copy(now));
                    }
                    1 => { b.remove(msgs[id].id, &metas); }
                    _ => {
                        now += SimDuration::from_mins(advance_min);
                        // Reference: what a full scan would drain, in
                        // reception order.
                        let expected: Vec<MessageId> = b
                            .iter(&metas)
                            .filter(|m| m.is_expired(now))
                            .map(|m| m.id)
                            .collect();
                        let drained: Vec<MessageId> =
                            b.drain_expired(now, &metas).iter().map(|m| m.id).collect();
                        prop_assert_eq!(drained, expected);
                        // Nothing expired may remain.
                        prop_assert!(b.iter(&metas).all(|m| !m.is_expired(now)));
                        if let Some(e) = b.next_expiry() {
                            prop_assert!(e > now);
                        }
                    }
                }
            }
        }

        /// The id-indexed buffer is observationally equal to a naive
        /// map-backed reference model (messages stored whole) under
        /// random insert/remove/expire/quota-edit sequences: same accept/
        /// reject verdicts, same reconstructed messages in the same
        /// reception order, same drain results, same generation arithmetic.
        #[test]
        fn matches_map_backed_reference_model(
            specs in proptest::collection::vec((1u64..400, 0u64..200, 1u64..40), 25..26),
            ops in proptest::collection::vec((0usize..25, 0u64..40, 0u64..5), 1..250),
        ) {
            const CAP: u64 = 4_000;
            let msgs = messages(&specs);
            let metas: Vec<MsgMeta> = msgs.iter().map(MsgMeta::of).collect();
            let mut b = Buffer::new(CAP);
            // Reference: messages in reception order plus byte accounting —
            // the observable state of the former HashMap<MessageId, Message>
            // + order-vector implementation.
            let mut model: Vec<Message> = Vec::new();
            let mut model_used = 0u64;
            let mut now = SimTime::ZERO;
            for (id, advance_min, action) in ops {
                let id = msgs[id].id;
                match action {
                    0 | 1 => {
                        let mut m = msgs[id.index()].relayed_copy(now);
                        m.hops = (advance_min % 4) as u32;
                        let verdict = b.insert(m);
                        let model_verdict = if model.iter().any(|x| x.id == m.id) {
                            Err(BufferError::Duplicate(m.id))
                        } else if m.size > CAP {
                            Err(BufferError::TooLarge { size: m.size, capacity: CAP })
                        } else if m.size > CAP - model_used {
                            Err(BufferError::NoSpace { missing: m.size - (CAP - model_used) })
                        } else {
                            model.push(m);
                            model_used += m.size;
                            Ok(())
                        };
                        prop_assert_eq!(verdict, model_verdict);
                    }
                    2 => {
                        let got = b.remove(id, &metas);
                        let want = model
                            .iter()
                            .position(|m| m.id == id)
                            .map(|i| model.remove(i));
                        if let Some(m) = &want {
                            model_used -= m.size;
                        }
                        prop_assert_eq!(got, want);
                    }
                    3 => {
                        now += SimDuration::from_mins(advance_min);
                        let drained = b.drain_expired(now, &metas);
                        let want: Vec<Message> =
                            model.iter().filter(|m| m.is_expired(now)).copied().collect();
                        model.retain(|m| !m.is_expired(now));
                        model_used = model.iter().map(|m| m.size).sum();
                        prop_assert_eq!(drained, want);
                    }
                    _ => {
                        let got = b.copies_mut(id).map(|c| {
                            *c += 1;
                            *c
                        });
                        let want = model.iter_mut().find(|m| m.id == id).map(|m| {
                            m.copies += 1;
                            m.copies
                        });
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(b.used(), model_used);
                prop_assert_eq!(b.len(), model.len());
                prop_assert_eq!(b.iter(&metas).collect::<Vec<_>>(), model.clone());
                for m in &model {
                    prop_assert_eq!(b.get(m.id, &metas), Some(*m));
                    let meta = b.rank_meta(m.id, &metas).unwrap();
                    prop_assert_eq!(meta.expiry, m.expiry());
                    prop_assert_eq!(meta.size, m.size);
                    prop_assert_eq!(meta.created, m.created);
                    prop_assert_eq!(meta.hops, m.hops);
                }
            }
        }
    }
}
