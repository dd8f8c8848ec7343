//! Byte-capacity message buffers.
//!
//! A [`Buffer`] stores message copies up to a byte capacity, preserving
//! insertion (reception) order — the order FIFO policies rely on — while
//! providing O(log n) id lookups through a sorted index. Iteration always
//! follows insertion order so every traversal is deterministic.
//!
//! Since the arena refactor a buffer does **not** store full [`Message`]
//! structs. The immutable metadata of each logical message lives once per
//! world in a shared [`MessageArena`]; the buffer keeps a single flat
//! reception-ordered `Vec` of `CopyEntry` records — the arena handle plus
//! the genuinely per-copy fields (hop count, spray quota, reception time,
//! insertion sequence) — and reconstructs `Message` values on demand.
//! Accessors therefore return messages **by value** (`Message` is `Copy`).
//!
//! Internally four structures cooperate:
//!
//! * `copies` — reception order (front = oldest) and per-copy state in one
//!   contiguous vector. Removal tombstones the entry in O(1) (sentinel
//!   handle) and compacts once tombstones outnumber live entries, so
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

use crate::arena::{MessageArena, MsgHandle};
use crate::message::{Message, MessageId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
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
    /// The id `u64::MAX` is reserved as a sentinel and can never be stored
    /// (the traffic generator allocates ids sequentially from zero and
    /// never reaches it).
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
            BufferError::ReservedId => write!(f, "message id u64::MAX is reserved"),
        }
    }
}

impl std::error::Error for BufferError {}

/// Reserved message id, kept un-storable for API stability (it was the
/// in-place tombstone before the copy vector switched to handle sentinels).
const RESERVED_ID: MessageId = MessageId(u64::MAX);

/// In-place marker for removed `copies` entries. `u32::MAX` can never be a
/// real handle: [`MessageArena::intern`] refuses to allocate it.
const TOMBSTONE: MsgHandle = MsgHandle(u32::MAX);

/// One entry of the lazy expiry min-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExpiryEntry {
    at: SimTime,
    id: MessageId,
}

/// One stored copy: the arena handle of its logical message plus every
/// per-copy field. 24 bytes, stored inline in the reception-order vector —
/// the whole buffer scan is one contiguous walk. The message id is *not*
/// duplicated here: the interned [`crate::MsgMeta`] record carries it, so
/// identity costs one lock-free arena resolve instead of 8 bytes per copy.
#[derive(Debug, Clone, Copy)]
struct CopyEntry {
    /// Interned immutable metadata (id, src, dst, size, created, ttl), or
    /// `TOMBSTONE` when the slot was removed.
    handle: MsgHandle,
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
    /// Immutable logical-message metadata, shared across the world's
    /// buffers (or private to this buffer when built via [`Buffer::new`]).
    arena: Arc<MessageArena>,
    /// Reception order (front = oldest) and per-copy state, possibly
    /// holding tombstoned entries. Removal overwrites the entry's handle
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
    /// whose id is gone, or whose stored copy has a different expiry (id
    /// re-inserted), are discarded when they surface.
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
    /// Create a buffer with the given byte capacity and a private metadata
    /// arena. World buffers share one arena instead — see
    /// [`Buffer::with_arena`].
    pub fn new(capacity: u64) -> Self {
        Self::with_arena(capacity, Arc::new(MessageArena::new()))
    }

    /// Create a buffer backed by a shared metadata arena.
    pub fn with_arena(capacity: u64, arena: Arc<MessageArena>) -> Self {
        Buffer {
            capacity,
            used: 0,
            arena,
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

    /// The metadata arena backing this buffer.
    pub fn arena(&self) -> &Arc<MessageArena> {
        &self.arena
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

    /// The scheduling-rank snapshot of a stored message (see [`RankMeta`]).
    pub fn rank_meta(&self, id: MessageId) -> Option<RankMeta> {
        let pos = self.slot_of(id)?;
        Some(self.rank_meta_at(pos as usize))
    }

    /// The arena handle of a stored message's interned metadata. Lets
    /// rank-keyed consumers (the routing candidate index) store 4-byte
    /// handles instead of 8-byte ids and resolve lock-free.
    pub fn handle_of(&self, id: MessageId) -> Option<MsgHandle> {
        let pos = self.slot_of(id)?;
        Some(self.copies[pos as usize].handle)
    }

    /// Every stored copy as `(id, arena handle, rank snapshot)`, in
    /// reception order — one contiguous pass for consumers that rebuild a
    /// rank-keyed view of the whole buffer.
    pub fn rank_entries(&self) -> impl Iterator<Item = (MessageId, MsgHandle, RankMeta)> + '_ {
        self.copies
            .iter()
            .filter(|e| e.handle != TOMBSTONE)
            .map(move |e| {
                let meta = self.arena.resolve(e.handle);
                (
                    meta.id,
                    e.handle,
                    RankMeta {
                        expiry: meta.expiry(),
                        size: meta.size,
                        created: meta.created,
                        hops: e.hops,
                        seq: e.seq,
                    },
                )
            })
    }

    fn rank_meta_at(&self, pos: usize) -> RankMeta {
        let e = &self.copies[pos];
        let meta = self.arena.resolve(e.handle);
        RankMeta {
            expiry: meta.expiry(),
            size: meta.size,
            created: meta.created,
            hops: e.hops,
            seq: e.seq,
        }
    }

    /// Reconstruct the full message copy stored at `pos`.
    fn reify(&self, e: &CopyEntry) -> Message {
        let meta = self.arena.resolve(e.handle);
        Message {
            id: meta.id,
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

    /// A stored copy, reconstructed by value from the arena record and the
    /// per-copy fields (`Message` is `Copy`; there is no stored struct to
    /// borrow).
    pub fn get(&self, id: MessageId) -> Option<Message> {
        let pos = self.slot_of(id)?;
        Some(self.reify(&self.copies[pos as usize]))
    }

    /// Mutable access to a stored copy's remaining-copies quota (the only
    /// per-copy field protocols mutate in place — Spray-and-Wait halving).
    pub fn copies_mut(&mut self, id: MessageId) -> Option<&mut u32> {
        let pos = self.slot_of(id)?;
        Some(&mut self.copies[pos as usize].copies)
    }

    /// Insert a message copy. Fails without modifying the buffer if the
    /// message cannot fit or is already present.
    pub fn insert(&mut self, msg: Message) -> Result<(), BufferError> {
        if msg.id == RESERVED_ID {
            return Err(BufferError::ReservedId);
        }
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
        let handle = self.arena.intern(&msg);
        self.used += msg.size;
        self.generation += 1;
        debug_assert!(self.inserts <= u32::MAX as u64, "insert seq wrapped");
        let seq = self.inserts as u32;
        self.inserts += 1;
        self.ids.insert(at, msg.id);
        self.slots.insert(at, self.copies.len() as u32);
        self.copies.push(CopyEntry {
            handle,
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

    /// Remove and return a copy. Amortised O(1): the `copies` entry is
    /// overwritten with the `TOMBSTONE` sentinel and reclaimed by a later
    /// compaction; the expiry-heap entry is discarded lazily.
    pub fn remove(&mut self, id: MessageId) -> Option<Message> {
        self.remove_with(id, false)
    }

    fn remove_with(&mut self, id: MessageId, expired: bool) -> Option<Message> {
        let i = self.ids.binary_search(&id).ok()?;
        self.ids.remove(i);
        let pos = self.slots.remove(i) as usize;
        let msg = self.reify(&self.copies[pos]);
        let meta = self.rank_meta_at(pos);
        self.used -= msg.size;
        self.generation += 1;
        self.copies[pos].handle = TOMBSTONE;
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
            if e.handle != TOMBSTONE {
                self.copies[w] = e;
                let id = self.arena.resolve(e.handle).id;
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
    /// walk — tombstones are in-place sentinels — plus one lock-free arena
    /// resolve per live entry for the id.
    pub fn ids_in_order(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.copies
            .iter()
            .filter(|e| e.handle != TOMBSTONE)
            .map(|e| self.arena.resolve(e.handle).id)
    }

    /// Iterate stored messages in reception order, reconstructed by value.
    pub fn iter(&self) -> impl Iterator<Item = Message> + '_ {
        self.copies
            .iter()
            .filter(|e| e.handle != TOMBSTONE)
            .map(move |e| self.reify(e))
    }

    /// Absolute expiry of the copy at `pos` (arena lookup).
    fn expiry_at(&self, pos: usize) -> SimTime {
        self.arena.resolve(self.copies[pos].handle).expiry()
    }

    /// Earliest expiry time among stored messages, or `None` when empty.
    ///
    /// O(1) amortised (lazily discards heap entries for removed copies).
    /// The engine schedules its per-node TTL events from this value: no
    /// stored message can expire before it.
    pub fn next_expiry(&mut self) -> Option<SimTime> {
        while let Some(&top) = self.expiry.first() {
            match self.slot_of(top.id) {
                Some(pos) if self.expiry_at(pos as usize) == top.at => return Some(top.at),
                _ => {
                    self.heap_pop();
                }
            }
        }
        None
    }

    /// Remove every expired message, returning them in reception order (for
    /// stats recording). Driven by the expiry heap: O(1) when nothing is
    /// due, O(expired · log n) otherwise — never a full-buffer scan.
    pub fn drain_expired(&mut self, now: SimTime) -> Vec<Message> {
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
                if self.expiry_at(pos as usize) == top.at {
                    due.push((pos, top.id));
                }
            }
        }
        due.sort_unstable();
        due.dedup_by_key(|e| e.1);
        due.into_iter()
            .map(|(_, id)| self.remove_with(id, true).expect("live id collected above"))
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

#[cfg(test)]
mod tests {
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
        let mut b = Buffer::new(1000);
        let mut m = msg(1, 400, 5.0, 60);
        m.hops = 3;
        m.copies = 8;
        m.received = SimTime::from_secs_f64(9.0);
        b.insert(m).unwrap();
        assert_eq!(b.get(MessageId(1)), Some(m));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![m]);
        assert_eq!(b.get(MessageId(2)), None);
    }

    #[test]
    fn shared_arena_interns_once_across_buffers() {
        let arena = Arc::new(MessageArena::new());
        let mut b1 = Buffer::with_arena(1000, arena.clone());
        let mut b2 = Buffer::with_arena(1000, arena.clone());
        let m = msg(1, 100, 0.0, 60);
        b1.insert(m).unwrap();
        b2.insert(m.relayed_copy(SimTime::from_secs_f64(5.0)))
            .unwrap();
        assert_eq!(arena.len(), 1, "replicas share one metadata record");
        assert_eq!(b1.get(MessageId(1)).unwrap().hops, 0);
        assert_eq!(b2.get(MessageId(1)).unwrap().hops, 1);
    }

    #[test]
    fn copies_mut_updates_quota_without_generation_bump() {
        let mut b = Buffer::new(1000);
        let mut m = msg(1, 100, 0.0, 60);
        m.copies = 8;
        b.insert(m).unwrap();
        let gen = b.generation();
        *b.copies_mut(MessageId(1)).unwrap() = 4;
        assert_eq!(b.get(MessageId(1)).unwrap().copies, 4);
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
            b.insert(msg(1, 100, 5.0, 60)),
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
        let mut b = Buffer::new(1000);
        b.insert(msg(1, 300, 0.0, 60)).unwrap();
        b.insert(msg(2, 300, 1.0, 60)).unwrap();
        b.insert(msg(3, 300, 2.0, 60)).unwrap();
        let removed = b.remove(MessageId(2)).unwrap();
        assert_eq!(removed.size, 300);
        assert_eq!(b.used(), 600);
        assert_eq!(order_ids(&b), vec![MessageId(1), MessageId(3)]);
        assert!(b.remove(MessageId(2)).is_none());
    }

    #[test]
    fn iteration_follows_reception_order() {
        let mut b = Buffer::new(10_000);
        for i in 0..10 {
            b.insert(msg(i, 10, i as f64, 60)).unwrap();
        }
        let ids: Vec<u64> = b.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_expired_removes_only_expired() {
        let mut b = Buffer::new(10_000);
        b.insert(msg(1, 10, 0.0, 1)).unwrap(); // expires at 60 s
        b.insert(msg(2, 10, 0.0, 60)).unwrap(); // expires at 3600 s
        b.insert(msg(3, 10, 30.0, 1)).unwrap(); // expires at 90 s
        let dead = b.drain_expired(SimTime::from_secs_f64(61.0));
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].id, MessageId(1));
        assert_eq!(b.len(), 2);
        let dead = b.drain_expired(SimTime::from_secs_f64(10_000.0));
        assert_eq!(dead.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn drain_expired_returns_reception_order() {
        let mut b = Buffer::new(10_000);
        // Reception order 5, 4, 3 — all expiring together.
        for id in [5u64, 4, 3] {
            b.insert(msg(id, 10, 0.0, 1)).unwrap();
        }
        let dead = b.drain_expired(SimTime::from_secs_f64(60.0));
        let ids: Vec<u64> = dead.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![5, 4, 3]);
    }

    #[test]
    fn next_expiry_tracks_minimum() {
        let mut b = Buffer::new(10_000);
        assert_eq!(b.next_expiry(), None);
        b.insert(msg(1, 10, 0.0, 60)).unwrap(); // 3600 s
        b.insert(msg(2, 10, 0.0, 1)).unwrap(); // 60 s
        assert_eq!(b.next_expiry(), Some(SimTime::from_secs_f64(60.0)));
        // Removing the earliest rolls the minimum forward (lazily).
        b.remove(MessageId(2)).unwrap();
        assert_eq!(b.next_expiry(), Some(SimTime::from_secs_f64(3600.0)));
        b.remove(MessageId(1)).unwrap();
        assert_eq!(b.next_expiry(), None);
    }

    #[test]
    fn reinserted_id_with_new_expiry_is_tracked_exactly() {
        let mut b = Buffer::new(10_000);
        b.insert(msg(7, 10, 0.0, 1)).unwrap(); // would expire at 60 s
        b.remove(MessageId(7)).unwrap();
        // Same id re-received later with a later expiry (fresh copy).
        b.insert(msg(7, 10, 100.0, 1)).unwrap(); // expires at 160 s
        assert_eq!(b.next_expiry(), Some(SimTime::from_secs_f64(160.0)));
        assert!(b.drain_expired(SimTime::from_secs_f64(60.0)).is_empty());
        let dead = b.drain_expired(SimTime::from_secs_f64(160.0));
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn eviction_storm_keeps_views_consistent() {
        // Tombstone + compaction stress: interleave inserts and removals far
        // past the compaction threshold and re-check every view.
        let mut b = Buffer::new(u64::MAX);
        for i in 0..100u64 {
            b.insert(msg(i, 1, i as f64, 60)).unwrap();
        }
        // Evict from the head, like a FIFO drop policy under pressure.
        for i in 0..90u64 {
            assert_eq!(b.head(), Some(MessageId(i)));
            b.remove(MessageId(i)).unwrap();
        }
        assert_eq!(b.len(), 10);
        assert_eq!(order_ids(&b), (90..100).map(MessageId).collect::<Vec<_>>());
        // Insert after heavy removal: order still appends at the back.
        b.insert(msg(200, 1, 200.0, 60)).unwrap();
        assert_eq!(order_ids(&b).last(), Some(&MessageId(200)));
        assert_eq!(b.used(), 11);
    }

    #[test]
    fn reserved_tombstone_id_rejected() {
        let mut b = Buffer::new(1000);
        assert_eq!(
            b.insert(msg(u64::MAX, 10, 0.0, 60)),
            Err(BufferError::ReservedId)
        );
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
        b.insert(msg(1, 10, 0.0, 60)).unwrap(); // before watch: unlogged
        b.watch();
        let base = b.generation();
        assert!(b.deltas_since(base).unwrap().is_empty());

        b.insert(msg(2, 10, 1.0, 60)).unwrap();
        b.remove(MessageId(1)).unwrap();
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
        b.insert(msg(1, 10, 0.0, 1)).unwrap();
        let gen = b.generation();
        let dead = b.drain_expired(SimTime::from_secs_f64(61.0));
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
        // Far more churn than the retained window holds.
        for i in 0..2_000u64 {
            b.insert(msg(i, 1, 0.0, 60)).unwrap();
            b.remove(MessageId(i)).unwrap();
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
        let mut b = Buffer::new(u64::MAX);
        for i in 0..10u64 {
            b.insert(msg(i, 1, i as f64, 60)).unwrap();
        }
        assert_eq!(b.insert_count(), 10);
        for i in 0..8u64 {
            b.remove(MessageId(i)).unwrap(); // crosses the compaction threshold
        }
        assert_eq!(b.insert_count(), 10, "removals leave the count alone");
        assert_eq!(b.rank_meta(MessageId(8)).unwrap().seq, 8);
        assert_eq!(b.rank_meta(MessageId(9)).unwrap().seq, 9);
        // Re-insertion gets a fresh, larger seq (reception order restarts at
        // the back).
        b.insert(msg(3, 1, 99.0, 60)).unwrap();
        assert_eq!(b.rank_meta(MessageId(3)).unwrap().seq, 10);
        assert_eq!(b.insert_count(), 11);
        assert_eq!(b.rank_meta(MessageId(42)), None);
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

    proptest! {
        /// Arbitrary insert/remove sequences keep byte accounting exact and
        /// order/store views consistent.
        #[test]
        fn accounting_under_random_ops(ops in proptest::collection::vec((0u64..30, 1u64..500, any::<bool>()), 1..200)) {
            let mut b = Buffer::new(5_000);
            let mut expected_used = 0u64;
            for (id, size, remove) in ops {
                if remove {
                    if let Some(m) = b.remove(MessageId(id)) {
                        expected_used -= m.size;
                    }
                } else if !b.contains(MessageId(id)) && b.fits_now(size) {
                    b.insert(Message::new(
                        MessageId(id),
                        NodeId(0),
                        NodeId(1),
                        size,
                        SimTime::ZERO,
                        SimDuration::from_mins(10),
                    ))
                    .unwrap();
                    expected_used += size;
                }
                prop_assert_eq!(b.used(), expected_used);
                prop_assert!(b.used() <= b.capacity());
                prop_assert_eq!(b.ids_in_order().count(), b.len());
                let sum: u64 = b.iter().map(|m| m.size).sum();
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
            ops in proptest::collection::vec((0u64..20, 1u64..30, 0u64..3), 1..150)
        ) {
            let mut b = Buffer::new(u64::MAX);
            let mut now = SimTime::ZERO;
            for (id, ttl_min, action) in ops {
                match action {
                    0 => {
                        let _ = b.insert(Message::new(
                            MessageId(id),
                            NodeId(0),
                            NodeId(1),
                            1,
                            now,
                            SimDuration::from_mins(ttl_min),
                        ));
                    }
                    1 => { b.remove(MessageId(id)); }
                    _ => {
                        now += SimDuration::from_mins(ttl_min);
                        // Reference: what a full scan would drain, in
                        // reception order.
                        let expected: Vec<MessageId> = b
                            .iter()
                            .filter(|m| m.is_expired(now))
                            .map(|m| m.id)
                            .collect();
                        let drained: Vec<MessageId> =
                            b.drain_expired(now).iter().map(|m| m.id).collect();
                        prop_assert_eq!(drained, expected);
                        // Nothing expired may remain.
                        prop_assert!(b.iter().all(|m| !m.is_expired(now)));
                        if let Some(e) = b.next_expiry() {
                            prop_assert!(e > now);
                        }
                    }
                }
            }
        }

        /// The handle-indexed buffer is observationally equal to a naive
        /// map-backed reference model (the pre-arena implementation) under
        /// random insert/remove/expire/quota-edit sequences: same accept/
        /// reject verdicts, same reconstructed messages in the same
        /// reception order, same drain results, same generation arithmetic.
        #[test]
        fn matches_map_backed_reference_model(
            ops in proptest::collection::vec((0u64..25, 1u64..400, 1u64..40, 0u64..5), 1..250)
        ) {
            const CAP: u64 = 4_000;
            let mut b = Buffer::new(CAP);
            // Reference: messages in reception order plus byte accounting —
            // the observable state of the former HashMap<MessageId, Message>
            // + order-vector implementation.
            let mut model: Vec<Message> = Vec::new();
            let mut model_used = 0u64;
            let mut now = SimTime::ZERO;
            for (id, size, ttl_min, action) in ops {
                match action {
                    0 | 1 => {
                        let m = Message::new(
                            MessageId(id),
                            NodeId((id % 5) as u32),
                            NodeId((id % 3) as u32 + 5),
                            size,
                            now,
                            SimDuration::from_mins(ttl_min),
                        );
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
                        let got = b.remove(MessageId(id));
                        let want = model
                            .iter()
                            .position(|m| m.id == MessageId(id))
                            .map(|i| model.remove(i));
                        if let Some(m) = &want {
                            model_used -= m.size;
                        }
                        prop_assert_eq!(got, want);
                    }
                    3 => {
                        now += SimDuration::from_mins(ttl_min);
                        let drained = b.drain_expired(now);
                        let want: Vec<Message> =
                            model.iter().filter(|m| m.is_expired(now)).copied().collect();
                        model.retain(|m| !m.is_expired(now));
                        model_used = model.iter().map(|m| m.size).sum();
                        prop_assert_eq!(drained, want);
                    }
                    _ => {
                        let got = b.copies_mut(MessageId(id)).map(|c| {
                            *c += 1;
                            *c
                        });
                        let want = model.iter_mut().find(|m| m.id == MessageId(id)).map(|m| {
                            m.copies += 1;
                            m.copies
                        });
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(b.used(), model_used);
                prop_assert_eq!(b.len(), model.len());
                prop_assert_eq!(b.iter().collect::<Vec<_>>(), model.clone());
                for m in &model {
                    prop_assert_eq!(b.get(m.id), Some(*m));
                    let meta = b.rank_meta(m.id).unwrap();
                    prop_assert_eq!(meta.expiry, m.expiry());
                    prop_assert_eq!(meta.size, m.size);
                    prop_assert_eq!(meta.created, m.created);
                    prop_assert_eq!(meta.hops, m.hops);
                }
            }
        }
    }
}
