//! Interned message metadata — one record per *logical* message.
//!
//! Under flooding protocols a single logical message is replicated into
//! hundreds of node buffers, and before this arena existed every replica
//! stored the full [`Message`] struct. The immutable identity of a message
//! (`src`, `dst`, `size`, `created`, `ttl`) is the bulk of that struct and
//! is the same in every replica, so a world now interns it **once** in a
//! shared [`MessageArena`] and buffers keep only a dense [`MsgHandle`]
//! (u32) plus the genuinely per-copy fields (hop count, spray quota,
//! reception time).
//!
//! # Concurrency contract
//!
//! The arena is shared as `Arc<MessageArena>` across every buffer of a
//! world. Interning happens only in the engine's traffic and transfer
//! phases, and takes a mutex; **resolution is lock-free**: metadata lives
//! in a fixed directory of power-of-two-sized chunks whose slots are
//! write-once [`OnceLock`]s, published before the handle is handed out.
//! Chunks are never reallocated, so a published handle stays valid (and
//! its record immutable) for the arena's lifetime.
//!
//! # Handle lifetimes
//!
//! Message ids are never reused by the traffic generator, so an id maps to
//! one handle for a whole simulation. The buffer unit tests *do* reuse ids
//! with changed metadata (a "fresh copy" of a dead message); interning the
//! same id with different metadata allocates a fresh handle and repoints
//! the id, while interning identical metadata returns the existing handle.
//! Handles are never freed — the arena is an append-only log whose size is
//! bounded by the number of logical messages ever created, not by replica
//! count.

use crate::message::{Message, MessageId};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use vdtn_sim_core::{NodeId, SimDuration, SimTime};

/// Dense index of an interned logical message within its [`MessageArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgHandle(pub u32);

/// The immutable metadata of a logical message, shared by all replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Logical message identity.
    pub id: MessageId,
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Size in bytes.
    pub size: u64,
    /// Creation timestamp at the source.
    pub created: SimTime,
    /// Time-to-live measured from `created`.
    pub ttl: SimDuration,
}

impl MsgMeta {
    /// The immutable slice of a message copy.
    pub fn of(msg: &Message) -> Self {
        MsgMeta {
            id: msg.id,
            src: msg.src,
            dst: msg.dst,
            size: msg.size,
            created: msg.created,
            ttl: msg.ttl,
        }
    }

    /// Absolute expiry instant (`created + ttl`, saturating).
    pub fn expiry(&self) -> SimTime {
        self.created.saturating_add(self.ttl)
    }
}

/// Size of the first chunk; each subsequent chunk doubles. Must be a power
/// of two so handle→(chunk, slot) resolution is pure bit arithmetic.
const CHUNK0: usize = 1024;
/// Directory size: `CHUNK0 * (2^CHUNKS - 1)` slots covers the full u32
/// handle space.
const CHUNKS: usize = 23;

type Chunk = Box<[OnceLock<MsgMeta>]>;

/// Handle → (chunk, slot-within-chunk).
fn locate(handle: u32) -> (usize, usize) {
    let k = handle as usize / CHUNK0 + 1;
    let chunk = k.ilog2() as usize;
    let slot = handle as usize - CHUNK0 * ((1usize << chunk) - 1);
    (chunk, slot)
}

/// Intern-side state, only touched while holding the mutex.
#[derive(Debug, Default)]
struct InternState {
    /// Latest handle per message id.
    by_id: HashMap<MessageId, MsgHandle>,
    /// Next free handle.
    len: u32,
}

/// Append-only interner for logical-message metadata (see module docs).
#[derive(Debug)]
pub struct MessageArena {
    /// Fixed directory of lazily allocated chunks; slots are write-once.
    chunks: [OnceLock<Chunk>; CHUNKS],
    intern: Mutex<InternState>,
}

impl Default for MessageArena {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        MessageArena {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            intern: Mutex::new(InternState::default()),
        }
    }

    /// Intern a message copy's immutable metadata, returning its handle.
    ///
    /// Idempotent per (id, metadata) pair: re-interning an id with equal
    /// metadata returns the existing handle; changed metadata (an id reused
    /// for a genuinely new message) allocates a fresh handle and repoints
    /// the id to it. Takes the intern mutex.
    pub fn intern(&self, msg: &Message) -> MsgHandle {
        let meta = MsgMeta::of(msg);
        let mut state = self.intern.lock().expect("arena intern lock");
        if let Some(&h) = state.by_id.get(&msg.id) {
            if self.resolve(h) == meta {
                return h;
            }
        }
        // `u32::MAX` is never handed out: buffers use it as their in-place
        // tombstone sentinel.
        assert!(state.len < u32::MAX, "message arena exhausted");
        let h = MsgHandle(state.len);
        state.len += 1;
        let (chunk, slot) = locate(h.0);
        let chunk = self.chunks[chunk].get_or_init(|| {
            (0..(CHUNK0 << chunk))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[slot].set(meta).expect("fresh handle slot is empty");
        state.by_id.insert(msg.id, h);
        h
    }

    /// Resolve a handle to its metadata. Lock-free; callable concurrently
    /// with interning from other threads.
    ///
    /// Panics on a handle that was never returned by [`MessageArena::intern`]
    /// on this arena.
    pub fn resolve(&self, handle: MsgHandle) -> MsgMeta {
        let (chunk, slot) = locate(handle.0);
        *self.chunks[chunk]
            .get()
            .expect("handle's chunk is allocated")[slot]
            .get()
            .expect("handle was interned")
    }

    /// Current handle for a message id, if any copy was ever interned.
    pub fn lookup(&self, id: MessageId) -> Option<MsgHandle> {
        self.intern
            .lock()
            .expect("arena intern lock")
            .by_id
            .get(&id)
            .copied()
    }

    /// Number of interned records (distinct handles, not distinct ids).
    pub fn len(&self) -> usize {
        self.intern.lock().expect("arena intern lock").len as usize
    }

    /// True when nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64, size: u64, created_s: f64) -> Message {
        Message::new(
            MessageId(id),
            NodeId(3),
            NodeId(7),
            size,
            SimTime::from_secs_f64(created_s),
            SimDuration::from_mins(60),
        )
    }

    #[test]
    fn intern_resolve_round_trip() {
        let arena = MessageArena::new();
        let m = msg(1, 500, 10.0);
        let h = arena.intern(&m);
        assert_eq!(arena.resolve(h), MsgMeta::of(&m));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.lookup(MessageId(1)), Some(h));
        assert_eq!(arena.lookup(MessageId(2)), None);
    }

    #[test]
    fn equal_meta_reuses_handle_changed_meta_allocates() {
        let arena = MessageArena::new();
        let m = msg(1, 500, 10.0);
        let h1 = arena.intern(&m);
        // A relayed copy differs only in per-copy fields — same record.
        let relayed = m.relayed_copy(SimTime::from_secs_f64(20.0));
        assert_eq!(arena.intern(&relayed), h1);
        // A fresh message reusing the id gets a new record.
        let fresh = msg(1, 500, 99.0);
        let h2 = arena.intern(&fresh);
        assert_ne!(h1, h2);
        assert_eq!(arena.lookup(MessageId(1)), Some(h2));
        // The old record stays resolvable for holders of the old handle.
        assert_eq!(arena.resolve(h1), MsgMeta::of(&m));
        assert_eq!(arena.resolve(h2), MsgMeta::of(&fresh));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn handles_are_dense_and_stable_across_chunk_growth() {
        let arena = MessageArena::new();
        // Cross the first two chunk boundaries (1024, 3072).
        let n = 4000u64;
        let handles: Vec<MsgHandle> = (0..n).map(|i| arena.intern(&msg(i, i + 1, 0.0))).collect();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.0 as usize, i, "handles allocate densely");
            assert_eq!(arena.resolve(*h).size, i as u64 + 1);
        }
        assert_eq!(arena.len(), n as usize);
    }

    #[test]
    fn locate_maps_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(u32::MAX), {
            let (c, s) = locate(u32::MAX);
            assert!(c < CHUNKS && s < CHUNK0 << c);
            (c, s)
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every interned record resolves back exactly, handles stay dense,
        /// and the id map always points at the latest record for an id.
        #[test]
        fn intern_resolve_round_trips(
            entries in proptest::collection::vec((0u64..40, 1u64..10_000, 0u64..1000), 1..300)
        ) {
            let arena = MessageArena::new();
            let mut expected: Vec<MsgMeta> = Vec::new();
            let mut latest: HashMap<MessageId, MsgHandle> = HashMap::new();
            for (id, size, created_ms) in entries {
                let m = Message::new(
                    MessageId(id),
                    NodeId((id % 7) as u32),
                    NodeId((id % 11) as u32),
                    size,
                    SimTime::from_millis(created_ms),
                    SimDuration::from_mins(30),
                );
                let h = arena.intern(&m);
                if h.0 as usize == expected.len() {
                    expected.push(MsgMeta::of(&m)); // fresh record
                } else {
                    prop_assert_eq!(expected[h.0 as usize], MsgMeta::of(&m), "reused handle");
                }
                latest.insert(m.id, h);
                prop_assert_eq!(arena.lookup(m.id), Some(h));
            }
            prop_assert_eq!(arena.len(), expected.len());
            for (i, meta) in expected.iter().enumerate() {
                prop_assert_eq!(arena.resolve(MsgHandle(i as u32)), *meta);
            }
            for (id, h) in latest {
                prop_assert_eq!(arena.lookup(id), Some(h));
            }
        }
    }
}
