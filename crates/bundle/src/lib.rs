//! The DTN bundle layer: messages, buffers, and the paper's policies.
//!
//! This crate is the heart of the reproduction. The paper's contribution is
//! not a routing protocol but a pair of *buffer policies*:
//!
//! * a **scheduling policy** ([`SchedulingPolicy`]) decides the order in
//!   which stored messages are offered to a peer at a contact, and
//! * a **dropping policy** ([`DropPolicy`]) decides which stored message is
//!   evicted when an incoming message does not fit in the buffer.
//!
//! The paper's combinations (its Table I): `FIFO–FIFO`, `Random–FIFO`, and
//! `LifetimeDesc–LifetimeAsc`. Extensions beyond the paper (ascending
//! lifetime scheduling, size-based policies, random drop) are provided for
//! the ablation benches.
//!
//! [`SchedulingPolicy::order`] is the reference ordering. Routers do not
//! call it per round: the routing layer keeps each contact direction's
//! candidates in a delta-patched index ranked by the policy, and picks
//! `Random`'s message with one draw over the accepted candidates. The
//! buffer's delta log ([`Buffer::watch`], [`Buffer::deltas_since`]) is what
//! that index is patched from.
//!
//! # Example
//!
//! ```
//! use vdtn_bundle::{Buffer, Message, MessageId, MsgMeta, SchedulingPolicy};
//! use vdtn_sim_core::{NodeId, SimDuration, SimRng, SimTime};
//!
//! // The world's message table: one record per message, indexed by id.
//! let messages: Vec<Message> = [30, 90, 60]
//!     .into_iter()
//!     .enumerate()
//!     .map(|(id, ttl_mins)| {
//!         Message::new(
//!             MessageId(id as u64),
//!             NodeId(0),
//!             NodeId(1),
//!             100,
//!             SimTime::ZERO,
//!             SimDuration::from_mins(ttl_mins),
//!         )
//!     })
//!     .collect();
//! let metas: Vec<MsgMeta> = messages.iter().map(MsgMeta::of).collect();
//! let mut buffer = Buffer::new(1_000);
//! for m in messages {
//!     buffer.insert(m).unwrap();
//! }
//! // The paper's winning policy offers the longest remaining lifetime first.
//! let mut rng = SimRng::seed_from_u64(1);
//! let order = SchedulingPolicy::LifetimeDesc.order(&buffer, &metas, &mut rng);
//! assert_eq!(order, vec![MessageId(1), MessageId(2), MessageId(0)]);
//! ```

pub mod buffer;
pub mod message;
pub mod policy;
pub mod traffic;

pub use buffer::{Buffer, BufferDelta, BufferError, DeltaKind, RankMeta};
pub use message::{Message, MessageId, MsgMeta};
pub use policy::{DropPolicy, PolicyCombo, SchedulingPolicy};
pub use traffic::{TrafficGenerator, TrafficSpec};
