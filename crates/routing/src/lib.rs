//! DTN routing protocols.
//!
//! Implements the four protocols the paper evaluates plus two classic
//! baselines and one extension, all behind the object-safe [`Router`] trait
//! driven by the engine in the `vdtn` crate. [`RouterKind`] selects one:
//!
//! | [`RouterKind`] | Router | Replication | Scheduling / dropping |
//! |---|---|---|---|
//! | `Epidemic` | [`PolicyRouter`] | unlimited flooding | pluggable [`PolicyCombo`] (the paper's experiment) |
//! | `SprayAndWait` | [`PolicyRouter`] | quota `L` (binary halving or source spray) | pluggable [`PolicyCombo`] |
//! | `DirectDelivery` | [`PolicyRouter`] | none | pluggable |
//! | `FirstContact` | [`PolicyRouter`] | single moving copy | pluggable |
//! | `SprayAndFocus` | [`PolicyRouter`] | binary spray, then utility-based handoff | pluggable |
//! | `Prophet` | [`ProphetRouter`] | probabilistic (GRTRMax) | own: forward by peer delivery predictability, drop FIFO |
//! | `MaxProp` | [`MaxPropRouter`] | flooding + acks | own: hop-count head start, then path cost; drop by cost |
//!
//! The trait's flows are data-oriented: every mutation reports what was
//! evicted / delivered / rejected back to the engine, which owns all metric
//! accounting.
//!
//! # Example
//!
//! ```
//! use vdtn_bundle::{Message, MessageId, MsgMeta, PolicyCombo};
//! use vdtn_routing::{NodeState, RouterKind};
//! use vdtn_sim_core::{NodeId, SimDuration, SimRng, SimTime};
//!
//! // An Epidemic router for node 0 in a 10-node world.
//! let mut router = RouterKind::Epidemic.build(NodeId(0), 10, PolicyCombo::FIFO_FIFO);
//! let mut state = NodeState::new(NodeId(0), 1_000_000, false);
//! let mut rng = SimRng::seed_from_u64(1);
//! let msg = Message::new(
//!     MessageId(0),
//!     NodeId(0),
//!     NodeId(3),
//!     500_000,
//!     SimTime::ZERO,
//!     SimDuration::from_mins(60),
//! );
//! // The world's message table: message 0's record at index 0.
//! let metas = [MsgMeta::of(&msg)];
//! let outcome = router.on_message_created(&mut state, &metas, msg, SimTime::ZERO, &mut rng);
//! assert!(outcome.stored);
//! assert_eq!(state.buffer.len(), 1);
//! ```

pub mod candidates;
pub mod maxprop;
pub mod offers;
pub mod policy;
pub mod prophet;
pub mod router;
pub mod state;
pub(crate) mod util;

pub use candidates::{CandidateIndex, Verdict};
pub use maxprop::{AckSet, MaxPropConfig, MaxPropRouter};
pub use offers::{ContactOffers, OfferView};
pub use policy::PolicyRouter;
pub use prophet::{ProphetConfig, ProphetRouter};
pub use router::{
    CreateOutcome, Digest, ReceiveOutcome, RejectReason, Router, RouterKind, RouterSnapshot,
};
pub use state::NodeState;

// Re-export for downstream convenience: routing configs embed policies.
pub use vdtn_bundle::PolicyCombo;
