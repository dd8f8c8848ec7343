//! Simulation substrate for the VDTN reproduction suite.
//!
//! This crate contains the domain-independent pieces every other crate builds
//! on: simulation time ([`SimTime`], [`SimDuration`]), a deterministic event
//! queue ([`EventQueue`]), a self-contained deterministic random number
//! generator ([`rng::SimRng`], xoshiro256++ seeded via SplitMix64 so results
//! are bit-stable regardless of external crate versions), and online
//! statistics ([`stats`]).
//!
//! # Design notes
//!
//! * Everything is deterministic: the event queue breaks timestamp ties by
//!   insertion sequence, and RNG streams are derived per concern so that
//!   adding a consumer never perturbs another stream.
//! * No heap allocation in the hot paths beyond the queue itself; statistics
//!   are online (Welford) so 12-hour simulations never buffer samples.
//!
//! # Example
//!
//! ```
//! use vdtn_sim_core::{EventQueue, SimRng, SimTime};
//!
//! // Deterministic RNG lanes: the same seed yields the same stream, and
//! // derived lanes never perturb each other.
//! let root = SimRng::seed_from_u64(42);
//! let mut a = root.derive("traffic", 0);
//! let mut b = root.derive("traffic", 0);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // The event queue pops in time order, breaking ties by insertion.
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs_f64(2.0), "second");
//! queue.schedule(SimTime::from_secs_f64(1.0), "first");
//! let (t, what) = queue.pop().unwrap();
//! assert_eq!((t.as_secs_f64(), what), (1.0, "first"));
//! ```

pub mod events;
pub mod ids;
pub mod rng;
pub mod statehash;
pub mod stats;
pub mod time;

pub use events::{EngineEvent, EventQueue};
pub use ids::NodeId;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
