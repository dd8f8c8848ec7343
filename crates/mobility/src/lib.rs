//! Node movement models.
//!
//! The paper's vehicles use what the ONE simulator calls
//! `ShortestPathMapBasedMovement`: a vehicle drives to a randomly chosen map
//! location along the shortest road path at a per-trip random speed
//! (U\[30, 50\] km/h in the scenario), then pauses for a random wait
//! (U\[5, 15\] min) before picking the next destination. Relay nodes are
//! stationary. This crate implements exactly those two behind the
//! [`MovementModel`] trait, whose closed-form motion segments let the
//! event-driven engine advance a node only when its segment expires (see
//! [`model`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vdtn_geo::GridMapGen;
//! use vdtn_mobility::{MovementModel, ShortestPathMapBased, SpmbConfig};
//! use vdtn_sim_core::{SimDuration, SimRng, SimTime};
//!
//! let map = Arc::new(GridMapGen { cols: 4, rows: 4, spacing: 100.0 }.generate());
//! let bounds = map.bounds();
//! let mut vehicle =
//!     ShortestPathMapBased::new(map, SpmbConfig::default(), SimRng::seed_from_u64(7));
//! let tick = SimDuration::from_secs(1);
//! let mut now = SimTime::ZERO;
//! for _ in 0..120 {
//!     let position = vehicle.step(now, tick);
//!     assert!(bounds.contains(position), "vehicles never leave the map");
//!     now = now.saturating_add(tick);
//! }
//! ```

pub mod model;
pub mod snapshot;
pub mod spmb;

pub use model::{MovementModel, Stationary};
pub use snapshot::{restore_mover, MoverSnapshot, PathPhase};
pub use spmb::{ShortestPathMapBased, SpmbConfig};

/// Convert km/h to the m/s the simulator uses internally.
pub fn kmh_to_ms(kmh: f64) -> f64 {
    kmh / 3.6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmh_conversion() {
        assert!((kmh_to_ms(36.0) - 10.0).abs() < 1e-12);
        assert!((kmh_to_ms(50.0) - 13.888_888_888).abs() < 1e-6);
    }
}
