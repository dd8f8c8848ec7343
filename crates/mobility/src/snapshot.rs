//! Movement-model checkpointing.
//!
//! [`MoverSnapshot`] is the serialisable image of a movement model's full
//! dynamic state — RNG stream, phase, planned path, clock anchor. Restoring
//! one via [`restore_mover`] reproduces the original model bit-for-bit: every
//! future RNG draw, boundary crossing, and closed-form position is identical
//! to the uninterrupted run, because the snapshot captures exactly the
//! private fields the model evolves and nothing derived.
//!
//! # Snapshot vs. hash
//!
//! The snapshot includes `pos`/`clock` (the last `advance_to` anchor): they
//! are needed to resume. The canonical *hash* ([`MovementModel::hash_state`])
//! deliberately excludes them — mid-leg they depend on how often the engine
//! happened to call `advance_to`, which differs between the ticked and
//! event-driven disciplines even though the trajectories are bit-identical.
//! The segment protocol guarantees `motion()` and all future decisions are
//! mode-invariant, so the hash folds the segment, the remaining path, and
//! the RNG words instead.

use crate::spmb::SpmbConfig;
use crate::{MovementModel, ShortestPathMapBased, Stationary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vdtn_geo::{Point, RoadGraph, Segment, VertexId};
use vdtn_sim_core::{SimRng, SimTime};

/// Phase image for [`ShortestPathMapBased`]; `speed` is the per-trip draw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PathPhase {
    /// Parked on a stationary segment until `seg.until`.
    Waiting { seg: Segment },
    /// Driving along `path`; `leg` indexes the waypoint the segment drives
    /// towards.
    Driving {
        path: Vec<Point>,
        leg: usize,
        speed: f64,
        seg: Segment,
    },
}

/// Full dynamic state of one movement model, ready for serialisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MoverSnapshot {
    /// A node that never moves.
    Stationary { pos: Point },
    /// Shortest-path map-based vehicle.
    Spmb {
        cfg: SpmbConfig,
        rng: SimRng,
        pos: Point,
        clock: SimTime,
        anchor_a: VertexId,
        anchor_b: VertexId,
        phase: PathPhase,
    },
}

/// Rebuild a movement model from its snapshot.
///
/// `graph` is the world's road network — map-based models hold an
/// `Arc<RoadGraph>` that is scenario state, not mover state, so it travels
/// outside the snapshot and is re-attached here. Stationary models ignore it.
pub fn restore_mover(snap: MoverSnapshot, graph: &Arc<RoadGraph>) -> Box<dyn MovementModel> {
    match snap {
        MoverSnapshot::Stationary { pos } => Box::new(Stationary::new(pos)),
        MoverSnapshot::Spmb {
            cfg,
            rng,
            pos,
            clock,
            anchor_a,
            anchor_b,
            phase,
        } => Box::new(ShortestPathMapBased::from_snapshot(
            graph.clone(),
            cfg,
            rng,
            pos,
            clock,
            anchor_a,
            anchor_b,
            phase,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_geo::GridMapGen;
    use vdtn_sim_core::{SimDuration, StateHash};

    fn grid() -> Arc<RoadGraph> {
        Arc::new(
            GridMapGen {
                cols: 5,
                rows: 5,
                spacing: 100.0,
            }
            .generate(),
        )
    }

    /// Drive `model` for `secs` one-second steps starting at `from`.
    fn drive(model: &mut dyn MovementModel, from: SimTime, secs: u64) -> Vec<Point> {
        let dt = SimDuration::from_secs(1);
        let mut now = from;
        let mut trace = Vec::with_capacity(secs as usize);
        for _ in 0..secs {
            trace.push(model.step(now, dt));
            now += dt;
        }
        trace
    }

    fn hash_of(m: &dyn MovementModel) -> u64 {
        let mut h = StateHash::new();
        m.hash_state(&mut h);
        h.finish()
    }

    #[test]
    fn spmb_snapshot_round_trips_bitwise() {
        let g = grid();
        let cfg = SpmbConfig {
            wait_lo: 2.0,
            wait_hi: 20.0,
            ..SpmbConfig::default()
        };
        let mut original = ShortestPathMapBased::new(g.clone(), cfg, SimRng::seed_from_u64(42));
        // Advance into the middle of the run (mid-trip for most seeds).
        drive(&mut original, SimTime::ZERO, 500);

        let snap = original.snapshot();
        let mut restored = restore_mover(snap.clone(), &g);
        assert_eq!(snap, restored.snapshot(), "snapshot must round-trip");
        assert_eq!(hash_of(&original), hash_of(restored.as_ref()));

        let resume = SimTime::from_millis(500_000);
        let a = drive(&mut original, resume, 2_000);
        let b = drive(restored.as_mut(), resume, 2_000);
        assert_eq!(a, b, "restored trajectory diverged");
        assert_eq!(hash_of(&original), hash_of(restored.as_mut()));
    }

    #[test]
    fn stationary_snapshot_round_trips() {
        let s = Stationary::new(Point::new(3.0, 4.0));
        let g = grid();
        let restored = restore_mover(s.snapshot(), &g);
        assert_eq!(restored.position(), Point::new(3.0, 4.0));
        assert!(restored.is_stationary());
        assert_eq!(hash_of(&s), hash_of(restored.as_ref()));
    }

    #[test]
    fn hash_distinguishes_divergent_movers() {
        let g = grid();
        let cfg = SpmbConfig::default();
        let a = ShortestPathMapBased::new(g.clone(), cfg, SimRng::seed_from_u64(1));
        let b = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(2));
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn hash_ignores_mid_segment_clock() {
        // Advancing within one segment (no boundary crossed, no RNG draw)
        // must not change the canonical hash: the clock/pos anchor is
        // call-pattern-dependent and is excluded by design.
        let g = grid();
        let cfg = SpmbConfig {
            wait_lo: 100.0,
            wait_hi: 200.0,
            ..SpmbConfig::default()
        };
        let mut m = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(3));
        let before = hash_of(&m);
        // The initial wait lasts at least 100 s; advance 1 s into it.
        m.advance_to(SimTime::from_millis(1_000));
        assert_eq!(before, hash_of(&m));
    }
}
