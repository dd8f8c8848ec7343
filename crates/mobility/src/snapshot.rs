//! Movement-model checkpointing.
//!
//! [`MoverSnapshot`] is the serialisable image of a movement model's
//! dynamic state — RNG stream, phase, planned path, motion segment.
//! Restoring one via [`restore_mover`] at the capture instant reproduces
//! the original model bit-for-bit: every future RNG draw, boundary
//! crossing, and closed-form position is identical to the uninterrupted
//! run, because the snapshot captures exactly the private fields the model
//! evolves and nothing derived.
//!
//! # Mode invariance
//!
//! The snapshot is also the mover's part of the world's canonical state
//! hash, so it must not depend on how often the engine happened to call
//! `advance_to` — the ticked and event-driven disciplines call it on
//! different ticks even though the trajectories are bit-identical. It
//! therefore holds no `advance_to` anchor (last position and clock): the
//! segment protocol makes `motion()` and every future decision
//! mode-invariant, and [`restore_mover`] re-derives the position from the
//! segment at the restore instant.

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
        anchor_a: VertexId,
        anchor_b: VertexId,
        phase: PathPhase,
    },
}

/// Rebuild a movement model from its snapshot, positioned at `now` (the
/// capture instant).
///
/// `graph` is the world's road network — map-based models hold an
/// `Arc<RoadGraph>` that is scenario state, not mover state, so it travels
/// outside the snapshot and is re-attached here. Stationary models ignore it.
///
/// Fails with a one-line reason when a map-based snapshot does not belong
/// to `graph` (an anchor off the map, a driving leg outside its path) or
/// carries an invalid config, so a foreign snapshot is refused here rather
/// than panicking once the vehicle moves.
pub fn restore_mover(
    snap: MoverSnapshot,
    graph: &Arc<RoadGraph>,
    now: SimTime,
) -> Result<Box<dyn MovementModel>, String> {
    Ok(match snap {
        MoverSnapshot::Stationary { pos } => Box::new(Stationary::new(pos)),
        MoverSnapshot::Spmb {
            cfg,
            rng,
            anchor_a,
            anchor_b,
            phase,
        } => Box::new(ShortestPathMapBased::from_snapshot(
            graph.clone(),
            cfg,
            rng,
            anchor_a,
            anchor_b,
            phase,
            now,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_geo::GridMapGen;
    use vdtn_sim_core::SimDuration;

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

        let resume = SimTime::from_millis(500_000);
        let snap = original.snapshot();
        let mut restored = restore_mover(snap.clone(), &g, resume).unwrap();
        assert_eq!(snap, restored.snapshot(), "snapshot must round-trip");
        assert_eq!(original.position(), restored.position());

        let a = drive(&mut original, resume, 2_000);
        let b = drive(restored.as_mut(), resume, 2_000);
        assert_eq!(a, b, "restored trajectory diverged");
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn stationary_snapshot_round_trips() {
        let s = Stationary::new(Point::new(3.0, 4.0));
        let g = grid();
        let restored = restore_mover(s.snapshot(), &g, SimTime::ZERO).unwrap();
        assert_eq!(restored.position(), Point::new(3.0, 4.0));
        assert!(restored.is_stationary());
        assert_eq!(s.snapshot(), restored.snapshot());
    }

    #[test]
    fn hash_distinguishes_divergent_movers() {
        // Movers on different RNG streams snapshot (and so hash)
        // differently from the first instant.
        let g = grid();
        let cfg = SpmbConfig::default();
        let a = ShortestPathMapBased::new(g.clone(), cfg, SimRng::seed_from_u64(1));
        let b = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(2));
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn hash_ignores_mid_segment_clock() {
        // Advancing within one segment (no boundary crossed, no RNG draw)
        // must not change the snapshot, and so not the world's state hash:
        // how often `advance_to` ran is call-pattern-dependent. Both a
        // parked and a driving segment are covered.
        let g = grid();
        let cfg = SpmbConfig {
            wait_lo: 100.0,
            wait_hi: 200.0,
            ..SpmbConfig::default()
        };
        let mut m = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(3));
        let before = m.snapshot();
        // The initial wait lasts at least 100 s; advance 1 s into it.
        m.advance_to(SimTime::from_millis(1_000));
        assert_eq!(before, m.snapshot());

        // Advance onto a driving leg, then 1 ms within it.
        let depart = m.next_decision_time();
        m.advance_to(depart);
        let leg = m.motion();
        assert!(!leg.is_parked() && leg.until > depart + SimDuration::from_millis(1));
        let before = m.snapshot();
        m.advance_to(depart + SimDuration::from_millis(1));
        assert_eq!(before, m.snapshot());
    }
}
