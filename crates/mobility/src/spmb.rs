//! Shortest-path map-based movement — the paper's vehicle model.
//!
//! State machine per vehicle:
//!
//! ```text
//!            pick random destination vertex,
//!            random speed U[speed_lo, speed_hi]
//!   Waiting ────────────────────────────────────▶ Driving (along shortest path)
//!      ▲                                              │ arrives
//!      └────────── wait U[wait_lo, wait_hi] ──────────┘
//! ```
//!
//! Vehicles start at a random road vertex in the Waiting state with a random
//! initial residual wait (avoids the thundering-herd of every vehicle
//! departing at t = 0).
//!
//! Motion follows the segment protocol (see [`crate::model`]): each driving
//! leg is a [`Segment`] evaluated in closed form, transitions happen at
//! segment expiry with RNG draws anchored to the boundary time, and leg
//! changes inside a planned trip draw nothing — a whole trip is
//! deterministic once planned.

use crate::model::{leg_segment, project_legs, MovementModel, MIN_WAIT};
use crate::snapshot::{MoverSnapshot, PathPhase};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vdtn_geo::{astar, distance_lower_bound, Point, RoadGraph, Segment, VertexId};
use vdtn_sim_core::{SimDuration, SimRng, SimTime};

/// Parameters for [`ShortestPathMapBased`]. Defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpmbConfig {
    /// Minimum trip speed, m/s.
    pub speed_lo: f64,
    /// Maximum trip speed, m/s.
    pub speed_hi: f64,
    /// Minimum pause at a destination, seconds.
    pub wait_lo: f64,
    /// Maximum pause at a destination, seconds.
    pub wait_hi: f64,
}

impl Default for SpmbConfig {
    /// Paper scenario: 30–50 km/h speeds, 5–15 min waits.
    fn default() -> Self {
        SpmbConfig {
            speed_lo: 30.0 / 3.6,
            speed_hi: 50.0 / 3.6,
            wait_lo: 5.0 * 60.0,
            wait_hi: 15.0 * 60.0,
        }
    }
}

impl SpmbConfig {
    /// Check the speed and wait ranges, naming the first one that is empty
    /// or not positive.
    pub fn validate(&self) -> Result<(), String> {
        let (lo, hi) = (self.speed_lo, self.speed_hi);
        if !(lo > 0.0 && hi >= lo) {
            return Err(format!("invalid speed range [{lo}, {hi}]"));
        }
        let (lo, hi) = (self.wait_lo, self.wait_hi);
        if !(lo >= 0.0 && hi >= lo) {
            return Err(format!("invalid wait range [{lo}, {hi}]"));
        }
        Ok(())
    }
}

enum Phase {
    /// Parked on a stationary segment until `seg.until`.
    Waiting { seg: Segment },
    /// Driving along `path` (waypoint positions); `leg` indexes the waypoint
    /// the active segment drives towards, `speed` is this trip's m/s.
    Driving {
        path: Vec<Point>,
        leg: usize,
        speed: f64,
        seg: Segment,
    },
}

/// The paper's vehicle movement model. See module docs.
///
/// Destinations are uniform random *road points* — a road edge chosen with
/// probability proportional to its length, then a uniform offset along it —
/// matching ONE's "selects a new random map location". Parking mid-block
/// (rather than only at intersections) is what keeps contact durations
/// realistic: two vehicles rarely pause within radio range of each other.
pub struct ShortestPathMapBased {
    graph: Arc<RoadGraph>,
    cfg: SpmbConfig,
    rng: SimRng,
    /// Position at the last `advance_to`.
    pos: Point,
    /// The two road vertices the current position lies between (equal when
    /// parked exactly at an intersection). These are the legal ways back
    /// onto the vertex graph when planning the next trip.
    anchor_a: VertexId,
    anchor_b: VertexId,
    phase: Phase,
}

impl ShortestPathMapBased {
    /// Create a vehicle on `graph` with its own RNG stream.
    ///
    /// The vehicle starts waiting at a uniformly random road point, with an
    /// initial residual wait drawn from `[0, wait_hi]`.
    ///
    /// Panics if `cfg` fails [`SpmbConfig::validate`].
    pub fn new(graph: Arc<RoadGraph>, cfg: SpmbConfig, mut rng: SimRng) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(graph.vertex_count() > 0, "map has no vertices");
        let (pos, anchor_a, anchor_b) = random_road_point(&graph, &mut rng);
        let initial_wait = SimDuration::from_secs_f64(rng.range_f64(0.0, cfg.wait_hi.max(1.0)));
        let until = SimTime::ZERO + initial_wait.max(MIN_WAIT);
        ShortestPathMapBased {
            graph,
            cfg,
            rng,
            pos,
            anchor_a,
            anchor_b,
            phase: Phase::Waiting {
                seg: Segment::stationary(pos, SimTime::ZERO, until),
            },
        }
    }

    /// Rebuild a vehicle from its [`MoverSnapshot::Spmb`] parts, advanced
    /// to `now`: the inverse of [`MovementModel::snapshot`] followed by
    /// `advance_to(now)`. `now` must lie before the snapshot segment's
    /// `until` (a snapshot is taken after every boundary up to its instant
    /// was crossed), so the position is the segment's closed form at `now`
    /// and nothing is drawn. Fails with a one-line reason when the config
    /// is invalid, an anchor is not a vertex of `graph`, or a driving leg
    /// does not index its path.
    pub(crate) fn from_snapshot(
        graph: Arc<RoadGraph>,
        cfg: SpmbConfig,
        rng: SimRng,
        anchor_a: VertexId,
        anchor_b: VertexId,
        phase: PathPhase,
        now: SimTime,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let vertices = graph.vertex_count();
        if let Some(v) = [anchor_a, anchor_b].iter().find(|v| v.index() >= vertices) {
            return Err(format!(
                "anchor vertex {} is not on the map of {vertices} vertices",
                v.0
            ));
        }
        let phase = match phase {
            PathPhase::Waiting { seg } => Phase::Waiting { seg },
            PathPhase::Driving { path, leg, .. } if leg >= path.len() => {
                return Err(format!(
                    "driving leg {leg} is outside its path of {} waypoints",
                    path.len()
                ));
            }
            PathPhase::Driving {
                path,
                leg,
                speed,
                seg,
            } => Phase::Driving {
                path,
                leg,
                speed,
                seg,
            },
        };
        // A parked vehicle sits exactly on its segment's origin.
        let pos = match &phase {
            Phase::Waiting { seg } => seg.origin,
            Phase::Driving { seg, .. } => seg.position_at(now),
        };
        Ok(ShortestPathMapBased {
            graph,
            cfg,
            rng,
            pos,
            anchor_a,
            anchor_b,
            phase,
        })
    }

    /// Plan the next trip, departing at `depart` (the wait's expiry — all
    /// RNG draws here are anchored to that boundary time).
    fn plan_next_trip(&mut self, depart: SimTime) {
        let (dest, dest_a, dest_b) = random_road_point(&self.graph, &mut self.rng);

        // Choose the cheapest combination of exit anchor (how we rejoin the
        // vertex graph) and entry anchor (where we leave it for the final
        // off-vertex stretch). Up to four A* runs per trip; a pair whose
        // admissible lower bound already reaches the best exact total is
        // skipped — the bound never exceeds the true length and the update
        // below is strictly `<`, so the pruned loop picks the same winner
        // (ties stay first-in-order) while usually running a single search.
        let mut best: Option<(f64, Vec<Point>)> = None;
        for &exit in &[self.anchor_a, self.anchor_b] {
            for &entry in &[dest_a, dest_b] {
                let head = self.pos.distance(self.graph.position(exit));
                let tail = self.graph.position(entry).distance(dest);
                if let Some((c, _)) = &best {
                    if head + distance_lower_bound(&self.graph, exit, entry) + tail >= *c {
                        continue;
                    }
                }
                let Some(result) = astar(&self.graph, exit, entry) else {
                    continue;
                };
                let total = head + result.length + tail;
                if best.as_ref().map(|(c, _)| total < *c).unwrap_or(true) {
                    let mut path: Vec<Point> = Vec::with_capacity(result.vertices.len() + 2);
                    path.push(self.pos);
                    path.extend(result.vertices.iter().map(|&v| self.graph.position(v)));
                    path.push(dest);
                    best = Some((total, path));
                }
            }
        }

        match best {
            Some((_, path)) => {
                let speed = self.rng.range_f64(self.cfg.speed_lo, self.cfg.speed_hi);
                self.anchor_a = dest_a;
                self.anchor_b = dest_b;
                let seg = leg_segment(path[0], path[1], speed, depart);
                self.phase = Phase::Driving {
                    path,
                    leg: 1, // element 0 is the current position
                    speed,
                    seg,
                };
            }
            None => {
                // Unreachable destination (disconnected map): wait and retry.
                let wait = self.rng.range_f64(self.cfg.wait_lo, self.cfg.wait_hi);
                let until = depart + SimDuration::from_secs_f64(wait.max(1.0)).max(MIN_WAIT);
                self.phase = Phase::Waiting {
                    seg: Segment::stationary(self.pos, depart, until),
                };
            }
        }
    }
}

/// Uniform random point on the road network: an edge chosen proportionally
/// to its length, then a uniform offset. Returns the point and the edge's
/// endpoint vertices. Falls back to a random vertex on edgeless maps.
fn random_road_point(graph: &RoadGraph, rng: &mut SimRng) -> (Point, VertexId, VertexId) {
    if graph.edge_count() == 0 {
        let v = VertexId(rng.index(graph.vertex_count()) as u32);
        return (graph.position(v), v, v);
    }
    // Length-proportional edge choice via one uniform draw over the total
    // street length, answered from the graph's cached length-prefix table —
    // bit-identical to a sequential `acc >= target` scan (including its
    // rounding fallback to the last edge), but O(log E) per trip.
    let target = rng.range_f64(0.0, graph.total_length());
    let chosen = graph.edge_at_accumulated_length(target);
    let (a, b) = graph.edge_endpoints(chosen);
    let t = rng.next_f64();
    let p = graph.position(a).lerp(graph.position(b), t);
    (p, a, b)
}

impl MovementModel for ShortestPathMapBased {
    fn advance_to(&mut self, t: SimTime) -> Point {
        loop {
            match &mut self.phase {
                Phase::Waiting { seg } => {
                    if t < seg.until {
                        return self.pos;
                    }
                    let depart = seg.until;
                    self.plan_next_trip(depart);
                }
                Phase::Driving {
                    path,
                    leg,
                    speed,
                    seg,
                } => {
                    let (nseg, nleg) = project_legs(path, *leg, *seg, *speed, t);
                    if nleg < path.len() {
                        *seg = nseg;
                        *leg = nleg;
                        self.pos = nseg.position_at(t);
                        return self.pos;
                    }
                    // Arrived at `nseg.start`, parked exactly on the final
                    // waypoint: schedule the paper's 5–15 min wait from the
                    // arrival instant.
                    let arrival = nseg.start;
                    let parked = nseg.origin;
                    self.pos = parked;
                    let wait = self.rng.range_f64(self.cfg.wait_lo, self.cfg.wait_hi);
                    let until = arrival + SimDuration::from_secs_f64(wait).max(MIN_WAIT);
                    self.phase = Phase::Waiting {
                        seg: Segment::stationary(parked, arrival, until),
                    };
                }
            }
        }
    }

    fn motion(&self) -> Segment {
        match &self.phase {
            Phase::Waiting { seg } => *seg,
            Phase::Driving { seg, .. } => *seg,
        }
    }

    fn max_speed(&self) -> f64 {
        self.cfg.speed_hi
    }

    fn position(&self) -> Point {
        self.pos
    }

    fn snapshot(&self) -> MoverSnapshot {
        let phase = match &self.phase {
            Phase::Waiting { seg } => PathPhase::Waiting { seg: *seg },
            Phase::Driving {
                path,
                leg,
                speed,
                seg,
            } => PathPhase::Driving {
                path: path.clone(),
                leg: *leg,
                speed: *speed,
                seg: *seg,
            },
        };
        MoverSnapshot::Spmb {
            cfg: self.cfg,
            rng: self.rng.clone(),
            anchor_a: self.anchor_a,
            anchor_b: self.anchor_b,
            phase,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_geo::GridMapGen;

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

    fn drive(model: &mut ShortestPathMapBased, secs: u64) -> Vec<Point> {
        let mut trace = Vec::with_capacity(secs as usize);
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        for _ in 0..secs {
            trace.push(model.step(now, dt));
            now += dt;
        }
        trace
    }

    #[test]
    fn stays_on_roads() {
        let g = grid();
        let mut m = ShortestPathMapBased::new(
            g.clone(),
            SpmbConfig {
                wait_lo: 1.0,
                wait_hi: 5.0,
                ..SpmbConfig::default()
            },
            SimRng::seed_from_u64(11),
        );
        for p in drive(&mut m, 3_000) {
            // Every position must lie on (or within 1 cm of) some edge.
            let mut on_road = false;
            for e in 0..g.edge_count() {
                let (a, b) = g.edge_endpoints(vdtn_geo::EdgeId(e as u32));
                if p.distance_to_segment(g.position(a), g.position(b)) < 0.01 {
                    on_road = true;
                    break;
                }
            }
            assert!(on_road, "vehicle left the road network at {p}");
        }
    }

    #[test]
    fn respects_speed_limit() {
        let g = grid();
        let cfg = SpmbConfig {
            wait_lo: 1.0,
            wait_hi: 3.0,
            ..SpmbConfig::default()
        };
        let mut m = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(5));
        let trace = drive(&mut m, 2_000);
        // A leg boundary inside the tick snaps onto the waypoint, absorbing
        // the floored sub-millisecond remainder: allow one millisecond's
        // travel of slack on top of the per-second limit.
        let limit = cfg.speed_hi * 1.001 + 1e-9;
        for w in trace.windows(2) {
            let d = w[0].distance(w[1]);
            assert!(d <= limit, "moved {d} m in one second (limit {limit})");
        }
    }

    #[test]
    fn eventually_moves_and_pauses() {
        let g = grid();
        let mut m = ShortestPathMapBased::new(
            g,
            SpmbConfig {
                wait_lo: 10.0,
                wait_hi: 20.0,
                ..SpmbConfig::default()
            },
            SimRng::seed_from_u64(2),
        );
        let trace = drive(&mut m, 5_000);
        let moving_ticks = trace.windows(2).filter(|w| w[0] != w[1]).count();
        let still_ticks = trace.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            moving_ticks > 100,
            "should drive (moved {moving_ticks} ticks)"
        );
        assert!(still_ticks > 10, "should pause (still {still_ticks} ticks)");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid();
        let cfg = SpmbConfig::default();
        let mut a = ShortestPathMapBased::new(g.clone(), cfg, SimRng::seed_from_u64(9));
        let mut b = ShortestPathMapBased::new(g.clone(), cfg, SimRng::seed_from_u64(9));
        let mut c = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(10));
        let ta = drive(&mut a, 1_000);
        let tb = drive(&mut b, 1_000);
        let tc = drive(&mut c, 1_000);
        assert_eq!(ta, tb);
        assert_ne!(ta, tc);
    }

    #[test]
    fn skipping_to_deadlines_is_bit_identical() {
        // The event-driven engine's movement contract: between decision
        // boundaries a node need not be advanced at all — its segment's
        // closed form IS its trajectory. Advancing only at boundaries and
        // evaluating `motion()` in between must reproduce per-tick stepping
        // bit-for-bit, including every RNG draw.
        let g = grid();
        let cfg = SpmbConfig {
            wait_lo: 5.0,
            wait_hi: 40.0,
            ..SpmbConfig::default()
        };
        let mut every_tick = ShortestPathMapBased::new(g.clone(), cfg, SimRng::seed_from_u64(21));
        let mut lazy = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(21));
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        for _ in 0..4_000 {
            let end = now + dt;
            let reference = every_tick.step(now, dt);
            if lazy.next_decision_time() <= end {
                lazy.advance_to(end);
                assert_eq!(reference, lazy.position(), "diverged at {end}");
            }
            // Whether lazy advanced or not, its segment must reproduce the
            // stepped position analytically.
            assert_eq!(
                reference,
                lazy.motion().position_at(end),
                "segment diverged at {end}"
            );
            assert_eq!(every_tick.motion(), lazy.motion());
            now = end;
        }
    }

    #[test]
    fn position_at_is_exact_between_boundaries() {
        let g = grid();
        let cfg = SpmbConfig {
            wait_lo: 1.0,
            wait_hi: 2.0,
            ..SpmbConfig::default()
        };
        let mut m = ShortestPathMapBased::new(g, cfg, SimRng::seed_from_u64(6));
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        let mut checked = 0;
        for _ in 0..2_000 {
            let end = now + dt;
            let seg = m.motion();
            let driving = !seg.is_parked();
            let actual = m.step(now, dt);
            if seg.until > end {
                // No decision boundary inside the tick: the segment is exact.
                assert_eq!(seg.position_at(end), actual, "segment diverged at {end}");
                if driving {
                    checked += 1;
                }
            }
            now = end;
        }
        assert!(checked > 100, "never drove ({checked} checks)");
    }

    #[test]
    fn single_vertex_map_never_panics() {
        let mut b = vdtn_geo::RoadGraphBuilder::new();
        b.add_vertex(Point::new(1.0, 1.0));
        let g = Arc::new(b.build());
        let mut m = ShortestPathMapBased::new(
            g,
            SpmbConfig {
                wait_lo: 1.0,
                wait_hi: 2.0,
                ..SpmbConfig::default()
            },
            SimRng::seed_from_u64(1),
        );
        let trace = drive(&mut m, 100);
        assert!(trace.iter().all(|&p| p == Point::new(1.0, 1.0)));
    }

    #[test]
    #[should_panic(expected = "invalid speed range")]
    fn rejects_bad_speed() {
        SpmbConfig {
            speed_lo: 10.0,
            speed_hi: 5.0,
            ..SpmbConfig::default()
        }
        .validate()
        .unwrap();
    }
}
