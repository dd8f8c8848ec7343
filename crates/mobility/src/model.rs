//! The movement-model trait and the stationary model.
//!
//! # The motion segment protocol
//!
//! Every model exposes its current motion as a piecewise-linear
//! [`Segment`]: position ≡ `origin + velocity · (t − start)`
//! over `[start, until]`. The engine's two disciplines both evaluate positions
//! through that one closed form — the ticked loop via [`MovementModel::step`]
//! (which is just `advance_to(now + dt)`), the event-driven loop via the
//! world's segment column — so analytically computed positions are
//! bit-identical to stepped ones.
//!
//! Decision boundaries (wait expiry, leg arrival) happen at the *boundary
//! time*, not at the end of whatever tick observed them: RNG draws and new
//! segments are anchored to `until`, which makes the trajectory independent
//! of the call pattern (stepping every tick vs. jumping straight to the
//! deadline).

use crate::snapshot::MoverSnapshot;
use vdtn_geo::{Point, Segment};
use vdtn_sim_core::{SimDuration, SimTime};

/// Minimum length of any waiting segment. A parked phase always lasts at
/// least one millisecond, which guarantees `advance_to` makes progress even
/// when a drawn wait quantises to zero.
pub(crate) const MIN_WAIT: SimDuration = SimDuration::from_millis(1);

/// Convert fractional seconds to a duration rounding *down* to the
/// millisecond grid. Leg durations must floor: a segment that expires at or
/// before the true arrival time never drives past its waypoint, so positions
/// stay on the road and deadline math stays conservative. (The crossing then
/// snaps exactly onto the waypoint, absorbing the sub-millisecond remainder.)
pub(crate) fn floor_secs(secs: f64) -> SimDuration {
    debug_assert!(secs.is_finite() && secs >= 0.0, "bad duration {secs}");
    SimDuration::from_millis((secs * 1000.0).floor() as u64)
}

/// A node's movement behaviour.
///
/// Implementations own all their state (current position, pending path,
/// per-node RNG stream) so the engine can hold them as `Box<dyn MovementModel>`
/// and advance them independently; `Send` keeps a world that owns them
/// movable between threads.
pub trait MovementModel: Send {
    /// Advance the model to absolute time `t`, crossing every decision
    /// boundary (wait expiry, waypoint arrival) on the way, and return the
    /// position at `t`.
    ///
    /// Contract: RNG draws triggered by a boundary use the *boundary time*,
    /// never `t`, so calling `advance_to(b); advance_to(t)` for any
    /// intermediate `b` yields exactly the same state and trajectory as
    /// calling `advance_to(t)` directly. `t` must be non-decreasing across
    /// calls.
    fn advance_to(&mut self, t: SimTime) -> Point;

    /// The current motion segment. Within `[seg.start, seg.until]` the
    /// closed form reproduces `advance_to` bit-for-bit; at `seg.until` the
    /// model makes its next decision (see
    /// [`next_decision_time`](MovementModel::next_decision_time)).
    fn motion(&self) -> Segment;

    /// Static upper bound on this node's speed over the whole run, m/s.
    /// Contact prediction uses this to bound how fast any pair can close.
    fn max_speed(&self) -> f64;

    /// Current position without advancing (the position at the last
    /// `advance_to` time).
    fn position(&self) -> Point;

    /// True for models that never move (lets the engine skip work).
    fn is_stationary(&self) -> bool {
        false
    }

    /// First future time at which advancing this model can change anything:
    /// `motion().until`. Every `advance_to(t)` with `t` strictly before it
    /// stays on the current segment — no state change, no RNG draw — so the
    /// engine may skip straight to the first tick ≥ this time.
    /// [`Stationary`] reports [`SimTime::MAX`].
    fn next_decision_time(&self) -> SimTime {
        self.motion().until
    }

    /// Tick-style wrapper: advance by `dt` ending at `now + dt`.
    fn step(&mut self, now: SimTime, dt: SimDuration) -> Point {
        self.advance_to(now + dt)
    }

    /// Capture the model's full dynamic state for checkpointing.
    ///
    /// Restoring the snapshot with [`crate::restore_mover`] at the capture
    /// instant reproduces the model bit-for-bit: identical future RNG
    /// draws, boundary crossings, and positions.
    fn snapshot(&self) -> MoverSnapshot;
}

/// A node that never moves (the paper's stationary relay nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stationary {
    pos: Point,
}

impl Stationary {
    /// Place a stationary node at `pos`.
    pub fn new(pos: Point) -> Self {
        Stationary { pos }
    }
}

impl MovementModel for Stationary {
    fn advance_to(&mut self, _t: SimTime) -> Point {
        self.pos
    }

    fn motion(&self) -> Segment {
        Segment::stationary(self.pos, SimTime::ZERO, SimTime::MAX)
    }

    fn max_speed(&self) -> f64 {
        0.0
    }

    fn position(&self) -> Point {
        self.pos
    }

    fn is_stationary(&self) -> bool {
        true
    }

    fn snapshot(&self) -> MoverSnapshot {
        MoverSnapshot::Stationary { pos: self.pos }
    }
}

/// Build the motion segment for one polyline leg from `origin` towards
/// `target` at `speed` m/s, starting at `start`.
///
/// The expiry is floor-quantised ([`floor_secs`]) so the segment never
/// evaluates past the waypoint; a zero-length leg yields a degenerate
/// segment (`until == start`) that the crossing loop steps over by index.
pub(crate) fn leg_segment(origin: Point, target: Point, speed: f64, start: SimTime) -> Segment {
    let len = origin.distance(target);
    if len <= 0.0 {
        return Segment::stationary(origin, start, start);
    }
    let scale = speed / len;
    Segment {
        origin,
        velocity: Point::new((target.x - origin.x) * scale, (target.y - origin.y) * scale),
        start,
        until: start + floor_secs(len / speed),
    }
}

/// Walk deterministic leg boundaries up to time `t`.
///
/// `leg` indexes the waypoint the segment is driving towards; each crossing
/// snaps onto `path[leg]` exactly and starts the next leg at the expired
/// segment's `until`. Returns the segment active at `t` plus the new target
/// index. When the path is exhausted (arrival — the caller's cue to draw the
/// wait RNG at the returned segment's `start`) the segment is a stationary
/// sentinel parked on the final waypoint and the index equals `path.len()`.
///
/// Pure: stepping every tick and jumping straight to `t` cross the same
/// boundaries, which is what makes the trajectory independent of the call
/// pattern.
pub(crate) fn project_legs(
    path: &[Point],
    mut leg: usize,
    mut seg: Segment,
    speed: f64,
    t: SimTime,
) -> (Segment, usize) {
    while seg.until < SimTime::MAX && t >= seg.until {
        let reached = path[leg];
        leg += 1;
        if leg >= path.len() {
            return (Segment::stationary(reached, seg.until, SimTime::MAX), leg);
        }
        seg = leg_segment(reached, path[leg], speed, seg.until);
    }
    (seg, leg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_never_moves() {
        let mut s = Stationary::new(Point::new(5.0, 7.0));
        let p0 = s.position();
        for i in 0..10 {
            let p = s.step(SimTime::from_millis(i * 1000), SimDuration::from_secs(1));
            assert_eq!(p, p0);
        }
        assert!(s.is_stationary());
    }

    #[test]
    fn stationary_decision_time_is_never() {
        let s = Stationary::new(Point::ORIGIN);
        assert_eq!(s.next_decision_time(), SimTime::MAX);
        assert_eq!(s.motion().position_at(SimTime::MAX), Point::ORIGIN);
        assert!(s.motion().is_parked());
        assert_eq!(s.max_speed(), 0.0);
    }

    #[test]
    fn leg_segment_reaches_waypoint_on_the_grid() {
        // 100 m at 10 m/s = exactly 10 s: no quantisation loss.
        let s = leg_segment(
            Point::ORIGIN,
            Point::new(100.0, 0.0),
            10.0,
            SimTime::from_millis(5_000),
        );
        assert_eq!(s.until, SimTime::from_millis(15_000));
        assert_eq!(
            s.position_at(SimTime::from_millis(15_000)),
            Point::new(100.0, 0.0)
        );
    }

    #[test]
    fn leg_segment_floors_the_expiry() {
        // 100 m at 30 m/s = 3.333… s → floors to 3.333 s, so the segment
        // stops a hair short of the waypoint rather than overshooting it.
        let s = leg_segment(Point::ORIGIN, Point::new(100.0, 0.0), 30.0, SimTime::ZERO);
        assert_eq!(s.until, SimTime::from_millis(3_333));
        let end = s.position_at(s.until);
        assert!(end.x <= 100.0, "overshot the waypoint: {end}");
        assert!(
            100.0 - end.x < 30.0 * 0.001 + 1e-9,
            "stopped too short: {end}"
        );
    }

    #[test]
    fn zero_length_leg_is_degenerate() {
        let s = leg_segment(
            Point::new(3.0, 3.0),
            Point::new(3.0, 3.0),
            10.0,
            SimTime::ZERO,
        );
        assert_eq!(s.until, s.start);
        assert!(s.is_parked());
    }

    #[test]
    fn project_crosses_legs_and_snaps() {
        let path = [Point::ORIGIN, Point::new(10.0, 0.0), Point::new(10.0, 10.0)];
        let seg = leg_segment(path[0], path[1], 1.0, SimTime::ZERO);
        // 15 s at 1 m/s: 10 m east (snap onto the corner), 5 m north.
        let (s, leg) = project_legs(&path, 1, seg, 1.0, SimTime::from_millis(15_000));
        assert_eq!(leg, 2);
        assert_eq!(s.origin, Point::new(10.0, 0.0));
        assert_eq!(
            s.position_at(SimTime::from_millis(15_000)),
            Point::new(10.0, 5.0)
        );
    }

    #[test]
    fn project_exhausts_path_into_sentinel() {
        let path = [Point::ORIGIN, Point::new(10.0, 0.0)];
        let seg = leg_segment(path[0], path[1], 1.0, SimTime::ZERO);
        let (s, leg) = project_legs(&path, 1, seg, 1.0, SimTime::from_millis(60_000));
        assert_eq!(leg, 2);
        assert!(s.is_parked());
        assert_eq!(s.origin, Point::new(10.0, 0.0));
        assert_eq!(s.start, SimTime::from_millis(10_000));
        assert_eq!(s.until, SimTime::MAX);
    }

    #[test]
    fn project_before_boundary_is_identity() {
        let path = [Point::ORIGIN, Point::new(10.0, 0.0)];
        let seg = leg_segment(path[0], path[1], 1.0, SimTime::ZERO);
        let (s, leg) = project_legs(&path, 1, seg, 1.0, SimTime::from_millis(4_000));
        assert_eq!(leg, 1);
        assert_eq!(s, seg);
    }
}
