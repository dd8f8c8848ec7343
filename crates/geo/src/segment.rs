//! Piecewise-linear motion segments.
//!
//! A [`Segment`] is the unit of the motion-segment protocol (see
//! ARCHITECTURE.md): every movement model exports its current motion as a
//! straight line `origin + velocity · (t − start)` valid for
//! `t ∈ [start, until]`. Both engine disciplines evaluate positions through
//! the *same* closed form — the ticked loop via the model's own step, the
//! event-driven loop via the world's segment column — which is what
//! keeps analytically-computed positions bit-identical to stepped ones.

use crate::point::Point;
use serde::{Deserialize, Serialize};
use vdtn_sim_core::SimTime;

/// One straight-line stretch of a node's trajectory.
///
/// Evaluation clamps to `[start, until]`: before `start` the segment sits at
/// its origin, after `until` it sits at its endpoint (a conservative
/// extrapolation — the owning model replaces the segment at `until`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Position at `start`.
    pub origin: Point,
    /// Velocity in m/s per axis (zero for parked/stationary nodes).
    pub velocity: Point,
    /// Absolute time the segment begins.
    pub start: SimTime,
    /// Absolute time the segment expires (next decision boundary:
    /// waypoint arrival, wait expiry; [`SimTime::MAX`] = forever).
    pub until: SimTime,
}

impl Segment {
    /// A motionless segment holding `pos` over `[start, until]`.
    pub fn stationary(pos: Point, start: SimTime, until: SimTime) -> Segment {
        Segment {
            origin: pos,
            velocity: Point::new(0.0, 0.0),
            start,
            until,
        }
    }

    /// Closed-form position at absolute time `t`, clamped to the segment's
    /// validity window. This is the one shared evaluation path — every
    /// caller (model stepping, the engine's segment column, contact
    /// prediction) must go through it so identical inputs give
    /// bit-identical floats.
    #[inline]
    pub fn position_at(&self, t: SimTime) -> Point {
        let t = t.clamp(self.start, self.until.max(self.start));
        let dt = (t - self.start).as_secs_f64();
        Point::new(
            self.origin.x + self.velocity.x * dt,
            self.origin.y + self.velocity.y * dt,
        )
    }

    /// Scalar speed in m/s.
    #[inline]
    pub fn speed(&self) -> f64 {
        (self.velocity.x * self.velocity.x + self.velocity.y * self.velocity.y).sqrt()
    }

    /// True when the segment carries no motion.
    #[inline]
    pub fn is_parked(&self) -> bool {
        self.velocity.x == 0.0 && self.velocity.y == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_sim_core::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn evaluates_linearly_inside_window() {
        let s = Segment {
            origin: Point::new(10.0, 20.0),
            velocity: Point::new(2.0, -1.0),
            start: t(100),
            until: t(110),
        };
        assert_eq!(s.position_at(t(100)), Point::new(10.0, 20.0));
        assert_eq!(s.position_at(t(105)), Point::new(20.0, 15.0));
        assert_eq!(s.position_at(t(110)), Point::new(30.0, 10.0));
    }

    #[test]
    fn clamps_outside_window() {
        let s = Segment {
            origin: Point::new(0.0, 0.0),
            velocity: Point::new(1.0, 0.0),
            start: t(10),
            until: t(20),
        };
        assert_eq!(s.position_at(t(0)), s.position_at(t(10)));
        assert_eq!(s.position_at(t(50)), s.position_at(t(20)));
    }

    #[test]
    fn stationary_never_moves_and_reports_parked() {
        let s = Segment::stationary(Point::new(3.0, 4.0), t(0), SimTime::MAX);
        assert!(s.is_parked());
        assert_eq!(s.speed(), 0.0);
        assert_eq!(s.position_at(t(1_000_000)), Point::new(3.0, 4.0));
    }

    #[test]
    fn speed_is_euclidean_norm() {
        let s = Segment {
            origin: Point::new(0.0, 0.0),
            velocity: Point::new(3.0, 4.0),
            start: t(0),
            until: t(1),
        };
        assert!((s.speed() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_window_holds_origin() {
        // until == start (zero-length leg quantised to the same millisecond):
        // evaluation anywhere returns the origin.
        let s = Segment {
            origin: Point::new(7.0, 7.0),
            velocity: Point::new(5.0, 0.0),
            start: t(5),
            until: t(5),
        };
        assert_eq!(s.position_at(t(4)), Point::new(7.0, 7.0));
        assert_eq!(s.position_at(t(6)), Point::new(7.0, 7.0));
    }
}
