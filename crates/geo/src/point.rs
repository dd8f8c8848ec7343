//! 2-D points and segment geometry (metres).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the simulation plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance — avoids the sqrt on hot comparison paths
    /// (contact detection compares against range²).
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// The point `dist` metres from `self` towards `target`.
    /// If the points coincide, returns `self`.
    pub fn advance_towards(self, target: Point, dist: f64) -> Point {
        let total = self.distance(target);
        if total <= f64::EPSILON {
            return self;
        }
        self.lerp(target, (dist / total).min(1.0))
    }

    /// Shortest distance from this point to the segment `a`–`b`.
    pub fn distance_to_segment(self, a: Point, b: Point) -> f64 {
        let len_sq = a.distance_sq(b);
        if len_sq <= f64::EPSILON {
            return self.distance(a);
        }
        let t = (((self.x - a.x) * (b.x - a.x) + (self.y - a.y) * (b.y - a.y)) / len_sq)
            .clamp(0.0, 1.0);
        self.distance(a.lerp(b, t))
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Bounds {
    /// The empty bounds (inverted extremes), ready for [`Bounds::expand`].
    pub fn empty() -> Self {
        Bounds {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Grow to include `p`.
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Width (x extent); 0 for empty bounds.
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (y extent); 0 for empty bounds.
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// True if `p` lies inside (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_squared_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
    }

    #[test]
    fn advance_towards_clamps_at_target() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.advance_towards(b, 4.0), Point::new(4.0, 0.0));
        assert_eq!(a.advance_towards(b, 40.0), b);
        assert_eq!(a.advance_towards(a, 5.0), a);
    }

    #[test]
    fn segment_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(Point::new(5.0, 3.0).distance_to_segment(a, b), 3.0);
        assert_eq!(Point::new(-4.0, 0.0).distance_to_segment(a, b), 4.0);
        assert_eq!(Point::new(13.0, 4.0).distance_to_segment(a, b), 5.0);
        // Degenerate segment.
        assert_eq!(Point::new(3.0, 4.0).distance_to_segment(a, a), 5.0);
    }

    #[test]
    fn bounds_expand_contains() {
        let mut b = Bounds::empty();
        b.expand(Point::new(1.0, 2.0));
        b.expand(Point::new(-3.0, 7.0));
        assert!(b.contains(Point::new(0.0, 5.0)));
        assert!(!b.contains(Point::new(2.0, 5.0)));
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 5.0);
    }

    #[test]
    fn vector_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a + b, Point::new(4.0, 7.0));
        assert_eq!(b - a, Point::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!((b - a).norm(), (13.0f64).sqrt());
    }
}
