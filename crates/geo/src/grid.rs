//! Uniform spatial hash grid for radius queries.
//!
//! Used by contact detection in `vdtn-net`. A radius query scans the
//! `(2k+1)²` cells around its centre, `k = ceil(radius / cell_size)`, so
//! the contact detector sizes its cells to its re-query radius and every
//! re-query reads exactly 3×3 buckets. [`SpatialGrid::pairs_within`] is
//! valid for any `cell_size >= radius`: one pass over `n` nodes finds all
//! contact pairs in O(n + pairs) instead of the naive O(n²) scan. Both
//! queries are checked against brute force in this module's tests.

use crate::point::Point;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for `(i32, i32)` cell keys: one add-multiply per coordinate and
/// a final rotate that moves the well-mixed high bits into the low bits
/// the table indexes by. Cell keys are small integers derived from
/// simulated positions, not attacker input, so SipHash's flooding
/// resistance buys nothing here, and a fixed hasher keeps bucket layout
/// the same in every run.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u64(u64::from(v as u32));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.wrapping_add(v).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A uniform grid over 2-D points, maintained either wholesale or
/// incrementally.
///
/// [`SpatialGrid::rebuild`] refreshes everything from a position slice;
/// [`SpatialGrid::move_point`] relocates a single point, which is what the
/// event-driven contact detector uses when only a few nodes moved in a tick.
/// Internal storage is reused across rebuilds to avoid steady-state
/// allocation.
pub struct SpatialGrid {
    cell_size: f64,
    /// cell coordinates → indices of points in that cell
    cells: HashMap<(i32, i32), Vec<u32>, BuildHasherDefault<CellHasher>>,
    /// Position of every stored point, by index.
    points: Vec<Point>,
}

impl SpatialGrid {
    /// Create a grid with the given cell size. Radius queries are
    /// cheapest when `cell_size` equals the radius queried most often.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        SpatialGrid {
            cell_size,
            cells: HashMap::default(),
            points: Vec::new(),
        }
    }

    #[inline]
    fn cell_of(&self, p: Point) -> (i32, i32) {
        (
            (p.x / self.cell_size).floor() as i32,
            (p.y / self.cell_size).floor() as i32,
        )
    }

    /// Rebuild the grid from a fresh set of positions.
    pub fn rebuild(&mut self, positions: &[Point]) {
        for v in self.cells.values_mut() {
            v.clear();
        }
        self.points.clear();
        self.points.extend_from_slice(positions);
        for (i, &p) in positions.iter().enumerate() {
            let cell = self.cell_of(p);
            self.cells.entry(cell).or_default().push(i as u32);
        }
    }

    /// Move one stored point to a new position, updating its cell membership.
    ///
    /// This is the incremental counterpart of [`SpatialGrid::rebuild`]: when
    /// only `k` of `n` points moved this tick, `k` calls to `move_point` keep
    /// the grid exact in `O(k)` instead of the `O(n)` rebuild. Queries after
    /// the move see exactly the same state a full rebuild would produce
    /// (bucket order may differ, but all query results are sorted).
    ///
    /// Panics if `i` was not part of the last `rebuild`.
    pub fn move_point(&mut self, i: u32, p: Point) {
        let old = self.points[i as usize];
        let old_cell = self.cell_of(old);
        let new_cell = self.cell_of(p);
        self.points[i as usize] = p;
        if old_cell != new_cell {
            if let Some(bucket) = self.cells.get_mut(&old_cell) {
                if let Some(k) = bucket.iter().position(|&x| x == i) {
                    bucket.swap_remove(k);
                }
            }
            self.cells.entry(new_cell).or_default().push(i);
        }
    }

    /// Number of stored points (as of the last rebuild).
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Indices of all points within `radius` of `center` (excluding `exclude`
    /// if given). Results are appended to `out` in ascending index order.
    pub fn query_within(
        &self,
        center: Point,
        radius: f64,
        exclude: Option<u32>,
        out: &mut Vec<u32>,
    ) {
        let r_cells = (radius / self.cell_size).ceil() as i32;
        let (cx, cy) = self.cell_of(center);
        let r2 = radius * radius;
        let start = out.len();
        for dx in -r_cells..=r_cells {
            for dy in -r_cells..=r_cells {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in bucket {
                        if Some(i) == exclude {
                            continue;
                        }
                        if self.points[i as usize].distance_sq(center) <= r2 {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out[start..].sort_unstable();
    }

    /// All unordered pairs `(i, j)` with `i < j` whose points lie within
    /// `radius` of each other. Appended to `out` in lexicographic order.
    ///
    /// This is the contact-detection primitive: with `cell_size >= radius`
    /// each pair is examined once via the "half neighbourhood" scan.
    pub fn pairs_within(&self, radius: f64, out: &mut Vec<(u32, u32)>) {
        let r2 = radius * radius;
        let start = out.len();
        // Half-neighbourhood offsets: same cell plus 4 forward neighbours
        // (valid when cell_size >= radius; fall back to full scan otherwise).
        if self.cell_size >= radius {
            const FORWARD: [(i32, i32); 4] = [(1, 0), (1, -1), (1, 1), (0, 1)];
            for (&(cx, cy), bucket) in &self.cells {
                // In-cell pairs.
                for (k, &i) in bucket.iter().enumerate() {
                    for &j in &bucket[k + 1..] {
                        if self.points[i as usize].distance_sq(self.points[j as usize]) <= r2 {
                            out.push(if i < j { (i, j) } else { (j, i) });
                        }
                    }
                }
                // Cross-cell pairs with forward neighbours.
                for (dx, dy) in FORWARD {
                    if let Some(other) = self.cells.get(&(cx + dx, cy + dy)) {
                        for &i in bucket {
                            for &j in other {
                                if self.points[i as usize].distance_sq(self.points[j as usize])
                                    <= r2
                                {
                                    out.push(if i < j { (i, j) } else { (j, i) });
                                }
                            }
                        }
                    }
                }
            }
        } else {
            // Radius exceeds cell size: reuse query_within per point.
            let mut scratch = Vec::new();
            for i in 0..self.points.len() as u32 {
                scratch.clear();
                self.query_within(self.points[i as usize], radius, Some(i), &mut scratch);
                for &j in &scratch {
                    if j > i {
                        out.push((i, j));
                    }
                }
            }
        }
        out[start..].sort_unstable();
        out.dedup();
    }

    /// Naive O(n²) pair scan over the same stored points — the test oracle
    /// for [`SpatialGrid::pairs_within`] and the contact detector.
    pub fn pairs_within_naive(&self, radius: f64, out: &mut Vec<(u32, u32)>) {
        let r2 = radius * radius;
        let n = self.points.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if self.points[i].distance_sq(self.points[j]) <= r2 {
                    out.push((i as u32, j as u32));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(25.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(105.0, 100.0),
            Point::new(-40.0, -40.0),
        ]
    }

    #[test]
    fn query_within_finds_neighbors() {
        let mut g = SpatialGrid::new(30.0);
        g.rebuild(&cluster());
        let mut out = Vec::new();
        g.query_within(Point::new(0.0, 0.0), 30.0, Some(0), &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn pairs_within_matches_naive() {
        let mut g = SpatialGrid::new(30.0);
        g.rebuild(&cluster());
        let mut fast = Vec::new();
        let mut naive = Vec::new();
        g.pairs_within(30.0, &mut fast);
        g.pairs_within_naive(30.0, &mut naive);
        naive.sort_unstable();
        assert_eq!(fast, naive);
        assert!(fast.contains(&(0, 1)));
        assert!(fast.contains(&(3, 4)));
        assert!(!fast.contains(&(0, 3)));
    }

    #[test]
    fn pairs_with_radius_larger_than_cell() {
        let mut g = SpatialGrid::new(10.0);
        g.rebuild(&cluster());
        let mut fast = Vec::new();
        let mut naive = Vec::new();
        g.pairs_within(30.0, &mut fast);
        g.pairs_within_naive(30.0, &mut naive);
        naive.sort_unstable();
        assert_eq!(fast, naive);
    }

    #[test]
    fn rebuild_clears_previous_state() {
        let mut g = SpatialGrid::new(30.0);
        g.rebuild(&cluster());
        g.rebuild(&[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        let mut out = Vec::new();
        g.pairs_within(30.0, &mut out);
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn randomised_equivalence_with_naive() {
        // Poor man's property test (proptest covers this in tests/): a fixed
        // pseudo-random cloud across several radii.
        let mut pts = Vec::new();
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..200 {
            pts.push(Point::new(next() * 500.0, next() * 400.0));
        }
        for radius in [5.0, 30.0, 75.0] {
            let mut g = SpatialGrid::new(30.0);
            g.rebuild(&pts);
            let mut fast = Vec::new();
            let mut naive = Vec::new();
            g.pairs_within(radius, &mut fast);
            g.pairs_within_naive(radius, &mut naive);
            naive.sort_unstable();
            assert_eq!(fast, naive, "radius {radius}");
        }
    }

    #[test]
    fn move_point_matches_rebuild() {
        // Random walk: after each batch of moves, an incrementally maintained
        // grid must answer pair queries identically to a rebuilt one.
        let mut state = 777u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut pts: Vec<Point> = (0..60)
            .map(|_| Point::new(next() * 400.0, next() * 400.0))
            .collect();
        let mut inc = SpatialGrid::new(30.0);
        inc.rebuild(&pts);
        for _ in 0..40 {
            // Move a random subset, sometimes across cell boundaries.
            for (i, p) in pts.iter_mut().enumerate() {
                if next() < 0.4 {
                    p.x += (next() - 0.5) * 80.0;
                    p.y += (next() - 0.5) * 80.0;
                    inc.move_point(i as u32, *p);
                }
            }
            let mut fresh = SpatialGrid::new(30.0);
            fresh.rebuild(&pts);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            inc.pairs_within(30.0, &mut a);
            fresh.pairs_within(30.0, &mut b);
            assert_eq!(a, b);
            let (mut qa, mut qb) = (Vec::new(), Vec::new());
            inc.query_within(pts[0], 45.0, Some(0), &mut qa);
            fresh.query_within(pts[0], 45.0, Some(0), &mut qb);
            assert_eq!(qa, qb);
        }
        assert_eq!(inc.point_count(), pts.len());
    }

    #[test]
    fn empty_and_single_point() {
        let mut g = SpatialGrid::new(30.0);
        g.rebuild(&[]);
        let mut out = Vec::new();
        g.pairs_within(30.0, &mut out);
        assert!(out.is_empty());
        g.rebuild(&[Point::new(5.0, 5.0)]);
        g.pairs_within(30.0, &mut out);
        assert!(out.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Cell sizes whose quarters are exact binary fractions, so points on
    /// the quarter lattice sit exactly on cell edges and exactly at the
    /// query radius without rounding.
    const CELL_SIZES: [f64; 3] = [1.0, 30.0, 90.0];

    fn brute_force(points: &[Point], center: Point, radius: f64, exclude: Option<u32>) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| Some(i) != exclude)
            .filter(|&i| points[i as usize].distance_sq(center) <= radius * radius)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `query_within` returns exactly the brute-force filter over the
        /// stored points, for radii of 0.5, 1 and 3 cells, across
        /// interleaved `rebuild` and `move_point` calls. Coordinates lie on
        /// a quarter-cell lattice spanning negative and positive cells; each
        /// query also plants points exactly at `radius` along both axes.
        #[test]
        fn query_within_matches_brute_force(
            raw in proptest::collection::vec((-24i32..24, -24i32..24), 1..30),
            ops in proptest::collection::vec(
                (0u32..4, 0usize..64, -24i32..24, -24i32..24),
                1..24,
            ),
            cell_pick in 0usize..3,
            radius_pick in 0usize..3,
        ) {
            let cell = CELL_SIZES[cell_pick];
            let radius = [0.5, 1.0, 3.0][radius_pick] * cell;
            let at = |x: i32, y: i32| Point::new(x as f64 * cell / 4.0, y as f64 * cell / 4.0);
            let mut points: Vec<Point> = raw.iter().map(|&(x, y)| at(x, y)).collect();
            let mut grid = SpatialGrid::new(cell);
            grid.rebuild(&points);
            for (kind, k, x, y) in ops {
                let p = at(x, y);
                match kind {
                    // Rebuild from a grown set: a point exactly `radius` east
                    // and one exactly `radius` south of `p`.
                    0 => {
                        points.push(Point::new(p.x + radius, p.y));
                        points.push(Point::new(p.x, p.y - radius));
                        grid.rebuild(&points);
                    }
                    // Rebuild from a shrunk set.
                    1 => {
                        points.truncate((k % points.len()).max(1));
                        grid.rebuild(&points);
                    }
                    // Move one stored point, often across a cell edge.
                    _ => {
                        let i = k % points.len();
                        points[i] = p;
                        grid.move_point(i as u32, p);
                    }
                }
                prop_assert_eq!(grid.point_count(), points.len());
                let exclude = (k % 2 == 0).then_some((k % points.len()) as u32);
                for center in [p, points[k % points.len()]] {
                    let mut out = Vec::new();
                    grid.query_within(center, radius, exclude, &mut out);
                    prop_assert_eq!(out, brute_force(&points, center, radius, exclude));
                }
            }
        }
    }
}
