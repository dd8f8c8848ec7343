//! Deterministic spatial sharding for parallel contact detection.
//!
//! A [`ShardMap`] tiles the plane into a fixed `cols × rows` lattice of
//! rectangular shards, aligned to [`crate::SpatialGrid`] cell boundaries so
//! a shard is always a whole block of grid buckets. The contact detector
//! groups per-node re-queries by shard, processes them concurrently, and
//! merges the outputs in canonical order — so the map's only obligations
//! are to be a **total function** (every point lands in exactly one shard,
//! including points that drift outside the construction-time bounding box,
//! which clamp to the nearest edge shard) and to be **independent of
//! thread count** (the tiling is fixed at construction from the initial
//! positions and never changes as nodes move or pools resize).

use crate::point::Point;

/// Fixed rectangular tiling of the plane into spatial shards.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Cell coordinate of the bounding box minimum (grid-aligned).
    origin: (i32, i32),
    cell_size: f64,
    /// Shard tile extent in whole grid cells.
    tile_cells: (i32, i32),
    cols: u32,
    rows: u32,
}

impl ShardMap {
    /// Build a tiling over the bounding box of `positions` with at least 1
    /// and at most `target_shards` (rounded up to a full lattice) shards.
    /// `cell_size` should match the spatial grid used for detection so
    /// shard edges coincide with bucket edges.
    pub fn build(positions: &[Point], cell_size: f64, target_shards: usize) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let target = target_shards.max(1) as u32;
        // Lattice shape: near-square, cols × rows >= 1.
        let cols = (target as f64).sqrt().ceil() as u32;
        let rows = target.div_ceil(cols).max(1);

        let (min, max) = bounding_cells(positions, cell_size);
        let span_x = max.0 - min.0 + 1;
        let span_y = max.1 - min.1 + 1;
        // Whole-cell tile extents; a tile is at least one cell, so very
        // small worlds quietly collapse to fewer effective shards (edge
        // clamping keeps of_point total regardless).
        let tile_x = ((span_x + cols as i32 - 1) / cols as i32).max(1);
        let tile_y = ((span_y + rows as i32 - 1) / rows as i32).max(1);
        ShardMap {
            origin: min,
            cell_size,
            tile_cells: (tile_x, tile_y),
            cols,
            rows,
        }
    }

    /// Total number of shard slots in the lattice.
    pub fn num_shards(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// The shard containing `p`. Total: points outside the construction
    /// bounding box clamp to the nearest edge shard.
    #[inline]
    pub fn of_point(&self, p: Point) -> u32 {
        let cx = (p.x / self.cell_size).floor() as i32 - self.origin.0;
        let cy = (p.y / self.cell_size).floor() as i32 - self.origin.1;
        let sx = (cx.div_euclid(self.tile_cells.0)).clamp(0, self.cols as i32 - 1) as u32;
        let sy = (cy.div_euclid(self.tile_cells.1)).clamp(0, self.rows as i32 - 1) as u32;
        sy * self.cols + sx
    }
}

/// Grid-cell bounding box of `positions`; a degenerate single cell at the
/// origin when the slice is empty.
fn bounding_cells(positions: &[Point], cell_size: f64) -> ((i32, i32), (i32, i32)) {
    let mut min = (i32::MAX, i32::MAX);
    let mut max = (i32::MIN, i32::MIN);
    for p in positions {
        let c = (
            (p.x / cell_size).floor() as i32,
            (p.y / cell_size).floor() as i32,
        );
        min.0 = min.0.min(c.0);
        min.1 = min.1.min(c.1);
        max.0 = max.0.max(c.0);
        max.1 = max.1.max(c.1);
    }
    if positions.is_empty() {
        ((0, 0), (0, 0))
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn every_point_maps_to_exactly_one_in_range_shard() {
        let positions = pts(&[(0.0, 0.0), (100.0, 40.0), (250.0, 90.0), (30.0, 70.0)]);
        let map = ShardMap::build(&positions, 30.0, 6);
        assert!(map.num_shards() >= 6);
        for &p in &positions {
            let s = map.of_point(p);
            assert!((s as usize) < map.num_shards());
            // Deterministic: repeated queries agree.
            assert_eq!(s, map.of_point(p));
        }
    }

    #[test]
    fn outside_points_clamp_to_edge_shards() {
        let positions = pts(&[(0.0, 0.0), (300.0, 300.0)]);
        let map = ShardMap::build(&positions, 50.0, 4);
        for &p in &[
            Point::new(-1e6, -1e6),
            Point::new(1e6, 1e6),
            Point::new(-1e6, 150.0),
            Point::new(150.0, 1e6),
        ] {
            assert!((map.of_point(p) as usize) < map.num_shards());
        }
    }

    #[test]
    fn single_shard_world() {
        let positions = pts(&[(5.0, 5.0), (6.0, 6.0)]);
        let map = ShardMap::build(&positions, 10.0, 1);
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.of_point(Point::new(123.0, -456.0)), 0);
    }

    #[test]
    fn empty_positions_degenerate_map_is_total() {
        let map = ShardMap::build(&[], 10.0, 8);
        assert!((map.of_point(Point::new(42.0, 42.0)) as usize) < map.num_shards());
    }

    #[test]
    fn shards_are_grid_aligned_blocks() {
        // Points in the same grid cell always share a shard.
        let positions = pts(&[(0.0, 0.0), (500.0, 500.0)]);
        let map = ShardMap::build(&positions, 50.0, 9);
        for cx in 0..10 {
            for cy in 0..10 {
                let base = Point::new(cx as f64 * 50.0 + 1.0, cy as f64 * 50.0 + 1.0);
                let far = Point::new(cx as f64 * 50.0 + 49.0, cy as f64 * 50.0 + 49.0);
                assert_eq!(map.of_point(base), map.of_point(far));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn to_points(raw: &[(i32, i32)]) -> Vec<Point> {
        raw.iter()
            .map(|&(x, y)| Point::new(x as f64, y as f64))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Partition correctness: every node lands in exactly one shard —
        /// `of_point` is total, in range, and deterministic — for random
        /// positions, grid cell sizes, and shard counts.
        #[test]
        fn every_node_lands_in_exactly_one_shard(
            raw in proptest::collection::vec((-2000i32..2000, -2000i32..2000), 1..40),
            cell_int in 5u32..200,
            shards in 1usize..16,
        ) {
            let positions = to_points(&raw);
            let cell = cell_int as f64;
            let map = ShardMap::build(&positions, cell, shards);
            let mut per_shard = vec![0usize; map.num_shards()];
            for &p in &positions {
                let s = map.of_point(p) as usize;
                prop_assert!(s < map.num_shards());
                prop_assert_eq!(s as u32, map.of_point(p));
                per_shard[s] += 1;
            }
            // Shard populations partition the node set.
            prop_assert_eq!(per_shard.iter().sum::<usize>(), positions.len());
        }
    }
}
