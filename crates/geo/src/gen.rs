//! Procedural road-map generators.
//!
//! The paper runs on a WKT extract of downtown Helsinki shipped with the ONE
//! simulator (≈4500 m × 3400 m). That data file is not redistributable here,
//! so [`SyntheticCityGen`] produces a *synthetic* city with the same
//! aggregate properties (extent, block scale, connectivity, mean edge
//! length): an irregular grid with a fraction of streets deleted, a fraction
//! of diagonal shortcut streets added, and jittered intersections. If you
//! have the original `roads.wkt`, load it through [`crate::wkt`] instead and
//! everything else is unchanged.

use crate::graph::{RoadGraph, RoadGraphBuilder};
use crate::point::Point;
use serde::{Deserialize, Serialize};
use vdtn_sim_core::SimRng;

/// A plain rectangular grid map (every street present, no jitter).
///
/// Useful for tests and for scenarios where analytic expectations are needed
/// (e.g. Manhattan distances).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridMapGen {
    /// Number of intersection columns (≥ 2).
    pub cols: usize,
    /// Number of intersection rows (≥ 2).
    pub rows: usize,
    /// Distance between adjacent intersections, metres.
    pub spacing: f64,
}

impl Default for GridMapGen {
    fn default() -> Self {
        GridMapGen {
            cols: 10,
            rows: 8,
            spacing: 500.0,
        }
    }
}

impl GridMapGen {
    /// Check the grid's shape and spacing, naming the first rule broken.
    pub fn validate(&self) -> Result<(), String> {
        check_shape("grid", self.cols, self.rows)?;
        check_extent("grid spacing", self.spacing)
    }

    /// Generate the grid graph.
    ///
    /// Panics if the grid fails [`GridMapGen::validate`].
    pub fn generate(&self) -> RoadGraph {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut b = RoadGraphBuilder::new();
        let at = |i: usize, j: usize| Point::new(i as f64 * self.spacing, j as f64 * self.spacing);
        for i in 0..self.cols {
            for j in 0..self.rows {
                if i + 1 < self.cols {
                    b.add_segment(at(i, j), at(i + 1, j));
                }
                if j + 1 < self.rows {
                    b.add_segment(at(i, j), at(i, j + 1));
                }
            }
        }
        b.build()
    }
}

/// Synthetic city generator — the Helsinki-extract substitute.
///
/// Starts from a `cols × rows` grid over `width × height` metres, then:
/// 1. jitters every interior intersection by up to `jitter` metres,
/// 2. deletes `delete_fraction` of the street segments at random,
/// 3. adds `diagonal_fraction` of block diagonals as shortcut streets,
/// 4. keeps the largest connected component (so mobility can always route).
///
/// The defaults are **calibrated to the paper's contact regime**: the paper
/// simulates "a small part of the city of Helsinki" (its Figure 3 shows a
/// downtown sub-area, not ONE's full 4500 m × 3400 m extract), and the
/// policy/protocol effects it reports only arise when 40 vehicles meet
/// frequently enough to exchange most of their buffers. A 1300 m × 1000 m
/// area with ≈330 m blocks reproduces the paper's regime (delivery ratios
/// 0.6–0.98, mean contact ≈30 s). For the full-city extent use
/// [`SyntheticCityGen::full_city`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticCityGen {
    /// Map width in metres.
    pub width: f64,
    /// Map height in metres.
    pub height: f64,
    /// Intersection columns.
    pub cols: usize,
    /// Intersection rows.
    pub rows: usize,
    /// Max jitter applied to interior intersections, metres.
    pub jitter: f64,
    /// Fraction of grid streets deleted (0–1).
    pub delete_fraction: f64,
    /// Fraction of blocks receiving a diagonal street (0–1).
    pub diagonal_fraction: f64,
}

impl Default for SyntheticCityGen {
    /// Defaults sized and calibrated to the paper's "small part of
    /// Helsinki" scenario (see the type docs).
    fn default() -> Self {
        SyntheticCityGen {
            width: 1300.0,
            height: 1000.0,
            cols: 5,
            rows: 4,
            jitter: 40.0,
            delete_fraction: 0.10,
            diagonal_fraction: 0.10,
        }
    }
}

impl SyntheticCityGen {
    /// The full-city extent matching ONE's complete Helsinki extract
    /// (4500 m × 3400 m). Used by the sparse-network ablation.
    pub fn full_city() -> Self {
        SyntheticCityGen {
            width: 4500.0,
            height: 3400.0,
            cols: 16,
            rows: 12,
            jitter: 60.0,
            delete_fraction: 0.12,
            diagonal_fraction: 0.10,
        }
    }
}

impl SyntheticCityGen {
    /// Check the city's shape, extent and street fractions, naming the
    /// first rule broken.
    pub fn validate(&self) -> Result<(), String> {
        check_shape("city", self.cols, self.rows)?;
        check_extent("city width", self.width)?;
        check_extent("city height", self.height)?;
        if !(0.0..1.0).contains(&self.delete_fraction) {
            return Err(format!(
                "city delete_fraction must lie in [0, 1), got {}",
                self.delete_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.diagonal_fraction) {
            return Err(format!(
                "city diagonal_fraction must lie in [0, 1], got {}",
                self.diagonal_fraction
            ));
        }
        Ok(())
    }

    /// Generate the city graph deterministically from `rng`.
    ///
    /// Panics if the city fails [`SyntheticCityGen::validate`].
    pub fn generate(&self, rng: &mut SimRng) -> RoadGraph {
        self.validate().unwrap_or_else(|e| panic!("{e}"));

        let dx = self.width / (self.cols - 1) as f64;
        let dy = self.height / (self.rows - 1) as f64;

        // 1. Jittered intersection positions. Border intersections stay put
        //    so the map keeps its full extent.
        let mut pos = vec![Point::ORIGIN; self.cols * self.rows];
        for i in 0..self.cols {
            for j in 0..self.rows {
                let base = Point::new(i as f64 * dx, j as f64 * dy);
                let interior = i > 0 && i + 1 < self.cols && j > 0 && j + 1 < self.rows;
                let p = if interior && self.jitter > 0.0 {
                    Point::new(
                        base.x + rng.range_f64(-self.jitter, self.jitter),
                        base.y + rng.range_f64(-self.jitter, self.jitter),
                    )
                } else {
                    base
                };
                pos[i * self.rows + j] = p;
            }
        }
        let at = |i: usize, j: usize| pos[i * self.rows + j];

        // 2. Grid streets, each kept with probability 1 - delete_fraction.
        let mut b = RoadGraphBuilder::new();
        for i in 0..self.cols {
            for j in 0..self.rows {
                if i + 1 < self.cols && !rng.chance(self.delete_fraction) {
                    b.add_segment(at(i, j), at(i + 1, j));
                }
                if j + 1 < self.rows && !rng.chance(self.delete_fraction) {
                    b.add_segment(at(i, j), at(i, j + 1));
                }
            }
        }

        // 3. Diagonal shortcuts across a fraction of blocks, random direction.
        for i in 0..self.cols - 1 {
            for j in 0..self.rows - 1 {
                if rng.chance(self.diagonal_fraction) {
                    if rng.chance(0.5) {
                        b.add_segment(at(i, j), at(i + 1, j + 1));
                    } else {
                        b.add_segment(at(i + 1, j), at(i, j + 1));
                    }
                }
            }
        }

        // 4. Largest component: guarantees shortest paths exist between any
        //    two vertices that mobility might sample.
        b.build_largest_component()
    }
}

/// Both generators lay out at least a 2×2 lattice of intersections.
fn check_shape(what: &str, cols: usize, rows: usize) -> Result<(), String> {
    if cols < 2 || rows < 2 {
        return Err(format!(
            "{what} needs at least 2×2 intersections, got {cols}×{rows}"
        ));
    }
    Ok(())
}

/// Lengths in metres are finite and positive.
fn check_extent(what: &str, metres: f64) -> Result<(), String> {
    if !(metres.is_finite() && metres > 0.0) {
        return Err(format!("{what} must be finite and positive, got {metres}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_map_counts() {
        let g = GridMapGen {
            cols: 4,
            rows: 3,
            spacing: 100.0,
        }
        .generate();
        assert_eq!(g.vertex_count(), 12);
        // Horizontal: 3 per row × 3 rows; vertical: 2 per column × 4 columns.
        assert_eq!(g.edge_count(), 9 + 8);
        assert!(g.is_connected());
        assert_eq!(g.bounds().width(), 300.0);
        assert_eq!(g.bounds().height(), 200.0);
    }

    #[test]
    fn synthetic_city_is_connected_and_sized() {
        let gen = SyntheticCityGen::default();
        let mut rng = SimRng::seed_from_u64(1);
        let g = gen.generate(&mut rng);
        assert!(
            g.is_connected(),
            "largest-component extraction must connect"
        );
        // Retains the large majority of the 5×4 = 20 intersections.
        assert!(g.vertex_count() >= 16, "got {}", g.vertex_count());
        // Extent is preserved by pinned borders (largest component keeps them
        // in practice for these parameters).
        assert!(g.bounds().width() > 1100.0);
        assert!(g.bounds().height() > 850.0);
        // Mean edge length in the right ballpark (grid pitch ≈330 m).
        let mean = g.mean_edge_length();
        assert!((150.0..500.0).contains(&mean), "mean edge {mean}");
    }

    #[test]
    fn full_city_is_connected_and_large() {
        let gen = SyntheticCityGen::full_city();
        let mut rng = SimRng::seed_from_u64(1);
        let g = gen.generate(&mut rng);
        assert!(g.is_connected());
        assert!(g.vertex_count() > 150, "got {}", g.vertex_count());
        assert!(g.bounds().width() > 4000.0);
        assert!(g.bounds().height() > 3000.0);
    }

    #[test]
    fn synthetic_city_deterministic_per_seed() {
        let gen = SyntheticCityGen::default();
        let a = gen.generate(&mut SimRng::seed_from_u64(7));
        let b = gen.generate(&mut SimRng::seed_from_u64(7));
        let c = gen.generate(&mut SimRng::seed_from_u64(8));
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for (pa, pb) in a.positions().iter().zip(b.positions()) {
            assert_eq!(pa, pb);
        }
        // Different seed ⇒ (almost surely) different map.
        assert!(
            a.edge_count() != c.edge_count()
                || a.positions().iter().zip(c.positions()).any(|(x, y)| x != y)
        );
    }

    #[test]
    fn no_deletions_no_jitter_reduces_to_grid() {
        let gen = SyntheticCityGen {
            width: 300.0,
            height: 200.0,
            cols: 4,
            rows: 3,
            jitter: 0.0,
            delete_fraction: 0.0,
            diagonal_fraction: 0.0,
        };
        let g = gen.generate(&mut SimRng::seed_from_u64(3));
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 17);
    }

    #[test]
    fn heavy_deletion_still_connected() {
        let gen = SyntheticCityGen {
            delete_fraction: 0.45,
            ..SyntheticCityGen::default()
        };
        for seed in 0..5 {
            let g = gen.generate(&mut SimRng::seed_from_u64(seed));
            assert!(g.is_connected());
            assert!(g.vertex_count() >= 2);
        }
    }
}
