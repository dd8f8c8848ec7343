//! Road-network statistics.
//!
//! Used to validate the synthetic-Helsinki substitution ([`crate::gen`]): the
//! aggregates that matter for mobility — extent, connectivity, degree
//! distribution, edge-length distribution — are exactly what this module
//! measures, for both generated maps and loaded WKT extracts.

use crate::graph::RoadGraph;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of a road network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapStats {
    /// Vertex count.
    pub vertices: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Whether the graph is a single connected component.
    pub connected: bool,
    /// Total street length, metres.
    pub total_length_m: f64,
    /// Mean edge length, metres.
    pub mean_edge_m: f64,
    /// Minimum edge length, metres.
    pub min_edge_m: f64,
    /// Maximum edge length, metres.
    pub max_edge_m: f64,
    /// Map extent, metres.
    pub width_m: f64,
    /// Map extent, metres.
    pub height_m: f64,
    /// Mean vertex degree.
    pub mean_degree: f64,
    /// Histogram of vertex degrees, index = degree (capped at 8).
    pub degree_histogram: Vec<usize>,
    /// Street density: metres of road per square kilometre of extent.
    pub density_m_per_km2: f64,
}

/// Compute [`MapStats`] for a graph.
pub fn map_stats(graph: &RoadGraph) -> MapStats {
    let mut min_edge = f64::INFINITY;
    let mut max_edge: f64 = 0.0;
    for e in 0..graph.edge_count() {
        let len = graph.edge_length(crate::graph::EdgeId(e as u32));
        min_edge = min_edge.min(len);
        max_edge = max_edge.max(len);
    }
    if graph.edge_count() == 0 {
        min_edge = 0.0;
    }
    let mut degree_histogram = vec![0usize; 9];
    let mut degree_sum = 0usize;
    for v in graph.vertex_ids() {
        let d = graph.degree(v);
        degree_sum += d;
        degree_histogram[d.min(8)] += 1;
    }
    let bounds = graph.bounds();
    let area_km2 = (bounds.width() * bounds.height() / 1e6).max(1e-9);
    MapStats {
        vertices: graph.vertex_count(),
        edges: graph.edge_count(),
        connected: graph.is_connected(),
        total_length_m: graph.total_length(),
        mean_edge_m: graph.mean_edge_length(),
        min_edge_m: min_edge,
        max_edge_m: max_edge,
        width_m: bounds.width(),
        height_m: bounds.height(),
        mean_degree: if graph.vertex_count() == 0 {
            0.0
        } else {
            degree_sum as f64 / graph.vertex_count() as f64
        },
        degree_histogram,
        density_m_per_km2: graph.total_length() / area_km2,
    }
}

impl std::fmt::Display for MapStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "map: {} vertices, {} edges, connected = {}",
            self.vertices, self.edges, self.connected
        )?;
        writeln!(
            f,
            "extent: {:.0} m x {:.0} m, {:.1} km of road ({:.0} m/km²)",
            self.width_m,
            self.height_m,
            self.total_length_m / 1000.0,
            self.density_m_per_km2
        )?;
        write!(
            f,
            "edges: mean {:.0} m (min {:.0}, max {:.0}); mean degree {:.2}",
            self.mean_edge_m, self.min_edge_m, self.max_edge_m, self.mean_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GridMapGen, SyntheticCityGen};
    use vdtn_sim_core::SimRng;

    #[test]
    fn grid_stats_exact() {
        let g = GridMapGen {
            cols: 3,
            rows: 3,
            spacing: 100.0,
        }
        .generate();
        let s = map_stats(&g);
        assert_eq!(s.vertices, 9);
        assert_eq!(s.edges, 12);
        assert!(s.connected);
        assert_eq!(s.total_length_m, 1200.0);
        assert_eq!(s.mean_edge_m, 100.0);
        assert_eq!(s.min_edge_m, 100.0);
        assert_eq!(s.max_edge_m, 100.0);
        // Degrees: 4 corners of 2, 4 sides of 3, 1 centre of 4.
        assert_eq!(s.degree_histogram[2], 4);
        assert_eq!(s.degree_histogram[3], 4);
        assert_eq!(s.degree_histogram[4], 1);
        assert!((s.mean_degree - 24.0 / 9.0).abs() < 1e-12);
        // 1200 m over 0.04 km².
        assert!((s.density_m_per_km2 - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn synthetic_city_stats_in_calibrated_band() {
        let g = SyntheticCityGen::default().generate(&mut SimRng::seed_from_u64(1));
        let s = map_stats(&g);
        assert!(s.connected);
        assert!((1000.0..1400.0).contains(&s.width_m));
        assert!((800.0..1100.0).contains(&s.height_m));
        assert!((150.0..500.0).contains(&s.mean_edge_m));
        // Downtown street density: tens of km per km².
        assert!(s.density_m_per_km2 > 3_000.0, "{}", s.density_m_per_km2);
    }

    #[test]
    fn display_renders() {
        let g = GridMapGen::default().generate();
        let s = map_stats(&g);
        let text = format!("{s}");
        assert!(text.contains("vertices"));
        assert!(text.contains("mean degree"));
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::graph::RoadGraphBuilder::new().build();
        let s = map_stats(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.min_edge_m, 0.0);
    }
}
