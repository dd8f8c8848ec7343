//! Road-network geometry substrate.
//!
//! The paper's scenario is *map-based*: vehicles move along the streets of a
//! Helsinki downtown extract, choosing shortest paths between random road
//! points. This crate provides everything that layer needs:
//!
//! * [`Point`] and small 2-D geometry helpers,
//! * [`RoadGraph`] — an undirected road network with CSR adjacency,
//! * [`shortest_path`] — Dijkstra and A* over road graphs,
//! * [`SpatialGrid`] — a uniform hash grid for radius queries, cheapest
//!   when its cell size equals the query radius (contact detection in
//!   `vdtn-net` sizes it to its `3·range` re-query radius),
//! * [`ShardMap`] — a fixed tiling of the plane into whole blocks of grid
//!   cells, for grouping parallel detector work,
//! * map generators ([`gen`]) including the synthetic-Helsinki substitute
//!   documented in `DESIGN.md`, and
//! * a WKT reader/writer ([`wkt`]) compatible with the ONE simulator's map
//!   format, so a real Helsinki extract can be dropped in.
//!
//! # Example
//!
//! ```
//! use vdtn_geo::{dijkstra, GridMapGen, Point};
//!
//! // A 4×3 Manhattan grid with 100 m blocks.
//! let map = GridMapGen { cols: 4, rows: 3, spacing: 100.0 }.generate();
//! let a = map.nearest_vertex(Point::new(0.0, 0.0)).unwrap();
//! let b = map.nearest_vertex(Point::new(300.0, 200.0)).unwrap();
//! let path = dijkstra(&map, a, b).expect("grid maps are connected");
//! assert_eq!(path.length, 500.0); // 3 blocks east + 2 blocks north
//! ```

pub mod gen;
pub mod graph;
pub mod grid;
pub mod point;
pub mod segment;
pub mod shard;
pub mod shortest_path;
pub mod stats;
pub mod wkt;

pub use gen::{GridMapGen, SyntheticCityGen};
pub use graph::{EdgeId, RoadGraph, RoadGraphBuilder, VertexId};
pub use grid::SpatialGrid;
pub use point::{Bounds, Point};
pub use segment::Segment;
pub use shard::ShardMap;
pub use shortest_path::{astar, dijkstra, distance_lower_bound, PathResult};
pub use stats::{map_stats, MapStats};
