//! Scenario descriptions: everything needed to reproduce a run.
//!
//! A [`Scenario`] is plain serialisable data (JSON via serde) so experiments
//! can be stored next to their results. [`Scenario::validate`] catches
//! configuration nonsense before the engine ever runs and names it with a
//! [`ScenarioError`].

use serde::{Deserialize, Serialize};
use std::fmt;
use vdtn_bundle::PolicyCombo;
pub use vdtn_bundle::TrafficSpec;
use vdtn_geo::{GridMapGen, Point, RoadGraph, SyntheticCityGen};
use vdtn_mobility::SpmbConfig;
use vdtn_net::RadioInterface;
use vdtn_routing::RouterKind;
use vdtn_sim_core::SimRng;

/// Which road map the scenario runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MapSpec {
    /// Regular grid (tests, analytic scenarios).
    Grid(GridMapGen),
    /// Synthetic city — the Helsinki substitute (see [`SyntheticCityGen`]).
    Synthetic(SyntheticCityGen),
    /// Inline WKT text (drop-in for a real map extract).
    WktText(String),
}

/// Endpoints of inline WKT streets closer than this many metres are one
/// intersection.
const WKT_SNAP_METRES: f64 = 0.5;

impl MapSpec {
    /// Check the map parameters, naming the first rule broken. Inline WKT
    /// must parse and hold at least one road.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MapSpec::Grid(g) => g.validate(),
            MapSpec::Synthetic(s) => s.validate(),
            MapSpec::WktText(text) => {
                let graph = vdtn_geo::wkt::parse_document_connected(text, WKT_SNAP_METRES)
                    .map_err(|e| e.to_string())?;
                if graph.vertex_count() == 0 {
                    return Err("WKT map has no roads".into());
                }
                Ok(())
            }
        }
    }

    /// Materialise the road graph (deterministic given `rng`).
    ///
    /// Panics if the map fails [`MapSpec::validate`].
    pub fn build(&self, rng: &mut SimRng) -> RoadGraph {
        match self {
            MapSpec::Grid(g) => g.generate(),
            MapSpec::Synthetic(s) => s.generate(rng),
            MapSpec::WktText(text) => {
                vdtn_geo::wkt::parse_document_connected(text, WKT_SNAP_METRES)
                    .unwrap_or_else(|e| panic!("{e}"))
            }
        }
    }
}

/// Where stationary relay nodes are placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RelayPlacement {
    /// At the busiest crossroads: highest-degree vertices, greedily spread
    /// so no two relays are closer than a quarter of the map diagonal.
    /// This mirrors the paper's "placed at crossroads" (its Figure 3).
    HighDegreeSpread,
    /// Explicit coordinates (snapped to the nearest road vertex).
    Explicit(Vec<Point>),
}

/// How a node group moves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MobilitySpec {
    /// The paper's vehicle model.
    ShortestPathMapBased(SpmbConfig),
    /// Stationary relays.
    Stationary(RelayPlacement),
}

/// A homogeneous group of nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeGroup {
    /// Group label for reports ("vehicles", "relays").
    pub name: String,
    /// Number of nodes in the group.
    pub count: usize,
    /// Per-node buffer capacity, bytes.
    pub buffer_bytes: u64,
    /// Movement model.
    pub mobility: MobilitySpec,
    /// True for relay infrastructure: such nodes never originate traffic
    /// and are excluded from the destination pool.
    pub is_relay: bool,
}

/// A complete, reproducible experiment description.
///
/// Unknown JSON keys are ignored, so scenario files written by older
/// versions, such as those with a `"detector"` key, still load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label carried into reports.
    pub name: String,
    /// Master seed; all RNG lanes derive from it.
    pub seed: u64,
    /// Simulated duration in seconds (paper: 43 200 = 12 h).
    pub duration_secs: f64,
    /// Engine tick in seconds (paper-equivalent ONE default: 1 s).
    pub tick_secs: f64,
    /// Road map.
    pub map: MapSpec,
    /// Node groups; node ids are assigned in group order.
    pub groups: Vec<NodeGroup>,
    /// Radio model shared by all nodes.
    pub radio: RadioInterface,
    /// Traffic workload.
    pub traffic: TrafficSpec,
    /// Routing protocol.
    pub router: RouterKind,
    /// Scheduling/dropping combination (ignored by MaxProp and PRoPHET,
    /// which bring their own policies — exactly as in the paper).
    pub policy: PolicyCombo,
    /// Sampling period for time-series collectors, seconds (0 disables).
    pub sample_period_secs: f64,
}

impl Scenario {
    /// Total node count across groups.
    pub fn node_count(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Check the scenario's rules, including those of the map, radio,
    /// traffic, SPMB and relay-placement values it embeds, returning the
    /// first one broken.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.duration_secs.is_nan() || self.duration_secs <= 0.0 {
            return Err(ScenarioError::Duration(self.duration_secs));
        }
        // The clock counts whole milliseconds: a shorter tick rounds to 0
        // and would never advance it.
        if self.tick_secs.is_nan() || self.tick_secs < 0.001 {
            return Err(ScenarioError::Tick(self.tick_secs));
        }
        if self.tick_secs > self.duration_secs {
            return Err(ScenarioError::TickLongerThanRun);
        }
        self.map.validate().map_err(ScenarioError::Map)?;
        if self.groups.is_empty() {
            return Err(ScenarioError::NoGroups);
        }
        self.radio.validate().map_err(ScenarioError::Radio)?;
        let traffic_nodes: usize = self
            .groups
            .iter()
            .filter(|g| !g.is_relay)
            .map(|g| g.count)
            .sum();
        if traffic_nodes < 2 {
            return Err(ScenarioError::TrafficNodes(traffic_nodes));
        }
        self.traffic.validate().map_err(ScenarioError::Traffic)?;
        for g in &self.groups {
            if g.count == 0 {
                return Err(ScenarioError::EmptyGroup(g.name.clone()));
            }
            if g.buffer_bytes == 0 {
                return Err(ScenarioError::ZeroBuffer(g.name.clone()));
            }
            match &g.mobility {
                MobilitySpec::ShortestPathMapBased(cfg) => cfg
                    .validate()
                    .map_err(|reason| ScenarioError::Spmb(g.name.clone(), reason))?,
                MobilitySpec::Stationary(RelayPlacement::Explicit(p)) if p.len() != g.count => {
                    return Err(ScenarioError::RelayPoints(g.name.clone(), g.count, p.len()));
                }
                MobilitySpec::Stationary(_) => {}
            }
        }
        Ok(())
    }
}

/// The scenario rule [`Scenario::validate`] found broken.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `duration_secs` is not positive.
    Duration(f64),
    /// `tick_secs` is below the clock's 1 ms resolution.
    Tick(f64),
    /// `tick_secs` exceeds `duration_secs`.
    TickLongerThanRun,
    /// The map spec is invalid, for the given reason.
    Map(String),
    /// `groups` is empty.
    NoGroups,
    /// Fewer than two non-relay nodes can exchange traffic.
    TrafficNodes(usize),
    /// The traffic spec is invalid, for the given reason.
    Traffic(String),
    /// The named group has no nodes.
    EmptyGroup(String),
    /// The named group has a zero-byte buffer.
    ZeroBuffer(String),
    /// The radio range or rate is not finite and positive.
    Radio(&'static str),
    /// The named group's SPMB configuration is invalid, for the given reason.
    Spmb(String, String),
    /// The named group has this many nodes but that many explicit relay
    /// points.
    RelayPoints(String, usize, usize),
    /// The map builds with this many vertices, fewer than the two a
    /// route needs.
    MapTooSmall(usize),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Duration(x) => write!(f, "duration must be positive, got {x}"),
            ScenarioError::Tick(x) => write!(f, "tick must be at least 1 ms, got {x} s"),
            ScenarioError::TickLongerThanRun => write!(f, "tick longer than the run"),
            ScenarioError::Map(reason) => write!(f, "invalid map: {reason}"),
            ScenarioError::NoGroups => write!(f, "no node groups"),
            ScenarioError::TrafficNodes(n) => {
                write!(f, "need at least two non-relay nodes for traffic, got {n}")
            }
            ScenarioError::Traffic(reason) => write!(f, "invalid traffic: {reason}"),
            ScenarioError::EmptyGroup(name) => write!(f, "empty group '{name}'"),
            ScenarioError::ZeroBuffer(name) => write!(f, "zero buffer in group '{name}'"),
            ScenarioError::Radio(reason) => f.write_str(reason),
            ScenarioError::Spmb(name, reason) => write!(f, "group '{name}': {reason}"),
            ScenarioError::RelayPoints(name, n, k) => {
                write!(f, "group '{name}' has {n} nodes but {k} explicit positions")
            }
            ScenarioError::MapTooSmall(n) => {
                write!(f, "map must have at least two vertices, got {n}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Pick `count` relay positions: highest-degree vertices, greedily enforcing
/// a minimum spread of a quarter of the map diagonal (relaxed geometrically
/// until enough fit).
pub fn place_relays_high_degree(graph: &RoadGraph, count: usize) -> Vec<Point> {
    assert!(graph.vertex_count() > 0, "empty map");
    let mut by_degree: Vec<_> = graph.vertex_ids().collect();
    by_degree.sort_by_key(|&v| {
        // Stable order: degree descending, then id ascending.
        (std::cmp::Reverse(graph.degree(v)), v.0)
    });
    let bounds = graph.bounds();
    let diag = (bounds.width().powi(2) + bounds.height().powi(2)).sqrt();
    let mut min_dist = diag / 4.0;
    loop {
        let mut picked: Vec<Point> = Vec::with_capacity(count);
        for &v in &by_degree {
            let p = graph.position(v);
            if picked.iter().all(|&q| q.distance(p) >= min_dist) {
                picked.push(p);
                if picked.len() == count {
                    return picked;
                }
            }
        }
        // Not enough spread-out vertices: relax the constraint.
        min_dist /= 2.0;
        if min_dist < 1.0 {
            // Degenerate map: just take the top-degree vertices.
            return by_degree
                .iter()
                .take(count)
                .map(|&v| graph.position(v))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn_sim_core::{SimDuration, SimRng};

    fn minimal() -> Scenario {
        Scenario {
            name: "test".into(),
            seed: 1,
            duration_secs: 100.0,
            tick_secs: 1.0,
            map: MapSpec::Grid(GridMapGen {
                cols: 3,
                rows: 3,
                spacing: 100.0,
            }),
            groups: vec![NodeGroup {
                name: "vehicles".into(),
                count: 4,
                buffer_bytes: 1_000_000,
                mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig::default()),
                is_relay: false,
            }],
            radio: RadioInterface::paper_80211b(),
            traffic: TrafficSpec::paper(SimDuration::from_mins(60)),
            router: RouterKind::Epidemic,
            policy: PolicyCombo::FIFO_FIFO,
            sample_period_secs: 0.0,
        }
    }

    #[test]
    fn minimal_scenario_validates() {
        assert_eq!(minimal().validate(), Ok(()));
        assert_eq!(minimal().node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "two non-relay nodes")]
    fn rejects_relay_only_traffic() {
        let mut s = minimal();
        s.groups[0].is_relay = true;
        assert_eq!(s.validate(), Err(ScenarioError::TrafficNodes(0)));
        // The message `World::build` panics with.
        panic!("{}", s.validate().unwrap_err());
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_zero_duration() {
        let mut s = minimal();
        s.duration_secs = 0.0;
        assert_eq!(s.validate(), Err(ScenarioError::Duration(0.0)));
        // The message `World::build` panics with.
        panic!("{}", s.validate().unwrap_err());
    }

    #[test]
    fn rejects_bad_clock_values_with_typed_errors() {
        let mut s = minimal();
        s.duration_secs = -5.0;
        assert_eq!(s.validate(), Err(ScenarioError::Duration(-5.0)));
        s.duration_secs = f64::NAN;
        assert!(matches!(s.validate(), Err(ScenarioError::Duration(_))));
        let mut s = minimal();
        s.tick_secs = 0.0;
        assert_eq!(s.validate(), Err(ScenarioError::Tick(0.0)));
        // Below the clock's 1 ms resolution a tick rounds to 0.
        s.tick_secs = 0.0001;
        assert_eq!(s.validate(), Err(ScenarioError::Tick(0.0001)));
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "tick must be at least 1 ms, got 0.0001 s"
        );
        s.tick_secs = 0.001;
        assert_eq!(s.validate(), Ok(()));
        s.tick_secs = s.duration_secs + 1.0;
        assert_eq!(s.validate(), Err(ScenarioError::TickLongerThanRun));
        let mut s = minimal();
        s.groups[0].buffer_bytes = 0;
        let err = s.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("zero buffer in group '{}'", s.groups[0].name)
        );
    }

    #[test]
    fn rejects_bad_nested_values_with_typed_errors() {
        let mut s = minimal();
        s.radio.range = -1.0;
        let err = s.validate().unwrap_err();
        assert_eq!(err.to_string(), "radio range must be finite and positive");
        let mut s = minimal();
        s.traffic.ttl = SimDuration::ZERO;
        let err = s.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid traffic: zero TTL would expire messages at birth"
        );
        let mut s = minimal();
        s.groups[0].mobility = MobilitySpec::ShortestPathMapBased(SpmbConfig {
            speed_lo: 0.0,
            ..SpmbConfig::default()
        });
        let err = s.validate().unwrap_err();
        assert!(matches!(&err, ScenarioError::Spmb(name, _) if name == "vehicles"));
        assert!(err.to_string().contains("invalid speed range"), "{err}");
        let explicit =
            |n| MobilitySpec::Stationary(RelayPlacement::Explicit(vec![Point::ORIGIN; n]));
        s.groups[0].mobility = explicit(1);
        let err = ScenarioError::RelayPoints("vehicles".into(), 4, 1);
        assert_eq!(s.validate(), Err(err));
        s.groups[0].mobility = explicit(4);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn rejects_bad_maps_with_typed_errors() {
        let reason = |map: MapSpec| {
            let mut s = minimal();
            s.map = map;
            match s.validate() {
                Err(ScenarioError::Map(reason)) => reason,
                other => panic!("expected a map error, got {other:?}"),
            }
        };
        let grid = |cols, spacing| {
            MapSpec::Grid(GridMapGen {
                cols,
                rows: 3,
                spacing,
            })
        };
        assert!(reason(grid(1, 100.0)).contains("at least 2×2"));
        assert!(reason(grid(3, 0.0)).contains("grid spacing"));
        let city = MapSpec::Synthetic(SyntheticCityGen {
            delete_fraction: 1.0,
            ..SyntheticCityGen::default()
        });
        assert!(reason(city).contains("delete_fraction"));
        let torn = reason(MapSpec::WktText("LINESTRING (0 0".into()));
        assert!(torn.contains("WKT"), "{torn}");
        assert_eq!(
            reason(MapSpec::WktText("# no roads".into())),
            "WKT map has no roads"
        );
    }

    #[test]
    fn map_specs_build() {
        let mut rng = SimRng::seed_from_u64(1);
        let g = MapSpec::Grid(GridMapGen::default()).build(&mut rng);
        assert!(g.vertex_count() > 0);
        let s = MapSpec::Synthetic(SyntheticCityGen::default()).build(&mut rng);
        assert!(s.is_connected());
        let w = MapSpec::WktText("LINESTRING (0 0, 10 0, 20 0)".into()).build(&mut rng);
        assert_eq!(w.vertex_count(), 3);
    }

    #[test]
    fn relay_placement_spreads() {
        let mut rng = SimRng::seed_from_u64(2);
        let map = MapSpec::Synthetic(SyntheticCityGen::default()).build(&mut rng);
        let relays = place_relays_high_degree(&map, 5);
        assert_eq!(relays.len(), 5);
        // All distinct and reasonably spread.
        for i in 0..relays.len() {
            for j in (i + 1)..relays.len() {
                assert!(relays[i].distance(relays[j]) > 100.0);
            }
        }
    }

    #[test]
    fn relay_placement_degenerate_map() {
        let g = GridMapGen {
            cols: 2,
            rows: 2,
            spacing: 10.0,
        }
        .generate();
        let relays = place_relays_high_degree(&g, 4);
        assert_eq!(relays.len(), 4);
    }

    #[test]
    fn scenario_serde_round_trip() {
        let s = minimal();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    /// Scenario files written while the detector backend was a choice
    /// carry `"detector": "Naive"` (or `"Grid"`); the reader ignores it.
    #[test]
    fn legacy_detector_key_is_ignored() {
        let json = serde_json::to_string(&minimal()).unwrap();
        let legacy = json.replacen("\"traffic\":", "\"detector\":\"Naive\",\"traffic\":", 1);
        assert_ne!(json, legacy, "the legacy key was spliced in");
        let parsed: Scenario = serde_json::from_str(&legacy).unwrap();
        let plain: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, plain);
    }
}
