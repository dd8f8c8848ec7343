//! Scenario builders for the repository benchmark (`benchmark/`): the
//! scaled paper fleet behind `city_mobility` and the dense stationary mesh
//! behind `dense_mesh`, plus [`canon`] for report-identity checks between
//! engine modes.

use vdtn::scenario::{MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, TrafficSpec};
use vdtn::{PolicyCombo, RouterKind, SimDuration, SimReport};
use vdtn_geo::{GridMapGen, Point};
use vdtn_mobility::SpmbConfig;
use vdtn_net::RadioInterface;

/// A paper-flavoured scenario scaled to `vehicles` nodes.
///
/// The road grid grows with the fleet so vehicle density (and therefore
/// contact load) stays in the paper's regime instead of collapsing into one
/// giant clique; waits are the paper's 5–15 minutes, which is exactly the
/// parked-heavy dynamic the event-driven scheduler exploits.
pub fn engine_scenario(vehicles: usize, duration_secs: f64, seed: u64) -> Scenario {
    let side = ((vehicles as f64).sqrt().ceil() as usize).max(3);
    Scenario {
        name: format!("engine-bench-{vehicles}"),
        seed,
        duration_secs,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: side,
            rows: side,
            spacing: 150.0,
        }),
        groups: vec![NodeGroup {
            name: "vehicles".into(),
            count: vehicles,
            buffer_bytes: 20_000_000,
            mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig::default()),
            is_relay: false,
        }],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec::paper(SimDuration::from_mins(30)),
        router: RouterKind::Epidemic,
        policy: PolicyCombo::LIFETIME,
        sample_period_secs: 0.0,
    }
}

/// A routing-round-dominated scenario: `nodes` stationary nodes pinned to a
/// tight grid whose spacing (25 m) sits below the paper radio range (30 m),
/// so every node is permanently connected to its four lattice neighbours.
///
/// Movement, contact detection and TTL housekeeping are all negligible
/// here; what remains is phase 5 — every idle connection asking its routers
/// for the next message each tick. Traffic is paced so each new message
/// floods the mesh within a few ticks and the contacts then sit *idle with
/// full buffers*: the regime where a naive round re-sorts and rescans every
/// buffer per connection per tick for nothing, and where the candidate
/// indexes and silent-round memo reduce the whole round to generation
/// checks.
pub fn dense_routing_scenario(
    nodes: usize,
    duration_secs: f64,
    router: RouterKind,
    policy: PolicyCombo,
    seed: u64,
) -> Scenario {
    let side = (nodes as f64).sqrt().ceil() as usize;
    let spacing = 25.0;
    let points: Vec<Point> = (0..nodes)
        .map(|k| Point::new((k % side) as f64 * spacing, (k / side) as f64 * spacing))
        .collect();
    Scenario {
        name: format!("routing-round-{nodes}"),
        seed,
        duration_secs,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: side,
            rows: side,
            spacing,
        }),
        groups: vec![NodeGroup {
            name: "mesh".into(),
            count: nodes,
            buffer_bytes: 50_000_000,
            mobility: MobilitySpec::Stationary(RelayPlacement::Explicit(points)),
            is_relay: false,
        }],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec {
            // Creation intervals scale inversely with the fleet so the
            // per-node message pressure (and therefore buffer depth, the
            // quantity the routing round scales with) is size-invariant.
            interval_lo: 200.0 / nodes as f64,
            interval_hi: 500.0 / nodes as f64,
            size_lo: 10_000,
            size_hi: 50_000,
            ttl: SimDuration::from_mins(30),
        },
        router,
        policy,
        sample_period_secs: 0.0,
    }
}

/// Canonical report serialisation with the wall clock zeroed, for
/// bit-identity checks between modes.
pub fn canon(mut report: SimReport) -> String {
    report.wall_secs = 0.0;
    serde_json::to_string(&report).expect("reports serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdtn::engine::{EngineMode, World};

    #[test]
    fn bench_scenario_modes_agree() {
        let sc = engine_scenario(20, 300.0, 1);
        let ticked = World::build_with_mode(&sc, EngineMode::Ticked).run();
        let event = World::build_with_mode(&sc, EngineMode::EventDriven).run();
        assert!(ticked.messages.created > 0);
        assert_eq!(canon(ticked), canon(event));
    }
}
