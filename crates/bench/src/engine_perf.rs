//! Scenario builder and measurement helpers for the engine-scheduler
//! benchmarks (ticked vs event-driven stepping).
//!
//! Used by the `engine_bench` binary, whose `--json` mode records the perf
//! trajectory in `BENCH_engine.json`, and by the repository benchmark.

use vdtn::engine::{EngineMode, EngineStats, World};
use vdtn::scenario::{MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, TrafficSpec};
use vdtn::{DetectorBackend, PolicyCombo, RouterKind, SimDuration, SimReport};
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
        detector: DetectorBackend::Grid,
        traffic: TrafficSpec::paper(SimDuration::from_mins(30)),
        router: RouterKind::Epidemic,
        policy: PolicyCombo::LIFETIME,
        sample_period_secs: 0.0,
    }
}

/// A mobility-bound scenario: the paper's vehicle fleet with traffic made
/// deliberately sparse (tens of minutes between creations, small bundles),
/// so the run is dominated by movement and contact detection — the regime
/// the motion-segment protocol targets. The event engine should win purely
/// on elided movement work: nearly every node-tick is a mid-segment
/// evaluation the analytic columns answer without stepping the model.
pub fn mobility_bound_scenario(vehicles: usize, duration_secs: f64, seed: u64) -> Scenario {
    let mut scenario = engine_scenario(vehicles, duration_secs, seed);
    scenario.name = format!("mobility-bound-{vehicles}");
    scenario.traffic = TrafficSpec {
        interval_lo: 600.0,
        interval_hi: 1_200.0,
        size_lo: 10_000,
        size_hi: 50_000,
        ttl: SimDuration::from_mins(30),
    };
    scenario
}

/// A routing-round-dominated scenario: `nodes` stationary nodes pinned to a
/// tight grid whose spacing (25 m) sits below the paper radio range (30 m),
/// so every node is permanently connected to its four lattice neighbours.
///
/// Movement, contact detection and TTL housekeeping are all negligible
/// here; what remains is phase 5 — every idle connection asking its routers
/// for the next message each tick. Traffic is paced so each new message
/// floods the mesh within a few ticks and the contacts then sit *idle with
/// full buffers*: the regime the issue targets, where the baseline
/// re-allocates, re-sorts and rescans every buffer per connection per tick
/// for nothing, and where the schedule cache, offer cursors and silent-round
/// memo reduce the whole round to generation checks.
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
        detector: DetectorBackend::Grid,
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

/// A transfer-bound scenario: `pairs` isolated stationary node pairs (both
/// partners pinned to the same road vertex, pairs a full grid cell apart)
/// exchanging **few, large bundles over a very slow radio** — 2 MB at
/// 4 kB/s is 500 s of drain per bundle, under permanent contacts.
///
/// Movement, contact churn and the routing round are all negligible; the
/// run is wall-to-wall byte draining. The per-tick engine burns one tick
/// per simulated second of drain; the event engine schedules one
/// `TransferComplete` instant per bundle and sleeps through the drain, so
/// its work is O(bundles), independent of how long each bundle drains.
pub fn transfer_bound_scenario(pairs: usize, duration_secs: f64, seed: u64) -> Scenario {
    let side = ((pairs as f64).sqrt().ceil() as usize).max(2);
    let spacing = 200.0; // ≫ radio range: pairs never see each other
    let points: Vec<Point> = (0..pairs * 2)
        .map(|k| {
            let cell = k / 2; // both partners of a pair share a vertex
            Point::new(
                (cell % side) as f64 * spacing,
                (cell / side) as f64 * spacing,
            )
        })
        .collect();
    Scenario {
        name: format!("transfer-bound-{pairs}x2"),
        seed,
        duration_secs,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: side,
            rows: side,
            spacing,
        }),
        groups: vec![NodeGroup {
            name: "pairs".into(),
            count: pairs * 2,
            buffer_bytes: 200_000_000,
            mobility: MobilitySpec::Stationary(RelayPlacement::Explicit(points)),
            is_relay: false,
        }],
        // The paper's range with a deliberately slow radio: each bundle
        // occupies its link for minutes of simulated time.
        radio: RadioInterface {
            range: 30.0,
            rate: 4_000.0,
        },
        detector: DetectorBackend::Grid,
        traffic: TrafficSpec {
            interval_lo: 120.0,
            interval_hi: 240.0,
            size_lo: 1_000_000,
            size_hi: 2_000_000,
            ttl: SimDuration::from_mins(120),
        },
        router: RouterKind::Epidemic,
        policy: PolicyCombo::LIFETIME,
        sample_period_secs: 0.0,
    }
}

/// Run the scenario in the given mode, returning the report (whose
/// `wall_secs` is the engine-loop wall time).
pub fn run_mode(scenario: &Scenario, mode: EngineMode) -> SimReport {
    World::build_with_mode(scenario, mode).run()
}

/// [`run_mode`] plus the engine's motion counters — the per-size
/// skip-rate rows of `BENCH_engine.json`'s `motion` section.
pub fn run_mode_with_stats(scenario: &Scenario, mode: EngineMode) -> (SimReport, EngineStats) {
    World::build_with_mode(scenario, mode).run_with_stats()
}

/// Run on the parallel engine with a pinned pool size — the
/// thread-count column the bench harness records. Bit-identical to the
/// serial runs at every `threads` value.
pub fn run_parallel(scenario: &Scenario, threads: usize) -> SimReport {
    World::build_parallel_with_threads(scenario, threads).run()
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

    #[test]
    fn bench_scenario_modes_agree() {
        let sc = engine_scenario(20, 300.0, 1);
        let ticked = run_mode(&sc, EngineMode::Ticked);
        let event = run_mode(&sc, EngineMode::EventDriven);
        assert!(ticked.messages.created > 0);
        assert_eq!(canon(ticked), canon(event));
    }

    #[test]
    fn transfer_bound_scenario_modes_agree_and_transfer() {
        let sc = transfer_bound_scenario(4, 900.0, 1);
        let ticked = run_mode(&sc, EngineMode::Ticked);
        let event = run_mode(&sc, EngineMode::EventDriven);
        // The regime is real: messages were created and bytes drained over
        // long-lived transfers.
        assert!(ticked.messages.created > 0);
        assert!(ticked.messages.transfers_started > 0);
        assert!(ticked.messages.bytes_transferred > 0);
        assert_eq!(canon(ticked), canon(event));
    }
}
