//! Build-surface smoke test: constructs a tiny scenario **through the
//! umbrella crate's re-exports only** and checks the parallel sweep contract
//! (reports come back in input order, one per scenario, deterministically).
//!
//! This is the canary for the workspace wiring itself: if a re-export, a
//! manifest dependency, or the sweep layer breaks, this fails before the
//! heavier paper-claim suites run.

use vdtn_repro::sim_core::SimDuration;
use vdtn_repro::vdtn::presets::PaperProtocol;
use vdtn_repro::vdtn::scenario::TrafficSpec;
use vdtn_repro::vdtn::sweep::run_sweep;
use vdtn_repro::vdtn::{
    MapSpec, MobilitySpec, NodeGroup, PolicyCombo, RouterKind, Scenario, World,
};
use vdtn_repro::{geo, mobility, net};

/// A 5-node scenario on a 3×3 grid map, built field by field from umbrella
/// re-exports (no preset shortcuts), so the whole public surface is touched.
fn five_node_scenario(seed: u64) -> Scenario {
    Scenario {
        name: format!("smoke/5-node/seed{seed}"),
        seed,
        duration_secs: 300.0,
        tick_secs: 1.0,
        map: MapSpec::Grid(geo::GridMapGen {
            cols: 3,
            rows: 3,
            spacing: 100.0,
        }),
        groups: vec![NodeGroup {
            name: "vehicles".into(),
            count: 5,
            buffer_bytes: 10_000_000,
            mobility: MobilitySpec::ShortestPathMapBased(mobility::SpmbConfig::default()),
            is_relay: false,
        }],
        radio: net::RadioInterface::paper_80211b(),
        traffic: TrafficSpec::paper(SimDuration::from_mins(10)),
        router: RouterKind::Epidemic,
        policy: PolicyCombo::FIFO_FIFO,
        sample_period_secs: 0.0,
    }
}

#[test]
fn sweep_returns_reports_in_input_order_for_two_seeds() {
    let scenarios: Vec<Scenario> = [11u64, 22].iter().map(|&s| five_node_scenario(s)).collect();
    let reports = run_sweep(&scenarios);

    assert_eq!(reports.len(), 2, "one report per scenario");
    // Input order is preserved: report i belongs to scenario i.
    assert_eq!(reports[0].seed, 11);
    assert_eq!(reports[1].seed, 22);
    assert_eq!(reports[0].scenario, "smoke/5-node/seed11");
    assert_eq!(reports[1].scenario, "smoke/5-node/seed22");

    // The runs actually simulated something.
    for r in &reports {
        assert!(r.messages.created > 0, "traffic generator produced nothing");
        assert_eq!(r.duration_secs, 300.0);
    }

    // And the parallel sweep matches serial execution bit-for-bit.
    for (scenario, parallel) in scenarios.iter().zip(&reports) {
        let serial = World::build(scenario).run();
        assert_eq!(parallel.messages.created, serial.messages.created);
        assert_eq!(
            parallel.messages.delivered_unique,
            serial.messages.delivered_unique
        );
        assert_eq!(parallel.contacts, serial.contacts);
    }
}

#[test]
fn paper_preset_builds_through_umbrella() {
    use vdtn_repro::vdtn::presets::paper_scenario;

    let s = paper_scenario(PaperProtocol::EpidemicLifetime, 60, 1);
    assert!(s.validate().is_ok());
    // Paper setup: 45 vehicles (plus optional relays depending on preset).
    assert!(s.node_count() >= 45);
}
