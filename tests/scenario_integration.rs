//! Cross-crate integration tests: full simulations through the public API.

use vdtn::presets::{mini_scenario, PaperProtocol};
use vdtn::scenario::{MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, TrafficSpec};
use vdtn::{PolicyCombo, RouterKind, SimDuration, World};
use vdtn_geo::GridMapGen;
use vdtn_mobility::SpmbConfig;
use vdtn_net::RadioInterface;

fn short_mini(proto: PaperProtocol, ttl: u64, seed: u64) -> Scenario {
    let mut s = mini_scenario(proto, ttl, seed);
    s.duration_secs = 1_800.0;
    s
}

#[test]
fn all_protocols_complete_a_scenario() {
    for proto in [
        PaperProtocol::EpidemicFifo,
        PaperProtocol::EpidemicLifetime,
        PaperProtocol::SnwLifetime,
        PaperProtocol::MaxProp,
        PaperProtocol::Prophet,
    ] {
        let report = World::build(&short_mini(proto, 60, 1)).run();
        assert!(report.messages.created > 0, "{proto:?} created nothing");
        // Accounting sanity that must hold for any protocol.
        assert!(
            report.messages.delivered_unique
                + report.messages.delivered_duplicate
                + report.messages.relayed
                + report.messages.transfers_rejected
                + report.messages.transfers_aborted
                >= report.messages.transfers_aborted,
        );
        assert!(report.delivery_probability() <= 1.0);
        assert!(report.messages.delivered_unique <= report.messages.created);
    }
}

#[test]
fn full_stack_determinism() {
    let a = World::build(&short_mini(PaperProtocol::MaxProp, 90, 77)).run();
    let b = World::build(&short_mini(PaperProtocol::MaxProp, 90, 77)).run();
    assert_eq!(a.messages.created, b.messages.created);
    assert_eq!(a.messages.delivered_unique, b.messages.delivered_unique);
    assert_eq!(a.messages.relayed, b.messages.relayed);
    assert_eq!(a.messages.transfers_started, b.messages.transfers_started);
    assert_eq!(a.messages.dropped_congestion, b.messages.dropped_congestion);
    assert_eq!(a.contacts, b.contacts);
    assert_eq!(a.messages.bytes_transferred, b.messages.bytes_transferred);
}

#[test]
fn json_round_trip_of_scenario_and_report() {
    let s = short_mini(PaperProtocol::SnwLifetime, 60, 3);
    let json = serde_json::to_string(&s).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(s, back);
    let report = World::build(&back).run();
    let rjson = serde_json::to_string(&report).unwrap();
    let rback: vdtn::SimReport = serde_json::from_str(&rjson).unwrap();
    assert_eq!(report.messages.created, rback.messages.created);
    assert_eq!(report.seed, rback.seed);
}

#[test]
fn relays_do_not_originate_traffic() {
    let s = short_mini(PaperProtocol::EpidemicFifo, 60, 9);
    let relay_start = s.groups[0].count as u32; // relays follow vehicles
    let world = World::build(&s);
    // Run a while, then inspect: every message in any buffer must have a
    // vehicle source and a vehicle destination.
    let mut world = world;
    for _ in 0..600 {
        world.step();
    }
    for i in 0..world.node_count() {
        let state = world.node_state(vdtn::NodeId(i as u32));
        for msg in state.buffer.iter(world.message_table()) {
            assert!(msg.src.0 < relay_start, "relay-originated message {msg:?}");
            assert!(msg.dst.0 < relay_start, "relay-destined message {msg:?}");
        }
    }
}

#[test]
fn ttl_zero_messages_never_live() {
    // TTL equal to one tick: everything should expire essentially at birth;
    // nothing may be delivered with a delay beyond the TTL.
    let mut s = short_mini(PaperProtocol::EpidemicFifo, 60, 21);
    s.traffic.ttl = SimDuration::from_secs(1);
    let report = World::build(&s).run();
    assert_eq!(
        report.messages.delivered_unique, 0,
        "one-second TTL cannot cross a contact"
    );
    assert!(report.messages.dropped_expired > 0);
}

#[test]
fn no_delivery_exceeds_ttl() {
    for proto in [PaperProtocol::EpidemicLifetime, PaperProtocol::MaxProp] {
        let ttl_min = 30;
        let report = World::build(&short_mini(proto, ttl_min, 31)).run();
        if report.messages.delivered_unique > 0 {
            let max_delay_min = report.messages.delay.max().unwrap() / 60.0;
            assert!(
                max_delay_min <= ttl_min as f64 + 1.0 / 60.0,
                "{proto:?}: delivery after TTL ({max_delay_min:.2} min > {ttl_min} min)"
            );
        }
    }
}

#[test]
fn congestion_pressure_drops_messages() {
    // Tiny buffers: the drop policy must engage.
    let mut s = short_mini(PaperProtocol::EpidemicFifo, 60, 41);
    s.groups[0].buffer_bytes = 3_000_000; // ~2 messages worth
    let report = World::build(&s).run();
    assert!(
        report.messages.dropped_congestion > 0,
        "tiny buffers must overflow: {}",
        report.summary()
    );
}

#[test]
fn grid_map_scenario_with_explicit_relays() {
    // Exercise the explicit relay placement and plain grid map path.
    let s = Scenario {
        name: "explicit-relays".into(),
        seed: 4,
        duration_secs: 900.0,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: 4,
            rows: 4,
            spacing: 150.0,
        }),
        groups: vec![
            NodeGroup {
                name: "vehicles".into(),
                count: 6,
                buffer_bytes: 10_000_000,
                mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig {
                    wait_lo: 10.0,
                    wait_hi: 60.0,
                    ..SpmbConfig::default()
                }),
                is_relay: false,
            },
            NodeGroup {
                name: "relays".into(),
                count: 2,
                buffer_bytes: 50_000_000,
                mobility: MobilitySpec::Stationary(RelayPlacement::Explicit(vec![
                    vdtn_geo::Point::new(150.0, 150.0),
                    vdtn_geo::Point::new(300.0, 300.0),
                ])),
                is_relay: true,
            },
        ],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec::paper(SimDuration::from_mins(30)),
        router: RouterKind::Epidemic,
        policy: PolicyCombo::LIFETIME,
        sample_period_secs: 0.0,
    };
    let world = World::build(&s);
    // Relays sit exactly on road vertices.
    let p6 = world.node_position(vdtn::NodeId(6));
    let p7 = world.node_position(vdtn::NodeId(7));
    assert_eq!(p6, vdtn_geo::Point::new(150.0, 150.0));
    assert_eq!(p7, vdtn_geo::Point::new(300.0, 300.0));
    let report = world.run();
    assert!(report.messages.created > 0);
}

#[test]
fn wkt_map_scenario_runs() {
    let mut s = short_mini(PaperProtocol::SnwLifetime, 60, 8);
    s.map = MapSpec::WktText(
        "LINESTRING (0 0, 300 0, 600 0, 600 400, 300 400, 0 400, 0 0)\n\
         LINESTRING (300 0, 300 400)"
            .to_string(),
    );
    s.duration_secs = 900.0;
    let report = World::build(&s).run();
    assert!(report.contacts > 0, "closed toy map must generate contacts");
}

#[test]
fn policy_labels_propagate_to_reports() {
    let r = World::build(&short_mini(PaperProtocol::EpidemicLifetime, 60, 2)).run();
    assert_eq!(r.router, "Epidemic");
    assert_eq!(r.policy, "Lifetime DESC-Lifetime ASC");
    // Self-scheduling protocols report no policy.
    let r = World::build(&short_mini(PaperProtocol::MaxProp, 60, 2)).run();
    assert_eq!(r.router, "MaxProp");
    assert_eq!(r.policy, "");
}

#[test]
fn logged_run_and_oracle_bound() {
    let s = short_mini(PaperProtocol::EpidemicLifetime, 60, 13);
    let (report, log) = World::build(&s).run_logged();
    assert_eq!(log.messages.len() as u64, report.messages.created);
    assert_eq!(log.node_count, s.node_count());
    assert!(!log.contacts.is_empty());
    // The oracle is a true upper bound: no protocol delivers more than an
    // omniscient router with infinite bandwidth.
    let oracle = vdtn::oracle_summary(&log);
    assert!(
        oracle.deliverable as u64 >= report.messages.delivered_unique,
        "oracle {} < achieved {}",
        oracle.deliverable,
        report.messages.delivered_unique
    );
    // And the fitted meeting model yields sane finite expectations.
    let model = vdtn::MeetingModel::fit(&log);
    assert!(model.lambda > 0.0);
    assert!(model.expected_epidemic_delay_secs() < model.expected_direct_delay_secs());
}

#[test]
fn spray_and_focus_runs_and_moves_single_copies() {
    let mut s = short_mini(PaperProtocol::SnwLifetime, 60, 17);
    s.router = RouterKind::SprayAndFocus { copies: 8 };
    let report = World::build(&s).run();
    assert!(report.messages.created > 0);
    assert_eq!(report.router, "Spray and Focus");
    // Focus handoffs mean relays can relinquish copies; lifecycle still balances.
    let m = &report.messages;
    assert_eq!(
        m.delivered_unique
            + m.delivered_duplicate
            + m.relayed
            + m.transfers_rejected
            + m.transfers_aborted,
        m.transfers_started
    );
}
