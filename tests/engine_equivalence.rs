//! Ticked vs event-driven engine equivalence.
//!
//! The hybrid event-driven scheduler ([`EngineMode::EventDriven`]) must be
//! **bit-identical** to the reference ticked loop ([`EngineMode::Ticked`])
//! — not statistically close: the same seed must produce byte-for-byte the
//! same [`SimReport`] (modulo wall-clock time). This suite pins that
//! contract two ways:
//!
//! * deterministic runs covering every routing protocol, relay
//!   infrastructure (stationary nodes), sampling on/off, and a TTL short
//!   enough to exercise the expiry path;
//! * a property test over randomly drawn small scenarios (seed, node
//!   count, TTL, policy, duration), the satellite requested in the issue;
//! * transfer-heavy scenarios for the event-time transfer pipeline: slow
//!   radios make every transfer span many ticks, so completions land on
//!   scheduled `TransferComplete` instants, contacts break mid-transfer
//!   (abort + partial-byte settlement), and uniform message sizes on a
//!   stationary mesh force simultaneous completions that must resolve in
//!   pair-key order — deterministic runs plus a dedicated property test;
//! * a saturated 64-node stationary mesh (every node busy every tick)
//!   under Epidemic with Lifetime and Random scheduling;
//! * the event engine's transfer-wake accounting: every started transfer
//!   is either woken or elided, and the saturated mesh elides wakes.

use proptest::prelude::*;
use vdtn_repro::geo::{GridMapGen, Point};
use vdtn_repro::mobility::SpmbConfig;
use vdtn_repro::net::RadioInterface;
use vdtn_repro::vdtn::engine::{EngineMode, World};
use vdtn_repro::vdtn::scenario::{
    MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, TrafficSpec,
};
use vdtn_repro::vdtn::{
    DropPolicy, MaxPropConfig, PolicyCombo, ProphetConfig, RouterKind, SchedulingPolicy,
    SimDuration, SimReport,
};

/// Canonical serialisation with the wall clock zeroed: equal strings ⟺
/// bit-identical reports (floats included — identical bits render to
/// identical JSON).
fn canon(mut r: SimReport) -> String {
    r.wall_secs = 0.0;
    serde_json::to_string(&r).expect("reports serialise")
}

fn both_modes(scenario: &Scenario) -> (String, String) {
    let ticked = World::build_with_mode(scenario, EngineMode::Ticked).run();
    let event = World::build_with_mode(scenario, EngineMode::EventDriven).run();
    (canon(ticked), canon(event))
}

/// Busy little scenario with vehicles *and* stationary relays.
#[allow(clippy::too_many_arguments)] // flat knobs read better in test call sites
fn scenario(
    router: RouterKind,
    policy: PolicyCombo,
    seed: u64,
    vehicles: usize,
    ttl_mins: u64,
    duration_secs: f64,
    sample_period_secs: f64,
) -> Scenario {
    Scenario {
        name: "equivalence".into(),
        seed,
        duration_secs,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: 4,
            rows: 4,
            spacing: 110.0,
        }),
        groups: vec![
            NodeGroup {
                name: "vehicles".into(),
                count: vehicles,
                buffer_bytes: 12_000_000,
                mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig {
                    wait_lo: 5.0,
                    wait_hi: 60.0,
                    ..SpmbConfig::default()
                }),
                is_relay: false,
            },
            NodeGroup {
                name: "relays".into(),
                count: 2,
                buffer_bytes: 25_000_000,
                mobility: MobilitySpec::Stationary(RelayPlacement::HighDegreeSpread),
                is_relay: true,
            },
        ],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec::paper(SimDuration::from_mins(ttl_mins)),
        router,
        policy,
        sample_period_secs,
    }
}

/// A small saturated stationary mesh: 64 nodes on an 8 × 8 lattice 25 m
/// apart under the paper's 30 m radio, so every node is in permanent
/// contact with its lattice neighbours, and Epidemic traffic arrives faster
/// than flooding can spread it, so every node is busy every tick. Here the
/// routing round and the transfer-completion wakes do all the work.
fn saturated_mesh(policy: PolicyCombo, seed: u64) -> Scenario {
    let side = 8;
    let spacing = 25.0;
    let points = (0..side * side)
        .map(|k| Point::new((k % side) as f64 * spacing, (k / side) as f64 * spacing))
        .collect();
    Scenario {
        name: "saturated-mesh".into(),
        seed,
        duration_secs: 300.0,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: side,
            rows: side,
            spacing,
        }),
        groups: vec![NodeGroup {
            name: "mesh".into(),
            count: side * side,
            buffer_bytes: 50_000_000,
            mobility: MobilitySpec::Stationary(RelayPlacement::Explicit(points)),
            is_relay: false,
        }],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec {
            interval_lo: 0.5,
            interval_hi: 1.5,
            size_lo: 10_000,
            size_hi: 50_000,
            ttl: SimDuration::from_mins(30),
        },
        router: RouterKind::Epidemic,
        policy,
        sample_period_secs: 0.0,
    }
}

#[test]
fn every_protocol_is_bit_identical_across_modes() {
    let kinds = [
        RouterKind::Epidemic,
        RouterKind::paper_snw(),
        RouterKind::Prophet(ProphetConfig::default()),
        RouterKind::MaxProp(MaxPropConfig::default()),
        RouterKind::DirectDelivery,
        RouterKind::FirstContact,
        RouterKind::SprayAndFocus { copies: 8 },
    ];
    let mut cases: Vec<Scenario> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            scenario(
                kind,
                PolicyCombo::LIFETIME,
                40 + i as u64,
                8,
                10, // short TTL: messages expire mid-run, exercising TTL events
                1_500.0,
                60.0,
            )
        })
        .collect();
    cases.push(saturated_mesh(PolicyCombo::LIFETIME, 47));
    cases.push(saturated_mesh(PolicyCombo::RANDOM_FIFO, 48));
    for sc in &cases {
        let (ticked, event) = both_modes(sc);
        assert_eq!(
            ticked, event,
            "{} {:?} × {:?} diverged across engine modes",
            sc.name, sc.router, sc.policy
        );
    }
}

/// The acceptance matrix: for **every router × every scheduling policy**,
/// the candidate-index routing round must be bit-identical across engine
/// modes. Two runs per combination, Ticked and EventDriven — any
/// divergence in the per-direction index maintenance
/// (delta application, rank keying, `Never` pruning, `Random`'s single
/// draw, discontinuity rebuilds, the insert-count silence key) shows up as
/// a report diff here.
/// The index's order itself is checked against a fresh rescan by the
/// `vdtn_routing::candidates` property tests.
#[test]
fn candidate_index_is_bit_identical_for_every_router_and_policy() {
    let kinds = [
        RouterKind::Epidemic,
        RouterKind::paper_snw(),
        RouterKind::Prophet(ProphetConfig::default()),
        RouterKind::MaxProp(MaxPropConfig::default()),
        RouterKind::DirectDelivery,
        RouterKind::FirstContact,
        RouterKind::SprayAndFocus { copies: 8 },
    ];
    let schedulings = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::Random,
        SchedulingPolicy::LifetimeDesc,
        SchedulingPolicy::LifetimeAsc,
        SchedulingPolicy::SmallestFirst,
        SchedulingPolicy::YoungestFirst,
        SchedulingPolicy::FewestHops,
    ];
    // Cycle the drop policies too, so eviction churn (a frequent source of
    // receiver-side deltas) varies across the matrix for free.
    let droppings = [
        DropPolicy::Fifo,
        DropPolicy::LifetimeAsc,
        DropPolicy::Random,
        DropPolicy::LargestFirst,
        DropPolicy::Tail,
        DropPolicy::MostHops,
    ];
    for (ki, kind) in kinds.into_iter().enumerate() {
        for (si, sched) in schedulings.into_iter().enumerate() {
            let policy = PolicyCombo {
                scheduling: sched,
                dropping: droppings[(ki + si) % droppings.len()],
            };
            let sc = scenario(
                kind.clone(),
                policy,
                200 + (ki * 7 + si) as u64,
                6,
                8, // short TTL: expiry deltas flow mid-run
                700.0,
                0.0,
            );
            let ticked = canon(World::build_with_mode(&sc, EngineMode::Ticked).run());
            let event = canon(World::build_with_mode(&sc, EngineMode::EventDriven).run());
            assert_eq!(ticked, event, "{kind:?} × {sched:?}: engine modes diverged");
        }
    }
}

/// Ticked = EventDriven on reports, on scenarios exercising flooding,
/// utility metrics, quota routing, RNG-drawing Random scheduling and the
/// saturated mesh. Every started transfer is either woken or elided, and
/// on the saturated mesh the covered-wake elision must actually elide
/// wakes.
#[test]
fn event_engine_wakes_cover_every_transfer_and_match_ticked() {
    let mut cases: Vec<Scenario> = [
        (RouterKind::Epidemic, PolicyCombo::LIFETIME, 301u64),
        (
            RouterKind::Prophet(ProphetConfig::default()),
            PolicyCombo::FIFO_FIFO,
            302,
        ),
        (RouterKind::paper_snw(), PolicyCombo::RANDOM_FIFO, 303),
        (
            RouterKind::MaxProp(MaxPropConfig::default()),
            PolicyCombo::LIFETIME,
            304,
        ),
    ]
    .into_iter()
    .map(|(kind, policy, seed)| scenario(kind, policy, seed, 8, 12, 1_200.0, 60.0))
    .collect();
    cases.push(saturated_mesh(PolicyCombo::LIFETIME, 305));
    cases.push(saturated_mesh(PolicyCombo::RANDOM_FIFO, 306));
    for sc in &cases {
        let label = format!("{} {:?} × {:?}", sc.name, sc.router, sc.policy);
        let (reference, ref_stats) =
            World::build_with_mode(sc, EngineMode::EventDriven).run_with_stats();
        assert_eq!(
            ref_stats.transfer_wakes_scheduled + ref_stats.transfer_wakes_elided,
            reference.messages.transfers_started,
            "{label}: every started transfer is either woken or elided"
        );
        if sc.name == "saturated-mesh" {
            assert!(
                ref_stats.transfer_wakes_elided > 0,
                "{label}: no wake elided"
            );
        }
        let reference = canon(reference);
        let ticked = canon(World::build_with_mode(sc, EngineMode::Ticked).run());
        assert_eq!(reference, ticked, "{label}: ticked diverged");
    }
}

#[test]
fn long_quiet_tail_is_skipped_identically() {
    // Long waits and a short TTL leave most of the run quiescent — the
    // regime where the event engine skips the most ticks and any wake-up
    // accounting bug (clock, tick parity, TTL heap) would surface.
    let mut sc = scenario(
        RouterKind::paper_snw(),
        PolicyCombo::LIFETIME,
        5,
        5,
        5,
        3_600.0,
        120.0,
    );
    if let MobilitySpec::ShortestPathMapBased(cfg) = &mut sc.groups[0].mobility {
        cfg.wait_lo = 300.0;
        cfg.wait_hi = 900.0;
    }
    let (ticked, event) = both_modes(&sc);
    assert_eq!(ticked, event);
}

/// Transfer-heavy variant: a radio so slow that every bundle drains for
/// tens to hundreds of ticks. Moving vehicles then break contacts
/// mid-transfer (exercising abort settlement), and the engine spends most
/// of its life with busy links — the regime where the event engine rides
/// `TransferComplete` instants instead of per-tick byte draining.
#[allow(clippy::too_many_arguments)] // flat knobs read better in test call sites
fn transfer_heavy_scenario(
    router: RouterKind,
    policy: PolicyCombo,
    seed: u64,
    vehicles: usize,
    rate_bytes_per_sec: f64,
    size_lo: u64,
    size_hi: u64,
    duration_secs: f64,
) -> Scenario {
    let mut sc = scenario(router, policy, seed, vehicles, 30, duration_secs, 60.0);
    sc.name = "transfer-heavy".into();
    sc.radio = RadioInterface {
        range: 30.0,
        rate: rate_bytes_per_sec,
    };
    sc.traffic.size_lo = size_lo;
    sc.traffic.size_hi = size_hi;
    sc
}

#[test]
fn slow_radio_transfers_and_aborts_are_bit_identical() {
    // 20 kB/s against 0.5–2 MB bundles: 25–100 s per transfer, far longer
    // than most contacts, so link-downs abort mid-transfer constantly and
    // the aborted-byte settlement must agree between modes too.
    for (i, kind) in [
        RouterKind::Epidemic,
        RouterKind::paper_snw(),
        RouterKind::MaxProp(MaxPropConfig::default()),
    ]
    .into_iter()
    .enumerate()
    {
        let sc = transfer_heavy_scenario(
            kind.clone(),
            PolicyCombo::LIFETIME,
            70 + i as u64,
            8,
            20_000.0,
            500_000,
            2_000_000,
            1_500.0,
        );
        let (ticked, event) = both_modes(&sc);
        assert_eq!(ticked, event, "{kind:?} diverged on slow-radio transfers");
    }
}

#[test]
fn simultaneous_completions_resolve_identically() {
    // Stationary relays in permanent mutual contact plus uniform message
    // sizes: transfers started in the same routing round complete at the
    // same instant, so this run lives on the pair-key tie-break rule.
    let mut sc = scenario(
        RouterKind::Epidemic,
        PolicyCombo::FIFO_FIFO,
        171,
        6,
        20,
        1_200.0,
        0.0,
    );
    sc.name = "simultaneous-completions".into();
    sc.radio = RadioInterface {
        range: 30.0,
        rate: 50_000.0,
    };
    sc.traffic.size_lo = 600_000; // uniform size ⇒ equal drain durations
    sc.traffic.size_hi = 600_000;
    if let MobilitySpec::ShortestPathMapBased(cfg) = &mut sc.groups[0].mobility {
        // Long pauses: vehicles mostly sit in range, keeping many
        // same-rate transfers in flight concurrently.
        cfg.wait_lo = 200.0;
        cfg.wait_hi = 600.0;
    }
    let (ticked, event) = both_modes(&sc);
    assert_eq!(ticked, event);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small scenarios through both engine paths must produce
    /// identical `SimReport`s.
    #[test]
    fn random_scenarios_are_bit_identical(
        seed in any::<u64>(),
        vehicles in 4usize..9,
        ttl_mins in 4u64..45,
        duration_ticks in 400u64..1_200,
        router_pick in 0usize..4,
        policy_pick in 0usize..3,
        sampled in any::<bool>(),
    ) {
        let router = match router_pick {
            0 => RouterKind::Epidemic,
            1 => RouterKind::paper_snw(),
            2 => RouterKind::Prophet(ProphetConfig::default()),
            _ => RouterKind::MaxProp(MaxPropConfig::default()),
        };
        let policy = PolicyCombo::paper_table()[policy_pick];
        let sc = scenario(
            router,
            policy,
            seed,
            vehicles,
            ttl_mins,
            duration_ticks as f64,
            if sampled { 90.0 } else { 0.0 },
        );
        let (ticked, event) = both_modes(&sc);
        prop_assert_eq!(ticked, event);
    }

    /// Random transfer-heavy scenarios: slow radios (25–1000 s per bundle),
    /// both varied and uniform bundle sizes (the latter forces simultaneous
    /// completions), and moving vehicles whose contact breaks abort
    /// transfers mid-drain. Both engine paths must stay bit-identical
    /// through completions, aborts and partial-byte settlement.
    #[test]
    fn transfer_heavy_scenarios_are_bit_identical(
        seed in any::<u64>(),
        vehicles in 4usize..9,
        rate_pick in 0usize..3,
        uniform_sizes in any::<bool>(),
        duration_ticks in 600u64..1_400,
        router_pick in 0usize..3,
    ) {
        let router = match router_pick {
            0 => RouterKind::Epidemic,
            1 => RouterKind::paper_snw(),
            _ => RouterKind::Prophet(ProphetConfig::default()),
        };
        let rate = [2_000.0, 20_000.0, 80_000.0][rate_pick];
        let (size_lo, size_hi) = if uniform_sizes {
            (800_000, 800_000)
        } else {
            (500_000, 2_000_000)
        };
        let sc = transfer_heavy_scenario(
            router,
            PolicyCombo::LIFETIME,
            seed,
            vehicles,
            rate,
            size_lo,
            size_hi,
            duration_ticks as f64,
        );
        let (ticked, event) = both_modes(&sc);
        prop_assert_eq!(ticked, event);
    }
}
