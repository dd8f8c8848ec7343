//! Cross-mode state-hash and checkpoint/restore equivalence.
//!
//! The state hash is the digest of the world's snapshot, so it is only
//! useful if the snapshot is *identical* across every engine mode — these
//! tests pin that, byte for byte, and pin the stronger property the CI
//! drift matrix builds on: a run split by a snapshot/restore at any tick
//! boundary (restored under any mode) is bit-identical to the
//! uninterrupted run, in both its final report and its hash stream.

use proptest::prelude::*;
use vdtn::presets::{paper_scenario, PaperProtocol};
use vdtn::scenario::{MapSpec, NodeGroup, Scenario, TrafficSpec};
use vdtn::{EngineMode, MobilitySpec, SimReport, World, WorldSnapshot};
use vdtn_bundle::PolicyCombo;
use vdtn_geo::GridMapGen;
use vdtn_mobility::SpmbConfig;
use vdtn_net::RadioInterface;
use vdtn_routing::{MaxPropConfig, ProphetConfig, RouterKind, RouterSnapshot};
use vdtn_sim_core::{SimDuration, SimTime};

/// Small but busy scenario: 8 vehicles on a 3×3 grid, fast contacts.
fn small(router: RouterKind, policy: PolicyCombo, seed: u64) -> Scenario {
    Scenario {
        name: "snapshot-test".into(),
        seed,
        duration_secs: 1_800.0,
        tick_secs: 1.0,
        map: MapSpec::Grid(GridMapGen {
            cols: 3,
            rows: 3,
            spacing: 120.0,
        }),
        groups: vec![NodeGroup {
            name: "vehicles".into(),
            count: 8,
            buffer_bytes: 20_000_000,
            mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig {
                wait_lo: 5.0,
                wait_hi: 20.0,
                ..SpmbConfig::default()
            }),
            is_relay: false,
        }],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec::paper(SimDuration::from_mins(30)),
        router,
        policy,
        sample_period_secs: 60.0,
    }
}

/// Canonical serialisation with the wall clock zeroed: equal strings ⟺
/// bit-identical reports.
fn canon(mut r: SimReport) -> String {
    r.wall_secs = 0.0;
    serde_json::to_string(&r).expect("report serialises")
}

/// Drive `world` from its clock to the scenario end in `period`-second
/// strides, sampling the state hash at every stride boundary — the
/// in-process equivalent of `run_scenario --hash-stream`.
fn hash_stream(mut world: World, duration_secs: f64, period_secs: f64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut t = world.now().as_secs_f64() + period_secs;
    while t < duration_secs {
        world.run_until(SimTime::from_secs_f64(t));
        out.push((world.now().as_millis(), world.state_hash()));
        t += period_secs;
    }
    world.run_until(SimTime::from_secs_f64(duration_secs));
    out.push((world.now().as_millis(), world.state_hash()));
    out
}

#[test]
fn hash_streams_identical_across_modes() {
    for seed in [1, 23] {
        let scenario = small(RouterKind::Epidemic, PolicyCombo::LIFETIME, seed);
        let reference = hash_stream(
            World::build_with_mode(&scenario, EngineMode::Ticked),
            scenario.duration_secs,
            60.0,
        );
        let event = hash_stream(
            World::build_with_mode(&scenario, EngineMode::EventDriven),
            scenario.duration_secs,
            60.0,
        );
        assert_eq!(reference, event, "seed {seed}: event-driven drifted");
    }
}

/// Every stateful router, plus Random scheduling on Epidemic.
#[test]
fn snapshots_serialise_identically_across_modes() {
    let lifetime = PolicyCombo::LIFETIME;
    for (router, policy) in [
        (RouterKind::Epidemic, lifetime),
        (RouterKind::paper_snw(), lifetime),
        (RouterKind::Prophet(ProphetConfig::default()), lifetime),
        (RouterKind::MaxProp(MaxPropConfig::default()), lifetime),
        (RouterKind::SprayAndFocus { copies: 12 }, lifetime),
        (RouterKind::Epidemic, PolicyCombo::RANDOM_FIFO),
    ] {
        let label = format!("{} {}", router.label(), policy.label());
        let scenario = small(router, policy, 5);
        let mut ticked = World::build_with_mode(&scenario, EngineMode::Ticked);
        let mut event = World::build_with_mode(&scenario, EngineMode::EventDriven);
        for at in [61.0, 450.0, 1_201.0] {
            let at = SimTime::from_secs_f64(at);
            ticked.run_until(at);
            event.run_until(at);
            let a = serde_json::to_string(&ticked.snapshot(&scenario)).unwrap();
            let b = serde_json::to_string(&event.snapshot(&scenario)).unwrap();
            assert!(a == b, "{label}: snapshots at {at:?} differ across modes");
        }
    }
}

/// The JSON route keeps IEEE bit sensitivity: a one-ULP change or a sign
/// flip of zero in a single router float changes the state hash.
#[test]
fn router_float_bit_flips_change_state_hash() {
    let scenario = small(
        RouterKind::Prophet(ProphetConfig::default()),
        PolicyCombo::LIFETIME,
        3,
    );
    let mut world = World::build(&scenario);
    world.run_until(SimTime::from_secs_f64(900.0));
    let snap = world.snapshot(&scenario);
    let hash = world.state_hash();
    assert_eq!(hash, snap.state.digest());

    // Rewrite the first table entry `pick` accepts in node 0's PRoPHET
    // state, then restore: the world re-captures the edited state.
    let flipped = |pick: fn(f64) -> bool, edit: fn(f64) -> f64| -> u64 {
        let mut snap: WorldSnapshot = snap.clone();
        let RouterSnapshot::Prophet { table } = &mut snap.state.nodes[0].router else {
            panic!("PRoPHET scenario snapshots a PRoPHET table");
        };
        let entry = table
            .iter_mut()
            .find(|(p, _)| pick(*p))
            .expect("table has a matching entry");
        entry.0 = edit(entry.0);
        World::restore(&snap, EngineMode::EventDriven)
            .unwrap()
            .state_hash()
    };
    let one_ulp = flipped(|p| p > 0.0, |p| f64::from_bits(p.to_bits() + 1));
    let neg_zero = flipped(|p| p == 0.0, |p| -p);
    assert_ne!(one_ulp, hash, "one ULP must change the hash");
    assert_ne!(neg_zero, hash, "0.0 -> -0.0 must change the hash");
}

#[test]
fn hash_distinguishes_different_runs() {
    let a = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 1));
    let b = World::build(&small(RouterKind::Epidemic, PolicyCombo::LIFETIME, 2));
    assert_ne!(
        hash_stream(a, 1_800.0, 600.0),
        hash_stream(b, 1_800.0, 600.0),
        "different seeds must not collide across a whole stream"
    );
}

#[test]
fn restore_resumes_bit_identically_in_every_mode() {
    let scenario = small(RouterKind::paper_snw(), PolicyCombo::LIFETIME, 7);
    let reference = canon(World::build(&scenario).run());

    let mut donor = World::build(&scenario);
    donor.run_until(SimTime::from_secs_f64(600.0));
    let snap = donor.snapshot(&scenario);
    // The donor itself must also finish identically after the side capture.
    assert_eq!(
        reference,
        canon(donor.run()),
        "snapshot perturbed the donor"
    );

    for (label, resumed) in [
        ("ticked", World::restore(&snap, EngineMode::Ticked).unwrap()),
        (
            "event",
            World::restore(&snap, EngineMode::EventDriven).unwrap(),
        ),
    ] {
        assert_eq!(
            reference,
            canon(resumed.run()),
            "{label}: resumed run diverged from the uninterrupted one"
        );
    }
}

#[test]
fn restore_works_on_the_paper_scenario_with_relays() {
    // Relays exercise the stationary-mover and relay-flag paths; MaxProp
    // exercises the heaviest stateful-router snapshot.
    let mut scenario = paper_scenario(PaperProtocol::MaxProp, 30, 5);
    scenario.duration_secs = 900.0;
    let reference = canon(World::build(&scenario).run());
    let mut donor = World::build(&scenario);
    donor.run_until(SimTime::from_secs_f64(450.0));
    let snap = donor.snapshot(&scenario);
    let resumed = World::restore(&snap, EngineMode::EventDriven).unwrap();
    assert_eq!(reference, canon(resumed.run()));
}

/// Regression: a message that was offered on a live contact and has since
/// left every buffer and transfer (an "orphan" offered id) must still be
/// pruned from the contact's offered set when it expires. A restored
/// world once knew only the buffered messages' metadata, kept such ids
/// forever, and its hash stream diverged from the uninterrupted run's
/// (at 6180 s in this case) while the final reports still matched.
#[test]
fn restore_prunes_offered_ids_of_messages_no_buffer_holds() {
    let mut scenario = paper_scenario(PaperProtocol::SnwLifetime, 60, 2);
    scenario.duration_secs = 6_600.0;
    let save_at = SimTime::from_secs_f64(6_000.0);

    let mut donor = World::build(&scenario);
    donor.run_until(save_at);
    let snap = donor.snapshot(&scenario);
    let state = &snap.state;
    let held = |id| {
        state
            .nodes
            .iter()
            .any(|n| n.buffer.iter().any(|m| m.id == id))
            || state
                .links
                .iter()
                .any(|l| l.transfer.as_ref().is_some_and(|t| t.msg.id == id))
    };
    assert!(
        state
            .links
            .iter()
            .flat_map(|l| &l.offered)
            .any(|&id| !held(id)),
        "the save point must have an orphan offered id for this test to bite"
    );

    let reference = hash_stream(donor, scenario.duration_secs, 60.0);
    let resumed = World::restore(&snap, EngineMode::Ticked).unwrap();
    assert_eq!(
        reference,
        hash_stream(resumed, scenario.duration_secs, 60.0),
        "post-restore hash stream diverged from the uninterrupted run"
    );
}

#[test]
fn run_until_segments_compose_exactly() {
    let scenario = small(RouterKind::Epidemic, PolicyCombo::FIFO_FIFO, 13);
    let whole = canon(World::build(&scenario).run());
    let mut split = World::build(&scenario);
    for stop in [37.0, 218.5, 900.0, 1_799.0] {
        split.run_until(SimTime::from_secs_f64(stop));
    }
    assert_eq!(whole, canon(split.run()), "run_until segments drifted");
}

fn router_pick(ix: u8) -> RouterKind {
    match ix % 6 {
        0 => RouterKind::Epidemic,
        1 => RouterKind::paper_snw(),
        2 => RouterKind::Prophet(ProphetConfig::default()),
        3 => RouterKind::MaxProp(MaxPropConfig::default()),
        4 => RouterKind::DirectDelivery,
        _ => RouterKind::FirstContact,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Save at a random tick of a random scenario, restore, run to
    /// completion: the final report and the post-restore hash stream must
    /// both be bytewise identical to the uninterrupted run's. Random
    /// scheduling reads the candidate indexes, which a restored world
    /// rebuilds from cold, so it is drawn as often as Lifetime.
    #[test]
    fn random_save_point_round_trips(
        seed in 0u64..1_000,
        router_ix in 0u8..6,
        random_scheduling in any::<bool>(),
        save_stride in 1u64..10,
    ) {
        let policy = if random_scheduling { PolicyCombo::RANDOM_FIFO } else { PolicyCombo::LIFETIME };
        let scenario = small(router_pick(router_ix), policy, seed);
        let save_at = SimTime::from_secs_f64(save_stride as f64 * 180.0);
        let period = 180.0;

        // Uninterrupted reference: hash stream + final report.
        let mut base = World::build(&scenario);
        let mut base_stream = Vec::new();
        let mut t = save_at.as_millis() as f64 / 1_000.0;
        while t < scenario.duration_secs {
            base.run_until(SimTime::from_secs_f64(t));
            base_stream.push((base.now().as_millis(), base.state_hash()));
            t += period;
        }
        let base_report = canon(base.run());

        // Interrupted run: stop at the save point, snapshot, restore under
        // a different mode, then emit the same stream boundaries.
        let mut donor = World::build(&scenario);
        donor.run_until(save_at);
        let snap = donor.snapshot(&scenario);
        drop(donor);
        let restore_mode = if seed % 2 == 0 { EngineMode::Ticked } else { EngineMode::EventDriven };
        let mut resumed = World::restore(&snap, restore_mode).unwrap();
        let mut resumed_stream = Vec::new();
        let mut t = save_at.as_millis() as f64 / 1_000.0;
        while t < scenario.duration_secs {
            resumed.run_until(SimTime::from_secs_f64(t));
            resumed_stream.push((resumed.now().as_millis(), resumed.state_hash()));
            t += period;
        }
        prop_assert_eq!(base_stream, resumed_stream, "hash streams diverged after restore");
        prop_assert_eq!(base_report, canon(resumed.run()), "final reports diverged after restore");
    }
}
