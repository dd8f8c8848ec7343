//! Property-based tests over whole-simulation invariants.
//!
//! These run many short randomised simulations, so each property keeps its
//! case count small; unit-level properties (buffer accounting, policy
//! permutations, grid-vs-naive equivalence) live in the owning crates.

use proptest::prelude::*;
use std::collections::HashMap;
use vdtn::presets::{mini_scenario, PaperProtocol};
use vdtn::scenario::Scenario;
use vdtn::{NodeId, World};
use vdtn_bundle::MessageId;

fn tiny(proto: PaperProtocol, seed: u64, buffer_mb: u64) -> Scenario {
    let mut s = mini_scenario(proto, 20, seed);
    s.duration_secs = 600.0;
    s.groups[0].buffer_bytes = buffer_mb * 1_000_000;
    s
}

/// Total Spray-and-Wait logical copies of any message never exceed L = 12.
#[test]
fn snw_copy_conservation() {
    for seed in 0..5u64 {
        let s = tiny(PaperProtocol::SnwLifetime, seed, 10);
        let mut world = World::build(&s);
        for step in 0..600 {
            world.step();
            if step % 25 != 0 {
                continue;
            }
            let mut totals: HashMap<MessageId, u32> = HashMap::new();
            for i in 0..world.node_count() {
                for msg in world
                    .node_state(NodeId(i as u32))
                    .buffer
                    .iter(world.message_table())
                {
                    *totals.entry(msg.id).or_insert(0) += msg.copies;
                }
            }
            for (id, total) in totals {
                assert!(
                    total <= 12,
                    "seed {seed} step {step}: message {id} has {total} copies > L"
                );
            }
        }
    }
}

/// After every tick's TTL sweep, no buffer retains an expired message.
#[test]
fn no_expired_messages_survive_the_sweep() {
    for proto in [PaperProtocol::EpidemicFifo, PaperProtocol::MaxProp] {
        let s = tiny(proto, 3, 10);
        let mut world = World::build(&s);
        for _ in 0..600 {
            world.step();
            let now = world.now();
            for i in 0..world.node_count() {
                for msg in world
                    .node_state(NodeId(i as u32))
                    .buffer
                    .iter(world.message_table())
                {
                    assert!(
                        !msg.is_expired(now),
                        "{proto:?}: expired message {} still stored at {now}",
                        msg.id
                    );
                }
            }
        }
    }
}

/// Buffers never exceed their configured byte capacity, under any protocol.
#[test]
fn buffers_never_exceed_capacity() {
    for proto in [
        PaperProtocol::EpidemicFifo,
        PaperProtocol::SnwFifo,
        PaperProtocol::Prophet,
        PaperProtocol::MaxProp,
    ] {
        let s = tiny(proto, 11, 4); // 4 MB: heavy contention
        let mut world = World::build(&s);
        for _ in 0..600 {
            world.step();
            for i in 0..world.node_count() {
                let b = &world.node_state(NodeId(i as u32)).buffer;
                assert!(
                    b.used() <= b.capacity(),
                    "{proto:?}: node {i} over capacity"
                );
                let sum: u64 = b.iter(world.message_table()).map(|m| m.size).sum();
                assert_eq!(sum, b.used(), "{proto:?}: byte accounting drift");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delivery counters are consistent for arbitrary seeds and buffer sizes.
    #[test]
    fn report_accounting_consistent(seed in 0u64..1000, buffer_mb in 2u64..40) {
        let s = tiny(PaperProtocol::EpidemicLifetime, seed, buffer_mb);
        let report = World::build(&s).run();
        let m = &report.messages;
        prop_assert!(m.delivered_unique <= m.created);
        // Every completed transfer is delivered, relayed, or rejected.
        let completions = m.delivered_unique + m.delivered_duplicate + m.relayed
            + m.transfers_rejected;
        prop_assert_eq!(
            completions + m.transfers_aborted,
            m.transfers_started,
            "transfer lifecycle must balance: {}", report.summary()
        );
        // Bytes moved are bounded by completions × max message size.
        prop_assert!(m.bytes_transferred <= completions * 2_000_000);
    }

    /// Determinism holds for arbitrary seeds (full stack, short horizon).
    #[test]
    fn determinism_for_any_seed(seed in 0u64..10_000) {
        let s = {
            let mut s = tiny(PaperProtocol::SnwLifetime, seed, 10);
            s.duration_secs = 300.0;
            s
        };
        let a = World::build(&s).run();
        let b = World::build(&s).run();
        prop_assert_eq!(a.messages.created, b.messages.created);
        prop_assert_eq!(a.messages.delivered_unique, b.messages.delivered_unique);
        prop_assert_eq!(a.messages.transfers_started, b.messages.transfers_started);
        prop_assert_eq!(a.contacts, b.contacts);
    }
}
