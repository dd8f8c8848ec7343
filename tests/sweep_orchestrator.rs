//! End-to-end properties of the sweep orchestrator (`vdtn::orchestrator`):
//! canonical manifest expansion, thread-count invariance, and
//! kill-and-resume journal equivalence.
//!
//! The expansion properties run on plans only (no simulation), so they can
//! afford many random cases; the execution properties run real (tiny)
//! sweeps and keep their case counts small.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use vdtn::orchestrator::{run_manifest, ScenarioBase, SweepManifest, SweepOptions};
use vdtn::presets::PaperProtocol;

const ALL_PROTOCOLS: [PaperProtocol; 8] = [
    PaperProtocol::EpidemicFifo,
    PaperProtocol::EpidemicRandom,
    PaperProtocol::EpidemicLifetime,
    PaperProtocol::SnwFifo,
    PaperProtocol::SnwRandom,
    PaperProtocol::SnwLifetime,
    PaperProtocol::MaxProp,
    PaperProtocol::Prophet,
];

/// Build a paper-base manifest from raw axis draws. Axis vectors may
/// contain duplicates and arrive in any order — expansion must
/// canonicalise both away.
fn draw_manifest(
    proto_mask: u8,
    ttls: Vec<u64>,
    seeds: Vec<u64>,
    vehicles: Vec<usize>,
) -> SweepManifest {
    let protocols: Vec<PaperProtocol> = ALL_PROTOCOLS
        .iter()
        .enumerate()
        .filter(|(i, _)| proto_mask & (1 << i) != 0)
        .map(|(_, &p)| p)
        .collect();
    let mut m = SweepManifest::paper("prop", &protocols, &ttls, &seeds);
    m.vehicles = vehicles;
    m
}

/// Deterministically permute a vector using a seed (the shim has no
/// shuffle strategy; an LCG-driven Fisher–Yates is enough to exercise
/// arbitrary listing orders).
fn permuted<T: Clone>(v: &[T], mut seed: u64) -> Vec<T> {
    let mut out = v.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.swap(i, (seed >> 33) as usize % (i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expansion is total and duplicate-free: every (protocol, vehicles,
    /// TTL, seed) combination appears exactly once, whatever duplicates
    /// the axes contain.
    #[test]
    fn expansion_is_total_and_duplicate_free(
        proto_mask in 1u8..255,
        ttls in collection::vec(1u64..300, 1..4),
        seeds in collection::vec(0u64..1000, 1..5),
        vehicles in collection::vec(1usize..200, 0..3),
        dup_index in 0usize..16,
    ) {
        let mut ttls = ttls;
        // Inject a duplicate axis value: canonical expansion must dedup it.
        ttls.push(ttls[dup_index % ttls.len()]);
        let manifest = draw_manifest(proto_mask, ttls.clone(), seeds.clone(), vehicles.clone());
        let plan = manifest.expand().expect("non-empty axes expand");

        let uniq = |v: &[u64]| v.iter().collect::<HashSet<_>>().len();
        let proto_count = proto_mask.count_ones() as usize;
        let veh_count = vehicles.iter().collect::<HashSet<_>>().len().max(1);
        let expected = proto_count * veh_count * uniq(&ttls) * uniq(&seeds);
        prop_assert_eq!(plan.len(), expected, "expansion must cover the axis product exactly");

        let ids: HashSet<String> = plan.runs.iter().map(|r| r.id("prop")).collect();
        prop_assert_eq!(ids.len(), plan.len(), "run IDs must be unique");
        // Runs point at valid cells, in canonical (cell-major) order.
        let mut last_cell = 0usize;
        for run in &plan.runs {
            prop_assert!(run.cell < plan.cells.len());
            prop_assert!(run.cell >= last_cell, "seeds must stay contiguous per cell");
            last_cell = run.cell;
        }
    }

    /// The canonical run list ignores axis listing order: permuting every
    /// axis yields the identical plan (same IDs, same order, same
    /// fingerprint), which is what makes journals portable across
    /// manifest files that mean the same sweep.
    #[test]
    fn expansion_order_stable_under_axis_permutation(
        proto_mask in 1u8..255,
        ttls in collection::vec(1u64..300, 1..4),
        seeds in collection::vec(0u64..1000, 1..5),
        vehicles in collection::vec(1usize..200, 0..3),
        perm_seed in any::<u64>(),
    ) {
        let a = draw_manifest(proto_mask, ttls.clone(), seeds.clone(), vehicles.clone());
        let mut b = draw_manifest(
            proto_mask,
            permuted(&ttls, perm_seed),
            permuted(&seeds, perm_seed ^ 0x9e3779b97f4a7c15),
            permuted(&vehicles, perm_seed.rotate_left(17)),
        );
        b.protocols = permuted(&b.protocols, perm_seed.rotate_left(41));
        let plan_a = a.expand().expect("expands");
        let plan_b = b.expand().expect("expands");
        let ids_a: Vec<String> = plan_a.runs.iter().map(|r| r.id("prop")).collect();
        let ids_b: Vec<String> = plan_b.runs.iter().map(|r| r.id("prop")).collect();
        prop_assert_eq!(ids_a, ids_b, "canonical order must not depend on listing order");
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }
}

/// The tiny sweep used by the execution properties: 8 runs of the mini
/// scenario, a few milliseconds each.
fn tiny_manifest() -> SweepManifest {
    let mut m = SweepManifest::paper(
        "tiny",
        &[PaperProtocol::EpidemicFifo, PaperProtocol::SnwLifetime],
        &[30, 60],
        &[7, 8],
    );
    m.base = ScenarioBase::Mini;
    m.duration_secs = 600.0;
    m
}

fn points_json(outcome: &vdtn::orchestrator::SweepOutcome) -> String {
    serde_json::to_string(&outcome.points).expect("points serialise")
}

/// Aggregates are bit-identical whatever the worker count.
#[test]
fn aggregates_bit_identical_at_any_thread_count() {
    let manifest = tiny_manifest();
    let baseline = points_json(
        &run_manifest(
            &manifest,
            &SweepOptions {
                threads: 1,
                ..SweepOptions::default()
            },
        )
        .expect("tiny sweep runs"),
    );
    for threads in [2, 4, 8] {
        let outcome = run_manifest(
            &manifest,
            &SweepOptions {
                threads,
                ..SweepOptions::default()
            },
        )
        .expect("tiny sweep runs");
        assert_eq!(
            points_json(&outcome),
            baseline,
            "aggregate diverged at {threads} threads"
        );
    }
}

/// A worker count far above the chunk count spawns one worker per chunk:
/// no overflow while sizing chunks, no thread per requested worker, and
/// the same aggregates as one thread.
#[test]
fn unbounded_thread_request_is_capped_at_the_chunk_count() {
    let manifest = tiny_manifest();
    let one = run_manifest(
        &manifest,
        &SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        },
    )
    .expect("tiny sweep runs");
    let max = run_manifest(
        &manifest,
        &SweepOptions {
            threads: usize::MAX,
            ..SweepOptions::default()
        },
    )
    .expect("tiny sweep runs");
    assert_eq!(points_json(&max), points_json(&one));
    assert_eq!(max.threads, max.chunks);
    assert!(max.chunks <= max.runs_total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill-and-resume equivalence: truncate the journal of a finished
    /// sweep at a random record boundary — including zero (header only)
    /// and all of them (full replay) — optionally tear the tail
    /// mid-record, resume, and the aggregate must be byte-identical to
    /// the uninterrupted run.
    #[test]
    fn resume_from_truncated_journal_is_bit_identical(
        keep_fraction in 0u64..9,
        torn_tail in any::<bool>(),
        threads in 1usize..5,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let manifest = tiny_manifest();
        let journal = std::env::temp_dir().join(format!(
            "vdtn_resume_prop_{}_{}.jsonl",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let opts = |resume: bool| SweepOptions {
            threads,
            journal: Some(journal.clone()),
            resume,
        };

        let cold = run_manifest(&manifest, &opts(false)).expect("cold run succeeds");
        let baseline = points_json(&cold);
        let runs = cold.runs_total;

        // Keep the header plus a random prefix of the records; the journal
        // is append-per-chunk, so every line boundary is a state a kill
        // can leave behind.
        let keep = (runs as u64 * keep_fraction / 8) as usize;
        let text = std::fs::read_to_string(&journal).expect("journal readable");
        let mut kept: String = text
            .lines()
            .take(1 + keep)
            .map(|l| format!("{l}\n"))
            .collect();
        if torn_tail {
            // A kill mid-`write` leaves a partial record: replay must
            // discard it and resume from the last complete line.
            kept.push_str("{\"id\": \"tiny/Epi");
        }
        std::fs::write(&journal, kept).expect("journal writable");

        let resumed = run_manifest(&manifest, &opts(true)).expect("resume succeeds");
        std::fs::remove_file(&journal).ok();
        prop_assert_eq!(resumed.runs_replayed, keep);
        prop_assert_eq!(resumed.runs_executed, runs - keep);
        prop_assert_eq!(
            points_json(&resumed),
            baseline,
            "resume after keeping {} of {} runs must be bit-identical",
            keep,
            runs
        );
    }
}
