//! Full scheduling × dropping policy matrix — beyond the paper's Table I.
//!
//! ```sh
//! cargo run --release --example policy_matrix
//! ```
//!
//! The paper evaluates three scheduling-dropping combinations. The library
//! implements more of each axis; this example crosses them all on Epidemic
//! routing and prints the full matrix, reproducing the paper's three cells
//! in context and showing how the extensions fare.
//!
//! The cross product is not a hand-rolled loop: it is one `SweepManifest`
//! with a `policies` axis over a custom scenario template, expanded and
//! executed by the sweep orchestrator. Manifest expansion is canonical
//! (policies sort by scheduling then dropping rank), which is exactly the
//! row-major order the table prints in.

use vdtn::orchestrator::{run_manifest, ScenarioBase, SweepManifest, SweepOptions};
use vdtn::presets::{mini_scenario, PaperProtocol};
use vdtn::{DropPolicy, PolicyCombo, SchedulingPolicy};

fn main() {
    let scheduling = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::Random,
        SchedulingPolicy::LifetimeDesc,
        SchedulingPolicy::LifetimeAsc,
        SchedulingPolicy::SmallestFirst,
    ];
    let dropping = [
        DropPolicy::Fifo,
        DropPolicy::LifetimeAsc,
        DropPolicy::Random,
        DropPolicy::LargestFirst,
    ];

    let mut template = mini_scenario(PaperProtocol::EpidemicFifo, 60, 99);
    template.name = "matrix".to_string();
    let manifest = SweepManifest {
        name: "policy-matrix".to_string(),
        base: ScenarioBase::Custom(Box::new(template)),
        // Empty protocol axis: keep the template's Epidemic router and
        // sweep the policy axis instead.
        protocols: Vec::new(),
        policies: scheduling
            .iter()
            .flat_map(|&s| {
                dropping.iter().map(move |&d| PolicyCombo {
                    scheduling: s,
                    dropping: d,
                })
            })
            .collect(),
        vehicles: Vec::new(),
        ttls_mins: vec![60],
        seeds: vec![99],
        duration_secs: 2.0 * 3600.0,
    };

    println!(
        "Epidemic policy matrix (scaled scenario, TTL 60 min, single seed).\n\
         Cells: delivery probability / average delay in minutes.\n"
    );
    let outcome = run_manifest(&manifest, &SweepOptions::default()).expect("valid manifest");
    assert_eq!(outcome.points.len(), scheduling.len() * dropping.len());

    print!("{:<16}", "sched \\ drop");
    for &d in &dropping {
        print!(" | {:>20}", d.label());
    }
    println!();
    println!("{}", "-".repeat(16 + dropping.len() * 23));
    // Canonical cell order is (scheduling rank, dropping rank) row-major —
    // the same order the axis arrays above are listed in.
    let mut idx = 0;
    for &s in &scheduling {
        print!("{:<16}", s.label());
        for _ in &dropping {
            let p = &outcome.points[idx];
            print!(
                " | {:>9.3} / {:>6.1}m",
                p.delivery_probability, p.avg_delay_mins
            );
            idx += 1;
        }
        println!();
    }

    println!(
        "\nThe paper's Table I corresponds to the cells (FIFO, FIFO), (Random, FIFO)\n\
         and (Lifetime DESC, Lifetime ASC); the rest are extensions of this library."
    );
}
