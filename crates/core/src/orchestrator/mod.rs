//! The sweep orchestrator: a batch experiment system over the simulator.
//!
//! Every figure in the paper — and every scaling study beyond it — is a
//! cross product of a few axes (protocol, policy, fleet size, TTL, seed),
//! each cell averaged over seeds. This module turns that shape into
//! infrastructure, in four layers:
//!
//! 1. **[`manifest`]** — a serialisable [`SweepManifest`] whose
//!    [`expand`](SweepManifest::expand) produces a canonical, stable-ID'd
//!    run list: axes are deduplicated and sorted before the product is
//!    taken, so manifests that describe the same experiment expand
//!    identically regardless of how their axes were listed.
//! 2. **[`exec`]** — work-stealing execution: runs sorted by descending
//!    cost estimate, chunked, claimed through an atomic cursor by scoped
//!    worker threads, then reduced *in plan order* so aggregates are
//!    bit-identical at any thread count. The same executor runs
//!    [`crate::sweep::run_sweep`]'s scenario lists; it is the simulator's
//!    only thread fan-out.
//! 3. **[`accum`]** — streaming aggregation: each run collapses to a
//!    compact [`RunRecord`] and folds into an O(1) [`CellAccumulator`]
//!    (Welford moments + a deterministic reservoir for percentiles), so a
//!    sweep's memory is O(cells), not O(runs × deliveries).
//! 4. **[`journal`]** — checkpointed resume: an append-only JSONL journal
//!    fsync'd per chunk; `resume` replays completed runs bit-exactly (the
//!    record's one float travels as IEEE bits) and re-executes only the
//!    remainder.
//!
//! # Example
//!
//! ```
//! use vdtn::orchestrator::SweepManifest;
//! use vdtn::presets::{PaperProtocol, PAPER_TTLS_MIN};
//!
//! let manifest = SweepManifest::paper(
//!     "figure8",
//!     &PaperProtocol::protocol_comparison(),
//!     &PAPER_TTLS_MIN,
//!     &[1, 2, 3, 4, 5],
//! );
//! let plan = manifest.expand().unwrap();
//! assert_eq!(plan.len(), 4 * 5 * 5);
//! assert_eq!(plan.cells.len(), 4 * 5);
//! // Run IDs are stable coordinates, independent of axis listing order:
//! // name/protocol/policy/vVEHICLES/ttlTTL/sSEED.
//! assert_eq!(
//!     plan.runs[0].id(&plan.name),
//!     "figure8/EpidemicLifetime/preset/vbase/ttl60/s1"
//! );
//! ```

pub mod accum;
pub mod exec;
pub mod journal;
pub mod manifest;

pub use accum::{CellAccumulator, RunRecord};
pub use exec::{run_manifest, SweepOptions, SweepOutcome};
pub use journal::{replay_journal, JournalHeader, JournalReplay, JournalWriter};
pub use manifest::{CellKey, RunSpec, ScenarioBase, SweepManifest, SweepPlan};
