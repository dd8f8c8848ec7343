//! `vdtn` — the Vehicular Delay-Tolerant Network simulator.
//!
//! This is the top-level crate of the reproduction suite for *"Improvement
//! of Messages Delivery Time on Vehicular Delay-Tolerant Networks"* (Soares
//! et al., ICPP Workshops 2009). It composes the substrate crates into a
//! runnable simulator:
//!
//! * [`Scenario`] — a fully serialisable experiment description (map, node
//!   groups, radio, traffic, routing protocol, buffer policies, duration);
//! * [`World`] — the engine: movement → connectivity → transfers → routing
//!   round → TTL sweep on a hybrid event-driven scheduler that skips
//!   work-free ticks (bit-identical to the ticked reference, see
//!   [`EngineMode`]), with deterministic RNG lanes throughout;
//! * [`SimReport`] — every metric the paper reports (and more), derived
//!   from engine events;
//! * [`presets`] — the paper's Helsinki scenario parameterised by protocol,
//!   policy combination and TTL;
//! * [`sweep`] and [`orchestrator`] — runners that spread independent runs
//!   (TTL sweeps, multi-seed averaging) over one work-stealing executor,
//!   which is how every figure is regenerated. A single run is one serial
//!   event engine on either of the two [`EngineMode`]s; parallelism lives
//!   between runs.
//!
//! # Quickstart
//!
//! ```
//! use vdtn::presets::{paper_scenario, PaperProtocol};
//! use vdtn::World;
//!
//! // Epidemic routing with the paper's winning Lifetime policies, 60-minute
//! // TTL, scaled down to a 30-minute run for the doctest.
//! let mut scenario = paper_scenario(
//!     PaperProtocol::EpidemicLifetime,
//!     60,   // TTL minutes
//!     42,   // seed
//! );
//! scenario.duration_secs = 1800.0;
//! let report = World::build(&scenario).run();
//! assert!(report.messages.created > 0);
//! ```

pub mod analysis;
pub mod engine;
pub mod logging;
pub mod orchestrator;
pub mod presets;
pub mod report;
pub mod scenario;
pub mod snapshot;
pub mod sweep;

pub use analysis::{oracle_delays, oracle_summary, MeetingModel, OracleSummary};
pub use engine::{EngineMode, EngineStats, World};
pub use logging::{ContactRecord, SimLog};
pub use orchestrator::{
    run_manifest, CellAccumulator, RunRecord, ScenarioBase, SweepManifest, SweepOptions,
    SweepOutcome,
};
pub use report::{DropCause, MessageStats, SimReport};
pub use scenario::{MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, ScenarioError};
pub use snapshot::{
    load_snapshot, save_snapshot, scenario_fingerprint, SnapshotHeader, WorldSnapshot, WorldState,
};
pub use sweep::{average_reports, run_sweep, SweepError, SweepPoint};

// Convenience re-exports so downstream users need only `vdtn`.
pub use vdtn_bundle::{DropPolicy, PolicyCombo, SchedulingPolicy};
pub use vdtn_routing::{MaxPropConfig, ProphetConfig, RouterKind};
pub use vdtn_sim_core::{NodeId, SimDuration, SimTime};
