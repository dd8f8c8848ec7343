//! Manifest-driven sweep permutation.
//!
//! A [`SweepManifest`] is a serialisable description of an experiment grid
//! — the axes every figure, ablation and scaling study in this repo is
//! some cross product of. [`SweepManifest::expand`] turns it into a
//! [`SweepPlan`]: a flat, stable-ID'd run list plus the cell list the runs
//! aggregate into.
//!
//! # Expansion contract
//!
//! Expansion is **canonical**: every axis is deduplicated and sorted into
//! a fixed order (protocols by figure order, policies by scheduling then
//! dropping rank, vehicle counts / TTLs / seeds ascending) before the
//! nested product is taken, with the axis nesting order fixed as
//!
//! ```text
//! protocols × policies × vehicles × ttls × seeds
//! ```
//!
//! (seeds innermost, so one cell's runs are contiguous). Two manifests
//! whose axes hold the same *sets* of values therefore expand to the same
//! run list, in the same order, with the same IDs — the property the
//! resume journal, the reduce step and the expansion proptest all lean on.
//!
//! Every run executes on the default event engine. Unknown manifest keys,
//! such as an older file's `engines` axis, are ignored; the fingerprint
//! covers only the current fields, so a journal written under the older
//! format is refused rather than replayed.

use crate::presets::{mini_scenario, paper_scenario, PaperProtocol};
use crate::scenario::Scenario;
use crate::sweep::SweepError;
use serde::{Deserialize, Serialize};
use vdtn_bundle::{DropPolicy, PolicyCombo, SchedulingPolicy};
use vdtn_sim_core::statehash::fnv1a_64;
use vdtn_sim_core::SimDuration;

/// The scenario family a manifest's runs are derived from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioBase {
    /// The paper's full Helsinki scenario ([`paper_scenario`]).
    Paper,
    /// The scaled-down CI variant ([`mini_scenario`]).
    Mini,
    /// An explicit scenario template: the axes override its seed, TTL,
    /// router/policy and vehicle count per run. With an empty `protocols`
    /// axis the template's own router and policy are kept.
    Custom(Box<Scenario>),
}

/// A serialisable sweep description: scenario base plus the experiment
/// axes. Empty optional axes (`policies`, `vehicles`) mean
/// "the base default" and contribute a single implicit element to the
/// product; `protocols`, `ttls_mins` and `seeds` must be non-empty (except
/// `protocols` with a [`ScenarioBase::Custom`] base, where empty means
/// "keep the template's router").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Sweep name; prefixes run IDs and scenario names.
    pub name: String,
    /// Scenario family.
    pub base: ScenarioBase,
    /// Protocol/policy preset axis.
    pub protocols: Vec<PaperProtocol>,
    /// Scheduling/dropping override axis (empty: the preset's combo).
    pub policies: Vec<PolicyCombo>,
    /// Vehicle-count override axis (empty: the base's fleet size).
    pub vehicles: Vec<usize>,
    /// TTL axis, minutes.
    pub ttls_mins: Vec<u64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Simulated-duration override in seconds (0: the base's duration).
    pub duration_secs: f64,
}

impl SweepManifest {
    /// A minimal manifest over the given presets with paper-base scenarios.
    pub fn paper(name: &str, protocols: &[PaperProtocol], ttls: &[u64], seeds: &[u64]) -> Self {
        SweepManifest {
            name: name.to_string(),
            base: ScenarioBase::Paper,
            protocols: protocols.to_vec(),
            policies: Vec::new(),
            vehicles: Vec::new(),
            ttls_mins: ttls.to_vec(),
            seeds: seeds.to_vec(),
            duration_secs: 0.0,
        }
    }

    /// Validate axis shape, returning a typed error instead of panicking.
    pub fn validate(&self) -> Result<(), SweepError> {
        let custom = matches!(self.base, ScenarioBase::Custom(_));
        if self.protocols.is_empty() && !custom {
            return Err(SweepError::EmptyAxis { axis: "protocols" });
        }
        if self.ttls_mins.is_empty() {
            return Err(SweepError::EmptyAxis { axis: "ttls_mins" });
        }
        if self.seeds.is_empty() {
            return Err(SweepError::EmptyAxis { axis: "seeds" });
        }
        if self.duration_secs < 0.0 || !self.duration_secs.is_finite() {
            return Err(SweepError::Manifest {
                detail: format!("invalid duration_secs {}", self.duration_secs),
            });
        }
        if self.vehicles.contains(&0) {
            return Err(SweepError::Manifest {
                detail: "vehicles axis contains 0".into(),
            });
        }
        Ok(())
    }

    /// Expand into the canonical run list (see the module docs for the
    /// ordering contract).
    pub fn expand(&self) -> Result<SweepPlan, SweepError> {
        self.validate()?;
        let protocols = canon_axis(&self.protocols, protocol_rank);
        let policies = canon_axis(&self.policies, policy_rank);
        let vehicles = canon_axis(&self.vehicles, |&v| v);
        let ttls = canon_axis(&self.ttls_mins, |&t| t);
        let seeds = canon_axis(&self.seeds, |&s| s);

        // Optional axes contribute one implicit `None` element.
        let protocols: Vec<Option<PaperProtocol>> = opt_axis(protocols);
        let policies: Vec<Option<PolicyCombo>> = opt_axis(policies);
        let vehicles: Vec<Option<usize>> = opt_axis(vehicles);

        let mut cells = Vec::new();
        let mut runs = Vec::new();
        for &protocol in &protocols {
            for &policy in &policies {
                for &veh in &vehicles {
                    for &ttl in &ttls {
                        let cell_index = cells.len();
                        cells.push(CellKey {
                            protocol,
                            policy,
                            vehicles: veh,
                            ttl_mins: ttl,
                        });
                        for &seed in &seeds {
                            runs.push(RunSpec {
                                index: runs.len(),
                                cell: cell_index,
                                protocol,
                                policy,
                                vehicles: veh,
                                ttl_mins: ttl,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        Ok(SweepPlan {
            name: self.name.clone(),
            cells,
            runs,
        })
    }

    /// The base scenario's default vehicle count — the cost model's scale
    /// reference for runs that don't override the `vehicles` axis.
    pub fn base_vehicles(&self) -> usize {
        match &self.base {
            ScenarioBase::Paper => 40,
            ScenarioBase::Mini => 12,
            ScenarioBase::Custom(t) => t
                .groups
                .iter()
                .find(|g| !g.is_relay)
                .map(|g| g.count)
                .unwrap_or(1),
        }
    }

    /// FNV-1a fingerprint of the manifest's canonical JSON serialisation;
    /// the resume journal stores it so a journal can never silently replay
    /// into a different experiment. Axes are canonicalised (deduped and
    /// rank-sorted, exactly as [`SweepManifest::expand`] sees them) before
    /// hashing, so two manifest files that list the same axes in different
    /// orders — the same sweep — share one fingerprint and one journal.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = self.clone();
        canon.protocols = canon_axis(&self.protocols, protocol_rank);
        canon.policies = canon_axis(&self.policies, policy_rank);
        canon.vehicles = canon_axis(&self.vehicles, |&v| v);
        canon.ttls_mins = canon_axis(&self.ttls_mins, |&t| t);
        canon.seeds = canon_axis(&self.seeds, |&s| s);
        let json = serde_json::to_string(&canon).expect("manifest serialises");
        fnv1a_64(json.as_bytes())
    }
}

/// Deduplicate and sort one axis by a rank key, preserving values.
fn canon_axis<T: Clone, K: Ord>(axis: &[T], rank: impl Fn(&T) -> K) -> Vec<T> {
    let mut v = axis.to_vec();
    v.sort_by_key(|a| rank(a));
    v.dedup_by(|a, b| rank(a) == rank(b));
    v
}

/// Lift an optional axis: empty becomes the single implicit default.
fn opt_axis<T>(axis: Vec<T>) -> Vec<Option<T>> {
    if axis.is_empty() {
        vec![None]
    } else {
        axis.into_iter().map(Some).collect()
    }
}

/// Canonical protocol order: the order the figures introduce them.
fn protocol_rank(p: &PaperProtocol) -> u8 {
    match p {
        PaperProtocol::EpidemicFifo => 0,
        PaperProtocol::EpidemicRandom => 1,
        PaperProtocol::EpidemicLifetime => 2,
        PaperProtocol::SnwFifo => 3,
        PaperProtocol::SnwRandom => 4,
        PaperProtocol::SnwLifetime => 5,
        PaperProtocol::MaxProp => 6,
        PaperProtocol::Prophet => 7,
    }
}

fn scheduling_rank(s: &SchedulingPolicy) -> u8 {
    match s {
        SchedulingPolicy::Fifo => 0,
        SchedulingPolicy::Random => 1,
        SchedulingPolicy::LifetimeDesc => 2,
        SchedulingPolicy::LifetimeAsc => 3,
        SchedulingPolicy::SmallestFirst => 4,
        SchedulingPolicy::YoungestFirst => 5,
        SchedulingPolicy::FewestHops => 6,
    }
}

fn dropping_rank(d: &DropPolicy) -> u8 {
    match d {
        DropPolicy::Fifo => 0,
        DropPolicy::LifetimeAsc => 1,
        DropPolicy::Random => 2,
        DropPolicy::LargestFirst => 3,
        DropPolicy::Tail => 4,
        DropPolicy::MostHops => 5,
    }
}

fn policy_rank(p: &PolicyCombo) -> (u8, u8) {
    (scheduling_rank(&p.scheduling), dropping_rank(&p.dropping))
}

/// One aggregation cell: every axis except the seed. Runs sharing a cell
/// are averaged into one [`crate::sweep::SweepPoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellKey {
    /// Protocol preset (`None`: a custom template's own router).
    pub protocol: Option<PaperProtocol>,
    /// Policy override (`None`: the preset/template combo).
    pub policy: Option<PolicyCombo>,
    /// Vehicle-count override (`None`: the base fleet).
    pub vehicles: Option<usize>,
    /// TTL, minutes.
    pub ttl_mins: u64,
}

impl CellKey {
    /// Figure-legend label. Equals the protocol's own label when every
    /// optional axis is at its default, so figure rows keep their names.
    pub fn label(&self) -> String {
        let mut label = match self.protocol {
            Some(p) => p.label().to_string(),
            None => String::new(),
        };
        if let Some(pol) = self.policy {
            if !label.is_empty() {
                label.push(' ');
            }
            label.push_str(&pol.label());
        }
        if label.is_empty() {
            label.push_str("template");
        }
        if let Some(v) = self.vehicles {
            label.push_str(&format!(" v{v}"));
        }
        label
    }
}

/// One run of the expanded sweep: the cell coordinates plus the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Position in the canonical run list (the reduce order).
    pub index: usize,
    /// Index into [`SweepPlan::cells`].
    pub cell: usize,
    /// Protocol preset (`None`: custom template router).
    pub protocol: Option<PaperProtocol>,
    /// Policy override.
    pub policy: Option<PolicyCombo>,
    /// Vehicle-count override.
    pub vehicles: Option<usize>,
    /// TTL, minutes.
    pub ttl_mins: u64,
    /// Master seed.
    pub seed: u64,
}

impl RunSpec {
    /// Stable run ID: a pure function of the cell coordinates and seed,
    /// independent of axis listing order (the journal's primary key).
    pub fn id(&self, sweep_name: &str) -> String {
        let proto = match self.protocol {
            Some(p) => format!("{p:?}"),
            None => "template".to_string(),
        };
        let policy = match self.policy {
            Some(p) => format!("{:?}-{:?}", p.scheduling, p.dropping),
            None => "preset".to_string(),
        };
        let veh = match self.vehicles {
            Some(v) => v.to_string(),
            None => "base".to_string(),
        };
        format!(
            "{sweep_name}/{proto}/{policy}/v{veh}/ttl{}/s{}",
            self.ttl_mins, self.seed
        )
    }

    /// Relative execution cost used to sort chunks largest-first: vehicle
    /// count (the dominant scale axis) times TTL (a proxy for buffer
    /// pressure and message lifetime).
    pub fn cost(&self, base_vehicles: usize) -> u64 {
        self.vehicles.unwrap_or(base_vehicles.max(1)) as u64 * self.ttl_mins.max(1)
    }

    /// Materialise the scenario for this run.
    pub fn scenario(&self, manifest: &SweepManifest) -> Scenario {
        let mut s = match (&manifest.base, self.protocol) {
            (ScenarioBase::Paper, Some(p)) => paper_scenario(p, self.ttl_mins, self.seed),
            (ScenarioBase::Mini, Some(p)) => mini_scenario(p, self.ttl_mins, self.seed),
            (ScenarioBase::Custom(t), proto) => {
                let mut s = (**t).clone();
                s.seed = self.seed;
                s.traffic.ttl = SimDuration::from_mins(self.ttl_mins);
                if let Some(p) = proto {
                    let (router, policy) = p.config();
                    s.router = router;
                    s.policy = policy;
                }
                s
            }
            (_, None) => unreachable!("validate() requires protocols for preset bases"),
        };
        if let Some(policy) = self.policy {
            s.policy = policy;
        }
        if let Some(v) = self.vehicles {
            if let Some(g) = s.groups.iter_mut().find(|g| !g.is_relay) {
                g.count = v;
            }
        }
        if manifest.duration_secs > 0.0 {
            s.duration_secs = manifest.duration_secs;
        }
        s.name = format!("{}/{}", manifest.name, self.id(&manifest.name));
        s
    }
}

/// The expanded sweep: the canonical run list plus its cell list.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Sweep name (from the manifest).
    pub name: String,
    /// Aggregation cells, in canonical order.
    pub cells: Vec<CellKey>,
    /// Runs, in canonical order (seeds contiguous per cell).
    pub runs: Vec<RunSpec>,
}

impl SweepPlan {
    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when the plan holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> SweepManifest {
        SweepManifest::paper(
            "t",
            &[PaperProtocol::EpidemicLifetime, PaperProtocol::EpidemicFifo],
            &[90, 60],
            &[3, 1, 2],
        )
    }

    #[test]
    fn expansion_is_canonical_and_total() {
        let plan = manifest().expand().unwrap();
        assert_eq!(plan.len(), 2 * 2 * 3);
        assert_eq!(plan.cells.len(), 4);
        // Canonical order: EpidemicFifo before EpidemicLifetime, TTLs and
        // seeds ascending, regardless of manifest listing order.
        assert_eq!(plan.runs[0].protocol, Some(PaperProtocol::EpidemicFifo));
        assert_eq!(plan.runs[0].ttl_mins, 60);
        assert_eq!(plan.runs[0].seed, 1);
        assert_eq!(plan.runs[1].seed, 2);
        let ids: Vec<String> = plan.runs.iter().map(|r| r.id("t")).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "run IDs must be unique");
    }

    #[test]
    fn expansion_order_stable_under_axis_permutation() {
        let a = manifest().expand().unwrap();
        let mut m = manifest();
        m.protocols.reverse();
        m.ttls_mins.reverse();
        m.seeds = vec![2, 3, 1, 1, 2];
        let b = m.expand().unwrap();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn empty_axes_are_typed_errors() {
        let mut m = manifest();
        m.seeds.clear();
        assert!(matches!(
            m.expand(),
            Err(SweepError::EmptyAxis { axis: "seeds" })
        ));
        let mut m = manifest();
        m.protocols.clear();
        assert!(matches!(
            m.expand(),
            Err(SweepError::EmptyAxis { axis: "protocols" })
        ));
    }

    #[test]
    fn custom_base_keeps_template_router_when_protocols_empty() {
        let template = crate::presets::mini_scenario(PaperProtocol::SnwLifetime, 45, 9);
        let mut m = manifest();
        m.base = ScenarioBase::Custom(Box::new(template.clone()));
        m.protocols.clear();
        let plan = m.expand().unwrap();
        assert_eq!(plan.cells.len(), 2); // ttl axis only
        let s = plan.runs[0].scenario(&m);
        assert_eq!(s.router, template.router);
        assert_eq!(s.seed, 1);
        assert_eq!(s.traffic.ttl, SimDuration::from_mins(60));
    }

    #[test]
    fn scenario_matches_preset_builder() {
        let m = manifest();
        let plan = m.expand().unwrap();
        let r = &plan.runs[0];
        let s = r.scenario(&m);
        let reference = paper_scenario(PaperProtocol::EpidemicFifo, 60, 1);
        // Same physics; only the name is rewritten by the sweep.
        assert_eq!(s.router, reference.router);
        assert_eq!(s.policy, reference.policy);
        assert_eq!(s.traffic, reference.traffic);
        assert_eq!(s.duration_secs, reference.duration_secs);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = manifest().fingerprint();
        let mut m = manifest();
        assert_eq!(a, m.fingerprint());
        m.seeds.push(99);
        assert_ne!(a, m.fingerprint());
    }

    /// Journals record the fingerprint, so its value must not drift: this
    /// is the FNV-1a digest of the `run_scenario --sweep-template`
    /// manifest's canonical JSON, as journal format version 2 records it.
    #[test]
    fn fingerprint_of_the_sweep_template_is_pinned() {
        let m = SweepManifest::paper(
            "example-sweep",
            &PaperProtocol::protocol_comparison(),
            &crate::presets::PAPER_TTLS_MIN,
            &[1, 2, 3],
        );
        assert_eq!(m.fingerprint(), 16_398_964_569_409_470_502);
    }

    /// Manifests written before the routing-backend switch and the engine
    /// axis were removed still carry `"backend": "Index"` and an
    /// `"engines"` list; the reader ignores both keys.
    #[test]
    fn legacy_backend_key_is_ignored() {
        let m = manifest();
        let json = serde_json::to_string(&m).unwrap();
        let legacy = json.replacen(
            "\"duration_secs\"",
            "\"backend\":\"Index\",\"engines\":[\"Ticked\",\"Parallel\"],\"duration_secs\"",
            1,
        );
        assert_ne!(json, legacy, "the legacy keys were spliced in");
        let parsed: SweepManifest = serde_json::from_str(&legacy).unwrap();
        assert_eq!(
            parsed,
            serde_json::from_str::<SweepManifest>(&json).unwrap()
        );
        assert_eq!(parsed, m);
        let (a, b) = (parsed.expand().unwrap(), m.expand().unwrap());
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn cell_labels_default_to_protocol_labels() {
        let plan = manifest().expand().unwrap();
        assert_eq!(plan.cells[0].label(), "Epidemic FIFO-FIFO");
        let cell = CellKey {
            protocol: Some(PaperProtocol::EpidemicFifo),
            policy: None,
            vehicles: Some(100),
            ttl_mins: 60,
        };
        assert_eq!(cell.label(), "Epidemic FIFO-FIFO v100");
    }
}
