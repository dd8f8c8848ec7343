//! The paper's scenario, parameterised.
//!
//! Section III of the paper: a map-based model of part of Helsinki
//! (≈4500 m × 3400 m), 40 vehicles with 100 MB buffers moving at
//! 30–50 km/h with 5–15 min pauses, 5 stationary relay nodes with 500 MB
//! buffers at crossroads, 802.11b radios (6 Mbit/s, 30 m), messages of
//! 500 kB–2 MB created every 15–30 s between random vehicles, TTL swept over
//! {60, 90, 120, 150, 180} minutes, simulated for 12 hours.

use crate::scenario::{MapSpec, MobilitySpec, NodeGroup, RelayPlacement, Scenario, TrafficSpec};
use serde::{Deserialize, Serialize};
use vdtn_bundle::PolicyCombo;
use vdtn_geo::SyntheticCityGen;
use vdtn_mobility::SpmbConfig;
use vdtn_net::RadioInterface;
use vdtn_routing::{MaxPropConfig, ProphetConfig, RouterKind};
use vdtn_sim_core::SimDuration;

/// The TTL sweep used by every figure, in minutes.
pub const PAPER_TTLS_MIN: [u64; 5] = [60, 90, 120, 150, 180];

/// Paper simulation horizon: 12 hours.
pub const PAPER_DURATION_SECS: f64 = 12.0 * 3600.0;

/// The protocol/policy configurations that appear in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperProtocol {
    /// Epidemic, FIFO–FIFO (Figures 4–5 baseline).
    EpidemicFifo,
    /// Epidemic, Random–FIFO.
    EpidemicRandom,
    /// Epidemic, Lifetime DESC–Lifetime ASC (Figures 4–5 winner; Figures 8–9).
    EpidemicLifetime,
    /// Spray and Wait (binary, L = 12), FIFO–FIFO (Figures 6–7 baseline).
    SnwFifo,
    /// Spray and Wait, Random–FIFO.
    SnwRandom,
    /// Spray and Wait, Lifetime DESC–Lifetime ASC (Figures 6–7 winner; 8–9).
    SnwLifetime,
    /// MaxProp with its native policies (Figures 8–9).
    MaxProp,
    /// PRoPHET (GRTRMax) with its native policies (Figures 8–9).
    Prophet,
}

impl PaperProtocol {
    /// Router + policy the configuration maps to.
    pub fn config(&self) -> (RouterKind, PolicyCombo) {
        match self {
            PaperProtocol::EpidemicFifo => (RouterKind::Epidemic, PolicyCombo::FIFO_FIFO),
            PaperProtocol::EpidemicRandom => (RouterKind::Epidemic, PolicyCombo::RANDOM_FIFO),
            PaperProtocol::EpidemicLifetime => (RouterKind::Epidemic, PolicyCombo::LIFETIME),
            PaperProtocol::SnwFifo => (RouterKind::paper_snw(), PolicyCombo::FIFO_FIFO),
            PaperProtocol::SnwRandom => (RouterKind::paper_snw(), PolicyCombo::RANDOM_FIFO),
            PaperProtocol::SnwLifetime => (RouterKind::paper_snw(), PolicyCombo::LIFETIME),
            PaperProtocol::MaxProp => (
                RouterKind::MaxProp(MaxPropConfig::default()),
                PolicyCombo::LIFETIME, // ignored: MaxProp has native policies
            ),
            PaperProtocol::Prophet => (
                RouterKind::Prophet(ProphetConfig::default()),
                PolicyCombo::LIFETIME, // ignored: PRoPHET has native policies
            ),
        }
    }

    /// Figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            PaperProtocol::EpidemicFifo => "Epidemic FIFO-FIFO",
            PaperProtocol::EpidemicRandom => "Epidemic Random-FIFO",
            PaperProtocol::EpidemicLifetime => "Epidemic Lifetime DESC-Lifetime ASC",
            PaperProtocol::SnwFifo => "SnW FIFO-FIFO",
            PaperProtocol::SnwRandom => "SnW Random-FIFO",
            PaperProtocol::SnwLifetime => "SnW Lifetime DESC-Lifetime ASC",
            PaperProtocol::MaxProp => "MaxProp",
            PaperProtocol::Prophet => "PRoPHET",
        }
    }

    /// The three policy rows of Figures 4–5 (Epidemic).
    pub fn epidemic_policies() -> [PaperProtocol; 3] {
        [
            PaperProtocol::EpidemicFifo,
            PaperProtocol::EpidemicRandom,
            PaperProtocol::EpidemicLifetime,
        ]
    }

    /// The three policy rows of Figures 6–7 (Spray and Wait).
    pub fn snw_policies() -> [PaperProtocol; 3] {
        [
            PaperProtocol::SnwFifo,
            PaperProtocol::SnwRandom,
            PaperProtocol::SnwLifetime,
        ]
    }

    /// The four protocols of Figures 8–9.
    pub fn protocol_comparison() -> [PaperProtocol; 4] {
        [
            PaperProtocol::EpidemicLifetime,
            PaperProtocol::SnwLifetime,
            PaperProtocol::MaxProp,
            PaperProtocol::Prophet,
        ]
    }
}

/// Build the paper's full scenario for one (protocol, TTL, seed) cell.
pub fn paper_scenario(protocol: PaperProtocol, ttl_mins: u64, seed: u64) -> Scenario {
    let (router, policy) = protocol.config();
    Scenario {
        name: format!("paper/{}/ttl{}", protocol.label(), ttl_mins),
        seed,
        duration_secs: PAPER_DURATION_SECS,
        tick_secs: 1.0,
        map: MapSpec::Synthetic(SyntheticCityGen::default()),
        groups: vec![
            NodeGroup {
                name: "vehicles".into(),
                count: 40,
                buffer_bytes: 100_000_000, // 100 MB
                mobility: MobilitySpec::ShortestPathMapBased(SpmbConfig::default()),
                is_relay: false,
            },
            NodeGroup {
                name: "relays".into(),
                count: 5,
                buffer_bytes: 500_000_000, // 500 MB
                mobility: MobilitySpec::Stationary(RelayPlacement::HighDegreeSpread),
                is_relay: true,
            },
        ],
        radio: RadioInterface::paper_80211b(),
        traffic: TrafficSpec::paper(SimDuration::from_mins(ttl_mins)),
        router,
        policy,
        sample_period_secs: 0.0,
    }
}

/// A scaled-down variant of the paper scenario for tests and CI: same
/// structure and contention regime, smaller map/population/duration so a run
/// completes in well under a second.
pub fn mini_scenario(protocol: PaperProtocol, ttl_mins: u64, seed: u64) -> Scenario {
    let mut s = paper_scenario(protocol, ttl_mins, seed);
    s.name = format!("mini/{}/ttl{}", protocol.label(), ttl_mins);
    s.duration_secs = 3_600.0;
    s.map = MapSpec::Synthetic(SyntheticCityGen {
        width: 1_500.0,
        height: 1_200.0,
        cols: 7,
        rows: 6,
        ..SyntheticCityGen::default()
    });
    s.groups[0].count = 12;
    // Shrink buffers so congestion (and hence policies) still matter.
    s.groups[0].buffer_bytes = 10_000_000;
    s.groups[1].count = 2;
    s.groups[1].buffer_bytes = 50_000_000;
    // Faster pauses keep the small fleet moving.
    if let MobilitySpec::ShortestPathMapBased(cfg) = &mut s.groups[0].mobility {
        cfg.wait_lo = 30.0;
        cfg.wait_hi = 120.0;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_matches_section_iii() {
        let s = paper_scenario(PaperProtocol::EpidemicFifo, 60, 1);
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.duration_secs, 43_200.0);
        assert_eq!(s.node_count(), 45);
        assert_eq!(s.groups[0].count, 40);
        assert_eq!(s.groups[0].buffer_bytes, 100_000_000);
        assert_eq!(s.groups[1].count, 5);
        assert_eq!(s.groups[1].buffer_bytes, 500_000_000);
        assert_eq!(s.radio.range, 30.0);
        assert_eq!(s.radio.rate, 750_000.0);
        assert_eq!(s.traffic.interval_lo, 15.0);
        assert_eq!(s.traffic.interval_hi, 30.0);
        assert_eq!(s.traffic.size_lo, 500_000);
        assert_eq!(s.traffic.size_hi, 2_000_000);
        assert_eq!(s.traffic.ttl, SimDuration::from_mins(60));
    }

    #[test]
    fn protocol_tables_cover_figures() {
        assert_eq!(PaperProtocol::epidemic_policies().len(), 3);
        assert_eq!(PaperProtocol::snw_policies().len(), 3);
        assert_eq!(PaperProtocol::protocol_comparison().len(), 4);
        assert_eq!(PAPER_TTLS_MIN, [60, 90, 120, 150, 180]);
    }

    #[test]
    fn snw_preset_is_binary_l12() {
        let (router, _) = PaperProtocol::SnwLifetime.config();
        assert_eq!(
            router,
            RouterKind::SprayAndWait {
                copies: 12,
                binary: true
            }
        );
    }

    #[test]
    fn native_policy_protocols_ignore_combo() {
        // Building MaxProp/PRoPHET with any combo yields the same router
        // behaviour; the preset records that the combo is ignored.
        let (r1, _) = PaperProtocol::MaxProp.config();
        assert_eq!(r1.label(), "MaxProp");
        let (r2, _) = PaperProtocol::Prophet.config();
        assert_eq!(r2.label(), "PRoPHET");
    }

    #[test]
    fn mini_scenario_validates_and_is_small() {
        let s = mini_scenario(PaperProtocol::EpidemicLifetime, 60, 3);
        assert_eq!(s.validate(), Ok(()));
        assert!(s.node_count() < 20);
        assert!(s.duration_secs <= 3_600.0);
    }
}
