//! Figure execution harness.
//!
//! Figures are declared as [`FigureSpec`]s and executed through the sweep
//! orchestrator: the requested (protocol, TTL) cells become one
//! [`SweepManifest`] whose canonical expansion drives work-stealing
//! execution and streaming per-cell aggregation
//! (`vdtn::orchestrator`), replacing the hand-rolled scenario loops each
//! figure used to build.

use vdtn::orchestrator::{run_manifest, ScenarioBase, SweepManifest, SweepOptions};
use vdtn::presets::{PaperProtocol, PAPER_TTLS_MIN};
use vdtn::sweep::SweepPoint;

/// Which paper metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Message average delay, minutes (Figures 4, 6, 9).
    AvgDelayMins,
    /// Message delivery probability (Figures 5, 7, 8).
    DeliveryProbability,
}

impl Metric {
    /// Extract the metric from an averaged sweep point.
    pub fn of(&self, p: &SweepPoint) -> f64 {
        match self {
            Metric::AvgDelayMins => p.avg_delay_mins,
            Metric::DeliveryProbability => p.delivery_probability,
        }
    }

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::AvgDelayMins => "avg delay (min)",
            Metric::DeliveryProbability => "delivery probability",
        }
    }
}

/// A figure to regenerate: a set of configurations swept over the TTL axis.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure id, e.g. `"fig4"`.
    pub id: &'static str,
    /// Human title matching the paper caption.
    pub title: &'static str,
    /// Configurations (legend rows).
    pub protocols: Vec<PaperProtocol>,
    /// Metric plotted.
    pub metric: Metric,
}

impl FigureSpec {
    /// Figure 4: Epidemic, average delay, 3 policies.
    pub fn fig4() -> Self {
        FigureSpec {
            id: "fig4",
            title: "Message average delay using the Epidemic routing protocol",
            protocols: PaperProtocol::epidemic_policies().to_vec(),
            metric: Metric::AvgDelayMins,
        }
    }

    /// Figure 5: Epidemic, delivery probability, 3 policies.
    pub fn fig5() -> Self {
        FigureSpec {
            id: "fig5",
            title: "Message delivery probability using the Epidemic routing protocol",
            protocols: PaperProtocol::epidemic_policies().to_vec(),
            metric: Metric::DeliveryProbability,
        }
    }

    /// Figure 6: Spray and Wait, average delay, 3 policies.
    pub fn fig6() -> Self {
        FigureSpec {
            id: "fig6",
            title: "Message average delay using the Spray and Wait routing protocol",
            protocols: PaperProtocol::snw_policies().to_vec(),
            metric: Metric::AvgDelayMins,
        }
    }

    /// Figure 7: Spray and Wait, delivery probability, 3 policies.
    pub fn fig7() -> Self {
        FigureSpec {
            id: "fig7",
            title: "Message delivery probability using the Spray and Wait routing protocol",
            protocols: PaperProtocol::snw_policies().to_vec(),
            metric: Metric::DeliveryProbability,
        }
    }

    /// Figure 8: four-protocol delivery probability.
    pub fn fig8() -> Self {
        FigureSpec {
            id: "fig8",
            title: "Comparison of the message delivery probability (4 protocols)",
            protocols: PaperProtocol::protocol_comparison().to_vec(),
            metric: Metric::DeliveryProbability,
        }
    }

    /// Figure 9: four-protocol average delay.
    pub fn fig9() -> Self {
        FigureSpec {
            id: "fig9",
            title: "Comparison of the message average delay (4 protocols)",
            protocols: PaperProtocol::protocol_comparison().to_vec(),
            metric: Metric::AvgDelayMins,
        }
    }

    /// Every figure, in paper order.
    pub fn all() -> Vec<FigureSpec> {
        vec![
            Self::fig4(),
            Self::fig5(),
            Self::fig6(),
            Self::fig7(),
            Self::fig8(),
            Self::fig9(),
        ]
    }
}

/// Result of regenerating one figure: one sweep point per (row, TTL).
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// The spec that was run.
    pub spec: FigureSpec,
    /// `points[row][ttl_index]` aligned with `spec.protocols` × `ttls`.
    pub points: Vec<Vec<SweepPoint>>,
    /// TTL axis, minutes.
    pub ttls: Vec<u64>,
}

/// Run one figure: `seeds` runs per (configuration, TTL) cell, averaged.
///
/// Every run derives from `base` (the paper scenario, or a `Custom`
/// template such as a shorter smoke-mode horizon). The figure's rows × TTLs
/// product is one manifest, executed by the orchestrator with work-stealing
/// dispatch and streaming per-cell aggregation.
pub fn run_figure(
    spec: &FigureSpec,
    ttls: &[u64],
    seeds: u64,
    base: &ScenarioBase,
) -> FigureResult {
    let cells: Vec<(PaperProtocol, u64)> = spec
        .protocols
        .iter()
        .flat_map(|&p| ttls.iter().map(move |&t| (p, t)))
        .collect();
    let cache = run_cells(&cells, seeds, base);
    assemble_figure(spec, ttls, &cache)
}

/// Render a figure as the table of values the paper plots.
pub fn format_table(result: &FigureResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## {} — {}\n\n",
        result.spec.id, result.spec.title
    ));
    out.push_str(&format!(
        "{:<40} | {}\n",
        format!("{} \\ TTL (min)", result.spec.metric.label()),
        result
            .ttls
            .iter()
            .map(|t| format!("{t:>8}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.push_str(&format!(
        "{}-+-{}\n",
        "-".repeat(40),
        "-".repeat(9 * result.ttls.len())
    ));
    for row in &result.points {
        let label = &row[0].label;
        let vals = row
            .iter()
            .map(|p| match result.spec.metric {
                Metric::AvgDelayMins => format!("{:>8.1}", p.avg_delay_mins),
                Metric::DeliveryProbability => format!("{:>8.3}", p.delivery_probability),
            })
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!("{label:<40} | {vals}\n"));
    }
    out
}

/// Render a figure as CSV (`label,ttl,value,sd,seeds`).
pub fn format_csv(result: &FigureResult) -> String {
    let mut out = String::from("label,ttl_mins,value,sd,seeds\n");
    for row in &result.points {
        for p in row {
            let (v, sd) = match result.spec.metric {
                Metric::AvgDelayMins => (p.avg_delay_mins, p.avg_delay_sd),
                Metric::DeliveryProbability => (p.delivery_probability, p.delivery_probability_sd),
            };
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{}\n",
                p.label, p.ttl_mins, v, sd, p.seeds
            ));
        }
    }
    out
}

/// The default TTL axis (paper sweep).
pub fn paper_ttls() -> Vec<u64> {
    PAPER_TTLS_MIN.to_vec()
}

/// Run a set of (configuration, TTL) cells and return the averaged points
/// keyed by cell. Figures sharing cells (e.g. Epidemic Lifetime appears in
/// Figures 4, 5, 8 and 9) are then assembled from the cache without
/// re-running.
///
/// The cells become one [`SweepManifest`] on `base` over the union of
/// their protocol and TTL axes, so the sweep is executed (and checkpoint-
/// able, thread-invariant, O(cells)-memory) exactly like any other
/// manifest. The expansion covers the *product* of the unions; only the
/// requested cells are returned. Every current caller passes a full
/// product, so nothing extra runs.
pub fn run_cells(
    cells: &[(PaperProtocol, u64)],
    seeds: u64,
    base: &ScenarioBase,
) -> std::collections::HashMap<(PaperProtocol, u64), SweepPoint> {
    assert!(seeds >= 1);
    let mut protocols: Vec<PaperProtocol> = Vec::new();
    let mut ttls: Vec<u64> = Vec::new();
    for &(proto, ttl) in cells {
        if !protocols.contains(&proto) {
            protocols.push(proto);
        }
        if !ttls.contains(&ttl) {
            ttls.push(ttl);
        }
    }
    let seed_list: Vec<u64> = (0..seeds).map(|s| 1000 + s).collect();
    let mut manifest = SweepManifest::paper("figures", &protocols, &ttls, &seed_list);
    manifest.base = base.clone();
    let outcome =
        run_manifest(&manifest, &SweepOptions::default()).expect("figure manifest is well-formed");
    let mut out = std::collections::HashMap::new();
    for (cell, point) in outcome.cells.iter().zip(&outcome.points) {
        let proto = cell.protocol.expect("figure cells carry a protocol");
        if cells.contains(&(proto, cell.ttl_mins)) {
            out.insert((proto, cell.ttl_mins), point.clone());
        }
    }
    out
}

/// Assemble a [`FigureResult`] from pre-computed cells.
///
/// Panics if any required cell is missing from the cache.
pub fn assemble_figure(
    spec: &FigureSpec,
    ttls: &[u64],
    cache: &std::collections::HashMap<(PaperProtocol, u64), SweepPoint>,
) -> FigureResult {
    let points = spec
        .protocols
        .iter()
        .map(|&p| {
            ttls.iter()
                .map(|&t| {
                    cache
                        .get(&(p, t))
                        .unwrap_or_else(|| panic!("missing cell {p:?}/ttl{t}"))
                        .clone()
                })
                .collect()
        })
        .collect();
    FigureResult {
        spec: spec.clone(),
        points,
        ttls: ttls.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_figures() {
        let all = FigureSpec::all();
        assert_eq!(all.len(), 6);
        let ids: Vec<&str> = all.iter().map(|s| s.id).collect();
        assert_eq!(ids, ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]);
        assert_eq!(all[4].protocols.len(), 4);
        assert_eq!(all[0].protocols.len(), 3);
    }

    #[test]
    fn quick_figure_runs_and_formats() {
        // Tiny run: one TTL, one seed, 10-minute horizon.
        let mut template = vdtn::presets::paper_scenario(PaperProtocol::EpidemicFifo, 30, 0);
        template.duration_secs = 600.0;
        let spec = FigureSpec {
            id: "test",
            title: "smoke",
            protocols: vec![PaperProtocol::EpidemicFifo],
            metric: Metric::DeliveryProbability,
        };
        let result = run_figure(&spec, &[30], 1, &ScenarioBase::Custom(Box::new(template)));
        assert_eq!(result.points.len(), 1);
        assert_eq!(result.points[0].len(), 1);
        let table = format_table(&result);
        assert!(table.contains("test"));
        assert!(table.contains("Epidemic FIFO-FIFO"));
        let csv = format_csv(&result);
        assert!(csv.lines().count() >= 2);
        assert!(csv.starts_with("label,"));
    }

    #[test]
    fn metric_extraction() {
        assert_eq!(Metric::AvgDelayMins.label(), "avg delay (min)");
        assert_eq!(Metric::DeliveryProbability.label(), "delivery probability");
    }
}
