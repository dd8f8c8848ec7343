//! Parallel parameter sweeps.
//!
//! Every figure in the paper is a sweep: protocols × TTLs, each cell
//! averaged over seeds. Runs are fully independent (deterministic per-seed
//! RNG lanes, no shared state), so the sweep is embarrassingly parallel —
//! [`run_sweep`] hands the scenario list to the orchestrator's
//! work-stealing executor, one scenario per claim, and collects reports
//! in input order. The thread count is the `VDTN_THREADS` environment
//! variable when it is a positive integer, otherwise the host's available
//! parallelism.
//!
//! This module holds the small, report-level surface (run a scenario list,
//! average one cell); the batch experiment system built on top of it —
//! manifests, work-stealing chunks, streaming accumulators, the resume
//! journal — lives in [`crate::orchestrator`].

use crate::engine::World;
use crate::orchestrator::exec::fan_out;
use crate::orchestrator::CellAccumulator;
use crate::report::SimReport;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Typed failure of a sweep: bad cell input, a malformed manifest, or a
/// journal that cannot be trusted.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A cell was averaged over zero reports.
    EmptyCell {
        /// Cell label.
        label: String,
    },
    /// One cell mixed reports with different TTLs.
    MixedTtl {
        /// Cell label.
        label: String,
        /// TTL of the first report, minutes.
        expected: f64,
        /// Offending TTL, minutes.
        got: f64,
    },
    /// A required manifest axis was empty.
    EmptyAxis {
        /// Axis name.
        axis: &'static str,
    },
    /// The manifest was structurally invalid.
    Manifest {
        /// What was wrong.
        detail: String,
    },
    /// The resume journal was unusable (wrong magic, version, or it was
    /// written by a different manifest).
    Journal {
        /// What was wrong.
        detail: String,
    },
    /// An I/O failure while reading or writing the journal.
    Io {
        /// Rendered `std::io::Error`.
        detail: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyCell { label } => {
                write!(f, "cell `{label}`: cannot average zero reports")
            }
            SweepError::MixedTtl {
                label,
                expected,
                got,
            } => write!(
                f,
                "cell `{label}`: mixed TTLs ({expected} min vs {got} min)"
            ),
            SweepError::EmptyAxis { axis } => write!(f, "manifest axis `{axis}` is empty"),
            SweepError::Manifest { detail } => write!(f, "invalid manifest: {detail}"),
            SweepError::Journal { detail } => write!(f, "unusable journal: {detail}"),
            SweepError::Io { detail } => write!(f, "journal I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io {
            detail: e.to_string(),
        }
    }
}

/// Worker threads a sweep uses by default: the `VDTN_THREADS` environment
/// variable when it parses as a positive integer, otherwise
/// `std::thread::available_parallelism` (1 if that is unavailable).
pub(crate) fn default_threads() -> usize {
    threads_from_env(std::env::var("VDTN_THREADS").ok().as_deref())
}

/// Pure core of [`default_threads`]: `var` is the raw value of
/// `VDTN_THREADS` (`None` when unset). Zero, negative or non-numeric
/// values fall back to the hardware default.
fn threads_from_env(var: Option<&str>) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Run every scenario on the default engine, on up to `VDTN_THREADS`
/// workers (see the [module docs](self)), returning reports in input
/// order. They are bit-identical to serial execution (each run is
/// independent and internally deterministic).
pub fn run_sweep(scenarios: &[Scenario]) -> Vec<SimReport> {
    let run = |k: usize| Ok::<_, std::convert::Infallible>(World::build(&scenarios[k]).run());
    match fan_out(scenarios.len(), default_threads(), run) {
        Ok((reports, _)) => reports,
        Err(never) => match never {},
    }
}

/// A figure data point: one (configuration, TTL) cell averaged over seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Configuration label (figure legend entry).
    pub label: String,
    /// Message TTL in minutes (figure x-axis).
    pub ttl_mins: f64,
    /// Seeds averaged.
    pub seeds: usize,
    /// Mean delivery probability.
    pub delivery_probability: f64,
    /// Mean average-delay in minutes.
    pub avg_delay_mins: f64,
    /// Mean unique deliveries.
    pub delivered: f64,
    /// Mean created messages.
    pub created: f64,
    /// Mean overhead ratio.
    pub overhead: f64,
    /// Std-dev of delivery probability across seeds.
    pub delivery_probability_sd: f64,
    /// Std-dev of delay across seeds, minutes.
    pub avg_delay_sd: f64,
    /// Median of per-seed average delay, minutes (reservoir-sampled).
    pub delay_p50_mins: f64,
    /// 90th percentile of per-seed average delay, minutes.
    pub delay_p90_mins: f64,
    /// 95 % confidence half-width on the delivery probability mean.
    pub delivery_ci95: f64,
    /// 95 % confidence half-width on the mean delay, minutes.
    pub avg_delay_ci95: f64,
}

/// Average per-seed reports of one experimental cell into a [`SweepPoint`].
///
/// All reports must share the same TTL (they are one figure cell);
/// violations come back as a typed [`SweepError`] instead of a panic. The
/// math is the streaming [`CellAccumulator`], so this is bit-identical to
/// what the orchestrator produces for the same reports in the same order.
pub fn average_reports(label: &str, reports: &[SimReport]) -> Result<SweepPoint, SweepError> {
    let first = reports.first().ok_or_else(|| SweepError::EmptyCell {
        label: label.to_string(),
    })?;
    let ttl = first.ttl_mins;
    let mut acc = CellAccumulator::new(label, ttl);
    for r in reports {
        if (r.ttl_mins - ttl).abs() >= 1e-9 {
            return Err(SweepError::MixedTtl {
                label: label.to_string(),
                expected: ttl,
                got: r.ttl_mins,
            });
        }
        acc.push_report(r);
    }
    Ok(acc.finish())
}

impl SweepPoint {
    /// Row for the harness tables.
    pub fn table_row(&self) -> String {
        format!(
            "{:<40} ttl={:>3}m seeds={} P={:.3}±{:.3} delay={:.1}±{:.1}m delivered={:.0}/{:.0} overhead={:.1}",
            self.label,
            self.ttl_mins,
            self.seeds,
            self.delivery_probability,
            self.delivery_probability_sd,
            self.avg_delay_mins,
            self.avg_delay_sd,
            self.delivered,
            self.created,
            self.overhead,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{mini_scenario, PaperProtocol};

    #[test]
    fn threads_from_env_parses_positive_counts_and_falls_back() {
        let hw = threads_from_env(None);
        assert!(hw >= 1);
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 8 ")), 8);
        assert_eq!(threads_from_env(Some("0")), hw);
        assert_eq!(threads_from_env(Some("-2")), hw);
        assert_eq!(threads_from_env(Some("lots")), hw);
        assert_eq!(threads_from_env(Some("")), hw);
    }

    #[test]
    fn run_sweep_matches_serial_runs_in_input_order() {
        let scenario = |seed| {
            let mut s = mini_scenario(PaperProtocol::EpidemicLifetime, 30, seed);
            s.duration_secs = 300.0;
            s
        };
        let canon = |mut r: SimReport| {
            r.wall_secs = 0.0;
            serde_json::to_string(&r).expect("report serialises")
        };
        // No scenarios, one (fewer than threads on any multi-core host),
        // and one more than there are threads.
        for n in [0, 1, default_threads() as u64 + 1] {
            let scenarios: Vec<Scenario> = (0..n).map(|k| scenario(100 + k)).collect();
            let got: Vec<String> = run_sweep(&scenarios).into_iter().map(canon).collect();
            let want: Vec<String> = scenarios
                .iter()
                .map(|s| canon(World::build(s).run()))
                .collect();
            assert_eq!(got, want, "{n} scenarios");
        }
    }

    #[test]
    fn sweep_preserves_order_and_determinism() {
        let scenarios: Vec<Scenario> = (0..4)
            .map(|seed| {
                let mut s = mini_scenario(PaperProtocol::EpidemicLifetime, 30, seed);
                s.duration_secs = 600.0;
                s
            })
            .collect();
        let parallel = run_sweep(&scenarios);
        let serial: Vec<SimReport> = scenarios.iter().map(|s| World::build(s).run()).collect();
        assert_eq!(parallel.len(), 4);
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.seed, s.seed);
            assert_eq!(p.messages.created, s.messages.created);
            assert_eq!(p.messages.delivered_unique, s.messages.delivered_unique);
            assert_eq!(p.messages.relayed, s.messages.relayed);
        }
    }

    #[test]
    fn averaging_means_and_sds() {
        let mut a = SimReport {
            ttl_mins: 60.0,
            ..SimReport::default()
        };
        a.messages.created = 100;
        a.messages.delivered_unique = 50;
        a.messages.delay.push(600.0); // 10 min
        let mut b = SimReport {
            ttl_mins: 60.0,
            ..SimReport::default()
        };
        b.messages.created = 100;
        b.messages.delivered_unique = 70;
        b.messages.delay.push(1200.0); // 20 min

        let p = average_reports("test", &[a, b]).unwrap();
        assert_eq!(p.seeds, 2);
        assert!((p.delivery_probability - 0.6).abs() < 1e-12);
        assert!((p.avg_delay_mins - 15.0).abs() < 1e-12);
        assert!(p.delivery_probability_sd > 0.0);
        assert!(p.delivery_ci95 > 0.0);
        // The reservoir holds both per-seed delays: p50 picks the midpoint
        // neighbour, p90 the larger one.
        assert!(p.delay_p90_mins >= p.delay_p50_mins);
        assert!(p.table_row().contains("ttl= 60m"));
    }

    #[test]
    fn averaging_rejects_mixed_ttls() {
        let a = SimReport {
            ttl_mins: 60.0,
            ..SimReport::default()
        };
        let b = SimReport {
            ttl_mins: 90.0,
            ..SimReport::default()
        };
        let err = average_reports("bad", &[a, b]).unwrap_err();
        assert!(matches!(err, SweepError::MixedTtl { .. }));
        assert!(err.to_string().contains("mixed TTLs"));
    }

    #[test]
    fn averaging_rejects_empty() {
        let err = average_reports("empty", &[]).unwrap_err();
        assert!(matches!(err, SweepError::EmptyCell { .. }));
        assert!(err.to_string().contains("zero reports"));
    }
}
