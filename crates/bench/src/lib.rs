//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `figures` binary is a thin wrapper over
//! this library: [`FigureSpec`] describes a figure as (configurations ×
//! TTLs × metric), [`run_figure`] executes the sweep (averaging seeds), and
//! [`format_table`] renders the same rows the paper plots. Paper-reported
//! values, where the text states them, live in [`mod@reference`] so every
//! regenerated figure prints measured-vs-paper side by side.
//!
//! # Example
//!
//! ```
//! use vdtn_bench::{render, Series};
//!
//! let series = [Series {
//!     label: "Epidemic".into(),
//!     values: vec![31.0, 29.0, 27.0],
//! }];
//! let ttls: Vec<String> = ["60", "120", "180"].iter().map(|s| s.to_string()).collect();
//! let chart = render("average delay (min)", &ttls, &series, 40, 8);
//! assert!(chart.contains("Epidemic"));
//! ```

pub mod chart;
pub mod engine_perf;
pub mod harness;
pub mod reference;

pub use chart::{render, Series};
pub use engine_perf::engine_scenario;
pub use harness::{format_table, run_figure, FigureResult, FigureSpec, Metric};
pub use reference::{paper_delta_reference, DeltaReference};
