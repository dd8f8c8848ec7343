//! Regenerate every table and figure of the paper.
//!
//! ```text
//! figures [FLAGS]
//!   --all              regenerate Table I and Figures 4-9 (default)
//!   --table1           print the policy-combination table
//!   --fig4 … --fig9    regenerate a single figure
//!   --ablation-copies  Spray-and-Wait quota sweep L ∈ {4, 8, 12, 16}
//!   --ablation-tick    engine-tick sensitivity (0.5 s vs 1 s vs 2 s)
//!   --ablation-map     calibrated map vs full-city extent
//!   --seeds N          seeds per cell (default 3)
//!   --quick            2-hour horizon, 1 seed (smoke mode)
//!   --out DIR          output directory (default bench_results)
//!   --replot           re-render tables and ASCII charts from DIR/<fig>.csv
//!                      without re-running any simulation
//! ```
//!
//! Each figure prints the value table the paper plots, the measured deltas
//! against the FIFO–FIFO baseline side by side with the deltas the paper's
//! text states, and writes `DIR/<fig>.csv`.
//!
//! An unknown flag, a missing value or a bad `--seeds` count prints one
//! line on stderr and exits with code 2 before any simulation runs. An
//! output directory or CSV file that cannot be created or written prints
//! one line and exits with code 1.

use std::collections::HashMap;
use vdtn::orchestrator::{run_manifest, ScenarioBase, SweepManifest, SweepOptions};
use vdtn::presets::{paper_scenario, PaperProtocol};
use vdtn::scenario::{MapSpec, MobilitySpec};
use vdtn::sweep::SweepPoint;
use vdtn::Scenario;
use vdtn_bench::harness::{
    assemble_figure, format_csv, format_table, paper_ttls, run_cells, FigureSpec,
};
use vdtn_bench::reference::{paper_delta_reference, paper_ordering_claims};
use vdtn_geo::SyntheticCityGen;

struct Options {
    figures: Vec<FigureSpec>,
    table1: bool,
    ablation_copies: bool,
    ablation_tick: bool,
    ablation_map: bool,
    seeds: u64,
    quick: bool,
    out_dir: String,
    replot: bool,
}

/// Reject bad command-line input: one line on stderr, exit code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        figures: Vec::new(),
        table1: false,
        ablation_copies: false,
        ablation_tick: false,
        ablation_map: false,
        seeds: 3,
        quick: false,
        out_dir: "bench_results".to_string(),
        replot: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => {
                opts.figures = FigureSpec::all();
                opts.table1 = true;
            }
            "--table1" => opts.table1 = true,
            "--ablation-copies" => opts.ablation_copies = true,
            "--ablation-tick" => opts.ablation_tick = true,
            "--ablation-map" => opts.ablation_map = true,
            "--seeds" => {
                let v = it.next().map_or("", String::as_str);
                opts.seeds = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage_error(&format!("--seeds needs an integer >= 1, got '{v}'")),
                };
            }
            "--quick" => opts.quick = true,
            "--replot" => opts.replot = true,
            "--out" => {
                opts.out_dir = it
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a directory"))
                    .clone();
            }
            other => match FigureSpec::all()
                .into_iter()
                .find(|f| other == format!("--{}", f.id))
            {
                Some(fig) => opts.figures.push(fig),
                None => usage_error(&format!("unknown flag {other}")),
            },
        }
    }
    // With nothing selected, regenerate Table I and every figure.
    let selected = opts.table1
        || opts.replot
        || opts.ablation_copies
        || opts.ablation_tick
        || opts.ablation_map
        || !opts.figures.is_empty();
    if !selected {
        opts.figures = FigureSpec::all();
        opts.table1 = true;
    }
    opts
}

fn print_table1() {
    println!("## Table I — Combined scheduling-dropping policies\n");
    println!("{:<16} | Dropping", "Scheduling");
    println!("{}-+-{}", "-".repeat(16), "-".repeat(16));
    for combo in vdtn::PolicyCombo::paper_table() {
        println!(
            "{:<16} | {}",
            combo.scheduling.label(),
            combo.dropping.label()
        );
    }
    println!();
}

/// Print measured deltas vs FIFO-FIFO next to the paper's stated deltas.
fn print_delta_comparison(cache: &HashMap<(PaperProtocol, u64), SweepPoint>, ttls: &[u64]) {
    let rows = [
        (
            "Epidemic Random-FIFO",
            PaperProtocol::EpidemicFifo,
            PaperProtocol::EpidemicRandom,
        ),
        (
            "Epidemic Lifetime DESC-Lifetime ASC",
            PaperProtocol::EpidemicFifo,
            PaperProtocol::EpidemicLifetime,
        ),
        (
            "SnW Lifetime DESC-Lifetime ASC",
            PaperProtocol::SnwFifo,
            PaperProtocol::SnwLifetime,
        ),
    ];
    let refs = paper_delta_reference();
    println!("## Paper-vs-measured deltas against the FIFO-FIFO baseline\n");
    for (label, base, variant) in rows {
        let Some(reference) = refs.iter().find(|r| r.label == label) else {
            continue;
        };
        let cells: Option<Vec<(&SweepPoint, &SweepPoint)>> = ttls
            .iter()
            .map(|&t| Some((cache.get(&(base, t))?, cache.get(&(variant, t))?)))
            .collect();
        let Some(cells) = cells else {
            continue; // figure subset did not include these cells
        };
        println!("{label}:");
        println!(
            "  {:<28} {}",
            "TTL (min)",
            ttls.iter()
                .map(|t| format!("{t:>8}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let delay_meas: Vec<String> = cells
            .iter()
            .map(|(b, v)| format!("{:>8.1}", b.avg_delay_mins - v.avg_delay_mins))
            .collect();
        let delay_ref: Vec<String> = reference
            .delay_gain_mins
            .iter()
            .take(ttls.len())
            .map(|d| format!("{d:>8.1}"))
            .collect();
        println!(
            "  {:<28} {}",
            "delay gain, measured (min)",
            delay_meas.join(" ")
        );
        println!(
            "  {:<28} {}",
            "delay gain, paper (min)",
            delay_ref.join(" ")
        );
        let dp_meas: Vec<String> = cells
            .iter()
            .map(|(b, v)| format!("{:>+8.3}", v.delivery_probability - b.delivery_probability))
            .collect();
        let dp_ref: Vec<String> = reference
            .delivery_gain
            .iter()
            .take(ttls.len())
            .map(|d| format!("{d:>+8.3}"))
            .collect();
        println!("  {:<28} {}", "delivery gain, measured", dp_meas.join(" "));
        println!("  {:<28} {}", "delivery gain, paper", dp_ref.join(" "));
        println!();
    }
    println!("Paper ordering claims to check against the tables above:");
    for claim in paper_ordering_claims() {
        println!("  * {claim}");
    }
    println!();
}

/// The paper scenario for `protocol` as a `Custom` sweep template,
/// shortened for smoke mode when `quick`: a 2-hour horizon, and vehicle
/// pauses capped at 300 s so the fleet keeps moving from the start. Its TTL
/// and seed are placeholders that each run's manifest axes replace.
fn template(protocol: PaperProtocol, quick: bool) -> Scenario {
    let mut s = paper_scenario(protocol, ABLATION_TTL, 0);
    if quick {
        s.duration_secs = 7_200.0;
        for g in &mut s.groups {
            if let MobilitySpec::ShortestPathMapBased(cfg) = &mut g.mobility {
                cfg.wait_hi = cfg.wait_hi.min(300.0);
            }
        }
    }
    s
}

/// The TTL every ablation runs at, minutes.
const ABLATION_TTL: u64 = 120;

/// Run one ablation: each `(label, template)` variant is one `Custom`-base
/// manifest over the seed axis at [`ABLATION_TTL`], averaged into one row
/// that is printed and written to `DIR/<name>.csv`. Expansion failures
/// surface as typed `SweepError`s, a failed CSV write as its one-line
/// reason.
fn ablation(
    title: &str,
    name: &str,
    variants: impl IntoIterator<Item = (String, Scenario)>,
    seeds: u64,
    out_dir: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation — {title}\n");
    let mut rows = Vec::new();
    for (label, template) in variants {
        let manifest = SweepManifest {
            name: template.name.clone(),
            base: ScenarioBase::Custom(Box::new(template)),
            protocols: Vec::new(),
            policies: Vec::new(),
            vehicles: Vec::new(),
            ttls_mins: vec![ABLATION_TTL],
            seeds: (0..seeds).map(|s| 1000 + s).collect(),
            duration_secs: 0.0,
        };
        // One template at one TTL: the manifest has exactly one cell.
        let mut point = run_manifest(&manifest, &SweepOptions::default())?
            .points
            .remove(0);
        point.label = label;
        println!("  {}", point.table_row());
        rows.push(point);
    }
    write_csv_points(out_dir, name, &rows)?;
    println!();
    Ok(())
}

fn write_csv_points(out_dir: &str, name: &str, points: &[SweepPoint]) -> Result<(), String> {
    let path = format!("{out_dir}/{name}.csv");
    let mut csv = String::from("label,ttl_mins,delivery_probability,avg_delay_mins,seeds\n");
    for p in points {
        csv += &format!(
            "{},{},{:.4},{:.2},{}\n",
            p.label, p.ttl_mins, p.delivery_probability, p.avg_delay_mins, p.seeds
        );
    }
    write_file(&path, &csv)?;
    println!("  -> {path}");
    Ok(())
}

/// Write an output file, or the one-line reason it could not be written.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Re-render saved figure CSVs (tables + ASCII charts) without simulating.
fn replot(out_dir: &str) {
    for fig in FigureSpec::all() {
        let path = format!("{out_dir}/{}.csv", fig.id);
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("skipping {}: no {path} (run the sweep first)", fig.id);
            continue;
        };
        // CSV layout: label,ttl_mins,value,sd,seeds — rows grouped by label.
        let mut labels: Vec<String> = Vec::new();
        let mut ttls: Vec<String> = Vec::new();
        let mut values: HashMap<String, Vec<f64>> = HashMap::new();
        for line in text.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() < 3 {
                continue;
            }
            let label = cols[0].to_string();
            let ttl = format!("{}", cols[1].parse::<f64>().unwrap_or(0.0) as u64);
            if !labels.contains(&label) {
                labels.push(label.clone());
            }
            if !ttls.contains(&ttl) {
                ttls.push(ttl);
            }
            values
                .entry(label)
                .or_default()
                .push(cols[2].parse().unwrap_or(f64::NAN));
        }
        if labels.is_empty() {
            continue;
        }
        let series: Vec<vdtn_bench::Series> = labels
            .iter()
            .map(|l| vdtn_bench::Series {
                label: l.clone(),
                values: values[l].clone(),
            })
            .collect();
        println!("## {} — {} (replotted from {path})\n", fig.id, fig.title);
        println!("{}", vdtn_bench::render(fig.title, &ttls, &series, 60, 14));
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", opts.out_dir))?;

    if opts.replot {
        replot(&opts.out_dir);
        return Ok(());
    }

    let seeds = if opts.quick { 1 } else { opts.seeds };
    let quick = opts.quick;

    if opts.table1 {
        print_table1();
    }

    if !opts.figures.is_empty() {
        let ttls = paper_ttls();
        // Union of all cells needed by the requested figures, deduplicated.
        let mut cells: Vec<(PaperProtocol, u64)> = Vec::new();
        for fig in &opts.figures {
            for &p in &fig.protocols {
                for &t in &ttls {
                    if !cells.contains(&(p, t)) {
                        cells.push((p, t));
                    }
                }
            }
        }
        eprintln!(
            "running {} cells x {} seeds ({} simulations of {} simulated hours)…",
            cells.len(),
            seeds,
            cells.len() * seeds as usize,
            if quick { 2 } else { 12 },
        );
        let t0 = std::time::Instant::now();
        // The manifest's protocol axis sets each run's router and policy.
        let base = if quick {
            ScenarioBase::Custom(Box::new(template(PaperProtocol::EpidemicFifo, true)))
        } else {
            ScenarioBase::Paper
        };
        let cache = run_cells(&cells, seeds, &base);
        eprintln!("sweep finished in {:.0} s wall", t0.elapsed().as_secs_f64());

        for fig in &opts.figures {
            let result = assemble_figure(fig, &ttls, &cache);
            println!("{}", format_table(&result));
            // ASCII rendition of the figure so the line shapes (who wins,
            // where curves cross) are visible in the terminal.
            let series: Vec<vdtn_bench::Series> = result
                .points
                .iter()
                .map(|row| vdtn_bench::Series {
                    label: row[0].label.clone(),
                    values: row.iter().map(|p| fig.metric.of(p)).collect(),
                })
                .collect();
            let x_labels: Vec<String> = ttls.iter().map(|t| t.to_string()).collect();
            println!(
                "{}",
                vdtn_bench::render(fig.title, &x_labels, &series, 60, 14)
            );
            let path = format!("{}/{}.csv", opts.out_dir, fig.id);
            write_file(&path, &format_csv(&result))?;
            println!("  -> {path}\n");
        }
        // Delta comparison needs the policy figures' cells; print whenever
        // the epidemic set is present.
        print_delta_comparison(&cache, &ttls);
    }

    if opts.ablation_copies {
        let variants = [4u32, 8, 12, 16].map(|copies| {
            let mut t = template(PaperProtocol::SnwLifetime, quick);
            t.router = vdtn::RouterKind::SprayAndWait {
                copies,
                binary: true,
            };
            t.name = format!("ablation/snw-L{copies}");
            (format!("SnW L={copies}"), t)
        });
        let title = "Spray and Wait initial copies L (paper fixes L = 12)";
        ablation(title, "ablation_copies", variants, seeds, &opts.out_dir)?;
    }
    if opts.ablation_tick {
        let variants = [0.5, 1.0, 2.0].map(|tick| {
            let mut t = template(PaperProtocol::EpidemicLifetime, quick);
            t.tick_secs = tick;
            t.name = format!("ablation/tick{tick}");
            (format!("tick={tick}s"), t)
        });
        let title = "engine tick length (metric drift vs 1 s baseline)";
        ablation(title, "ablation_tick", variants, seeds, &opts.out_dir)?;
    }
    if opts.ablation_map {
        let variants = [
            ("downtown 1300x1000 (default)", SyntheticCityGen::default()),
            ("full city 4500x3400", SyntheticCityGen::full_city()),
        ]
        .map(|(label, gen)| {
            let mut t = template(PaperProtocol::EpidemicLifetime, quick);
            t.map = MapSpec::Synthetic(gen);
            t.name = format!("ablation/map/{label}");
            (label.to_string(), t)
        });
        let title = "calibrated downtown map vs full-city extent";
        ablation(title, "ablation_map", variants, seeds, &opts.out_dir)?;
    }
    Ok(())
}
