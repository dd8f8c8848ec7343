//! The three workloads and the measurement loop they share.
//!
//! Everything here calls the simulator through its public API only and
//! times from outside: `World::build`, `World::run_until`,
//! `World::engine_stats` and `World::run` for single runs;
//! `SweepManifest::expand` and `run_manifest` for the sweep;
//! `vdtn_geo::astar` for trip planning.

use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use vdtn::orchestrator::SweepPlan;
use vdtn::presets::PaperProtocol;
use vdtn::{
    average_reports, run_manifest, EngineMode, EngineStats, PolicyCombo, RouterKind, Scenario,
    SimReport, SimTime, SweepManifest, SweepOptions, World,
};
use vdtn_bench::engine_perf::{canon, dense_routing_scenario, engine_scenario};
use vdtn_geo::{astar, dijkstra, VertexId};
use vdtn_sim_core::SimRng;

/// Every round first repeats the workload's set-up for `setup_s`: for at
/// least this long, and at least [`SETUP_MIN_PER_ROUND`] and at most
/// [`SETUP_MAX_PER_ROUND`] times. Spreading the repeats over the rounds
/// makes `setup_s` describe the whole run, not the host in one instant.
const SETUP_SECS_PER_ROUND: f64 = 0.05;
const SETUP_MIN_PER_ROUND: usize = 3;
const SETUP_MAX_PER_ROUND: usize = 100;
/// Vertex pairs timed through `vdtn_geo::astar` in the traced run.
const ASTAR_PAIRS: usize = 200;
/// Simulated window of the single-run workloads, seconds.
const SINGLE_WINDOW_SECS: f64 = 300.0;
/// `run_until` slice of the single-run workloads, simulated seconds.
const SINGLE_SLICE_SECS: f64 = 10.0;
/// `run_until` slice of the sweep's serial replays, simulated seconds.
const SWEEP_SLICE_SECS: f64 = 3600.0;
/// TTL (minutes) of the sweep's runs: the middle of the paper's range,
/// where buffers both evict and expire.
const SWEEP_TTLS: [u64; 1] = [120];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    CityMobility,
    DenseMesh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::CityMobility,
        Workload::DenseMesh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::CityMobility => "city_mobility",
            Workload::DenseMesh => "dense_mesh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `--size` scales and its default: seeds per sweep cell,
    /// vehicles in the city, nodes in the mesh.
    pub fn default_size(self) -> usize {
        match self {
            Workload::PaperSweep => 2,
            Workload::CityMobility => 10_000,
            Workload::DenseMesh => 5_000,
        }
    }

    /// The `--size` values the workload accepts. A one-node world has no
    /// traffic endpoint pair (and the mesh no 2×2 grid), so the scenario
    /// builders would panic on it; the upper ends bound memory.
    pub fn size_range(self) -> std::ops::RangeInclusive<usize> {
        match self {
            Workload::PaperSweep => 1..=1_000,
            Workload::CityMobility | Workload::DenseMesh => 2..=1_000_000,
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub size: usize,
}

/// The engine configurations the benchmark runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The per-tick reference; the oracle for single runs.
    Ticked,
    /// The default serial event engine.
    Serial,
    /// The in-run parallel engine at the pinned pool size.
    Parallel,
}

/// The one place the benchmark picks an engine configuration. The
/// parallel engine's pool size is the `--threads` value, which `main`
/// pins for the whole process through `VDTN_THREADS` before any pool
/// exists.
fn build_world(scenario: &Scenario, engine: Engine) -> World {
    let mode = match engine {
        Engine::Ticked => EngineMode::Ticked,
        Engine::Serial => EngineMode::EventDriven,
        Engine::Parallel => EngineMode::Parallel,
    };
    World::build_with_mode(scenario, mode)
}

/// Deterministic work counts of one run (or the sum over a sweep pass).
/// They must repeat exactly across repeats and engine configurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    ticks_executed: u64,
    ticks_skipped: u64,
    advances: u64,
    node_ticks: u64,
    link_ups: u64,
    started: u64,
    aborted: u64,
    relayed: u64,
    delivered: u64,
    evictions: u64,
    expiries: u64,
}

impl Work {
    fn of(stats: &EngineStats, r: &SimReport) -> Work {
        Work {
            ticks_executed: stats.ticks_executed,
            ticks_skipped: stats.ticks_skipped,
            advances: stats.movement_advances,
            node_ticks: stats.movement_node_ticks,
            link_ups: r.contacts,
            started: r.messages.transfers_started,
            aborted: r.messages.transfers_aborted,
            relayed: r.messages.relayed,
            delivered: r.messages.delivered_unique,
            evictions: r.messages.dropped_congestion,
            expiries: r.messages.dropped_expired,
        }
    }

    fn add(&mut self, o: &Work) {
        self.ticks_executed += o.ticks_executed;
        self.ticks_skipped += o.ticks_skipped;
        self.advances += o.advances;
        self.node_ticks += o.node_ticks;
        self.link_ups += o.link_ups;
        self.started += o.started;
        self.aborted += o.aborted;
        self.relayed += o.relayed;
        self.delivered += o.delivered;
        self.evictions += o.evictions;
        self.expiries += o.expiries;
    }
}

/// One run: build, `run_until` over fixed slices, counters, finish.
struct RunSample {
    build_s: f64,
    slices: Vec<f64>,
    /// Wall of everything after the build: slices, counters and finish.
    run_s: f64,
    sim_secs: f64,
    work: Work,
    report: SimReport,
}

fn run_once(scenario: &Scenario, engine: Engine, slice_secs: f64, tr: &mut Tracer) -> RunSample {
    let span = tr.enter("run", "harness");
    let t = Instant::now();
    let mut world = tr.scope("World::build", "engine", || build_world(scenario, engine));
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let end = scenario.duration_secs;
    let mut slices = Vec::new();
    let mut stop = 0.0;
    while stop < end {
        stop = (stop + slice_secs).min(end);
        let ts = Instant::now();
        tr.scope("World::run_until", "engine", || {
            world.run_until(SimTime::from_secs_f64(stop))
        });
        slices.push(ts.elapsed().as_secs_f64());
    }
    let stats = tr.scope("World::engine_stats", "engine", || world.engine_stats());
    let report = tr.scope("World::run", "engine", || world.run());
    let run_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    RunSample {
        build_s,
        slices,
        run_s,
        sim_secs: end,
        work: Work::of(&stats, &report),
        report,
    }
}

/// Samples gathered with tracing in one state (off or on).
#[derive(Default)]
struct Collected {
    sim_rate_serial: Vec<f64>,
    sim_rate_parallel: Vec<f64>,
    runs_per_s: Vec<f64>,
    /// Per serial unit (a run, or a sweep's serial pass): its wall time,
    /// and the parallel counterpart's wall time.
    serial_wall: Vec<f64>,
    parallel_wall: Vec<f64>,
    /// Per individual serial run.
    run_total_s: Vec<f64>,
    first_slice_s: Vec<f64>,
    slice_ms: Vec<f64>,
    chunks: Vec<f64>,
    /// Set-up repeats, and each round's wall time after its set-up.
    setup: Vec<f64>,
    round_wall: Vec<f64>,
}

impl Collected {
    fn serial_run(&mut self, s: &RunSample) {
        self.run_total_s.push(s.build_s + s.run_s);
        self.first_slice_s.push(s.slices[0]);
        self.slice_ms.extend(s.slices.iter().map(|x| x * 1e3));
    }
}

/// Correctness bookkeeping: every run attempted, every run that errored
/// or disagreed with its oracle, and the first work counts seen.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    work: Option<Work>,
}

impl Checks {
    fn fail(&mut self, runs: u64, why: String) {
        self.failed += runs;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Exact-count check: `work` must equal the first counts recorded.
    fn same_work(&mut self, work: Work, what: &str) {
        match self.work {
            None => self.work = Some(work),
            Some(first) if first == work => {}
            Some(first) => self.fail(1, format!("{what}: work counts {work:?} != {first:?}")),
        }
    }
}

/// A reported metric: its value (the median, for sampled metrics), and the
/// sample summary when there is one.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

fn sampled(
    name: &'static str,
    unit: &'static str,
    samples: &[f64],
    higher_is_worse: bool,
) -> Reported {
    let summary = summarize(samples, higher_is_worse);
    Reported {
        name,
        unit,
        value: summary.median,
        summary: Some(summary),
    }
}

fn single(name: &'static str, unit: &'static str, value: f64) -> Reported {
    Reported {
        name,
        unit,
        value,
        summary: None,
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub rounds: usize,
    pub end_to_end: Vec<Reported>,
    pub per_layer: Vec<Reported>,
}

/// Run `round` until the time budget is spent, at least `min` times, each
/// time after timing `setup_once` a few times. In a traced invocation rounds alternate untraced and traced, so each
/// traced figure has an untraced twin measured under the same conditions.
fn run_rounds(
    cfg: &Config,
    tr: &mut Tracer,
    mut setup_once: impl FnMut(&mut Tracer) -> f64,
    mut round: impl FnMut(usize, &mut Collected, &mut Tracer),
) -> ([Collected; 2], usize) {
    let min = if cfg.trace { 4 } else { 3 };
    let budget = Duration::from_secs(cfg.seconds);
    let start = Instant::now();
    let mut col: [Collected; 2] = Default::default();
    let mut k = 0;
    while k < min || start.elapsed() < budget {
        let traced = cfg.trace && k % 2 == 1;
        tr.set_enabled(traced);
        let c = &mut col[usize::from(traced)];
        let span = tr.enter("round", "harness");
        let setup_start = Instant::now();
        let mut n = 0;
        while n < SETUP_MAX_PER_ROUND
            && (n < SETUP_MIN_PER_ROUND
                || setup_start.elapsed().as_secs_f64() < SETUP_SECS_PER_ROUND)
        {
            c.setup.push(setup_once(tr));
            n += 1;
        }
        let t = Instant::now();
        round(k, c, tr);
        c.round_wall.push(t.elapsed().as_secs_f64());
        tr.exit(span);
        k += 1;
    }
    tr.set_enabled(cfg.trace);
    (col, k)
}

/// Whether round `k` runs its two halves in swapped order. Alternating
/// the order keeps slow drift on the host from favouring either half.
fn flipped(cfg: &Config, k: usize) -> bool {
    let step = if cfg.trace { k / 2 } else { k };
    step % 2 == 1
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let mut astar_us = None;
    let (col, rounds) = if cfg.workload == Workload::PaperSweep {
        let manifest = sweep_manifest(cfg);
        let plan = manifest
            .expand()
            .expect("the benchmark's manifest is valid");
        if cfg.trace {
            astar_us = Some(astar_probe(
                &plan.runs[0].scenario(&manifest),
                cfg.seed,
                tr,
                &mut checks,
            ));
        }
        let setup_once = |tr: &mut Tracer| {
            let t = Instant::now();
            let plan = tr
                .scope("SweepManifest::expand", "orchestrator", || {
                    manifest.expand()
                })
                .expect("the benchmark's manifest is valid");
            let first = plan.runs[0].scenario(&manifest);
            let world = tr.scope("World::build", "engine", || {
                build_world(&first, Engine::Serial)
            });
            let secs = t.elapsed().as_secs_f64();
            drop(world);
            secs
        };
        let mut oracle: Option<(Vec<String>, Vec<String>)> = None;
        run_rounds(cfg, tr, setup_once, |k, c, tr| {
            // The first round replays serially first: that pass is the oracle.
            if flipped(cfg, k) && oracle.is_some() {
                sweep_parallel(cfg, &manifest, &plan, oracle.as_ref(), c, &mut checks, tr);
                serial_pass(&manifest, &plan, &mut oracle, c, &mut checks, tr);
            } else {
                serial_pass(&manifest, &plan, &mut oracle, c, &mut checks, tr);
                sweep_parallel(cfg, &manifest, &plan, oracle.as_ref(), c, &mut checks, tr);
            }
        })
    } else {
        let scenario = single_scenario(cfg);
        let oracle_span = tr.enter("oracle", "harness");
        let oracle = canon(run_once(&scenario, Engine::Ticked, scenario.duration_secs, tr).report);
        tr.exit(oracle_span);
        if cfg.trace {
            astar_us = Some(astar_probe(&scenario, cfg.seed, tr, &mut checks));
        }
        let setup_once = |tr: &mut Tracer| {
            let t = Instant::now();
            let world = tr.scope("World::build", "engine", || {
                build_world(&scenario, Engine::Serial)
            });
            let secs = t.elapsed().as_secs_f64();
            drop(world);
            secs
        };
        let mut run_id = 0;
        run_rounds(cfg, tr, setup_once, |k, c, tr| {
            let order = if flipped(cfg, k) {
                [Engine::Parallel, Engine::Serial]
            } else {
                [Engine::Serial, Engine::Parallel]
            };
            for engine in order {
                run_id += 1;
                tr.set_run(run_id);
                let s = run_once(&scenario, engine, SINGLE_SLICE_SECS, tr);
                checks.attempted += 1;
                let what = if engine == Engine::Serial {
                    "serial"
                } else {
                    "parallel"
                };
                if canon(s.report.clone()) != oracle {
                    checks.fail(
                        1,
                        format!("round {k}: {what} report differs from the ticked oracle"),
                    );
                }
                checks.same_work(s.work, &format!("round {k}: {what} run"));
                let rate = s.sim_secs / s.run_s;
                if engine == Engine::Serial {
                    c.sim_rate_serial.push(rate);
                    c.serial_wall.push(s.run_s);
                    c.serial_run(&s);
                } else {
                    c.sim_rate_parallel.push(rate);
                    c.parallel_wall.push(s.run_s);
                    c.runs_per_s.push(1.0 / (s.build_s + s.run_s));
                }
            }
        })
    };

    // In an untraced invocation every round is untraced; in a traced one
    // the per-layer figures come from the traced rounds.
    let e2e_col = &col[0];
    let mut end_to_end = vec![
        sampled("runs_per_s", "runs/s", &e2e_col.runs_per_s, false),
        sampled(
            "sim_rate_serial",
            "sim_s/s",
            &e2e_col.sim_rate_serial,
            false,
        ),
        sampled(
            "sim_rate_parallel",
            "sim_s/s",
            &e2e_col.sim_rate_parallel,
            false,
        ),
        sampled("setup_s", "s", &e2e_col.setup, true),
        single("peak_rss_mb", "MiB", peak_rss_mib()),
    ];
    let per_layer = if cfg.trace {
        let work = checks.work.unwrap_or_default();
        layer_metrics(cfg, &col, work, astar_us.unwrap_or(0.0), tr)
    } else {
        Vec::new()
    };
    if cfg.trace {
        // The traced rounds' end-to-end figures, for comparison with the
        // untraced ones above (the tracing overhead).
        let t = &col[1];
        end_to_end.push(sampled("traced.runs_per_s", "runs/s", &t.runs_per_s, false));
        end_to_end.push(sampled(
            "traced.sim_rate_serial",
            "sim_s/s",
            &t.sim_rate_serial,
            false,
        ));
        end_to_end.push(sampled(
            "traced.sim_rate_parallel",
            "sim_s/s",
            &t.sim_rate_parallel,
            false,
        ));
    }
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        rounds,
        end_to_end,
        per_layer,
    }
}

fn layer_metrics(
    cfg: &Config,
    col: &[Collected; 2],
    work: Work,
    astar_us: f64,
    tr: &Tracer,
) -> Vec<Reported> {
    let (u, t) = (&col[0], &col[1]);
    let ticks = (work.ticks_executed + work.ticks_skipped).max(1) as f64;
    // Work counts are exact, so per-unit costs divide each serial unit's
    // wall time by the same count.
    let per = |count: u64, scale: f64| -> Vec<f64> {
        let n = count.max(1) as f64;
        t.serial_wall.iter().map(|w| w / n * scale).collect()
    };
    let slice = summarize(&t.slice_ms, true);
    let mut out = vec![
        single(
            "engine.tick_exec_ratio",
            "ratio",
            work.ticks_executed as f64 / ticks,
        ),
        sampled(
            "engine.us_per_tick",
            "us",
            &per(work.ticks_executed, 1e6),
            true,
        ),
        single("engine.slice_ms_p50", "ms", slice.median),
        single(
            "engine.slice_ms_tail",
            "ms",
            slice.tail.map_or(f64::NAN, |(_, v)| v),
        ),
        sampled("engine.first_slice_s", "s", &t.first_slice_s, true),
        single(
            "engine.parallel_speedup",
            "ratio",
            median(&t.sim_rate_parallel) / median(&t.sim_rate_serial),
        ),
        single("mobility.advances", "count", work.advances as f64),
        single(
            "mobility.skip_rate",
            "ratio",
            if work.node_ticks == 0 {
                0.0
            } else {
                1.0 - work.advances as f64 / work.node_ticks as f64
            },
        ),
        single("geo.astar_us", "us", astar_us),
        single("net.link_ups", "count", work.link_ups as f64),
        single(
            "net.link_ups_per_tick",
            "1/tick",
            work.link_ups as f64 / work.ticks_executed.max(1) as f64,
        ),
        single("net.transfers_started", "count", work.started as f64),
        single("net.transfers_aborted", "count", work.aborted as f64),
        single(
            "net.useful_transfer_ratio",
            "ratio",
            (work.relayed + work.delivered) as f64 / work.started.max(1) as f64,
        ),
        sampled(
            "routing.ns_per_transfer",
            "ns",
            &per(work.started, 1e9),
            true,
        ),
        single("bundle.evictions", "count", work.evictions as f64),
        single("bundle.expiries", "count", work.expiries as f64),
        single(
            "orchestrator.efficiency",
            "ratio",
            median(&t.serial_wall) / (cfg.threads as f64 * median(&t.parallel_wall)),
        ),
        single("orchestrator.run_s_p50", "s", median(&t.run_total_s)),
        single(
            "orchestrator.run_s_max",
            "s",
            t.run_total_s.iter().copied().fold(0.0, f64::max),
        ),
        single(
            "orchestrator.chunks",
            "count",
            if t.chunks.is_empty() {
                0.0
            } else {
                median(&t.chunks)
            },
        ),
        single(
            "trace.overhead_ratio",
            "ratio",
            median(&t.round_wall) / median(&u.round_wall),
        ),
    ];
    let self_s = tr.self_seconds();
    for (name, layer) in [
        ("engine.self_s", "engine"),
        ("orchestrator.self_s", "orchestrator"),
        ("geo.self_s", "geo"),
        ("harness.self_s", "harness"),
    ] {
        out.push(single(name, "s", self_s.get(layer).copied().unwrap_or(0.0)));
    }
    out
}

fn single_scenario(cfg: &Config) -> Scenario {
    match cfg.workload {
        Workload::CityMobility => engine_scenario(cfg.size, SINGLE_WINDOW_SECS, cfg.seed),
        Workload::DenseMesh => dense_routing_scenario(
            cfg.size,
            SINGLE_WINDOW_SECS,
            RouterKind::Epidemic,
            PolicyCombo::LIFETIME,
            cfg.seed,
        ),
        Workload::PaperSweep => unreachable!("the sweep is not a single run"),
    }
}

/// The Figure 8–9 protocols × [`SWEEP_TTLS`] × `size` run seeds drawn
/// from the workload seed, on the full 12 h Helsinki scenario. Each run
/// seed also draws its own map, so more run seeds make a sweep's cost
/// depend less on any one map.
fn sweep_manifest(cfg: &Config) -> SweepManifest {
    let mut rng = SimRng::seed_from_u64(cfg.seed).derive("sweep-seeds", 0);
    let seeds: Vec<u64> = (0..cfg.size).map(|_| rng.next_u64() >> 16).collect();
    SweepManifest::paper(
        "paper_sweep",
        &PaperProtocol::protocol_comparison(),
        &SWEEP_TTLS,
        &seeds,
    )
}

/// Replay every run of the plan serially, in plan order. The first pass
/// is the oracle: its per-cell `average_reports` points are what the
/// orchestrator must reproduce, and its per-run reports are what later
/// passes must reproduce.
fn serial_pass(
    manifest: &SweepManifest,
    plan: &SweepPlan,
    oracle: &mut Option<(Vec<String>, Vec<String>)>,
    c: &mut Collected,
    checks: &mut Checks,
    tr: &mut Tracer,
) {
    let span = tr.enter("serial_pass", "harness");
    let mut reports = Vec::with_capacity(plan.len());
    let mut work = Work::default();
    let (mut wall, mut sim) = (0.0, 0.0);
    for (i, spec) in plan.runs.iter().enumerate() {
        tr.set_run(i as u32);
        let s = run_once(
            &spec.scenario(manifest),
            Engine::Serial,
            SWEEP_SLICE_SECS,
            tr,
        );
        checks.attempted += 1;
        work.add(&s.work);
        wall += s.run_s;
        sim += s.sim_secs;
        c.serial_run(&s);
        reports.push(s.report);
    }
    tr.exit(span);
    let runs: Vec<String> = reports.iter().map(|r| canon(r.clone())).collect();
    match oracle {
        None => *oracle = Some((cell_points(plan, &reports), runs)),
        Some((_, first)) => {
            for (i, (a, b)) in runs.iter().zip(first.iter()).enumerate() {
                if a != b {
                    checks.fail(
                        1,
                        format!("serial replay of run {i} differs from the first pass"),
                    );
                }
            }
        }
    }
    checks.same_work(work, "serial pass");
    c.sim_rate_serial.push(sim / wall);
    c.serial_wall.push(wall);
}

/// Per-cell points of the plain serial path: `average_reports` over each
/// cell's runs in plan order, serialised for exact comparison.
fn cell_points(plan: &SweepPlan, reports: &[SimReport]) -> Vec<String> {
    plan.cells
        .iter()
        .enumerate()
        .map(|(cell, key)| {
            let runs: Vec<SimReport> = plan
                .runs
                .iter()
                .zip(reports)
                .filter(|(spec, _)| spec.cell == cell)
                .map(|(_, r)| r.clone())
                .collect();
            let point = average_reports(&key.label(), &runs).expect("cells share one TTL");
            serde_json::to_string(&point).expect("points serialise")
        })
        .collect()
}

fn sweep_parallel(
    cfg: &Config,
    manifest: &SweepManifest,
    plan: &SweepPlan,
    oracle: Option<&(Vec<String>, Vec<String>)>,
    c: &mut Collected,
    checks: &mut Checks,
    tr: &mut Tracer,
) {
    let opts = SweepOptions {
        threads: cfg.threads,
        ..SweepOptions::default()
    };
    let runs = plan.len() as u64;
    let seeds_per_cell = (plan.len() / plan.cells.len()) as u64;
    checks.attempted += runs;
    let t = Instant::now();
    let outcome = tr.scope("run_manifest", "orchestrator", || {
        run_manifest(manifest, &opts)
    });
    let wall = t.elapsed().as_secs_f64();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return checks.fail(runs, format!("run_manifest failed: {e}")),
    };
    let (points, _) = oracle.expect("the serial oracle pass runs first");
    for (cell, (p, want)) in outcome.points.iter().zip(points).enumerate() {
        if &serde_json::to_string(p).expect("points serialise") != want {
            checks.fail(
                seeds_per_cell,
                format!("sweep cell {cell} differs from the serial oracle"),
            );
        }
    }
    if outcome.points.len() != points.len() {
        checks.fail(runs, "sweep produced the wrong number of cells".into());
    }
    c.runs_per_s.push(outcome.runs_executed as f64 / wall);
    let run_secs = plan.runs[0].scenario(manifest).duration_secs;
    c.sim_rate_parallel.push(runs as f64 * run_secs / wall);
    c.parallel_wall.push(wall);
    c.chunks.push(outcome.chunks as f64);
}

/// Time `vdtn_geo::astar` between vertex pairs drawn from the workload
/// seed on the workload's own map (built exactly as `World::build` builds
/// it), checking each path length against `dijkstra`. Returns the median
/// call time in microseconds.
fn astar_probe(scenario: &Scenario, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> f64 {
    let map = scenario
        .map
        .build(&mut SimRng::seed_from_u64(scenario.seed).derive("map", 0));
    let n = map.vertex_count();
    let mut rng = SimRng::seed_from_u64(seed).derive("astar-pairs", 0);
    let mut us = Vec::with_capacity(ASTAR_PAIRS);
    for _ in 0..ASTAR_PAIRS {
        let (a, b) = (VertexId(rng.index(n) as u32), VertexId(rng.index(n) as u32));
        let t = Instant::now();
        let path = tr.scope("vdtn_geo::astar", "geo", || astar(&map, a, b));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        let want = dijkstra(&map, a, b).map(|p| p.length);
        let got = path.map(|p| p.length);
        let agree = match (got, want) {
            (Some(g), Some(w)) => (g - w).abs() <= 1e-6 * w.max(1.0),
            (None, None) => true,
            _ => false,
        };
        checks.attempted += 1;
        if !agree {
            checks.fail(
                1,
                format!("astar {a:?}->{b:?} = {got:?}, dijkstra = {want:?}"),
            );
        }
    }
    median(&us)
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
