//! One-shot engine-scheduler benchmark harness.
//!
//! Runs the ticked and event-driven engines on identical scenarios across
//! fleet sizes — the paper-mobility sweep plus the transfer-bound scenario
//! (few large bundles over a slow radio; the event engine rides scheduled
//! `TransferComplete` instants instead of per-tick byte draining) —
//! verifies the reports are bit-identical, and prints small tables. With
//! `--json [PATH]` it also records the measurements as JSON (default
//! `BENCH_engine.json`, with the transfer scenario under
//! `"transfer_bound"`), which is the repo's perf trajectory for the
//! scheduler. `--duration-secs` shortens both sections (CI smoke).
//!
//! With `--routing [PATH]` it additionally measures the routing-round-
//! dominated dense-contact scenario (stationary mesh, permanent contacts;
//! see [`vdtn_bench::engine_perf::dense_routing_scenario`]) after the
//! engine-modes table and records it as JSON (default
//! `BENCH_routing.json`) — the trajectory for the incremental-routing
//! work. Each routing row runs three engine modes — the ticked reference,
//! the event-driven engine, and the **parallel** engine — verifies all
//! three reports are bit-identical, and records the parallel-vs-ticked
//! speedup. The
//! fleet sizes and durations default to the fixed perf-trajectory set
//! (the regime, not the scale, is the point); `--routing-nodes` overrides
//! them for CI smoke runs, with `--duration-secs` then bounding the
//! routing durations too.
//!
//! `--threads N` pins the parallel engine's pool size (recorded as
//! `"threads"` in both JSON documents); the default follows
//! `VDTN_THREADS` / the machine's core count, exactly like the engine.
//! Every row in both files carries `parallel_wall_secs`.
//!
//! The `--json` run also writes a `"memory"` section: peak RSS and
//! bytes/node on the dense-mesh scenario at 1k/10k/100k nodes (override
//! with `--memory-nodes`). Because `VmHWM` is a process-lifetime high
//! water mark, each size is measured in a fresh child process — the
//! binary re-execs itself with the hidden `--memory-probe N` flag, the
//! child runs one world and prints its row. On platforms without
//! `/proc/self/status` the RSS fields are recorded as JSON `null`.
//!
//! Both JSON files carry `"schema_version"` (currently 7; v3 added the
//! parallel engine columns, v4 the `memory` section and the 100k-node
//! sweep row, v5 the `motion` skip-rate section and the
//! `parallel_overhead` warning field, v6 the `sweep` orchestrator
//! section, v7 dropped the routing rows' rescan columns); an unwritable
//! output path is a clean, explained non-zero
//! exit, not a panic.
//!
//! With `--sweep-bench` the run also measures the sweep orchestrator
//! (`vdtn::orchestrator`) on a 1000-run manifest (mini base, the four
//! comparison protocols × the paper TTL axis × 50 seeds; scale with
//! `--sweep-seeds`): work-stealing throughput in runs/sec against the
//! plain per-cell `run_sweep` + `average_reports` path on the *same*
//! expansion, aggregate bit-identity at 1/2/4/8-thread pools, journal
//! write + truncate-at-half + `--resume` replay bit-identity, and peak
//! RSS at quarter vs full run count (fresh probe process per size via
//! the hidden `--sweep-probe` flag, like the memory section) — flat RSS
//! is the O(cells) streaming-accumulator claim, measured. Recorded under
//! `"sweep"` in the engine JSON; any identity failure fails the run.
//!
//! The `motion` section records the event engine's movement counters per
//! sweep size — ticks executed/skipped and movement-model advances versus
//! the `mobile_nodes × ticks` the ticked reference performs — so speedup
//! changes are directly attributable to motion work actually elided.
//!
//! The `mobility_bound` section (sizes from `--mobility-nodes`, default
//! 2000) re-runs the paper fleet with deliberately sparse traffic, making
//! the run movement-dominated wall to wall: the motion-segment protocol's
//! target regime, and the row the CI perf floor holds to "event no slower
//! than ticked". Its skip-rate counters join the `motion` section with
//! `"scenario": "mobility_bound"`.
//!
//! A sweep entry gains `"parallel_overhead": true` when the parallel
//! engine is slower than the serial event engine *on a one-thread pool* —
//! that combination means the sharding machinery itself is pure overhead
//! (no cores to win back), which a CI perf floor must distinguish from a
//! real scheduler regression.
//!
//! ```text
//! engine_bench [--json [PATH]] [--routing [PATH]] [--routing-nodes N,N]
//!              [--nodes 50,200,1000,5000,10000,100000] [--memory-nodes N,N]
//!              [--mobility-nodes N,N] [--duration-secs N] [--seed N]
//!              [--threads N] [--sweep-bench] [--sweep-seeds N]
//! ```

use vdtn::engine::EngineMode;
use vdtn::orchestrator::{run_manifest, RunSpec, ScenarioBase, SweepManifest, SweepOptions};
use vdtn::presets::{PaperProtocol, PAPER_TTLS_MIN};
use vdtn::sweep::{average_reports, run_sweep_with_options, SweepPoint};
use vdtn::{PolicyCombo, RouterKind};
use vdtn_bench::engine_perf::{
    canon, dense_routing_scenario, engine_scenario, mobility_bound_scenario, run_mode,
    run_mode_with_stats, run_parallel, transfer_bound_scenario,
};

/// Version of the JSON layout this binary writes (bumped when fields
/// change; PR 5 added the routing section's index/rescan split, PR 6 the
/// sharded parallel engine's `parallel_wall_secs`/`threads` columns, PR 7
/// the `memory` section and the 100k-node sweep row, PR 8 the `motion`
/// skip-rate section and the `parallel_overhead` warning field, PR 9 the
/// `sweep` orchestrator section; v7 dropped the routing section's
/// `rescan_wall_secs` and `speedup_index_vs_rescan` columns with the
/// rescan backend).
const SCHEMA_VERSION: u32 = 7;

/// Write a benchmark JSON document, exiting non-zero with a clear message
/// when the path cannot be written (read-only dir, missing parent, …).
fn write_json(path: &str, doc: &str) {
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("error: cannot write benchmark JSON to '{path}': {e}");
        eprintln!("hint: check the directory exists and is writable, or pass a different path");
        std::process::exit(1);
    }
    println!("wrote {path} (schema v{SCHEMA_VERSION})");
}

const USAGE: &str = "usage: engine_bench [--json [PATH]] [--routing [PATH]] [--routing-nodes N,N] [--nodes N,N] [--mobility-nodes N,N] [--memory-nodes N,N] [--duration-secs N] [--seed N] [--threads N] [--sweep-bench] [--sweep-seeds N]";

/// Reject bad command-line input: one line on stderr, exit code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("engine_bench: {msg} ({USAGE})");
    std::process::exit(2);
}

/// The operand of `flag`, or a usage error when it is missing.
fn value(flag: &str, operand: Option<String>) -> String {
    operand.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// A count of at least `min`.
fn count(flag: &str, v: &str, min: usize) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= min => n,
        _ => usage_error(&format!("{flag} needs an integer >= {min}, got '{v}'")),
    }
}

/// A comma-separated list of node counts, each at least 2.
fn node_list(flag: &str, v: &str) -> Vec<usize> {
    v.split(',').map(|s| count(flag, s, 2)).collect()
}

struct Entry {
    nodes: usize,
    duration_secs: f64,
    ticked_wall_secs: f64,
    event_wall_secs: f64,
    parallel_wall_secs: f64,
    speedup: f64,
    identical: bool,
    /// True when the parallel engine lost to the serial event engine on a
    /// one-thread pool: sharding overhead with no cores to win it back —
    /// expected on single-core boxes, and distinct from a real regression.
    parallel_overhead: bool,
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut routing_path: Option<String> = None;
    let mut nodes: Vec<usize> = vec![50, 200, 1000, 5000, 10000, 100000];
    let mut routing_nodes: Option<Vec<usize>> = None;
    let mut mobility_nodes: Vec<usize> = vec![2000];
    let mut memory_nodes: Vec<usize> = vec![1000, 10000, 100000];
    let mut memory_probe: Option<usize> = None;
    let mut sweep_bench = false;
    let mut sweep_seeds: usize = 50;
    let mut sweep_probe: Option<usize> = None;
    let mut duration_override: Option<f64> = None;
    let mut seed = 42u64;
    let mut threads: usize = rayon::current_num_threads();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--json" => {
                // Optional path operand; default name otherwise.
                let path = args.next_if(|p| !p.starts_with("--"));
                json_path = Some(path.unwrap_or_else(|| "BENCH_engine.json".to_string()));
            }
            "--routing" => {
                let path = args.next_if(|p| !p.starts_with("--"));
                routing_path = Some(path.unwrap_or_else(|| "BENCH_routing.json".to_string()));
            }
            // Every scenario builder needs at least two nodes (two traffic
            // endpoints; the mesh builders also a map of two vertices).
            "--nodes" => nodes = node_list(flag, &value(flag, args.next())),
            "--routing-nodes" => routing_nodes = Some(node_list(flag, &value(flag, args.next()))),
            "--mobility-nodes" => mobility_nodes = node_list(flag, &value(flag, args.next())),
            "--memory-nodes" => memory_nodes = node_list(flag, &value(flag, args.next())),
            "--memory-probe" => memory_probe = Some(count(flag, &value(flag, args.next()), 2)),
            "--sweep-bench" => sweep_bench = true,
            "--sweep-seeds" => sweep_seeds = count(flag, &value(flag, args.next()), 2),
            "--sweep-probe" => sweep_probe = Some(count(flag, &value(flag, args.next()), 1)),
            "--duration-secs" => {
                let v = value(flag, args.next());
                // A run must span at least one 1 s tick.
                match v.parse::<f64>() {
                    Ok(secs) if secs.is_finite() && secs >= 1.0 => duration_override = Some(secs),
                    _ => usage_error(&format!("{flag} needs a number of seconds >= 1, got '{v}'")),
                }
            }
            "--seed" => {
                let v = value(flag, args.next());
                seed = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("{flag} needs an unsigned integer, got '{v}'"))
                });
            }
            "--threads" => threads = count(flag, &value(flag, args.next()), 1),
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(n) = memory_probe {
        run_memory_probe(n, duration_override.unwrap_or(60.0), seed, threads);
    }
    if let Some(n) = sweep_probe {
        run_sweep_probe(n, threads);
    }

    println!(
        "engine scheduler: ticked vs event-driven vs parallel[{threads}t] (bit-identical reports)"
    );
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "nodes", "sim secs", "ticked s", "event s", "parallel s", "speedup", "identical"
    );
    let mut entries = Vec::new();
    let mut motion_rows = Vec::new();
    for &n in &nodes {
        let duration = duration_override.unwrap_or(match n {
            0..=99 => 1_200.0,
            100..=499 => 600.0,
            500..=2_499 => 240.0,
            2_500..=20_000 => 120.0,
            _ => 60.0,
        });
        let scenario = engine_scenario(n, duration, seed);
        let ticked = run_mode(&scenario, EngineMode::Ticked);
        let (event, stats) = run_mode_with_stats(&scenario, EngineMode::EventDriven);
        let parallel = run_parallel(&scenario, threads);
        let identical = canon(ticked.clone()) == canon(event.clone())
            && canon(event.clone()) == canon(parallel.clone());
        let entry = Entry {
            nodes: n,
            duration_secs: duration,
            ticked_wall_secs: ticked.wall_secs,
            event_wall_secs: event.wall_secs,
            parallel_wall_secs: parallel.wall_secs,
            speedup: ticked.wall_secs / event.wall_secs.max(1e-9),
            identical,
            parallel_overhead: threads == 1 && parallel.wall_secs > event.wall_secs,
        };
        println!(
            "{:>6} {:>10.0} {:>12.3} {:>12.3} {:>12.3} {:>8.2}x {:>10}",
            entry.nodes,
            entry.duration_secs,
            entry.ticked_wall_secs,
            entry.event_wall_secs,
            entry.parallel_wall_secs,
            entry.speedup,
            entry.identical,
        );
        if entry.parallel_overhead {
            println!(
                "        warning: parallel ({:.3}s) slower than event ({:.3}s) on a 1-thread pool — sharding overhead, not a scheduler regression",
                entry.parallel_wall_secs, entry.event_wall_secs
            );
        }
        motion_rows.push(format!(
            "    {{\"scenario\": \"sweep\", \"nodes\": {}, \"sim_duration_secs\": {}, \"ticks_executed\": {}, \"ticks_skipped\": {}, \"movement_advances\": {}, \"movement_node_ticks\": {}, \"movement_skip_rate\": {:.6}}}",
            n,
            duration,
            stats.ticks_executed,
            stats.ticks_skipped,
            stats.movement_advances,
            stats.movement_node_ticks,
            stats.movement_skip_rate(),
        ));
        entries.push(entry);
    }

    // Transfer-bound section: few large bundles over a slow radio under
    // permanent contacts — engine work should be O(bundles), independent of
    // how many seconds each bundle drains. Part of the default run (and of
    // BENCH_engine.json) so the smoke step always checks its identity too.
    println!("transfer-bound: isolated stationary pairs, 1-2 MB bundles at 4 kB/s");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "nodes", "sim secs", "ticked s", "event s", "parallel s", "speedup", "identical"
    );
    let mut transfer_entries = Vec::new();
    for &pairs in &[4usize, 16] {
        let duration = duration_override.unwrap_or(2_400.0);
        let scenario = transfer_bound_scenario(pairs, duration, seed);
        let ticked = run_mode(&scenario, EngineMode::Ticked);
        let event = run_mode(&scenario, EngineMode::EventDriven);
        let parallel = run_parallel(&scenario, threads);
        let identical = canon(ticked.clone()) == canon(event.clone())
            && canon(event.clone()) == canon(parallel.clone());
        let entry = Entry {
            nodes: pairs * 2,
            duration_secs: duration,
            ticked_wall_secs: ticked.wall_secs,
            event_wall_secs: event.wall_secs,
            parallel_wall_secs: parallel.wall_secs,
            speedup: ticked.wall_secs / event.wall_secs.max(1e-9),
            identical,
            parallel_overhead: threads == 1 && parallel.wall_secs > event.wall_secs,
        };
        println!(
            "{:>6} {:>10.0} {:>12.3} {:>12.3} {:>12.3} {:>8.2}x {:>10}",
            entry.nodes,
            entry.duration_secs,
            entry.ticked_wall_secs,
            entry.event_wall_secs,
            entry.parallel_wall_secs,
            entry.speedup,
            entry.identical,
        );
        transfer_entries.push(entry);
    }

    // Mobility-bound section: the paper fleet with sparse traffic, so the
    // run is movement and contact detection wall to wall — the motion-
    // segment protocol's target regime, and the row the CI perf floor
    // holds to "event no slower than ticked".
    println!("mobility-bound: paper fleet, sparse traffic (movement dominates)");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "nodes", "sim secs", "ticked s", "event s", "parallel s", "speedup", "identical"
    );
    let mut mobility_entries = Vec::new();
    let mut mobility_motion_rows = Vec::new();
    for &n in &mobility_nodes {
        let duration = duration_override.unwrap_or(240.0);
        let scenario = mobility_bound_scenario(n, duration, seed);
        let ticked = run_mode(&scenario, EngineMode::Ticked);
        let (event, stats) = run_mode_with_stats(&scenario, EngineMode::EventDriven);
        let parallel = run_parallel(&scenario, threads);
        let identical = canon(ticked.clone()) == canon(event.clone())
            && canon(event.clone()) == canon(parallel.clone());
        let entry = Entry {
            nodes: n,
            duration_secs: duration,
            ticked_wall_secs: ticked.wall_secs,
            event_wall_secs: event.wall_secs,
            parallel_wall_secs: parallel.wall_secs,
            speedup: ticked.wall_secs / event.wall_secs.max(1e-9),
            identical,
            parallel_overhead: threads == 1 && parallel.wall_secs > event.wall_secs,
        };
        println!(
            "{:>6} {:>10.0} {:>12.3} {:>12.3} {:>12.3} {:>8.2}x {:>10}",
            entry.nodes,
            entry.duration_secs,
            entry.ticked_wall_secs,
            entry.event_wall_secs,
            entry.parallel_wall_secs,
            entry.speedup,
            entry.identical,
        );
        mobility_motion_rows.push(format!(
            "    {{\"scenario\": \"mobility_bound\", \"nodes\": {}, \"sim_duration_secs\": {}, \"ticks_executed\": {}, \"ticks_skipped\": {}, \"movement_advances\": {}, \"movement_node_ticks\": {}, \"movement_skip_rate\": {:.6}}}",
            n,
            duration,
            stats.ticks_executed,
            stats.ticks_skipped,
            stats.movement_advances,
            stats.movement_node_ticks,
            stats.movement_skip_rate(),
        ));
        mobility_entries.push(entry);
    }

    // Memory section: one child process per size, since VmHWM is a
    // process-lifetime high water mark (see `run_memory_section`). Only
    // measured when the run records JSON — the console-only mode stays a
    // quick identity check.
    let (memory_rows, memory_identical) = if json_path.is_some() {
        run_memory_section(&memory_nodes, duration_override, seed, threads)
    } else {
        (Vec::new(), true)
    };

    // Sweep-orchestrator section: opt-in (it runs the 1000-run manifest
    // about nine times over for the reference/thread/resume/RSS checks).
    let (sweep_json, sweep_ok) = if sweep_bench {
        let (json, ok) = run_sweep_section(sweep_seeds, threads);
        (Some(json), ok)
    } else {
        (None, true)
    };

    let any_mismatch = entries
        .iter()
        .chain(transfer_entries.iter())
        .chain(mobility_entries.iter())
        .any(|e| !e.identical)
        || !memory_identical
        || !sweep_ok;
    if let Some(path) = json_path {
        // Hand-rolled JSON keeps the schema explicit and the vendored
        // serde_json shim out of the float-formatting hot seat.
        let row = |e: &Entry| {
            let overhead = if e.parallel_overhead {
                ", \"parallel_overhead\": true"
            } else {
                ""
            };
            format!(
                "    {{\"nodes\": {}, \"sim_duration_secs\": {}, \"ticked_wall_secs\": {:.6}, \"event_wall_secs\": {:.6}, \"parallel_wall_secs\": {:.6}, \"speedup\": {:.3}, \"reports_identical\": {}{}}}",
                e.nodes, e.duration_secs, e.ticked_wall_secs, e.event_wall_secs, e.parallel_wall_secs, e.speedup, e.identical, overhead
            )
        };
        let rows: Vec<String> = entries.iter().map(row).collect();
        let transfer_rows: Vec<String> = transfer_entries.iter().map(row).collect();
        let mobility_rows: Vec<String> = mobility_entries.iter().map(row).collect();
        let all_motion_rows: Vec<String> = motion_rows
            .iter()
            .chain(mobility_motion_rows.iter())
            .cloned()
            .collect();
        let sweep_field = match &sweep_json {
            Some(obj) => format!(",\n  \"sweep\": {obj}"),
            None => String::new(),
        };
        let doc = format!(
            "{{\n  \"benchmark\": \"engine_modes\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"description\": \"World::run wall time, ticked vs event-driven vs parallel scheduler, identical scenarios (paper mobility, Epidemic + Lifetime policies)\",\n  \"seed\": {},\n  \"threads\": {},\n  \"entries\": [\n{}\n  ],\n  \"motion\": [\n{}\n  ],\n  \"transfer_bound\": [\n{}\n  ],\n  \"mobility_bound\": [\n{}\n  ],\n  \"memory\": [\n{}\n  ]{}\n}}\n",
            seed,
            threads,
            rows.join(",\n"),
            all_motion_rows.join(",\n"),
            transfer_rows.join(",\n"),
            mobility_rows.join(",\n"),
            memory_rows.join(",\n"),
            sweep_field
        );
        write_json(&path, &doc);
    }
    if any_mismatch {
        eprintln!("ERROR: a bit-identity check failed (see the tables above)");
        std::process::exit(1);
    }
    if let Some(path) = routing_path {
        run_routing_section(&path, seed, routing_nodes, duration_override, threads);
    }
}

/// Read a `kB` field (`VmRSS`, `VmHWM`, …) from `/proc/self/status`.
/// `None` on platforms without procfs or with an unexpected layout —
/// callers record JSON `null` instead of panicking.
fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            return rest.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

/// Child mode behind the hidden `--memory-probe N` flag: build and run the
/// dense-mesh scenario (Epidemic + Lifetime, event-driven, candidate
/// index) once in a fresh process so `VmHWM` — a process-lifetime high
/// water mark — measures exactly this world, then print one JSON row on
/// stdout for the parent to embed verbatim. `bytes_per_node` is
/// `(VmHWM after the run − VmRSS before the build) / nodes`; the peak is
/// read *before* the parallel identity-check run so the second world
/// cannot inflate it. Missing `/proc/self/status` degrades both RSS
/// fields to JSON `null`, never a panic.
fn run_memory_probe(nodes: usize, duration: f64, seed: u64, threads: usize) -> ! {
    let pre_kb = proc_status_kb("VmRSS");
    let scenario = dense_routing_scenario(
        nodes,
        duration,
        RouterKind::Epidemic,
        PolicyCombo::LIFETIME,
        seed,
    );
    let event = run_mode(&scenario, EngineMode::EventDriven);
    let peak_kb = proc_status_kb("VmHWM");
    let parallel = run_parallel(&scenario, threads);
    let identical = canon(event) == canon(parallel);
    let (peak_bytes, bytes_per_node) = match (pre_kb, peak_kb) {
        (Some(pre), Some(peak)) => (
            (peak * 1024).to_string(),
            (peak.saturating_sub(pre) * 1024 / nodes.max(1) as u64).to_string(),
        ),
        _ => ("null".to_string(), "null".to_string()),
    };
    println!(
        "{{\"nodes\": {nodes}, \"sim_duration_secs\": {duration}, \"peak_rss_bytes\": {peak_bytes}, \"bytes_per_node\": {bytes_per_node}, \"reports_identical\": {identical}}}"
    );
    std::process::exit(if identical { 0 } else { 1 });
}

/// Measure peak RSS and bytes/node per fleet size by re-exec'ing this
/// binary once per size with `--memory-probe` (per-size peaks need
/// per-size processes; see [`run_memory_probe`]). Returns the JSON rows
/// plus whether every probe's event-vs-parallel identity check passed. A
/// probe that cannot be spawned is reported on stderr and skipped rather
/// than failing the whole run.
fn run_memory_section(
    sizes: &[usize],
    duration_override: Option<f64>,
    seed: u64,
    threads: usize,
) -> (Vec<String>, bool) {
    println!("memory: dense mesh (Epidemic + Lifetime, event-driven), one probe process per size");
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warning: cannot locate own binary for memory probes: {e}; section empty");
            return (Vec::new(), true);
        }
    };
    let mut rows = Vec::new();
    let mut all_identical = true;
    for &n in sizes {
        let duration = duration_override.unwrap_or(60.0);
        let out = std::process::Command::new(&exe)
            .args(["--memory-probe", &n.to_string()])
            .args(["--duration-secs", &duration.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(["--threads", &threads.to_string()])
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let Some(row) = stdout
                    .lines()
                    .rev()
                    .find(|l| l.trim_start().starts_with('{'))
                else {
                    eprintln!("warning: memory probe for {n} nodes produced no row; skipped");
                    all_identical &= out.status.success();
                    continue;
                };
                all_identical &= row.contains("\"reports_identical\": true");
                println!("  {}", row.trim());
                rows.push(format!("    {}", row.trim()));
            }
            Err(e) => {
                eprintln!("warning: memory probe for {n} nodes failed to spawn: {e}; skipped");
            }
        }
    }
    (rows, all_identical)
}

/// The sweep-orchestrator benchmark manifest: mini base, the four
/// comparison protocols × the paper TTL axis × `seeds` seeds — 50 seeds
/// give 1000 runs over 20 cells. A 900-second horizon keeps each run a
/// few milliseconds while leaving enough traffic for the aggregates to
/// differ per cell (so identity checks compare real numbers, not zeros).
fn sweep_bench_manifest(seeds: usize) -> SweepManifest {
    let seed_list: Vec<u64> = (0..seeds as u64).map(|s| 1_000 + s).collect();
    let mut m = SweepManifest::paper(
        "bench-sweep",
        &PaperProtocol::protocol_comparison(),
        &PAPER_TTLS_MIN,
        &seed_list,
    );
    m.base = ScenarioBase::Mini;
    m.duration_secs = 900.0;
    m
}

/// Child mode behind the hidden `--sweep-probe SEEDS` flag: execute the
/// sweep-bench manifest at `SEEDS` seeds once in a fresh process (the
/// `VmHWM` rationale of [`run_memory_probe`]) and print one JSON row. The
/// parent runs this at quarter and full seed counts: with the streaming
/// accumulator the peak is set by worlds-in-flight and the O(cells)
/// aggregation state, so it must be flat in the run count.
fn run_sweep_probe(seeds: usize, threads: usize) -> ! {
    let manifest = sweep_bench_manifest(seeds);
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let outcome = match run_manifest(&manifest, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: sweep probe at {seeds} seeds failed: {e}");
            std::process::exit(1);
        }
    };
    let peak = match proc_status_kb("VmHWM") {
        Some(kb) => (kb * 1024).to_string(),
        None => "null".to_string(),
    };
    println!(
        "{{\"runs\": {}, \"cells\": {}, \"peak_rss_bytes\": {peak}}}",
        outcome.runs_total,
        outcome.points.len(),
    );
    std::process::exit(0);
}

/// Canonical JSON of a point list — the bit-identity comparand for the
/// thread-count and kill/resume checks (wall time is not part of a point).
fn points_json(points: &[SweepPoint]) -> String {
    serde_json::to_string(&points.to_vec()).expect("points serialise")
}

/// Measure the sweep orchestrator on the 1000-run bench manifest and
/// return the `"sweep"` JSON object plus whether every identity check
/// passed: reference-path equality, 1/2/4/8-thread invariance, and
/// journal truncate-and-resume equality.
fn run_sweep_section(seeds: usize, threads: usize) -> (String, bool) {
    let manifest = sweep_bench_manifest(seeds);
    let plan = manifest.expand().expect("bench manifest is well-formed");
    let (cells, runs) = (plan.cells.len(), plan.len());
    println!(
        "sweep orchestrator: {runs} runs over {cells} cells (mini base, 4 protocols x {} TTLs x {seeds} seeds)",
        PAPER_TTLS_MIN.len()
    );

    // Reference: the plain pre-orchestrator path — `run_sweep` per cell,
    // then `average_reports` — over the very same expansion.
    let t0 = std::time::Instant::now();
    let mut cell_runs: Vec<Vec<&RunSpec>> = vec![Vec::new(); cells];
    for spec in &plan.runs {
        cell_runs[spec.cell].push(spec);
    }
    let mut ref_points = Vec::with_capacity(cells);
    for (idx, specs) in cell_runs.iter().enumerate() {
        let scenarios: Vec<_> = specs.iter().map(|s| s.scenario(&manifest)).collect();
        let reports = run_sweep_with_options(&scenarios, specs[0].engine);
        ref_points.push(
            average_reports(&plan.cells[idx].label(), &reports).expect("bench cell has runs"),
        );
    }
    let ref_wall = t0.elapsed().as_secs_f64();
    let ref_json = points_json(&ref_points);

    // Work-stealing orchestrator at the requested thread count (no
    // journal: this is the throughput row the reference is compared to).
    let opts = |t: usize| SweepOptions {
        threads: t,
        ..SweepOptions::default()
    };
    let outcome = run_manifest(&manifest, &opts(threads)).expect("bench manifest runs");
    let base_json = points_json(&outcome.points);
    let matches_run_sweep = base_json == ref_json;
    let runs_per_sec = runs as f64 / outcome.wall_secs.max(1e-9);
    let speedup = ref_wall / outcome.wall_secs.max(1e-9);
    println!(
        "  orchestrator {:.3}s ({runs_per_sec:.0} runs/s, {} chunks) vs run_sweep {ref_wall:.3}s = {speedup:.2}x, aggregates identical: {matches_run_sweep}",
        outcome.wall_secs, outcome.chunks
    );

    // Aggregate bit-identity across pool sizes.
    let thread_set = [1usize, 2, 4, 8];
    let mut thread_invariant = true;
    for &t in &thread_set {
        if t == threads {
            continue; // already have this one (`outcome`)
        }
        let o = run_manifest(&manifest, &opts(t)).expect("bench manifest runs");
        thread_invariant &= points_json(&o.points) == base_json;
    }
    println!("  aggregate bit-identical across {thread_set:?}-thread pools: {thread_invariant}");

    // Kill-and-resume: journal a cold run, truncate the journal to the
    // header plus half the records (any line boundary is a record
    // boundary), resume, and demand the identical aggregate.
    let journal =
        std::env::temp_dir().join(format!("vdtn_sweep_bench_{}.jsonl", std::process::id()));
    let journal_opts = |resume: bool| SweepOptions {
        threads,
        journal: Some(journal.clone()),
        resume,
        ..SweepOptions::default()
    };
    let cold = run_manifest(&manifest, &journal_opts(false)).expect("journaled run succeeds");
    let mut ok = matches_run_sweep && thread_invariant && points_json(&cold.points) == base_json;
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let kept_runs = runs / 2;
    let mut kept: String = text
        .lines()
        .take(1 + kept_runs)
        .map(|l| format!("{l}\n"))
        .collect();
    // Simulate a kill mid-write: leave a torn half-record at the tail,
    // which replay must discard.
    kept.push_str("{\"id\": \"bench-sweep/torn");
    std::fs::write(&journal, kept).expect("journal writable");
    let resumed = run_manifest(&manifest, &journal_opts(true)).expect("resume succeeds");
    let resume_identical = points_json(&resumed.points) == base_json;
    ok &= resume_identical && resumed.runs_replayed == kept_runs;
    println!(
        "  resume after truncation to {kept_runs} runs: {} replayed + {} executed in {:.3}s, aggregate identical: {resume_identical}",
        resumed.runs_replayed, resumed.runs_executed, resumed.wall_secs
    );
    std::fs::remove_file(&journal).ok();

    // Peak-RSS flatness: quarter vs full run count, fresh process each.
    let (rss_rows, rss_ratio) = run_sweep_rss_probes(&[seeds.div_ceil(4), seeds], threads);
    let ratio_field = match rss_ratio {
        Some(r) => format!("{r:.3}"),
        None => "null".to_string(),
    };

    let json = format!(
        "{{\n    \"manifest\": {{\"name\": \"{}\", \"cells\": {cells}, \"runs\": {runs}, \"seeds\": {seeds}, \"sim_duration_secs\": {}}},\n    \"threads\": {threads},\n    \"orchestrator_wall_secs\": {:.6},\n    \"runs_per_sec\": {runs_per_sec:.1},\n    \"chunks\": {},\n    \"run_sweep_wall_secs\": {ref_wall:.6},\n    \"speedup_vs_run_sweep\": {speedup:.3},\n    \"matches_run_sweep\": {matches_run_sweep},\n    \"threads_checked\": [1, 2, 4, 8],\n    \"thread_invariant\": {thread_invariant},\n    \"resume\": {{\"journal_runs_kept\": {kept_runs}, \"runs_replayed\": {}, \"runs_executed\": {}, \"wall_secs\": {:.6}, \"identical\": {resume_identical}}},\n    \"memory\": [\n{}\n    ],\n    \"peak_rss_ratio\": {ratio_field}\n  }}",
        manifest.name,
        manifest.duration_secs,
        outcome.wall_secs,
        outcome.chunks,
        resumed.runs_replayed,
        resumed.runs_executed,
        resumed.wall_secs,
        rss_rows.join(",\n")
    );
    (json, ok)
}

/// Re-exec this binary with `--sweep-probe` once per seed count and
/// collect the peak-RSS rows, plus the full/quarter peak ratio (JSON
/// `null` when procfs is unavailable or a probe fails to spawn).
fn run_sweep_rss_probes(seed_counts: &[usize], threads: usize) -> (Vec<String>, Option<f64>) {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warning: cannot locate own binary for sweep probes: {e}; section empty");
            return (Vec::new(), None);
        }
    };
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &s in seed_counts {
        let out = std::process::Command::new(&exe)
            .args(["--sweep-probe", &s.to_string()])
            .args(["--threads", &threads.to_string()])
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let Some(row) = stdout
                    .lines()
                    .rev()
                    .find(|l| l.trim_start().starts_with('{'))
                else {
                    eprintln!("warning: sweep probe at {s} seeds produced no row; skipped");
                    continue;
                };
                let peak = row
                    .split("\"peak_rss_bytes\": ")
                    .nth(1)
                    .and_then(|r| r.split(&[',', '}'][..]).next())
                    .and_then(|v| v.trim().parse::<f64>().ok());
                peaks.push(peak);
                println!("  {}", row.trim());
                rows.push(format!("      {}", row.trim()));
            }
            Err(e) => {
                eprintln!("warning: sweep probe at {s} seeds failed to spawn: {e}; skipped");
            }
        }
    }
    let ratio = match peaks.as_slice() {
        [Some(quarter), Some(full)] if *quarter > 0.0 => Some(full / quarter),
        _ => None,
    };
    if let Some(r) = ratio {
        println!("  peak RSS full/quarter run count: {r:.3}x (flat = O(cells) accumulator memory)");
    }
    (rows, ratio)
}

/// Measure the dense-contact, routing-round-dominated scenario across fleet
/// sizes and the paper's sorted-vs-FIFO policy extremes, writing `path` as
/// JSON. Each row runs the ticked reference, the event engine (recorded as
/// `index_wall_secs`: its routing round scans the delta-maintained
/// candidate index), and the parallel engine; all three reports must be
/// bit-identical. `speedup_parallel_vs_ticked` is the parallel engine's.
fn run_routing_section(
    path: &str,
    seed: u64,
    routing_nodes: Option<Vec<usize>>,
    duration_override: Option<f64>,
    threads: usize,
) {
    println!("routing round: dense stationary mesh, permanent contacts (parallel at {threads}t)");
    println!(
        "{:>6} {:>10} {:>24} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "nodes", "sim secs", "policy", "ticked s", "index s", "parallel s", "speedup", "identical"
    );
    let sizes: Vec<(usize, f64)> = match routing_nodes {
        Some(list) => list
            .into_iter()
            .map(|n| (n, duration_override.unwrap_or(300.0)))
            .collect(),
        None => vec![(1000usize, 600.0f64), (5000, 300.0), (10000, 300.0)],
    };
    let mut rows = Vec::new();
    let mut any_mismatch = false;
    for &(n, duration) in &sizes {
        for (router, policy, label) in [
            (
                RouterKind::Epidemic,
                PolicyCombo::FIFO_FIFO,
                "Epidemic FIFO-FIFO",
            ),
            (
                RouterKind::Epidemic,
                PolicyCombo::LIFETIME,
                "Epidemic Lifetime",
            ),
            (
                RouterKind::paper_snw(),
                PolicyCombo::LIFETIME,
                "SnW Lifetime",
            ),
        ] {
            let scenario = dense_routing_scenario(n, duration, router, policy, seed);
            let ticked = run_mode(&scenario, EngineMode::Ticked);
            let index = run_mode(&scenario, EngineMode::EventDriven);
            let parallel = run_parallel(&scenario, threads);
            let identical = canon(ticked.clone()) == canon(index.clone())
                && canon(parallel.clone()) == canon(index.clone());
            any_mismatch |= !identical;
            let par_speedup = ticked.wall_secs / parallel.wall_secs.max(1e-9);
            println!(
                "{:>6} {:>10.0} {:>24} {:>12.3} {:>12.3} {:>12.3} {:>8.2}x {:>10}",
                n,
                duration,
                label,
                ticked.wall_secs,
                index.wall_secs,
                parallel.wall_secs,
                par_speedup,
                identical
            );
            rows.push(format!(
                "    {{\"nodes\": {}, \"sim_duration_secs\": {}, \"policy\": \"{}\", \"ticked_wall_secs\": {:.6}, \"index_wall_secs\": {:.6}, \"parallel_wall_secs\": {:.6}, \"speedup_parallel_vs_ticked\": {:.3}, \"reports_identical\": {}}}",
                n, duration, label, ticked.wall_secs, index.wall_secs, parallel.wall_secs, par_speedup, identical
            ));
        }
    }
    let doc = format!(
        "{{\n  \"benchmark\": \"routing_round\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"description\": \"World::run wall time on the dense-contact stationary mesh (routing round dominates; permanent contacts): ticked reference vs the event-driven engine (delta-maintained candidate index) vs the parallel engine\",\n  \"seed\": {},\n  \"threads\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
        seed,
        threads,
        rows.join(",\n")
    );
    write_json(path, &doc);
    if any_mismatch {
        eprintln!("ERROR: reports diverged across engine modes");
        std::process::exit(1);
    }
}
