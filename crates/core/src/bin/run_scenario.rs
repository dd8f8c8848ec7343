//! `run_scenario` — execute a scenario description from JSON.
//!
//! ```text
//! run_scenario SCENARIO.json [--report REPORT.json] [--csv] [--oracle]
//!              [--engine ticked|event]
//!              [--hash-stream] [--hash-every SECS]
//!              [--save-at SECS --snapshot FILE.snap]
//! run_scenario --restore FILE.snap [the flags of a scenario run]
//! run_scenario --sweep MANIFEST.json [--journal J.jsonl] [--resume]
//!              [--threads N] [--out POINTS.json]
//! ```
//!
//! Reads a [`vdtn::Scenario`] (the same structure `serde_json` serialises),
//! runs it, prints the one-line summary, optionally writes the full report
//! as JSON, a CSV row, and the omniscient-routing oracle bound.
//!
//! `--hash-stream` emits one `<now_ms> <state_hash_hex>` line per
//! `--hash-every` seconds (default 60, at least 0.001: the clock's
//! resolution) of simulated time to stdout — and
//! *only* those lines, the summary moves to stderr — so CI can `cmp` the
//! streams of two runs directly. Because the hash is identical by
//! construction across engine modes, any two invocations of the same
//! scenario must produce bytewise-equal streams; the drift matrix in CI
//! pins exactly that across the two engine modes. A single run is one
//! serial engine.
//!
//! Each mode accepts only the flags listed above; `--threads` applies only
//! to `--sweep`, whose worker threads run independent runs, and a single
//! run or `--restore` rejects it with a line saying so.
//!
//! `--save-at T --snapshot F` checkpoints the world at simulated time `T`
//! into `F` and then *continues to the end* (the snapshot is a side effect,
//! not an exit). `--restore F` rebuilds the world from `F` — under any
//! `--engine`, not just the capturing one — and runs the remainder; the
//! final report is bit-identical to the uninterrupted run.
//!
//! `--sweep` is the batch path: a [`vdtn::SweepManifest`] is expanded into
//! its canonical run list and executed by the sweep orchestrator —
//! work-stealing dispatch, streaming per-cell aggregation, and (with
//! `--journal`) an fsync-per-chunk resume journal so a killed sweep
//! continues with `--resume` instead of restarting. Every run is fixed by
//! the manifest, whose fingerprint the journal checks. Aggregate output is
//! bit-identical at any `--threads` value and across kill/resume.
//!
//! A bad or unknown flag or operand, an unreadable input file, invalid
//! JSON, a scenario that fails `Scenario::validate`, a snapshot that
//! disagrees with its scenario, or a sweep manifest that does not expand or
//! plans such a scenario prints one line on stderr and exits with code 2;
//! an output path that cannot be written (`--report`, `--snapshot`,
//! `--out`) prints one line and exits with code 1.
//!
//! Generate templates to start from:
//!
//! ```text
//! run_scenario --template        > my_scenario.json
//! run_scenario --sweep-template  > my_sweep.json
//! ```

use vdtn::orchestrator::{run_manifest, SweepManifest, SweepOptions};
use vdtn::presets::{paper_scenario, PaperProtocol, PAPER_TTLS_MIN};
use vdtn::{load_snapshot, oracle_summary, save_snapshot, EngineMode, Scenario, World};
use vdtn_sim_core::SimTime;

fn usage(code: i32) -> ! {
    eprintln!("usage: run_scenario SCENARIO.json [--report OUT.json] [--csv] [--oracle]");
    eprintln!("                    [--engine ticked|event]");
    eprintln!("                    [--hash-stream] [--hash-every SECS]");
    eprintln!("                    [--save-at SECS --snapshot FILE.snap]");
    eprintln!("       run_scenario --restore FILE.snap [the flags of a scenario run]");
    eprintln!("       run_scenario --sweep MANIFEST.json [--journal J.jsonl] [--resume]");
    eprintln!("                    [--threads N] [--out POINTS.json]");
    eprintln!("       run_scenario --template        # print a scenario template");
    eprintln!("       run_scenario --sweep-template  # print a sweep manifest template");
    std::process::exit(code);
}

/// Reject bad command-line input: one line on stderr, exit code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("run_scenario: {msg} (see run_scenario --help)");
    std::process::exit(2);
}

/// Fail on an output path: one line on stderr, exit code 1.
fn output_error(msg: &str) -> ! {
    eprintln!("run_scenario: {msg}");
    std::process::exit(1);
}

/// The operand following flag `name`, if the flag is present; a usage
/// error when the operand is missing.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    Some(
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("{name} needs a value"))),
    )
}

/// The flags a scenario run, fresh or `--restore`d, accepts: those that
/// take a value, then the switches.
const RUN_FLAGS: (&[&str], &[&str]) = (
    &[
        "--report",
        "--engine",
        "--hash-every",
        "--save-at",
        "--snapshot",
        "--restore",
    ],
    &["--csv", "--oracle", "--hash-stream"],
);

/// The flags `--sweep MANIFEST.json` accepts, in the same shape.
const SWEEP_FLAGS: (&[&str], &[&str]) = (&["--journal", "--threads", "--out"], &["--resume"]);

/// Reject any argument in `args` that is neither one of `flags` nor the
/// value of one that takes a value, before any input is read.
fn reject_unknown(args: &[String], mode: &str, (valued, switches): (&[&str], &[&str])) {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if valued.contains(&arg.as_str()) {
            it.next();
        } else if !switches.contains(&arg.as_str()) {
            usage_error(&format!("unknown argument '{arg}' for {mode}"));
        }
    }
}

/// A worker count of at least 1.
fn threads_arg(args: &[String]) -> Option<usize> {
    flag_value(args, "--threads").map(|v| match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("--threads needs an integer >= 1, got '{v}'")),
    })
}

/// A finite number of seconds, at least `min`.
fn secs_arg(args: &[String], name: &str, min: f64) -> Option<f64> {
    flag_value(args, name).map(|v| match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= min => x,
        _ => usage_error(&format!(
            "{name} needs a number of seconds >= {min}, got '{v}'"
        )),
    })
}

/// Read and parse a JSON input file, or a one-line usage error.
fn read_json<T: serde::Deserialize>(path: &str, what: &str) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {what} {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| usage_error(&format!("invalid {what} JSON in {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage(2);
    }
    if args[0] == "--help" {
        usage(0);
    }

    if args[0] == "--template" || args[0] == "--sweep-template" {
        reject_unknown(&args[1..], &args[0], (&[], &[]));
    }
    if args[0] == "--template" {
        let template = paper_scenario(PaperProtocol::EpidemicLifetime, 60, 1);
        println!(
            "{}",
            serde_json::to_string_pretty(&template).expect("template serialises")
        );
        return;
    }

    if args[0] == "--sweep-template" {
        let manifest = SweepManifest::paper(
            "example-sweep",
            &PaperProtocol::protocol_comparison(),
            &PAPER_TTLS_MIN,
            &[1, 2, 3],
        );
        println!(
            "{}",
            serde_json::to_string_pretty(&manifest).expect("manifest serialises")
        );
        return;
    }

    if args[0] == "--sweep" {
        run_sweep_manifest(&args);
        return;
    }

    if args.iter().any(|a| a == "--threads") {
        usage_error("--threads applies only to --sweep; a single run is one serial engine");
    }
    // A fresh run names its scenario first; a restore, with `--restore`.
    let restore = args.iter().any(|a| a == "--restore");
    if !restore && args[0].starts_with("--") {
        let first = &args[0];
        usage_error(&format!(
            "expected SCENARIO.json, --restore, --sweep or a template flag first, got '{first}'"
        ));
    }
    let flags = if restore { &args[..] } else { &args[1..] };
    reject_unknown(flags, "a scenario run", RUN_FLAGS);
    let engine = match flag_value(&args, "--engine").as_deref() {
        None => EngineMode::default(),
        Some("ticked") => EngineMode::Ticked,
        Some("event") => EngineMode::EventDriven,
        Some(other) => usage_error(&format!("unknown --engine '{other}' (want ticked|event)")),
    };
    let want_oracle = args.iter().any(|a| a == "--oracle");
    let want_csv = args.iter().any(|a| a == "--csv");
    let want_hash_stream = args.iter().any(|a| a == "--hash-stream");
    // A period under the clock's 1 ms resolution rounds to 0 and would
    // never advance the stream.
    let hash_every = secs_arg(&args, "--hash-every", 0.001).unwrap_or(60.0);
    let save_at = secs_arg(&args, "--save-at", 0.0);
    let snapshot_path = flag_value(&args, "--snapshot");
    if save_at.is_some() != snapshot_path.is_some() {
        usage_error("--save-at and --snapshot must be given together");
    }
    let report_path = flag_value(&args, "--report");

    // Materialise the world: fresh from a scenario file, or resumed from a
    // snapshot. Either way the remainder of the pipeline is identical.
    let (scenario, mut world) = if let Some(snap_path) = flag_value(&args, "--restore") {
        let snap = load_snapshot(snap_path.as_ref())
            .unwrap_or_else(|e| usage_error(&format!("cannot restore snapshot {snap_path}: {e}")));
        let world = World::restore(&snap, engine)
            .unwrap_or_else(|e| usage_error(&format!("cannot restore snapshot {snap_path}: {e}")));
        eprintln!(
            "restored `{}` at t={:.0}s (state hash {:016x})",
            snap.scenario.name,
            snap.state.now.as_secs_f64(),
            world.state_hash(),
        );
        (snap.scenario, world)
    } else {
        let path = &args[0];
        let scenario: Scenario = read_json(path, "scenario");
        let world = World::try_build(&scenario, engine)
            .unwrap_or_else(|e| usage_error(&format!("invalid scenario {path}: {e}")));
        (scenario, world)
    };

    if want_oracle {
        if want_hash_stream || save_at.is_some() {
            eprintln!("--oracle cannot combine with --hash-stream or --save-at");
            std::process::exit(2);
        }
        let (report, log) = world.run_logged();
        println!("{}", report.summary());
        let oracle = oracle_summary(&log);
        println!(
            "oracle bound: {}/{} deliverable, mean optimal delay {:.1} min \
             (protocol achieved {}/{} at {:.1} min)",
            oracle.deliverable,
            oracle.total,
            oracle.mean_delay_mins,
            report.messages.delivered_unique,
            report.messages.created,
            report.avg_delay_mins(),
        );
        finish(&report, want_csv, report_path);
        return;
    }

    // Checkpoint side effect: drive to the save point, capture, continue.
    if let (Some(at), Some(path)) = (save_at, &snapshot_path) {
        let at = SimTime::from_secs_f64(at);
        if at < world.now() {
            eprintln!(
                "--save-at {:.0}s is before the world's clock ({:.0}s)",
                at.as_secs_f64(),
                world.now().as_secs_f64()
            );
            std::process::exit(2);
        }
        world.run_until(at);
        let snap = world.snapshot(&scenario);
        save_snapshot(path.as_ref(), &snap)
            .unwrap_or_else(|e| output_error(&format!("cannot write snapshot {path}: {e}")));
        eprintln!(
            "snapshot at t={:.0}s written to {path} (state hash {:016x})",
            snap.state.now.as_secs_f64(),
            snap.state.digest(),
        );
    }

    let report = if want_hash_stream {
        // Hashes only on stdout (one `<now_ms> <hash_hex>` line per period)
        // so two streams can be `cmp`'d; everything human goes to stderr.
        let end = SimTime::from_secs_f64(scenario.duration_secs);
        let period = vdtn::SimDuration::from_secs_f64(hash_every);
        let mut next = world.now() + period;
        while next < end {
            world.run_until(next);
            println!("{} {:016x}", world.now().as_millis(), world.state_hash());
            next += period;
        }
        world.run_until(end);
        println!("{} {:016x}", world.now().as_millis(), world.state_hash());
        let report = world.run();
        eprintln!("{}", report.summary());
        report
    } else {
        let report = world.run();
        println!("{}", report.summary());
        report
    };
    finish(&report, want_csv, report_path);
}

/// The `--sweep` batch path: manifest in, aggregate points out.
fn run_sweep_manifest(args: &[String]) {
    let path = args
        .get(1)
        .unwrap_or_else(|| usage_error("--sweep needs a manifest path"));
    reject_unknown(&args[2..], "--sweep", SWEEP_FLAGS);
    let opts = SweepOptions {
        threads: threads_arg(args).unwrap_or(0),
        journal: flag_value(args, "--journal").map(std::path::PathBuf::from),
        resume: args.iter().any(|a| a == "--resume"),
    };
    let out_path = flag_value(args, "--out");
    let manifest: SweepManifest = read_json(path, "manifest");
    // Check every planned run before any runs: bad input is a usage error.
    let plan = manifest
        .expand()
        .unwrap_or_else(|e| usage_error(&format!("invalid manifest {path}: {e}")));
    for run in &plan.runs {
        if let Err(e) = run.scenario(&manifest).validate() {
            let id = run.id(&manifest.name);
            usage_error(&format!("invalid manifest {path}: run {id}: {e}"));
        }
    }
    let outcome = match run_manifest(&manifest, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };
    // Aggregate file holds only the points: deterministic content,
    // byte-identical across thread counts and kill/resume. Written before
    // anything is printed, so a failed write is the only line on stderr.
    if let Some(path) = &out_path {
        let json = serde_json::to_string_pretty(&outcome.points).expect("points serialise");
        std::fs::write(path, json)
            .unwrap_or_else(|e| output_error(&format!("cannot write {path}: {e}")));
    }
    eprintln!(
        "sweep `{}`: {} runs ({} executed, {} replayed) over {} cells, \
         {} chunks on {} threads, {:.1} s wall",
        manifest.name,
        outcome.runs_total,
        outcome.runs_executed,
        outcome.runs_replayed,
        outcome.points.len(),
        outcome.chunks,
        outcome.threads,
        outcome.wall_secs,
    );
    for p in &outcome.points {
        println!("{}", p.table_row());
    }
    if let Some(path) = out_path {
        eprintln!("aggregate points written to {path}");
    }
}

fn finish(report: &vdtn::SimReport, want_csv: bool, report_path: Option<String>) {
    if want_csv {
        println!("{}", vdtn::report::csv_header());
        println!("{}", report.csv_row());
    }
    if let Some(path) = report_path {
        let json = serde_json::to_string_pretty(report).expect("report serialises");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| output_error(&format!("cannot write report {path}: {e}")));
        eprintln!("report written to {path}");
    }
}
