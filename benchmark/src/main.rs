//! Repository benchmark for the VDTN simulator.
//!
//! ```text
//! vdtn_benchmark --workload <paper_sweep|city_mobility|dense_mesh>
//!                [--seed N] [--seconds N] [--trace 0|1] [--threads N] [--size N]
//! ```
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`). Exits 0 when every output checked out, 1 when a run
//! failed or disagreed with its oracle, 2 on a usage error. See README.md.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{exit, Command};
use trace::Tracer;
use workloads::{Config, Outcome, Reported, Workload};

/// The seed a result is recorded on unless stated otherwise.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking a claim on fresh inputs.
const HELD_OUT_SEED: u64 = 7919;
const DEFAULT_SECONDS: u64 = 30;
const MAX_SECONDS: u64 = 3_600;
const MAX_THREADS: u64 = 256;
/// Where result and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: vdtn_benchmark --workload <paper_sweep|city_mobility|dense_mesh> \
[--seed N] [--seconds N] [--trace 0|1] [--threads N] [--size N]";

/// Print one line and exit 2: the benchmark's answer to every bad argument.
fn usage_error(msg: &str) -> ! {
    eprintln!("vdtn_benchmark: {msg}");
    exit(2)
}

fn whole(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        usage_error(&format!(
            "{flag} expects a non-negative integer, got '{value}'"
        ))
    })
}

/// Parse a whole number in `1..=max`.
fn positive(flag: &str, value: &str, max: u64) -> u64 {
    let v = whole(flag, value);
    if !(1..=max).contains(&v) {
        usage_error(&format!("{flag} must be between 1 and {max}, got {v}"));
    }
    v
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String]) -> Config {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut threads = nproc();
    let mut size = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            exit(0);
        }
        let Some(value) = it.next() else {
            usage_error(&format!("{flag} needs a value ({USAGE})"))
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => usage_error(&format!(
                    "unknown workload '{value}' (expected paper_sweep, city_mobility or dense_mesh)"
                )),
            },
            "--seed" => seed = whole(flag, value),
            "--seconds" => seconds = positive(flag, value, MAX_SECONDS),
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => usage_error(&format!("--trace expects 0 or 1, got '{value}'")),
            },
            "--threads" => threads = positive(flag, value, MAX_THREADS) as usize,
            "--size" => size = Some(whole(flag, value)),
            _ => usage_error(&format!("unknown argument '{flag}' ({USAGE})")),
        }
    }
    let Some(workload) = workload else {
        usage_error(&format!("--workload is required ({USAGE})"))
    };
    let size = size.map_or(workload.default_size(), |v| v as usize);
    let range = workload.size_range();
    if !range.contains(&size) {
        usage_error(&format!(
            "--size for {} must be between {} and {}, got {size}",
            workload.name(),
            range.start(),
            range.end()
        ));
    }
    Config {
        workload,
        seed,
        seconds,
        trace,
        threads,
        size,
    }
}

/// First line of a command's standard output, or "unknown".
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(cfg: &Config, rounds: usize) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    // Only the working directory may be a git checkout: git must not read
    // a repository above it.
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    format!(
        "{{\"git_sha\": {}, \"rustc\": {}, \"nproc\": {}, \"threads\": {}, \"workload\": {}, \
         \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"size\": {}, \"seconds\": {}, \"trace\": {}, \"repeats\": {rounds}}}",
        json_str(&command_line(&mut git)),
        json_str(&command_line(Command::new(rustc).arg("-V"))),
        nproc(),
        cfg.threads,
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.size,
        cfg.seconds,
        cfg.trace,
    )
}

/// One human-readable line per metric: median, quartiles, tail, samples.
fn metric_line(m: &Reported) -> String {
    let mut line = format!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    if let Some(s) = &m.summary {
        write!(
            line,
            "  (median of n={}; q1 {:.6}, q3 {:.6}; ",
            s.n, s.q1, s.q3
        )
        .expect("write");
        match s.tail {
            Some((pct, v)) => write!(line, "p{pct:.1} {v:.6})"),
            None => write!(line, "tail needs n >= 11)"),
        }
        .expect("write to String");
    }
    line
}

/// A JSON number, or `null` for a non-finite value (which also fails the run).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn metric_json(m: &Reported) -> String {
    let mut out = format!(
        "{{\"value\": {}, \"unit\": {}",
        json_num(m.value),
        json_str(m.unit)
    );
    if let Some(s) = &m.summary {
        write!(
            out,
            ", \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}",
            s.n, s.median, s.q1, s.q3
        )
        .expect("write to String");
        if let Some((pct, v)) = s.tail {
            write!(out, ", \"tail_pct\": {pct}, \"tail\": {v}").expect("write to String");
        }
    }
    out.push('}');
    out
}

/// Write `body` under [`OUT_DIR`]; a failure is reported, not fatal.
fn write_out(name: &str, body: &str) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    let res = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, body));
    match res {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("vdtn_benchmark: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse_args(&args);
    // Pin every pool the simulator creates to `--threads` before any
    // exists: the parallel engine sizes its pool from this variable.
    std::env::set_var("VDTN_THREADS", cfg.threads.to_string());

    let mut tracer = Tracer::new(cfg.trace);
    let out: Outcome = workloads::run(&cfg, &mut tracer);
    let prov = provenance(&cfg, out.rounds);
    let tag = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );

    let mut failed = out.failed;
    let mut failures = out.failures;
    let reported: &[Reported] = if cfg.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in reported.iter().filter(|m| !m.value.is_finite()) {
        failed += 1;
        failures.push(format!("metric {} is not a finite number", m.name));
    }

    println!("provenance {prov}");
    println!(
        "end_to_end ({} rounds{}):",
        out.rounds,
        if cfg.trace {
            ", untraced then traced"
        } else {
            ""
        }
    );
    for m in &out.end_to_end {
        println!("{}", metric_line(m));
    }
    let failed_frac = failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>14.6} fraction  ({failed} of {} attempted)",
        "failed_frac", failed_frac, out.attempted
    );
    if cfg.trace {
        println!("per_layer:");
        for m in &out.per_layer {
            println!("{}", metric_line(m));
        }
        write_out(&format!("{tag}-spans.json"), &tracer.to_json(&prov));
    }
    for f in &failures {
        println!("FAILED: {f}");
    }

    let all: Vec<String> = out
        .end_to_end
        .iter()
        .chain(&out.per_layer)
        .map(|m| format!("{}: {}", json_str(m.name), metric_json(m)))
        .collect();
    write_out(
        &format!("{tag}.json"),
        &format!(
            "{{\"provenance\": {prov},\n\"attempted\": {}, \"failed\": {failed}, \"metrics\": {{\n{}\n}}}}\n",
            out.attempted,
            all.join(",\n")
        ),
    );

    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted,
        metrics.join(", ")
    );
    if !correct {
        exit(1);
    }
}
