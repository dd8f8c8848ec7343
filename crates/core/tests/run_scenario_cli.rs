//! Command-line hygiene of the `run_scenario` binary: bad input is a
//! one-line usage error with exit code 2, and an unwritable output path a
//! one-line error with exit code 1, never a panic with a backtrace.

use std::path::Path;
use std::process::Command;
use vdtn::presets::{paper_scenario, PaperProtocol};
use vdtn::{
    load_snapshot, save_snapshot, MapSpec, MobilitySpec, RelayPlacement, Scenario, ScenarioBase,
    SimDuration, SweepManifest,
};
use vdtn_geo::{GridMapGen, Point, VertexId};
use vdtn_mobility::MoverSnapshot;

/// Run the binary and require `code`, exactly one stderr line and no
/// panic; returns stdout.
fn run_expecting(args: &[&str], code: i32) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("run_scenario binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("backtrace"),
        "{args:?}: stderr {stderr:?}"
    );
    out.stdout
}

/// Every case is rejected before a simulation runs, so each invocation
/// returns at once.
#[test]
fn bad_arguments_exit_2_with_one_line_and_no_backtrace() {
    let dir = std::env::temp_dir().join(format!("vdtn-run-scenario-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let p = dir.join(name);
        std::fs::write(&p, text).unwrap();
        p.to_str().unwrap().to_string()
    };
    let scenario = paper_scenario(PaperProtocol::EpidemicLifetime, 60, 1);
    let good = write("good.json", &serde_json::to_string(&scenario).unwrap());
    let manifest = SweepManifest::paper("cli", &[PaperProtocol::EpidemicFifo], &[60], &[1]);
    let sweep = write("sweep.json", &serde_json::to_string(&manifest).unwrap());
    let bad = write("bad.json", "{\"name\": ");
    // Nesting deep enough to overflow a recursive parser's stack.
    let deep = write(
        "deep.json",
        &format!("{}0{}", "[".repeat(50_000), "]".repeat(50_000)),
    );
    let deep_sweep = write(
        "deep_sweep.json",
        &format!("{}0{}", "{\"a\":".repeat(200_000), "}".repeat(200_000)),
    );
    let mut negative = scenario.clone();
    negative.duration_secs = -5.0;
    let mut no_tick = scenario.clone();
    no_tick.tick_secs = 0.0;
    // Times under the clock's 1 ms resolution round to 0 and never advance.
    let mut sub_ms_tick = scenario.clone();
    sub_ms_tick.tick_secs = 0.0001;
    let mut sub_ms_traffic = scenario.clone();
    sub_ms_traffic.traffic.interval_lo = 0.0001;
    sub_ms_traffic.traffic.interval_hi = 0.0001;
    // Scenarios failing `Scenario::validate`, nested values included (SPMB
    // speed, radio range, traffic TTL, relay points, map), and bad sweeps.
    let mut slow = scenario.clone();
    if let MobilitySpec::ShortestPathMapBased(cfg) = &mut slow.groups[0].mobility {
        cfg.speed_lo = 0.0;
    }
    let (mut deaf, mut ttl_zero, mut one_point) =
        (scenario.clone(), scenario.clone(), scenario.clone());
    deaf.radio.range = -1.0;
    ttl_zero.traffic.ttl = SimDuration::ZERO;
    one_point.groups[1].mobility =
        MobilitySpec::Stationary(RelayPlacement::Explicit(vec![Point::ORIGIN]));
    let (mut torn_wkt, mut tiny_grid) = (scenario.clone(), scenario.clone());
    torn_wkt.map = MapSpec::WktText("LINESTRING (0 0".into());
    tiny_grid.map = MapSpec::Grid(GridMapGen {
        cols: 1,
        rows: 1,
        spacing: 100.0,
    });
    let custom = |t: &Scenario| SweepManifest {
        base: ScenarioBase::Custom(Box::new(t.clone())),
        protocols: Vec::new(),
        ..manifest.clone()
    };
    let (mut ttl_sweep, mut no_seeds) = (manifest.clone(), manifest.clone());
    ttl_sweep.ttls_mins = vec![0];
    no_seeds.seeds.clear();
    let invalid: Vec<String> = [
        &negative,
        &no_tick,
        &sub_ms_tick,
        &sub_ms_traffic,
        &slow,
        &deaf,
        &ttl_zero,
        &one_point,
        &torn_wkt,
        &tiny_grid,
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| write(&format!("n{i}.json"), &serde_json::to_string(s).unwrap()))
    .collect();
    let bad_sweeps: Vec<String> = [custom(&negative), custom(&slow), ttl_sweep, no_seeds]
        .iter()
        .enumerate()
        .map(|(i, m)| write(&format!("m{i}.json"), &serde_json::to_string(m).unwrap()))
        .collect();
    // A snapshot in an older format version is refused from its header.
    let old_snap = write(
        "v1.snap",
        "{\"snapshot\":\"vdtn-snapshot\",\"version\":1,\"scenario_fnv\":0,\"now_ms\":0,\
         \"state_hash\":0,\"payload_len\":2,\"payload_fnv\":0}\n{}\n",
    );
    let missing = dir.join("missing.json").to_str().unwrap().to_string();
    let snap = dir.join("out.snap").to_str().unwrap().to_string();
    assert!(!Path::new(&missing).exists());
    // A snapshot whose header checks pass but whose payload lost a node:
    // `save_snapshot` recomputes `payload_len` and `payload_fnv`.
    let mut short = scenario.clone();
    short.duration_secs = 900.0;
    let short = write("short.json", &serde_json::to_string(&short).unwrap());
    let full = dir.join("full.snap");
    let full_arg = full.to_str().unwrap();
    let saved = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args([&short, "--save-at", "450", "--snapshot", full_arg])
        .output()
        .expect("run_scenario binary runs");
    assert_eq!(saved.status.code(), Some(0), "{saved:?}");
    let mut dropped = load_snapshot(&full).unwrap();
    dropped.state.nodes.pop();
    let dropped_path = dir.join("dropped.snap");
    save_snapshot(&dropped_path, &dropped).unwrap();
    let dropped_path = dropped_path.to_str().unwrap().to_string();
    // A snapshot whose first vehicle is anchored off the map.
    let mut off_map = load_snapshot(&full).unwrap();
    let MoverSnapshot::Spmb { anchor_a, .. } = &mut off_map.state.movers[0] else {
        panic!("node 0 is a map-based vehicle");
    };
    *anchor_a = VertexId(99_999);
    let off_map_path = dir.join("off_map.snap");
    save_snapshot(&off_map_path, &off_map).unwrap();
    let off_map_path = off_map_path.to_str().unwrap().to_string();

    let g = good.as_str();
    let mut cases: Vec<Vec<&str>> = vec![
        vec![g, "--threads", "x"],
        vec![g, "--threads"],
        vec![g, "--threads", "0"],
        vec![g, "--hash-every", "0"],
        vec![g, "--hash-stream", "--hash-every", "0.0001"],
        vec![g, "--hash-every", "soon"],
        vec![g, "--hash-every"],
        vec![g, "--save-at", "later", "--snapshot", &snap],
        vec![g, "--save-at"],
        vec![g, "--save-at", "10"],
        vec![g, "--snapshot", &snap],
        vec![g, "--engine", "warp"],
        vec![g, "--engine", "parallel"],
        vec![&missing],
        vec![&bad],
        vec![&deep],
        vec!["--restore", &missing],
        vec!["--restore", &old_snap],
        vec!["--restore", &dropped_path],
        vec!["--restore", &off_map_path],
        vec!["--sweep", &missing],
        vec!["--sweep", &bad],
        vec!["--sweep", &deep_sweep],
        vec!["--sweep", &sweep, "--threads", "0"],
        // Arguments no mode documents, misspellings and removed flags.
        vec!["--bogus"],
        vec![g, "--repot", "X"],
        vec!["--sweep", &sweep, "--jurnal", "J"],
        vec!["--sweep", &sweep, "--checkpoint-dir", "D"],
        vec!["--sweep", &sweep, "--checkpoint-every", "60"],
    ];
    cases.extend(invalid.iter().map(|p| vec![p.as_str()]));
    cases.extend(bad_sweeps.iter().map(|p| vec!["--sweep", p.as_str()]));
    for args in &cases {
        let stdout = run_expecting(args, 2);
        assert!(stdout.is_empty(), "{args:?}: ran before rejecting");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Only `--sweep` runs threads: a single run or a restore given `--threads`
/// is told so in one line and exits 2 before reading its input.
#[test]
fn threads_outside_sweep_exit_2_with_one_line() {
    let scenario = std::env::temp_dir().join("vdtn-cli-threads-unread.json");
    let snap = std::env::temp_dir().join("vdtn-cli-threads-unread.snap");
    let (scenario, snap) = (scenario.to_str().unwrap(), snap.to_str().unwrap());
    for args in [
        vec![scenario, "--threads", "2"],
        vec![scenario, "--engine", "event", "--threads", "8"],
        vec!["--restore", snap, "--threads", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
            .args(&args)
            .output()
            .expect("run_scenario binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(
            stderr.contains("--threads applies only to --sweep"),
            "{args:?}: stderr {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }

    // A sweep caps an absurd worker count at its chunk count.
    let mut manifest = SweepManifest::paper("cli", &[PaperProtocol::EpidemicFifo], &[60], &[1]);
    manifest.duration_secs = 10.0;
    let sweep = std::env::temp_dir().join(format!("vdtn-cli-threads-{}.json", std::process::id()));
    std::fs::write(&sweep, serde_json::to_string(&manifest).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_scenario"))
        .args(["--sweep", sweep.to_str().unwrap()])
        .args(["--threads", &usize::MAX.to_string()])
        .output()
        .expect("run_scenario binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr {stderr:?}");
    assert!(
        stderr.contains("1 chunks on 1 threads"),
        "stderr {stderr:?}"
    );
    std::fs::remove_file(&sweep).ok();
}

/// Each output path of a 10 s run or sweep is unwritable.
#[test]
fn unwritable_outputs_exit_1_with_one_line_and_no_backtrace() {
    let dir = std::env::temp_dir().join(format!("vdtn-run-scenario-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let mut scenario = paper_scenario(PaperProtocol::EpidemicLifetime, 60, 1);
    scenario.duration_secs = 10.0;
    let scenario_path = path("short.json");
    std::fs::write(&scenario_path, serde_json::to_string(&scenario).unwrap()).unwrap();
    let mut manifest = SweepManifest::paper("cli", &[PaperProtocol::EpidemicFifo], &[60], &[1]);
    manifest.duration_secs = 10.0;
    let sweep = path("sweep.json");
    std::fs::write(&sweep, serde_json::to_string(&manifest).unwrap()).unwrap();
    let report = path("missing/report.json");
    let snap = path("missing/out.snap");
    let points = path("missing/points.json");

    let (g, m) = (scenario_path.as_str(), sweep.as_str());
    let cases: Vec<Vec<&str>> = vec![
        vec![g, "--report", &report],
        vec![g, "--save-at", "5", "--snapshot", &snap],
        vec!["--sweep", m, "--out", &points],
    ];
    for args in &cases {
        run_expecting(args, 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}
