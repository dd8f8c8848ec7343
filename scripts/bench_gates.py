#!/usr/bin/env python3
"""Named CI gates over the bench-smoke artifacts.

CI used to carry these checks as inline `python3 - <<EOF` heredocs and
grep chains inside ci.yml, which made them impossible to run locally,
impossible to test, and easy to drift apart. Each gate now lives here
under a stable name; ci.yml invokes them one per step, and `self-test`
exercises every gate against synthetic fixtures (both passing and
violating) so a broken gate fails CI *as a broken gate*, not as a
silently-green no-op.

Usage:
    bench_gates.py smoke-identity BENCH.json ROUTING.json
    bench_gates.py perf-floor     BENCH.json ROUTING.json
    bench_gates.py memory-floor   BENCH.json BASELINE.json EXTRACT_OUT.json
    bench_gates.py sweep-resume   RUN_SCENARIO MANIFEST.json BASELINE.json
    bench_gates.py self-test

Every gate prints `gate <name>: PASS` on success, or the violations and
a non-zero exit. Gates are pure functions over their input files — no
gate runs a build.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path


# --- smoke-identity -------------------------------------------------------
#
# Shape and identity assertions over the bench-smoke JSON files: every
# expected section was recorded, and no entry anywhere reported diverging
# simulation results across engine modes, thread counts or the memory
# probe. (Substring checks, faithful to the original grep
# chain: they assert the *recorded* text, not a parsed reinterpretation.)

def gate_smoke_identity(bench_path: str, routing_path: str) -> list[str]:
    bench = Path(bench_path).read_text()
    routing = Path(routing_path).read_text()
    bad = []
    for needle, where, text in [
        ('"threads": 2', bench_path, bench),
        ('"memory"', bench_path, bench),
        ('"motion"', bench_path, bench),
        ('"mobility_bound"', bench_path, bench),
        ('"parallel_wall_secs"', bench_path, bench),
        ('"transfer_bound"', bench_path, bench),
        ('"reports_identical": true', bench_path, bench),
        ('"benchmark": "routing_round"', routing_path, routing),
        ('"parallel_wall_secs"', routing_path, routing),
        ('"reports_identical": true', routing_path, routing),
    ]:
        if needle not in text:
            bad.append(f"{where}: missing expected `{needle}`")
    for where, text in [(bench_path, bench), (routing_path, routing)]:
        if '"reports_identical": false' in text:
            bad.append(f"{where}: engine modes or thread counts diverged")
    return bad


# --- perf-floor -----------------------------------------------------------
#
# The event-driven engine must not be slower than the ticked reference on
# any smoke scenario — including the mobility-bound row, where the
# motion-segment protocol must win on elided movement work alone — and the
# sharded parallel engine must stay within noise of the serial event
# engine on the routing smoke (its target regime). Relative comparisons
# between runs of the same build dodge absolute-threshold flakiness while
# still catching "accidentally pessimised" PRs. The 1.2x tolerance
# absorbs scheduler noise on millisecond-scale runs (real smoke speedups
# are 4-100x). The parallel engine runs the same serial routing round as
# the event engine, so on the routing smoke it may only add pool overhead:
# 1.10x plus 20 ms absolute grace for pool wake-ups on millisecond rows.

def gate_perf_floor(bench_path: str, routing_path: str) -> list[str]:
    doc = json.load(open(bench_path))
    assert doc["schema_version"] >= 5, "smoke JSON too old for this gate"
    bad = []
    for section in ("entries", "transfer_bound", "mobility_bound"):
        for e in doc[section]:
            if e["event_wall_secs"] > 1.2 * e["ticked_wall_secs"]:
                bad.append(
                    f"[{section}] nodes={e['nodes']}: "
                    f"event {e['event_wall_secs']:.3f}s > 1.2 * "
                    f"ticked {e['ticked_wall_secs']:.3f}s"
                )
    routing = json.load(open(routing_path))
    assert routing["schema_version"] >= 3, "routing smoke JSON too old for this gate"
    for e in routing["entries"]:
        if e["parallel_wall_secs"] > 1.10 * e["index_wall_secs"] + 0.02:
            bad.append(
                f"[routing] nodes={e['nodes']}: "
                f"parallel {e['parallel_wall_secs']:.3f}s > 1.10 * "
                f"index {e['index_wall_secs']:.3f}s + 20ms"
            )
    return bad


# --- memory-floor ---------------------------------------------------------
#
# The smoke's per-process memory probe (same binary, hidden --memory-probe
# re-exec; peak VmHWM minus pre-build VmRSS) must stay within 1.15x of the
# committed bytes-per-node baseline, and the probe's own event-vs-parallel
# identity check must hold. Relative to a *committed* number — rather than
# between runs — because bytes/node is stable across runs of the same
# build (<2% observed), so per-copy or per-node bloat shows up directly.
# Re-baseline ci/memory_smoke_baseline.json consciously when layout
# changes are intentional. Writes the extracted section for the artifact
# upload.

def gate_memory_floor(bench_path: str, baseline_path: str, extract_out: str) -> list[str]:
    doc = json.load(open(bench_path))
    assert doc["schema_version"] >= 4, "smoke JSON too old for the memory gate"
    rows = doc.get("memory", [])
    assert rows, "memory section missing or empty in smoke JSON"
    base = json.load(open(baseline_path))
    limit = 1.15 * base["bytes_per_node"]
    bad = []
    for row in rows:
        if not row.get("reports_identical"):
            bad.append(f"nodes={row['nodes']}: memory probe reports diverged")
        if row["nodes"] == base["nodes"] and row["bytes_per_node"] > limit:
            bad.append(
                f"nodes={row['nodes']}: {row['bytes_per_node']} B/node "
                f"> 1.15 * baseline {base['bytes_per_node']}"
            )
    if not any(r["nodes"] == base["nodes"] for r in rows):
        bad.append(f"no memory row at baseline size {base['nodes']}")
    json.dump({"baseline": base, "rows": rows}, open(extract_out, "w"), indent=2)
    return bad


# --- sweep-resume ---------------------------------------------------------
#
# The checkpointed-resume contract, end to end through the run_scenario
# CLI: execute the committed CI manifest cold with a journal, truncate the
# journal to half its records (a simulated kill between chunk commits),
# resume, and require the two aggregate JSON files to be byte-identical.
# The runs/sec floor against the committed baseline (generous fraction)
# catches an orchestrator that degenerates to re-running replayed work or
# serialising on the journal, without being flaky on slow runners.

def sweep_floor_violations(runs: int, expected_runs: int, wall: float, base: dict) -> list[str]:
    bad = []
    if runs != expected_runs:
        bad.append(f"manifest expanded to {runs} runs, baseline expects {expected_runs}")
    rps = runs / max(wall, 1e-9)
    floor = base["runs_per_sec"] * base["floor_fraction"]
    print(
        f"cold sweep: {runs} runs in {wall:.2f}s = {rps:.0f} runs/s (floor {floor:.0f})"
    )
    if rps < floor:
        bad.append(f"runs/sec floor violated: {rps:.0f} < {floor:.0f}")
    return bad


def gate_sweep_resume(binary: str, manifest: str, baseline_path: str) -> list[str]:
    journal = "/tmp/sweep_smoke.jsonl"
    cold_out, resumed_out = "/tmp/sweep_cold.json", "/tmp/sweep_resumed.json"
    Path(journal).unlink(missing_ok=True)
    t0 = time.monotonic()
    subprocess.run(
        [binary, "--sweep", manifest, "--journal", journal, "--out", cold_out],
        check=True,
    )
    wall = time.monotonic() - t0
    lines = open(journal).read().splitlines(keepends=True)
    runs = len(lines) - 1  # header + one record per run
    keep = 1 + runs // 2
    open(journal, "w").writelines(lines[:keep])
    subprocess.run(
        [binary, "--sweep", manifest, "--journal", journal, "--resume",
         "--out", resumed_out],
        check=True,
    )
    bad = []
    if open(cold_out, "rb").read() != open(resumed_out, "rb").read():
        bad.append("resumed aggregate differs from the cold run")
    else:
        print("resumed aggregate byte-identical to the cold run")
    base = json.load(open(baseline_path))
    bad += sweep_floor_violations(runs, base["runs"], wall, base)
    return bad


# --- self-test ------------------------------------------------------------
#
# Every gate is run against a synthetic passing fixture AND a synthetic
# violating fixture; a gate that stops firing on violations is itself a
# CI failure. (sweep-resume needs a built binary, so its pure floor logic
# is what gets tested here.)

def gate_self_test() -> list[str]:
    bad = []
    with tempfile.TemporaryDirectory() as d:
        dd = Path(d)

        def wjson(name: str, doc: dict) -> str:
            p = dd / name
            p.write_text(json.dumps(doc, indent=1))
            return str(p)

        good_bench = wjson("bench_ok.json", {
            "schema_version": 5,
            "threads": 2,
            "memory": [{"nodes": 200, "bytes_per_node": 1_000, "reports_identical": True}],
            "motion": [],
            "entries": [{"nodes": 30, "event_wall_secs": 0.1, "ticked_wall_secs": 0.5,
                         "parallel_wall_secs": 0.1, "reports_identical": True}],
            "transfer_bound": [{"nodes": 30, "event_wall_secs": 0.1,
                                "ticked_wall_secs": 0.2, "reports_identical": True}],
            "mobility_bound": [{"nodes": 30, "event_wall_secs": 0.1,
                                "ticked_wall_secs": 0.9, "reports_identical": True}],
        })
        good_routing = wjson("routing_ok.json", {
            "schema_version": 3,
            "benchmark": "routing_round",
            "entries": [{"nodes": 48, "index_wall_secs": 0.2,
                         "parallel_wall_secs": 0.21, "reports_identical": True}],
        })
        slow_bench = wjson("bench_slow.json", {
            **json.load(open(good_bench)),
            "entries": [{"nodes": 30, "event_wall_secs": 1.0, "ticked_wall_secs": 0.1,
                         "parallel_wall_secs": 0.1, "reports_identical": True}],
        })
        # Within the old 1.25x + 50 ms allowance, outside 1.10x + 20 ms.
        slow_routing = wjson("routing_slow.json", {
            **json.load(open(good_routing)),
            "entries": [{"nodes": 48, "index_wall_secs": 0.2,
                         "parallel_wall_secs": 0.26, "reports_identical": True}],
        })
        drifted_routing = wjson("routing_drift.json", {
            **json.load(open(good_routing)),
            "entries": [{"nodes": 48, "index_wall_secs": 0.2,
                         "parallel_wall_secs": 0.2, "reports_identical": False}],
        })
        baseline = wjson("mem_base.json", {"nodes": 200, "bytes_per_node": 1_000})
        bloated_bench = wjson("bench_bloat.json", {
            **json.load(open(good_bench)),
            "memory": [{"nodes": 200, "bytes_per_node": 2_000, "reports_identical": True}],
        })
        extract = str(dd / "extract.json")

        cases = [
            ("smoke-identity passes clean fixtures",
             gate_smoke_identity(good_bench, good_routing), False),
            ("smoke-identity fires on reports_identical: false",
             gate_smoke_identity(good_bench, drifted_routing), True),
            ("perf-floor passes clean fixtures",
             gate_perf_floor(good_bench, good_routing), False),
            ("perf-floor fires on a slow event engine",
             gate_perf_floor(slow_bench, good_routing), True),
            ("perf-floor fires on a slow parallel routing round",
             gate_perf_floor(good_bench, slow_routing), True),
            ("memory-floor passes within baseline",
             gate_memory_floor(good_bench, baseline, extract), False),
            ("memory-floor fires on bytes/node bloat",
             gate_memory_floor(bloated_bench, baseline, extract), True),
            ("sweep floor passes at baseline throughput",
             sweep_floor_violations(12, 12, 0.1,
                                    {"runs_per_sec": 100, "floor_fraction": 0.25}), False),
            ("sweep floor fires on throughput collapse",
             sweep_floor_violations(12, 12, 60.0,
                                    {"runs_per_sec": 100, "floor_fraction": 0.25}), True),
            ("sweep floor fires on a plan-size mismatch",
             sweep_floor_violations(6, 12, 0.1,
                                    {"runs_per_sec": 100, "floor_fraction": 0.25}), True),
        ]
        for label, violations, should_fire in cases:
            fired = bool(violations)
            if fired != should_fire:
                bad.append(
                    f"self-test `{label}`: expected "
                    f"{'violations' if should_fire else 'clean'}, got {violations!r}"
                )
        if not Path(extract).is_file():
            bad.append("self-test: memory-floor did not write its extract file")
    return bad


GATES = {
    "smoke-identity": (gate_smoke_identity, 2),
    "perf-floor": (gate_perf_floor, 2),
    "memory-floor": (gate_memory_floor, 3),
    "sweep-resume": (gate_sweep_resume, 3),
    "self-test": (gate_self_test, 0),
}


def main(argv: list[str]) -> int:
    if len(argv) < 1 or argv[0] not in GATES:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    name = argv[0]
    fn, arity = GATES[name]
    if len(argv) - 1 != arity:
        print(f"gate {name}: expected {arity} argument(s), got {len(argv) - 1}",
              file=sys.stderr)
        return 2
    violations = fn(*argv[1:])
    if violations:
        print(f"gate {name}: FAIL")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"gate {name}: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
