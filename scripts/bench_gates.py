#!/usr/bin/env python3
"""Named CI gates over the smoke artifacts.

Each gate lives here under a stable name instead of as an inline heredoc
in ci.yml, so it can be run locally and tested. ci.yml invokes one gate
per step, and `self-test` exercises every gate's pure logic against
synthetic fixtures (both passing and violating) so a broken gate fails
CI *as a broken gate*, not as a silently-green no-op.

Usage:
    bench_gates.py sweep-resume   RUN_SCENARIO MANIFEST.json BASELINE.json
    bench_gates.py self-test

Every gate prints `gate <name>: PASS` on success, or the violations and
a non-zero exit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path


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
    cases = [
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
    return bad


GATES = {
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
