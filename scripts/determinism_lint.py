#!/usr/bin/env python3
"""Determinism lint: flag iteration over HashMap/HashSet in non-test code.

The simulator's bit-identity guarantees (engine-mode equivalence, thread
invariance, bench report identity, snapshot/restore hash stability) only
hold if no observable ordering ever derives from std hash-table iteration
order, which is randomised per instance. This lint scans
`crates/*/src/**/*.rs`, `crates/*/examples/**/*.rs` and the umbrella
crate's `src/**/*.rs`, strips `#[cfg(test)]`
modules, and fails on any `for`-loop or ordering-sensitive method call
(`iter`, `keys`, `values`, `drain`, `difference`, ...) applied to an
identifier whose declared type in the same file is `HashMap`/`HashSet`
or a same-file `type` alias of one.
Snapshot and state-hash code is the highest-stakes audience: a hash-order
leak there turns into CI drift-matrix failures that reproduce on no
developer machine.

Sites that have been audited (sorted immediately after collection, or
feeding only order-insensitive sinks like counters and membership tests)
are listed in `scripts/determinism_allowlist.txt` as `path:identifier`
pairs, one per line, each with a trailing `# why it is safe` comment.

A second check flags wall-clock reads (`Instant::now`, `SystemTime::now`)
in simulation crates (everything but `bench`): the motion-segment
protocol makes positions, contact windows and movement wakes pure
functions of simulated time, so a wall-clock value reaching any of them
would silently break engine-mode equivalence. Audited sites (e.g. the
engine's `wall_secs` stopwatch, which only feeds a report field the
identity checks zero out) use the allowlist identifier `wallclock`.

The allowlist itself is checked: every line must parse as
`path:identifier  # justification`, name a file that exists, carry a
non-empty justification, be unique — and actually suppress something. A
stale entry (its site was removed or rewritten) fails the lint, so the
audit record can never rot into a blanket waiver.

`--self-test` runs the declaration matching against built-in plain and
aliased fixtures instead of the tree, so a lint that silently stopped
seeing hash-table fields fails loudly.

Exit status: 0 clean, 1 on unaudited iteration, wall-clock read, or a
malformed/stale allowlist (or a failed self-test).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "determinism_allowlist.txt"

HASH_TYPE = r"(?:std::collections::)?Hash(?:Map|Set)"
# Same-file alias of a hash-table type: `type Cells = HashMap<..>;`.
ALIAS_RE = re.compile(rf"\btype\s+(\w+)\b[^=;]*=\s*{HASH_TYPE}\s*<")


def decl_re(src: str) -> re.Pattern[str]:
    """Identifiers declared with a hash-table type in `src`: struct fields,
    let bindings with annotations, fn params. Covers `x: HashMap<..>` and
    turbofish-free constructor bindings `let x = HashMap::new()`, and the
    same forms through any alias `src` declares (`x: Cells`,
    `let x = Cells::default()`)."""
    aliases = "".join(rf"|{a}\b" for a in ALIAS_RE.findall(src))
    return re.compile(
        rf"\b(\w+)\s*:\s*&?(?:mut\s+)?(?:{HASH_TYPE}\s*<{aliases})"
        rf"|let\s+(?:mut\s+)?(\w+)(?::[^=]+)?=\s*(?:{HASH_TYPE}{aliases})\s*::"
    )


ITER_METHODS = (
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "difference",
    "intersection",
    "symmetric_difference",
    "union",
    "retain",
)


def strip_test_modules(src: str) -> str:
    """Blank out `#[cfg(test)] mod ... { ... }` bodies (keep line numbers)."""
    out = list(src)
    for m in re.finditer(r"#\[cfg\(test\)\]", src):
        brace = src.find("{", m.end())
        if brace < 0:
            continue
        depth = 0
        for i in range(brace, len(src)):
            if src[i] == "{":
                depth += 1
            elif src[i] == "}":
                depth -= 1
                if depth == 0:
                    for j in range(m.start(), i + 1):
                        if out[j] not in "\n":
                            out[j] = " "
                    break
    return "".join(out)


def load_allowlist() -> tuple[set[tuple[str, str]], list[str]]:
    """Parse the allowlist, returning (entries, format failures).

    Each meaningful line must be `path:identifier  # justification`: the
    path must exist in the repo, the identifier must be non-empty, the
    justification comment is mandatory, and entries must be unique.
    """
    allowed: set[tuple[str, str]] = set()
    problems: list[str] = []
    if not ALLOWLIST.exists():
        return allowed, problems
    for lineno, raw in enumerate(ALLOWLIST.read_text().splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        code, _, comment = stripped.partition("#")
        code = code.strip()
        where = f"{ALLOWLIST.name}:{lineno}"
        if not comment.strip():
            problems.append(f"{where}: entry `{code}` has no `# why it is safe` justification")
        if ":" not in code:
            problems.append(f"{where}: `{code}` is not a `path:identifier` pair")
            continue
        path, ident = code.rsplit(":", 1)
        path, ident = path.strip(), ident.strip()
        if not ident or not re.fullmatch(r"\w+", ident):
            problems.append(f"{where}: identifier `{ident}` is not a plain identifier")
            continue
        if not (ROOT / path).is_file():
            problems.append(f"{where}: file `{path}` does not exist")
            continue
        if (path, ident) in allowed:
            problems.append(f"{where}: duplicate entry `{path}:{ident}`")
            continue
        allowed.add((path, ident))
    return allowed, problems


WALLCLOCK_RE = re.compile(r"\b(?:Instant|SystemTime)\s*::\s*now\s*\(")


def scan(
    rel: str,
    src: str,
    allowed: set[tuple[str, str]],
    used: set[tuple[str, str]],
    failures: list[str],
) -> None:
    """Lint one file's test-stripped source: record audited sites it hits
    in `used` and unaudited ones in `failures`."""
    # Wall-clock reads in simulation crates (bench is measurement code).
    if not rel.startswith("crates/bench/"):
        for i, line in enumerate(src.splitlines(), start=1):
            if line.lstrip().startswith("//"):
                continue
            if WALLCLOCK_RE.search(line):
                if (rel, "wallclock") in allowed:
                    used.add((rel, "wallclock"))
                else:
                    failures.append(
                        f"{rel}:{i}: wall-clock read in simulation code: {line.strip()}"
                    )
    hashy = set()
    for m in decl_re(src).finditer(src):
        hashy.add(m.group(1) or m.group(2))
    method_alt = "|".join(ITER_METHODS)
    for name in sorted(hashy):
        # `for x in &map` / `for x in map` (the bare-identifier forms)
        # and any ordering-sensitive method call on the identifier.
        pat = re.compile(
            rf"for\s+[^;{{]*?\bin\s+&?(?:mut\s+)?(?:self\.)?{name}\b\s*\{{"
            rf"|\b(?:self\.)?{name}\s*\.\s*(?:{method_alt})\s*\("
        )
        for i, line in enumerate(src.splitlines(), start=1):
            if line.lstrip().startswith("//"):
                continue
            if pat.search(line):
                if (rel, name) in allowed:
                    used.add((rel, name))
                else:
                    failures.append(
                        f"{rel}:{i}: iteration over hash table `{name}`: {line.strip()}"
                    )


# Self-test fixtures: the same grid, its field declared plainly and through
# an alias. Each must be flagged unaudited and be suppressed by (and mark
# as used) a `fixture.rs:cells` entry; `order` is a Vec and never flagged.
FIXTURE_BODY = """
pub struct Grid {
    cells: CELLS_TYPE,
    order: Vec<u32>,
}

impl Grid {
    fn clear(&mut self) {
        for v in self.cells.values_mut() {
            v.clear();
        }
        for i in self.order.iter() {}
    }
}
"""
FIXTURES = {
    "plain": FIXTURE_BODY.replace("CELLS_TYPE", "HashMap<(i32, i32), Vec<u32>>"),
    "aliased": "type Cells = HashMap<(i32, i32), Vec<u32>, BuildHasherDefault<H>>;\n"
    + FIXTURE_BODY.replace("CELLS_TYPE", "Cells"),
}


def self_test() -> int:
    errors = []
    for label, src in FIXTURES.items():
        used: set[tuple[str, str]] = set()
        failures: list[str] = []
        scan("fixture.rs", src, set(), used, failures)
        if len(failures) != 1 or "`cells`" not in failures[0]:
            errors.append(f"{label}: expected one unaudited `cells` site, got {failures}")
        entry = ("fixture.rs", "cells")
        failures = []
        scan("fixture.rs", src, {entry}, used, failures)
        if failures or used != {entry}:
            errors.append(f"{label}: allowlisted `cells` left {failures}, used {used}")
    if errors:
        print("determinism lint self-test FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"determinism lint self-test: ok ({len(FIXTURES)} fixtures)")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if sys.argv[1:]:
        print(f"usage: {sys.argv[0]} [--self-test]")
        return 2
    allowed, problems = load_allowlist()
    used: set[tuple[str, str]] = set()
    failures: list[str] = []
    paths = (
        list(ROOT.glob("crates/*/src/**/*.rs"))
        + list(ROOT.glob("crates/*/examples/**/*.rs"))
        + list(ROOT.glob("src/**/*.rs"))
    )
    for path in sorted(paths):
        rel = path.relative_to(ROOT).as_posix()
        scan(rel, strip_test_modules(path.read_text()), allowed, used, failures)
    # Stale entries are audit rot: the audited site is gone, so the waiver
    # must go with it (or be re-justified against the new code).
    for path, ident in sorted(allowed - used):
        problems.append(f"stale allowlist entry `{path}:{ident}` suppresses nothing")
    status = 0
    if problems:
        print(f"determinism lint: {ALLOWLIST.relative_to(ROOT)} failed its self-check:")
        for p in problems:
            print(f"  {p}")
        status = 1
    if failures:
        print("determinism lint: unaudited HashMap/HashSet iteration in non-test code:")
        for f in failures:
            print(f"  {f}")
        print(
            "\nEither sort the collected entries before any observable use and add\n"
            f"`<path>:<identifier>  # reason` to {ALLOWLIST.relative_to(ROOT)}, or\n"
            "switch the container to an order-stable structure (sorted Vec, slab)."
        )
        status = 1
    if status == 0:
        print(f"determinism lint: clean ({len(paths)} files, {len(allowed)} audited sites)")
    return status


if __name__ == "__main__":
    sys.exit(main())
