#!/usr/bin/env python3
"""Print the repository's tracked size metric: non-vendor Rust lines.

Counts the lines of every `*.rs` file under the repository root except
those under `vendor/` (offline dependency shims), `benchmark/` (the frozen
benchmark package) and any `target/` build directory.

    python3 scripts/rust_lines.py                 # total only
    python3 scripts/rust_lines.py --by-dir        # per directory, then total
    python3 scripts/rust_lines.py path/to/checkout  # count another tree
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXCLUDED = {"vendor", "benchmark", "target"}


def counted_files(root):
    for path in sorted(root.rglob("*.rs")):
        parts = path.relative_to(root).parts
        if not EXCLUDED.intersection(parts):
            yield path


def line_count(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def main(argv):
    roots = [Path(a).resolve() for a in argv if not a.startswith("--")]
    root = roots[0] if roots else ROOT
    by_dir = Counter()
    for path in counted_files(root):
        rel = path.relative_to(root).parts
        key = "/".join(rel[:2]) if rel[0] == "crates" else rel[0]
        by_dir[key] += line_count(path)
    if "--by-dir" in argv:
        for key in sorted(by_dir):
            print(f"{by_dir[key]:>8}  {key}")
    print(sum(by_dir.values()))


if __name__ == "__main__":
    main(sys.argv[1:])
