#!/usr/bin/env python3
"""Count Rust program lines per crate.

A program line is a line of a `.rs` file under a crate's `src/`
directory, up to the file's first `#[cfg(test)]` at the start of a
line, that is neither blank nor a comment line (a line whose first
non-blank characters are `//`, doc comments included). Tests, benches
and examples are not program lines, and neither are the unit tests at
the foot of a source file. An indented `#[cfg(test)]` (a test-only
helper inside an `impl`) does not end the count.

Crates are the root package (`.`) and the workspace members named in
the root `Cargo.toml`, except the vendored shims under `vendor/`.

Usage:
    python3 tools/program_lines.py [REPO_ROOT]

Prints one row per crate and the total. Compare two trees (say, a
checkout of the parent commit and the working tree) by running it on
each.
"""

import os
import re
import sys


def program_lines(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            s = line.strip()
            if s and not s.startswith("//"):
                n += 1
    return n


def crates(root):
    """The root package and the workspace members outside `vendor/`."""
    with open(os.path.join(root, "Cargo.toml"), encoding="utf-8") as f:
        manifest = f.read()
    members = re.search(r"members\s*=\s*\[(.*?)\]", manifest, re.S)
    found = ["."]
    if members:
        found += [
            m for m in re.findall(r'"([^"]+)"', members.group(1)) if not m.startswith("vendor/")
        ]
    return [c for c in found if os.path.isdir(os.path.join(root, c, "src"))]


def count_crate(root, crate):
    total = 0
    src = os.path.join(root, crate, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                total += program_lines(os.path.join(dirpath, name))
    return total


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.abspath(root)
    rows = [(c, count_crate(root, c)) for c in crates(root)]
    width = max(len(c) for c, _ in rows + [("total", 0)])
    for crate, n in rows:
        print(f"{crate:<{width}}  {n:>7,}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):>7,}")


if __name__ == "__main__":
    main()
