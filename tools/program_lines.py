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

Beside each crate's program lines it prints the crate's `pub fn` count:
the lines under `src/` (unit tests included) that declare a fn `pub`
with no restriction. A fn no other crate calls is `pub(crate)` or
narrower, so rustc's `dead_code` lint sees it; the count shows how much
API a crate offers its callers.

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


PUB_FN = re.compile(r"^\s*pub (?:const |unsafe |async )*fn ")


def pub_fns(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if PUB_FN.match(line))


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
    """(program lines, `pub fn` count) of one crate."""
    lines = fns = 0
    src = os.path.join(root, crate, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                path = os.path.join(dirpath, name)
                lines += program_lines(path)
                fns += pub_fns(path)
    return lines, fns


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.abspath(root)
    rows = [(c, *count_crate(root, c)) for c in crates(root)]
    width = max(len(c) for c, _, _ in rows + [("total", 0, 0)])
    for crate, n, fns in rows:
        print(f"{crate:<{width}}  {n:>7,}  {fns:>4} pub fn")
    total = sum(n for _, n, _ in rows)
    print(f"{'total':<{width}}  {total:>7,}  {sum(f for _, _, f in rows):>4} pub fn")


if __name__ == "__main__":
    main()
