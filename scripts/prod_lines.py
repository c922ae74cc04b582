#!/usr/bin/env python3
"""Counts production Rust lines at one or more git revisions.

Usage: scripts/prod_lines.py [rev ...]     (default: HEAD)

Prints one line per revision: `<rev> <count>`. The count is the number
of non-blank lines in tracked `*.rs` files, excluding

  * any path with a `tests`, `examples` or `benches` segment,
  * everything under `perfbench/`,
  * every `#[cfg(test)] mod ... { ... }` block (attribute included).

Vendored crates under `crates/` are counted. The rule is the one
CHANGES.md uses for its before/after production-line figures.
"""

import subprocess
import sys

EXCLUDED_SEGMENTS = {"tests", "examples", "benches"}


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def is_production(path):
    parts = path.split("/")
    if parts[0] == "perfbench" or not path.endswith(".rs"):
        return False
    return not EXCLUDED_SEGMENTS.intersection(parts[:-1])


def code_braces(line, state):
    """Yields the `{`/`}` characters of `line` that are code, not part
    of a string, char literal or comment. `state` carries an open block
    comment depth or raw/plain string across lines."""
    i, n = 0, len(line)
    while i < n:
        mode = state.get("mode")
        c = line[i]
        if mode == "block":
            if line.startswith("*/", i):
                state["depth"] -= 1
                if state["depth"] == 0:
                    state["mode"] = None
                i += 2
            elif line.startswith("/*", i):
                state["depth"] += 1
                i += 2
            else:
                i += 1
        elif mode == "str":
            if c == "\\":
                i += 2
            else:
                if c == '"':
                    state["mode"] = None
                i += 1
        elif mode == "raw":
            end = '"' + "#" * state["hashes"]
            if line.startswith(end, i):
                state["mode"] = None
                i += len(end)
            else:
                i += 1
        elif line.startswith("//", i):
            return
        elif line.startswith("/*", i):
            state["mode"], state["depth"] = "block", 1
            i += 2
        elif c == "r" and (line.startswith('r"', i) or line.startswith("r#", i)):
            j = i + 1
            while j < n and line[j] == "#":
                j += 1
            if j < n and line[j] == '"':
                state["mode"], state["hashes"] = "raw", j - i - 1
                i = j + 1
            else:
                i += 1
        elif c == '"':
            state["mode"] = "str"
            i += 1
        elif c == "'":
            # a char literal ('x', '\n', '\u{..}') or a lifetime ('a)
            if line.startswith("'\\", i):
                close = line.find("'", i + 2)
                i = close + 1 if close > 0 else i + 1
            elif i + 2 < n and line[i + 2] == "'":
                i += 3
            else:
                i += 1
        else:
            if c in "{}":
                yield c
            i += 1


def count(source):
    lines = source.splitlines()
    total = 0
    state = {}
    skip_depth = None  # brace depth inside a cfg(test) module
    pending_attr = False
    for line in lines:
        stripped = line.strip()
        if skip_depth is not None:
            for b in code_braces(line, state):
                skip_depth += 1 if b == "{" else -1
            if skip_depth == 0:
                skip_depth = None
            continue
        if stripped == "#[cfg(test)]":
            pending_attr = True
            continue
        if pending_attr:
            pending_attr = False
            if stripped.startswith(("mod ", "pub mod ", "pub(crate) mod ")) and "{" in stripped:
                skip_depth = 0
                for b in code_braces(line, state):
                    skip_depth += 1 if b == "{" else -1
                if skip_depth == 0:
                    skip_depth = None
                continue
            total += 1  # the attribute line belongs to counted code
        for _ in code_braces(line, state):
            pass
        if stripped:
            total += 1
    return total


def count_rev(rev):
    paths = [p for p in git("ls-tree", "-r", "--name-only", rev).splitlines() if is_production(p)]
    return sum(count(git("show", f"{rev}:{p}")) for p in paths)


def main(argv):
    if any(a in ("-h", "--help") for a in argv):
        print(__doc__.strip())
        return 0
    for rev in argv or ["HEAD"]:
        print(f"{rev} {count_rev(rev)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
