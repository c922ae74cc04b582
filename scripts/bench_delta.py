#!/usr/bin/env python3
"""Sweep comparison for CI: advisory wall-clock, blocking determinism.

Usage: bench_delta.py [--gate] <reference.json> <current.json>

Both inputs are `repro --bench-json` outputs. Two kinds of numbers are
compared, and they are treated very differently:

* **Advisory (never blocks):** wall-clock seconds and the peak
  resident memory (`peak_rss_mib`, absent where the host has no
  `/proc/self/status`). These vary with the runner and its allocator,
  so they are printed for the job log only, in a clearly labeled
  non-blocking section.

* **Deterministic (blocks under --gate):** the experiment id set,
  per-experiment simulation counts, every component tick/skip/bulk
  counter in the embedded per-experiment and whole-run profiles, the
  per-tenant tallies the multi-tenant experiments emit (admission,
  completion and gate-hold counts), and the result-cache
  hit/miss/store counters. For a serial cold-cache
  run (`--jobs 1 --no-cache`, as the CI gate leg uses) these are exact
  functions of the code, so any delta means the simulator's
  work-avoidance behavior actually changed — not that the machine was
  slow. Such a change must either be a bug or come with a re-blessed
  `goldens/BENCH_sweep.tiny.json` (see CONTRIBUTING.md).

Without --gate the script always exits 0 (the pre-gate behavior, kept
for local use). With --gate it exits 1 when any deterministic counter
drifts or an input is unreadable.
"""

import json
import sys

COMPONENT_TICKS = ("tile_ticks", "mem_ticks", "noc_ticks")
GATED_HOST = ("cache_hits", "cache_misses", "cache_stores")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def pct(ref, cur):
    return f"{100.0 * (cur - ref) / ref:+.0f}%" if ref > 0 else "n/a"


def wall_clock_table(ref_doc, cur_doc):
    print("wall-clock and memory vs reference (ADVISORY, non-blocking):")
    print(f"  {'phase':<16} {'ref':>8} {'cur':>8} {'delta':>8}")
    for key, label in (("sweep_seconds", "sweep s"), ("total_seconds", "total s"),
                       ("peak_rss_mib", "peak RSS MiB")):
        r, c = ref_doc.get(key), cur_doc.get(key)
        if r is None or c is None:
            continue
        print(f"  {label:<16} {r:>8.3f} {c:>8.3f} {pct(r, c):>8}")


def host_table(ref_doc, cur_doc):
    """Host-runtime counters: cache traffic."""
    ref, cur = ref_doc.get("host"), cur_doc.get("host")
    if not isinstance(ref, dict) or not isinstance(cur, dict):
        return
    print("host runtime counters vs reference:")
    print(f"  {'counter':<16} {'ref':>10} {'cur':>10} {'delta':>8}")
    for key in GATED_HOST:
        r, c = ref.get(key), cur.get(key)
        if r is None or c is None:
            continue
        print(f"  {key:<16} {r:>10} {c:>10} {pct(r, c):>8}")


def tick_table(ref_doc, cur_doc):
    """Per-experiment component-tick comparison from embedded profiles."""
    ref = {e["id"]: e.get("profile", {}) for e in ref_doc.get("experiments", [])}
    cur = {e["id"]: e.get("profile", {}) for e in cur_doc.get("experiments", [])}
    shared = [i for i in ref if i in cur]
    if not any(ref[i] and cur[i] for i in shared):
        return
    print("component dense ticks vs reference (deterministic):")
    header = " ".join(f"{c.split('_')[0] + ' ref':>12} {'cur':>12} {'delta':>7}"
                      for c in COMPONENT_TICKS)
    print(f"  {'experiment':<16} {header}")
    for exp_id in shared:
        cells = []
        for comp in COMPONENT_TICKS:
            r, c = ref[exp_id].get(comp), cur[exp_id].get(comp)
            if r is None or c is None:
                cells.append(f"{'-':>12} {'-':>12} {'n/a':>7}")
                continue
            delta = pct(r, c) if r is not None else "n/a"
            cells.append(f"{r:>12} {c:>12} {delta:>7}")
        print(f"  {exp_id:<16} {' '.join(cells)}")
    gone = [i for i in ref if i not in cur]
    new = [i for i in cur if i not in ref]
    if gone:
        print(f"  (gone from current: {', '.join(gone)})")
    if new:
        print(f"  (new in current: {', '.join(new)})")


def profile_drift(label, ref, cur):
    """Lists every counter that differs between two profile objects."""
    fails = []
    for key in sorted(set(ref) | set(cur)):
        r, c = ref.get(key), cur.get(key)
        if r != c:
            fails.append(f"{label}: {key} drifted ({r} -> {c})")
    return fails


def gate_failures(ref_doc, cur_doc):
    """Every deterministic-counter mismatch, as printable strings."""
    fails = []
    for key in ("scale", "simulations"):
        r, c = ref_doc.get(key), cur_doc.get(key)
        if r != c:
            fails.append(f"{key} drifted ({r} -> {c})")

    ref_host = ref_doc.get("host") or {}
    cur_host = cur_doc.get("host") or {}
    for key in GATED_HOST:
        r, c = ref_host.get(key), cur_host.get(key)
        if r != c:
            fails.append(f"host.{key} drifted ({r} -> {c})")

    fails += profile_drift("whole-run profile",
                           ref_doc.get("profile") or {},
                           cur_doc.get("profile") or {})

    ref_exp = {e["id"]: e for e in ref_doc.get("experiments", [])}
    cur_exp = {e["id"]: e for e in cur_doc.get("experiments", [])}
    for exp_id in sorted(set(ref_exp) - set(cur_exp)):
        fails.append(f"experiment {exp_id}: gone from current run")
    for exp_id in sorted(set(cur_exp) - set(ref_exp)):
        fails.append(f"experiment {exp_id}: not in reference "
                     "(re-bless goldens/BENCH_sweep.tiny.json)")
    for exp_id in sorted(set(ref_exp) & set(cur_exp)):
        r, c = ref_exp[exp_id], cur_exp[exp_id]
        if r.get("sims") != c.get("sims"):
            fails.append(f"experiment {exp_id}: simulation count drifted "
                         f"({r.get('sims')} -> {c.get('sims')})")
        fails += profile_drift(f"experiment {exp_id}",
                               r.get("profile") or {},
                               c.get("profile") or {})
        fails += profile_drift(f"experiment {exp_id} tallies",
                               r.get("tallies") or {},
                               c.get("tallies") or {})
    return fails


def main(argv):
    args = list(argv[1:])
    gate = "--gate" in args
    if gate:
        args.remove("--gate")
    if len(args) != 2:
        print(f"usage: {argv[0]} [--gate] <reference.json> <current.json>")
        return 1 if gate else 0
    try:
        ref_doc = load(args[0])
        cur_doc = load(args[1])
    except (OSError, ValueError) as e:
        print(f"bench_delta: cannot compare ({e})")
        return 1 if gate else 0

    print(f"reference: {args[0]}")
    try:
        wall_clock_table(ref_doc, cur_doc)
        host_table(ref_doc, cur_doc)
        tick_table(ref_doc, cur_doc)
    except (TypeError, KeyError, ValueError) as e:
        print(f"bench_delta: malformed input ({e}); skipping the rest")
        return 1 if gate else 0

    if not gate:
        print("(informational only; run with --gate to block on "
              "deterministic-counter drift)")
        return 0

    fails = gate_failures(ref_doc, cur_doc)
    if fails:
        print(f"\nGATE FAILED: {len(fails)} deterministic counter(s) drifted:")
        for f in fails:
            print(f"  {f}")
        print("\nIf this change is intentional, regenerate the reference:\n"
              "  cargo run --release -p ts-bench --bin repro -- goldens bless"
              " --tiny\n"
              "  cargo run --release -p ts-bench --bin repro -- sweep --tiny"
              " --jobs 1 --no-cache --bench-json goldens/BENCH_sweep.tiny.json\n"
              "(wall-clock fields in the reference are advisory and may be"
              " left as-is; see CONTRIBUTING.md)")
        return 1
    print("\ngate OK: deterministic counters match the reference "
          "(wall clock is advisory)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
