#!/usr/bin/env python3
"""A/B-compares two revisions on the repository benchmark.

Usage (from the repository root):

    scripts/ab.py BASE HEAD --workload <w> [--workload <w> ...] \\
        --pairs <n> [--seconds <s>] [--dir <path>]
    scripts/ab.py --trajectory

Both revisions must be reachable from a branch or tag, so that every
record names commits that outlive it. Each one is exported (`git
archive`) into `<dir>/<sha>/src` and runs `perfbench/run.py --trace 0`
from that tree with its own `CARGO_TARGET_DIR` (`<dir>/<sha>/target`);
`run.py` builds the side on its first run. The default `<dir>` is
`.ab_build` at the repository root, and the default run length is
`BENCHMARK.json`'s `run_seconds`. An exported tree, unlike a `git
worktree`, registers nothing in the repository, so an interrupted run
leaves nothing to prune.

Pair i (from 1) runs seed i on both sides; the side that runs first
alternates from pair to pair. For every end-to-end metric of
`BENCHMARK.json` it prints both medians, the parent's quartile spread
(IQR), how many pairs the change won (ties count for neither), the
median of the per-pair ratios HEAD/BASE, whether the change's median is
worse than the parent's by more than the metric's bound, and the
verdict of the gain rule: every run is correct, the change fails no
more operations than the parent and prints the same digests, it wins at
least nine tenths of the pairs, and its median beats the parent's by
more than the parent's IQR.

Each workload appends one JSON record to `BENCH_history.jsonl` at the
repository root: both commits, the host (CPU model, `nproc`), the
settings, every run's raw metrics and digest, and the summary.

`--trajectory` chains each workload's records in file order and prints,
per record, every metric's ratio of medians HEAD/BASE multiplied over
all the workload's records so far: where that metric stands against the
workload's first measured parent. A record continues the previous one
when its BASE is the previous HEAD or descends from it through commits
that change only records and prose (`BENCH_history.jsonl`, `*.md`);
any other gap, a code change in particular, is an error (exit 1).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def quantile(xs, q):
    """The q-quantile by linear interpolation between closest ranks."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no values")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def problems(runs):
    """Why the pairs in `runs` cannot support a gain (empty if they can).

    Each run is `{"seed": i, "base": side, "head": side}`, a side being
    `run_once`'s result.
    """
    out = [
        f"seed {r['seed']} {side} incorrect"
        for r in runs
        for side in ("base", "head")
        if r[side]["exit"] != 0 or not r[side]["correct"]
    ]
    failed = {side: sum(r[side]["failed"] or 0 for r in runs) for side in ("base", "head")}
    if failed["head"] > failed["base"]:
        out.append(f"head failed {failed['head']} operations, base {failed['base']}")
    out += [
        f"seed {r['seed']} digests differ"
        for r in runs
        if r["base"]["digest"] != r["head"]["digest"]
    ]
    return out


def summarize(base, head, better, bound, sound=True):
    """Compares paired samples of one metric.

    `base[i]` and `head[i]` come from pair i; `better` is "lower" or
    "higher"; `bound` is the share by which the change's median may be
    worse than the parent's before it counts as a regression. `sound`
    is false when the runs behind the samples disagree or fail (see
    `problems`); then no gain is reported, whatever the numbers.
    """
    if len(base) != len(head) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    ratios = [h / b for b, h in zip(base, head) if b != 0]
    base_med, head_med, spread = median(base), median(head), iqr(base)
    gain = sign * (head_med - base_med)
    worse = -gain > bound * abs(base_med)
    return {
        "base_median": base_med,
        "head_median": head_med,
        "base_iqr": spread,
        "wins": wins,
        "pairs": len(base),
        "median_ratio": median(ratios) if ratios else None,
        "worse_than_bound": worse,
        "gain": sound and 10 * wins >= 9 * len(base) and gain > spread,
    }


def record_only(path):
    """Whether a change to `path` leaves the benchmarked program alone."""
    return path == "BENCH_history.jsonl" or path.endswith(".md")


def gap(prev_head, base, cwd=ROOT):
    """Why a record at `base` does not continue one at `prev_head`
    (None when it does)."""
    if prev_head == base:
        return None
    ancestor = subprocess.run(
        ["git", "merge-base", "--is-ancestor", prev_head, base], cwd=cwd, capture_output=True
    )
    if ancestor.returncode != 0:
        return f"{base[:12]} does not descend from {prev_head[:12]}"
    log = git("log", "--format=", "--name-only", f"{prev_head}..{base}", cwd=cwd)
    code = sorted({p for p in log.splitlines() if p and not record_only(p)})
    if code:
        return f"code changed between {prev_head[:12]} and {base[:12]}: {', '.join(code)}"
    return None


def trajectory(records, link=gap):
    """Chains each workload's records (in order) into running products
    of their ratios of medians, HEAD/BASE, per metric.

    Returns `{workload: [(record, {metric: product so far})]}`; a metric
    first recorded later starts its product there. Raises `ValueError`
    where `link(previous head, base)` says a record does not continue
    its workload's previous one.
    """
    chains = {}
    for rec in records:
        steps = chains.setdefault(rec["workload"], [])
        product = dict(steps[-1][1]) if steps else {}
        if steps:
            why = link(steps[-1][0]["head"], rec["base"])
            if why:
                raise ValueError(f"{rec['workload']}: {why}")
        for name, s in rec["summary"].items():
            if name != "problems" and s["base_median"]:
                product[name] = product.get(name, 1.0) * s["head_median"] / s["base_median"]
        steps.append((rec, product))
    return chains


def print_trajectory(chains, metrics):
    names = [m["name"] for m in metrics]
    for workload, steps in chains.items():
        print(f"\n{workload}: {len(steps)} record(s), ratios to the first parent")
        print(f"{'base..head':<18}" + "".join(f"{n:>18}" for n in names))
        for rec, product in steps:
            cells = ("-" if product.get(n) is None else f"{product[n]:.3f}" for n in names)
            span = f"{rec['base'][:7]}..{rec['head'][:7]}"
            print(f"{span:<18}" + "".join(f"{c:>18}" for c in cells))


def git(*args, cwd=ROOT):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count()}


def reachable(sha):
    """True when some branch or tag contains `sha`."""
    return bool(git("for-each-ref", "--contains", sha, "refs/heads", "refs/tags"))


def prepare(sha, top):
    """Exports `sha` once; returns (tree, env) for its runs."""
    side = os.path.join(top, sha)
    tree = os.path.join(side, "src")
    if not os.path.exists(os.path.join(tree, "BENCHMARK.json")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {sha} failed")
    return tree, dict(os.environ, CARGO_TARGET_DIR=os.path.join(side, "target"))


def run_once(tree, env, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run; returns its raw result."""
    cmd = [
        sys.executable,
        os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    out = {"exit": p.returncode, "correct": False, "failed": None, "digest": None, "metrics": {}}
    if lines:
        try:
            doc = json.loads(lines[-1])
            out["correct"] = doc["correct"]
            out["failed"] = doc["failed"]
            out["metrics"] = {k: v["value"] for k, v in doc["metrics"].items()}
        except (ValueError, KeyError, TypeError):
            pass
    for line in lines[:-1]:
        if " digest " in line:
            out["digest"] = line.rsplit(" ", 1)[1]
    if p.returncode != 0 or not out["correct"]:
        sys.stderr.write(p.stderr[-4000:])
    return out


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 1e6:
        return f"{v / 1e6:.3g}M"
    if abs(v) >= 1e3:
        return f"{v / 1e3:.4g}k"
    return f"{v:.4g}"


def report(workload, runs, metrics):
    """Prints one workload's table and returns its summary."""
    summary = {}
    issues = problems(runs)
    print(f"\n{workload}: {len(runs)} pairs")
    print(f"{'metric':<18}{'base':>10}{'head':>10}{'base IQR':>10}{'wins':>7}{'ratio':>8}  verdict")
    for m in metrics:
        name = m["name"]
        pairs = [
            (r["base"]["metrics"][name], r["head"]["metrics"][name])
            for r in runs
            if name in r["base"]["metrics"] and name in r["head"]["metrics"]
        ]
        if not pairs:
            continue
        s = summarize(
            [b for b, _ in pairs], [h for _, h in pairs], m["better"], m["bound"], not issues
        )
        summary[name] = s
        verdict = "gain" if s["gain"] else ("WORSE than bound" if s["worse_than_bound"] else "-")
        ratio = "-" if s["median_ratio"] is None else f"{s['median_ratio']:.3f}"
        print(
            f"{name:<18}{fmt(s['base_median']):>10}{fmt(s['head_median']):>10}"
            f"{fmt(s['base_iqr']):>10}{s['wins']:>4}/{s['pairs']:<2}{ratio:>8}  {verdict}"
        )
    print(f"problems: {'; '.join(issues) or 'none'}")
    summary["problems"] = issues
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--dir", default=os.path.join(ROOT, ".ab_build"))
    ap.add_argument("--trajectory", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    if args.trajectory:
        with open(HISTORY) as f:
            records = [json.loads(line) for line in f if line.strip()]
        try:
            print_trajectory(trajectory(records), metrics)
        except ValueError as e:
            sys.exit(f"ab: the records do not chain: {e}")
        return 0
    if not (args.base and args.head and args.workload):
        ap.error("BASE, HEAD and --workload are required unless --trajectory")

    base, head = (git("rev-parse", "--verify", f"{r}^{{commit}}") for r in (args.base, args.head))
    for sha in (base, head):
        if not reachable(sha):
            sys.exit(f"ab: no branch or tag contains {sha}; commit the change first")
    seconds = args.seconds or bench["run_seconds"]
    sides = {"base": prepare(base, args.dir), "head": prepare(head, args.dir)}
    for workload in args.workload:
        runs = []
        for seed in range(1, args.pairs + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(*sides[side], workload, seed, seconds)
                print(
                    f"ab: {workload} seed {seed} {side}: "
                    + ", ".join(f"{k} {fmt(v)}" for k, v in run[side]["metrics"].items()),
                    file=sys.stderr,
                )
            runs.append(run)
        summary = report(workload, runs, metrics)
        record = {
            "workload": workload,
            "base": base,
            "head": head,
            "host": host(),
            "pairs": args.pairs,
            "seconds": seconds,
            "runs": runs,
            "summary": summary,
        }
        with open(HISTORY, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
