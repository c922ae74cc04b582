#!/usr/bin/env python3
"""Unit tests of the statistics and the trajectory in scripts/ab.py.

Run: python3 scripts/test_ab.py
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab import gap, iqr, median, problems, quantile, summarize, trajectory  # noqa: E402


class Stats(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            median([])

    def test_quantiles_interpolate_between_ranks(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(quantile(xs, 0.25), 3.25)
        self.assertAlmostEqual(quantile(xs, 0.75), 7.75)
        self.assertAlmostEqual(iqr(xs), 4.5)
        self.assertEqual(quantile([5], 0.75), 5)
        self.assertEqual(iqr([7, 7, 7]), 0)

    def test_lower_is_better_gain(self):
        base = [200, 198, 196, 197, 199, 201, 195, 197, 198, 196]
        head = [127, 127, 126, 128, 127, 127, 126, 127, 128, 127]
        s = summarize(base, head, "lower", 0.2)
        self.assertEqual(s["wins"], 10)
        self.assertTrue(s["gain"])
        self.assertFalse(s["worse_than_bound"])
        self.assertAlmostEqual(s["median_ratio"], median([h / b for b, h in zip(base, head)]))

    def test_higher_is_better_counts_direction(self):
        s = summarize([10, 10, 10], [12, 12, 12], "higher", 0.25)
        self.assertEqual(s["wins"], 3)
        s = summarize([10, 10, 10], [12, 12, 12], "lower", 0.25)
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["gain"])

    def test_ties_count_for_neither_side(self):
        base = [5] * 10
        head = [4] * 8 + [5, 5]
        s = summarize(base, head, "lower", 0.25)
        self.assertEqual(s["wins"], 8)
        self.assertFalse(s["gain"], "8 of 10 is below nine tenths")

    def test_nine_of_ten_wins_but_gap_inside_the_spread(self):
        base = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        head = [b - 1 for b in base[:9]] + [101]
        s = summarize(base, head, "lower", 0.25)
        self.assertEqual(s["wins"], 9)
        self.assertFalse(s["gain"], "a 1-unit gap is inside a 45-unit IQR")

    def test_nine_of_ten_wins_and_a_wide_gap_is_a_gain(self):
        base = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        head = [50] * 9 + [200]
        s = summarize(base, head, "lower", 0.25)
        self.assertTrue(s["gain"])

    def test_worse_than_bound(self):
        s = summarize([100, 100], [124, 124], "lower", 0.25)
        self.assertFalse(s["worse_than_bound"])
        s = summarize([100, 100], [126, 126], "lower", 0.25)
        self.assertTrue(s["worse_than_bound"])
        s = summarize([100, 100], [70, 70], "higher", 0.25)
        self.assertTrue(s["worse_than_bound"])

    def test_unsound_runs_report_no_gain(self):
        base = [200] * 10
        head = [127] * 10
        self.assertTrue(summarize(base, head, "lower", 0.2)["gain"])
        s = summarize(base, head, "lower", 0.2, sound=False)
        self.assertEqual(s["wins"], 10)
        self.assertFalse(s["gain"], "numbers from failing runs are no gain")

    def test_problems_name_incorrect_runs_failures_and_digests(self):
        def side(correct=True, failed=0, digest="d", exit=0):
            return {"exit": exit, "correct": correct, "failed": failed, "digest": digest}

        good = [{"seed": i, "base": side(), "head": side()} for i in (1, 2)]
        self.assertEqual(problems(good), [])
        runs = [
            {"seed": 1, "base": side(), "head": side(correct=False)},
            {"seed": 2, "base": side(exit=1), "head": side()},
        ]
        self.assertEqual(problems(runs), ["seed 1 head incorrect", "seed 2 base incorrect"])
        runs = [{"seed": 1, "base": side(failed=1), "head": side(failed=2)}]
        self.assertEqual(problems(runs), ["head failed 2 operations, base 1"])
        runs = [{"seed": 1, "base": side(failed=2), "head": side(failed=1)}]
        self.assertEqual(problems(runs), [], "fewer failures at the change are fine")
        runs = [{"seed": 3, "base": side(), "head": side(digest="e")}]
        self.assertEqual(problems(runs), ["seed 3 digests differ"])

    def test_mismatched_sides_are_an_error(self):
        with self.assertRaises(ValueError):
            summarize([1, 2], [1], "lower", 0.25)
        with self.assertRaises(ValueError):
            summarize([], [], "lower", 0.25)


def record(workload, base, head, **medians):
    """A history record whose summary holds `metric=(base, head)` medians."""
    summary = {
        name: {"base_median": b, "head_median": h} for name, (b, h) in medians.items()
    }
    summary["problems"] = []
    return {"workload": workload, "base": base, "head": head, "summary": summary}


class Trajectory(unittest.TestCase):
    def test_ratios_multiply_along_each_workloads_chain(self):
        records = [
            record("w", "a", "b", rss=(200, 100), wall_s=(10, 12)),
            record("v", "a", "b", rss=(50, 50)),
            record("w", "c", "d", rss=(100, 75), wall_s=(12, 6), cpu_s=(4, 2)),
        ]
        links = []
        chains = trajectory(records, link=lambda head, base: links.append((head, base)))
        self.assertEqual(links, [("b", "c")], "only consecutive records of one workload link")
        [(_, first), (_, second)] = chains["w"]
        self.assertEqual(first, {"rss": 0.5, "wall_s": 1.2})
        self.assertAlmostEqual(second["rss"], 0.375)
        self.assertAlmostEqual(second["wall_s"], 0.6)
        self.assertEqual(second["cpu_s"], 0.5, "a metric recorded later starts there")
        self.assertEqual(chains["v"][0][1], {"rss": 1.0})

    def test_a_record_that_does_not_continue_is_refused(self):
        records = [record("w", "a", "b", rss=(2, 1)), record("w", "c", "d", rss=(2, 1))]
        with self.assertRaisesRegex(ValueError, "w: code changed"):
            trajectory(records, link=lambda head, base: "code changed")

    def test_gaps_pass_only_through_record_only_commits(self):
        with tempfile.TemporaryDirectory() as repo:
            env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                       GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")

            def commit(path, text):
                os.makedirs(os.path.dirname(os.path.join(repo, path)), exist_ok=True)
                with open(os.path.join(repo, path), "a") as f:
                    f.write(text)
                for cmd in (["add", "-A"], ["commit", "-qm", path]):
                    subprocess.run(["git", *cmd], cwd=repo, env=env, check=True)
                return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, env=env,
                                      check=True, capture_output=True, text=True).stdout.strip()

            subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
            code = commit("src/lib.rs", "fn a() {}\n")
            records = commit("BENCH_history.jsonl", "{}\n")
            prose = commit("docs/NOTES.md", "notes\n")
            later = commit("src/lib.rs", "fn b() {}\n")
            self.assertIsNone(gap(code, code, cwd=repo))
            self.assertIsNone(gap(code, prose, cwd=repo), "records and prose only")
            self.assertIn("code changed", gap(code, later, cwd=repo))
            self.assertIn("src/lib.rs", gap(records, later, cwd=repo))
            self.assertIn("does not descend", gap(prose, code, cwd=repo))
            self.assertIn("does not descend", gap(code, "0" * 40, cwd=repo))


if __name__ == "__main__":
    unittest.main()
