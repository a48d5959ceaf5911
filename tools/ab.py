"""Interleaved A/B runs of the benchmark on two source trees.

    python3 tools/ab.py PARENT CHANGE --workload W --pairs N --seconds S --seed K
                        [--claim METRIC]

Each pair runs `perfbench/run.py --trace 0` once in each tree, with the
same workload, seed and run length; the side that runs first alternates
from pair to pair (the parent first in pair 1), so a slow spell of the
host falls on both.  Every run starts cold: the tree's
src/**/__pycache__ is removed before it, and it runs with
PYTHONDONTWRITEBYTECODE=1.  Each run's line gives its median
calibration time, the seconds of a fixed Fraction loop beside each pass,
which shows the host's speed.

For every end-to-end metric of BENCHMARK.json it prints the median and
quartiles of each side, the pairs the change won (a tie counts for
neither), the parent's interquartile range (IQR) and a two-sided sign
test p-value.  With --claim METRIC it prints a verdict on that metric:
"met" when the change wins at least 9 of every 10 pairs and its median
is better than the parent's by more than the parent's IQR, "not met"
when it wins no more pairs than it loses, "unresolved" otherwise.

It exits 1 when a run is not correct or changes a results digest.  It
needs nothing outside the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions() -> dict:
    """metric -> "lower" or "higher", the better side, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One cold untraced run in tree: its metrics, correctness and calibration."""
    for cache in sorted((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = tree / ".bench_build" / "perfbench" / workload / "result-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    return {"metrics": {k: v["value"] for k, v in record["metrics"].items()},
            "ok": record["failed"] == 0 and not record["digest_changed"],
            "calibration_s": statistics.median(record["calibration_s"])}


def quartiles(xs) -> tuple:
    """(first quartile, median, third quartile) of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign test p-value of wins against losses, ties dropped."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def compare(parent: list, change: list, better: str) -> dict:
    """The summary of one metric over pairs (parent[i], change[i])."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    return {"parent": pq, "change": cq, "wins": wins, "losses": losses, "pairs": len(parent),
            "parent_iqr": pq[2] - pq[0], "gain": sign * (pq[1] - cq[1]),
            "p_value": sign_test(wins, losses)}


def verdict(summary: dict) -> str:
    """met, not met or unresolved for a claimed gain on one metric."""
    if 10 * summary["wins"] >= 9 * summary["pairs"] and summary["gain"] > summary["parent_iqr"]:
        return "met"
    if summary["wins"] <= summary["losses"]:
        return "not met"
    return "unresolved"


def _three(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    better = directions()
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim must be one of {', '.join(better)}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {"parent": [], "change": []}
    ok = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(trees[side], args.workload, args.seed, args.seconds)
            runs[side].append(r)
            ok &= r["ok"]
        line = "  ".join(f"{side} {runs[side][-1]['metrics'].get(args.claim or 'largest_job_s', 0):.4f}"
                         f" (cal {runs[side][-1]['calibration_s'] * 1000:.0f} ms)"
                         for side in order)
        print(f"pair {k + 1:2d}, {order[0]} first: {line}", flush=True)
    print(f"{'metric':14s} {'parent q1/med/q3':>28s} {'change q1/med/q3':>28s} "
          f"{'won':>7s} {'parent IQR':>10s} {'p':>6s}")
    summaries = {}
    for name in better:
        s = summaries[name] = compare([r["metrics"][name] for r in runs["parent"]],
                                      [r["metrics"][name] for r in runs["change"]], better[name])
        print(f"{name:14s} {_three(s['parent']):>28s} {_three(s['change']):>28s} "
              f"{s['wins']:>3d}/{s['pairs']:<3d} {s['parent_iqr']:>10.4g} {s['p_value']:>6.3f}")
    if args.claim is not None:
        print(f"claim {args.claim}: {verdict(summaries[args.claim])}")
    if not ok:
        print("a run was not correct or changed a results digest", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
