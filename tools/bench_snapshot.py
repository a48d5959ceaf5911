"""Write one BENCH_<n>.json: a committed snapshot of the benchmark.

    python3 tools/bench_snapshot.py --out BENCH_8.json
    python3 tools/bench_snapshot.py --tree ../parent --out BENCH_7.json

For every workload of perfbench/ it runs, in the checkout given by
--tree (default: the one holding this script), UNTRACED_RUNS untraced
runs (--trace 0) and one traced run (--trace 1), each with the fixed
SEED and SECONDS, so that any two snapshots compare runs of the same
length.  The untraced runs go round the workloads in turn, so that a
slow spell of the host falls on all of them; the traced runs follow.
From each run's record,
.bench_build/perfbench/<workload>/result-trace<0|1>.json, it keeps the
machine block, the metrics, the per-pass calibration times, the pass
times and the job and failure counts.  Per workload, "trace0" holds the
untraced runs and the median of each end-to-end metric over them, which
is the figure to compare between snapshots; one run alone moves with
the host by about as much as a small change does.  "trace1" holds the
traced run, whose counters repeat exactly.

Every run starts from a fresh checkout's state: the measured tree's
src/**/__pycache__ is removed before it, and it runs with
PYTHONDONTWRITEBYTECODE=1, so the package is compiled on each import
and setup_s is the import a user of a fresh checkout pays.  The
snapshot records this under "bytecode".

The snapshot names the commit of the checkout, whether its working tree
differed from it, and the git tree ids of the measured src/ and
perfbench/ as they are in the working tree.  A snapshot written before
its change is committed is thus traced to the commit that holds the
same code: `git rev-parse <commit>:src` prints the same id.

It only reads perfbench/ and runs it as a user would; it needs nothing
outside the standard library.  Runs are sequential, one child at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("sl_family", "chain_limit", "file_oracle")
SEED = 11
SECONDS = 44.0
UNTRACED_RUNS = 3
MEASURED = ("src", "perfbench")
BYTECODE = {"src_pycache": "removed before each run", "PYTHONDONTWRITEBYTECODE": "1"}


def _git(tree: Path, *args, env=None) -> str:
    proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def source_trees(tree: Path) -> dict:
    """The git tree id of each MEASURED directory as the working tree has it.

    Stages the working tree into a throwaway index (the real index and
    HEAD are untouched) and writes each directory's tree object.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git(tree, "read-tree", "HEAD", env=env)
        _git(tree, "add", "--all", "--", *MEASURED, env=env)
        return {name: _git(tree, "write-tree", f"--prefix={name}/", env=env)
                for name in MEASURED}


def run(tree: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    for cache in sorted((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE=BYTECODE["PYTHONDONTWRITEBYTECODE"])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = tree / ".bench_build" / "perfbench" / workload / f"result-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    passes = [p for p in record["passes"] if "jobs" in p]
    return {
        "argv": cmd[1:],
        "machine": record["machine"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "digest_changed": record["digest_changed"],
        "metrics": {k: v["value"] for k, v in record["metrics"].items()},
        "calibration_s": record["calibration_s"],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="snapshot file to write")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to benchmark (default: this one)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    snapshot = {
        "commit": _git(tree, "rev-parse", "HEAD"),
        "dirty": bool(_git(tree, "status", "--porcelain", "--untracked-files=no")),
        "source_trees": source_trees(tree),
        "seed": SEED,
        "seconds": SECONDS,
        "bytecode": BYTECODE,
        "workloads": {},
    }
    untraced: dict = {workload: [] for workload in WORKLOADS}
    for k in range(UNTRACED_RUNS):
        for workload in WORKLOADS:
            untraced[workload].append(run(tree, workload, 0))
            print(f"{workload}: untraced run {k + 1} of {UNTRACED_RUNS} done", file=sys.stderr)
    for workload, runs in untraced.items():
        median = {key: statistics.median(r["metrics"][key] for r in runs)
                  for key in runs[0]["metrics"]}
        snapshot["workloads"][workload] = {
            "trace0": {"median": median, "runs": runs},
            "trace1": run(tree, workload, 1),
        }
        print(f"{workload}: traced run done", file=sys.stderr)
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
