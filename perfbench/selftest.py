"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes two traced runs with one
seed and checks that both are correct and that every counter repeats
exactly.  It also checks that the benchmark fails, without printing a
result, in a directory that holds only the benchmark's own files.
Takes about two minutes for all three workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = {"count", "bytes", "ratio"}


def run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def counters(proc: subprocess.CompletedProcess, workload: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: incorrect results\n{proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def check_counters_repeat(workload: str, seed: int = 7) -> None:
    first = counters(run(ROOT, workload, seed, 1), workload)
    second = counters(run(ROOT, workload, seed, 1), workload)
    differ = sorted(k for k in first if first[k] != second.get(k))
    if differ or not first:
        raise SystemExit(f"{workload}: counters differ between runs: {differ}")
    print(f"{workload}: {len(first)} counters repeat exactly")


def check_fails_without_program() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, workloads.WORKLOADS[0], 1, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("the benchmark did not fail in a directory without the program")
    print("without the program: fails with exit code", proc.returncode)


def main(argv) -> None:
    for workload in argv or workloads.WORKLOADS:
        check_counters_repeat(workload)
    check_fails_without_program()


if __name__ == "__main__":
    main(sys.argv[1:])
