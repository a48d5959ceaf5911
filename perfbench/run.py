"""The superuce benchmark.

    python3 perfbench/run.py --workload sl_family --seed 1 --seconds 44 --trace 0

Load model: a closed loop with one client.  Each pass runs every job of
the workload back to back in one fresh child interpreter (a CLI user
pays cold module caches on every invocation), and passes follow each
other until the next one would overrun --seconds.  One child runs at a
time and nothing starts threads.

--trace 0 prints the end-to-end metrics, measured on untraced passes.
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see tracer.py).  Either way every
job's results are checked against frozen values, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details of the run, with the machine record, are written under
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # every run must end within 180 s, whatever --seconds says

IMPORT_PROBE = ("import time; t = time.perf_counter(); import superuce, superuce.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    # a fixed hash seed keeps set iteration, and so the traced counters,
    # identical between runs
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def measure_setup(env) -> list:
    """Seconds to import the program in a fresh interpreter, one per sample.

    A first, unrecorded import writes the bytecode caches.
    """
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            sys.exit(f"cannot import superuce from {SRC}:\n{proc.stderr}")
        if k:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def calibrate() -> float:
    """Seconds of a fixed Fraction loop: the host's speed beside each pass."""
    started = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 20001):
        acc += Fraction(1, k * (k + 1))  # telescopes, so the numbers stay small
    return time.perf_counter() - started


def run_pass(jobs, traced, spans_path, env, timeout) -> dict:
    spec = json.dumps({"jobs": jobs, "trace": traced, "spans_path": str(spans_path)})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=spec,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"pass timed out after {timeout:.0f} s"}
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"traced": traced, "error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    # writing the spans out is not part of the traced pass
    out.update(traced=traced, wall_s=wall - out.get("dump_s", 0.0), cpu_s=cpu)
    return out


def end_to_end(workload, passes, setup) -> dict:
    plain = [p for p in passes if "jobs" in p and not p["traced"]]
    largest = workloads.LARGEST[workload]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
        "largest_job_s": (statistics.median(j["seconds"] for p in plain for j in p["jobs"]
                                            if j["id"] == largest), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in plain), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if "jobs" in p and p["traced"]]
    plain = [p for p in passes if "jobs" in p and not p["traced"]]
    med = statistics.median
    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = (med(p["self_s"].get(layer, 0.0) for p in traced), "s")
    for key in sorted(set(tracer.TIMERS.values())):
        out[key] = (med(p["timers"].get(key, 0.0) for p in traced), "s")
    counters = traced[0]["counters"]
    for key in tracer.COUNTERS:
        out[key] = (counters.get(key, 0), "bytes" if key == "cli.report_bytes" else "count")
    rows = counters.get("linalg.rows_in", 0)
    out["linalg.useful_row_ratio"] = (counters.get("linalg.rank_out", 0) / rows if rows else 0.0,
                                      "ratio")
    wall = med(p["wall_s"] for p in traced)
    layers = med(sum(p["self_s"].get(layer, 0.0) for layer in tracer.LAYERS) for p in traced)
    count = med(p["count_s"] for p in traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - med(p["wall_s"] for p in plain), "s")
    out["trace.count_s"] = (count, "s")
    out["trace.other_s"] = (wall - layers - count, "s")
    out["trace.coverage_ratio"] = (layers / wall, "s/s")
    out["trace.spans"] = (traced[0]["spans"], "count")
    return out


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superuce" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'superuce'})", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    jobs = workloads.jobs(args.workload, args.seed, workdir)
    record["job_order"] = [j["id"] for j in jobs]
    setup = measure_setup(env) if not args.trace else []

    deadline = started + args.seconds
    passes, calibration, longest = [], [], {False: 0.0, True: 0.0}
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        calibration.append(calibrate())
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, traced, workdir / "spans.json", env, timeout))
        longest[traced] = max(longest[traced], time.perf_counter() - t0)
        if "error" in passes[-1]:
            break
        kinds = {p["traced"] for p in passes}
        if args.trace and kinds != {False, True}:
            continue
        following = bool(args.trace) and len(passes) % 2 == 1
        if time.perf_counter() + longest[following] > deadline:
            break

    attempted = failed = 0
    changed = set()
    expected = {j["id"]: j["digest"] for j in jobs}
    for p in passes:
        attempted += len(jobs)
        if "error" in p:
            failed += len(jobs)
            print(f"pass failed: {p['error']}", file=sys.stderr)
            continue
        for j in p["jobs"]:
            if "error" in j or j["mismatch"]:
                failed += 1
                print(f"job {j['id']} failed: {j.get('error') or j['mismatch']}", file=sys.stderr)
            elif j["digest"] != expected[j["id"]]:
                changed.add(j["id"])
    correct = failed == 0
    measured = {p["traced"] for p in passes if "error" not in p}
    if args.trace and measured == {False, True}:
        metrics = per_layer(passes)
    elif not args.trace and measured:
        metrics = end_to_end(args.workload, passes, setup)
    else:
        metrics = {}

    record.update(passes=passes, calibration_s=calibration, setup_samples_s=setup,
                  attempted=attempted, failed=failed, digest_changed=sorted(changed),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_ratio':32s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for job_id in sorted(changed):
        print(f"results digest changed: {job_id}")
    print(json.dumps({"machine": record["machine"], "passes": len(passes),
                      "calibration_s": statistics.median(calibration)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
