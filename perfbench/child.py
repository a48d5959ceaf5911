"""One pass of a workload in a fresh interpreter.

Reads a pass specification as JSON on stdin (``jobs``, ``trace``,
``spans_path``), runs the jobs back to back and prints one JSON line:
per-job outcome and time, the process's peak RSS and, when traced,
self times, timers and counters.  The program is imported before the
first job, so the pass pays the cold module caches a CLI user pays.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback

import superuce
from superuce import cli

from tracer import Tracer


def run_cli(job) -> dict:
    report, code = cli.run(job["argv"])
    cli.emit_report(report, "json", io.StringIO())
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return report["results"]


def run_oracle(job) -> dict:
    with open(job["path"], encoding="utf-8") as fh:
        data = json.load(fh)
    alg = cli.parse_algebra(data)
    results = {
        "dim_input": alg.dim,
        "perfect": superuce.is_perfect(alg),
        "dim_h2": superuce.h2(alg).dim,
        "oracle_h2": superuce.h2_cohomology_oracle(alg),
    }
    cli.emit_report({"command": "file-oracle", "results": results}, "json", io.StringIO())
    return results


RUNNERS = {"cli": run_cli, "oracle": run_oracle}


def check(job, results) -> list:
    """Fields of the results that disagree with the frozen expectations."""
    return [f"{key}: expected {want!r}, got {results.get(key)!r}"
            for key, want in job["expect"].items() if results.get(key) != want]


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    out_jobs = []
    for job in spec["jobs"]:
        runner = RUNNERS[job["kind"]]
        record = {"id": job["id"]}
        started = time.perf_counter()
        try:
            if tracer is None:
                results = runner(job)
            else:
                results = tracer.run_job(job["id"], lambda: runner(job))
        except Exception:
            record["error"] = traceback.format_exc(limit=3)
        else:
            record["mismatch"] = check(job, results)
            record["digest"] = hashlib.sha256(
                json.dumps(results, indent=2).encode()).hexdigest()
        record["seconds"] = time.perf_counter() - started
        out_jobs.append(record)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"jobs": out_jobs, "peak_rss_mib": usage.ru_maxrss / 1024}
    if tracer is not None:
        started = time.perf_counter()
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.span_records()}, fh)
        out.update(self_s=dict(tracer.self_s), timers=dict(tracer.timers),
                   counters=tracer.totals(), job_counters=tracer.job_counters,
                   count_s=tracer.count_s,
                   spans=len(tracer.spans), dump_s=time.perf_counter() - started)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
