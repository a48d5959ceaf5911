"""Phase times and work counters of build_uce on growing sl members, in process.

    python3 tools/scale.py

The paper's application is a limit over growing members, so the size
that matters is the largest member a user can afford.  For each of
sl(7;Q[t]/(t^2)) (d = 96), sl(11;Q[t]/(t^2)) (d = 240) and sl(18;Q)
(d = 323) it prints the best of REPEAT (5) runs of each phase:

    family        build_family, gl and the sl cells
    torus         algebra._torus on the family algebra
    presentation  uce._weight_presentation
    build_uce     the whole build (its torus already found)
    certificate   the row and lift checks of build_uce
                  (uce._certify_presentation), again on the built
                  extension
    table         the first access of ext.lie, which builds the
                  extension table
    whole         family + torus + build_uce

and the same for `limit-check --chain sl:2..14:Q` run through the
command line in process.  Each block also prints the calibration time,
the median seconds of perfbench/run.py's calibrate(), a fixed Fraction
loop run beside each repetition, which shows the host's speed, and
deterministic counters from one further, separate run with wrapped
package functions:
the pairs i <= j whose cell each derived Lie table computed, by the
function that built it (lie_from_assoc for gl, subalgebra_from_vectors
for sl, UceAlgebra.lie for the extension, whose table the counted run
builds); the pairs check_morphism compared; the torus systems _torus
solved; and the RREF rows the presentation stores.  It takes no
arguments, needs nothing outside the standard library and runs the
package found on sys.path, after <checkout>/src; point PYTHONPATH at
another tree's src to measure it.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/run.py imports its sibling modules by name
sys.path += [str(ROOT / "src"), str(ROOT / "perfbench")]

from superuce import algebra, build_family, build_uce, coefficient_algebra, uce  # noqa: E402
from superuce.cli import run  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)

SIZES = [(7, "Q[t]/(t^2)"), (11, "Q[t]/(t^2)"), (18, "Q")]
CHAIN = ["limit-check", "--chain", "sl:2..14:Q"]
REPEAT = 5


def member_phases(m: int, coeff: str) -> dict:
    """Seconds of each phase of one fresh build of sl(m;coeff)."""
    A = coefficient_algebra(coeff)
    t0 = time.perf_counter()
    L = build_family("sl", m, 0, A).algebra
    t1 = time.perf_counter()
    _, weights = algebra._torus(L)
    t2 = time.perf_counter()
    uce._weight_presentation(L, weights)
    t3 = time.perf_counter()
    ext = build_uce(L)
    t4 = time.perf_counter()
    uce._certify_presentation(L, ext.presentation, ext.u)
    t5 = time.perf_counter()
    ext.lie
    t6 = time.perf_counter()
    return {"family": t1 - t0, "torus": t2 - t1, "presentation": t3 - t2,
            "build_uce": t4 - t3, "certificate": t5 - t4, "table": t6 - t5,
            "whole": (t2 - t0) + (t4 - t3)}


def chain_phases() -> dict:
    t0 = time.perf_counter()
    report, code = run(CHAIN)
    if code != 0:
        sys.exit(f"{' '.join(CHAIN)} exited {code}")
    return {"whole": time.perf_counter() - t0}


def counters(job) -> tuple:
    """(work counters, value) of one run of job(), a callable, with
    package functions wrapped for the run only; the counts are
    deterministic.  Tests count through it too."""
    counts: dict = {}

    def bump(key, n=1):
        counts[key] = counts.get(key, 0) + n

    def caller():
        code = sys._getframe(2).f_code
        return "UceAlgebra.lie" if code is uce.UceAlgebra.lie.fget.__code__ else code.co_name

    lie_from_pairs = algebra._lie_from_pairs

    def counted_pairs(basis, cell, *rest):
        key = f"pairs visited by {caller()}"

        def counted_cell(i, j):
            bump(key)
            return cell(i, j)

        return lie_from_pairs(basis, counted_cell, *rest)

    bilinear, kernel_basis = algebra._bilinear, algebra.kernel_basis

    def counted_bilinear(table, u, v):
        if caller() == "check_morphism":
            bump("pairs compared by check_morphism")
        return bilinear(table, u, v)

    def counted_kernel(matrix):
        if caller() == "_torus":
            bump("torus systems solved")
        return kernel_basis(matrix)

    patches = [(algebra, "_lie_from_pairs", counted_pairs), (uce, "_lie_from_pairs", counted_pairs),
               (algebra, "_bilinear", counted_bilinear), (algebra, "kernel_basis", counted_kernel)]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        value = job()
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return dict(sorted(counts.items())), value


def member_job(m: int, coeff: str):
    """A job building sl(m;coeff), its extension and the extension's
    table; its value is the number of RREF rows the presentation stores."""
    def job():
        L = build_family("sl", m, 0, coefficient_algebra(coeff)).algebra
        ext = build_uce(L)
        ext.lie
        return len(ext.presentation.relations)
    return job


def chain_job():
    run(CHAIN)


def best_of(phases) -> tuple:
    """(best seconds of each phase, median calibration seconds) over REPEAT runs."""
    runs, calibration = [], []
    for _ in range(REPEAT):
        calibration.append(perfbench_run.calibrate())
        runs.append(phases())
    return {k: min(r[k] for r in runs) for k in runs[0]}, statistics.median(calibration)


def report(title: str, phases, job) -> None:
    best, calibration = best_of(phases)
    print(f"{title}  (best of {REPEAT}; calibration {1000 * calibration:.1f} ms)")
    for name, seconds in best.items():
        print(f"  {name:14s} {1000 * seconds:9.1f} ms")
    counts, stored = counters(job)
    if stored is not None:
        counts["stored RREF rows"] = stored
    for name, n in counts.items():
        print(f"  {name:40s} {n:9d}")


def main() -> int:
    for m, coeff in SIZES:
        report(f"sl({m};{coeff})", lambda: member_phases(m, coeff), member_job(m, coeff))
    report(" ".join(CHAIN), chain_phases, chain_job)
    return 0


if __name__ == "__main__":
    sys.exit(main())
