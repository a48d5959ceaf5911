"""Regenerate the frozen algebra documents of the file_oracle workload.

    PYTHONPATH=src python3 perfbench/make_inputs.py

The documents are checked in so that the benchmark's inputs do not move
when the program changes; run this only to add or replace a document.
"""

from __future__ import annotations

import json
from pathlib import Path

from superuce import build_family, centre, coefficient_algebra, quotient_by_central
from superuce.cli import algebra_to_json

INPUTS = Path(__file__).resolve().parent / "inputs"

# file name -> (family, m, n, coefficients, divide by the centre)
DOCUMENTS = {
    "osp3_4_Q": ("osp", 3, 4, "Q", False),
    "osp3_2_G1": ("osp", 3, 2, "Grassmann(1)", False),
    "p4": ("p", 4, 4, "Q", False),
    "p5": ("p", 5, 5, "Q", False),
    "sq4c": ("sq", 4, 4, "Q", True),
    "sq5c": ("sq", 5, 5, "Q", True),
}


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    for name, (kind, m, n, coeff, by_centre) in DOCUMENTS.items():
        alg = build_family(kind, m, n, coefficient_algebra(coeff)).algebra
        if by_centre:
            alg, _ = quotient_by_central(alg, centre(alg))
        text = json.dumps(algebra_to_json(alg), separators=(",", ":"))
        (INPUTS / f"{name}.json").write_text(text + "\n")
        print(f"{name}: dim {alg.dim}, {len(text)} bytes")


if __name__ == "__main__":
    main()
