"""Workload definitions: the jobs of one pass, their seeded inputs and
the frozen results every job must reproduce.

A job is a JSON-serialisable dict handed to the child interpreter:

* ``id``      name used in reports;
* ``kind``    ``"cli"`` (``argv`` for ``superuce.cli.run``) or ``"oracle"``
  (``path`` of an algebra document, checked by ``h2`` and the oracle);
* ``expect``  result fields and values the job must produce;
* ``digest``  sha256 of the job's results block on the reference code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

WORKLOADS = ("sl_family", "chain_limit", "file_oracle")

# The job whose time is reported as largest_job_s, per workload.
LARGEST = {"sl_family": "h2-sl7", "chain_limit": "chain-sl4-7", "file_oracle": "sq5c"}

# Results blocks are seed-independent: steinberg-check does not echo
# its --seed in them, and the oracle block holds dimensions only.
_SL_FAMILY = [
    ("h2-sl7", ["h2", "--family", "sl", "--m", "7", "--coeff", "Q[t]/(t^2)"],
     {"dim_input": 96, "perfect": True, "dim_h2": 0},
     "0b5d20ef9439f2cce7beeafb37587cf01fe7b9187c2bfdc6d061e1a5c70708c4"),
    ("h-iso-sl3_2", ["h-iso-check", "--family", "sl", "--m", "3", "--n", "2",
                     "--coeff", "Grassmann(1)"],
     {"dim_uce": 49, "dim_h2": 1, "dim_hc1": 1, "ok": True},
     "1b25e1551dc561888ba2d03c65bfec42859f6360885a3318cbe6d4af17c72f1e"),
    ("steinberg-sl5", ["steinberg-check", "--family", "sl", "--m", "5",
                       "--coeff", "Q[x,y]/(x,y)^2"],
     {"dim_uce": 73, "ok": True},
     "a8b7df1dbca4d16490c119affa11db581b66d44858f40e99521c9cfca2665e49"),
]

_CHAIN_LIMIT = [
    ("chain-sl2_1-3_2", ["limit-check", "--chain", "sl:2,1..3,2:Grassmann(1)"],
     {"dim_colim": 48, "dim_uce_of_colim": 49, "ok": True},
     "7a951c7db66b4da0adc3e587d11be211c8aa779cacc630ec361edca4febe9e4d"),
    ("chain-sl4-7", ["limit-check", "--chain", "sl:4..7:Q"],
     {"dim_colim": 48, "dim_uce_of_colim": 48, "ok": True},
     "1c12ea531b8e6e718ee274c06673ea2a08f392da84f829ac1e19a6e6d7925421"),
]

# document name -> (expected dim of H2, frozen digest)
_FILE_ORACLE = {
    "osp3_4_Q": (0, "a33a481b384b6c04b61d146d8b7ee0651485ba3de32d904f59697d710eac8829"),
    "osp3_2_G1": (1, "5ce890a98bf5a255708e6e1aa67502475d68f9b18885ebba18e692ed90a0b90d"),
    "p4": (1, "0898522455db496b84882bf7b8df7814f736e8abf8247961f808ef203dd722d8"),
    "p5": (0, "5c567e7b6ee0fbb1fda8529624452092fbd72c04d4163647bd85f6c25f162690"),
    "sq4c": (1, "1114ddeb8764f4e8b81bc88c7bfd8a704a0056840262a38447581cebb250fa09"),
    "sq5c": (1, "8b7c418e0c85e12235aae139d58dd2a0eee6a660a68cca840564e45489167224"),
}


def _cli_jobs(table) -> list:
    return [{"id": name, "kind": "cli", "argv": list(argv), "expect": dict(expect),
             "digest": digest}
            for name, argv, expect, digest in table]


def permuted_document(doc: dict, rng: random.Random) -> dict:
    """The same algebra in a shuffled basis order with fresh labels.

    Basis entries are permuted and renamed, products and the terms of
    each product are shuffled.  Every answer the workload checks is a
    dimension, so it is invariant; the elimination order is not, which
    is what the seed varies.
    """
    basis = doc["basis"]
    order = list(range(len(basis)))
    rng.shuffle(order)
    tags = rng.sample(range(10 * len(basis)), len(basis))
    rename = {basis[old]["name"]: f"x{tags[new]}" for new, old in enumerate(order)}

    def term(t):
        return {**t, "basis": rename[t["basis"]]}

    products = []
    for entry in doc["products"]:
        result = [term(t) for t in entry["result"]]
        rng.shuffle(result)
        products.append({"left": rename[entry["left"]], "right": rename[entry["right"]],
                          "result": result})
    rng.shuffle(products)
    out = {
        "kind": doc["kind"],
        "basis": [{"name": rename[basis[old]["name"]], "parity": basis[old]["parity"]}
                  for old in order],
        "products": products,
    }
    if "unit" in doc:
        out["unit"] = [term(t) for t in doc["unit"]]
    return out


def jobs(workload: str, seed: int, workdir: Path) -> list:
    """The jobs of one pass of workload, in the order the seed gives.

    For file_oracle the seeded documents are written under workdir.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sl_family":
        out = _cli_jobs(_SL_FAMILY)
        for job in out:
            if job["argv"][0] == "steinberg-check":
                job["argv"] += ["--seed", str(rng.randrange(1000))]
    elif workload == "chain_limit":
        out = _cli_jobs(_CHAIN_LIMIT)
    elif workload == "file_oracle":
        out = []
        for name, (dim_h2, digest) in _FILE_ORACLE.items():
            doc = json.loads((INPUTS / f"{name}.json").read_text())
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(permuted_document(doc, rng)))
            out.append({"id": name, "kind": "oracle", "path": str(path),
                        "expect": {"perfect": True, "dim_h2": dim_h2, "oracle_h2": dim_h2},
                        "digest": digest})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
