"""Run a fixed list of command-line invocations on two source trees and
report every one whose output differs.

    python tools/same_output.py PARENT_TREE [CHANGE_TREE]

CHANGE_TREE defaults to this checkout, and each tree must hold
src/superuce.  Each invocation runs as `python -m superuce.cli ...` with
PYTHONPATH=<tree>/src.  Stdout (JSON without its "timing" block, text
without its "elapsed:" line), stderr and the exit code must agree.  The
script exits 1 on any difference.  -h or --help prints the usage line;
any other option, a wrong number of trees or a tree without
src/superuce prints it to stderr and exits 2.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: python tools/same_output.py PARENT_TREE [CHANGE_TREE]"
INPUTS = ROOT / "perfbench" / "inputs"
BROKEN_JACOBI = {
    "kind": "lie",
    "basis": [{"name": x, "parity": "even"} for x in "xyz"],
    "products": [{"left": left, "right": right, "result": [{"basis": b, "num": num, "den": den}]}
                 for left, right, b, num, den in [("x", "y", "z", "1", "1"), ("y", "x", "z", "-1", "1"),
                                                  ("x", "z", "x", "1", "2"), ("z", "x", "x", "-1", "2")]],
}
# graded by h with weights a, b: 1, c: 2, e: 3, f: 4, so validation sums only the
# classes of a weight a cell reaches; only Jacobi fails, at (a,b,c) of weight 4:
# [a,[b,c]] = [a,e] = f
GRADED_JACOBI = {
    "kind": "lie",
    "basis": [{"name": x, "parity": "even"} for x in "habcef"],
    "products": [{"left": left, "right": right, "result": [{"basis": b, "num": num, "den": "1"}]}
                 for x, y, z, n in [("h", "a", "a", 1), ("h", "b", "b", 1), ("h", "c", "c", 2),
                                    ("h", "e", "e", 3), ("h", "f", "f", 4), ("a", "b", "c", 1),
                                    ("b", "c", "e", 1), ("a", "e", "f", 1)]
                 for left, right, b, num in [(x, y, z, str(n)), (y, x, z, str(-n))]],
}
# one mis-graded cell: [y,y] = y for odd y, skew-symmetric as an odd diagonal must be
MISGRADED = {
    "kind": "lie",
    "basis": [{"name": "x", "parity": "even"}, {"name": "y", "parity": "odd"}],
    "products": [{"left": "y", "right": "y", "result": [{"basis": "y", "num": "1", "den": "1"}]}],
}
# one off-diagonal pair that is not skew: [h,e] = e with [e,h] = 0
NOT_SKEW = {
    "kind": "lie",
    "basis": [{"name": "h", "parity": "even"}, {"name": "e", "parity": "even"}],
    "products": [{"left": "h", "right": "e", "result": [{"basis": "e", "num": "1", "den": "1"}]}],
}
# the dual numbers Q[t]/(t^2), and an associative document that fails both
# associativity, (aa)a = ba = 0 but a(aa) = ab = a, and the unit law, b1 = 0
DUAL_NUMBERS = {
    "kind": "assoc",
    "basis": [{"name": x, "parity": "even"} for x in ("1", "t")],
    "products": [{"left": left, "right": right, "result": [{"basis": b, "num": "1", "den": "1"}]}
                 for left, right, b in [("1", "1", "1"), ("1", "t", "t"), ("t", "1", "t")]],
    "unit": [{"basis": "1", "num": "1", "den": "1"}],
}
BROKEN_ASSOC = {
    "kind": "assoc",
    "basis": [{"name": x, "parity": "even"} for x in ("1", "a", "b")],
    "products": [{"left": left, "right": right, "result": [{"basis": b, "num": "1", "den": "1"}]}
                 for left, right, b in [("1", "1", "1"), ("1", "a", "a"), ("a", "1", "a"),
                                        ("1", "b", "b"), ("a", "a", "b"), ("a", "b", "a")]],
    "unit": [{"basis": "1", "num": "1", "den": "1"}],
}
# --system documents: a three-member chain whose middle kernel dies, a vee
# 0, 1 <= 2, a diamond 0 <= 1, 2 <= 3 whose two cover paths join at 3, a chain
# from an absent relation, and gl members that are not perfect
CHAIN3 = {"kind": "sl", "coeff": "Q", "members": [[1, 2], [2, 2], [3, 2]],
          "relation": [[0, 1], [1, 2], [0, 2]]}
VEE = {"kind": "sl", "coeff": "Q[t]/(t^2)", "members": [[2, 0], [2, 1], [3, 1]],
       "relation": [[0, 2], [1, 2]]}
NO_RELATION = {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0]]}
DIAMOND = {"kind": "sl", "coeff": "Q", "members": [[2, 0], [3, 0], [3, 0], [4, 0]],
           "relation": [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]]}
GL_SYSTEM = {"kind": "gl", "coeff": "Q", "members": [[2, 0], [3, 0]]}
# each placeholder in an invocation stands for the path of a file holding its document
DOCUMENTS = {"{broken}": BROKEN_JACOBI, "{graded-jacobi}": GRADED_JACOBI,
             "{misgraded}": MISGRADED, "{not-skew}": NOT_SKEW,
             "{dual-numbers}": DUAL_NUMBERS, "{broken-assoc}": BROKEN_ASSOC,
             "{chain3}": CHAIN3, "{vee}": VEE, "{diamond}": DIAMOND,
             "{no-relation}": NO_RELATION, "{gl-system}": GL_SYSTEM}
SL21_G1 = ["--family", "sl", "--m", "2", "--n", "1", "--coeff", "Grassmann(1)"]
CHAINS = [["--chain", "sl:2..4:Q"], ["--chain", "sl:4..7:Q"], ["--chain", "sl:2,1..3,2:Grassmann(1)"],
          ["--chain", "sl:1,2..3,2:Q"], ["--chain", "sl:3..2:Q"],
          ["--chain", "sl:2..3:Q", "--family", "gl"]]
DOCS = ("osp3_4_Q", "osp3_2_G1", "p4", "p5", "sq4c", "sq5c")

INVOCATIONS = [
    # the golden reports of tests/test_cli_golden.py
    ["validate", *SL21_G1],
    ["validate", "--file", "{broken}"],
    ["uce", "--family", "sl", "--m", "3", "--coeff", "Q[t]/(t^2)"],
    ["uce", *SL21_G1, "--table"],
    ["h2", *SL21_G1],
    ["hc1", "--coeff", "Grassmann(2)"],
    ["centre", "--family", "gl", "--m", "2", "--n", "1"],
    ["perfect", "--family", "osp", "--m", "1", "--n", "2"],
    ["construct", "--family", "sq", "--m", "2", "--n", "2"],
    ["cocycle-check", *SL21_G1],
    ["steinberg-check", "--family", "sl", "--m", "3", "--coeff", "Q[t]/(t^2)", "--seed", "3"],
    ["h-iso-check", "--family", "sl", "--m", "4", "--n", "1"],
    ["limit-check", "--chain", "sl:2..4:Q"],
    # the command-line jobs of perfbench/workloads.py
    ["h2", "--family", "sl", "--m", "7", "--coeff", "Q[t]/(t^2)"],
    ["h-iso-check", "--family", "sl", "--m", "3", "--n", "2", "--coeff", "Grassmann(1)"],
    ["steinberg-check", "--family", "sl", "--m", "5", "--coeff", "Q[x,y]/(x,y)^2", "--seed", "7"],
    ["limit-check", "--chain", "sl:2,1..3,2:Grassmann(1)"],
    ["limit-check", "--chain", "sl:4..7:Q"],
    # every family kind
    ["construct", "--family", "gl", "--m", "2", "--n", "1", "--coeff", "Grassmann(1)"],
    ["construct", "--family", "sl", "--m", "3", "--n", "2", "--coeff", "Grassmann(2)"],
    ["construct", "--family", "sl", "--m", "2", "--n", "1", "--coeff", "Mat(2,0;Q)"],
    ["construct", "--family", "osp", "--m", "3", "--n", "2", "--coeff", "Grassmann(1)"],
    ["construct", "--family", "osp", "--m", "1", "--n", "4", "--coeff", "Q[t]/(t^2)"],
    ["construct", "--family", "p", "--m", "3", "--n", "3"],
    ["construct", "--family", "sq", "--m", "3", "--n", "3"],
    # the documents of the file_oracle workload, the sl checks in text, exit 1
    *[[cmd, "--file", str(INPUTS / f"{doc}.json")] for cmd in ("validate", "h2") for doc in DOCS],
    ["cocycle-check", "--family", "sl", "--m", "4", "--n", "2", "--coeff", "Grassmann(2)"],
    ["steinberg-check", "--family", "sl", "--m", "3", "--n", "1", "--format", "text"],
    ["h-iso-check", "--family", "sl", "--m", "4", "--n", "1", "--format", "text"],
    ["perfect", "--family", "gl", "--m", "2"],
    # the edge members of the families' diagonal torus: rank 0, supertrace-0
    # identities (m = n) and a coefficient algebra with a torus of its own
    *[["h2", "--family", "sl", "--m", m, "--n", n, "--coeff", coeff]
      for m, n, coeff in [("1", "0", "Q"), ("1", "1", "Q"), ("2", "2", "Q"), ("2", "0", "Mat(2,0;Q)")]],
    ["uce", "--family", "gl", "--m", "2", "--n", "1", "--coeff", "Grassmann(1)"],
    ["limit-check", "--chain", "sl:2..3:Mat(2,0;Q)"],
    # limit-check chains with exit codes 0 and 2: every chain in text, the
    # ones not listed above in JSON
    *[["limit-check", *chain, "--format", "text"] for chain in CHAINS],
    *[["limit-check", *chain] for chain in CHAINS[3:]],
    # broken documents that fail grading or skew-symmetry, or only Jacobi on the
    # weight-filtered walk, in JSON and text
    *[["validate", "--file", doc, *fmt] for doc in ("{graded-jacobi}", "{misgraded}", "{not-skew}")
      for fmt in ([], ["--format", "text"])],
    # associative documents, valid and failing associativity and the unit law, and
    # a broken document that another command refuses as it parses it (exit 1)
    *[[*argv, *fmt] for argv in (["validate", "--file", "{dual-numbers}"],
                                 ["validate", "--file", "{broken-assoc}"],
                                 ["h2", "--file", "{broken}"])
      for fmt in ([], ["--format", "text"])],
    # system files with exit codes 0 and 2, in JSON and text
    *[["limit-check", "--system", doc, *fmt]
      for doc in ("{chain3}", "{vee}", "{diamond}", "{no-relation}", "{gl-system}")
      for fmt in ([], ["--format", "text"])],
]


def comparable(stdout: str) -> str:
    if stdout.startswith("{"):
        report = json.loads(stdout)
        report.pop("timing", None)
        return json.dumps(report, indent=2)
    return "".join(line for line in stdout.splitlines(True) if not line.startswith("elapsed:"))


def outcome(tree: Path, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "superuce.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=tree)
    return comparable(proc.stdout), proc.stderr, proc.returncode


def main(argv) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    trees = [Path(a).resolve() for a in argv]
    if len(trees) == 1:
        trees.append(ROOT)
    if (len(trees) != 2 or any(a.startswith("-") for a in argv)
            or not all((tree / "src" / "superuce").is_dir() for tree in trees)):
        print(USAGE, file=sys.stderr)
        return 2
    parent, change = trees
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in DOCUMENTS.items():
            paths[name] = Path(tmp) / f"{name.strip('{}')}.json"
            paths[name].write_text(json.dumps(doc))
        for args in INVOCATIONS:
            args = [str(paths.get(tok, tok)) for tok in args]
            before, after = outcome(parent, args), outcome(change, args)
            same = before == after
            differ += not same
            print(f"{'same' if same else 'DIFFERS'} (exit {after[2]}): {' '.join(args)}")
    print(f"{len(INVOCATIONS) - differ} of {len(INVOCATIONS)} invocations agree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
