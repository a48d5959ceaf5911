"""One scalar rule, owned by linalg: a rational is an int when integral and
a Fraction only where a denominator exists.

A lint keeps the decision in one module: the package has no `/`
operator (exact division goes through linalg._ratio), and only linalg
imports fractions.  The objects the acceptance criteria build, lifted
maps and colimits included, are walked for floats and integral
Fractions, and the reports of every subcommand for floats (see
scalar_rule.py).

A second lint keeps coordinates with their owner: a tracked elimination
(Echelon(track=True)) is built only by GradedLinearMap, whose preimage()
every other solve goes through, and by the weight-block presentation.
"""

import ast
import random
import warnings
from pathlib import Path

import pytest

import superuce
from superuce import (
    cli,
    coefficient_algebra,
    corner_embedding,
    h2,
    h_iso_check,
    hc1,
    limit_u,
    steinberg_check,
    theorem_verify,
    uce_of_morphism,
)

import test_acceptance as acceptance
from scalar_rule import scalar_faults
from systems_util import random_chain_system, vee_system
from test_cli_golden import BROKEN_JACOBI, GOLDEN

PACKAGE = Path(superuce.__file__).resolve().parent
INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def scalar_lint(path: Path) -> list:
    """file:line of each `/` operator and of each fractions import outside
    linalg.py."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{path.name}:{node.lineno} `/`")
        elif path.name != "linalg.py" and (
                isinstance(node, ast.ImportFrom) and node.module == "fractions"
                or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)):
            found.append(f"{path.name}:{node.lineno} fractions import")
    return found


def test_only_linalg_decides_how_a_rational_is_stored():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in scalar_lint(path)]
    assert not found, f"scalar decisions outside linalg._ratio: {', '.join(found)}"


def test_acceptance_objects_follow_the_scalar_rule():
    # algebras, families, extensions, presentations, kernels: the full rule
    ruled = []
    for name in ("Q", "Q[t]/(t^3)", "Q[x,y]/(x,y)^2", "Grassmann(1)"):
        ruled.append(hc1(coefficient_algebra(name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _, L in acceptance.acceptance_test_matrix():
            ruled += [L, h2(acceptance.extension(L))]
    m, n, name = acceptance.CASES_3[0]
    fam = acceptance.family("sl", m, n, name)
    ruled += [fam, steinberg_check(fam),
              h_iso_check(acceptance.family("sl", 3, 2, "Q[x,y]/(x,y)^2"))]
    faults = scalar_faults(ruled, "ruled")
    assert not faults, faults[:10]

    # lifted maps, colimits and theorem reports: the full rule too
    rng = random.Random(2026)
    small, big = acceptance.family("sl", 3, 0, "Q"), acceptance.family("sl", 4, 0, "Q")
    # the two systems and their maps (the colimit injections too) are the
    # caller's input, built by the test helpers
    systems = [random_chain_system(rng)[0], vee_system(rng)]
    inputs = [*systems, *(f for system in systems for f in system.morphisms.values())]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        computed = [limit_u(system) for system in systems]
    computed += [
        theorem_verify(acceptance.sl_chain_system([(5, 0), (6, 0)], "Q[x,y]/(x,y)^2")),
        uce_of_morphism(corner_embedding(small, big), source=acceptance.extension(small.algebra),
                        target=acceptance.extension(big.algebra)),
    ]
    faults = scalar_faults(computed, "computed", skip=inputs)
    assert not faults, faults[:10]


def tracked_eliminations(path: Path) -> list:
    """The class or function enclosing each Echelon(track=True) call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and owner is None:
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "Echelon"
                    and any(k.arg == "track" for k in child.keywords)):
                found.append(f"{path.name}:{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_only_a_map_and_the_weight_blocks_track_an_elimination():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in tracked_eliminations(path)]
    assert sorted(found) == ["algebra.py:GradedLinearMap", "uce.py:_weight_presentation"], found


@pytest.fixture(scope="module")
def broken_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scalars") / "broken.json"
    path.write_text(BROKEN_JACOBI)
    return str(path)


CLI_RUNS = {name: argv for name, (argv, _, _) in GOLDEN.items()}
CLI_RUNS["h2-file"] = ["h2", "--file", str(INPUTS / "sq4c.json")]
CLI_RUNS["uce-table-file"] = ["uce", "--table", "--file", str(INPUTS / "p4.json")]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_reports_hold_no_float(name, broken_path):
    argv = [broken_path if tok == "{broken}" else tok for tok in CLI_RUNS[name]]
    report, _ = cli.run(argv)
    # the wall-clock seconds of the timing block are the one float
    faults = scalar_faults({k: v for k, v in report.items() if k != "timing"}, name)
    assert not faults, faults[:10]
