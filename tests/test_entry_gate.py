"""One gate where vectors enter the package: linalg._clean_vector.

Every constructor that takes vectors from a caller (the table cells and
the unit of an algebra, a cocycle's values, a map's columns, a
subspace's vectors, a matrix's rows and quotient_space's relations)
refuses a bad index or entry with one ValueError format that names the
site, and refuses a table that is not d rows of d cells.  A lint keeps
the index rule and the scalar rule inside linalg.
"""

import ast
import re
from pathlib import Path

import pytest

import superuce
from superuce import (
    AssocSuperalgebra,
    Cocycle2,
    GradedBasis,
    GradedLinearMap,
    LieSuperalgebra,
    Subspace,
    check_morphism,
    quotient_space,
)
from superuce.linalg import SparseMatrix

from systems_util import sl2

PACKAGE = Path(superuce.__file__).resolve().parent
B2 = GradedBasis(["x", "y"], [0, 0])


def _at(d, i, j, vec):
    table = [[{} for _ in range(d)] for _ in range(d)]
    table[i][j] = vec
    return table


def _cocycle(values):
    return Cocycle2(sl2(), B2, values)


# site name -> (build from one vector, dimension of its space, site in the message)
VECTOR_SITES = {
    "lie table": (lambda v: LieSuperalgebra(B2, _at(2, 0, 1, v)), 2, r"table cell \(x, y\)"),
    "assoc table": (lambda v: AssocSuperalgebra(B2, _at(2, 0, 1, v), {0: 1}), 2,
                    r"table cell \(x, y\)"),
    "assoc unit": (lambda v: AssocSuperalgebra(B2, _at(2, 0, 0, {0: 1}), v), 2, "unit"),
    "cocycle": (lambda v: _cocycle(_at(3, 0, 1, v)), 2, r"cocycle value \(e, h\)"),
    "map column": (lambda v: GradedLinearMap(B2, B2, [v, {}]), 2, "column x"),
    "subspace": (lambda v: Subspace(sl2(), [v]), 3, "subspace vector 0"),
    "matrix row": (lambda v: SparseMatrix([v], 2), 2, "matrix row 0"),
    "relation": (lambda v: quotient_space(2, [v]), 2, "relation 0"),
}

# None stands for the dimension of the site's space
BAD_INDICES = {"float": 1.0, "True": True, "False": False, "-1": -1, "dim": None, "str": "0"}
BAD_ENTRIES = {"0.5": 0.5, "True": True, "'1'": "1"}


@pytest.mark.parametrize("bad", sorted(BAD_INDICES))
@pytest.mark.parametrize("site", sorted(VECTOR_SITES))
def test_every_gate_refuses_a_bad_index(site, bad):
    build, d, where = VECTOR_SITES[site]
    k = d if BAD_INDICES[bad] is None else BAD_INDICES[bad]
    # a refused vector is never stored, so no bool key reaches the package
    with pytest.raises(ValueError,
                       match=rf"^{where}, index {re.escape(repr(k))}: not an int in range\({d}\)$"):
        build({k: 1})


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("site", sorted(VECTOR_SITES))
def test_every_gate_refuses_an_entry_that_is_not_rational(site, bad):
    build, _, where = VECTOR_SITES[site]
    x = BAD_ENTRIES[bad]
    why = re.escape(f"{x!r} is not a rational (an int or a Fraction)")
    with pytest.raises(ValueError, match=rf"^{where}, index 0: {why}$"):
        build({0: x})


# site name -> (build from a table of rows, number of rows and cells, site)
TABLE_SITES = {
    "lie table": (lambda t: LieSuperalgebra(B2, t), 2, "table cells"),
    "assoc table": (lambda t: AssocSuperalgebra(B2, t, {0: 1}), 2, "table cells"),
    "cocycle": (_cocycle, 3, "cocycle values"),
}


@pytest.mark.parametrize("shape", ["short row", "long row", "short table", "long table"])
@pytest.mark.parametrize("site", sorted(TABLE_SITES))
def test_a_table_that_is_not_d_rows_of_d_cells_is_refused(site, shape):
    build, d, where = TABLE_SITES[site]
    table = [[{} for _ in range(d)] for _ in range(d)]
    if shape == "short row":
        table[1].pop()
    elif shape == "long row":
        table[0].append({0: 1})  # would be dropped if rows were read up to d
    elif shape == "short table":
        table.pop()
    else:
        table.append([{} for _ in range(d)])
    with pytest.raises(ValueError, match=rf"^{where}: expected {d} rows of {d} cells$"):
        build(table)


def test_a_float_copy_of_the_identity_is_not_a_morphism():
    # sl(2)'s identity with entries 1.0 never reaches check_morphism
    L = sl2()
    with pytest.raises(ValueError, match=r"^column e, index 0: 1\.0 is not a rational"):
        check_morphism(GradedLinearMap(L.basis, L.basis, [{i: 1.0} for i in range(L.dim)]), L, L)


@pytest.mark.parametrize("vec, why", [
    ({0: 0.5}, r"index 0: 0\.5 is not a rational \(an int or a Fraction\)"),
    ({True: 1}, r"index True: not an int in range\(3\)"),
    ({3: 1}, r"index 3: not an int in range\(3\)"),
    ({-1: 1}, r"index -1: not an int in range\(3\)"),
], ids=["float", "bool", "dim", "negative"])
def test_preimage_is_gated(vec, why):
    f = GradedLinearMap.identity(sl2().basis)
    with pytest.raises(ValueError, match=rf"^preimage, {why}$"):
        f.preimage(vec)


def _dual_numbers():
    return AssocSuperalgebra(B2, [[{0: 1}, {1: 1}], [{1: 1}, {}]], {0: 1})


# evaluator -> (evaluate at one vector, dimension of its space); each binary
# evaluator is tried with the vector on either side
EVALUATORS = {
    "bracket left": (lambda v: sl2().bracket(v, {0: 1}), 3),
    "bracket right": (lambda v: sl2().bracket({0: 1}, v), 3),
    "product left": (lambda v: _dual_numbers().product(v, {0: 1}), 2),
    "product right": (lambda v: _dual_numbers().product({0: 1}, v), 2),
    "apply": (lambda v: GradedLinearMap.identity(sl2().basis).apply(v), 3),
}


@pytest.mark.parametrize("bad", ["float", "bool", "dim"])
@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
def test_public_evaluators_are_gated(evaluator, bad):
    """A float entry, a bool key and a key out of range each raise the
    gate's ValueError, named for the evaluator; ungated, the float would
    reach the result and the key out of range would raise IndexError."""
    evaluate, d = EVALUATORS[evaluator]
    vec, why = {"float": ({0: 0.5}, r"index 0: 0\.5 is not a rational"),
                "bool": ({True: 1}, rf"index True: not an int in range\({d}\)"),
                "dim": ({d: 1}, rf"index {d}: not an int in range\({d}\)")}[bad]
    with pytest.raises(ValueError, match=rf"^{evaluator.split()[0]}, {why}"):
        evaluate(vec)


# ------------------------------------------------------------------- the lint

def _is_index_range_check(node) -> bool:
    """A chained comparison 0 <= k < n."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 2
            and isinstance(node.ops[0], ast.LtE) and isinstance(node.ops[1], ast.Lt)
            and isinstance(node.left, ast.Constant) and node.left.value == 0)


def _names_rational(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_rational"
            or isinstance(node, ast.Attribute) and node.attr == "_rational"
            or isinstance(node, ast.alias) and node.name == "_rational")


def gate_lint(path: Path) -> list:
    """file:line of each index range check outside linalg.py, and of each
    reference to _rational in limits.py and uce.py."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if path.name != "linalg.py" and _is_index_range_check(node):
            found.append(f"{path.name}:{node.lineno} `0 <= k < n`")
        elif path.name in ("limits.py", "uce.py") and _names_rational(node):
            found.append(f"{path.name}:{node.lineno} `_rational`")
    return found


def test_only_linalg_checks_indices_and_scalars():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in gate_lint(path)]
    assert not found, f"entry checks outside linalg._clean_vector: {', '.join(found)}"


def test_no_module_calls_a_gated_evaluator():
    """The package calls the ungated _bilinear, GradedLinearMap._apply and
    GradedLinearMap._preimage: its vectors were built inside it, and the
    gate costs a pass over each."""
    found = [f"{path.name}:{node.lineno} .{node.func.attr}("
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("bracket", "product", "apply", "preimage")]
    assert not found, f"gated evaluator called inside the package: {', '.join(found)}"


def torus_subscripts(path: Path) -> list:
    """file:function of each subscript x._torus[...], named for the
    innermost function it is in (<module> outside any)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost name stays
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_torus"]


def test_only_column_weights_reads_a_stored_torus():
    """algebra._column_weights is the one reader of the weights a torus
    keeps on an algebra: every other function asks it for its columns'
    weights (or takes the pair whole from algebra._torus), so the
    fallback to weight 0 lives in one place."""
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in torus_subscripts(path)]
    assert found == ["algebra.py:_column_weights"], f"stored torus read by: {', '.join(found)}"
