"""Every certificate of the package is seen to fire.

A certificate (raise CertificateError) guards a property its
construction guarantees, so valid input never trips it; a test has to
corrupt one input to see it raise, and its message must name the object
at fault.  SITES registers, for each raise site under src/superuce/
(module, enclosing function, ordinal within it), the test that makes it
fire; the guard below fails when a site has no registered test or a
registered test does not exist.  The firing tests of three sites live
here; the others sit beside the code they test.
"""

import ast
import re
from pathlib import Path

import pytest

import superuce
from superuce import (
    CertificateError,
    GradedLinearMap,
    chain_system,
    coefficient_algebra,
    colimit,
    factor_through,
    induced_colimit_map,
    validate_assoc,
)
from superuce import cyclic
from superuce.cyclic import cyclic_pairs
from superuce.limits import Colimit

from systems_util import sl2
import unvalidated

PACKAGE = Path(superuce.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

SITES = {
    "algebra.py:_keep_torus#1": "test_weight_blocks.py::test_corrupted_weight_is_caught",
    "cyclic.py:cyclic_pairs#1":
        "test_certificates_fire.py::test_pairing_space_certificate_fires_on_a_broken_product",
    "limits.py:factor_through#1":
        "test_certificates_fire.py::test_cone_extension_certificate_fires_on_a_broken_injection",
    "limits.py:induced_colimit_map#1":
        "test_certificates_fire.py::test_induced_map_certificate_fires_on_one_corrupted_column",
    "limits.py:theorem_verify#1":
        "test_limits.py::test_theorem_verify_certifies_phi_is_the_identity",
    "matrices.py:steinberg_check.sl_coords#1":
        "test_matrices.py::test_steinberg_check_certifies_its_sl_coordinates",
    "uce.py:_weight_presentation#1":
        "test_weight_blocks.py::test_block_that_drops_a_free_column_is_caught",
    "uce.py:build_uce#1": "test_cli.py::test_certificate_failure_exits_1",
    "uce.py:build_uce#2": "test_uce.py::test_a_non_central_kernel_vector_is_caught",
    "uce.py:uce_of_morphism#1":
        "test_uce.py::test_a_lift_of_a_map_that_is_not_a_morphism_is_caught",
    "uce.py:h2_cohomology_oracle#1": "test_weight_blocks.py::test_corrupted_oracle_weight_is_caught",
}


def certificate_sites(path: Path) -> list:
    """module:function#ordinal of each `raise CertificateError`, the
    function dotted with the functions enclosing it."""
    found = []
    counts: dict = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name if owner is None else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "CertificateError":
                    counts[owner] = counts.get(owner, 0) + 1
                    found.append(f"{path.name}:{owner}#{counts[owner]}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_every_certificate_has_a_registered_firing_test():
    found = [site for path in sorted(PACKAGE.glob("*.py")) for site in certificate_sites(path)]
    assert sorted(found) == sorted(SITES), sorted(set(found) ^ set(SITES))
    for site, test in SITES.items():
        module, name = test.split("::")
        tree = ast.parse((TESTS / module).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, f"{site}: {test} does not exist"


def test_pairing_space_certificate_fires_on_a_broken_product():
    """Mat(2,0;Q) with E12 E21 = 2 E11, given unvalidated: not associative,
    so its supercommutator no longer kills the cyclic relations."""
    A = coefficient_algebra("Mat(2,0;Q)")
    table = [[dict(cell) for cell in row] for row in A.table]
    table[1][2] = {0: 2}
    broken = unvalidated.assoc(A.basis, table, A.unit)
    assert not validate_assoc(broken).ok
    message = "supercommutator does not kill the cyclic relation on <<E1,2(1),E1,1(1)>>"
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        cyclic_pairs(broken)


def test_pairing_space_certificate_names_a_failing_pair_relation(monkeypatch):
    """A supercommutator table that is not super skew-symmetric ([1, 1] = 1
    on Q) fails on the diagonal pair row first, and the message names a
    pair relation."""
    monkeypatch.setattr(cyclic, "lie_from_assoc",
                        lambda A: unvalidated.lie(A.basis, [[{0: 1}]]))
    message = "supercommutator does not kill the pair relation on <<1,1>>"
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        cyclic_pairs(coefficient_algebra("Q"))


def test_cone_extension_certificate_fires_on_a_broken_injection():
    """A colimit whose injection from member 0 is zero: the cone is
    compatible over the system, but the mediating map does not extend it."""
    L = sl2()
    ident = GradedLinearMap.identity(L.basis)
    colim = colimit(chain_system([L, L], [ident]))
    injections = dict(colim.injections)
    injections[0] = GradedLinearMap.zero(L.basis, L.basis)
    broken = Colimit(colim.system, colim.top, colim.algebra, injections)
    with pytest.raises(CertificateError, match="^mediating map does not extend the cone at 0$"):
        factor_through(broken, {0: ident, 1: ident})


@pytest.mark.parametrize("column", range(3), ids=["e", "h", "f"])
def test_induced_map_certificate_fires_on_one_corrupted_column(column):
    """One member, so the components commute with every transition; the
    identity of sl(2) with one column doubled is not a morphism, and the
    check on the pairs i <= j still sees it."""
    L = sl2()
    cols = [{j: 2 if j == column else 1} for j in range(L.dim)]
    component = GradedLinearMap(L.basis, L.basis, cols)
    colim = colimit(chain_system([L], []))
    message = f"induced map {L!r} -> {L!r} fails to be a morphism"
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        induced_colimit_map(colim, colim, {0: component})
