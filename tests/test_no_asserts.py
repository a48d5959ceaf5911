"""Lint: no `assert` statement in the package.

Correctness certificates raise CertificateError explicitly; an `assert`
would vanish under `python -O`.
"""

import ast
from pathlib import Path

import superuce

PACKAGE = Path(superuce.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in superuce: {', '.join(found)}"
