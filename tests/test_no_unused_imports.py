"""Lint: every imported name in the package and its tests is used.

A name counts as used when it is read anywhere in its file, or, in the
package's __init__.py, when it is re-exported through __all__.
`from __future__` imports are directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import superuce

PACKAGE = Path(superuce.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    """file:line name, for each name an import binds and the file never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= _exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    return found


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        found += unused_imports(path)
    assert not found, "unused imports: " + ", ".join(found)
