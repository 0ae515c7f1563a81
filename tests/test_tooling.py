"""Source-level checks on the package."""

import ast
from pathlib import Path

import twistlab

PACKAGE = Path(twistlab.__file__).resolve().parent


def test_no_bare_assert_in_package():
    """Invariant checks must raise explicitly: ``python -O`` strips
    ``assert`` statements."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"
