"""Source-level checks on the package."""

import ast
import importlib
import json
from pathlib import Path

import twistlab

PACKAGE = Path(twistlab.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def test_benchmark_functions_exist():
    """Every ``<module>.<function>.<counter>`` per-layer metric of the
    benchmark names a callable of a package module, so a refactor cannot
    silently drop a function the tracer measures."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    names = [m["name"].split(".")
             for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = sorted({(parts[0], parts[1]) for parts in names
                     if len(parts) == 3 and parts[0] in modules})
    assert traced
    missing = [f"{module}.{function}" for module, function in traced
               if not callable(getattr(importlib.import_module(
                   f"twistlab.{module}"), function, None))]
    assert not missing, f"traced functions missing: {', '.join(missing)}"


def test_all_names_exist():
    """Every name in a package module's ``__all__`` is an attribute of that
    module, so removing a function cannot leave a stale export."""
    exported, stale = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "twistlab" if path.stem == "__init__" \
            else f"twistlab.{path.stem}"
        module = importlib.import_module(name)
        names = getattr(module, "__all__", ())
        exported += len(names)
        stale += [f"{name}.{attr}" for attr in names
                  if not hasattr(module, attr)]
    assert exported
    assert not stale, f"stale exports: {', '.join(stale)}"
