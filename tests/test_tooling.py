"""Source-level checks on the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_no_recursion_in_formula_layer():
    """The formula layer and the build layers walk with an explicit stack,
    so that no nesting depth hits the interpreter's recursion limit: no
    function in a package module calls itself by name, except in
    ``semantics`` and ``kripke``, the two evaluators that still recurse
    over a formula (``_Vec.eval``, ``forces``, ``_FrameVec``)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.name
        if name in ("semantics.py", "kripke.py"):
            continue
        tree = ast.parse(path.read_text(), filename=name)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}:{node.lineno} {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == func.name]
    assert not found, f"recursive calls: {', '.join(found)}"


def test_no_hand_rolled_bit_walk():
    """Set bits are walked by ``order._bits`` only: no ``>>= 1`` shift
    loop in the package."""
    found = [f"{path.relative_to(PACKAGE)}:{number}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if ">>= 1" in line]
    assert not found, f"hand-rolled bit walks: {', '.join(found)}"


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


# Run under ``python -O``: each check prints what it raised, or "none".
_OPTIMIZED_CHECKS = """
import sys
from twistlab import heyting, openpairs, order, tba, twist

print("optimize", sys.flags.optimize)
three = order.heyting_from_poset(order.FinitePoset.from_pairs(
    2, [(0, 0), (1, 1), (0, 1)]))
structure = twist.tw(three, {1, 2}, {0, 1})
member = structure.member.copy()
member[2, 0] = False
structure.member = member
imp = three.imp.copy()
imp[1, 0] = 1
broken = heyting.FiniteHeytingAlgebra(three.meet, three.join, imp, bot=0)
alexandrov = tba.powerset_tba(order.FinitePoset.from_pairs(
    2, [(0, 0), (1, 1), (0, 1)]))
boolean = tba.powerset_tba(order.FinitePoset.from_pairs(2, [(0, 0), (1, 1)]))
bad_imp = boolean.imp.copy()
bad_imp[1, 2] = 3
bad_tba = tba.FiniteTBA(boolean.meet, boolean.join, bad_imp, boolean.bot,
                        boolean.box)
for check in (lambda: twist._verify(structure),
              lambda: twist.tw(bad_tba, {3}, {0}),
              lambda: twist.tw(bad_tba, {3}, {0}),
              lambda: heyting.dense_filter(broken),
              lambda: heyting.dense_filter(broken),
              lambda: openpairs.lambda_set(alexandrov, {2}),
              lambda: openpairs.lambda_set(alexandrov, {2})):
    try:
        check()
        print("none")
    except AssertionError as exc:
        print("AssertionError", exc)
"""


def test_checks_raise_under_optimize():
    """Aim 3: the build checks raise under ``python -O`` too.  A carrier
    with a pair dropped from its membership matrix fails _verify.  A
    carrier that is not closed under a tampered implication fails tw on
    its first call, and again on the next (a failing carrier is never
    recorded as verified).  An algebra whose dense-element
    characterisations disagree fails dense_filter on its first call, and
    again on the next (nothing was cached); so does the lambda set of the
    non-filter {2} of the 2-chain's powerset algebra, which is not closed
    under boxed implication."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "optimize 1",
        "AssertionError carrier not closed under and",
        "AssertionError carrier not closed under imp",
        "AssertionError carrier not closed under imp",
        "AssertionError dense-element characterisations disagree",
        "AssertionError dense-element characterisations disagree",
        "AssertionError lambda set not closed under implication",
        "AssertionError lambda set not closed under implication",
    ]


_NO_MASKED_ARRAYS = """
import sys
from twistlab import companions, heyting, order, twist

algebra = order.heyting_from_poset(order.FinitePoset.from_pairs(
    3, [(0, 0), (1, 1), (2, 2), (0, 1)]))
inst = companions.companion_structure(
    algebra, heyting.filters(algebra, require_dense=True)[0],
    heyting.ideals(algebra)[0])
twist.nabla_of(inst.twist), twist.delta_of(inst.twist)
companions.pipeline_sweep(max_size=2)
print("numpy.ma" in sys.modules)
"""


def test_build_and_sweep_skip_masked_arrays():
    """The builders, the invariant extraction and a small sweep never load
    numpy.ma, which the first plain ``np.unique`` call imports lazily and
    which costs tens of milliseconds in a fresh process."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False"]
