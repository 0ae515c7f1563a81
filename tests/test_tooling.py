"""Source-level checks on the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import twistlab
from twistlab import companions, heyting, order, semantics

PACKAGE = Path(twistlab.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
REFERENCE = BENCHMARK.with_name("perfbench") / "reference.json"


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


# The cycles of the package's call graph that are allowed: the two
# evaluators that still recurse over a formula.
_ALLOWED_CYCLES = {
    frozenset({"semantics._Vec.eval", "semantics._Vec._compute"}),
    frozenset({"kripke._FrameVec.eval", "kripke._FrameVec._compute"}),
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_parts(node):
    """The nodes of one scope's own code, and the defs and classes nested
    in it directly: a walk of its body through compound statements,
    lambdas and comprehensions that stops at each def and class."""
    own, nested, todo = [], [], list(node.body)
    while todo:
        sub = todo.pop()
        if isinstance(sub, _SCOPES):
            nested.append(sub)
        else:
            own.append(sub)
            todo += ast.iter_child_nodes(sub)
    return own, nested


def _call_graph(tree, module):
    """Edges between the functions, nested functions and methods of one
    module, by qualified name: a function has an edge to each function it
    names, called or not.  A bare name goes to the innermost enclosing
    function scope, else the module, that defines that name;
    ``self.<name>`` to the method of the enclosing class."""
    edges, scopes = {}, [(module, tree, [], None)]
    while scopes:
        qualified, node, enclosing, methods = scopes.pop()
        own, nested = _scope_parts(node)
        local = {child.name: f"{qualified}.{child.name}" for child in nested
                 if not isinstance(child, ast.ClassDef)}
        is_class = isinstance(node, ast.ClassDef)
        # a class body is not a scope for the names used in its methods
        inner = enclosing if is_class else [local, *enclosing]
        if not is_class and node is not tree:
            named = set()
            for sub in own:
                if isinstance(sub, ast.Name):
                    for names in inner:
                        if sub.id in names:
                            named.add(names[sub.id])
                            break
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id == "self" and methods is not None
                      and sub.attr in methods):
                    named.add(methods[sub.attr])
            edges[qualified] = named
        for child in nested:
            scopes.append((f"{qualified}.{child.name}", child, inner,
                           local if is_class else methods))
    return edges


def _cycles(edges):
    """The strongly connected sets of functions that call themselves, each
    a frozenset of qualified names: a function with a path back to
    itself, with every function on such a path."""
    reach = {}
    for start in edges:
        seen, todo = set(), list(edges[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += edges.get(name, ())
        reach[start] = seen
    return {frozenset(other for other in reach[name]
                      if name in reach[other])
            for name in edges if name in reach[name]}


def _package_cycles(sources):
    """The call-graph cycles of modules given as {module name: source}."""
    found = set()
    for module, source in sources.items():
        found |= _cycles(_call_graph(ast.parse(source), module))
    return found


def test_no_recursion_in_formula_layer():
    """Every layer walks with an explicit stack, so that no nesting depth
    hits the interpreter's recursion limit: the call graph of each package
    module, over its functions, nested functions and methods, by the bare
    names and ``self.<name>`` each one uses, called or passed on, has no
    cycle but those of the two evaluators that still recurse over a
    formula (``_Vec.eval``, ``_FrameVec``), and each of those is still
    there."""
    cycles = _package_cycles({path.stem: path.read_text()
                              for path in sorted(PACKAGE.glob("*.py"))})
    assert sorted(map(sorted, cycles - _ALLOWED_CYCLES)) == []
    assert sorted(map(sorted, _ALLOWED_CYCLES - cycles)) == []


def test_call_graph_finds_every_kind_of_cycle():
    """The scan sees recursion by bare name, through a nested function,
    through ``self``, across functions, in a def under an ``if`` or a
    ``try``, and through a nested callback that is passed on rather than
    called, and nothing else: a call of a same-named method of another
    object, or of a module function from a method, is no edge."""
    source = """
def direct(x):
    return direct(x - 1)

if True:
    def guarded(x):
        return guarded(x)

def retried(x):
    try:
        def again_later(y):
            return again_later(y)
    finally:
        pass
    return again_later(x)

def mapped(xs):
    def callback(x):
        return mapped(x)
    return list(map(callback, xs))

def outer(x):
    def inner(y):
        return inner(y)
    return inner(x)

def ping(x):
    return pong(x)

def pong(x):
    return ping(x)

def run(x):
    return x.run()

class Walker:
    def step(self, x):
        return self.again(x)

    def again(self, x):
        return self.step(x)

    def run(self, x):
        return run(x)
"""
    assert _package_cycles({"m": source}) == {
        frozenset({"m.direct"}), frozenset({"m.outer.inner"}),
        frozenset({"m.guarded"}), frozenset({"m.retried.again_later"}),
        frozenset({"m.mapped", "m.mapped.callback"}),
        frozenset({"m.ping", "m.pong"}),
        frozenset({"m.Walker.step", "m.Walker.again"})}


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


def test_benchmark_references_hold():
    """The benchmark's ``sweep`` and ``build`` references, read from
    ``perfbench/reference.json``, hold, so a change that would fail every
    item of those workloads fails here first: the sweep over the classes
    of at most 3 points, with the 1000-formula corpus, gives the
    reference's instances and its whole counts dict, and every pipeline
    instance over the classes of at most 4 points gives, per class, the
    reference's [instances, closed-ideal twist pairs, lifted twist
    pairs]."""
    want = json.loads(REFERENCE.read_text())
    report = companions.pipeline_sweep(
        max_size=3, corpus=semantics.default_corpus(1000), sharp_min=50,
        posets=list(order.enumerate_posets(3, dedup=True)))
    assert report.ok
    assert report.instances == want["sweep"]["instances"]
    assert report.counts == want["sweep"]["counts"]
    classes = []
    for poset in order.enumerate_posets(4, dedup=True):
        algebra = order.heyting_from_poset(poset)
        built = [companions.companion_structure(algebra, nabla, delta)
                 for nabla in heyting.filters(algebra, require_dense=True)
                 for delta in heyting.ideals(algebra)]
        classes.append([len(built),
                        sum(inst.heyting_twist.size for inst in built),
                        sum(inst.twist.size for inst in built)])
    assert classes == want["build"]["classes"]


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
