"""Outside-in tracer: per-function call counts and self time for twistlab.

The tracer patches the public functions of the layer modules from the
outside, so the program under test carries no tracing code.  A span is
one outermost call of a wrapped function; its self time is its duration
minus the spans of wrapped functions it called.  Recursive calls (for
example ``formula.free_vars`` calling itself through its module global)
run unwrapped inside the outermost span, so they are neither counted nor
timed twice.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# The four layers of the checking pipeline, by module.
LAYERS = {
    "build": ("order", "heyting", "tba", "twist"),
    "prepare": ("formula",),
    "evaluate": ("semantics", "kripke"),
    "compare": ("openpairs", "companions"),
}

# Formula constructors cost one dictionary lookup; a span around each would
# cost more than the work it measures and swamp the prepare layer.
UNWRAPPED = frozenset({
    "formula.Var", "formula.SNeg", "formula.And", "formula.Or",
    "formula.Imp", "formula.Box", "formula.Dia", "formula.Neg",
    "formula.Iff", "formula.SIff",
})

# Extra work counters, computed from a wrapped function's result.
COUNTERS = {
    "twist.tw": ("pairs", lambda result: result.size),
    "semantics.validity_profile": ("formulas", len),
    "semantics.is_valid": ("refuted", lambda result: int(not result.valid)),
}


class Stat:
    __slots__ = ("calls", "self_s", "extra", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0
        self.active = False


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    for layer, modules in LAYERS.items():
        if module in modules:
            return layer
    raise KeyError(name)


def traced_functions() -> dict:
    """Qualified name -> function for every function the tracer wraps:
    the public, non-generator functions defined in each layer module."""
    out = {}
    for modules in LAYERS.values():
        for short in modules:
            module = importlib.import_module(f"twistlab.{short}")
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(value)
                        or value.__module__ != module.__name__
                        or inspect.isgeneratorfunction(value)):
                    continue
                out[name] = value
    return out


class Tracer:
    """Context manager that wraps every traced function while active.

    Entering rebinds the module attribute and every other global in the
    ``twistlab`` modules that refers to the same function object (names
    brought in with ``from .x import f``); leaving restores them all.
    """

    def __init__(self):
        self.stats: dict = {}
        self._stack: list = []
        self._patched: list = []

    def __enter__(self):
        originals = traced_functions()
        wrappers = {}
        for name, fn in originals.items():
            self.stats[name] = Stat()
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in _twistlab_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = hit[1]
        return self

    def __exit__(self, *exc_info):
        for namespace, attr, value in reversed(self._patched):
            namespace[attr] = value
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        count = counter[1] if counter else None

        def wrapper(*args, **kwargs):
            if stat.active:
                return fn(*args, **kwargs)
            stat.active = True
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += span
                stat.calls += 1
                stat.self_s += span - inner
                stat.active = False
            if count is not None:
                stat.extra += count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def metrics(self) -> dict:
        """Flat metric dict: ``<module>.<function>.calls``/``.self_s``,
        the extra counters, and ``layer.<name>.self_s`` rollups."""
        out = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] = stat.extra
            layers[layer_of(name)] += stat.self_s
        for layer, seconds in layers.items():
            out[f"layer.{layer}.self_s"] = seconds
        return out


def _twistlab_modules():
    return [module for key, module in list(sys.modules.items())
            if module is not None
            and (key == "twistlab" or key.startswith("twistlab."))]
