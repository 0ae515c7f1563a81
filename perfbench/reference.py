"""Reference answers that do not come from the code under test.

* ``check``: the least witness (None when valid) of every entry of the
  fixed query pool, committed in ``reference.json`` with the entry's
  category, carrier size and formula text.  They come from the plain-loop
  evaluator below, written in the style of the test suite's
  ``slow_is_valid``: it walks the formula exactly as generated (sugar
  included, before any parsing or desugaring by the library) and tries
  valuations in the library's documented order.  Rewrite them with

      python3 perfbench/reference.py

  which takes about 5 minutes in two processes, most of it on the valid
  formulas with millions of valuations.
* ``sweep``, ``build``: exact counts committed in ``reference.json``.
  They were recorded from the program at the commit that introduced this
  benchmark and are facts about finite structures, so only a change in
  behaviour can move them.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

PATH = Path(__file__).with_name("reference.json")
EXPECTED = json.loads(PATH.read_text())
JOBS = 2  # processes that write the check answers


def variables(phi) -> list:
    """Sorted variable names of a formula, found by walking it."""
    found = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f.kind == "var":
            found.add(f.args[0])
        else:
            stack.extend(f.args)
    return sorted(found)


class TwistTables:
    """The operation tables of a twist-structure's base as Python lists."""

    def __init__(self, structure):
        base = structure.base
        self.meet = base.meet.tolist()
        self.join = base.join.tolist()
        self.imp = base.imp.tolist()
        self.bot = int(base.bot)
        self.top = int(base.top)
        self.modal = bool(structure.modal)
        if self.modal:
            self.box = base.box.tolist()
            self.dia = base.dia_table.tolist()
        self.pairs = [(int(a), int(b)) for a, b in structure.pairs]


def twist_value(t: TwistTables, phi, valuation: dict):
    """Value of phi, a pair, under a valuation of pairs; sugar is
    interpreted directly: !a = a -> bot, a <-> b and a <=> b as the
    conjunctions of implications they abbreviate."""
    kind = phi.kind
    if kind == "var":
        return valuation[phi.args[0]]
    if kind == "bot":
        return (t.bot, t.top)
    if kind == "sneg":
        a, b = twist_value(t, phi.args[0], valuation)
        return (b, a)
    if kind == "neg":
        a, _ = twist_value(t, phi.args[0], valuation)
        return (t.imp[a][t.bot], a)
    if kind in ("box", "dia"):
        if not t.modal:
            raise ValueError(f"{kind} needs a twist over a TBA")
        a, b = twist_value(t, phi.args[0], valuation)
        if kind == "box":
            return (t.box[a], t.dia[b])
        return (t.dia[a], t.box[b])
    x = twist_value(t, phi.args[0], valuation)
    y = twist_value(t, phi.args[1], valuation)
    if kind == "and":
        return _and(t, x, y)
    if kind == "or":
        return (t.join[x[0]][y[0]], t.meet[x[1]][y[1]])
    if kind == "imp":
        return _imp(t, x, y)
    if kind == "iff":
        return _and(t, _imp(t, x, y), _imp(t, y, x))
    if kind == "siff":
        nx, ny = (x[1], x[0]), (y[1], y[0])
        return _and(t, _and(t, _imp(t, x, y), _imp(t, y, x)),
                    _and(t, _imp(t, nx, ny), _imp(t, ny, nx)))
    raise ValueError(f"unknown connective {kind!r}")


def _and(t, x, y):
    return (t.meet[x[0]][y[0]], t.join[x[1]][y[1]])


def _imp(t, x, y):
    return (t.imp[x[0]][y[0]], t.meet[x[0]][y[1]])


def twist_validity(t: TwistTables, phi):
    """(valid, least witness | None), the witness as {name: pair}.

    Valuations run lexicographically: variables sorted by name, each
    ranging over the carrier in its stored order."""
    names = variables(phi)
    for combo in itertools.product(t.pairs, repeat=len(names)):
        valuation = dict(zip(names, combo))
        if twist_value(t, phi, valuation)[0] != t.top:
            return False, valuation
    return True, None


def up_set_count(up_masks) -> int:
    """Number of up-sets of a poset given by its up-closure bitmasks; these
    are exactly the open elements of its powerset TBA."""
    n = len(up_masks)
    return sum(1 for s in range(1 << n)
               if all(up_masks[x] & ~s == 0 for x in range(n) if s >> x & 1))


def _check_answers(part):
    """[category, carrier size, formula text, least witness] for the pool
    entries with index = part[0] modulo part[1]."""
    import workloads

    start, step = part
    answers = []
    for entry in workloads.check_pool()[start::step]:
        _, witness = twist_validity(TwistTables(entry[1]), entry[2])
        answers.append(workloads.describe(entry)
                       + [workloads.encode_witness(witness)])
    return answers


def _format(value, indent=0):
    """JSON with dicts spread over lines, lists of lists one item a line."""
    pad = " " * (indent + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {_format(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(value, list) and any(isinstance(x, list) for x in value):
        items = [pad + json.dumps(x) for x in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(value)


def main():
    """Rewrite the check answers in reference.json."""
    from multiprocessing import Pool

    sys.path.insert(0, str(PATH.parent.parent / "src"))
    with Pool(JOBS) as pool:
        parts = pool.map(_check_answers, [(j, JOBS) for j in range(JOBS)])
    answers = [None] * sum(map(len, parts))
    for j, part in enumerate(parts):
        answers[j::JOBS] = part
    PATH.write_text(_format(dict(EXPECTED, check=answers)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
