"""Twist-structures: pair algebras over a Heyting algebra or a TBA.

The carrier of ``tw(C, nabla, delta)`` is every pair (a, b) with
a v b in nabla and a ^ b in delta; operations act componentwise through the
base tables, with strong negation swapping the components.  The pair of
sets (nabla, delta) is recoverable from the carrier and determines it.
"""

from __future__ import annotations

import numpy as np

from .heyting import FiniteHeytingAlgebra, dense_filter
from .tba import FiniteTBA, _is_closed_ideal_tba, _is_open_filter

__all__ = [
    "TwistStructure", "tw", "full_twist", "twist_apply",
    "nabla_of", "delta_of",
]

class TwistStructure:
    """Carrier and invariants of a twist-structure; construct via tw()."""

    def __init__(self, base, nabla, delta, firsts, seconds):
        self.base = base
        self.modal = isinstance(base, FiniteTBA)
        self.nabla = frozenset(nabla)
        self.delta = frozenset(delta)
        self.firsts = firsts
        self.seconds = seconds
        member = np.zeros((base.n, base.n), dtype=bool)
        member[firsts, seconds] = True
        member.setflags(write=False)
        self.member = member

    @property
    def size(self) -> int:
        return len(self.firsts)

    @property
    def pairs(self) -> list:
        return list(zip(self.firsts.tolist(), self.seconds.tolist()))

    def __contains__(self, pair):
        a, b = pair
        return bool(self.member[a, b])

    def index(self, pair) -> int:
        """Position of a pair in the lexicographic carrier order."""
        a, b = pair
        hits = np.flatnonzero((self.firsts == a) & (self.seconds == b))
        if not len(hits):
            raise ValueError(f"pair {pair} not in carrier")
        return int(hits[0])

    def __eq__(self, other):
        return (isinstance(other, TwistStructure)
                and self.base == other.base
                and np.array_equal(self.firsts, other.firsts)
                and np.array_equal(self.seconds, other.seconds))

    def __repr__(self):
        kind = "tba" if self.modal else "heyting"
        return (f"TwistStructure({kind} base n={self.base.n}, "
                f"{self.size} pairs)")


def tw(base: FiniteHeytingAlgebra, nabla, delta) -> TwistStructure:
    """Twist-structure with the given invariants.

    Over a plain Heyting algebra, nabla must be a filter containing all
    dense elements and delta an ideal; over a TBA, nabla must be an open
    filter and delta a closed ideal.  The carrier is materialised, checked
    to be closed under all operations, and checked to project onto the
    whole base.
    """
    nabla = frozenset(nabla)
    delta = frozenset(delta)
    if isinstance(base, FiniteTBA):
        if not _is_open_filter(base, nabla):
            raise ValueError("nabla is not an open filter of the base")
        if not _is_closed_ideal_tba(base, delta):
            raise ValueError("delta is not a closed ideal of the base")
    else:
        if not base.is_filter(nabla):
            raise ValueError("nabla is not a filter of the base")
        missing = dense_filter(base) - nabla
        if missing:
            raise ValueError(
                f"nabla lacks the dense element {min(missing)}")
        if not base.is_ideal(delta):
            raise ValueError("delta is not an ideal of the base")

    nabla_mask = np.zeros(base.n, dtype=bool)
    nabla_mask[list(nabla)] = True
    delta_mask = np.zeros(base.n, dtype=bool)
    delta_mask[list(delta)] = True
    ok = nabla_mask[base.join] & delta_mask[base.meet]
    pairs = np.argwhere(ok)
    firsts = np.ascontiguousarray(pairs[:, 0])
    seconds = np.ascontiguousarray(pairs[:, 1])
    structure = TwistStructure(base, nabla, delta, firsts, seconds)
    _verify(structure)
    return structure


def full_twist(base: FiniteHeytingAlgebra) -> TwistStructure:
    """Twist-structure on all of base x base."""
    everything = frozenset(range(base.n))
    return tw(base, everything, everything)


def _verify(structure):
    """Closure under all operations and surjectivity of the first
    projection; both hold by construction and are asserted."""
    base, member = structure.base, structure.member
    f, s = structure.firsts, structure.seconds
    if set(f.tolist()) != set(range(base.n)):
        raise AssertionError("first projection is not onto the base")
    f1 = f[:, None]
    s1 = s[:, None]
    f2 = f[None, :]
    s2 = s[None, :]
    checks = [
        (base.meet[f1, f2], base.join[s1, s2]),          # and
        (base.join[f1, f2], base.meet[s1, s2]),          # or
        (base.imp[f1, f2], base.meet[f1, s2]),           # imp
    ]
    for rf, rs in checks:
        if not member[rf, rs].all():
            raise AssertionError("carrier not closed under an operation")
    if not member[s, f].all():
        raise AssertionError("carrier not closed under strong negation")
    if not member[base.bot, base.top]:
        raise AssertionError("bottom pair missing from carrier")
    if structure.modal:
        box, dia = base.box, base.dia_table
        if not member[box[f], dia[s]].all():
            raise AssertionError("carrier not closed under box")
        if not member[dia[f], box[s]].all():
            raise AssertionError("carrier not closed under diamond")


def twist_apply(structure: TwistStructure, op: str, *args):
    """Apply one twist operation to carrier pairs, returning a pair."""
    base = structure.base
    for pair in args:
        if pair not in structure:
            raise ValueError(f"pair {pair} not in carrier")
    if op in ("box", "dia") and not structure.modal:
        raise ValueError(f"{op} requires a TBA base")
    if op == "bot":
        return (base.bot, base.top)
    if op == "snot":
        (a, b), = args
        return (b, a)
    if op == "box":
        (a, b), = args
        return (int(base.box[a]), int(base.dia_table[b]))
    if op == "dia":
        (a, b), = args
        return (int(base.dia_table[a]), int(base.box[b]))
    (a, b), (c, d) = args
    if op == "and":
        return (int(base.meet[a, c]), int(base.join[b, d]))
    if op == "or":
        return (int(base.join[a, c]), int(base.meet[b, d]))
    if op == "imp":
        return (int(base.imp[a, c]), int(base.meet[a, d]))
    raise ValueError(f"unknown operation {op!r}")


def nabla_of(structure: TwistStructure) -> frozenset:
    """Joins of the carrier pairs; recovers the filter invariant."""
    base = structure.base
    values = base.join[structure.firsts, structure.seconds]
    return frozenset(np.unique(values).tolist())


def delta_of(structure: TwistStructure) -> frozenset:
    """Meets of the carrier pairs; recovers the ideal invariant."""
    base = structure.base
    values = base.meet[structure.firsts, structure.seconds]
    return frozenset(np.unique(values).tolist())
