"""Twist-structures: pair algebras over a Heyting algebra or a TBA.

The carrier of ``tw(C, nabla, delta)`` is every pair (a, b) with
a v b in nabla and a ^ b in delta; operations act componentwise through the
base tables, as ``_OPERATIONS`` lists them, with strong negation swapping
the components.  The pair of sets (nabla, delta) is recoverable from the
carrier and determines it.
"""

from __future__ import annotations

import numpy as np

from .heyting import FiniteHeytingAlgebra, _greatest, _is_index, _least, \
    dense_filter
from .tba import FiniteTBA, _is_closed_ideal_tba, _is_open_filter

__all__ = [
    "TwistStructure", "tw", "full_twist", "nabla_of", "delta_of",
]

# The twist operations: connective -> (base table of the first component,
# base table of the second component, which component of the first argument
# the second component reads).  The first component is the base algebra's
# own operation on the first components, so an algebra needs only the first
# tables.  The second component is the dual operation on the second
# components, except that the second component of x -> y is
# first(x) ^ second(y).  ~ swaps the components and bot is (bot, top).
# Read, through _op_tables, by semantics._Vec, one component at a time, and
# by _closure_failure, both components at once, per pair of first
# components rather than per pair of carrier pairs.
# formula._reads states the same rule on formulas: ~(x -> y) is x & ~y.
_OPERATIONS = {
    "and": ("meet", "join", 1),
    "or": ("join", "meet", 1),
    "imp": ("imp", "meet", 0),
    "box": ("box", "dia_table", 1),
    "dia": ("dia_table", "box", 1),
}


def _op_tables(base):
    """``_OPERATIONS`` resolved against a base, once per base; box and dia
    need a TBA."""
    tables = base._cache.get("ops")
    if tables is None:
        tables = {kind: (getattr(base, first), getattr(base, second), side)
                  for kind, (first, second, side) in _OPERATIONS.items()
                  if hasattr(base, first)}
        base._cache["ops"] = tables
    return tables


def _pair_mask(n, firsts, seconds) -> np.ndarray:
    """Boolean n x n matrix holding the pairs (firsts[i], seconds[i])."""
    mask = np.zeros((n, n), dtype=bool)
    mask[firsts, seconds] = True
    return mask


def _closure_failure(member, f, s, tables):
    """The first operation of ``tables`` under which the pairs (f, s) leave
    the boolean pair matrix ``member``, or None.  A binary operation is
    checked per pair (a, c) of first components, the carrier being the 0/1
    matrix R with R[a, b] = 1 for each pair (a, b): its misses are
    (R @ ~member[:, second] @ R.T)[first[a, c], a, c] when the second
    component reads second components, and otherwise (implication)
    any(R[a]) * sum_d R[c, d] * ~member[first[a, c], second[a, d]].  Either
    costs about n**3 cells, whatever the size of the carrier."""
    n = len(member)
    held = _pair_mask(n, f, s)
    miss = ~member
    # R and ~member as float32, so that the products run in BLAS
    ones, misses_at = held.astype(np.float32), miss.astype(np.float32)
    rng = np.arange(n)
    for kind, (first, second, side) in tables.items():
        if first.ndim == 1:
            missed = not member[first[f], second[(f, s)[side]]].all()
        elif side:
            misses = ones @ misses_at[:, second] @ ones.T
            missed = misses[first, rng[:, None], rng].any()
        else:
            # one flat gather costs less than one by two broadcast indices
            flat = (first * n)[:, :, None] + second[:, None, :]
            misses = miss.ravel()[flat]
            misses &= held
            missed = misses[held.any(axis=1)].any()
        if missed:
            return kind
    return None


class TwistStructure:
    """Carrier and invariants of a twist-structure; construct via tw().

    ``cell`` is (f, d), the generators of nabla = up(f) and delta =
    down(d); it names the twist among those over its base, as
    ``semantics.validity_table`` indexes them.  ``member`` is the
    read-only boolean pair matrix of the carrier, and ``firsts`` and
    ``seconds`` list its pairs in lexicographic order."""

    def __init__(self, base, nabla, delta, cell, member):
        self.base = base
        self.modal = isinstance(base, FiniteTBA)
        self.nabla = frozenset(nabla)
        self.delta = frozenset(delta)
        self.cell = cell
        member.setflags(write=False)
        self.member = member
        self.firsts, self.seconds = np.nonzero(member)
        self._cache = {}  # facts derived from the carrier, built lazily

    @property
    def size(self) -> int:
        return len(self.firsts)

    @property
    def pairs(self) -> list:
        return list(zip(self.firsts.tolist(), self.seconds.tolist()))

    def __contains__(self, pair):
        a, b = pair
        n = len(self.member)
        return (_is_index(a) and _is_index(b) and 0 <= a < n and 0 <= b < n
                and bool(self.member[a, b]))

    def index(self, pair) -> int:
        """Position of a pair in the lexicographic carrier order."""
        if pair not in self:
            raise ValueError(f"pair {pair} not in carrier")
        a, b = pair
        return int(np.flatnonzero((self.firsts == a) & (self.seconds == b))[0])

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
    filter and delta a closed ideal.  Both are then principal, nabla =
    up(f) and delta = down(d), and the carrier is the pairs (a, b) with
    f <= a v b and a ^ b <= d.  It is checked to be closed under all
    operations and to project onto the whole base once per (base, cell).
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

    f, d = cell = _least(base, nabla), _greatest(base, delta)
    member = base.le[f][base.join] & base.le[:, d][base.meet]
    structure = TwistStructure(base, nabla, delta, cell, member)
    # the cells whose carriers passed, at most n**2, never one that failed
    verified = base._cache.setdefault("verified", set())
    if cell not in verified:
        _verify(structure)
        verified.add(cell)
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
    kind = _closure_failure(member, f, s, _op_tables(base))
    if kind is not None:
        raise AssertionError(f"carrier not closed under {kind}")
    if not member[s, f].all():
        raise AssertionError("carrier not closed under strong negation")
    if not member[base.bot, base.top]:
        raise AssertionError("bottom pair missing from carrier")


def nabla_of(structure: TwistStructure) -> frozenset:
    """Joins of the carrier pairs; recovers the filter invariant."""
    base = structure.base
    values = base.join[structure.firsts, structure.seconds]
    return frozenset(values.tolist())


def delta_of(structure: TwistStructure) -> frozenset:
    """Meets of the carrier pairs; recovers the ideal invariant."""
    base = structure.base
    values = base.meet[structure.firsts, structure.seconds]
    return frozenset(values.tolist())
