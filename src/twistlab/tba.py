"""Finite topological Boolean algebras: an interior operator on a finite
Boolean algebra, the algebra of open elements, and the lifting maps between
filters/ideals of the two levels.

The canonical construction is the Alexandrov powerset algebra of a poset,
whose opens are the up-sets; every Heyting algebra arises that way from its
join-irreducible poset, which realises ``s_of``.
"""

from __future__ import annotations

import numpy as np

from .heyting import FiniteHeytingAlgebra, _closure, _greatest, \
    _is_closed_set, _least, _sized, _table, is_boolean
from .order import FinitePoset, join_irreducible_poset

__all__ = [
    "FiniteTBA", "open_elements", "open_algebra",
    "powerset_tba", "s_of", "open_filters", "closed_ideals",
    "delta_map", "rho_map", "sigma_map", "satisfies_grz",
    "tba_from_json", "tba_to_json",
]


class FiniteTBA(FiniteHeytingAlgebra):
    """Boolean algebra with an interior table ``box``."""

    def __init__(self, meet, join, imp, bot, box):
        super().__init__(meet, join, imp, bot)
        self.box = _table(box, (self.n,))

    @classmethod
    def _over(cls, algebra: FiniteHeytingAlgebra, box):
        """The TBA on the already checked tables of ``algebra`` with the
        interior ``box``; only ``box`` is checked here.  The tables are
        shared, not copied (they are read-only), and so are the order, top
        and negation derived from them."""
        tba = cls.__new__(cls)
        tba.n, tba.bot = algebra.n, algebra.bot
        tba.meet, tba.join, tba.imp = algebra.meet, algebra.join, algebra.imp
        tba.box = _table(box, (algebra.n,))
        tba._cache = {"le": algebra.le, "top": algebra.top,
                      "neg": algebra.neg_table}
        return tba

    @property
    def dia_table(self) -> np.ndarray:
        cached = self._cache.get("dia")
        if cached is None:
            neg_t = self.neg_table
            cached = neg_t[self.box[neg_t]]
            cached.setflags(write=False)
            self._cache["dia"] = cached
        return cached

    def dia(self, a: int) -> int:
        return int(self.dia_table[a])

    def open_mask(self) -> np.ndarray:
        """Read-only boolean mask of the open elements, kept in the cache."""
        cached = self._cache.get("opens")
        if cached is None:
            cached = self.box == np.arange(self.n, dtype=np.intp)
            cached.setflags(write=False)
            self._cache["opens"] = cached
        return cached

    def validate(self):
        report = super().validate()
        if report is not None:
            return report
        if not is_boolean(self):
            return "underlying algebra is not Boolean"
        box, meet, le = self.box, self.meet, self.le
        if int(box[self.top]) != self.top:
            return "box(top) != top"
        lhs = box[meet]
        rhs = meet[box[:, None], box[None, :]]
        if (lhs != rhs).any():
            a, b = map(int, np.argwhere(lhs != rhs)[0])
            return f"box(meet) law fails at ({a}, {b})"
        rng = np.arange(self.n, dtype=np.intp)
        if not le[box, rng].all():
            a = int(np.flatnonzero(~le[box, rng])[0])
            return f"box({a}) not below {a}"
        if not le[box, box[box]].all():
            a = int(np.flatnonzero(~le[box, box[box]])[0])
            return f"box({a}) not below box(box({a}))"
        return None

    def __eq__(self, other):
        return (isinstance(other, FiniteTBA)
                and super().__eq__(other)
                and np.array_equal(self.box, other.box))

    def __hash__(self):
        return hash((super().__hash__(), self.box.tobytes()))

    def __repr__(self):
        return f"FiniteTBA(n={self.n}, bot={self.bot})"


def open_elements(algebra: FiniteTBA) -> frozenset:
    """Fixed points of the interior operator, kept in the cache."""
    cached = algebra._cache.get("open_elements")
    if cached is None:
        cached = frozenset(np.flatnonzero(algebra.open_mask()).tolist())
        algebra._cache["open_elements"] = cached
    return cached


def open_algebra(algebra: FiniteTBA):
    """The Heyting algebra of open elements, with boxed implication.

    Returns (heyting algebra, embed) where embed[i] is the carrier index in
    the ambient algebra of the i-th open element.
    """
    embed = sorted(open_elements(algebra))
    return _boxed_subalgebra(algebra, embed), tuple(embed)


def _boxed_subalgebra(algebra: FiniteTBA, elements) -> FiniteHeytingAlgebra:
    """The checked Heyting algebra on sorted elements closed under meet,
    join and boxed implication (ValueError if they are not); element i is
    elements[i].  It is built and checked once per element tuple and kept
    in the algebra's cache, so its callers share it."""
    key = tuple(elements)
    built = algebra._cache.setdefault("boxed", {})
    if key in built:
        return built[key]
    idx = np.asarray(key, dtype=np.intp)
    pos = np.full(algebra.n, -1, dtype=np.intp)
    pos[idx] = np.arange(len(idx), dtype=np.intp)
    rows, cols = idx[:, None], idx[None, :]
    built[key] = FiniteHeytingAlgebra(
        pos[algebra.meet[rows, cols]], pos[algebra.join[rows, cols]],
        pos[algebra.box[algebra.imp[rows, cols]]],
        bot=pos[algebra.bot]).check()
    return built[key]


# Sizes of at most this many points keep their Boolean algebra in
# _BOOLEANS: at most 7 algebras, the largest of 64 elements, about 0.2 MB of
# tables in all.  The sweeps build over at most 5 points.
_BOOLEAN_POINTS = 6
_BOOLEANS = {}


def _powerset_boolean(n):
    """The Boolean algebra of the subsets of n points in (popcount,
    bitmask) order, with ``elems``, the bitmask of each element, and
    ``index``, the element of each bitmask.  It is built through the public
    constructor, so its tables are checked, and for n <= _BOOLEAN_POINTS
    it is kept, so those are built and checked once per size."""
    kept = _BOOLEANS.get(n)
    if kept is not None:
        return kept
    masks = np.arange(1 << n, dtype=np.intp)
    elems = np.argsort(np.bitwise_count(masks), kind="stable")
    index = np.empty_like(elems)
    index[elems] = masks
    elems.setflags(write=False)
    index.setflags(write=False)
    s, t = elems[:, None], elems[None, :]
    algebra = FiniteHeytingAlgebra(index[s & t], index[s | t],
                                   index[~s & ((1 << n) - 1) | t],
                                   bot=index[0])
    kept = algebra, elems, index
    if n <= _BOOLEAN_POINTS:
        _BOOLEANS[n] = kept
    return kept


def powerset_tba(poset: FinitePoset) -> FiniteTBA:
    """Alexandrov algebra of a poset: all subsets, interior = largest
    contained up-set.  Elements are ordered by (popcount, bitmask).  Every
    poset of one size shares the Boolean tables of ``_powerset_boolean``;
    only its interior is computed and checked here."""
    n = poset.n
    boolean, elems, index = _powerset_boolean(n)
    # the interior of s: the points x whose up-set lies inside s
    inside = np.asarray(poset.up, dtype=np.intp) & ~elems[:, None] == 0
    interior = inside @ (1 << np.arange(n, dtype=np.intp))     # [s, x]
    return FiniteTBA._over(boolean, index[interior])


def s_of(algebra: FiniteHeytingAlgebra):
    """Realise the algebra as the opens of an Alexandrov algebra over its
    join-irreducible poset.

    Returns (tba, iso) where iso[a] is the element of the tba representing
    a.  The realisation belongs to the algebra: it is built once per
    algebra object and kept in its cache, so every call returns the same
    tba.  That first build verifies the map to be an isomorphism onto the
    open algebra, and the tba to be generated by its opens.
    """
    cached = algebra._cache.get("s_of")
    if cached is not None:
        return cached
    jposet = join_irreducible_poset(algebra)
    irr = algebra.join_irreducibles()
    tba = powerset_tba(jposet)
    # a maps to the set of (positions of) irreducibles below it
    iso = _powerset_boolean(jposet.n)[2][
        (1 << np.arange(len(irr), dtype=np.intp)) @ algebra.le[irr]]

    opens = tba.open_mask()
    if not np.array_equal(np.sort(iso), np.flatnonzero(opens)):
        raise AssertionError("irreducible map is not onto the opens")
    a, b = iso[:, None], iso[None, :]
    if not np.array_equal(iso[algebra.meet], tba.meet[a, b]):
        raise AssertionError("meet not preserved")
    if not np.array_equal(iso[algebra.join], tba.join[a, b]):
        raise AssertionError("join not preserved")
    if not np.array_equal(iso[algebra.imp], tba.box[tba.imp[a, b]]):
        raise AssertionError("implication not preserved")
    if iso[algebra.bot] != tba.bot:
        raise AssertionError("bot not preserved")
    if not _closure(opens, (tba.meet, tba.join, tba.imp)).all():
        raise AssertionError("algebra is not generated by its opens")
    cached = algebra._cache["s_of"] = tba, tuple(iso.tolist())
    return cached


def open_filters(algebra: FiniteTBA) -> list:
    """Filters closed under box; principal filters of open elements."""
    mask = algebra.open_mask()
    return [algebra.upset(a) for a in range(algebra.n) if mask[a]]


def closed_ideals(algebra: FiniteTBA) -> list:
    """Ideals closed under diamond; principal ideals of diamond-fixed
    elements."""
    dia_t = algebra.dia_table
    return [algebra.downset(a) for a in range(algebra.n)
            if int(dia_t[a]) == a]


def _is_open_filter(algebra, subset):
    """A filter whose generator f is open (f <= box f)."""
    return (algebra.is_filter(subset)
            and bool(algebra.open_mask()[_least(algebra, subset)]))


def _is_closed_ideal_tba(algebra, subset):
    """An ideal whose generator d is diamond-fixed (dia d <= d)."""
    if not algebra.is_ideal(subset):
        return False
    d = _greatest(algebra, subset)
    return int(algebra.dia_table[d]) == d


def _is_g_filter(algebra, subset):
    """Filter of the open algebra, given as ambient indices."""
    return _is_closed_set(algebra, subset, within=algebra.open_mask())


def _is_g_ideal(algebra, subset):
    return _is_closed_set(algebra, subset, ideal=True,
                          within=algebra.open_mask())


def delta_map(algebra: FiniteTBA, nabla) -> frozenset:
    """Restrict an open filter to the open elements, giving a filter of the
    open algebra (ambient indices)."""
    nabla = frozenset(nabla)
    if not _is_open_filter(algebra, nabla):
        raise ValueError("delta_map expects an open filter")
    return nabla & open_elements(algebra)


def rho_map(algebra: FiniteTBA, nabla_g) -> frozenset:
    """Lift a filter of the open algebra to the open filter of everything
    whose interior it contains.  On the opens above an open g it is up(g):
    the pipeline lifts by that value on generators, and this map is
    criterion 4's oracle for it."""
    nabla_g = frozenset(nabla_g)
    if not _is_g_filter(algebra, nabla_g):
        raise ValueError("rho_map expects a filter of the open algebra")
    return frozenset(a for a in range(algebra.n)
                     if int(algebra.box[a]) in nabla_g)


def sigma_map(algebra: FiniteTBA, delta) -> frozenset:
    """Least closed ideal containing delta: everything below the diamond of
    a member.  Accepts an ideal of the ambient algebra or of its open
    algebra.  On the opens below an open g it is down(dia g): the pipeline
    lifts by that value on generators, and this map is criterion 4's
    oracle for it."""
    delta = frozenset(delta)
    if not (algebra.is_ideal(delta) or _is_g_ideal(algebra, delta)):
        raise ValueError("sigma_map expects an ideal")
    below = algebra.le[:, algebra.dia_table[list(delta)]].any(axis=1)
    out = frozenset(np.flatnonzero(below).tolist())
    if not _is_closed_ideal_tba(algebra, out):
        raise AssertionError("sigma_map image is not a closed ideal")
    return out


def satisfies_grz(algebra: FiniteTBA):
    """Check the Grzegorczyk axiom over all single-element valuations.

    Returns (True, None) or (False, witness element); the verdict is kept
    in the algebra's cache.
    """
    cached = algebra._cache.get("grz")
    if cached is not None:
        return cached
    rng = np.arange(algebra.n, dtype=np.intp)
    box, imp = algebra.box, algebra.imp
    inner = box[imp[rng, box]]          # [](p -> []p)
    outer = box[imp[inner, rng]]        # []([](p -> []p) -> p)
    value = imp[outer, rng]
    failing = np.flatnonzero(value != algebra.top)
    cached = (False, int(failing[0])) if len(failing) else (True, None)
    algebra._cache["grz"] = cached
    return cached


# ---------------------------------------------------------------------------
# JSON interface: heyting fields plus "box"


def tba_from_json(data: dict) -> FiniteTBA:
    if data.get("type") != "tba":
        raise ValueError("expected a tba object")
    return _sized(data, FiniteTBA(data["meet"], data["join"], data["imp"],
                                  bot=data["bot"], box=data["box"]))


def tba_to_json(algebra: FiniteTBA) -> dict:
    return {
        "type": "tba",
        "size": algebra.n,
        "bot": algebra.bot,
        "meet": algebra.meet.tolist(),
        "join": algebra.join.tolist(),
        "imp": algebra.imp.tolist(),
        "box": algebra.box.tolist(),
    }
