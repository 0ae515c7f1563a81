"""Finite Heyting algebras as operation tables, with filters and ideals.

Elements are opaque indices 0..n-1; ``bot`` is a stored index rather than a
forced position so that files may order elements arbitrarily.  All derived
structure (order, top, negation) is computed from the tables.  A filter
or an ideal is tested and named by its generator, the element it is the
up-set or down-set of (``_generator``).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = [
    "FiniteHeytingAlgebra", "neg", "dense_filter",
    "filters", "ideals", "is_closed_ideal", "closure_n", "is_boolean",
    "heyting_from_json", "heyting_to_json",
    "enumerate_filters_bruteforce", "enumerate_ideals_bruteforce",
]


def _table(data, shape):
    """Read-only index array of the given shape with entries in
    range(shape[0]); non-integer entries are refused, not truncated."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "iu":
        raise ValueError("table entries must be integers")
    if arr.shape != shape:
        raise ValueError(f"table must have shape {shape}, got {arr.shape}")
    if arr.min() < 0 or arr.max() >= shape[0]:
        raise ValueError("table entry out of element range")
    arr = arr.astype(np.intp, copy=False)
    arr.setflags(write=False)
    return arr


# Cells of one block of an n x n x n cube in validate(); bounds its memory.
_CUBE_CELLS = 1 << 20


def _first_in_cube(n, block):
    """First (i, j, k) in row-major order where the boolean n x n x n cube
    is True, or None; ``block(rows)`` builds the cube's first-axis slice
    ``rows``, a block at a time."""
    step = max(1, _CUBE_CELLS // (n * n))
    for start in range(0, n, step):
        bad = block(slice(start, start + step))
        if bad.any():
            i, j, k = map(int, np.argwhere(bad)[0])
            return start + i, j, k
    return None


def _mask(n, elements) -> np.ndarray:
    """Boolean mask over 0..n-1 of the given element indices."""
    mask = np.zeros(n, dtype=bool)
    mask[list(elements)] = True
    return mask


def _is_index(value) -> bool:
    """Whether the value can name an element: an int or a numpy integer,
    not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _closure(mask, tables) -> np.ndarray:
    """Least superset of the boolean element mask closed under the binary
    tables."""
    while True:
        idx = np.flatnonzero(mask)
        grown = mask.copy()
        for table in tables:
            grown[table[idx[:, None], idx]] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _closed_under(mask, table) -> bool:
    """Whether the boolean element mask is closed under the binary table,
    that is, one step of ``_closure`` adds nothing."""
    idx = np.flatnonzero(mask)
    return bool(mask[table[idx[:, None], idx]].all())


def _generator(algebra, subset, ideal=False, within=None):
    """The element whose up-set, or with ``ideal`` down-set, is the subset,
    or None when there is none.  In a finite lattice a filter (ideal) is
    the up-set (down-set) of its meet (join), so this is at once the test
    that a set is a filter or an ideal and the map to its generator.  With
    ``within``, a boolean mask of elements closed under meet and join, the
    up-set (down-set) is taken among those elements."""
    subset, n = frozenset(subset), algebra.n
    if not subset or not all(_is_index(a) and 0 <= a < n for a in subset):
        return None
    if within is not None and not within[list(subset)].all():
        return None
    table, le = (algebra.join, algebra.le.T) if ideal else \
        (algebra.meet, algebra.le)
    g = reduce(lambda x, y: table[x, y], subset)
    bound = le[g] if within is None else le[g] & within
    return int(g) if np.count_nonzero(bound) == len(subset) else None


class FiniteHeytingAlgebra:
    """Heyting algebra given by meet/join/implication tables."""

    def __init__(self, meet, join, imp, bot: int):
        meet = np.asarray(meet)
        n = len(meet) if meet.ndim else 0
        self.n = n
        self.meet = _table(meet, (n, n))
        self.join = _table(join, (n, n))
        self.imp = _table(imp, (n, n))
        if not _is_index(bot):
            raise ValueError("bot must be an integer index")
        if not 0 <= bot < n:
            raise ValueError("bot index out of range")
        self.bot = int(bot)
        self._cache = {}

    # -- derived structure --------------------------------------------------

    @property
    def le(self) -> np.ndarray:
        """Boolean matrix of the lattice order: le[a, b] iff a <= b."""
        cached = self._cache.get("le")
        if cached is None:
            cached = self.meet == np.arange(self.n, dtype=np.intp)[:, None]
            cached.setflags(write=False)
            self._cache["le"] = cached
        return cached

    def leq(self, a: int, b: int) -> bool:
        return bool(self.le[a, b])

    @property
    def top(self) -> int:
        cached = self._cache.get("top")
        if cached is None:
            candidates = np.flatnonzero(self.le.all(axis=0))
            if len(candidates) != 1:
                raise ValueError("tables do not determine a unique top")
            cached = int(candidates[0])
            self._cache["top"] = cached
        return cached

    @property
    def neg_table(self) -> np.ndarray:
        cached = self._cache.get("neg")
        if cached is None:
            cached = self.imp[:, self.bot].copy()
            cached.setflags(write=False)
            self._cache["neg"] = cached
        return cached

    def neg(self, a: int) -> int:
        return int(self.imp[a, self.bot])

    # -- validation ----------------------------------------------------------

    def validate(self):
        """None when the tables form a Heyting algebra, else a report naming
        the first failing law and elements."""
        n = self.n
        rng = np.arange(n, dtype=np.intp)
        meet, join, imp = self.meet, self.join, self.imp
        if not (meet[rng, rng] == rng).all():
            a = int(np.flatnonzero(meet[rng, rng] != rng)[0])
            return f"meet not idempotent at {a}"
        le = meet == rng[:, None]
        both = le & le.T & ~np.eye(n, dtype=bool)
        if both.any():
            a, b = map(int, np.argwhere(both)[0])
            return f"order not antisymmetric: {a} <= {b} <= {a}"
        trans = (le @ le) & ~le                      # boolean product: no wrap
        if trans.any():
            a, c = map(int, np.argwhere(trans)[0])
            return f"order not transitive: {a} <= ... <= {c} but not {a} <= {c}"
        # meet must be the greatest lower bound
        lb_ok = le[meet, rng[:, None]] & le[meet, rng[None, :]]
        if not lb_ok.all():
            a, b = map(int, np.argwhere(~lb_ok)[0])
            return f"meet({a}, {b}) is not a lower bound"
        # c <= a, b but not c <= meet(a, b); cubes are [c, a, b]
        hit = _first_in_cube(n, lambda r: le[r, :, None] & le[r, None, :]
                             & ~le[r][:, meet])
        if hit:
            c, a, b = hit
            return f"meet({a}, {b}) is not greatest: {c} is a larger lower bound"
        # join must be the least upper bound
        ub_ok = le[rng[:, None], join] & le[rng[None, :], join]
        if not ub_ok.all():
            a, b = map(int, np.argwhere(~ub_ok)[0])
            return f"join({a}, {b}) is not an upper bound"
        ge = le.T
        hit = _first_in_cube(n, lambda r: ge[r, :, None] & ge[r, None, :]
                             & ~ge[r][:, join])
        if hit:
            c, a, b = hit
            return f"join({a}, {b}) is not least: {c} is a smaller upper bound"
        if not le[self.bot].all():
            b = int(np.flatnonzero(~le[self.bot])[0])
            return f"bot is not below {b}"
        # residuation: meet(a, b) <= c iff a <= imp(b, c); cubes are [a, b, c]
        hit = _first_in_cube(n, lambda r: le[meet[r]] != le[r][:, imp])
        if hit:
            return f"residuation fails at {hit}"
        # distributivity is a consequence; check it anyway
        hit = _first_in_cube(n, lambda r: meet[r][:, join] != join[
            meet[r][:, :, None], meet[r][:, None, :]])
        if hit:
            return f"distributivity fails at {hit}"
        return None

    def check(self):
        report = self.validate()
        if report is not None:
            raise ValueError(report)
        return self

    # -- subsets -------------------------------------------------------------

    def upset(self, a: int) -> frozenset:
        return frozenset(np.flatnonzero(self.le[a]).tolist())

    def downset(self, a: int) -> frozenset:
        return frozenset(np.flatnonzero(self.le[:, a]).tolist())

    def is_filter(self, subset) -> bool:
        return _generator(self, subset) is not None

    def is_ideal(self, subset) -> bool:
        return _generator(self, subset, ideal=True) is not None

    def join_irreducibles(self) -> list:
        """Elements a != bot such that a = b v c forces a in {b, c}."""
        rng = np.arange(self.n, dtype=np.intp)
        join = self.join
        reducible = np.zeros(self.n, dtype=bool)
        reducible[join[(join != rng[:, None]) & (join != rng)]] = True
        reducible[self.bot] = True
        return np.flatnonzero(~reducible).tolist()

    def __eq__(self, other):
        return (isinstance(other, FiniteHeytingAlgebra)
                and self.n == other.n and self.bot == other.bot
                and np.array_equal(self.meet, other.meet)
                and np.array_equal(self.join, other.join)
                and np.array_equal(self.imp, other.imp))

    def __hash__(self):
        return hash((self.n, self.bot, self.meet.tobytes(),
                     self.join.tobytes(), self.imp.tobytes()))

    def __repr__(self):
        return f"FiniteHeytingAlgebra(n={self.n}, bot={self.bot})"


def neg(algebra: FiniteHeytingAlgebra, a: int) -> int:
    if not (_is_index(a) and 0 <= a < algebra.n):
        raise IndexError(f"element {a} out of range")
    return algebra.neg(a)


def dense_filter(algebra: FiniteHeytingAlgebra) -> frozenset:
    """Filter of dense elements; the three standard characterisations
    (negation bot, double negation top, of the form b v -b) are computed
    independently and must agree.  They are compared once per algebra, on
    the first call, and the filter is kept in the algebra's cache."""
    cached = algebra._cache.get("dense")
    if cached is not None:
        return cached
    neg_t = algebra.neg_table
    by_neg = frozenset(np.flatnonzero(neg_t == algebra.bot).tolist())
    by_dneg = frozenset(np.flatnonzero(neg_t[neg_t] == algebra.top).tolist())
    rng = np.arange(algebra.n, dtype=np.intp)
    by_form = frozenset(algebra.join[rng, neg_t].tolist())
    if not (by_neg == by_dneg == by_form):
        raise AssertionError("dense-element characterisations disagree")
    algebra._cache["dense"] = by_neg
    return by_neg


def filters(algebra: FiniteHeytingAlgebra, require_dense: bool = False) -> list:
    """All filters; in a finite lattice every filter is the up-set of its
    meet, so one per element.  With ``require_dense`` only the filters
    containing every dense element are kept."""
    dense = dense_filter(algebra) if require_dense else None
    out = []
    for a in range(algebra.n):
        filt = algebra.upset(a)
        if dense is not None and not dense <= filt:
            continue
        out.append(filt)
    return out


def ideals(algebra: FiniteHeytingAlgebra) -> list:
    """All ideals, one per element (principal down-sets)."""
    return [algebra.downset(a) for a in range(algebra.n)]


def enumerate_filters_bruteforce(algebra: FiniteHeytingAlgebra) -> list:
    """Subset scan kept as an independent cross-check of filters()."""
    if algebra.n > 16:
        raise ValueError("brute-force filter scan limited to 16 elements")
    out = []
    for mask in range(1, 1 << algebra.n):
        subset = frozenset(i for i in range(algebra.n) if mask >> i & 1)
        if algebra.is_filter(subset):
            out.append(subset)
    return out


def enumerate_ideals_bruteforce(algebra: FiniteHeytingAlgebra) -> list:
    if algebra.n > 16:
        raise ValueError("brute-force ideal scan limited to 16 elements")
    out = []
    for mask in range(1, 1 << algebra.n):
        subset = frozenset(i for i in range(algebra.n) if mask >> i & 1)
        if algebra.is_ideal(subset):
            out.append(subset)
    return out


def is_closed_ideal(algebra: FiniteHeytingAlgebra, delta) -> bool:
    """True when the ideal contains the double negation of each member."""
    delta = frozenset(delta)
    if not algebra.is_ideal(delta):
        raise ValueError("is_closed_ideal expects an ideal")
    neg_t = algebra.neg_table
    return all(int(neg_t[int(neg_t[a])]) in delta for a in delta)


def closure_n(algebra: FiniteHeytingAlgebra, delta) -> frozenset:
    """Least closed ideal containing delta: everything below the double
    negation of some member."""
    delta = frozenset(delta)
    if not algebra.is_ideal(delta):
        raise ValueError("delta is not an ideal of the algebra")
    neg_t = algebra.neg_table
    below = algebra.le[:, neg_t[neg_t[list(delta)]]].any(axis=1)
    return frozenset(np.flatnonzero(below).tolist())


def is_boolean(algebra: FiniteHeytingAlgebra) -> bool:
    """Excluded middle everywhere; cross-checked against the dense filter
    being trivial."""
    rng = np.arange(algebra.n, dtype=np.intp)
    by_lem = bool(
        (algebra.join[rng, algebra.neg_table] == algebra.top).all())
    by_dense = dense_filter(algebra) == frozenset((algebra.top,))
    if by_lem != by_dense:
        raise AssertionError("boolean characterisations disagree")
    return by_lem


# ---------------------------------------------------------------------------
# JSON interface: {"type": "heyting", "size": n, "bot": i,
#                  "meet": [[...]], "join": [[...]], "imp": [[...]]}


def _sized(data: dict, algebra):
    """The algebra, once a "size" the file declares is checked to be the
    integer side of its tables."""
    if "size" in data:
        size = data["size"]
        if type(size) is not int or size != algebra.n:
            raise ValueError(f"size {size!r} is not the tables' side "
                             f"{algebra.n}")
    return algebra


def heyting_from_json(data: dict) -> FiniteHeytingAlgebra:
    if data.get("type") != "heyting":
        raise ValueError("expected a heyting object")
    return _sized(data, FiniteHeytingAlgebra(
        data["meet"], data["join"], data["imp"], bot=data["bot"]))


def heyting_to_json(algebra: FiniteHeytingAlgebra) -> dict:
    return {
        "type": "heyting",
        "size": algebra.n,
        "bot": algebra.bot,
        "meet": algebra.meet.tolist(),
        "join": algebra.join.tolist(),
        "imp": algebra.imp.tolist(),
    }
