"""Finite Heyting algebras as operation tables, with filters and ideals.

Elements are opaque indices 0..n-1; ``bot`` is a stored index rather than a
forced position so that files may order elements arbitrarily.  All derived
structure (order, top, negation) is computed from the tables.
"""

from __future__ import annotations

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


class FiniteHeytingAlgebra:
    """Heyting algebra given by meet/join/implication tables."""

    def __init__(self, meet, join, imp, bot: int):
        meet = np.asarray(meet)
        n = len(meet) if meet.ndim else 0
        self.n = n
        self.meet = _table(meet, (n, n))
        self.join = _table(join, (n, n))
        self.imp = _table(imp, (n, n))
        if not isinstance(bot, (int, np.integer)) or isinstance(bot, bool):
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
        is_lb = le[:, :, None] & le[:, None, :]      # [c, a, b]
        bad = is_lb & ~le[:, meet]                   # c <= a,b but not <= meet
        if bad.any():
            c, a, b = map(int, np.argwhere(bad)[0])
            return f"meet({a}, {b}) is not greatest: {c} is a larger lower bound"
        # join must be the least upper bound
        ub_ok = le[rng[:, None], join] & le[rng[None, :], join]
        if not ub_ok.all():
            a, b = map(int, np.argwhere(~ub_ok)[0])
            return f"join({a}, {b}) is not an upper bound"
        is_ub = le.T[:, :, None] & le.T[:, None, :]  # [c, a, b]
        bad = is_ub & ~le.T[:, join]
        if bad.any():
            c, a, b = map(int, np.argwhere(bad)[0])
            return f"join({a}, {b}) is not least: {c} is a smaller upper bound"
        if not le[self.bot].all():
            b = int(np.flatnonzero(~le[self.bot])[0])
            return f"bot is not below {b}"
        # residuation: meet(a, b) <= c iff a <= imp(b, c)
        lhs = le[meet]                               # [a, b, c]
        rhs = le[:, imp]                             # [a, b, c]
        if (lhs != rhs).any():
            a, b, c = map(int, np.argwhere(lhs != rhs)[0])
            return f"residuation fails at ({a}, {b}, {c})"
        # distributivity is a consequence; check it anyway
        lhs = meet[:, join]                          # [a, b, c]
        rhs = join[meet[:, :, None], meet[:, None, :]]
        if (lhs != rhs).any():
            a, b, c = map(int, np.argwhere(lhs != rhs)[0])
            return f"distributivity fails at ({a}, {b}, {c})"
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
        subset = frozenset(subset)
        if not subset or not subset <= frozenset(range(self.n)):
            return False
        for a in subset:
            if not self.upset(a) <= subset:
                return False
            if any(int(self.meet[a, b]) not in subset for b in subset):
                return False
        return True

    def is_ideal(self, subset) -> bool:
        subset = frozenset(subset)
        if not subset or not subset <= frozenset(range(self.n)):
            return False
        for a in subset:
            if not self.downset(a) <= subset:
                return False
            if any(int(self.join[a, b]) not in subset for b in subset):
                return False
        return True

    def join_irreducibles(self) -> list:
        """Elements a != bot such that a = b v c forces a in {b, c}."""
        out = []
        for a in range(self.n):
            if a == self.bot:
                continue
            positions = np.argwhere(self.join == a)
            if all(a in (int(b), int(c)) for b, c in positions):
                out.append(a)
        return out

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
    if not 0 <= a < algebra.n:
        raise IndexError(f"element {a} out of range")
    return algebra.neg(a)


def dense_filter(algebra: FiniteHeytingAlgebra) -> frozenset:
    """Filter of dense elements; the three standard characterisations
    (negation bot, double negation top, of the form b v -b) are computed
    independently and must agree."""
    neg_t = algebra.neg_table
    by_neg = frozenset(np.flatnonzero(neg_t == algebra.bot).tolist())
    by_dneg = frozenset(np.flatnonzero(neg_t[neg_t] == algebra.top).tolist())
    rng = np.arange(algebra.n, dtype=np.intp)
    by_form = frozenset(np.unique(algebra.join[rng, neg_t]).tolist())
    if not (by_neg == by_dneg == by_form):
        raise AssertionError("dense-element characterisations disagree")
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
        raise ValueError("closure_n expects an ideal")
    neg_t = algebra.neg_table
    out = set()
    for b in delta:
        dn = int(neg_t[int(neg_t[b])])
        out.update(np.flatnonzero(algebra.le[:, dn]).tolist())
    return frozenset(out)


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


def heyting_from_json(data: dict) -> FiniteHeytingAlgebra:
    if data.get("type") != "heyting":
        raise ValueError("expected a heyting object")
    return FiniteHeytingAlgebra(data["meet"], data["join"], data["imp"],
                                bot=data["bot"])


def heyting_to_json(algebra: FiniteHeytingAlgebra) -> dict:
    return {
        "type": "heyting",
        "size": algebra.n,
        "bot": algebra.bot,
        "meet": algebra.meet.tolist(),
        "join": algebra.join.tolist(),
        "imp": algebra.imp.tolist(),
    }
