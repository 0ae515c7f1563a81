"""Finite posets and their up-set Heyting algebras.

Elements are 0..n-1; the order relation is kept as one bitmask per element
(``up[i]`` has bit j set when i <= j).  Subsets of the carrier are plain
bitmask ints throughout, and ``_bits`` is the one walk over their set
bits.

``up_sets`` is the reference enumeration of the up-sets: a plain filter
over all subsets, in (popcount, value) order.  No builder calls it.
``heyting_from_poset`` builds its algebra through ``tba.powerset_tba`` and
lists the up-sets in the same order; in ``test_order``,
``test_birkhoff_round_trip_small`` and
``test_birkhoff_round_trip_size5_classes`` index its elements by
``up_sets``, and ``test_up_sets_examples``,
``test_up_sets_against_bruteforce`` and ``test_up_sets_lattice_closure``
check ``up_sets`` itself.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .heyting import FiniteHeytingAlgebra

__all__ = [
    "FinitePoset", "validate_poset", "up_sets",
    "heyting_from_poset", "join_irreducible_poset", "enumerate_posets",
    "poset_from_json", "poset_to_json",
]


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Partial order on 0..n-1, stored as per-element up-masks."""

    __slots__ = ("n", "up")

    def __init__(self, n: int, up: tuple):
        self.n = n
        self.up = tuple(up)

    @classmethod
    def from_pairs(cls, n, pairs, closure=False):
        """Build from (i, j) pairs meaning i <= j.

        With ``closure`` the reflexive-transitive closure is applied first;
        otherwise the relation is taken exactly as given.
        """
        up = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range for size {n}")
            up[i] |= 1 << j
        if closure:  # reflexive, then Warshall over the rows
            for i in range(n):
                up[i] |= 1 << i
            for k in range(n):
                for i in range(n):
                    if up[i] >> k & 1:
                        up[i] |= up[k]
        return cls(n, tuple(up))

    def leq(self, i, j) -> bool:
        return bool(self.up[i] >> j & 1)

    def pairs(self):
        return [(i, j) for i in range(self.n) for j in _bits(self.up[i])]

    def relation_mask(self) -> int:
        """All pairs packed into one int, row-major; fixes enumeration order."""
        mask = 0
        for i in range(self.n):
            mask |= self.up[i] << (i * self.n)
        return mask

    def up_closure_mask(self, subset: int) -> int:
        out = 0
        for i in _bits(subset):
            out |= self.up[i]
        return out

    def is_up_set(self, subset: int) -> bool:
        return self.up_closure_mask(subset) == subset

    def maximal_mask(self) -> int:
        """Elements with no strictly greater element."""
        out = 0
        for i in range(self.n):
            if self.up[i] == 1 << i:
                out |= 1 << i
        return out

    def canonical_key(self):
        """Least relation mask over all relabelings; isomorphism invariant."""
        n, pairs = self.n, self.pairs()
        return (n, min(sum(1 << (perm[i] * n + perm[j]) for i, j in pairs)
                       for perm in permutations(range(n))))

    def __eq__(self, other):
        return (isinstance(other, FinitePoset)
                and self.n == other.n and self.up == other.up)

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        strict = [(i, j) for i, j in self.pairs() if i != j]
        return f"FinitePoset(n={self.n}, lt={strict})"


def validate_poset(poset: FinitePoset):
    """None when the relation is a partial order, else the first violation."""
    n, up = poset.n, poset.up
    if n < 1:
        return "carrier must be non-empty"
    for i in range(n):
        if not up[i] >> i & 1:
            return f"reflexivity violated: ({i}, {i}) missing"
    for i in range(n):
        for j in range(n):
            if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                return f"antisymmetry violated: ({i}, {j}) and ({j}, {i})"
    for i in range(n):
        for j in _bits(up[i]):
            if up[j] & ~up[i]:
                k = (up[j] & ~up[i]).bit_length() - 1
                return (f"transitivity violated: ({i}, {j}) and ({j}, {k}) "
                        f"but ({i}, {k}) missing")
    return None


def _check(poset):
    report = validate_poset(poset)
    if report is not None:
        raise ValueError(report)


def up_sets(poset: FinitePoset) -> list:
    """All up-closed subsets as bitmasks, sorted by (popcount, value)."""
    _check(poset)
    found = [s for s in range(1 << poset.n) if poset.is_up_set(s)]
    found.sort(key=lambda s: (bin(s).count("1"), s))
    return found


def heyting_from_poset(poset: FinitePoset) -> FiniteHeytingAlgebra:
    """Heyting algebra of up-sets: the open algebra of
    ``powerset_tba(poset)``, with the up-sets in the order of ``up_sets``.
    Meet and join are intersection and union, and U -> V is the largest
    up-set whose meet with U lies in V (the interior of not-U or V)."""
    from .tba import open_algebra, powerset_tba

    _check(poset)
    return open_algebra(powerset_tba(poset))[0]


def join_irreducible_poset(algebra: FiniteHeytingAlgebra) -> FinitePoset:
    """Poset of the join-irreducible elements under the reversed algebra
    order: point i is ``algebra.join_irreducibles()[i]``.

    The reversal makes ``a -> {i : irreducible i <= a}`` an isomorphism
    onto the up-sets of the result, so composing with heyting_from_poset
    round trips; ``tba.s_of`` builds and checks that map.
    """
    irr = algebra.join_irreducibles()
    below = algebra.le[np.ix_(irr, irr)]            # [j, i]: irr[j] <= irr[i]
    up = (1 << np.arange(len(irr), dtype=np.intp)) @ below
    return FinitePoset(len(irr), tuple(up.tolist()))


def _extensions(n, up, dsets, usets):
    """All ways to attach element n with a (down-set, up-set) pair: u
    misses d and lies above every point of d."""
    out = []
    for d in dsets:
        above = -1
        for i in _bits(d):
            above &= up[i]
        out += [(d, u) for u in usets if not d & u and not u & ~above]
    return out


def enumerate_posets(max_n: int, dedup: bool = False):
    """Yield every labeled poset of size 1..max_n, ordered by size then by
    relation mask.  With ``dedup`` only one representative per isomorphism
    class is produced (still in that order)."""
    if max_n < 1:
        return
    level = [FinitePoset(1, (1,))]
    for n in range(1, max_n + 1):
        batch = sorted(level, key=lambda p: p.relation_mask())
        if dedup:
            seen = set()
            for poset in batch:
                key = poset.canonical_key()
                if key not in seen:
                    seen.add(key)
                    yield poset
        else:
            yield from batch
        if n == max_n:
            break
        nxt = []
        for poset in level:
            dsets = [s for s in range(1 << n)
                     if poset.is_up_set(((1 << n) - 1) & ~s)]
            usets = [s for s in range(1 << n) if poset.is_up_set(s)]
            newbit = 1 << n
            for d, u in _extensions(n, poset.up, dsets, usets):
                up = list(poset.up)
                for i in _bits(d):
                    up[i] |= newbit
                up.append(u | newbit)
                nxt.append(FinitePoset(n + 1, tuple(up)))
        level = nxt


# ---------------------------------------------------------------------------
# JSON interface: {"type": "poset", "size": n, "le": [[i, j], ...],
#                  "closure": bool?}


def poset_from_json(data: dict) -> FinitePoset:
    if data.get("type") != "poset":
        raise ValueError("expected a poset object")
    n, pairs = data["size"], data.get("le", [])
    if type(n) is not int:
        raise ValueError("size must be an integer")
    if not (isinstance(pairs, list) and all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(type(i) is int for i in pair) for pair in pairs)):
        raise ValueError("le must be a list of [i, j] pairs of integers")
    return FinitePoset.from_pairs(n, pairs, closure=bool(data.get("closure")))


def poset_to_json(poset: FinitePoset) -> dict:
    return {"type": "poset", "size": poset.n, "le": poset.pairs()}
