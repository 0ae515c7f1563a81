"""Extracting a Heyting-based twist-structure from a modal one.

For a twist T over a TBA, the pairs whose two components are both open
form a candidate carrier; its first projection (gamma) and the set of
opens a with a v box(not a) in the filter (the lambda set) control when
that candidate really is a twist-structure over a subalgebra of the opens.
"""

from __future__ import annotations

import numpy as np

from .heyting import _closed_under, _mask
from .tba import _boxed_subalgebra, open_elements
from .twist import TwistStructure, _op_tables, _pair_mask, tw

__all__ = [
    "g2", "gamma", "lambda_set", "nabla_g", "delta_g",
    "gamma_imp_closure_equiv", "open_pairs_algebra", "box_pair_closed",
]


def _require_modal(structure):
    if not structure.modal:
        raise ValueError("this operation needs a twist over a TBA")


def _open_pairs(structure):
    """First and second components of the open pairs, in carrier order, as
    read-only arrays kept in the structure's cache."""
    cached = structure._cache.get("open_pairs")
    if cached is None:
        _require_modal(structure)
        opens = structure.base.open_mask()
        keep = opens[structure.firsts] & opens[structure.seconds]
        cached = structure.firsts[keep], structure.seconds[keep]
        for part in cached:
            part.setflags(write=False)
        structure._cache["open_pairs"] = cached
    return cached


def g2(structure: TwistStructure) -> list:
    """Carrier pairs whose components are both open, in carrier order."""
    f, s = _open_pairs(structure)
    return list(zip(f.tolist(), s.tolist()))


def gamma(structure: TwistStructure) -> frozenset:
    """First components of the open pairs."""
    return frozenset(_open_pairs(structure)[0].tolist())


def lambda_set(base, nabla) -> frozenset:
    """Open elements a with a v box(not a) in nabla.

    Verified to be a subalgebra of the open algebra (meet, join, boxed
    implication, bottom) once per (base, nabla): a verified set is kept in
    the base's cache, for at most base.n filters (an open filter is the
    up-set of an open element), and a set that fails is never kept.
    """
    nabla = frozenset(nabla)
    kept = base._cache.setdefault("lambda", {})
    if nabla in kept:
        return kept[nabla]
    rng = np.arange(base.n, dtype=np.intp)
    lam = base.open_mask() & _mask(base.n, nabla)[
        base.join[rng, base.box[base.neg_table]]]
    for name, table in (("meet", base.meet), ("join", base.join),
                        ("implication", base.box[base.imp])):
        if not _closed_under(lam, table):
            raise AssertionError(f"lambda set not closed under {name}")
    if not lam[base.bot]:
        raise AssertionError("lambda set misses bottom")
    lam = frozenset(np.flatnonzero(lam).tolist())
    if len(kept) < base.n:
        kept[nabla] = lam
    return lam


def nabla_g(structure: TwistStructure) -> frozenset:
    """Joins over the open pairs; must coincide with the filter invariant
    restricted to the opens, to gamma, and to the lambda set."""
    base = structure.base
    joined = base.join[_open_pairs(structure)]
    by_def = frozenset(joined.tolist())
    by_opens = structure.nabla & open_elements(base)
    by_gamma = structure.nabla & gamma(structure)
    by_lambda = structure.nabla & lambda_set(base, structure.nabla)
    if not (by_def == by_opens == by_gamma == by_lambda):
        raise AssertionError("filter-invariant characterisations disagree")
    return by_def


def delta_g(structure: TwistStructure) -> frozenset:
    """Meets over the open pairs; must coincide with the ideal invariant
    restricted to the opens and to gamma."""
    base = structure.base
    met = base.meet[_open_pairs(structure)]
    by_def = frozenset(met.tolist())
    by_opens = structure.delta & open_elements(base)
    by_gamma = structure.delta & gamma(structure)
    if not (by_def == by_opens == by_gamma):
        raise AssertionError("ideal-invariant characterisations disagree")
    return by_def


def gamma_imp_closure_equiv(structure: TwistStructure):
    """Two independently computed sides of one equivalence: gamma inside
    the lambda set, and the open pairs being closed under the boxed
    implication."""
    base = structure.base
    lhs = gamma(structure) <= lambda_set(base, structure.nabla)

    f, s = _open_pairs(structure)
    first, second, side = _op_tables(base)["imp"]
    rf = first[f[:, None], f]
    rs = second[(f, s)[side][:, None], s]
    rhs = bool(structure.member[base.box[rf], rs].all())
    return lhs, rhs


def box_pair_closed(structure: TwistStructure) -> bool:
    """Whether applying box to both components keeps every pair inside."""
    _require_modal(structure)
    box = structure.base.box
    return bool(structure.member[box[structure.firsts],
                                 box[structure.seconds]].all())


def open_pairs_algebra(structure: TwistStructure) -> TwistStructure:
    """The open pairs as a twist-structure over the gamma subalgebra.

    Requires gamma to equal the lambda set; refuses otherwise, naming an
    offending element.  The result carries an ``embed`` attribute mapping
    its base indices back into the ambient TBA, and its carrier is checked
    to be exactly the open pairs.
    """
    base = structure.base
    gam = gamma(structure)
    lam = lambda_set(base, structure.nabla)
    if gam != lam:
        missing = sorted(gam - lam) or sorted(lam - gam)
        raise ValueError(
            f"open pairs do not form a twist-structure: element "
            f"{missing[0]} separates gamma from the lambda set")

    embed = sorted(gam)
    pos = {b: i for i, b in enumerate(embed)}
    sub = _boxed_subalgebra(base, embed)
    nabla = frozenset(pos[a] for a in nabla_g(structure))
    delta = frozenset(pos[a] for a in delta_g(structure))
    result = tw(sub, nabla, delta)
    to_base = np.asarray(embed, dtype=np.intp)
    embedded = _pair_mask(base.n, to_base[result.firsts],
                          to_base[result.seconds])
    if not np.array_equal(embedded,
                          _pair_mask(base.n, *_open_pairs(structure))):
        raise AssertionError("open pairs differ from the reconstructed twist")
    result.embed = tuple(embed)
    return result
