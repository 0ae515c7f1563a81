"""Kripke frames over finite posets, with exhaustive frame validity.

A model assigns each variable a set of worlds; implication is classical at
each world and box quantifies over the up-set.  Frame validity scans every
valuation, vectorised as one bitmask-over-worlds per valuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formula as fm
from .formula import Formula, LanguageTag
from .order import FinitePoset, _bits, enumerate_posets, poset_to_json
from .semantics import LanguageError, _columns, _grid_rows

__all__ = [
    "KripkeModel", "FrameResult", "frame_valid",
    "frame_validity_profile", "grz_refutation_search", "lemma_323_formula",
    "lemma_323_premise_vacuous",
]


@dataclass
class KripkeModel:
    frame: FinitePoset
    valuation: dict  # var name -> frozenset of worlds

    def to_json(self):
        return {
            "frame": poset_to_json(self.frame),
            "valuation": {name: sorted(worlds)
                          for name, worlds in self.valuation.items()},
        }


def _frame_grid(frame, names):
    """Every valuation of the names on the frame, as one world bitmask
    column per name, in lexicographic order."""
    widths = (1 << frame.n,) * len(names)
    rows = np.arange(_grid_rows(widths), dtype=np.int64)
    return dict(zip(names, _columns(widths, rows)))


def _modal_core(phi):
    psi = fm.desugar(phi, LanguageTag.Lbox)
    if fm.language_of(psi) not in (LanguageTag.Li, LanguageTag.Lbox):
        raise LanguageError("Kripke semantics covers the box language only")
    return psi


class _FrameVec:
    """Evaluates a formula as truth bitmasks over all valuations at once."""

    def __init__(self, frame, assign):
        self.frame = frame
        self.full = (1 << frame.n) - 1
        self.assign = assign
        self.memo = {}

    def eval(self, phi):
        hit = self.memo.get(phi)
        if hit is None:
            hit = self.memo[phi] = self._compute(phi)
        return hit

    def _compute(self, phi):
        kind = phi.kind
        if kind == "var":
            return self.assign[phi.name]
        if kind == "bot":
            return np.zeros_like(next(iter(self.assign.values()))) \
                if self.assign else np.zeros(1, dtype=np.int64)
        if kind == "and":
            return self.eval(phi.args[0]) & self.eval(phi.args[1])
        if kind == "or":
            return self.eval(phi.args[0]) | self.eval(phi.args[1])
        if kind == "imp":
            return (~self.eval(phi.args[0]) | self.eval(phi.args[1])) \
                & self.full
        if kind == "box":
            inner = self.eval(phi.args[0])
            out = np.zeros_like(inner)
            for x in range(self.frame.n):
                up = self.frame.up[x]
                out |= ((inner & up) == up).astype(np.int64) << x
            return out
        raise LanguageError(f"cannot interpret {kind!r} in a frame")


@dataclass
class FrameResult:
    valid: bool
    model: KripkeModel | None = None
    world: int | None = None

    def __bool__(self):
        return self.valid

    def to_json(self):
        if self.valid:
            return {"valid": True}
        out = self.model.to_json()
        out["world"] = self.world
        return out


def frame_valid(frame: FinitePoset, phi: Formula) -> FrameResult:
    """Validity over every model on the frame; refutations report the
    least valuation (variables sorted, subsets by bitmask) and world."""
    psi = _modal_core(phi)
    assign = _frame_grid(frame, sorted(fm.free_vars(psi)))
    ev = _FrameVec(frame, assign)
    out = ev.eval(psi)
    bad = np.flatnonzero(out != ev.full)
    if not len(bad):
        return FrameResult(True)
    index = int(bad[0])
    false_at = int(out[index]) ^ ev.full
    world = next(_bits(false_at))
    valuation = {name: frozenset(_bits(int(col[index])))
                 for name, col in assign.items()}
    return FrameResult(False, KripkeModel(frame, valuation), world)


def frame_validity_profile(frame: FinitePoset, formulas) -> list:
    """Validity booleans for a batch of formulas on one frame, sharing the
    valuation grid and subformula evaluations."""
    psis = [_modal_core(phi) for phi in formulas]
    names = sorted(set().union(*(fm.free_vars(psi) for psi in psis))
                   if psis else ())
    ev = _FrameVec(frame, _frame_grid(frame, names))
    return [bool((ev.eval(psi) == ev.full).all()) for psi in psis]


def grz_refutation_search(phi: Formula, max_worlds: int) -> FrameResult | None:
    """Scan all labeled posets up to the size bound, smallest first and
    within a size by relation mask, for a refuting model.

    None means no refutation within the bound: evidence, not proof.
    """
    for frame in enumerate_posets(max_worlds):
        result = frame_valid(frame, phi)
        if not result.valid:
            return result
    return None


_p, _q = fm.Var("p"), fm.Var("q")

_LEMMA_323 = fm.Imp(
    fm.And(fm.Box(fm.Or(_p, _q)),
           fm.And(fm.Or(fm.Box(_p), fm.Box(fm.Dia(fm.Neg(_p)))),
                  fm.Or(fm.Box(_q), fm.Box(fm.Dia(fm.Neg(_q)))))),
    fm.Or(fm.Box(_p), fm.Box(_q)))


def lemma_323_formula() -> Formula:
    """A disjunction-splitting law of the Grzegorczyk logic: if p v q holds
    hereditarily and each disjunct is either boxed or hereditarily
    refutable somewhere above, then one disjunct is boxed."""
    return _LEMMA_323


_STRONG_PREMISE = fm.And(
    fm.Box(fm.Or(_p, _q)),
    fm.And(fm.Box(fm.Dia(fm.Neg(_p))), fm.Box(fm.Dia(fm.Neg(_q)))))


def lemma_323_premise_vacuous(frame: FinitePoset) -> bool:
    """The maximal-world argument behind lemma_323_formula, transcribed.

    On a finite frame no world can force box(p v q) together with
    box dia not-p and box dia not-q: a maximal world above it would have
    to refute both disjuncts while forcing their disjunction.  Returns
    True when (a) no model/world forces the conjunction and (b) at every
    maximal world, dia phi and phi agree for the relevant refutands.
    """
    psi = _modal_core(_STRONG_PREMISE)
    ev = _FrameVec(frame, _frame_grid(frame, sorted(fm.free_vars(psi))))
    if ev.eval(psi).any():
        return False
    maximal = frame.maximal_mask()
    for atom in (_p, _q):
        plain = ev.eval(_modal_core(fm.Neg(atom)))
        somewhere = ev.eval(_modal_core(fm.Dia(fm.Neg(atom))))
        if ((plain ^ somewhere) & maximal).any():
            return False
    return True
