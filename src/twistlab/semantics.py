"""Valuations, evaluation and validity over algebras and twist-structures.

Values are evaluated one component at a time.  Over a twist the first
component of a value is built from first components alone, by the base's
own operations; only strong negation reads the other component of its
argument.  Pushing ~ down to the variables says which: component c of
phi's value reads component j of variable p exactly when (p, j) is in
phi.reads[c] (formula._reads).  Validity compares first components with
top, so a scan computes second components only below a strong negation,
and over an algebra, whose elements are its one component, never.

Validity is decided by exhausting the valuations of the variables that
occur in the formula, each over a domain given by what phi.reads[0]
reads of it:

* both components: every carrier pair;
* the first component only, or the second only: one representative pair
  per base element, the least-indexed carrier pair with that component.
  The first projection of a twist is onto the base, and so is the second,
  since ~ swaps the components, so the representatives take every value
  that is read;
* over an algebra: every element.

Each domain lists its pairs in carrier order, and the valuations are the
rows of a mixed-radix lexicographic grid: with widths w_0..w_{k-1}, row r
gives variable i position r // (w_{i+1} * ... * w_{k-1}) % w_i of its
domain.  The least refuting row is also the least witness over every
pair: replacing each variable's pair by its representative keeps the
value and lowers no position, so the least refuting valuation of the
full grid is made of representatives, which the domains list in carrier
order.  The valuation cap, TWISTLAB_VALUATION_CAP (default 10**7), bounds
the rows of the grid actually scanned.

The grid is broadcast, not materialised.  The trailing t variables, the
most whose product of widths fits in the first chunk, are axes holding
their whole domains; only the leading k - t are columns, over the
prefixes of the rows scanned.  So a component is only as large as the variables it mentions,
and any component flattened in C order lists its rows in order.

One scan, _first_refutations, serves is_valid and validity_profile: each
subformula is evaluated over a chunk of the grid at once, the chunks
whole blocks of the trailing rows, so that a refuted formula is abandoned
after the chunk that refutes it, and each chunk's verdicts come from one
reduction.

validity_table decides a batch over every twist on one finite base at
once: tw(base, up(f), down(d)) is the sub-twist of the full twist on the
pairs with f <= a v b and a ^ b <= d, so one pass over the full twist's
grid, with every variable over every pair, counting refutations by where
they fall, gives the verdicts of every (f, d).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import formula as fm
from .formula import Formula, LanguageTag
from .heyting import _is_index
from .tba import FiniteTBA
from .twist import TwistStructure, _op_tables, full_twist

__all__ = [
    "LanguageError", "CapExceededError", "ValidityResult",
    "evaluate", "is_valid", "validity_profile", "validity_table",
    "enumerate_formulas", "default_corpus", "twtop_check", "TwTopReport",
]

DEFAULT_CAP = 10_000_000
_FIRST_CHUNK = 4096
_BATCH_CELLS = 1 << 20  # valuations x formulas decided by one reduction


class LanguageError(ValueError):
    """Formula uses a connective the structure cannot interpret."""


class CapExceededError(RuntimeError):
    """Valuation space larger than the configured cap."""


def _grid_rows(widths):
    """Rows of the grid of variables over ``widths`` values each, refused
    above the cap: TWISTLAB_VALUATION_CAP when set, else DEFAULT_CAP."""
    env = os.environ.get("TWISTLAB_VALUATION_CAP")
    try:
        cap = int(env) if env else DEFAULT_CAP
    except ValueError:
        cap = 0  # refused below, with the values under 1
    if cap < 1:
        raise ValueError(f"TWISTLAB_VALUATION_CAP must be a positive "
                         f"integer, not {env!r}")
    total = math.prod(widths)
    if total > cap:
        raise CapExceededError(
            f"valuation space {' x '.join(map(str, widths))} = {total} "
            f"exceeds cap {cap}; raise TWISTLAB_VALUATION_CAP to override")
    return total


def _is_twist(structure):
    return isinstance(structure, TwistStructure)


def _prepare(structure, phi):
    """Desugar against the structure's language and check compatibility."""
    if _is_twist(structure):
        target = LanguageTag.Lsbox if structure.modal else LanguageTag.Ls
        unsupported = 0 if structure.modal else fm.HAS_MODAL
    elif isinstance(structure, FiniteTBA):
        target, unsupported = LanguageTag.Lbox, fm.HAS_SNEG
    else:
        target, unsupported = LanguageTag.Li, fm.HAS_SNEG | fm.HAS_MODAL
    psi = fm.desugar(phi, target)
    found = psi.flags & unsupported
    if found & fm.HAS_SNEG:
        raise LanguageError("strong negation needs a twist-structure")
    if found:
        raise LanguageError("modal connectives need a TBA (or a twist over one)")
    return psi


# ---------------------------------------------------------------------------
# Vectorised evaluation

_MEMO_HEIGHT = 3


class _Vec:
    """Evaluates formulas over a broadcast grid of valuations, one
    component at a time.

    ``assign`` maps each variable to the components of its value:
    (firsts, seconds) over a twist, (elements,) over an algebra.
    eval(phi, c) is component c of phi's value, an index array that
    broadcasts to ``shape`` with a real axis only for the variables it
    mentions (bot's is a plain index).  Component 0 reads components 0
    only, so an algebra is only asked for it; strong negation reads the
    other component of its argument.  Small subformulas are memoised by
    (node, component) (formulas are interned), which turns a corpus
    sharing subterms into a DAG sweep.
    """

    def __init__(self, structure, assign, shape=()):
        self.base = structure.base if _is_twist(structure) else structure
        self.ops = _op_tables(self.base)
        self.assign = assign
        self.shape = shape
        self.memo = ({}, {})

    def eval(self, phi, c):
        if phi.height <= _MEMO_HEIGHT:
            memo = self.memo[c]
            hit = memo.get(phi)
            if hit is None:
                hit = memo[phi] = self._compute(phi, c)
            return hit
        return self._compute(phi, c)

    def _compute(self, phi, c):
        kind = phi.kind
        if kind == "var":
            try:
                return self.assign[phi.name][c]
            except KeyError:
                raise KeyError(f"unbound variable {phi.name!r}") from None
        if kind == "bot":
            return self.base.top if c else self.base.bot
        if kind == "sneg":
            return self.eval(phi.args[0], 1 - c)
        try:
            first, second, side = self.ops[kind]
        except KeyError:
            raise LanguageError(f"cannot interpret {kind!r} here") from None
        # a second component reads the first argument's ``side``
        x = self.eval(phi.args[0], side if c else 0)
        table = second if c else first
        if len(phi.args) == 1:
            return table[x]
        return table[x, self.eval(phi.args[1], c)]


def _columns(widths, rows):
    """Columns of the mixed-radix lexicographic enumeration of variables
    over ``widths`` values each, at ``rows``: an index array, or one index
    for one valuation."""
    out, stride = [], 1
    for w in reversed(widths):
        out.append(rows // stride % w)
        stride *= w
    return out[::-1]


def _domains(structure):
    """What a variable ranges over, by the components of it that are
    read: 1 (the first only), 2 (the second only) or 3 (both), as the
    components of its values in carrier order, (firsts, seconds) over a
    twist and (elements,) over an algebra.  Over a twist, 1 and 2 hold the
    least-indexed pair with each first, or each second, component.  Built
    once per structure."""
    domains = structure._cache.get("domains")
    if domains is None:
        if _is_twist(structure):
            f, s = structure.firsts, structure.seconds
            one = np.unique(f, return_index=True)[1]
            two = np.sort(np.unique(s, return_index=True)[1])
            domains = {1: (f[one], s[one]), 2: (f[two], s[two]), 3: (f, s)}
        else:
            domains = dict.fromkeys((1, 3), (np.arange(structure.n),))
        structure._cache["domains"] = domains
    return domains


def _grid(structure, psi, reduce_positive=True):
    """psi's variables, sorted, each mapped to the domain it ranges over:
    by what psi.reads[0] reads of it, or every value when
    ``reduce_positive`` is False."""
    domains = _domains(structure)
    reads = psi.reads[0]
    if not reduce_positive:
        return {name: domains[3] for name in sorted(psi.free)}
    return {name: domains[((name, 0) in reads) + 2 * ((name, 1) in reads)]
            for name in sorted(psi.free)}


def _widths(grid):
    return [len(domain[0]) for domain in grid.values()]


def _tail(widths):
    """The trailing variables a grid holds as axes, and the rows they
    span: the most variables, from the last, whose product of widths fits
    in the first chunk.  Each prefix of the other variables spans one
    block of that many rows."""
    t, block = 0, 1
    for w in reversed(widths):
        if block * w > _FIRST_CHUNK:
            break
        t, block = t + 1, block * w
    return t, block


def _grid_vec(structure, grid, lo, hi):
    """A _Vec over rows lo..hi-1 of the valuation grid ``grid`` (name ->
    domain), lo and hi whole blocks (_tail).  Its shape is the
    (hi - lo) / block prefixes, then an axis for each trailing variable as
    long as its domain.  The leading variables are their domains read at
    _columns over the prefixes, the trailing ones their whole domains
    along their own axes, so a value broadcast to the shape and flattened
    in C order lists rows lo..hi-1 in order.  A grid of at most
    _FIRST_CHUNK rows, as most queries' grids are, has no leading variable
    and builds no columns."""
    widths = _widths(grid)
    t, block = _tail(widths)
    lead = len(widths) - t
    shape = ((hi - lo) // block, *widths[lead:])
    cols = ()
    if lead:
        cols = [c.reshape(-1, *(1,) * t) for c in _columns(
            widths[:lead],
            np.arange(lo // block, hi // block, dtype=np.int64))]
    assign = {}  # tuple() of a list costs less than of a generator
    for i, (name, domain) in enumerate(grid.items()):
        if i < lead:
            assign[name] = tuple([part[cols[i]] for part in domain])
        else:  # the whole domain, along the variable's own axis
            axis = [1] * (t + 1)
            axis[i - lead + 1] = -1
            assign[name] = tuple([part.reshape(axis) for part in domain])
    return _Vec(structure, assign, shape)


def _chunks(lo, hi, block):
    """Rows lo..hi-1 in order, in whole blocks (lo and hi are multiples
    of ``block``, at most _FIRST_CHUNK): at most _FIRST_CHUNK rows first,
    then at most 2**20 at a time."""
    step = _FIRST_CHUNK // block * block
    while lo < hi:
        end = min(hi, lo + step)
        yield lo, end
        lo = end
        step = (1 << 20) // block * block


# ---------------------------------------------------------------------------
# Single-valuation evaluation


def evaluate(structure, phi: Formula, valuation: dict):
    """Homomorphic extension of a valuation; returns an element index or,
    on a twist-structure, a pair of them."""
    psi = _prepare(structure, phi)
    assign = {}
    twist = _is_twist(structure)
    for name in sorted(fm.free_vars(psi)):
        if name not in valuation:
            raise KeyError(f"unbound variable {name!r}")
        value = valuation[name]
        if twist:
            a, b = value
            if (a, b) not in structure:
                raise ValueError(f"pair {value} not in carrier")
            assign[name] = (a, b)
        elif _is_index(value) and 0 <= value < structure.n:
            assign[name] = (int(value),)
        else:
            raise ValueError(f"element {value} out of range")
    ev = _Vec(structure, assign)
    if twist:
        return (int(ev.eval(psi, 0)), int(ev.eval(psi, 1)))
    return int(ev.eval(psi, 0))


# ---------------------------------------------------------------------------
# Validity


@dataclass
class ValidityResult:
    valid: bool
    witness: dict | None = None
    value: object = None

    def __bool__(self):
        return self.valid

    def witness_json(self):
        if self.valid:
            return None
        val = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in self.witness.items()}
        value = list(self.value) if isinstance(self.value, tuple) else self.value
        return {"valuation": val, "value": value}


def _first_refutations(structure, grid, psis, lo, hi):
    """Each formula's least refuting row among rows lo..hi-1 of the
    valuation grid ``grid``, or None where it holds on all of them.

    Refuted formulas drop out of later chunks, and the scan stops when
    none is left.  In each chunk every pending formula writes
    ``first != top`` into its row of a boolean matrix, filled in batches
    of at most _BATCH_CELLS cells so that its memory stays bounded; one
    argmax over the rows gives a whole batch's first refuting rows.
    """
    first = [None] * len(psis)
    pending = range(len(psis))
    for clo, chi in _chunks(lo, hi, _tail(_widths(grid))[1]):
        step = max(1, _BATCH_CELLS // (chi - clo))
        bad = np.empty((min(step, len(pending)), chi - clo), dtype=bool)
        ev = _grid_vec(structure, grid, clo, chi)
        views = bad.reshape(len(bad), *ev.shape)
        top = ev.base.top
        still = []
        for start in range(0, len(pending), step):
            batch = pending[start:start + step]
            rows = bad[:len(batch)]
            for view, i in zip(views, batch):
                np.not_equal(ev.eval(psis[i], 0), top, out=view)
            # argmax is 0 for a refutation at the chunk's first row and
            # for none at all: the first column tells them apart
            for i, offset, at_first in zip(batch,
                                           rows.argmax(axis=1).tolist(),
                                           rows[:, 0].tolist()):
                if offset or at_first:
                    first[i] = clo + offset
                else:
                    still.append(i)
        pending = still
        if not pending:
            break
        del ev  # free this chunk's values before the next grid is built
    return first


def is_valid(structure, phi: Formula, jobs: int = 1,
             reduce_positive: bool = True) -> ValidityResult:
    """Exhaustive validity over all valuations of the variables in phi.

    Valuations are ordered lexicographically (variables sorted by name,
    values by element index, pairs by carrier position); a refutation
    reports the least witness and its value.  Over a twist a variable
    whose value phi reads at one component only ranges over one
    representative pair per base element, the least-indexed pair with
    that component; the witness is the same as over every pair (see the
    module docstring).  ``reduce_positive=False`` scans every pair for
    every variable.  With ``jobs`` > 1 a grid larger than the first chunk
    is split into contiguous ranges of whole blocks scanned by a process
    pool of at most os.cpu_count() workers.  The rows of the grid scanned
    are capped by TWISTLAB_VALUATION_CAP (default 10**7).
    """
    psi = _prepare(structure, phi)
    grid = _grid(structure, psi, reduce_positive)
    widths = _widths(grid)
    total = _grid_rows(widths)

    if jobs > 1 and total > _FIRST_CHUNK:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, os.cpu_count() or 1)
        block = _tail(widths)[1]
        bounds = (np.linspace(0, total // block, workers + 1,
                              dtype=np.int64) * block).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = [row for (row,) in pool.map(
                partial(_first_refutations, structure, grid, [psi]),
                bounds[:-1], bounds[1:]) if row is not None]
        bad = min(hits) if hits else None
    else:
        bad = _first_refutations(structure, grid, [psi], 0, total)[0]

    if bad is None:
        return ValidityResult(True)
    witness = {name: tuple(int(part[i]) for part in domain)
               for (name, domain), i in zip(grid.items(),
                                            _columns(widths, bad))}
    # the witness's values are carrier pairs or elements by construction
    ev = _Vec(structure, witness)
    if _is_twist(structure):
        return ValidityResult(False, witness,
                              (int(ev.eval(psi, 0)), int(ev.eval(psi, 1))))
    return ValidityResult(False, {name: a for name, (a,) in witness.items()},
                          int(ev.eval(psi, 0)))


def _grouped(structure, formulas, reduce_positive=True):
    """The formulas prepared for the structure, and the indices of those
    that share one scanned grid, by what they read of which variables
    (only by their variables when ``reduce_positive`` is False)."""
    psis = [_prepare(structure, phi) for phi in formulas]
    groups: dict = {}
    for i, psi in enumerate(psis):
        key = psi.reads[0] if reduce_positive else psi.free
        groups.setdefault(key, []).append(i)
    return psis, groups


def validity_profile(structure, formulas,
                     reduce_positive: bool = True) -> list:
    """Validity booleans for a batch of formulas, each equal to
    is_valid(structure, phi, reduce_positive=reduce_positive).valid.

    Much faster than mapping is_valid when the formulas share subterms:
    formulas that read the same components of the same variables, hence
    scan the same grid, are scanned together, so each chunk of their grid
    is evaluated once per distinct subformula, and formulas refuted
    early drop out of later chunks.
    """
    psis, groups = _grouped(structure, formulas, reduce_positive)
    out = [True] * len(psis)
    for members in groups.values():
        grid = _grid(structure, psis[members[0]], reduce_positive)
        rows = _first_refutations(structure, grid,
                                  [psis[i] for i in members], 0,
                                  _grid_rows(_widths(grid)))
        for i, row in zip(members, rows):
            out[i] = row is None
    return out


def _refutation_counts(structure, grid, psis, total):
    """H[i, J, M]: the rows of the valuation grid ``grid``, every variable
    over every pair of a twist, that refute formula i, counted by J, the
    meet over the variables of a v b, and M, the join of a ^ b.  Chunked
    as in _first_refutations, with no early exit: every row counts."""
    base = structure.base
    n, top = base.n, base.top
    counts = np.zeros((len(psis), n * n), dtype=np.int64)
    for clo, chi in _chunks(0, total, _tail(_widths(grid))[1]):
        ev = _grid_vec(structure, grid, clo, chi)
        meet_of_joins, join_of_meets = top, base.bot
        for a, b in ev.assign.values():
            meet_of_joins = base.meet[meet_of_joins, base.join[a, b]]
            join_of_meets = base.join[join_of_meets, base.meet[a, b]]
        cells = np.broadcast_to(meet_of_joins * n + join_of_meets, ev.shape)
        refuted = np.empty(ev.shape, dtype=bool)
        for row, psi in zip(counts, psis):
            np.not_equal(ev.eval(psi, 0), top, out=refuted)
            row += np.bincount(cells[refuted], minlength=n * n)
        del ev, cells, refuted  # freed before the next grid is built
    return counts.reshape(len(psis), n, n)


def validity_table(base, formulas) -> np.ndarray:
    """valid[i, f, d]: is formula i valid in the sub-twist of
    full_twist(base) on the pairs (a, b) with f <= a v b and a ^ b <= d?

    When up(f) is a filter with every dense element (an open filter over
    a TBA) and down(d) an ideal (a closed ideal), that sub-twist is
    tw(base, up(f), down(d)), whose ``cell`` is (f, d), so one call
    decides every instance over the base.  A valuation lies in the
    sub-twist exactly when f <= J and M <= d, with J the meet over its
    variables of a v b and M the join of a ^ b; so each formula is
    evaluated once over the full twist's grid, every variable over every
    pair, its refuting rows are counted by (J, M), and le @ H @ le sums,
    at (f, d), those that lie in the sub-twist.  A formula that reads no variable at both components is
    decided once, as is_valid decides it on the full twist: in every
    twist its variables still range over the whole base, as both
    projections are onto it, so its plane is constant.  The cap bounds the
    grid scanned, so it refuses the table where it refuses is_valid on the
    full twist, and also where a formula that reads some variable at both
    components has more pairs over all of its variables than the cap.
    """
    structure = full_twist(base)
    n = base.n
    psis, groups = _grouped(structure, formulas)
    valid = np.empty((len(psis), n, n), dtype=bool)
    le = base.le.astype(np.int64)
    for reads, members in groups.items():
        batch = [psis[i] for i in members]
        both = any((name, 1 - j) in reads for name, j in reads)
        grid = _grid(structure, batch[0], reduce_positive=not both)
        total = _grid_rows(_widths(grid))
        if both:
            counts = _refutation_counts(structure, grid, batch, total)
            valid[members] = (le @ counts @ le) == 0
        else:
            rows = _first_refutations(structure, grid, batch, 0, total)
            for i, row in zip(members, rows):
                valid[i] = row is None
    return valid


# ---------------------------------------------------------------------------
# Formula corpora

_VAR_NAMES = "pqrstuvw"

_UNARY = {
    LanguageTag.Li: (),
    LanguageTag.Ls: (fm.SNeg,),
    LanguageTag.Lbox: (fm.Box,),
    LanguageTag.Lsbox: (fm.SNeg, fm.Box, fm.Dia),
}


def enumerate_formulas(language, depth: int, nvars: int, budget: int) -> list:
    """All formulas of the language with tree height at most ``depth`` over
    the first ``nvars`` variables, in a fixed deterministic order (by
    height; unary applications before binary; connectives in a fixed
    order), truncated to ``budget``."""
    if isinstance(language, str):
        language = LanguageTag(language)
    if nvars > len(_VAR_NAMES):
        raise ValueError(f"at most {len(_VAR_NAMES)} variables supported")
    unary = _UNARY[language]
    binary = (fm.And, fm.Or, fm.Imp)
    atoms = [fm.Var(_VAR_NAMES[i]) for i in range(nvars)] + [fm.Bot]
    out = list(atoms[:budget])
    prev_new, everything = list(atoms), list(atoms)
    for _ in range(depth):
        if len(out) >= budget:
            break
        fresh = []
        for op in unary:
            for arg in prev_new:
                fresh.append(op(arg))
        cutoff = len(everything) - len(prev_new)
        for op in binary:
            for i, lhs in enumerate(everything):
                for j, rhs in enumerate(everything):
                    if i >= cutoff or j >= cutoff:
                        fresh.append(op(lhs, rhs))
        for phi in fresh:
            if len(out) >= budget:
                break
            out.append(phi)
        everything = everything + fresh
        prev_new = fresh
    return out[:budget]


def default_corpus(budget: int = 2000) -> list:
    """Corpus used by the translation-equivalence checks: the Nelson axiom
    schemes, the two Kleene axioms and the closed-ideal axiom, then an
    enumerated sample of two-variable formulas."""
    corpus = list(fm.axioms("N4BOT"))
    corpus += [fm.KLEENE_AXIOM, fm.KLEENE_PRIME_AXIOM, fm.CLOSED_IDEAL_AXIOM]
    corpus += enumerate_formulas(LanguageTag.Ls, 2, 2, budget)
    return corpus


# ---------------------------------------------------------------------------
# The translation equivalence report


@dataclass
class TwTopReport:
    grz_holds: bool
    lambda_is_opens: bool
    rows: list  # (formula, open_pairs_valid | None, translated_valid)

    @property
    def hypotheses_hold(self) -> bool:
        return self.grz_holds and self.lambda_is_opens

    @property
    def mismatches(self) -> list:
        return [row for row in self.rows
                if row[1] is not None and row[1] != row[2]]

    def to_json(self):
        return {
            "grz_holds": self.grz_holds,
            "lambda_is_opens": self.lambda_is_opens,
            "rows": [
                {"formula": fm.pretty(phi), "open_pairs": lhs,
                 "translated": rhs}
                for phi, lhs, rhs in self.rows
            ],
            "mismatches": len(self.mismatches),
        }


def twtop_check(structure: TwistStructure, formulas) -> TwTopReport:
    """For each formula, compare validity in the algebra of open pairs with
    validity of its strong-negation translation in the twist itself.

    When the base satisfies the Grzegorczyk axiom and the opens all lie in
    the relevant lambda set, the two sides must agree; otherwise the pairs
    are reported as observations only.
    """
    from . import openpairs, tba

    if not structure.modal:
        raise LanguageError("twtop_check needs a twist over a TBA")
    base = structure.base
    grz_holds = tba.satisfies_grz(base)[0]
    lam = openpairs.lambda_set(base, structure.nabla)
    lambda_is_opens = lam == tba.open_elements(base)

    gamma = openpairs.gamma(structure)
    open_side = None
    if gamma == lam:
        open_side = openpairs.open_pairs_algebra(structure)

    translated = [fm.belnap_translate(fm.desugar(phi)) for phi in formulas]
    rhs = validity_profile(structure, translated)
    if open_side is not None:
        lhs = validity_profile(open_side, list(formulas))
    else:
        lhs = [None] * len(formulas)
    rows = list(zip(formulas, lhs, rhs))
    report = TwTopReport(grz_holds, lambda_is_opens, rows)
    if report.hypotheses_hold and report.mismatches:
        raise AssertionError(
            "translation equivalence failed although its hypotheses hold")
    return report

