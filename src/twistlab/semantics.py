"""Valuations, evaluation and validity over algebras and twist-structures.

Values are evaluated one component at a time.  Over a twist the first
component of a value is built from first components alone, by the base's
own operations; only strong negation reads the other component of its
argument.  Validity compares first components with top, so a scan
computes second components only below a strong negation, and over an
algebra, whose elements are its one component, never.

Validity is decided by exhausting every valuation of the variables that
occur in the formula, rows of a lexicographic grid: with k variables over
m values, row r gives variable i the value r // m**(k-1-i) % m.  The grid
is broadcast, not materialised.  The trailing t variables, the most whose
m**t valuations fit in the first chunk, are arange(m) axes; only the
leading k - t are columns, over the prefixes of the rows scanned.  So a
component is only as large as the variables it mentions, and any
component flattened in C order lists its rows in order.

One scan, _first_refutations, serves is_valid and validity_profile: each
subformula is evaluated over a chunk of the grid at once, the chunks
whole blocks of m**t rows, so that a refuted formula is abandoned after
the chunk that refutes it, and each chunk's verdicts come from one
reduction.  Formulas without strong negation are decided on the base
algebra of a twist-structure instead of on its pairs (their first
components never read a second one, which pi1_commutes verifies
exhaustively); the reported witness is identical.

validity_table decides a batch over every twist on one finite base at
once: tw(base, up(f), down(d)) is the sub-twist of the full twist on the
pairs with f <= a v b and a ^ b <= d, so one pass over the full twist's
grid, counting refutations by where they fall, gives the verdicts of
every (f, d).  The number of valuations of any scan is capped by
TWISTLAB_VALUATION_CAP (default 10**7).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import formula as fm
from .formula import Formula, LanguageTag
from .tba import FiniteTBA
from .twist import TwistStructure, _op_tables, full_twist

__all__ = [
    "LanguageError", "CapExceededError", "ValidityResult",
    "evaluate", "is_valid", "validity_profile", "validity_table",
    "enumerate_formulas", "default_corpus", "twtop_check", "TwTopReport",
    "pi1_commutes",
]

DEFAULT_CAP = 10_000_000
_FIRST_CHUNK = 4096
_BATCH_CELLS = 1 << 20  # valuations x formulas decided by one reduction


class LanguageError(ValueError):
    """Formula uses a connective the structure cannot interpret."""


class CapExceededError(RuntimeError):
    """Valuation space larger than the configured cap."""


def _grid_size(m, k):
    """Rows of the grid of k variables over m values, refused above the
    cap: TWISTLAB_VALUATION_CAP when set, else DEFAULT_CAP."""
    env = os.environ.get("TWISTLAB_VALUATION_CAP")
    try:
        cap = int(env) if env else DEFAULT_CAP
    except ValueError:
        cap = 0  # refused below, with the values under 1
    if cap < 1:
        raise ValueError(f"TWISTLAB_VALUATION_CAP must be a positive "
                         f"integer, not {env!r}")
    total = m ** k
    if total > cap:
        raise CapExceededError(
            f"valuation space {m}^{k} exceeds cap {cap}; raise "
            f"TWISTLAB_VALUATION_CAP to override")
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
    (identity, component) (formulas are interned), which turns a corpus
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
            hit = memo.get(id(phi))
            if hit is None:
                hit = memo[id(phi)] = self._compute(phi, c)
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


def _var_grid(m, k, rows):
    """Columns of the lexicographic enumeration of k variables over m
    values, at ``rows``: an index array, or one index for one valuation."""
    return [rows // m ** (k - 1 - i) % m for i in range(k)]


def _width(structure):
    """Values a variable ranges over: carrier pairs or elements."""
    return structure.size if _is_twist(structure) else structure.n


def _tail(m, k):
    """The trailing variables a grid of k variables over m values holds
    as axes: the most, up to k, whose m**t valuations fit in the first
    chunk.  Each prefix of the other variables spans a block of m**t
    rows."""
    t = 0
    while t < k and m ** (t + 1) <= _FIRST_CHUNK:
        t += 1
    return t


def _grid_vec(structure, names, lo, hi):
    """A _Vec over rows lo..hi-1 of the valuation grid, lo and hi whole
    blocks (_tail).  Its shape is the (hi - lo) / m**t prefixes, then an
    axis of m values for each trailing variable.  The leading variables
    are _var_grid columns over the prefixes, the trailing ones arange(m)
    along their own axis, so a value broadcast to the shape and flattened
    in C order lists rows lo..hi-1 in order."""
    m, k = _width(structure), len(names)
    t = _tail(m, k)
    shape = ((hi - lo) // m ** t,) + (m,) * t
    cols = [c.reshape(-1, *(1,) * t) for c in _var_grid(
        m, k - t, np.arange(lo // m ** t, hi // m ** t, dtype=np.int64))]
    cols += [np.arange(m).reshape([m if a == j else 1 for a in range(t + 1)])
             for j in range(1, t + 1)]
    if _is_twist(structure):
        f, s = structure.firsts, structure.seconds
        assign = {name: (f[c], s[c]) for name, c in zip(names, cols)}
    else:
        assign = {name: (c,) for name, c in zip(names, cols)}
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
        else:
            value = int(value)
            if not 0 <= value < structure.n:
                raise ValueError(f"element {value} out of range")
            assign[name] = (value,)
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


def _positive(phi):
    return not phi.flags & fm.HAS_SNEG


def _scan_target(structure, psi, reduce_positive):
    """The structure psi's validity is decided on: the base of a twist
    for a formula without strong negation, else the structure itself."""
    if reduce_positive and _is_twist(structure) and _positive(psi):
        return structure.base
    return structure


def _first_refutations(structure, names, psis, lo, hi):
    """Each formula's least refuting row among rows lo..hi-1 of the
    valuation grid of ``names``, or None where it holds on all of them.

    Refuted formulas drop out of later chunks, and the scan stops when
    none is left.  In each chunk every pending formula writes
    ``first != top`` into its row of a boolean matrix, filled in batches
    of at most _BATCH_CELLS cells so that its memory stays bounded; one
    argmax over the rows gives a whole batch's first refuting rows.
    """
    first = [None] * len(psis)
    pending = range(len(psis))
    m = _width(structure)
    for clo, chi in _chunks(lo, hi, m ** _tail(m, len(names))):
        step = max(1, _BATCH_CELLS // (chi - clo))
        bad = np.empty((min(step, len(pending)), chi - clo), dtype=bool)
        ev = _grid_vec(structure, names, clo, chi)
        grids = bad.reshape(len(bad), *ev.shape)
        top = ev.base.top
        still = []
        for start in range(0, len(pending), step):
            batch = pending[start:start + step]
            rows = bad[:len(batch)]
            for grid, i in zip(grids, batch):
                np.not_equal(ev.eval(psis[i], 0), top, out=grid)
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
    reports the least witness.  With ``jobs`` > 1 a grid larger than the
    first chunk is split into contiguous ranges of whole blocks scanned by
    a process pool of at most os.cpu_count() workers.  The valuation-space
    size is capped by TWISTLAB_VALUATION_CAP (default 10**7).
    """
    psi = _prepare(structure, phi)
    names = sorted(fm.free_vars(psi))
    k = len(names)
    scan_on = _scan_target(structure, psi, reduce_positive)
    m = _width(scan_on)
    total = _grid_size(m, k)

    if jobs > 1 and total > _FIRST_CHUNK:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, os.cpu_count() or 1)
        block = m ** _tail(m, k)
        bounds = (np.linspace(0, total // block, workers + 1,
                              dtype=np.int64) * block).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = [row for (row,) in pool.map(
                partial(_first_refutations, scan_on, names, [psi]),
                bounds[:-1], bounds[1:]) if row is not None]
        bad = min(hits) if hits else None
    else:
        bad = _first_refutations(scan_on, names, [psi], 0, total)[0]

    if bad is None:
        return ValidityResult(True)
    positions = _var_grid(m, k, bad)
    if scan_on is not structure:
        # map base elements to their first carrier pair; the carrier is
        # sorted by first component, so this preserves least-witness order
        positions = np.searchsorted(structure.firsts, positions).tolist()
    if _is_twist(structure):
        witness = {name: (int(structure.firsts[i]), int(structure.seconds[i]))
                   for name, i in zip(names, positions)}
    else:
        witness = {name: int(i) for name, i in zip(names, positions)}
    value = evaluate(structure, psi, witness)
    return ValidityResult(False, witness, value)


def _grouped(structure, formulas):
    """The formulas prepared for the structure, and the indices of those
    that share one scanned grid: the same positivity, the same free
    variables."""
    psis = [_prepare(structure, phi) for phi in formulas]
    groups: dict = {}
    for i, psi in enumerate(psis):
        groups.setdefault((_positive(psi), psi.free), []).append(i)
    return psis, groups


def validity_profile(structure, formulas,
                     reduce_positive: bool = True) -> list:
    """Validity booleans for a batch of formulas.

    Much faster than mapping is_valid when the formulas share subterms:
    formulas with the same variables and the same positivity, hence the
    same scanned grid, are scanned together, so each chunk of their grid
    is evaluated once per distinct subformula, and formulas refuted
    early drop out of later chunks.
    """
    psis, groups = _grouped(structure, formulas)
    out = [True] * len(psis)
    for (_, free), members in groups.items():
        scan_on = _scan_target(structure, psis[members[0]], reduce_positive)
        names = sorted(free)
        total = _grid_size(_width(scan_on), len(names))
        rows = _first_refutations(scan_on, names,
                                  [psis[i] for i in members], 0, total)
        for i, row in zip(members, rows):
            out[i] = row is None
    return out


def _refutation_counts(structure, names, psis, total):
    """H[i, J, M]: the rows of the valuation grid of ``names`` over a
    twist that refute formula i, counted by J, the meet over the
    variables of a v b, and M, the join of a ^ b.  Chunked as in
    _first_refutations, with no early exit: every row counts."""
    base = structure.base
    n, top = base.n, base.top
    m = structure.size
    counts = np.zeros((len(psis), n * n), dtype=np.int64)
    for clo, chi in _chunks(0, total, m ** _tail(m, len(names))):
        ev = _grid_vec(structure, names, clo, chi)
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
    tw(base, up(f), down(d)), so one call decides every instance over the
    base.  A valuation lies in the sub-twist exactly when f <= J and
    M <= d, with J the meet over its variables of a v b and M the join of
    a ^ b; so each formula is evaluated once over the full twist's grid,
    its refuting rows are counted by (J, M), and le @ H @ le sums, at
    (f, d), those that lie in the sub-twist.  Formulas without strong
    negation are decided once on the base, as validity_profile does, and
    their plane is constant.  The full twist is itself an instance, so
    the cap refuses the table exactly where it refuses that instance.
    """
    structure = full_twist(base)
    n = base.n
    psis, groups = _grouped(structure, formulas)
    valid = np.empty((len(psis), n, n), dtype=bool)
    le = base.le.astype(np.int64)
    for (positive, free), members in groups.items():
        names = sorted(free)
        batch = [psis[i] for i in members]
        if positive:
            rows = _first_refutations(base, names, batch, 0,
                                      _grid_size(n, len(names)))
            for i, row in zip(members, rows):
                valid[i] = row is None
        else:
            counts = _refutation_counts(
                structure, names, batch,
                _grid_size(structure.size, len(names)))
            valid[members] = (le @ counts @ le) == 0
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


def pi1_commutes(structure: TwistStructure, psi: Formula) -> bool:
    """Exhaustively confirm that the first projection of a positive
    formula's value equals the base value of the projected valuation."""
    phi = _prepare(structure, psi)
    if not _positive(phi):
        raise ValueError("pi1_commutes expects a formula without ~")
    names = sorted(fm.free_vars(phi))
    m, k = structure.size, len(names)
    for lo, hi in _chunks(0, _grid_size(m, k), m ** _tail(m, k)):
        ev = _grid_vec(structure, names, lo, hi)
        base_assign = {nm: (f,) for nm, (f, _) in ev.assign.items()}
        base_val = _Vec(structure.base, base_assign).eval(phi, 0)
        if not np.all(ev.eval(phi, 0) == base_val):
            return False
        del ev, base_assign, base_val  # freed before the next grid is built
    return True
