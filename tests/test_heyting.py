import tracemalloc

import numpy as np
import pytest

from conftest import slow_is_filter, slow_is_ideal
from twistlab import heyting, order, tba
from twistlab.heyting import FiniteHeytingAlgebra


@pytest.fixture(scope="module")
def small_algebras():
    "Every up-set algebra from posets of size up to 3 (up to 8 elements)."
    return [order.heyting_from_poset(p) for p in order.enumerate_posets(3)]


def test_validate_passes_for_generated(small_algebras):
    for algebra in small_algebras:
        assert algebra.validate() is None


def test_validate_catches_broken_imp(three):
    imp = three.imp.copy()
    imp[1, 0] = 1  # mid -> bot should be bot
    broken = FiniteHeytingAlgebra(three.meet, three.join, imp, bot=three.bot)
    report = broken.validate()
    assert report is not None and "residuation" in report


def test_validate_counts_no_paths_modulo_256():
    """The order a <= b_i <= c for 256 middle elements b_i, without
    a <= c: the one transitivity violation has exactly 256 paths, which
    a path count in uint8 wraps to 0."""
    n = 258
    a, c = 0, 1
    meet = np.zeros((n, n), dtype=np.intp)  # x meet y == x iff x <= y
    for x in range(n):
        for y in range(n):
            below = x == y or x == a and y != c or x not in (a, c) and y == c
            meet[x, y] = x if below else (c if x == a else a)
    zeros = np.zeros((n, n), dtype=np.intp)
    report = FiniteHeytingAlgebra(meet, zeros, zeros, bot=a).validate()
    assert report == ("order not transitive: "
                      f"{a} <= ... <= {c} but not {a} <= {c}")


def test_validate_memory_bounded():
    """validate builds its n^3 cubes a block of rows at a time: on the
    256-element powerset TBA of an 8-point antichain the peak stays under
    64 MB (a whole cube of indices is 128 MB)."""
    antichain = order.FinitePoset(8, tuple(1 << i for i in range(8)))
    algebra = tba.powerset_tba(antichain)
    tracemalloc.start()
    try:
        report = algebra.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report is None
    assert peak <= 64 << 20, f"validate peaked at {peak / 2**20:.0f} MB"


def _corrupted(algebra, name, a, b, value):
    tables = {key: getattr(algebra, key).copy()
              for key in ("meet", "join", "imp")}
    tables[name][a, b] = value
    return FiniteHeytingAlgebra(bot=algebra.bot, **tables)


def test_validate_reports_same_in_blocks(small_algebras, monkeypatch):
    """One row per block names the same first failing law and elements as
    one block for the whole cube, on single-entry corruptions; lowering the
    meet of an incomparable pair to bot keeps the order, so only the cube
    of lower bounds sees it."""
    cases = []
    for algebra in small_algebras:
        n = algebra.n
        for name in ("meet", "join", "imp"):
            for a, b in ((0, n - 1), (n - 1, 1), (n // 2, n // 3)):
                value = (getattr(algebra, name)[a, b] + 1) % n
                cases.append(_corrupted(algebra, name, a, b, value))
        for a, b in np.argwhere(~algebra.le & ~algebra.le.T)[:1]:
            cases.append(_corrupted(algebra, "meet", a, b, algebra.bot))
    whole = [case.validate() for case in cases]
    monkeypatch.setattr(heyting, "_CUBE_CELLS", 1)
    assert [case.validate() for case in cases] == whole
    reports = " ".join(report for report in whole if report)
    for law in ("is not greatest", "is not least", "residuation fails"):
        assert law in reports


def test_validate_one_element_algebra():
    one = FiniteHeytingAlgebra([[0]], [[0]], [[0]], bot=0)
    assert one.validate() is None
    assert one.top == one.bot == 0
    assert heyting.dense_filter(one) == frozenset({0})


def test_neg_on_chain(three):
    assert heyting.neg(three, 1) == 0
    assert heyting.neg(three, 0) == 2
    assert heyting.neg(three, heyting.neg(three, 1)) == 2
    with pytest.raises(IndexError):
        heyting.neg(three, 7)


def test_dense_filter_examples(three, bool2):
    assert heyting.dense_filter(three) == frozenset({1, 2})
    assert heyting.dense_filter(bool2) == frozenset({bool2.top})


def test_filters_examples(three, bool2):
    dense_req = {frozenset(f) for f in heyting.filters(three, True)}
    assert dense_req == {frozenset({1, 2}), frozenset({0, 1, 2})}
    all_filters = {frozenset(f) for f in heyting.filters(bool2)}
    assert all_filters == {frozenset({1}), frozenset({0, 1})} \
        or all_filters == {frozenset({bool2.top}),
                           frozenset(range(bool2.n))}
    assert frozenset({bool2.top}) in all_filters


def test_ideals_examples(three, bool2):
    assert {frozenset(i) for i in heyting.ideals(three)} == {
        frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})}
    assert frozenset({three.bot}) in set(map(frozenset,
                                             heyting.ideals(three)))
    assert {frozenset(i) for i in heyting.ideals(bool2)} == {
        frozenset({bool2.bot}), frozenset({0, 1})}


def test_filters_ideals_against_bruteforce(small_algebras):
    for algebra in small_algebras:
        assert set(heyting.filters(algebra)) == \
            set(heyting.enumerate_filters_bruteforce(algebra))
        assert set(heyting.ideals(algebra)) == \
            set(heyting.enumerate_ideals_bruteforce(algebra))


def test_bruteforce_scans_agree_on_warm_cache(small_algebras):
    """The brute-force scans agree with filters(), ideals() and the
    plain-loop oracles on a second run, when every filter and ideal of
    the algebra has been kept as checked by the first."""
    for algebra in small_algebras:
        subsets = [frozenset(i for i in range(algebra.n) if code >> i & 1)
                   for code in range(1, 1 << algebra.n)]
        for _ in range(2):
            found = set(heyting.enumerate_filters_bruteforce(algebra))
            assert found == set(heyting.filters(algebra)) == {
                s for s in subsets if slow_is_filter(algebra, s)}
            found = set(heyting.enumerate_ideals_bruteforce(algebra))
            assert found == set(heyting.ideals(algebra)) == {
                s for s in subsets if slow_is_ideal(algebra, s)}


def test_closed_sets_checked_once_within_bound(bool4, monkeypatch):
    """Over every element mask as ``within`` and every subset, filter and
    ideal, _is_closed_set agrees with the plain-loop oracle on a first and
    a second call, and keeps no more than 4n passing sets.  A filter is
    checked for closure once; a non-filter is refused, and checked, on two
    calls in a row."""
    n = bool4.n
    masks = [np.array([code >> i & 1 for i in range(n)], dtype=bool)
             for code in range(1 << n)]
    algebra = FiniteHeytingAlgebra(bool4.meet, bool4.join, bool4.imp,
                                   bot=bool4.bot)
    for within in masks:
        elements = frozenset(np.flatnonzero(within).tolist())
        for mask in masks:
            subset = frozenset(np.flatnonzero(mask).tolist())
            for _ in range(2):
                assert heyting._is_closed_set(
                    algebra, subset, within=within) == \
                    slow_is_filter(algebra, subset, elements)
                assert heyting._is_closed_set(
                    algebra, subset, ideal=True, within=within) == \
                    slow_is_ideal(algebra, subset, elements)
    assert len(algebra._cache["closed_sets"]) == 4 * n

    checks = []
    closed_under = heyting._closed_under

    def spy(mask, table):
        checks.append(table)
        return closed_under(mask, table)

    monkeypatch.setattr(heyting, "_closed_under", spy)
    fresh = FiniteHeytingAlgebra(bool4.meet, bool4.join, bool4.imp,
                                 bot=bool4.bot)
    top, atoms = fresh.top, [a for a in range(n) if a not in
                             (fresh.bot, fresh.top)]
    assert fresh.is_filter({atoms[0], top})
    assert fresh.is_filter({atoms[0], top})
    assert len(checks) == 1
    up_not_meet = frozenset(atoms) | {top}  # up-closed, not meet-closed
    assert not fresh.is_filter(up_not_meet)
    assert not fresh.is_filter(up_not_meet)
    assert len(checks) == 3


def test_closed_under_matches_closure_fixpoint(small_algebras):
    """The one-step closedness test agrees with the closure fixpoint on
    every element mask of every algebra from a poset of at most 3 points,
    for each binary table.  is_filter and is_ideal use it, so the
    brute-force scans above still rest on the definitional check."""
    for algebra in small_algebras:
        n = algebra.n
        bits = 1 << np.arange(n)
        for code in range(1 << n):
            mask = (code & bits) != 0
            for table in (algebra.meet, algebra.join, algebra.imp):
                assert heyting._closed_under(mask, table) == \
                    np.array_equal(heyting._closure(mask, (table,)), mask)


def test_is_closed_ideal(three):
    assert heyting.is_closed_ideal(three, {0})
    assert not heyting.is_closed_ideal(three, {0, 1})
    assert heyting.is_closed_ideal(three, {0, 1, 2})
    with pytest.raises(ValueError):
        heyting.is_closed_ideal(three, {1})  # not down-closed


def test_closure_n_examples(three):
    assert heyting.closure_n(three, {0, 1}) == frozenset({0, 1, 2})
    assert heyting.closure_n(three, {0}) == frozenset({0})


def test_closure_n_least_and_idempotent(small_algebras):
    for algebra in small_algebras:
        all_ideals = heyting.ideals(algebra)
        closed = [i for i in all_ideals
                  if heyting.is_closed_ideal(algebra, i)]
        for delta in all_ideals:
            closure = heyting.closure_n(algebra, delta)
            assert delta <= closure
            assert heyting.is_closed_ideal(algebra, closure)
            assert heyting.closure_n(algebra, closure) == closure
            for other in closed:
                if delta <= other:
                    assert closure <= other


def test_is_boolean(three, bool2, bool4):
    assert heyting.is_boolean(bool2)
    assert heyting.is_boolean(bool4)
    assert not heyting.is_boolean(three)


def test_heyting_arithmetic_laws(small_algebras):
    "Implication-order laws hold on every pair of every small algebra."
    for algebra in small_algebras:
        n = algebra.n
        rng = np.arange(n, dtype=np.intp)
        neg = algebra.neg_table
        # a -> b = top iff a <= b
        assert ((algebra.imp == algebra.top) == algebra.le).all()
        # a & (a -> b) = a & b
        assert (algebra.meet[rng[:, None], algebra.imp]
                == algebra.meet).all()
        # antitone negation
        for a in range(n):
            for b in range(n):
                if algebra.leq(a, b):
                    assert algebra.leq(int(neg[b]), int(neg[a]))
        # a <= not not a
        assert algebra.le[rng, neg[neg]].all()


def test_dense_characterisations_agree(small_algebras):
    for algebra in small_algebras:
        heyting.dense_filter(algebra)  # raises if they disagree


def test_json_round_trip(three):
    data = heyting.heyting_to_json(three)
    again = heyting.heyting_from_json(data)
    assert again == three
    assert again.validate() is None
    # "size" is optional, and checked against the tables when present
    del data["size"]
    assert heyting.heyting_from_json(data) == three
    for size in (2, 4, "3", None, True, 3.0):
        with pytest.raises(ValueError, match="size"):
            heyting.heyting_from_json({**data, "size": size})


def test_table_shape_errors():
    with pytest.raises(ValueError):
        FiniteHeytingAlgebra([[0, 1]], [[0]], [[0]], bot=0)
    with pytest.raises(ValueError):
        FiniteHeytingAlgebra([[5]], [[0]], [[0]], bot=0)
    with pytest.raises(ValueError):
        FiniteHeytingAlgebra([[0]], [[0]], [[0]], bot=3)
