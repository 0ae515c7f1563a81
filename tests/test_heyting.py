import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_posets, slow_is_filter, slow_is_ideal
from twistlab import heyting, order, tba, twist
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


def _extreme_member(algebra, subset, ideal):
    "The member below (above) every member, as a plain loop finds it."
    for g in subset:
        if all(algebra.leq(a, g) if ideal else algebra.leq(g, a)
               for a in subset):
            return g
    return None


def test_generator_matches_oracles_on_bool4(bool4):
    """Over every subset of the four-element Boolean algebra, with no mask
    and with every element mask closed under meet and join as ``within``,
    _generator finds a filter (ideal) exactly where the plain-loop oracle
    does, and names it by its least (greatest) member."""
    n = bool4.n
    masks = [np.array([code >> i & 1 for i in range(n)], dtype=bool)
             for code in range(1 << n)]
    sublattices = [None] + [
        mask for mask in masks
        if heyting._closed_under(mask, bool4.meet)
        and heyting._closed_under(mask, bool4.join)]
    assert len(sublattices) == 14
    for within in sublattices:
        elements = None if within is None else \
            frozenset(np.flatnonzero(within).tolist())
        for mask in masks:
            subset = frozenset(np.flatnonzero(mask).tolist())
            for ideal, oracle in ((False, slow_is_filter),
                                  (True, slow_is_ideal)):
                g = heyting._generator(bool4, subset, ideal=ideal,
                                       within=within)
                assert (g is not None) == oracle(bool4, subset, elements)
                if g is not None:
                    assert g == _extreme_member(bool4, subset, ideal)


@st.composite
def _algebra_and_subset(draw):
    """The up-set algebra or the powerset TBA of a random poset of at most
    5 points, the mask of its opens (None for the up-set algebra), and a
    subset near an up-set or down-set of one element, in the algebra or
    among the opens: a few of its elements dropped, a few elements added,
    and now and then a member that names no element (out of range, a
    bool, a float)."""
    poset = draw(random_posets(max_n=5))
    if draw(st.booleans()):
        algebra, within = order.heyting_from_poset(poset), None
    else:
        algebra = tba.powerset_tba(poset)
        within = algebra.open_mask()
    n = algebra.n
    g = draw(st.integers(0, n - 1))
    inside = np.ones(n, dtype=bool) if within is None else within
    near = draw(st.sampled_from([
        algebra.upset(g), algebra.downset(g), frozenset(),
        frozenset(np.flatnonzero(algebra.le[g] & inside).tolist()),
        frozenset(np.flatnonzero(algebra.le[:, g] & inside).tolist())]))
    members = set(near) - set(draw(st.lists(st.sampled_from(sorted(near)),
                                            max_size=2))) if near else set()
    members |= set(draw(st.lists(st.integers(0, n - 1), max_size=2)))
    if draw(st.integers(0, 3)) == 0:
        members.add(draw(st.sampled_from(
            [-1, n, True, False, float(g), np.int64(n)])))
    return algebra, within, frozenset(members)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_algebra_and_subset())
def test_generator_matches_oracles_on_random_posets(case):
    """On random subsets of the up-set algebras and the powerset TBAs of
    random posets, members that name no element included, _generator
    agrees with the plain-loop oracles, over the whole algebra and, for a
    TBA, among its opens, and names a filter (ideal) by its least
    (greatest) member."""
    algebra, within, subset = case
    for mask in [None] if within is None else [None, within]:
        elements = None if mask is None else \
            frozenset(np.flatnonzero(mask).tolist())
        for ideal, oracle in ((False, slow_is_filter), (True, slow_is_ideal)):
            g = heyting._generator(algebra, subset, ideal=ideal, within=mask)
            assert (g is not None) == oracle(algebra, subset, elements)
            if g is not None:
                assert g == _extreme_member(algebra, subset, ideal)


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


_NOT_AN_IDEAL = (ValueError, "delta is not an ideal of the algebra")
_NOT_A_FILTER = (ValueError, "nabla is not a filter of the base")


@pytest.mark.parametrize("call, refusal", [
    (lambda a, t: a.is_filter({True, 2}), None),
    (lambda a, t: a.is_filter({2.0}), None),
    (lambda a, t: a.is_ideal({0, 1.0}), None),
    (lambda a, t: heyting.closure_n(a, {True, 0}), _NOT_AN_IDEAL),
    (lambda a, t: heyting.closure_n(a, {0.0}), _NOT_AN_IDEAL),
    (lambda a, t: heyting.is_closed_ideal(a, {False}),
     (ValueError, "is_closed_ideal expects an ideal")),
    (lambda a, t: twist.tw(a, {2.0}, {0}), _NOT_A_FILTER),
    (lambda a, t: twist.tw(a, {True, 2}, {0}), _NOT_A_FILTER),
    (lambda a, t: twist.tw(a, {1, 2}, {False}),
     (ValueError, "delta is not an ideal of the base")),
    (lambda a, t: heyting.neg(a, True),
     (IndexError, "element True out of range")),
    (lambda a, t: heyting.neg(a, 1.0),
     (IndexError, "element 1.0 out of range")),
    (lambda a, t: tba.delta_map(t, {3.0}),
     (ValueError, "delta_map expects an open filter")),
    (lambda a, t: tba.rho_map(t, {2.0, 3}),
     (ValueError, "rho_map expects a filter of the open algebra")),
    (lambda a, t: tba.sigma_map(t, {0.0}),
     (ValueError, "sigma_map expects an ideal")),
], ids=["filter-bool", "filter-float", "ideal-float", "closure-bool",
        "closure-float", "closed-ideal-bool", "tw-float", "tw-bool",
        "tw-ideal-bool", "neg-bool", "neg-float", "delta-map-float",
        "rho-map-float", "sigma-map-float"])
def test_members_that_name_no_element_are_refused(chain2, call, refusal):
    """A bool or a float in a set or as an element names no element of the
    3-chain or of its powerset TBA, even when it equals one: the filter
    and ideal tests answer False, and the functions that need a filter,
    an ideal or an element raise their own error."""
    algebra = order.heyting_from_poset(chain2)
    powerset = tba.powerset_tba(chain2)
    assert algebra.is_filter({1, 2}) and algebra.is_ideal({0, 1})
    if refusal is None:
        assert call(algebra, powerset) is False
    else:
        kind, message = refusal
        with pytest.raises(kind, match=f"^{re.escape(message)}$"):
            call(algebra, powerset)


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
