import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_posets
from twistlab import companions, heyting, order, tba, twist
from twistlab.companions import companion_structure
from twistlab.formula import And, Bot, Box, Dia, Imp, Or, SNeg, Var
from twistlab.semantics import evaluate
from twistlab.twist import full_twist, nabla_of, delta_of, tw

ARGS = (Var("p"), Var("q"))


def apply_op(structure, op, *pairs):
    "One twist operation on carrier pairs, through evaluate."
    return evaluate(structure, op(*ARGS[:len(pairs)]),
                    dict(zip("pq", pairs)))


def all_twists(algebra):
    "Every (filter containing the dense elements, ideal) twist."
    for nabla in heyting.filters(algebra, require_dense=True):
        for delta in heyting.ideals(algebra):
            yield tw(algebra, nabla, delta)


def all_modal_twists(algebra):
    for nabla in tba.open_filters(algebra):
        for delta in tba.closed_ideals(algebra):
            yield tw(algebra, nabla, delta)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(random_posets(max_n=4))
def test_cell_and_carrier_match_definitions(poset):
    """Over every dense filter x ideal of the up-set algebra of a random
    poset of at most 4 points, and every open filter x closed ideal of its
    powerset TBA, tw's cell is the meet of the filter and the join of the
    ideal, and its carrier is the pairs (a, b) with a v b in the filter
    and a ^ b in the ideal, in lexicographic order, as plain loops find
    them."""
    algebra, powerset = order.heyting_from_poset(poset), \
        tba.powerset_tba(poset)
    for base, nablas, deltas in (
            (algebra, heyting.filters(algebra, require_dense=True),
             heyting.ideals(algebra)),
            (powerset, tba.open_filters(powerset),
             tba.closed_ideals(powerset))):
        meet, join = base.meet.tolist(), base.join.tolist()
        for nabla in nablas:
            for delta in deltas:
                structure = tw(base, nabla, delta)
                f, d = base.top, base.bot
                for a in nabla:
                    f = meet[f][a]
                for a in delta:
                    d = join[d][a]
                assert structure.cell == (f, d)
                member = [[join[a][b] in nabla and meet[a][b] in delta
                           for b in range(base.n)] for a in range(base.n)]
                assert structure.member.tolist() == member
                assert structure.pairs == [
                    (a, b) for a in range(base.n) for b in range(base.n)
                    if member[a][b]]


def test_full_twist_sizes(three, bool2):
    assert full_twist(bool2).size == 4
    assert full_twist(three).size == 9


def test_full_twist_invariants(three):
    structure = full_twist(three)
    assert nabla_of(structure) == frozenset(range(3))
    assert delta_of(structure) == frozenset(range(3))


def test_kleene_twist_pairs(kleene_twist):
    assert kleene_twist.pairs == [
        (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert kleene_twist.size == 7


def test_tw_full_equals_full(three):
    everything = frozenset(range(three.n))
    assert tw(three, everything, everything) == full_twist(three)


def test_tw_boolean_complements(bool2):
    structure = tw(bool2, frozenset({bool2.top}), frozenset({bool2.bot}))
    assert set(structure.pairs) == {(0, 1), (1, 0)}


def test_tw_precondition_errors(three, chain2, monkeypatch):
    """tw refuses a set that is not a filter or an ideal, a filter missing
    a dense element, and over a TBA a filter that is not open or an ideal
    that is not closed, each with its own message, naming nabla first when
    both sets are bad.  The lift of companion_structure refuses a lifted
    cell that is not open, or not diamond-fixed, with the same messages;
    here the realisation is swapped for one over the same tables whose
    box does not fix the lifted generator (a trivial interior) or whose
    diamond does not fix the lifted ideal's generator (a box that is no
    interior operator)."""
    powerset = tba.powerset_tba(chain2)   # open: 0, 2 and 3; not 1
    cases = [
        (three, {1}, {0}, "nabla is not a filter of the base"),
        (three, {1}, {1}, "nabla is not a filter of the base"),
        (three, {2}, {0}, "nabla lacks the dense element 1"),
        (three, {2}, {1}, "nabla lacks the dense element 1"),
        (three, {1, 2}, {1}, "delta is not an ideal of the base"),
        (powerset, {1}, {0}, "nabla is not an open filter of the base"),
        (powerset, {1, 3}, {0}, "nabla is not an open filter of the base"),
        (powerset, {1, 3}, {2}, "nabla is not an open filter of the base"),
        (powerset, {3}, {2}, "delta is not a closed ideal of the base"),
        (powerset, {3}, {0, 2}, "delta is not a closed ideal of the base"),
    ]
    for base, nabla, delta, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            tw(base, frozenset(nabla), frozenset(delta))

    algebra = order.heyting_from_poset(chain2)
    real, iso = tba.s_of(algebra)
    x = iso[1]     # the lift of the filter {1, 2}: up(x), with x open
    y = next(a for a in range(real.n) if a not in (real.bot, real.top, x))
    trivial = [real.top if a == real.top else real.bot for a in range(4)]
    # dia bot = -box top = -y = x, and dia x = -box y = top: not fixed
    skewed = [{real.bot: real.bot, x: x, y: real.bot, real.top: y}[a]
              for a in range(4)]
    for box, message in ((trivial, "nabla is not an open filter of the base"),
                         (skewed, "delta is not a closed ideal of the base")):
        swapped = tba.FiniteTBA._over(real, box)
        monkeypatch.setattr(companions, "s_of",
                            lambda _, swapped=swapped: (swapped, iso))
        with pytest.raises(ValueError, match=f"^{message}$"):
            companion_structure(algebra, frozenset({1, 2}), frozenset({0}))


def test_operation_tables(kleene_twist):
    assert apply_op(kleene_twist, SNeg, (1, 2)) == (2, 1)
    assert apply_op(kleene_twist, Imp, (1, 2), (0, 1)) == (0, 1)
    assert apply_op(kleene_twist, And, (1, 2), (2, 0)) == (1, 2)
    assert apply_op(kleene_twist, Or, (1, 0), (0, 2)) == (1, 0)
    assert evaluate(kleene_twist, Bot, {}) == (0, 2)
    with pytest.raises(ValueError, match="TBA"):
        apply_op(kleene_twist, Box, (1, 2))
    with pytest.raises(ValueError, match="carrier"):
        apply_op(kleene_twist, SNeg, (2, 2))


def test_modal_operation_tables(chain2):
    algebra = tba.powerset_tba(chain2)
    structure = full_twist(algebra)
    for a, b in structure.pairs:
        assert apply_op(structure, Box, (a, b)) == (
            int(algebra.box[a]), int(algebra.dia_table[b]))
        assert apply_op(structure, Dia, (a, b)) == (
            int(algebra.dia_table[a]), int(algebra.box[b]))


def test_invariant_extraction(kleene_twist):
    assert nabla_of(kleene_twist) == frozenset({1, 2})
    assert delta_of(kleene_twist) == frozenset({0, 1})


def test_reconstruction_and_closure_small():
    """Closure under operations, first-projection surjectivity, invariant
    extraction and reconstruction for every twist over every small base."""
    for poset in order.enumerate_posets(3):
        algebra = order.heyting_from_poset(poset)
        if algebra.n > 6:
            continue
        for structure in all_twists(algebra):
            assert nabla_of(structure) == structure.nabla
            assert delta_of(structure) == structure.delta
            rebuilt = tw(algebra, nabla_of(structure), delta_of(structure))
            assert rebuilt.pairs == structure.pairs
            pairs = structure.pairs
            for x, y in itertools.product(pairs, repeat=2):
                for op in (And, Or, Imp):
                    assert apply_op(structure, op, x, y) in structure
            for x in pairs:
                assert apply_op(structure, SNeg, x) in structure


def test_modal_closure_small():
    for poset in order.enumerate_posets(2):
        algebra = tba.powerset_tba(poset)
        for structure in all_modal_twists(algebra):
            for x in structure.pairs:
                assert apply_op(structure, Box, x) in structure
                assert apply_op(structure, Dia, x) in structure
            rebuilt = tw(algebra, nabla_of(structure), delta_of(structure))
            assert rebuilt.pairs == structure.pairs


def test_invariants_are_constrained(three):
    "Extracted sets are a dense-containing filter and an ideal."
    for structure in all_twists(three):
        assert three.is_filter(nabla_of(structure))
        assert heyting.dense_filter(three) <= nabla_of(structure)
        assert three.is_ideal(delta_of(structure))


def test_first_projection_surjective(kleene_twist):
    assert set(kleene_twist.firsts.tolist()) == {0, 1, 2}


def test_membership_and_index(kleene_twist):
    assert (0, 1) in kleene_twist
    assert (0, 0) not in kleene_twist
    assert kleene_twist.index((0, 1)) == 0
    assert kleene_twist.index((2, 1)) == 6
    with pytest.raises(ValueError):
        kleene_twist.index((2, 2))


def test_membership_outside_the_base(bool2):
    """A pair with a component outside range(n), negative ones included,
    is not in the carrier, so evaluate refuses it as not in the carrier
    instead of reading a wrapped index."""
    full = full_twist(bool2)
    assert (1, 1) in full
    for pair in ((-1, 0), (0, -1), (-2, -2), (2, 0), (0, 2)):
        assert pair not in full
    with pytest.raises(ValueError, match=r"pair \(-1, 0\) not in carrier"):
        evaluate(full, Var("p"), {"p": (-1, 0)})


# Bases of the closure-check oracle: every algebra from a poset of at most
# 3 points with its (dense filter, ideal) pairs, and every TBA of a 2-point
# poset with its (open filter, closed ideal) pairs.
_ORACLE_BASES = [
    (algebra, heyting.filters(algebra, require_dense=True),
     heyting.ideals(algebra))
    for algebra in map(order.heyting_from_poset, order.enumerate_posets(3))
] + [
    (algebra, tba.open_filters(algebra), tba.closed_ideals(algebra))
    for algebra in map(tba.powerset_tba, order.enumerate_posets(2))
]


def slow_closure_failure(member, pairs, tables):
    """Plain-loop closure check: the first operation of ``tables``
    (_op_tables), in their order, that sends a pair, or two pairs, of
    ``pairs`` outside the boolean pair matrix ``member``, or None."""
    for kind, (first, second, side) in tables.items():
        first, second = first.tolist(), second.tolist()
        for x in pairs:
            if not isinstance(first[0], list):
                if not member[first[x[0]], second[x[side]]]:
                    return kind
                continue
            for y in pairs:
                if not member[first[x[0]][y[0]], second[x[side]][y[1]]]:
                    return kind
    return None


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data())
def test_closure_failure_matches_loop(data):
    """On a twist with one pair dropped from its membership matrix, and on
    one with that pair dropped from its carrier, the flat-cell closure check
    names the same first failing operation as a plain loop, for all the
    operations together and for each alone, and _verify raises naming it."""
    base, nablas, deltas = data.draw(st.sampled_from(_ORACLE_BASES))
    structure = tw(base, data.draw(st.sampled_from(nablas)),
                   data.draw(st.sampled_from(deltas)))
    pairs = structure.pairs
    hole = data.draw(st.sampled_from(pairs))
    tables = twist._op_tables(base)
    f, s = structure.firsts, structure.seconds
    assert twist._closure_failure(structure.member, f, s, tables) is None

    holed = copy.copy(structure)
    holed.member = structure.member.copy()
    holed.member[hole] = False
    shrunk = twist.TwistStructure(base, structure.nabla, structure.delta,
                                  structure.cell, holed.member.copy())
    assert shrunk.pairs == [pair for pair in pairs if pair != hole]
    for broken in (holed, shrunk):
        member, carrier = broken.member, broken.pairs
        bf, bs = broken.firsts, broken.seconds
        want = slow_closure_failure(member, carrier, tables)
        assert twist._closure_failure(member, bf, bs, tables) == want
        for kind in tables:
            one = {kind: tables[kind]}
            assert twist._closure_failure(member, bf, bs, one) == \
                slow_closure_failure(member, carrier, one)
        if want is not None and set(bf.tolist()) == set(range(base.n)):
            with pytest.raises(AssertionError,
                               match=f"^carrier not closed under {want}$"):
                twist._verify(broken)
    assert slow_closure_failure(holed.member, pairs, tables) == "and"


# 16-element realisations, one per class of 4-point posets, with their
# (open filter, closed ideal) pairs: the bases where the carrier-pair loop
# is slowest and the per-first-component products matter.
_REALISATION_BASES = [
    (algebra, tba.open_filters(algebra), tba.closed_ideals(algebra))
    for algebra in (tba.s_of(order.heyting_from_poset(poset))[0]
                    for poset in order.enumerate_posets(4, dedup=True)
                    if poset.n == 4)
]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_closure_failure_matches_loop_on_realisations(data):
    """Over 16-element realisations of the 4-point classes, the closure
    check names the same first failing operation as a plain loop, for
    each operation alone and for all of them in order, on the intact
    carrier, with a pair dropped from the membership matrix, with that
    pair dropped from the carrier, and with every pair of its first
    component dropped, so that the first projection misses it."""
    base, nablas, deltas = data.draw(st.sampled_from(_REALISATION_BASES))
    assert base.n == 16
    structure = tw(base, data.draw(st.sampled_from(nablas)),
                   data.draw(st.sampled_from(deltas)))
    pairs = structure.pairs
    hole = data.draw(st.sampled_from(pairs))
    tables = twist._op_tables(base)
    holed_member = structure.member.copy()
    holed_member[hole] = False
    keep = np.array([pair != hole for pair in pairs])
    f, s = structure.firsts, structure.seconds
    rowless = structure.member.copy()
    rowless[hole[0]] = False
    cases = [(structure.member, f, s, pairs),
             (holed_member, f, s, pairs),
             (holed_member, f[keep], s[keep],
              [pair for pair in pairs if pair != hole]),
             (rowless, f[f != hole[0]], s[f != hole[0]],
              [pair for pair in pairs if pair[0] != hole[0]])]
    found = []
    for member, bf, bs, carrier in cases:
        alone = {kind: slow_closure_failure(member, carrier,
                                            {kind: tables[kind]})
                 for kind in tables}
        for kind in tables:
            assert twist._closure_failure(
                member, bf, bs, {kind: tables[kind]}) == alone[kind]
        want = next((kind for kind in tables if alone[kind]), None)
        assert twist._closure_failure(member, bf, bs, tables) == want
        found.append(want)
    assert found[:2] == [None, "and"]


def test_closure_failure_on_single_pairs():
    """On every one-pair carrier over the oracle bases, most of them with
    a first projection far from onto, the closure check agrees with the
    plain loop for each operation: rows of the base without a carrier
    pair contribute nothing."""
    for base, _, _ in _ORACLE_BASES:
        tables = twist._op_tables(base)
        for a, b in itertools.product(range(base.n), repeat=2):
            member = np.zeros((base.n, base.n), dtype=bool)
            member[a, b] = True
            f, s = np.array([a]), np.array([b])
            for kind in tables:
                one = {kind: tables[kind]}
                assert twist._closure_failure(member, f, s, one) == \
                    slow_closure_failure(member, [(a, b)], one)


def test_each_carrier_verified_once_per_base(monkeypatch, posets4_classes):
    """Over every instance of the 4-point class with the most instances,
    built as the sweep builds it (the pipeline instance, then the twist at
    the instance's own ideal, which over this Boolean algebra repeats the
    closed-ideal twist), _verify runs exactly once per distinct (base,
    nabla, delta); the verified carriers of each base stay within their
    bound."""
    verified = []
    verify = twist._verify

    def spy(structure):
        verified.append((id(structure.base), structure.nabla,
                         structure.delta))
        verify(structure)

    monkeypatch.setattr(twist, "_verify", spy)
    algebra = max(map(order.heyting_from_poset, posets4_classes),
                  key=lambda a: len(heyting.filters(a, require_dense=True))
                  * len(heyting.ideals(a)))
    built = []
    for nabla in heyting.filters(algebra, require_dense=True):
        for delta in heyting.ideals(algebra):
            inst = companion_structure(algebra, nabla, delta)
            built += [inst.twist, inst.heyting_twist, inst.open_pairs,
                      tw(algebra, nabla, delta)]
    distinct = {(id(one.base), one.nabla, one.delta) for one in built}
    assert len(built) == 4 * 256
    assert len(distinct) < len(built)
    assert sorted(verified, key=repr) == sorted(distinct, key=repr)
    for base in {id(one.base): one.base for one in built}.values():
        assert len(base._cache["verified"]) <= base.n ** 2

