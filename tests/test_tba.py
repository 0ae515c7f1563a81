import numpy as np
import pytest

from conftest import slow_is_filter, slow_is_ideal, slow_lambda_set
from twistlab import heyting, openpairs, order, tba
from twistlab.tba import FiniteTBA


@pytest.fixture(scope="module")
def chain_tba(chain2):
    return tba.powerset_tba(chain2)


@pytest.fixture(scope="module")
def identity_tba(bool4):
    rng = list(range(bool4.n))
    return FiniteTBA(bool4.meet, bool4.join, bool4.imp, bool4.bot, rng)


@pytest.fixture(scope="module")
def s_three(three):
    return tba.s_of(three)


def brute_open_filters(algebra):
    return [f for f in heyting.enumerate_filters_bruteforce(algebra)
            if all(int(algebra.box[a]) in f for a in f)]


def brute_closed_ideals(algebra):
    return [i for i in heyting.enumerate_ideals_bruteforce(algebra)
            if all(int(algebra.dia_table[a]) in i for a in i)]


def test_powerset_tba_valid_small():
    for poset in order.enumerate_posets(4, dedup=True):
        assert tba.powerset_tba(poset).validate() is None


def test_powerset_tables_shared_per_size():
    """Posets of one size share the read-only Boolean tables, derived
    order and negation of their size; each has its own interior."""
    chain = order.FinitePoset.from_pairs(3, [(0, 1), (1, 2)], closure=True)
    antichain = order.FinitePoset.from_pairs(3, [(0, 0), (1, 1), (2, 2)])
    one, two = tba.powerset_tba(chain), tba.powerset_tba(antichain)
    for name in ("meet", "join", "imp", "le", "neg_table"):
        table = getattr(one, name)
        assert table is getattr(two, name)
        with pytest.raises(ValueError):
            table[0, ...] = table[-1, ...]
    assert one.top == two.top
    assert not np.array_equal(one.box, two.box)
    assert one.validate() is None and two.validate() is None
    assert (two.box == np.arange(two.n)).all()


def test_boolean_memo_bounded():
    """The memo keeps the Boolean algebras of at most _BOOLEAN_POINTS
    points; a larger size is built, and checked, on every call."""
    bound = tba._BOOLEAN_POINTS
    for n in range(1, bound + 3):
        antichain = order.FinitePoset(n, tuple(1 << i for i in range(n)))
        algebra = tba.powerset_tba(antichain)
        assert algebra.n == 1 << n
        assert (algebra.box == np.arange(algebra.n)).all()
        again = tba.powerset_tba(antichain)
        assert (again.meet is algebra.meet) == (n <= bound)
        assert np.array_equal(again.meet, algebra.meet)
    assert set(tba._BOOLEANS) <= set(range(bound + 1))


def test_cached_facts_read_only(chain_tba, chain2):
    """The open mask is computed once and refuses writes; the open
    elements and the Grzegorczyk verdict are kept too."""
    mask = chain_tba.open_mask()
    assert mask is chain_tba.open_mask()
    assert mask.tolist() == (chain_tba.box == np.arange(chain_tba.n)).tolist()
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    assert tba.open_elements(chain_tba) is tba.open_elements(chain_tba)
    assert tba.open_elements(chain_tba) == frozenset(
        np.flatnonzero(mask).tolist())
    fresh = tba.powerset_tba(chain2)
    assert tba.satisfies_grz(fresh) == (True, None)
    fresh._cache["grz"] = (False, 0)  # a kept verdict is not recomputed
    assert tba.satisfies_grz(fresh) == (False, 0)


def test_validate_rejects_constant_bot_box(bool4):
    broken = FiniteTBA(bool4.meet, bool4.join, bool4.imp, bool4.bot,
                       [bool4.bot] * bool4.n)
    assert "top" in broken.validate()


def test_validate_identity_box_ok(identity_tba):
    assert identity_tba.validate() is None


def test_validate_requires_boolean(three):
    broken = FiniteTBA(three.meet, three.join, three.imp, three.bot,
                       list(range(three.n)))
    assert "Boolean" in broken.validate()


def test_diamond_laws(chain_tba):
    assert chain_tba.dia(chain_tba.bot) == chain_tba.bot
    assert chain_tba.dia(chain_tba.top) == chain_tba.top
    n = chain_tba.n
    dia, box, le = chain_tba.dia_table, chain_tba.box, chain_tba.le
    join, meet = chain_tba.join, chain_tba.meet
    rng = np.arange(n, dtype=np.intp)
    assert (dia[join] == join[dia[:, None], dia[None, :]]).all()
    assert le[rng, dia].all()
    assert (dia[dia] == dia).all()
    assert (box[box] == box).all()
    assert le[join[box[:, None], box[None, :]], box[join]].all()
    assert le[dia[meet], meet[dia[:, None], dia[None, :]]].all()
    # monotonicity
    for a in range(n):
        for b in range(n):
            if le[a, b]:
                assert le[box[a], box[b]] and le[dia[a], dia[b]]


def test_diamond_on_chain_tba(chain_tba):
    # elements: 0=empty, 1={x}, 2={y}, 3={x,y} with poset x < y
    # diamond adds everything below a member; {y} is above x, so dia {y}=all
    assert chain_tba.dia(2) == 3
    assert chain_tba.dia(1) == 1


def test_open_elements_and_algebra(chain_tba, identity_tba):
    opens = tba.open_elements(chain_tba)
    assert opens == frozenset({0, 2, 3})
    g_alg, embed = tba.open_algebra(chain_tba)
    assert g_alg.n == 3 and g_alg.validate() is None
    assert not heyting.is_boolean(g_alg)  # it is the 3-chain
    assert embed == (0, 2, 3)
    g_id, embed_id = tba.open_algebra(identity_tba)
    assert g_id.n == identity_tba.n
    assert g_id == heyting.FiniteHeytingAlgebra(
        identity_tba.meet, identity_tba.join, identity_tba.imp,
        identity_tba.bot)


def test_open_algebra_of_antichain_powerset(anti2):
    algebra = tba.powerset_tba(anti2)
    g_alg, embed = tba.open_algebra(algebra)
    assert g_alg.n == algebra.n == 4
    assert (algebra.box == np.arange(4)).all()


def test_s_of_three_chain(s_three):
    algebra, iso = s_three
    assert algebra.n == 4
    assert len(tba.open_elements(algebra)) == 3
    assert algebra.validate() is None


def test_s_of_boolean(bool2, bool4):
    b2, iso2 = tba.s_of(bool2)
    assert b2.n == 2 and (b2.box == np.arange(2)).all()
    b4, iso4 = tba.s_of(bool4)
    assert b4.n == 4 and (b4.box == np.arange(4)).all()


def test_s_of_iso_and_generation_small():
    "The returned map must hit exactly the opens; generation is re-checked."
    for poset in order.enumerate_posets(4, dedup=True):
        algebra = order.heyting_from_poset(poset)
        realized, iso = tba.s_of(algebra)
        opens = tba.open_elements(realized)
        assert frozenset(iso) == opens
        assert len(set(iso)) == algebra.n
        g_alg, embed = tba.open_algebra(realized)
        # composing iso with the open algebra inverse is an isomorphism
        back = {b: i for i, b in enumerate(embed)}
        send = [back[x] for x in iso]
        for a in range(algebra.n):
            for b in range(algebra.n):
                assert send[int(algebra.imp[a, b])] == \
                    int(g_alg.imp[send[a], send[b]])


def test_open_filters_closed_ideals_vs_bruteforce():
    for poset in order.enumerate_posets(3):
        algebra = tba.powerset_tba(poset)
        assert set(tba.open_filters(algebra)) == set(
            brute_open_filters(algebra))
        assert set(tba.closed_ideals(algebra)) == set(
            brute_closed_ideals(algebra))


def test_predicates_match_plain_definitions():
    """Every subset (and two leaving the carrier) of the up-set and powerset
    algebras of the posets with up to 3 points, and every open filter of
    the powerset algebras, against the plain-loop definitions; open
    filters and closed ideals of the powerset algebras among them."""
    for poset in order.enumerate_posets(3):
        alexandrov = tba.powerset_tba(poset)
        for algebra in (order.heyting_from_poset(poset), alexandrov):
            n = algebra.n
            subsets = [frozenset(i for i in range(n) if mask >> i & 1)
                       for mask in range(1 << n)]
            subsets += [frozenset({n}), frozenset({0, n})]
            for subset in subsets:
                assert algebra.is_filter(subset) == \
                    slow_is_filter(algebra, subset)
                assert algebra.is_ideal(subset) == \
                    slow_is_ideal(algebra, subset)
        opens = tba.open_elements(alexandrov)
        for subset in subsets:
            assert tba._is_g_filter(alexandrov, subset) == \
                slow_is_filter(alexandrov, subset, opens)
            assert tba._is_g_ideal(alexandrov, subset) == \
                slow_is_ideal(alexandrov, subset, opens)
            is_open_filter = slow_is_filter(alexandrov, subset) and all(
                int(alexandrov.box[a]) in subset for a in subset)
            assert tba._is_open_filter(alexandrov, subset) == is_open_filter
            assert tba._is_closed_ideal_tba(alexandrov, subset) == (
                slow_is_ideal(alexandrov, subset) and all(
                    int(alexandrov.dia_table[a]) in subset for a in subset))
            if is_open_filter:
                assert openpairs.lambda_set(alexandrov, subset) == \
                    slow_lambda_set(alexandrov, subset)


def test_open_filters_identity_box(identity_tba):
    assert set(tba.open_filters(identity_tba)) == set(
        heyting.filters(identity_tba))
    assert frozenset({identity_tba.bot}) in set(
        tba.closed_ideals(identity_tba))


def test_delta_rho_examples(s_three):
    algebra, iso = s_three
    # opens are 0, 1, 3; the filter generated by the middle open
    nabla_g = frozenset({1, 3})
    lifted = tba.rho_map(algebra, nabla_g)
    assert lifted == frozenset({1, 3})
    assert tba.delta_map(algebra, lifted) == nabla_g
    full_g = frozenset({0, 1, 3})
    assert tba.rho_map(algebra, full_g) == frozenset(range(4))
    top_filter = frozenset({algebra.top})
    assert tba.delta_map(algebra, tba.rho_map(algebra, top_filter)) \
        == top_filter


def test_delta_rho_bijection_small():
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(poset)
        g_alg, embed = tba.open_algebra(algebra)
        ofs = tba.open_filters(algebra)
        gfs = [frozenset(embed[i] for i in f)
               for f in heyting.filters(g_alg)]
        assert sorted(map(sorted, (tba.delta_map(algebra, F)
                                   for F in ofs))) == \
            sorted(map(sorted, gfs))
        for F in ofs:
            assert tba.rho_map(algebra, tba.delta_map(algebra, F)) == F
        for F in gfs:
            assert tba.delta_map(algebra, tba.rho_map(algebra, F)) == F


def test_rho_map_rejects_non_filters(s_three):
    algebra, iso = s_three
    with pytest.raises(ValueError):
        tba.rho_map(algebra, frozenset({0}))  # misses the top, not a filter
    with pytest.raises(ValueError):
        tba.rho_map(algebra, frozenset({2, 3}))  # 2 is not open


def test_sigma_examples(s_three):
    algebra, iso = s_three
    assert tba.sigma_map(algebra, frozenset({0, 1})) == frozenset(range(4))
    assert tba.sigma_map(algebra, frozenset({0})) == frozenset({0})
    delta = tba.sigma_map(algebra, frozenset({0, 1}))
    assert tba.sigma_map(algebra, delta) == delta


def test_sigma_least_closed_ideal():
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(poset)
        closed = tba.closed_ideals(algebra)
        for ideal in heyting.ideals(algebra):
            out = tba.sigma_map(algebra, ideal)
            assert ideal <= out
            for other in closed:
                if ideal <= other:
                    assert out <= other


def test_sigma_rejects_non_ideal(s_three):
    algebra, iso = s_three
    with pytest.raises(ValueError):
        tba.sigma_map(algebra, frozenset({algebra.top}))


def test_satisfies_grz(chain_tba, identity_tba):
    assert tba.satisfies_grz(chain_tba) == (True, None)
    assert tba.satisfies_grz(identity_tba) == (True, None)
    three_chain = order.FinitePoset.from_pairs(
        3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    assert tba.satisfies_grz(tba.powerset_tba(three_chain))[0]


def test_grz_fails_on_dense_interior():
    """A two-element algebra with box fixing only the endpoints of a
    circular-style structure cannot arise from posets; fabricate a TBA
    whose box violates the reflection and watch the axiom catch it."""
    # 4-element Boolean with box collapsing both atoms to bot: this is the
    # Alexandrov algebra of the 2-element *preorder* with x <= y <= x,
    # which is S4 but not Grz.
    anti = order.FinitePoset.from_pairs(2, [(0, 0), (1, 1)])
    base = tba.powerset_tba(anti)
    box = [0, 0, 0, 3]
    algebra = FiniteTBA(base.meet, base.join, base.imp, base.bot, box)
    assert algebra.validate() is None
    ok, witness = tba.satisfies_grz(algebra)
    assert not ok and witness is not None


def test_lemma_sigma_intersection(three, s_three):
    "The sigma lift meets the embedded algebra exactly in the closure."
    algebra, iso = s_three
    iso_set = frozenset(iso)
    for ideal in heyting.ideals(three):
        lifted = tba.sigma_map(algebra, frozenset(iso[a] for a in ideal))
        expected = frozenset(iso[a]
                             for a in heyting.closure_n(three, ideal))
        assert lifted & iso_set == expected


def test_json_round_trip(chain_tba):
    data = tba.tba_to_json(chain_tba)
    again = tba.tba_from_json(data)
    assert again == chain_tba and again.validate() is None
    del data["size"]
    assert tba.tba_from_json(data) == chain_tba
    for size in (chain_tba.n - 1, str(chain_tba.n), None):
        with pytest.raises(ValueError, match="size"):
            tba.tba_from_json({**data, "size": size})
