from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_posets
from twistlab import heyting, order
from twistlab.heyting import FiniteHeytingAlgebra
from twistlab.tba import FiniteTBA, powerset_tba


def brute_up_sets(poset):
    "Oracle: filter all subsets by the up-closure property."
    out = []
    for mask in range(1 << poset.n):
        if all(poset.up[i] & ~mask == 0
               for i in range(poset.n) if mask >> i & 1):
            out.append(mask)
    return sorted(out, key=lambda s: (bin(s).count("1"), s))


def plain_alexandrov(poset):
    """Oracle for the builders, from the definitions with plain loops:
    the powerset TBA (subsets as ints in (popcount, value) order, classical
    operations, interior = largest up-set inside) and its up-set algebra."""
    full = (1 << poset.n) - 1
    subsets = sorted(range(full + 1), key=lambda s: (bin(s).count("1"), s))
    ups = brute_up_sets(poset)

    def interior(s):
        largest = 0
        for u in ups:
            if u & ~s == 0:
                largest |= u
        return largest

    def tables(elems, imp):
        pos = {s: i for i, s in enumerate(elems)}
        return ([[pos[s & t] for t in elems] for s in elems],
                [[pos[s | t] for t in elems] for s in elems],
                [[pos[imp(s, t)] for t in elems] for s in elems], pos)

    meet, join, imp, pos = tables(subsets, lambda s, t: full & ~s | t)
    alexandrov = FiniteTBA(meet, join, imp, bot=pos[0],
                           box=[pos[interior(s)] for s in subsets])
    meet, join, imp, pos = tables(
        ups, lambda u, v: interior(full & ~u | v))
    return alexandrov, FiniteHeytingAlgebra(meet, join, imp, bot=pos[0])


def test_builders_match_definitions():
    posets = list(order.enumerate_posets(5))
    sample = [p for p in posets if p.n <= 4] + \
        [p for p in posets if p.n == 5][::97]
    for poset in sample:
        alexandrov, up_set_algebra = plain_alexandrov(poset)
        assert powerset_tba(poset) == alexandrov
        assert order.heyting_from_poset(poset) == up_set_algebra


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_posets())
def test_builders_match_definitions_random(poset):
    """On random posets of at most 5 points, the builders over the shared
    Boolean tables agree with the plain-loop definitions."""
    assert order.validate_poset(poset) is None
    alexandrov, up_set_algebra = plain_alexandrov(poset)
    assert powerset_tba(poset) == alexandrov
    assert order.heyting_from_poset(poset) == up_set_algebra


def test_validate_chain_ok(chain2):
    assert order.validate_poset(chain2) is None


def test_validate_antisymmetry():
    bad = order.FinitePoset.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert order.validate_poset(bad) == \
        "antisymmetry violated: (0, 1) and (1, 0)"


def test_validate_reflexivity():
    bad = order.FinitePoset.from_pairs(2, [(1, 1), (0, 1)])
    assert order.validate_poset(bad) == \
        "reflexivity violated: (0, 0) missing"


def test_validate_transitivity():
    bad = order.FinitePoset.from_pairs(
        3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    assert order.validate_poset(bad) == \
        "transitivity violated: (0, 1) and (1, 2) but (0, 2) missing"


def test_validate_messages():
    """The first violation found, with its exact message: transitivity
    names the least (i, j) and then the largest missing k."""
    from_pairs = order.FinitePoset.from_pairs
    cases = [
        (order.FinitePoset(0, ()), "carrier must be non-empty"),
        (from_pairs(4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 3),
                        (1, 2)]),
         "transitivity violated: (0, 1) and (1, 3) but (0, 3) missing"),
        (from_pairs(3, [(0, 0), (1, 1), (2, 2), (2, 1), (1, 0)]),
         "transitivity violated: (2, 1) and (1, 0) but (2, 0) missing"),
    ]
    for poset, message in cases:
        assert order.validate_poset(poset) == message


@st.composite
def _relations(draw, max_n=5):
    """A random relation on at most max_n points, cycles allowed."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=12))
    return n, pairs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_relations())
def test_closure_is_least_preorder(relation):
    """``from_pairs(closure=True)`` is the least reflexive-transitive
    superset of the pairs: j is above i when a path of pairs leads there."""
    n, pairs = relation
    want = set()
    for i in range(n):
        reached, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for a, b in pairs:
                if a == x and b not in reached:
                    reached.add(b)
                    frontier.append(b)
        want |= {(i, j) for j in reached}
    closed = order.FinitePoset.from_pairs(n, pairs, closure=True)
    assert set(closed.pairs()) == want


def test_closure_option():
    closed = order.FinitePoset.from_pairs(3, [(0, 1), (1, 2)], closure=True)
    assert order.validate_poset(closed) is None
    assert closed.leq(0, 2)


def test_up_sets_examples(chain2, anti2):
    assert order.up_sets(chain2) == [0, 0b10, 0b11]
    assert order.up_sets(anti2) == [0, 0b01, 0b10, 0b11]
    point = order.FinitePoset.from_pairs(1, [(0, 0)])
    assert order.up_sets(point) == [0, 1]


def test_up_sets_against_bruteforce():
    for poset in order.enumerate_posets(4):
        assert order.up_sets(poset) == brute_up_sets(poset)


def test_up_sets_lattice_closure(posets3):
    for poset in posets3:
        ups = set(order.up_sets(poset))
        assert 0 in ups and (1 << poset.n) - 1 in ups
        for a in ups:
            for b in ups:
                assert a & b in ups and a | b in ups


def test_heyting_from_chain_and_antichain(three, bool4, bool2):
    assert three.n == 3 and three.validate() is None
    assert not heyting.is_boolean(three)
    assert bool4.n == 4 and heyting.is_boolean(bool4)
    assert bool2.n == 2 and heyting.is_boolean(bool2)


def test_heyting_from_poset_residuation_everywhere(posets5_classes):
    # validate() checks residuation on every triple; run it for all posets
    for poset in order.enumerate_posets(4):
        order.heyting_from_poset(poset)
    for poset in posets5_classes:
        order.heyting_from_poset(poset)


def test_join_irreducible_poset_examples(three, bool4, bool2):
    two_chain = order.join_irreducible_poset(three)
    assert two_chain.n == 2
    assert sum(1 for i, j in two_chain.pairs() if i != j) == 1
    antichain = order.join_irreducible_poset(bool4)
    assert antichain.n == 2
    assert all(i == j for i, j in antichain.pairs())
    point = order.join_irreducible_poset(bool2)
    assert point.n == 1


def birkhoff_round_trip(algebra):
    """Oracle for the duality orientation: the map a -> set of
    irreducibles below a must be an isomorphism onto the up-sets."""
    poset = order.join_irreducible_poset(algebra)
    irr = algebra.join_irreducibles()
    image = []
    for a in range(algebra.n):
        mask = 0
        for i, j in enumerate(irr):
            if algebra.leq(j, a):
                mask |= 1 << i
        image.append(mask)
    ups = order.up_sets(poset)
    if sorted(image) != sorted(ups):
        return False
    back = order.heyting_from_poset(poset)
    index = {s: i for i, s in enumerate(ups)}
    send = [index[mask] for mask in image]
    for a in range(algebra.n):
        for b in range(algebra.n):
            if send[int(algebra.meet[a, b])] != int(
                    back.meet[send[a], send[b]]):
                return False
            if send[int(algebra.join[a, b])] != int(
                    back.join[send[a], send[b]]):
                return False
            if send[int(algebra.imp[a, b])] != int(
                    back.imp[send[a], send[b]]):
                return False
    return send[algebra.bot] == back.bot


def test_birkhoff_round_trip_small():
    for poset in order.enumerate_posets(4):
        assert birkhoff_round_trip(order.heyting_from_poset(poset))


def test_birkhoff_round_trip_size5_classes(posets5_classes):
    for poset in posets5_classes:
        assert birkhoff_round_trip(order.heyting_from_poset(poset))


def test_enumerate_posets_counts():
    counts = {}
    for poset in order.enumerate_posets(5):
        counts[poset.n] = counts.get(poset.n, 0) + 1
    assert counts == {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def test_enumerate_posets_dedup_counts(posets5_classes):
    counts = {}
    for poset in posets5_classes:
        counts[poset.n] = counts.get(poset.n, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


# (size, relation mask) of the representatives of at most 4 points
_REPRESENTATIVES_4 = [
    (1, 1), (2, 9), (2, 11), (3, 273), (3, 275), (3, 279), (3, 309),
    (3, 311), (4, 33825), (4, 33827), (4, 33831), (4, 33839), (4, 33893),
    (4, 33895), (4, 33897), (4, 33901), (4, 33903), (4, 34029), (4, 34031),
    (4, 36009), (4, 36011), (4, 36015), (4, 36077), (4, 36079),
]


def test_enumerate_posets_dedup_representatives():
    assert [(p.n, p.relation_mask())
            for p in order.enumerate_posets(4, dedup=True)] \
        == _REPRESENTATIVES_4


def brute_canonical_key(poset):
    """Least row-major relation mask over all relabelings, by plain loops
    over the relation matrix."""
    n = poset.n
    best = None
    for perm in permutations(range(n)):
        mask = 0
        for i in range(n):
            for j in range(n):
                if poset.leq(i, j):
                    mask += 2 ** (perm[i] * n + perm[j])
        best = mask if best is None else min(best, mask)
    return (n, best)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_posets(), st.randoms(use_true_random=False))
def test_canonical_key_invariant(poset, rng):
    """The key equals the brute force and survives a random relabeling."""
    label = list(range(poset.n))
    rng.shuffle(label)
    relabeled = order.FinitePoset.from_pairs(
        poset.n, [(label[i], label[j]) for i, j in poset.pairs()])
    assert poset.canonical_key() == brute_canonical_key(poset)
    assert relabeled.canonical_key() == poset.canonical_key()


def test_enumerate_posets_deterministic_order():
    first = [p.relation_mask() for p in order.enumerate_posets(4)]
    second = [p.relation_mask() for p in order.enumerate_posets(4)]
    assert first == second
    # ordered by size then relation mask
    last_n, last_mask = 0, -1
    for poset in order.enumerate_posets(4):
        if poset.n != last_n:
            assert poset.n == last_n + 1
            last_n, last_mask = poset.n, -1
        assert poset.relation_mask() > last_mask
        last_mask = poset.relation_mask()


def test_enumerate_posets_all_valid():
    for poset in order.enumerate_posets(4):
        assert order.validate_poset(poset) is None


def test_poset_json_round_trip(chain2):
    data = order.poset_to_json(chain2)
    assert data["type"] == "poset" and data["size"] == 2
    again = order.poset_from_json(data)
    assert again == chain2


def test_poset_json_closure_flag():
    data = {"type": "poset", "size": 3, "le": [[0, 1], [1, 2]],
            "closure": True}
    poset = order.poset_from_json(data)
    assert order.validate_poset(poset) is None
    assert poset.leq(0, 2)
