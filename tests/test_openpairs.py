import pytest

from twistlab import companions, heyting, openpairs, order, semantics, tba, \
    twist


@pytest.fixture(scope="module")
def pipeline(three):
    return companions.companion_structure(
        three, frozenset({1, 2}), frozenset({0, 1}))


@pytest.fixture(scope="module")
def identity_full(bool4):
    rng = list(range(bool4.n))
    algebra = tba.FiniteTBA(bool4.meet, bool4.join, bool4.imp, bool4.bot,
                            rng)
    return twist.full_twist(algebra)


@pytest.fixture(scope="module")
def gamma_breaks_lambda(chain2):
    """Twist over the 2-chain powerset with the smallest open filter:
    gamma strictly exceeds the lambda set."""
    algebra = tba.powerset_tba(chain2)
    return twist.tw(algebra, frozenset({algebra.top}),
                    frozenset(range(algebra.n)))


def test_open_pairs_cached_read_only(pipeline):
    """A twist's open pairs are computed once and refuse writes."""
    f, s = openpairs._open_pairs(pipeline.twist)
    assert openpairs._open_pairs(pipeline.twist)[0] is f
    for part in (f, s):
        with pytest.raises(ValueError):
            part[0] = part[-1]
    assert openpairs.g2(pipeline.twist) == list(zip(f.tolist(), s.tolist()))


def test_g2_identity_box_is_carrier(identity_full):
    assert openpairs.g2(identity_full) == identity_full.pairs


def test_g2_requires_modal_base(kleene_twist):
    with pytest.raises(ValueError):
        openpairs.g2(kleene_twist)


def test_g2_of_pipeline(pipeline):
    pairs = openpairs.g2(pipeline.twist)
    image = {(pipeline.iso[a], pipeline.iso[b])
             for a, b in pipeline.heyting_twist.pairs}
    assert set(pairs) == image
    assert len(pairs) == 8


def test_gamma_of_pipeline_is_all_opens(pipeline):
    gam = openpairs.gamma(pipeline.twist)
    assert gam == tba.open_elements(pipeline.tba)
    assert gam == openpairs.lambda_set(pipeline.tba, pipeline.twist.nabla)


def test_lambda_full_filter_is_all_opens(identity_full):
    base = identity_full.base
    assert openpairs.lambda_set(base, frozenset(range(base.n))) == \
        tba.open_elements(base)


def test_lambda_subset_gamma_everywhere():
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(poset)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                lam = openpairs.lambda_set(algebra, nabla)
                assert lam <= openpairs.gamma(structure)


def test_nabla_g_delta_g_examples(pipeline, identity_full):
    # over the pipeline, the ideal invariant restricted to opens is the
    # closure image: the whole algebra here
    dg = openpairs.delta_g(pipeline.twist)
    assert dg == frozenset(pipeline.iso)
    ng = openpairs.nabla_g(pipeline.twist)
    assert ng == frozenset(pipeline.iso[a] for a in pipeline.nabla)
    base = identity_full.base
    assert openpairs.nabla_g(identity_full) == frozenset(range(base.n))


def test_delta_g_closed_under_double_negation():
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(poset)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                dg = openpairs.delta_g(structure)
                box, neg = algebra.box, algebra.neg_table
                gneg = box[algebra.imp[:, algebra.bot]]
                assert all(int(gneg[gneg[a]]) in dg for a in dg)


def test_gamma_imp_closure_sides_agree_everywhere():
    "Both sides computed independently; equal on every small instance."
    seen_false = False
    for poset in order.enumerate_posets(3):
        algebra = tba.powerset_tba(poset)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                lhs, rhs = openpairs.gamma_imp_closure_equiv(structure)
                assert lhs == rhs
                seen_false = seen_false or not lhs
    assert seen_false  # the equivalence is not vacuous on this range


def test_gamma_imp_closure_false_case(gamma_breaks_lambda):
    assert openpairs.gamma_imp_closure_equiv(gamma_breaks_lambda) == \
        (False, False)
    gam = openpairs.gamma(gamma_breaks_lambda)
    lam = openpairs.lambda_set(gamma_breaks_lambda.base,
                               gamma_breaks_lambda.nabla)
    assert lam <= gam and not gam <= lam


def test_gamma_imp_closure_true_cases(pipeline, identity_full):
    assert openpairs.gamma_imp_closure_equiv(pipeline.twist) == (True, True)
    assert openpairs.gamma_imp_closure_equiv(identity_full) == (True, True)


def test_open_pairs_algebra_pipeline(pipeline, three):
    result = pipeline.open_pairs
    closure = heyting.closure_n(three, frozenset({0, 1}))
    expected = twist.tw(three, frozenset({1, 2}), closure)
    # same carrier modulo the embedding back into the ambient algebra
    embedded = {(result.embed[a], result.embed[b]) for a, b in result.pairs}
    image = {(pipeline.iso[a], pipeline.iso[b]) for a, b in expected.pairs}
    assert embedded == image


def test_open_pairs_algebra_identity_box(identity_full):
    result = openpairs.open_pairs_algebra(identity_full)
    assert result.size == identity_full.size
    assert set(result.pairs) == set(identity_full.pairs)


def test_open_pairs_algebra_refuses_without_lambda(gamma_breaks_lambda):
    with pytest.raises(ValueError, match="element"):
        openpairs.open_pairs_algebra(gamma_breaks_lambda)


def test_open_pairs_carrier_matches_g2_small():
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(poset)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                gam = openpairs.gamma(structure)
                lam = openpairs.lambda_set(algebra, nabla)
                if gam != lam:
                    continue
                result = openpairs.open_pairs_algebra(structure)
                embedded = {(result.embed[a], result.embed[b])
                            for a, b in result.pairs}
                assert embedded == set(openpairs.g2(structure))


def test_box_pair_closed_cases(pipeline, identity_full, gamma_breaks_lambda):
    assert openpairs.box_pair_closed(identity_full)
    assert openpairs.box_pair_closed(pipeline.twist)
    # full twist over any algebra is closed under componentwise box
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(poset)
        assert openpairs.box_pair_closed(twist.full_twist(algebra))
    assert not openpairs.box_pair_closed(gamma_breaks_lambda)


def test_box_pair_closure_implies_gamma_lambda_opens():
    for poset in order.enumerate_posets(3):
        algebra = tba.powerset_tba(poset)
        opens = tba.open_elements(algebra)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                if openpairs.box_pair_closed(structure):
                    gam = openpairs.gamma(structure)
                    lam = openpairs.lambda_set(algebra, nabla)
                    assert gam == lam == opens


def test_grz_and_lambda_imply_box_pair_closed():
    for poset in order.enumerate_posets(3):
        algebra = tba.powerset_tba(poset)
        if not tba.satisfies_grz(algebra)[0]:
            continue
        opens = tba.open_elements(algebra)
        for nabla in tba.open_filters(algebra):
            if openpairs.lambda_set(algebra, nabla) != opens:
                continue
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                assert openpairs.box_pair_closed(structure)


def test_lambda_set_checked_once_per_filter(monkeypatch):
    """Over a sweep the lambda set's closure check runs once per distinct
    (realisation, filter), although companion_structure, the open-pair
    lemmas and gamma_imp_closure_equiv each ask for it per instance; each
    realisation keeps at most one set per element."""
    inputs, checks = [], []
    lambda_set, closed_under = openpairs.lambda_set, openpairs._closed_under

    def spy_lambda(base, nabla):
        inputs.append((base, frozenset(nabla)))  # keeps each base's id
        return lambda_set(base, nabla)

    def spy_closed(mask, table):
        checks.append(table)
        return closed_under(mask, table)

    monkeypatch.setattr(openpairs, "lambda_set", spy_lambda)
    monkeypatch.setattr(openpairs, "_closed_under", spy_closed)
    report = companions.pipeline_sweep(
        max_size=2, corpus=semantics.default_corpus(20), sharp_min=10)
    assert report.ok
    distinct = {(id(base), nabla) for base, nabla in inputs}
    assert len(inputs) >= 3 * report.instances > len(distinct)
    assert len(checks) == 3 * len(distinct)  # meet, join, implication
    assert all(len(base._cache["lambda"]) <= base.n for base, _ in inputs)
