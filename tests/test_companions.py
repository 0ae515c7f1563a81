import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_posets
from twistlab import companions, formula as fm
from twistlab import heyting, openpairs, order, semantics, tba, twist
from twistlab.companions import (companion_structure,
                                 closed_ideal_axiom_check, form_sharp_corpus,
                                 is_form_sharp, kleene_box_implication_scan,
                                 kleene_characterization, kleene_demo,
                                 pipeline_sweep)
from twistlab.formula import And, Imp, Neg, Or, SNeg, Var

p, q = Var("p"), Var("q")


def test_companion_three_chain(three):
    inst = companion_structure(three, frozenset({1, 2}), frozenset({0, 1}))
    assert inst.tba.n == 4
    assert inst.delta_closure == frozenset({0, 1, 2})
    assert inst.heyting_twist.size == 8
    assert inst.twist.size == 12
    assert inst.open_pairs.size == 8


def test_companion_two_boolean(bool2):
    inst = companion_structure(bool2, frozenset({bool2.top}),
                               frozenset({bool2.bot}))
    assert (inst.tba.box == np.arange(2)).all()
    assert inst.twist.size == 2
    assert inst.heyting_twist.size == 2
    image = {(inst.iso[a], inst.iso[b])
             for a, b in inst.heyting_twist.pairs}
    assert set(inst.twist.pairs) == image


def test_companion_three_chain_trivial_ideal(three):
    inst = companion_structure(three, frozenset({1, 2}), frozenset({0}))
    assert inst.delta_closure == frozenset({0})
    assert inst.heyting_twist.size == 4
    assert set(inst.heyting_twist.pairs) == {(0, 1), (0, 2), (1, 0), (2, 0)}


def test_companion_rejects_bad_inputs(chain2):
    """A rejected input gets a message naming nabla or delta and why, over
    the 3-chain, whose dense elements are 1 and 2; it is rejected before
    the algebra's realisation is built."""
    for nabla, delta, message in (
            ({2}, {0}, "^nabla lacks the dense element 1$"),
            ({0}, {0}, "^nabla is not a filter"),
            ({1, 2}, {2}, "^delta is not an ideal")):
        algebra = order.heyting_from_poset(chain2)
        with pytest.raises(ValueError, match=message):
            companion_structure(algebra, frozenset(nabla), frozenset(delta))
        assert "s_of" not in algebra._cache


def _images(iso, elements):
    return frozenset(iso[a] for a in elements)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(random_posets(max_n=5))
def test_cell_map_is_rho_and_sigma_on_generators(poset):
    """In the realisation of the up-set algebra of a random poset of at
    most 5 points, for every element a, rho lifts the opens above iso a
    to up(iso a) and sigma lifts the opens below it to down(dia iso a):
    the cell map companion_structure lifts by."""
    algebra = order.heyting_from_poset(poset)
    realisation, iso = tba.s_of(algebra)
    for a in range(algebra.n):
        assert tba.rho_map(realisation, _images(iso, algebra.upset(a))) \
            == realisation.upset(iso[a])
        assert tba.sigma_map(realisation,
                             _images(iso, algebra.downset(a))) \
            == realisation.downset(realisation.dia(iso[a]))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(random_posets(max_n=5))
def test_lifted_twist_is_rho_and_sigma(poset):
    """For every instance (up(f), down(d)) over the up-set algebra of a
    random poset of at most 5 points, the lifted twist's filter and ideal
    are rho of the filter's image and sigma of the ideal's image, the sets
    the set-level lift gives, and its cell is (iso f, dia iso d)."""
    algebra = order.heyting_from_poset(poset)
    dense = heyting.dense_filter(algebra)
    for f in range(algebra.n):
        nabla = algebra.upset(f)
        if not dense <= nabla:
            continue
        for d in range(algebra.n):
            delta = algebra.downset(d)
            inst = companion_structure(algebra, nabla, delta)
            realisation, iso = inst.tba, inst.iso
            lifted = inst.twist
            assert lifted.nabla == inst.nabla_hat == tba.rho_map(
                realisation, _images(iso, nabla))
            assert lifted.delta == inst.delta_hat == tba.sigma_map(
                realisation, _images(iso, delta))
            assert lifted.cell == (iso[f], realisation.dia(iso[d]))


def _instance_triples(max_n):
    """(algebra, dense filter, ideal) for every pipeline instance over the
    classes of at most max_n points, over freshly built algebras."""
    return [(algebra, nabla, delta)
            for algebra in map(order.heyting_from_poset,
                               order.enumerate_posets(max_n, dedup=True))
            for nabla in heyting.filters(algebra, require_dense=True)
            for delta in heyting.ideals(algebra)]


def test_lift_needs_no_set_level_maps(monkeypatch):
    """companion_structure lifts by the cell map alone: with rho_map and
    sigma_map made to raise, wherever the pipeline could reach them, it
    builds every instance of the classes of at most 3 points, and each
    is the instance built with them in place."""
    want = [companion_structure(*triple).to_json()
            for triple in _instance_triples(3)]

    def refuse(*args):
        raise AssertionError("set-level lift called")

    for module in (tba, companions):
        for name in ("rho_map", "sigma_map"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    got = [companion_structure(*triple).to_json()
           for triple in _instance_triples(3)]
    assert len(got) == 152
    assert got == want


def test_companion_twtop_default_corpus(three):
    inst = companion_structure(three, frozenset({1, 2}), frozenset({0, 1}))
    report = semantics.twtop_check(inst.twist, semantics.default_corpus(300))
    assert report.hypotheses_hold
    assert not report.mismatches
    data = report.to_json()
    assert data["mismatches"] == 0 and data["grz_holds"]


def test_is_form_sharp_examples():
    block = Or(q, SNeg(q))
    assert is_form_sharp(block) == (q, (), ("q",))
    assert is_form_sharp(fm.KLEENE_AXIOM) is None
    skeleton, ps, qs = is_form_sharp(Neg(Neg(block)))
    assert ps == () and qs == ("q",)
    assert skeleton == fm.desugar(Neg(Neg(q)))


def test_is_form_sharp_mixed_variables():
    phi = Imp(p, Or(q, SNeg(q)))
    skeleton, ps, qs = is_form_sharp(phi)
    assert ps == ("p",) and qs == ("q",)
    assert skeleton == Imp(p, q)
    # a block variable reappearing bare breaks the shape
    assert is_form_sharp(And(Or(q, SNeg(q)), q)) is None
    # swapped block still matches
    assert is_form_sharp(Or(SNeg(q), q)) == (q, (), ("q",))
    # plain intuitionistic formulas match with no blocks
    assert is_form_sharp(Imp(p, q)) == (Imp(p, q), ("p", "q"), ())


def test_form_sharp_corpus():
    corpus = form_sharp_corpus(50)
    assert len(corpus) >= 50
    assert len(set(corpus)) == len(corpus)
    for phi in corpus:
        assert is_form_sharp(phi) is not None


def test_delta_independence_sweep(three):
    "Validity of shaped formulas is constant across all ideals."
    nabla = frozenset({1, 2})
    corpus = form_sharp_corpus(50)
    all_ideals = heyting.ideals(three)
    # intuitionistic formulas are the zero-block case
    for phi in corpus[:60] + [Imp(p, p)]:
        values = {
            semantics.is_valid(twist.tw(three, nabla, delta), phi).valid
            for delta in all_ideals}
        assert len(values) == 1


def test_kleene_characterization_examples(three):
    assert kleene_characterization(three, frozenset({1, 2}),
                                   frozenset({0, 1}))
    assert not kleene_characterization(three, frozenset({1, 2}),
                                       frozenset({0, 1, 2}))
    assert kleene_characterization(three, frozenset({1, 2}),
                                   frozenset({0}))
    assert kleene_characterization(three, frozenset({0, 1, 2}),
                                   frozenset({0}))


def test_closed_ideal_axiom_examples(three, bool4):
    assert closed_ideal_axiom_check(three, frozenset({1, 2}),
                                    frozenset({0}))
    assert not closed_ideal_axiom_check(three, frozenset({1, 2}),
                                        frozenset({0, 1}))
    # on a Boolean algebra double negation is trivial: always valid
    top_filter = frozenset({bool4.top})
    for delta in heyting.ideals(bool4):
        assert closed_ideal_axiom_check(bool4, top_filter, delta)


def test_closed_ideal_axiom_implies_closed(three):
    for nabla in heyting.filters(three, require_dense=True):
        for delta in heyting.ideals(three):
            if closed_ideal_axiom_check(three, nabla, delta):
                assert heyting.is_closed_ideal(three, delta)


def test_kleene_scan_no_violations():
    report = kleene_box_implication_scan(2)
    assert report.posets == 4
    assert not report.violations
    assert report.instances == 38
    data = report.to_json()
    assert data["violations"] == []


def test_kleene_scan_identity_box_matches_order_condition(anti2):
    "With a discrete interior the twist validity reduces to the order law."
    t_chi = fm.belnap_translate(fm.desugar(fm.KLEENE_AXIOM))
    algebra = tba.powerset_tba(anti2)
    for nabla in tba.open_filters(algebra):
        for delta in tba.closed_ideals(algebra):
            structure = twist.tw(algebra, nabla, delta)
            valid = semantics.is_valid(structure, t_chi).valid
            by_order = all(algebra.leq(a, b)
                           for a in delta for b in nabla)
            assert valid == by_order


def test_kleene_demo_report():
    report = kleene_demo()
    assert report.chi_valid and report.chi_prime_refuted
    assert report.witness == {"p": (1, 1), "q": (0, 1)}
    assert report.pinned_value == (1, 0)
    assert not report.scan.violations
    data = report.to_json()
    assert data["kleene_axiom_valid"] is True
    assert data["pinned_valuation_value"] == [1, 0]
    checked = [line for line in report.transcript
               if line.startswith("[checked]")]
    glue = [line for line in report.transcript if line.startswith("[glue]")]
    assert len(checked) == 3 and len(glue) == 2


def test_pipeline_sweep_small():
    report = pipeline_sweep(max_size=2, corpus=semantics.default_corpus(60),
                            sharp_min=20)
    assert report.ok
    assert report.posets == 4
    assert report.instances == report.counts["instances_built"] > 0
    assert report.counts["t332_formulas"] == report.instances * 77


def test_pipeline_sweep_jobs_deterministic():
    corpus = semantics.default_corpus(40)
    serial = pipeline_sweep(max_size=2, corpus=corpus, sharp_min=10)
    parallel = pipeline_sweep(max_size=2, corpus=corpus, sharp_min=10,
                              jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_pipeline_sweep_pool_bounded_by_cpu_count(fake_pool, monkeypatch):
    """However large ``jobs``, the sweep's pool gets one worker per CPU
    (the fake pool forks nothing)."""
    monkeypatch.setattr(companions, "_worker_state", {})
    corpus = semantics.default_corpus(40)
    serial = pipeline_sweep(max_size=2, corpus=corpus, sharp_min=10)
    pooled = pipeline_sweep(max_size=2, corpus=corpus, sharp_min=10,
                            jobs=100_000)
    assert serial.to_json() == pooled.to_json()
    assert fake_pool == [{"max_workers": 3, "tasks": serial.posets}]


def _per_instance_profiles(poset, corpus, sharp):
    """The per-instance validity scans of a sweep over one poset: every
    formula set profiled on every twist it is checked on."""
    algebra = order.heyting_from_poset(poset)
    n4bot = list(fm.axioms("N4BOT"))
    plain_side = n4bot + [fm.KLEENE_AXIOM, fm.CLOSED_IDEAL_AXIOM] + sharp
    translated = [fm.belnap_translate(fm.desugar(phi)) for phi in corpus]
    for nabla in heyting.filters(algebra, require_dense=True):
        for delta in heyting.ideals(algebra):
            inst = companion_structure(algebra, nabla, delta)
            semantics.validity_profile(twist.tw(algebra, nabla, delta),
                                       plain_side)
            semantics.validity_profile(inst.heyting_twist, n4bot + corpus)
            semantics.validity_profile(
                inst.twist, list(fm.axioms("BS4")) + translated)


def test_sweep_cap_edge(monkeypatch, chain2):
    """The sweep's tables scan the grid of the full twist, and the full
    twist is one of the sweep's instances: one row below the largest such
    grid both the sweep and the per-instance scans are refused, and at
    exactly that size both run."""
    corpus = semantics.default_corpus(40)
    sharp = form_sharp_corpus(10)
    realisation, _ = tba.s_of(order.heyting_from_poset(chain2))
    # two-variable formulas with strong negation over the full twist of the
    # 4-element realisation; the three-variable axioms are positive and
    # scan 4**3 rows of the base
    rows = twist.full_twist(realisation).size ** 2
    assert rows == 256
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", str(rows - 1))
    with pytest.raises(semantics.CapExceededError):
        pipeline_sweep(corpus=corpus, sharp_min=10, posets=[chain2])
    with pytest.raises(semantics.CapExceededError):
        _per_instance_profiles(chain2, corpus, sharp)
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", str(rows))
    assert pipeline_sweep(corpus=corpus, sharp_min=10, posets=[chain2]).ok
    _per_instance_profiles(chain2, corpus, sharp)


def test_sweep_failures_name_formulas(monkeypatch, chain2):
    """A t332 or l414 failure names its formulas by pretty(), next to the
    poset, the filter and (for t332) the ideal: here one formula's
    verdicts over the 3-chain are flipped at the ideal {bot}."""
    target = next(phi for phi in form_sharp_corpus(10)
                  if phi.flags & fm.HAS_SNEG)
    table = semantics.validity_table

    def flipped(base, formulas):
        valid = table(base, formulas)
        if not isinstance(base, tba.FiniteTBA):
            for i, phi in enumerate(formulas):
                if phi == target:
                    valid[i, :, base.bot] ^= True
        return valid

    monkeypatch.setattr(semantics, "validity_table", flipped)
    report = pipeline_sweep(corpus=[target, fm.KLEENE_AXIOM], sharp_min=10,
                            posets=[chain2])
    name = fm.pretty(target)
    t332 = report.failures["t332"]
    assert len(t332) == 2  # one per dense filter, at the ideal {bot}
    for message in t332:
        assert "delta=[0]" in message
        assert message.endswith(f"formulas (1): [{name!r}]")
    assert report.failures["l414"] == [
        f"poset2:{chain2.relation_mask()} nabla={sorted(nabla)} "
        f"formulas (1): [{name!r}]" for nabla in ([0, 1, 2], [1, 2])]


def test_one_realisation_per_algebra(chain2):
    """The Alexandrov realisation belongs to the algebra: s_of builds it
    once, every pipeline instance over the algebra lifts into that same
    tba, and an equal algebra built separately gets its own, equal one."""
    algebra = order.heyting_from_poset(chain2)
    realisation = tba.s_of(algebra)
    assert tba.s_of(algebra) is realisation
    for nabla, delta in (({1, 2}, {0}), ({0, 1, 2}, {0, 1})):
        inst = companion_structure(algebra, frozenset(nabla),
                                   frozenset(delta))
        assert inst.tba is realisation[0]
    again = order.heyting_from_poset(chain2)
    assert again == algebra and again is not algebra
    other = tba.s_of(again)
    assert other[0] is not realisation[0]
    assert other == realisation


def test_build_facts_cached_per_algebra(posets4_classes):
    """Over every (nabla, delta) instance of the largest size-4 class, the
    realisation's cache holds at most one checked boxed subalgebra per open
    element, every instance's open-pairs algebra lies over that one shared
    subalgebra, and the dense filter is computed once per algebra."""
    algebra = max(map(order.heyting_from_poset, posets4_classes),
                  key=lambda a: a.n)
    instances = [companion_structure(algebra, nabla, delta)
                 for nabla in heyting.filters(algebra, require_dense=True)
                 for delta in heyting.ideals(algebra)]
    realisation = instances[0].tba
    boxed = realisation._cache["boxed"]
    assert 1 <= len(boxed) <= len(tba.open_elements(realisation))
    bases = {id(inst.open_pairs.base) for inst in instances}
    assert len(instances) > 1 and len(bases) == 1
    assert instances[0].open_pairs.base is \
        boxed[instances[0].open_pairs.embed]
    assert algebra._cache["dense"] is heyting.dense_filter(algebra)


def test_every_build_check_runs_once(monkeypatch):
    """Over every pipeline instance of the classes of at most 3 points,
    each distinct carrier (base, nabla, delta) of the three twists an
    instance builds is verified exactly once, five sets an instance are
    tested to be a filter or an ideal (delta by closure_n, nabla and the
    closed ideal by tw, the open pairs' two sets by the tw of
    open_pairs_algebra), and every table that a structure of the
    pipeline holds went through heyting._table exactly once: the shared
    Boolean tables once per size (their memo starts empty here), each
    interior and each subalgebra's tables once."""
    monkeypatch.setattr(tba, "_BOOLEANS", {})
    checked, rechecked = [], []

    def table(data, shape, real=heyting._table):
        if any(data is arr for arr in checked):
            rechecked.append(data)
        checked.append(real(data, shape))
        return checked[-1]

    verified = []

    def verify(structure, real=twist._verify):
        verified.append((id(structure.base), structure.nabla,
                         structure.delta))
        real(structure)

    set_tests = []

    def generator(*args, real=heyting._generator, **kwargs):
        set_tests.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(heyting, "_table", table)
    monkeypatch.setattr(tba, "_table", table)
    monkeypatch.setattr(twist, "_verify", verify)
    for module in (heyting, tba, twist):
        monkeypatch.setattr(module, "_generator", generator)
    instances = [companion_structure(algebra, nabla, delta)
                 for algebra in map(order.heyting_from_poset,
                                    order.enumerate_posets(3, dedup=True))
                 for nabla in heyting.filters(algebra, require_dense=True)
                 for delta in heyting.ideals(algebra)]
    carriers = {(id(structure.base), structure.nabla, structure.delta)
                for inst in instances
                for structure in (inst.twist, inst.heyting_twist,
                                  inst.open_pairs)}
    assert len(instances) == 152
    assert len(set_tests) == 5 * len(instances)
    assert len(verified) == len(set(verified)) == len(carriers)
    assert set(verified) == carriers
    held = [getattr(algebra, name)
            for inst in instances
            for algebra in (inst.algebra, inst.tba, inst.open_pairs.base)
            for name in ("meet", "join", "imp", "box")
            if hasattr(algebra, name)]
    assert {id(arr) for arr in held} <= {id(arr) for arr in checked}
    assert not rechecked
    assert sorted(tba._BOOLEANS) == [1, 2, 3]


def test_open_pairs_mismatch_is_reported(monkeypatch, three):
    """With the ideal's closure skipped, the open pairs of the lifted twist
    are not the twist over the source, and the carrier comparison says
    so; with the reconstructed ideal cut to bottom, the open-pairs algebra
    is not the open pairs, and its comparison says so."""
    nabla, delta = frozenset({1, 2}), frozenset({0, 1})
    with monkeypatch.context() as patch:
        patch.setattr(companions, "closure_n", lambda algebra, d: d)
        with pytest.raises(AssertionError, match="^open pairs differ from "
                           "the closed-ideal twist over the source$"):
            companion_structure(three, nabla, delta)
    lifted = companion_structure(three, nabla, delta).twist
    monkeypatch.setattr(openpairs, "delta_g",
                        lambda structure: frozenset({structure.base.bot}))
    with pytest.raises(AssertionError, match="^open pairs differ from the "
                       "reconstructed twist$"):
        openpairs.open_pairs_algebra(lifted)


def test_delta_rho_failure_is_reported(monkeypatch, chain2):
    """A broken lifting map is a recorded delta_rho failure that names the
    poset, not an exception that ends the sweep, and no instance fails:
    here delta_map sends every open filter to {top}, and then sigma_map
    every ideal to {bot}, wherever the pipeline could reach it."""
    for name, broken in (
            ("delta_map", lambda algebra, nabla: frozenset({algebra.top})),
            ("sigma_map", lambda algebra, delta: frozenset({algebra.bot}))):
        with monkeypatch.context() as patch:
            for module in (tba, companions):
                patch.setattr(module, name, broken, raising=False)
            report = pipeline_sweep(corpus=semantics.default_corpus(40),
                                    sharp_min=10, posets=[chain2])
        assert report.to_json()["failures"] == {
            "delta_rho": [f"poset2:{chain2.relation_mask()}"]}, name
        assert report.counts["instances_built"] == report.instances == 6


def test_failed_instances_are_reported(monkeypatch, chain2):
    """An instance whose pipeline invariants fail is a recorded failure
    that names it, and the sweep goes on: here every instance fails, so
    no cell is read and no formula group varies."""
    def broken(algebra, nabla, delta):
        raise AssertionError("broken")

    monkeypatch.setattr(companions, "companion_structure", broken)
    report = pipeline_sweep(corpus=semantics.default_corpus(40),
                            sharp_min=10, posets=[chain2])
    failures = report.to_json()["failures"]
    assert list(failures) == ["pipeline_invariants"]
    assert len(failures["pipeline_invariants"]) == report.instances == 6
    assert all(entry.endswith(": broken")
               for entry in failures["pipeline_invariants"])
    assert report.counts["l414_groups"] == 2
    assert "instances_built" not in report.counts
