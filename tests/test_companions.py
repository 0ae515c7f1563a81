import numpy as np
import pytest

from twistlab import companions, formula as fm
from twistlab import heyting, order, semantics, tba, twist
from twistlab.companions import (companion_structure,
                                 closed_ideal_axiom_check,
                                 delta_independence_check, form_sharp_corpus,
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


def test_companion_rejects_bad_inputs(three):
    with pytest.raises(ValueError, match="dense"):
        companion_structure(three, frozenset({2}), frozenset({0}))
    with pytest.raises(ValueError, match="filter"):
        companion_structure(three, frozenset({0}), frozenset({0}))
    with pytest.raises(ValueError, match="ideal"):
        companion_structure(three, frozenset({1, 2}), frozenset({2}))


def test_companion_twtop_default_corpus(three):
    inst = companion_structure(three, frozenset({1, 2}), frozenset({0, 1}))
    report = inst.twtop(semantics.default_corpus(300))
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


def test_delta_independence_examples(three):
    nabla = frozenset({1, 2})
    d1, d2 = frozenset({0}), frozenset({0, 1})
    block = Or(q, SNeg(q))
    assert delta_independence_check(three, nabla, d1, d2, block) in (
        True, False)
    # intuitionistic formulas are the zero-block case
    assert delta_independence_check(three, nabla, d1, d2, Imp(p, p)) is True
    assert delta_independence_check(three, nabla, d1, d1, block) == \
        delta_independence_check(three, nabla, d1, d1, block)
    with pytest.raises(ValueError, match="shape"):
        delta_independence_check(three, nabla, d1, d2, fm.KLEENE_AXIOM)


def test_delta_independence_sweep(three):
    "Validity of shaped formulas is constant across all ideals."
    nabla = frozenset({1, 2})
    corpus = form_sharp_corpus(50)
    all_ideals = heyting.ideals(three)
    for phi in corpus[:60]:
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
