"""The smaller-scale translation invariants: the boxed-embedding bridge
between an algebra and its opens, the first-projection lemma for
valuations into the open pairs, and box-pair closure forcing the
equivalence outside the main pipeline."""

import itertools

from twistlab import companions, formula as fm
from twistlab import heyting, openpairs, order, semantics, tba, twist
from twistlab.formula import Box, Dia, Imp, Var
from twistlab.kripke import grz_refutation_search


def test_top_bridge_opens_vs_boxed_translation():
    "G-validity of an Li formula coincides with validity of its embedding."
    corpus = semantics.enumerate_formulas("Li", 2, 2, 500)
    translated = [fm.godel_tarski(phi) for phi in corpus]
    for poset in order.enumerate_posets(4, dedup=True):
        algebra = tba.powerset_tba(poset)
        g_alg, _ = tba.open_algebra(algebra)
        open_side = semantics.validity_profile(g_alg, corpus)
        box_side = semantics.validity_profile(algebra, translated)
        assert open_side == box_side


def test_projection_lemma_on_open_pair_valuations(three):
    """For valuations landing in the open pairs, the first component of
    the translated formula in the big twist equals the first component of
    the original formula in the open-pairs twist."""
    inst = companions.companion_structure(
        three, frozenset({1, 2}), frozenset({0, 1}))
    structure, pairs_alg = inst.twist, inst.open_pairs
    embed = pairs_alg.embed
    corpus = [fm.desugar(phi)
              for phi in semantics.default_corpus(250)]
    g2_pairs = pairs_alg.pairs  # in the subalgebra's indices
    for phi in corpus:
        names = sorted(fm.free_vars(phi))
        if len(names) > 2:
            continue
        translated = fm.belnap_translate(phi)
        for combo in itertools.product(g2_pairs[:4] + g2_pairs[-2:],
                                       repeat=len(names)):
            small = dict(zip(names, combo))
            big = {name: (embed[a], embed[b])
                   for name, (a, b) in small.items()}
            lhs = semantics.evaluate(structure, translated, big)[0]
            rhs = semantics.evaluate(pairs_alg, phi, small)[0]
            assert lhs == embed[rhs]


def test_projection_lemma_exhaustive_small():
    "Same lemma, every valuation, every pipeline from posets up to 3."
    corpus = [fm.desugar(phi) for phi in semantics.default_corpus(120)]
    translated = [fm.belnap_translate(phi) for phi in corpus]
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = order.heyting_from_poset(poset)
        for nabla in heyting.filters(algebra, require_dense=True):
            for delta in heyting.ideals(algebra):
                inst = companions.companion_structure(algebra, nabla, delta)
                embed = inst.open_pairs.embed
                g2 = inst.open_pairs.pairs
                lift = {i: (embed[a], embed[b])
                        for i, (a, b) in enumerate(g2)}
                for phi, tphi in zip(corpus, translated):
                    names = sorted(fm.free_vars(phi))
                    if len(names) > 2 or len(g2) > 12:
                        continue
                    for combo in itertools.product(range(len(g2)),
                                                   repeat=len(names)):
                        small = {n: g2[i] for n, i in zip(names, combo)}
                        big = {n: lift[i] for n, i in zip(names, combo)}
                        lhs = semantics.evaluate(inst.twist, tphi, big)[0]
                        rhs = semantics.evaluate(inst.open_pairs, phi,
                                                 small)[0]
                        assert lhs == embed[rhs]
                break  # one ideal per filter keeps this affordable
            break


def test_box_pair_closure_gives_equivalence_off_pipeline():
    """Box-pair-closed twists over powerset algebras satisfy the
    open-pairs/translation equivalence for the whole corpus, including
    twists that no pipeline instance produces."""
    corpus = semantics.default_corpus(150)
    seen = 0
    for poset in order.enumerate_posets(2):
        algebra = tba.powerset_tba(poset)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                if not openpairs.box_pair_closed(structure):
                    continue
                seen += 1
                report = semantics.twtop_check(structure, corpus)
                assert report.hypotheses_hold
                assert not report.mismatches
    assert seen > 10


def test_twtop_rows_examples(three):
    inst = companions.companion_structure(
        three, frozenset({1, 2}), frozenset({0, 1}))
    corpus = list(fm.axioms("N4BOT")) + [fm.Var("p"), fm.KLEENE_AXIOM]
    report = semantics.twtop_check(inst.twist, corpus)
    rows = {phi: (lhs, rhs) for phi, lhs, rhs in report.rows}
    for phi in fm.axioms("N4BOT"):
        assert rows[phi] == (True, True)
    assert rows[fm.Var("p")] == (False, False)


def test_mckinsey_formula_is_finite_poset_valid():
    """The one-way convergence law holds on every finite poset (take a
    maximal successor), so no refutation exists at this scale; only its
    converse fails."""
    p = Var("p")
    assert grz_refutation_search(Imp(Box(Dia(p)), Dia(Box(p))), 4) is None
    assert grz_refutation_search(Imp(Dia(Box(p)), Box(Dia(p))), 4) \
        is not None
