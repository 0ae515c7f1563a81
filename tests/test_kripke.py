import itertools

import pytest

from conftest import slow_forces
from twistlab import formula as fm
from twistlab import kripke, order, semantics, tba
from twistlab.formula import Box, Dia, Imp, Neg, Or, Var
from twistlab.kripke import (KripkeModel, frame_valid,
                             frame_validity_profile, grz_refutation_search,
                             lemma_323_formula, lemma_323_premise_vacuous)

p, q = Var("p"), Var("q")


def brute_frame_valid(frame, phi):
    "Oracle: loop over all valuations and worlds with the slow evaluator."
    psi = fm.desugar(phi, fm.LanguageTag.Lbox)
    names = sorted(fm.free_vars(psi))
    subsets = list(range(1 << frame.n))
    for combo in itertools.product(subsets, repeat=len(names)):
        valuation = {
            name: frozenset(w for w in range(frame.n) if mask >> w & 1)
            for name, mask in zip(names, combo)}
        model = KripkeModel(frame, valuation)
        for world in range(frame.n):
            if not slow_forces(model, world, psi):
                return False, model, world
    return True, None, None


def test_forces_examples(chain2):
    point = order.FinitePoset.from_pairs(1, [(0, 0)])
    assert slow_forces(KripkeModel(point, {"p": frozenset({0})}), 0, Box(p))
    model = KripkeModel(chain2, {"p": frozenset({1})})
    assert slow_forces(model, 0, Dia(p))
    assert not slow_forces(model, 0, Box(p))
    assert not slow_forces(model, 0, fm.Bot)
    assert not slow_forces(model, 1, fm.Bot)


def test_forces_material_implication(chain2):
    # p -> q is classical per world: false only where p holds and q fails
    model = KripkeModel(chain2, {"p": frozenset({0}), "q": frozenset()})
    assert not slow_forces(model, 0, Imp(p, q))
    assert slow_forces(model, 1, Imp(p, q))


def test_forces_rejects_strong_negation(chain2):
    with pytest.raises(semantics.LanguageError):
        slow_forces(KripkeModel(chain2, {}), 0, fm.SNeg(p))


def test_frame_valid_tautology(posets3):
    for frame in posets3:
        assert frame_valid(frame, Box(Imp(p, p))).valid


def test_frame_valid_refutation(chain2):
    outcome = frame_valid(chain2, Imp(Dia(p), Box(p)))
    assert not outcome.valid
    assert outcome.model.valuation["p"] == frozenset({0})
    assert outcome.world == 0
    data = outcome.to_json()
    assert data["world"] == 0 and data["valuation"] == {"p": [0]}


def test_frame_valid_one_point_grz():
    point = order.FinitePoset.from_pairs(1, [(0, 0)])
    (grz,) = fm.axioms("GRZ")
    assert frame_valid(point, grz).valid


def test_frame_valid_matches_bruteforce():
    corpus = semantics.enumerate_formulas("Lbox", 2, 2, 60)
    for frame in order.enumerate_posets(3, dedup=True):
        for phi in corpus:
            mine = frame_valid(frame, phi)
            ref_valid, ref_model, ref_world = brute_frame_valid(frame, phi)
            assert mine.valid == ref_valid
            if not mine.valid:
                assert mine.model.valuation == ref_model.valuation
                assert mine.world == ref_world


def test_frame_validity_profile_matches(chain2):
    corpus = semantics.enumerate_formulas("Lbox", 2, 2, 200)
    profile = frame_validity_profile(chain2, corpus)
    assert profile == [frame_valid(chain2, phi).valid for phi in corpus]


def test_grz_axiom_valid_on_small_posets():
    (grz,) = fm.axioms("GRZ")
    assert grz_refutation_search(grz, 4) is None


def test_grz_search_s4_theorem():
    assert grz_refutation_search(Imp(Box(p), p), 3) is None


def test_grz_search_lemma_323():
    assert grz_refutation_search(lemma_323_formula(), 4) is None


def test_grz_search_finds_refutation():
    # the convergence law fails on posets: a fork refutes it
    hit = grz_refutation_search(Imp(Dia(Box(p)), Box(Dia(p))), 4)
    assert hit is not None
    assert hit.model.frame.n == 3
    assert hit.model.valuation["p"] == frozenset({1})
    assert hit.world == 0
    again = grz_refutation_search(Imp(Dia(Box(p)), Box(Dia(p))), 4)
    assert again.model.frame == hit.model.frame  # deterministic first hit


def test_lemma_323_formula_shape():
    phi = lemma_323_formula()
    core = fm.desugar(phi)
    assert fm.language_of(core) == fm.LanguageTag.Lbox
    assert fm.free_vars(core) == frozenset({"p", "q"})
    expected = fm.parse(
        "[](p | q) & (([]p | []<>!p) & ([]q | []<>!q)) -> ([]p | []q)")
    assert core == fm.desugar(expected)


def test_lemma_323_valid_small(posets3):
    phi = lemma_323_formula()
    for frame in posets3:
        assert frame_valid(frame, phi).valid


def test_lemma_323_premise_vacuous(posets3):
    for frame in posets3:
        assert lemma_323_premise_vacuous(frame)


def test_lemma_323_algebra_side(posets3):
    "Cross-check on the powerset algebras: the formula evaluates to top."
    phi = lemma_323_formula()
    for frame in posets3:
        algebra = tba.powerset_tba(frame)
        assert semantics.is_valid(algebra, phi).valid


def test_frame_algebra_soundness_bridge():
    "Frame validity coincides with powerset-algebra validity."
    corpus = semantics.enumerate_formulas("Lbox", 2, 2, 300)
    for frame in order.enumerate_posets(3, dedup=True):
        algebra = tba.powerset_tba(frame)
        frame_side = frame_validity_profile(frame, corpus)
        algebra_side = semantics.validity_profile(algebra, corpus)
        assert frame_side == algebra_side


def test_frame_cap(monkeypatch, chain2):
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", "3")
    with pytest.raises(semantics.CapExceededError):
        frame_valid(chain2, Imp(p, q))
