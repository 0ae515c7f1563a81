"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  All checks are discrete (exact equality); the only tolerances
are the stated wall-clock budgets.  The poset sweep uses every labeled
poset up to size 3 and one representative per isomorphism class at size 4
(validity is invariant under relabeling, so coverage is the same as the
full labeled sweep).
"""

import time

import pytest

from twistlab import formula as fm
from twistlab import companions, kripke, order, semantics, tba


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def sweep_report():
    posets = list(order.enumerate_posets(3))
    posets += [p for p in order.enumerate_posets(4, dedup=True) if p.n == 4]
    started = time.perf_counter()
    rep = companions.pipeline_sweep(
        max_size=4, corpus=semantics.default_corpus(2000), sharp_min=50,
        posets=posets)
    rep.elapsed = time.perf_counter() - started
    return rep


def test_criterion_1_kleene_reproduction(three, kleene_twist):
    started = time.perf_counter()
    chi_ok = semantics.is_valid(kleene_twist, fm.KLEENE_AXIOM).valid
    prime = semantics.is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM)
    pinned = semantics.evaluate(kleene_twist, fm.KLEENE_PRIME_AXIOM,
                                {"p": (1, 2), "q": (1, 0)})
    elapsed = time.perf_counter() - started
    ok = (chi_ok and not prime.valid and pinned[0] == 1 and elapsed < 1.0)
    report(1, ok,
           f"Kleene axiom valid={chi_ok}, variant refuted={not prime.valid},"
           f" pinned valuation first component={pinned[0]} (mid), "
           f"{elapsed * 1000:.0f} ms")


def test_criterion_2_translation_equivalence(sweep_report):
    rep = sweep_report
    bad = rep.failures.get("t332", []) + rep.failures.get(
        "pipeline_invariants", [])
    checked = rep.counts.get("t332_formulas", 0)
    ok = (not bad and rep.instances > 800 and rep.corpus_size >= 2000
          and checked == rep.instances * rep.corpus_size
          and rep.elapsed < 600)
    report(2, ok,
           f"{rep.instances} instances x {rep.corpus_size} formulas = "
           f"{checked} equivalence checks, {len(bad)} mismatches, "
           f"{rep.elapsed:.0f} s")


def test_criterion_3_sigma_intersection(sweep_report):
    bad = sweep_report.failures.get("l331", [])
    count = sweep_report.counts.get("l331_checked", 0)
    ok = not bad and count == sweep_report.instances
    report(3, ok, f"sigma-lift intersection law on {count} instances, "
                  f"{len(bad)} mismatches")


def test_criterion_4_filter_lifting_bijection(sweep_report):
    bad = sweep_report.failures.get("delta_rho", [])
    count = sweep_report.counts.get("delta_rho_checked", 0)
    ok = not bad and count > 0
    report(4, ok, f"round-trips on {count} filters over {sweep_report.posets}"
                  f" realisations, {len(bad)} failures")


def test_criterion_5_open_pair_lemmas(sweep_report):
    keys = ("l311_1", "l311_2", "l311_3", "l311_4", "l311_5", "l311_6",
            "l312", "l313", "l314", "l324", "p322_consequence")
    bad = [msg for key in keys for msg in sweep_report.failures.get(key, [])]
    counts = [sweep_report.counts.get(f"{k}_checked", 0)
              for k in ("l311", "l312", "l313", "l314", "l324", "p322")]
    ok = not bad and all(c == sweep_report.instances for c in counts)
    report(5, ok, f"open-pair lemma suites on {sweep_report.instances} "
                  f"instances, {len(bad)} violations")


def test_criterion_6_box_disjunction_law():
    phi = kripke.lemma_323_formula()
    started = time.perf_counter()
    hit = kripke.grz_refutation_search(phi, 5)
    frames = 0
    premise_ok = True
    for frame in order.enumerate_posets(5):
        frames += 1
        if frame.n <= 4 and not kripke.lemma_323_premise_vacuous(frame):
            premise_ok = False
    elapsed = time.perf_counter() - started
    ok = hit is None and premise_ok and frames == 4473 and elapsed < 300
    report(6, ok,
           f"no refutation over {frames} labeled frames (<= 5 worlds), "
           f"maximal-world premise vacuous (<= 4), {elapsed:.0f} s "
           f"(bounded evidence, not proof)")


def test_criterion_7_frame_algebra_bridge():
    corpus = semantics.enumerate_formulas("Lbox", 2, 2, 2000)
    mismatches = 0
    frames = 0
    for frame in order.enumerate_posets(4):
        frames += 1
        frame_side = kripke.frame_validity_profile(frame, corpus)
        algebra_side = semantics.validity_profile(
            tba.powerset_tba(frame), corpus)
        mismatches += sum(1 for a, b in zip(frame_side, algebra_side)
                          if a != b)
    ok = mismatches == 0 and frames == 242
    report(7, ok, f"{frames} frames x {len(corpus)} formulas, "
                  f"{mismatches} frame/algebra mismatches")


def test_criterion_8_ideal_independence(sweep_report):
    bad = sweep_report.failures.get("l414", [])
    groups = sweep_report.counts.get("l414_groups", 0)
    # a shaped formula without strong negation reads only first
    # components, so its independence of the ideal holds trivially
    sneg = sum(1 for phi in companions.form_sharp_corpus(50)
               if phi.flags & fm.HAS_SNEG)
    ok = (not bad and sweep_report.sharp_corpus_size >= 50 and groups > 0
          and sneg > 0)
    report(8, ok,
           f"{groups} (algebra, filter) groups x "
           f"{sweep_report.sharp_corpus_size} shaped formulas "
           f"({sneg} with strong negation), "
           f"{len(bad)} ideal-dependent validities")


def test_criterion_9_translated_kleene_implication():
    scan = companions.kleene_box_implication_scan(3)
    ok = (not scan.violations and scan.posets == 23
          and scan.instances > 0)
    report(9, ok,
           f"{scan.instances} (open filter, closed ideal) twists over "
           f"{scan.posets} powerset algebras, {len(scan.violations)} "
           f"implication violations")


def test_criterion_10_kleene_characterization(sweep_report):
    bad = sweep_report.failures.get("kleene_characterization", [])
    count = sweep_report.counts.get("kleene_checked", 0)
    models = sweep_report.counts.get("kleene_models", 0)
    ok = not bad and count == sweep_report.instances and 0 < models < count
    report(10, ok,
           f"validity/order-condition agreement on {count} instances "
           f"({models} model the axiom), {len(bad)} mismatches")


def test_criterion_11_axiom_soundness(sweep_report):
    bad = (sweep_report.failures.get("axiom_soundness", [])
           + sweep_report.failures.get("grz", []))
    count = sweep_report.counts.get("axiom_soundness_checked", 0)
    grz_count = sweep_report.counts.get("grz_checked", 0)
    ok = not bad and count == sweep_report.instances and grz_count > 0
    report(11, ok,
           f"Nelson/modal axiom sets on {count} instances, Grzegorczyk "
           f"axiom on {grz_count} realisations, {len(bad)} violations")
