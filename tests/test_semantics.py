import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slow_evaluate, slow_is_valid
from twistlab import formula as fm
from twistlab import heyting, kripke, order, semantics, tba, twist
from twistlab.formula import And, Bot, Box, Dia, Imp, Or, SNeg, Var
from twistlab.semantics import (CapExceededError, LanguageError,
                                default_corpus, enumerate_formulas, evaluate,
                                is_valid, twtop_check, validity_profile)

p, q = Var("p"), Var("q")


def test_evaluate_modified_kleene_pinned_point(kleene_twist):
    value = evaluate(kleene_twist, fm.KLEENE_PRIME_AXIOM,
                     {"p": (1, 2), "q": (1, 0)})
    assert value[0] == 1  # strictly below top: the refutation point


def test_evaluate_double_strong_negation(kleene_twist):
    for pair in kleene_twist.pairs:
        assert evaluate(kleene_twist, SNeg(SNeg(p)), {"p": pair}) == pair


def test_evaluate_ex_falso(three):
    for a in range(three.n):
        assert evaluate(three, Imp(Bot, p), {"p": a}) == three.top


def test_evaluate_checks_membership_and_binding(kleene_twist, three):
    with pytest.raises(ValueError):
        evaluate(kleene_twist, p, {"p": (2, 2)})
    with pytest.raises(KeyError):
        evaluate(kleene_twist, p, {})
    with pytest.raises(ValueError):
        evaluate(three, p, {"p": 9})


# A value that names no element, and the error that evaluate raises for it
_NON_INDICES = [
    ("twist", (True, 0), r"^pair \(True, 0\) not in carrier$"),
    ("twist", (1, False), r"^pair \(1, False\) not in carrier$"),
    ("twist", (1.0, 0), r"^pair \(1.0, 0\) not in carrier$"),
    ("twist", ("1", 0), r"^pair \('1', 0\) not in carrier$"),
    ("twist", (1, np.float64(0)), r"^pair \(1, .*\) not in carrier$"),
    ("algebra", 1.7, r"^element 1.7 out of range$"),
    ("algebra", 1.0, r"^element 1.0 out of range$"),
    ("algebra", "1", r"^element 1 out of range$"),
    ("algebra", True, r"^element True out of range$"),
    ("algebra", np.float32(1), r"^element 1.0 out of range$"),
]


@pytest.mark.parametrize("side, value, message", _NON_INDICES,
                         ids=[f"{side}-{value!r}"
                              for side, value, _ in _NON_INDICES])
def test_evaluate_refuses_non_integer_values(side, value, message, three,
                                             kleene_twist):
    """A valuation names elements by int or numpy integer indices only:
    a bool, a float or a string is refused with the carrier or range
    error, never converted to the element it would round or parse to
    (here (1, 0) and 1, both members), while numpy integers are taken.
    A twist's membership test and carrier index refuse the same pairs."""
    structure = kleene_twist if side == "twist" else three
    with pytest.raises(ValueError, match=message):
        evaluate(structure, p, {"p": value})
    if side == "twist":
        assert value not in structure
        with pytest.raises(ValueError, match=message):
            structure.index(value)
    assert evaluate(kleene_twist, p, {"p": (np.int8(1), np.intp(0))}) \
        == (1, 0)
    assert evaluate(three, p, {"p": np.uint16(1)}) == 1


def test_evaluate_language_checks(three, kleene_twist):
    with pytest.raises(LanguageError):
        evaluate(three, SNeg(p), {"p": 0})
    with pytest.raises(LanguageError):
        evaluate(three, Box(p), {"p": 0})
    with pytest.raises(LanguageError):
        evaluate(kleene_twist, Box(p), {"p": (0, 1)})


def test_is_valid_kleene(kleene_twist):
    assert is_valid(kleene_twist, fm.KLEENE_AXIOM).valid
    outcome = is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM)
    assert not outcome.valid
    # the pinned refuting valuation is among the refuters
    assert evaluate(kleene_twist, fm.KLEENE_PRIME_AXIOM,
                    {"p": (1, 2), "q": (1, 0)})[0] != 2


def test_is_valid_least_witness(kleene_twist):
    outcome = is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM)
    valid, witness = slow_is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM)
    assert not valid and outcome.witness == witness


def test_is_valid_matches_reference_everywhere(kleene_twist):
    corpus = enumerate_formulas("Ls", 2, 2, 120)
    for phi in corpus:
        mine = is_valid(kleene_twist, phi)
        ref_valid, ref_witness = slow_is_valid(kleene_twist, phi)
        assert mine.valid == ref_valid
        assert mine.witness == ref_witness


def test_is_valid_matches_reference_on_algebra(three):
    for phi in enumerate_formulas("Li", 2, 2, 120):
        mine = is_valid(three, phi)
        ref_valid, ref_witness = slow_is_valid(three, phi)
        assert mine.valid == ref_valid and mine.witness == ref_witness


def test_is_valid_matches_reference_modal(chain2):
    algebra = tba.powerset_tba(chain2)
    structure = twist.full_twist(algebra)
    for phi in enumerate_formulas("Lsbox", 2, 1, 150):
        mine = is_valid(structure, phi)
        ref_valid, ref_witness = slow_is_valid(structure, phi)
        assert mine.valid == ref_valid and mine.witness == ref_witness


def test_positive_reduction_agrees(kleene_twist):
    """Positive formulas scanned over one pair per base element give the
    results and witnesses of the scan over every pair."""
    for phi in enumerate_formulas("Li", 2, 2, 150):
        fast = is_valid(kleene_twist, phi, reduce_positive=True)
        full = is_valid(kleene_twist, phi, reduce_positive=False)
        assert fast.valid == full.valid
        assert fast.witness == full.witness


def test_is_valid_jobs_deterministic(bool4):
    """Four variables over the 16 pairs of full_twist(bool4): 65536 rows,
    enough for jobs=2 to split the grid over a process pool.  The refuted
    formula first fails at row 16448, outside the first serial chunk, and
    fails in both halves of the split as well.  The positive formulas in
    seven variables range over one pair per base element: 4**7 = 16384
    rows, refuted from row 4096 on (where p first leaves bot) in both
    halves too."""
    structure = twist.full_twist(bool4)
    assert structure.size ** 4 > semantics._FIRST_CHUNK
    assert bool4.n ** 7 > semantics._FIRST_CHUNK
    for text, valid, reduce in (
            ("((p & q) & (r & s)) -> p", True, False),
            ("(p -> q) | (r -> ~s)", False, False),
            ("((p & q) & ((r & s) & ((t & u) & v))) -> p", True, True),
            ("(p -> v) | ((q & r) & ((s & t) & u))", False, True)):
        phi = fm.parse(text)
        serial = is_valid(structure, phi, jobs=1, reduce_positive=reduce)
        parallel = is_valid(structure, phi, jobs=2, reduce_positive=reduce)
        assert serial.valid is valid
        assert parallel == serial
    # the reduced refutation lies past the first chunk: p is not bot
    assert serial.witness["p"][0] != bool4.bot


def test_is_valid_pool_bounded_by_cpu_count(fake_pool, bool4):
    """However large ``jobs``, the pool gets one worker and one row range
    per CPU (the fake pool forks nothing)."""
    structure = twist.full_twist(bool4)
    phi = fm.parse("(p -> q) | (r -> ~s)")
    serial = is_valid(structure, phi, reduce_positive=False)
    assert is_valid(structure, phi, jobs=100_000,
                    reduce_positive=False) == serial
    assert fake_pool == [{"max_workers": 3, "tasks": 3}]


def _chain(m):
    "The m-element chain as a Heyting algebra, straight from its tables."
    a = np.arange(m)
    return heyting.FiniteHeytingAlgebra(
        np.minimum.outer(a, a), np.maximum.outer(a, a),
        np.where(a[:, None] <= a[None, :], m - 1, a[None, :]), 0)


def test_grid_vec_matches_flat_grid():
    """For every uniform width m <= 40 (most of them not dividing
    _FIRST_CHUNK), for seeded mixed widths, and up to three variables, the
    chunks tile the grid in whole blocks, the largest that fit in
    _FIRST_CHUNK rows first and in 2**20 after, and in each chunk the
    broadcast grid's columns, broadcast to its shape and flattened, are
    the lexicographic grid's, in itertools.product's order, each position
    read in its variable's domain.  A leading variable holds one value per
    prefix, a trailing one a value per position of its domain."""
    names = ["p", "q", "r"]
    algebra = _chain(40)
    rng = random.Random(1207)
    cases = [(m,) * k for m in range(1, 41) for k in range(4)]
    cases += [tuple(rng.randint(1, 40) for _ in range(k))
              for k in (2, 3) for _ in range(30)]
    for widths in cases:
        k = len(widths)
        t, block = semantics._tail(widths)
        assert block == math.prod(widths[k - t:]) <= semantics._FIRST_CHUNK
        assert t == k or block * widths[k - t - 1] > semantics._FIRST_CHUNK
        total = math.prod(widths)
        want = np.array(list(itertools.product(*map(range, widths))),
                        dtype=np.int64).reshape(total, k).T
        assert np.array_equal(np.reshape(
            semantics._columns(widths, np.arange(total)), (k, total)), want)
        # each domain lists its values backwards, so positions are read in it
        grid = {name: (w - 1 - np.arange(w),)
                for name, w in zip(names, widths)}
        lo, cap = 0, semantics._FIRST_CHUNK
        for clo, chi in semantics._chunks(0, total, block):
            step = cap // block * block
            assert (clo, chi) == (lo, min(total, lo + step))
            lo, cap = chi, 1 << 20
            ev = semantics._grid_vec(algebra, grid, clo, chi)
            assert ev.shape == ((chi - clo) // block,) + widths[k - t:]
            for i, (name, col) in enumerate(zip(names, want[:, clo:chi])):
                got = ev.assign[name][0]
                assert got.size == (widths[i] if i >= k - t
                                    else ev.shape[0])
                assert np.array_equal(
                    np.broadcast_to(got, ev.shape).ravel(),
                    widths[i] - 1 - col)
        assert lo == total
    # kripke's uniform grid is the lexicographic enumeration as well
    frame = order.FinitePoset(2, (0b11, 0b10))
    assert np.array_equal(
        list(kripke._frame_grid(frame, ["p", "q"]).values()),
        np.array(list(itertools.product(range(4), repeat=2))).T)
    # a width above the first chunk keeps every variable a column
    assert semantics._tail((4097, 4097)) == (0, 1)


# least refuting rows of the 6561-row grid of four variables over the 9
# pairs of full_twist(3-chain): past the first chunk's edge at row 3645,
# on both sides of the pool's edge at row 4374; and a valid formula
_LATE = {
    "(((~s) & (~p)) -> (q | r)) | (((~p) & q) -> ((~p) & (p -> s)))": 3890,
    "(((s -> s) & p) -> (s & (q -> s))) | (s -> (~~r))": 4377,
    "(~((p -> q) | bot)) -> (((r -> p) -> q) | (q -> s))": 4779,
    "((~(q -> r)) -> q) | (p -> s)": None,
}


def test_least_witness_past_misaligned_chunk_edge(fake_pool, three):
    """Four variables over 9 pairs: three trailing axes, blocks of 729
    rows, so the first chunk ends at row 3645, not 4096.  The least
    witness past that edge matches the plain-loop oracle, serially and
    over a pool of three row ranges (edges at rows 2187 and 4374).  Every
    variable ranges over every pair, as the grid under test needs: some
    of these formulas read a variable at one component only."""
    structure = twist.full_twist(three)
    m = structure.size
    assert (m, semantics._tail([m] * 4)) == (9, (3, 729))
    assert next(semantics._chunks(0, m ** 4, m ** 3)) == (0, 3645)
    for text, row in _LATE.items():
        phi = fm.parse(text)
        serial = is_valid(structure, phi, reduce_positive=False)
        assert (serial.valid, serial.witness) == \
            slow_is_valid(structure, phi)
        if row is not None:
            assert sum(structure.index(serial.witness[name]) * m ** (3 - i)
                       for i, name in enumerate("pqrs")) == row
        assert is_valid(structure, phi, jobs=3,
                        reduce_positive=False) == serial
    assert fake_pool == [{"max_workers": 3, "tasks": 3}] * len(_LATE)


# least refuting rows of the mixed-width grid over full_twist(3-chain):
# p, r and t over its 9 pairs, q over one pair per first component and s
# over one per second, 6561 rows; past the first chunk's edge at row 3645,
# on both sides of the pool's edge at row 4374
_MIXED = {
    "((((~t) | r) | (~r)) & ((p | (~r)) -> (t -> (~p)))) -> "
    "((((~p) & q) -> (p | t)) | ((p -> r) | ((~t) & (~s))))": 4133,
    "((~t) -> (((~p) | (~r)) & (~s))) -> "
    "(((bot -> q) -> (r -> t)) | (p -> ((~s) -> r)))": 4473,
}


def test_least_witness_past_mixed_chunk_edge(fake_pool, three):
    """Widths 9, 3, 9, 3, 9: four trailing axes, blocks of 729 rows, the
    first chunk ending at row 3645.  The least witness past that edge,
    read back through the domains, is the plain-loop oracle's over every
    pair, serially and over a pool of three row ranges (edges at rows
    2187 and 4374)."""
    structure = twist.full_twist(three)
    for text, row in _MIXED.items():
        phi = fm.parse(text)
        grid = semantics._grid(structure, phi)
        widths = semantics._widths(grid)
        assert widths == [9, 3, 9, 3, 9]
        assert semantics._tail(widths) == (4, 729)
        serial = is_valid(structure, phi)
        assert (serial.valid, serial.witness) == \
            slow_is_valid(structure, phi)
        positions = [list(zip(*domain)).index(serial.witness[name])
                     for name, domain in grid.items()]
        assert np.ravel_multi_index(positions, widths) == row
        assert is_valid(structure, phi, jobs=3) == serial
    assert fake_pool == [{"max_workers": 3, "tasks": 3}] * len(_MIXED)


def test_is_valid_memory_bounded():
    """A valid strong-negation query over the 144 pairs of the full twist
    on a 12-element algebra scans 144**3 = 2,985,984 rows, in 2**20-row
    chunks.  Its one trailing variable is an axis and the others columns
    over the chunk's prefixes, and each node computes only the component
    asked of it, so the peak stays under 48 MB (33 MB; materialised
    columns of every variable peaked at 113 MB, both components of every
    node at 65 MB)."""
    poset = order.FinitePoset.from_pairs(
        4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)])
    structure = twist.full_twist(order.heyting_from_poset(poset))
    assert structure.size == 144
    phi = fm.parse("~(p & (q | r)) -> (~p | ~(q | r))")
    tracemalloc.start()
    try:
        # every pair, as the grid under test needs: phi reads only second
        # components, so it would scan 12**3 rows otherwise
        result = is_valid(structure, phi, reduce_positive=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.valid
    assert peak <= 48 << 20, f"is_valid peaked at {peak / 2**20:.0f} MB"


def test_validity_profile_matches_individual(kleene_twist):
    corpus = default_corpus(150)
    for reduce in (True, False):
        profile = validity_profile(kleene_twist, corpus,
                                   reduce_positive=reduce)
        assert profile == [is_valid(kleene_twist, phi,
                                    reduce_positive=reduce).valid
                           for phi in corpus]


def _grid_row(grid, witness):
    "The row of a witness valuation in the valuation grid ``grid``."
    row = 0
    for name, (firsts, seconds) in grid.items():
        a, b = witness[name]
        at = np.flatnonzero((firsts == a) & (seconds == b))
        row = row * len(firsts) + int(at[0])
    return row


@pytest.mark.parametrize("reduce_positive", [True, False])
def test_validity_profile_large_grid(bool4, reduce_positive):
    """Four-variable formulas over the 16 pairs of full_twist(bool4).  A
    grid of 65536 rows, every variable over every pair, splits into a
    4096-row first chunk, where most formulas are refuted and drop out,
    and a 61440-row chunk whose pending formulas exceed the cell bound of
    one reduction, so their verdicts come from several batches.  With
    ``reduce_positive`` most formulas scan 4096 rows or fewer, so each
    formula also comes in a copy that reads both components of every
    variable, and those copies scan the 65536-row grid."""
    structure = twist.full_twist(bool4)
    s = Var("s")
    r = Var("r")
    maps = [{"p": Imp(p, r), "q": Or(q, SNeg(s))},
            {"p": Imp(And(p, q), Or(r, SNeg(s))), "q": Or(q, s),
             "r": And(p, SNeg(r))},
            {"p": Or(SNeg(p), And(q, r)), "q": Imp(s, p),
             "r": SNeg(And(r, s))},
            {"p": And(Imp(p, SNeg(q)), Or(r, s)), "q": SNeg(q),
             "r": Imp(r, p)}]
    sources = [enumerate_formulas("Ls", 2, 2, 400)] + \
        [[fm.desugar(phi) for phi in fm.axioms("N4BOT")]] * 3
    corpus = [fm.substitute(phi, mapping)
              for mapping, source in zip(maps, sources) for phi in source]
    corpus = [phi for phi in corpus if len(fm.free_vars(phi)) == 4]
    if reduce_positive:
        # x | (~x & x) reads both components of x, in either polarity
        both = {x.name: Or(x, And(SNeg(x), x)) for x in (p, q, r, s)}
        corpus += [fm.substitute(phi, both) for phi in corpus]
    results = [is_valid(structure, phi, reduce_positive=reduce_positive)
               for phi in corpus]
    # per grid scanned: the cells of its second chunk over the formulas
    # that reach it, valid or refuted past the first chunk
    psis, groups = semantics._grouped(structure, corpus, reduce_positive)
    second_chunk_cells, early = [], 0
    for members in groups.values():
        grid = semantics._grid(structure, psis[members[0]], reduce_positive)
        widths = semantics._widths(grid)
        chunks = list(semantics._chunks(0, semantics._grid_rows(widths),
                                        semantics._tail(widths)[1]))
        late = [i for i in members if results[i].valid or
                _grid_row(grid, results[i].witness) >= chunks[0][1]]
        early += len(members) - len(late)
        if len(chunks) > 1:
            lo, hi = chunks[1]
            second_chunk_cells.append((hi - lo) * len(late))
    assert early > 0
    assert max(second_chunk_cells) > 2 * semantics._BATCH_CELLS
    want = [res.valid for res in results]
    # both orders, so refuted formulas sit at batch edges in one of them
    assert validity_profile(structure, corpus,
                            reduce_positive=reduce_positive) == want
    assert validity_profile(structure, corpus[::-1],
                            reduce_positive=reduce_positive) == want[::-1]


def test_cap_guard(monkeypatch, kleene_twist):
    # p and q over the twist's pairs: the grid is size**2 rows; a cap one
    # below it is refused, naming the variable, and a cap equal to it holds
    rows = kleene_twist.size ** 2
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", str(rows - 1))
    with pytest.raises(CapExceededError, match="TWISTLAB_VALUATION_CAP"):
        is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM, reduce_positive=False)
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", str(rows))
    assert not is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM,
                        reduce_positive=False).valid


def test_cap_env_override(monkeypatch, kleene_twist):
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", "10")
    with pytest.raises(CapExceededError):
        is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM, reduce_positive=False)
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", "1000000")
    assert not is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM,
                        reduce_positive=False).valid
    for bad in ("abc", "0", "-5", "2.5"):
        monkeypatch.setenv("TWISTLAB_VALUATION_CAP", bad)
        with pytest.raises(ValueError, match="TWISTLAB_VALUATION_CAP"):
            is_valid(kleene_twist, fm.KLEENE_PRIME_AXIOM)


def _failing_axioms(structure, name):
    return [phi for phi in fm.axioms(name) if not is_valid(structure, phi)]


def test_named_axiom_sets_on_kleene_twist(kleene_twist):
    assert _failing_axioms(kleene_twist, "KLEENE") == []
    assert _failing_axioms(kleene_twist, "KLEENE_PRIME") == \
        [fm.KLEENE_PRIME_AXIOM]
    assert _failing_axioms(kleene_twist, "N4BOT") == []


def test_heyting_twists_model_nelson_axioms():
    for poset in order.enumerate_posets(3, dedup=True):
        algebra = order.heyting_from_poset(poset)
        for nabla in heyting.filters(algebra, require_dense=True):
            for delta in heyting.ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                assert _failing_axioms(structure, "N4BOT") == []


def test_tba_twists_model_modal_axioms():
    for poset in order.enumerate_posets(2):
        algebra = tba.powerset_tba(poset)
        for nabla in tba.open_filters(algebra):
            for delta in tba.closed_ideals(algebra):
                structure = twist.tw(algebra, nabla, delta)
                assert _failing_axioms(structure, "BS4") == []


def test_enumerate_formulas_contents():
    li = enumerate_formulas("Li", 1, 1, 100)
    expected = [Var("p"), Bot, And(p, p), Or(p, p), Imp(p, p)]
    for phi in expected:
        assert phi in li
    ls = enumerate_formulas("Ls", 1, 1, 100)
    assert SNeg(p) in ls
    assert all(phi in ls for phi in expected)


def test_enumerate_formulas_deterministic_and_budgeted():
    one = enumerate_formulas("Ls", 2, 2, 500)
    two = enumerate_formulas("Ls", 2, 2, 500)
    assert one == two and len(one) == 500
    assert len(enumerate_formulas("Ls", 2, 2, 5000)) == 3303
    assert len(enumerate_formulas("Li", 2, 2, 100000)) == 2703


def test_enumerate_formulas_depth_bound():
    for phi in enumerate_formulas("Lsbox", 2, 2, 2000):
        assert phi.height <= 2


def test_default_corpus_composition():
    corpus = default_corpus(100)
    assert fm.KLEENE_AXIOM in corpus
    assert fm.KLEENE_PRIME_AXIOM in corpus
    assert fm.CLOSED_IDEAL_AXIOM in corpus
    for phi in fm.axioms("N4BOT"):
        assert phi in corpus
    assert len(corpus) == 14 + 3 + 100


def _first_projection_matches_oracle(structure, phi):
    """At every valuation of phi over the twist's pairs, the library's
    value on the base at the projected valuation, and the first component
    of its value on the twist, are the first component of the plain-loop
    oracle's value: the positive reduction, checked against an evaluator
    the library does not share."""
    names = sorted(phi.free)
    for combo in itertools.product(structure.pairs, repeat=len(names)):
        valuation = dict(zip(names, combo))
        want = slow_evaluate(structure, phi, valuation)[0]
        assert evaluate(structure.base, phi,
                        {name: a for name, (a, _) in valuation.items()}) \
            == want
        assert evaluate(structure, phi, valuation)[0] == want


def test_first_projection_matches_oracle(kleene_twist, chain2):
    structure = twist.full_twist(tba.powerset_tba(chain2))
    for structure, phi in ((kleene_twist, Imp(p, q)), (kleene_twist, p),
                           (structure, Box(p))):
        _first_projection_matches_oracle(structure, phi)


def test_first_projection_matches_oracle_over_positive_corpus(kleene_twist):
    for phi in enumerate_formulas("Li", 2, 2, 200):
        _first_projection_matches_oracle(kleene_twist, phi)


def test_scan_reads_second_components_only_at_atoms(monkeypatch, chain2):
    """Scanning TB-normal translated formulas over a twist computes no
    second component above an atom: ~ wraps only atoms there, and a first
    component reads first components alone."""
    structure = twist.full_twist(tba.powerset_tba(chain2))
    translated = [fm.belnap_translate(fm.desugar(phi))
                  for phi in default_corpus(60)]
    assert all(map(fm.is_tb_normal, translated))
    seconds = []
    compute = semantics._Vec._compute

    def spy(self, phi, c):
        if c:
            seconds.append(phi.kind)
        return compute(self, phi, c)

    monkeypatch.setattr(semantics._Vec, "_compute", spy)
    validity_profile(structure, translated)
    assert seconds and set(seconds) <= {"var", "bot"}


def test_twtop_check_language_guard(kleene_twist):
    with pytest.raises(LanguageError):
        twtop_check(kleene_twist, [p])


def test_evaluate_agrees_with_reference(kleene_twist):
    for phi in enumerate_formulas("Ls", 2, 2, 60):
        psi = fm.desugar(phi)
        for pair_p in kleene_twist.pairs[:3]:
            for pair_q in kleene_twist.pairs[-3:]:
                valuation = {"p": pair_p, "q": pair_q}
                assert evaluate(kleene_twist, psi, valuation) == \
                    slow_evaluate(kleene_twist, psi, valuation)


_POSETS3 = list(order.enumerate_posets(3))


def _formulas(unary, height, leaves=(p, q, Bot)):
    "Formulas over ``leaves`` of height at most ``height``."
    if height == 0:
        return st.sampled_from(leaves)
    sub = _formulas(unary, height - 1, leaves)
    grown = [st.builds(lambda op, a, b: op(a, b),
                       st.sampled_from([And, Or, Imp]), sub, sub)]
    if unary:
        grown.append(st.builds(lambda op, a: op(a), st.sampled_from(unary),
                               sub))
    return st.one_of(st.sampled_from(leaves), *grown)


_LANGUAGES = {(twisted, modal): _formulas(
    (SNeg,) * twisted + (Box, Dia) * modal, 3)
    for twisted in (False, True) for modal in (False, True)}


@st.composite
def _structures(draw, twisted=st.booleans()):
    """A Heyting algebra of a poset with at most 3 points or its powerset
    TBA, either bare or under a twist with a drawn filter and ideal."""
    poset = draw(st.sampled_from(_POSETS3))
    modal = draw(st.booleans())
    if modal:
        base = tba.powerset_tba(poset)
        filters, ideals = tba.open_filters(base), tba.closed_ideals(base)
    else:
        base = order.heyting_from_poset(poset)
        filters = heyting.filters(base, require_dense=True)
        ideals = heyting.ideals(base)
    if not draw(twisted):
        return base, _LANGUAGES[False, modal]
    structure = twist.tw(base, draw(st.sampled_from(filters)),
                         draw(st.sampled_from(ideals)))
    return structure, _LANGUAGES[True, modal]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_fast_paths_match_oracles(data):
    """evaluate, is_valid (least witness and its value included, with and
    without the component domains) and validity_profile against the
    plain-loop oracles, on every connective and every kind of structure."""
    structure, language = data.draw(_structures())
    formulas = data.draw(st.lists(language, min_size=1, max_size=4))
    is_twist = isinstance(structure, twist.TwistStructure)
    values = structure.pairs if is_twist else list(range(structure.n))
    for phi in formulas:
        valuation = {name: data.draw(st.sampled_from(values))
                     for name in ("p", "q")}
        assert evaluate(structure, phi, valuation) == \
            slow_evaluate(structure, phi, valuation)
        want = slow_is_valid(structure, phi)
        for reduce in (True, False):
            mine = is_valid(structure, phi, reduce_positive=reduce)
            assert (mine.valid, mine.witness) == want
            if not mine.valid:
                assert mine.value == \
                    slow_evaluate(structure, phi, mine.witness)
    for reduce in (True, False):
        assert validity_profile(structure, formulas,
                                reduce_positive=reduce) == \
            [is_valid(structure, phi).valid for phi in formulas]


# formulas whose strong negations sit mostly on the variables, so that
# many read a variable at one component only, either one
_LITERAL_LANGUAGES = {modal: _formulas((SNeg,) + (Box, Dia) * modal, 3,
                                       (p, q, SNeg(p), SNeg(q), Bot))
                      for modal in (False, True)}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_component_domains_match_every_pair(data):
    """On random sub-twists of the Heyting algebras of posets <= 3 and of
    their powerset TBAs, and on random Ls or Lsbox formulas, the scan over
    the component domains, the scan over every pair and the plain-loop
    oracle give the same verdict, least witness and value, and
    validity_profile is is_valid mapped over the formulas."""
    structure, _ = data.draw(_structures(twisted=st.just(True)))
    formulas = data.draw(st.lists(_LITERAL_LANGUAGES[structure.modal],
                                  min_size=1, max_size=4))
    for phi in formulas:
        valid, witness = slow_is_valid(structure, phi)
        value = None if valid else slow_evaluate(structure, phi, witness)
        for reduce in (True, False):
            mine = is_valid(structure, phi, reduce_positive=reduce)
            assert (mine.valid, mine.witness, mine.value) == \
                (valid, witness, value)
    for reduce in (True, False):
        assert validity_profile(structure, formulas,
                                reduce_positive=reduce) == \
            [is_valid(structure, phi, reduce_positive=reduce).valid
             for phi in formulas]


def test_second_component_domain_in_carrier_order(kleene_twist):
    """The Kleene twist's pairs show the second components 1, 2, 0 first,
    in that order, so a variable read only at its second component ranges
    over (0, 1), (0, 2), (1, 0), not in element order: ~p, refuted by
    every second component but top, has the least witness (0, 1), as over
    every pair, not (1, 0)."""
    firsts, seconds = semantics._domains(kleene_twist)[2]
    assert list(zip(firsts.tolist(), seconds.tolist())) == \
        [(0, 1), (0, 2), (1, 0)]
    assert is_valid(kleene_twist, SNeg(p)).witness == {"p": (0, 1)}
    for text in ("~p", "~p | (q -> ~q)", "(~p -> q) | ~q", "~~q -> ~p"):
        phi = fm.parse(text)
        assert 3 in semantics._widths(semantics._grid(kleene_twist, phi))
        mine = is_valid(kleene_twist, phi)
        assert (mine.valid, mine.witness) == slow_is_valid(kleene_twist, phi)


# ---------------------------------------------------------------------------
# validity_table against per-instance validity


def _instances(base):
    """Every (filter, ideal) pair the sweep builds a twist for over the
    base, with the elements that the filter is the up-set of and that the
    ideal is the down-set of."""
    if isinstance(base, tba.FiniteTBA):
        filters, ideals = tba.open_filters(base), tba.closed_ideals(base)
    else:
        filters = heyting.filters(base, require_dense=True)
        ideals = heyting.ideals(base)
    for nabla in filters:
        for delta in ideals:
            f, = [a for a in nabla if base.upset(a) == nabla]
            d, = [a for a in delta if base.downset(a) == delta]
            yield nabla, delta, f, d


_TABLE_CORPUS = default_corpus(100)  # the N4BOT and Kleene axioms among them
_TABLE_TRANSLATED = [*(fm.belnap_translate(fm.desugar(phi))
                       for phi in _TABLE_CORPUS), *fm.axioms("BS4")]
# a fixed sample of size-4 classes: the antichain (a 16-element base on
# both sides), the N and the two-below-two bowtie
_POSETS4_SAMPLE = [p for p in order.enumerate_posets(4, dedup=True)
                   if p.n == 4][::7]


@pytest.mark.parametrize(
    "poset", _POSETS3 + _POSETS4_SAMPLE,
    ids=lambda p: f"poset{p.n}:{p.relation_mask()}")
def test_validity_table_matches_instances(poset):
    """Every cell a sweep reads equals validity_profile on the twist it
    stands for: each dense filter x ideal of the Heyting algebra of the
    poset, each open filter x closed ideal of its powerset TBA."""
    for base, formulas in (
            (order.heyting_from_poset(poset), _TABLE_CORPUS),
            (tba.powerset_tba(poset), _TABLE_TRANSLATED)):
        table = semantics.validity_table(base, formulas)
        assert table.shape == (len(formulas), base.n, base.n)
        for nabla, delta, _, _ in _instances(base):
            structure = twist.tw(base, nabla, delta)
            f, d = structure.cell
            assert table[:, f, d].tolist() == \
                validity_profile(structure, formulas)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_validity_table_random_formulas(data):
    """On random formulas the table matches validity over the pairs
    themselves, every variable over every pair on the oracle's side."""
    poset = data.draw(st.sampled_from(_POSETS3))
    modal = data.draw(st.booleans())
    base = tba.powerset_tba(poset) if modal \
        else order.heyting_from_poset(poset)
    formulas = data.draw(st.lists(_LANGUAGES[True, modal], min_size=1,
                                  max_size=4))
    table = semantics.validity_table(base, formulas)
    nabla, delta, f, d = data.draw(st.sampled_from(list(_instances(base))))
    assert table[:, f, d].tolist() == validity_profile(
        twist.tw(base, nabla, delta), formulas, reduce_positive=False)
