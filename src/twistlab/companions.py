"""The modal-companion pipeline on finite instances.

Starting from a Heyting algebra A with a filter (containing the dense
elements) and an ideal, build the Alexandrov realisation B of A, lift the
filter and the ideal, and form the twist-structure over B.  The lift is a
map of cells, (f, d) to (iso f, dia iso d), where nabla = up(f) and delta
= down(d); the sweep checks it against tba.rho_map and tba.sigma_map.
Its open pairs recover the twist over A with the closed ideal, which is
what makes the strong-negation translation faithful instance by instance.
The Kleene axiom material shows the one failure mode: an ideal whose
closure changes the validity of the double-negated axiom.

Every instance of one algebra shares its realisation (tba.s_of, built
once per algebra).  The sweep and the Kleene scan build and verify every
instance, but read its validity verdicts from semantics.validity_table,
one table per base and formula batch, at the cell (meet of the filter,
join of the ideal).  The per-instance checks (kleene_characterization,
closed_ideal_axiom_check) stay as the oracles the tables are tested
against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import formula as fm
from . import openpairs, semantics
from .formula import Formula
from .heyting import FiniteHeytingAlgebra, _closed_under, _mask, closure_n
from .order import enumerate_posets, heyting_from_poset
from .tba import FiniteTBA, open_elements, open_filters, powerset_tba, \
    satisfies_grz, s_of
from .twist import TwistStructure, _closure_failure, _op_tables, \
    _pair_mask, tw

__all__ = [
    "CompanionInstance", "companion_structure", "is_form_sharp",
    "form_sharp_corpus",
    "kleene_characterization", "closed_ideal_axiom_check",
    "kleene_box_implication_scan", "KleeneScanReport",
    "kleene_demo", "KleeneDemoReport",
]


@dataclass
class CompanionInstance:
    """One run of the pipeline, with every structural invariant verified."""

    algebra: FiniteHeytingAlgebra
    nabla: frozenset
    delta: frozenset
    tba: FiniteTBA
    iso: tuple                    # algebra element -> tba element
    nabla_hat: frozenset
    delta_hat: frozenset
    twist: TwistStructure         # over the tba
    delta_closure: frozenset      # least closed ideal containing delta
    heyting_twist: TwistStructure  # over the algebra, with the closed ideal
    open_pairs: TwistStructure

    def to_json(self):
        return {
            "algebra_size": self.algebra.n,
            "nabla": sorted(self.nabla),
            "delta": sorted(self.delta),
            "delta_closure": sorted(self.delta_closure),
            "tba_size": self.tba.n,
            "iso": list(self.iso),
            "nabla_hat": sorted(self.nabla_hat),
            "delta_hat": sorted(self.delta_hat),
            "twist_pairs": self.twist.size,
            "open_pairs": self.open_pairs.size,
        }


def companion_structure(algebra: FiniteHeytingAlgebra, nabla,
                        delta) -> CompanionInstance:
    """Build and verify the pipeline instance for (algebra, nabla, delta).

    The lift is the cell map, (f, dc) to (iso f, dia iso dc), and tw checks
    the lifted sets.  Checks on the way: the realisation satisfies the
    Grzegorczyk axiom, its opens coincide with the lambda set of the
    lifted filter, and the open pairs of the lifted twist are exactly the
    twist over the original algebra with the closed ideal.
    """
    nabla = frozenset(nabla)
    delta = frozenset(delta)
    # these two check the inputs, before anything else is built
    delta_closure = closure_n(algebra, delta)
    heyting_twist = tw(algebra, nabla, delta_closure)

    tba, iso = s_of(algebra)
    f, dc = heyting_twist.cell
    # iso dc = box dia iso d and, for open x, dia box dia x = dia x: so
    # down(dia iso dc) is sigma(iso delta), as up(iso f) is rho(iso nabla)
    nabla_hat = tba.upset(iso[f])
    delta_hat = tba.downset(tba.dia(iso[dc]))
    twist = tw(tba, nabla_hat, delta_hat)

    if not satisfies_grz(tba)[0]:
        raise AssertionError("realisation fails the Grzegorczyk axiom")
    if openpairs.lambda_set(tba, nabla_hat) != open_elements(tba):
        raise AssertionError("lambda set does not exhaust the opens")

    to_tba = np.asarray(iso, dtype=np.intp)
    image = _pair_mask(tba.n, to_tba[heyting_twist.firsts],
                       to_tba[heyting_twist.seconds])
    if not np.array_equal(_pair_mask(tba.n, *openpairs._open_pairs(twist)),
                          image):
        raise AssertionError(
            "open pairs differ from the closed-ideal twist over the source")
    pairs_algebra = openpairs.open_pairs_algebra(twist)
    return CompanionInstance(algebra, nabla, delta, tba, iso, nabla_hat,
                             delta_hat, twist, delta_closure, heyting_twist,
                             pairs_algebra)


# ---------------------------------------------------------------------------
# Axioms whose validity ignores the ideal


def is_form_sharp(phi: Formula):
    """Match formulas built from an intuitionistic skeleton by plugging
    excluded-middle blocks q v ~q into some argument slots.

    Strong negation may occur only inside such blocks, and a block
    variable may not reappear outside blocks.  Returns
    (skeleton, p_vars, q_vars) with blocks replaced by their variable, or
    None when the shape does not match.
    """
    psi = fm.desugar(phi)

    def block_var(f):
        "The q of a block q | ~q or ~q | q, else None."
        if f.kind == "or":
            for x, y in (f.args, f.args[::-1]):
                if x.kind == "var" and y.kind == "sneg" and y.args[0] is x:
                    return x.name
        return None

    p_vars: set = set()
    q_vars: set = set()
    out = {}  # node -> its skeleton, None where the shape fails
    for f in fm._postorder(psi, lambda f: () if f.kind in ("var", "sneg")
                           or block_var(f) else f.args):
        name = block_var(f)
        if name is not None:
            q_vars.add(name)
            out[f] = fm.Var(name)
        elif f.kind == "var":
            p_vars.add(f.name)
            out[f] = f
        elif f.kind == "sneg" or any(out[a] is None for a in f.args):
            out[f] = None
        else:
            out[f] = fm._make(f.kind, tuple(out[a] for a in f.args))
    skeleton = out[psi]
    if skeleton is None or p_vars & q_vars:
        return None
    return skeleton, tuple(sorted(p_vars)), tuple(sorted(q_vars))


def form_sharp_corpus(min_size: int = 50) -> list:
    """Deterministic corpus of matching formulas: enumerated two-variable
    intuitionistic skeletons with the second variable replaced by its
    excluded-middle block."""
    block = fm.Or(fm.Var("q"), fm.SNeg(fm.Var("q")))
    out = []
    for skeleton in semantics.enumerate_formulas("Li", 2, 2, 4 * min_size):
        phi = fm.substitute(skeleton, {"q": block})
        if is_form_sharp(phi) is None:
            raise AssertionError("substituted skeleton should match")
        out.append(phi)
    unique = list(dict.fromkeys(out))
    if len(unique) < min_size:
        raise AssertionError("corpus smaller than requested")
    return unique


# ---------------------------------------------------------------------------
# The Kleene axiom


def kleene_characterization(algebra, nabla, delta) -> bool:
    """The Kleene axiom holds in tw(algebra, nabla, delta) exactly when
    every ideal element sits below every filter element; both sides are
    computed independently and must agree."""
    by_validity = semantics.is_valid(tw(algebra, nabla, delta),
                                     fm.KLEENE_AXIOM).valid
    le = algebra.le
    rows = np.asarray(sorted(delta), dtype=np.intp)
    cols = np.asarray(sorted(nabla), dtype=np.intp)
    by_order = bool(le[rows[:, None], cols[None, :]].all())
    if by_validity != by_order:
        raise AssertionError("Kleene characterisation sides disagree")
    return by_validity


def closed_ideal_axiom_check(algebra, nabla, delta) -> bool:
    """Validity of the double-negation-stability axiom on the ideal's
    meets; implies (strictly) that the ideal is closed."""
    structure = tw(algebra, nabla, delta)
    return semantics.is_valid(structure, fm.CLOSED_IDEAL_AXIOM).valid


@dataclass
class KleeneScanReport:
    max_poset: int
    posets: int = 0
    instances: int = 0
    translated_kleene_valid: int = 0
    violations: list = field(default_factory=list)

    def to_json(self):
        return {
            "max_poset": self.max_poset,
            "posets": self.posets,
            "instances": self.instances,
            "translated_kleene_valid": self.translated_kleene_valid,
            "violations": self.violations,
        }


def kleene_box_implication_scan(max_poset: int) -> KleeneScanReport:
    """Over every powerset TBA from labeled posets up to the bound and
    every (open filter, closed ideal) pair: whenever the translated Kleene
    axiom is valid in the twist, so is the translated double-negation
    variant.  Expected violation count: zero."""
    t_chi = fm.belnap_translate(fm.desugar(fm.KLEENE_AXIOM))
    t_chi_prime = fm.belnap_translate(fm.desugar(fm.KLEENE_PRIME_AXIOM))
    report = KleeneScanReport(max_poset)
    for poset in enumerate_posets(max_poset):
        report.posets += 1
        tba = powerset_tba(poset)
        # the cells (f, d) of open_filters x closed_ideals, in their order
        opens = np.flatnonzero(tba.open_mask())
        fixed = np.flatnonzero(tba.dia_table == np.arange(tba.n))
        chi, prime = (table[np.ix_(opens, fixed)] for table in
                      semantics.validity_table(tba, [t_chi, t_chi_prime]))
        report.instances += chi.size
        report.translated_kleene_valid += int(chi.sum())
        for i, j in np.argwhere(chi & ~prime).tolist():
            report.violations.append({
                "poset": poset.pairs(),
                "nabla": sorted(tba.upset(opens[i])),
                "delta": sorted(tba.downset(fixed[j])),
            })
    return report


@dataclass
class KleeneDemoReport:
    chi_valid: bool
    chi_prime_refuted: bool
    witness: dict
    pinned_value: tuple
    scan: KleeneScanReport
    transcript: list

    def to_json(self):
        return {
            "kleene_axiom_valid": self.chi_valid,
            "modified_axiom_refuted": self.chi_prime_refuted,
            "least_witness": {k: list(v) for k, v in self.witness.items()},
            "pinned_valuation_value": list(self.pinned_value),
            "scan": self.scan.to_json(),
            "transcript": self.transcript,
        }


def kleene_demo() -> KleeneDemoReport:
    """The no-companion argument on its smallest witness structure.

    Runs the finite checks (three-element chain, the two axioms, the
    box-implication scan) and prints the inference chain, marking which
    steps are machine-checked here and which belong to the logic-level
    glue about Lindenbaum structures.
    """
    from .order import FinitePoset

    chain = heyting_from_poset(
        FinitePoset.from_pairs(2, [(0, 0), (1, 1), (0, 1)]))
    bot, mid, top = 0, 1, 2
    nabla = frozenset((mid, top))
    delta = frozenset((bot, mid))
    structure = tw(chain, nabla, delta)

    chi_result = semantics.is_valid(structure, fm.KLEENE_AXIOM)
    prime_result = semantics.is_valid(structure, fm.KLEENE_PRIME_AXIOM)
    pinned = {"p": (mid, top), "q": (mid, bot)}
    pinned_value = semantics.evaluate(structure, fm.KLEENE_PRIME_AXIOM,
                                      pinned)
    scan = kleene_box_implication_scan(2)

    names = {bot: "bot", mid: "mid", top: "top"}

    def pair(p):
        return f"({names[p[0]]},{names[p[1]]})"

    transcript = [
        "Witness structure: twist over the 3-chain bot < mid < top, "
        f"filter {{mid, top}}, ideal {{bot, mid}}; {structure.size} pairs.",
        "[checked] The Kleene axiom (p & ~p) -> (q | ~q) is valid here: "
        f"{chi_result.valid}.",
        "[checked] Its double-negation variant !!(p & ~p) -> (q | ~q) is "
        f"refuted: first component {names[pinned_value[0]]} != top under "
        f"p = {pair(pinned['p'])}, q = {pair(pinned['q'])} "
        f"(least refuting valuation: "
        f"{ {k: pair(v) for k, v in prime_result.witness.items()} }).",
        "[checked] Box-implication scan over all twists on powerset "
        f"algebras from posets of size <= {scan.max_poset}: "
        f"{scan.instances} instances, {len(scan.violations)} violations of "
        "'translated Kleene valid implies translated variant valid'.",
        "[glue] In any extension of the modal target logic, validity of "
        "the translated Kleene axiom forces validity of the translated "
        "variant (the scan witnesses this finitely; in general it follows "
        "from the closed-ideal structure of Lindenbaum twist-structures).",
        "[glue] If the Kleene logic had a companion, the translation of "
        "the variant would pull back; the witness structure refutes the "
        "variant while validating the axiom, so no companion exists.",
    ]
    return KleeneDemoReport(
        chi_valid=chi_result.valid,
        chi_prime_refuted=not prime_result.valid,
        witness=prime_result.witness,
        pinned_value=pinned_value,
        scan=scan,
        transcript=transcript,
    )


# ---------------------------------------------------------------------------
# The instance sweep behind the verification suite


@dataclass
class PipelineSweepReport:
    """Aggregated results of running every pipeline check over all
    (algebra, filter, ideal) triples from posets up to a size bound."""

    max_size: int
    posets: int = 0
    instances: int = 0
    corpus_size: int = 0
    sharp_corpus_size: int = 0
    counts: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def fail(self, key, message):
        self.failures.setdefault(key, []).append(message)

    def merge(self, other):
        self.posets += other.posets
        self.instances += other.instances
        for key, value in other.counts.items():
            self.bump(key, value)
        for key, msgs in other.failures.items():
            for msg in msgs:
                self.fail(key, msg)

    def to_json(self):
        return {
            "max_size": self.max_size,
            "posets": self.posets,
            "instances": self.instances,
            "corpus_size": self.corpus_size,
            "sharp_corpus_size": self.sharp_corpus_size,
            "counts": dict(sorted(self.counts.items())),
            "failures": {k: v for k, v in self.failures.items() if v},
            "ok": self.ok,
        }


def _check_open_pair_lemmas(report, label, instance):
    """Closure and invariant facts about the open pairs of one instance."""
    structure = instance.twist
    base = structure.base
    rng = np.arange(base.n, dtype=np.intp)
    box, neg_t = base.box, base.neg_table

    # every a meets box(not a) in bottom
    if not (base.meet[rng, box[neg_t]] == base.bot).all():
        report.fail("l311_1", label)
    f, s = openpairs._open_pairs(structure)
    g2_member = _pair_mask(base.n, f, s)
    opens = open_elements(base)
    gam = frozenset(f.tolist())
    if not gam <= opens:
        report.fail("l311_2", label)
    lattice = {kind: table for kind, table in _op_tables(base).items()
               if kind in ("and", "or")}
    closed = (_closure_failure(g2_member, f, s, lattice) is None
              and g2_member[s, f].all()
              and g2_member[base.bot, base.top])
    if not closed:
        report.fail("l311_3", label)
    if frozenset(s.tolist()) != gam:
        report.fail("l311_4", label)
    gam_mask = _mask(base.n, gam)
    if not (_closed_under(gam_mask, base.meet)
            and _closed_under(gam_mask, base.join) and gam_mask[base.bot]):
        report.fail("l311_5", label)
    lam = openpairs.lambda_set(base, structure.nabla)  # item 7 inside
    if not lam <= gam:
        report.fail("l311_6", label)
    report.bump("l311_checked")

    # the two invariant-set descriptions agree (asserted inside)
    try:
        openpairs.nabla_g(structure)
        dg = openpairs.delta_g(structure)
        report.bump("l312_checked")
    except AssertionError:
        report.fail("l312", label)
        return
    # ideal of the open pairs is closed under the opens' double negation
    gneg = box[base.imp[:, base.bot]]
    if not all(int(gneg[gneg[a]]) in dg for a in dg):
        report.fail("l313", label)
    report.bump("l313_checked")

    lhs, rhs = openpairs.gamma_imp_closure_equiv(structure)
    if lhs != rhs:
        report.fail("l314", label)
    report.bump("l314_checked")

    bpc = openpairs.box_pair_closed(structure)
    grz_ok = satisfies_grz(base)[0]
    if grz_ok and lam == opens and not bpc:
        report.fail("l324", label)
    report.bump("l324_checked")
    if bpc and not (gam == lam == opens):
        report.fail("p322_consequence", label)
    report.bump("p322_checked")


def _check_delta_rho(report, label, algebra):
    """The two filter-lifting maps are mutually inverse order isomorphisms,
    and rho and sigma are companion_structure's cell map: for every a,
    rho(iso up(a)) = up(iso a) and sigma(iso down(a)) = down(dia iso a)."""
    from .heyting import filters as heyting_filters
    from .tba import delta_map, open_algebra, rho_map, sigma_map

    tba_alg, iso = s_of(algebra)
    g_alg, embed = open_algebra(tba_alg)
    ofs = open_filters(tba_alg)
    g_filters = [frozenset(embed[i] for i in f)
                 for f in heyting_filters(g_alg)]
    round_one = all(rho_map(tba_alg, delta_map(tba_alg, F)) == F
                    for F in ofs)
    round_two = all(delta_map(tba_alg, rho_map(tba_alg, F)) == F
                    for F in g_filters)
    images = {delta_map(tba_alg, F) for F in ofs}
    onto = images == set(g_filters) and len(ofs) == len(g_filters)
    mono = all((delta_map(tba_alg, F1) <= delta_map(tba_alg, F2))
               == (F1 <= F2) for F1 in ofs for F2 in ofs)
    cells = all(
        rho_map(tba_alg, frozenset(iso[b] for b in algebra.upset(a)))
        == tba_alg.upset(iso[a])
        and sigma_map(tba_alg, frozenset(iso[b] for b in algebra.downset(a)))
        == tba_alg.downset(tba_alg.dia(iso[a]))
        for a in range(algebra.n))
    if not (round_one and round_two and onto and mono and cells):
        report.fail("delta_rho", label)
    report.bump("delta_rho_checked", len(ofs) + len(g_filters))


def _named(formulas, indices):
    """The first five of the indexed formulas, by pretty(), and how many
    there are: a failure entry that can be replayed."""
    names = [fm.pretty(formulas[i]) for i in indices[:5]]
    return f"({len(indices)}): {names}"


def _sweep_poset(poset, corpus, translated, sharp):
    """All pipeline checks for one source poset; returns a report shard."""
    from .heyting import filters as heyting_filters
    from .heyting import ideals as heyting_ideals
    from .heyting import is_closed_ideal

    report = PipelineSweepReport(max_size=poset.n)
    report.posets = 1
    label_base = f"poset{poset.n}:{poset.relation_mask()}"
    algebra = heyting_from_poset(poset)
    tba_alg, iso = s_of(algebra)
    if not satisfies_grz(tba_alg)[0]:
        report.fail("grz", label_base)
    report.bump("grz_checked")
    _check_delta_rho(report, label_base, algebra)

    all_ideals = heyting_ideals(algebra)
    closed_set = {delta for delta in all_ideals
                  if is_closed_ideal(algebra, delta)}
    n_images = {closure_n(algebra, delta) for delta in all_ideals}
    if closed_set != n_images:
        report.fail("closed_ideal_images", label_base)
    report.bump("closed_vs_images_checked")

    n4bot, bs4 = list(fm.axioms("N4BOT")), list(fm.axioms("BS4"))
    axioms_a, kleene_a, closed_axiom_a, corpus_a, sharp_a = np.split(
        semantics.validity_table(
            algebra, n4bot + [fm.KLEENE_AXIOM, fm.CLOSED_IDEAL_AXIOM]
            + corpus + sharp),
        np.cumsum([len(n4bot), 1, 1, len(corpus)]))
    axioms_t, corpus_t = np.split(
        semantics.validity_table(tba_alg, bs4 + translated), [len(bs4)])

    iso_set = frozenset(iso)
    for nabla in heyting_filters(algebra, require_dense=True):
        built = []  # the d of the cell (f, d) of each instance built
        for delta in all_ideals:
            report.instances += 1
            label = (f"{label_base} nabla={sorted(nabla)} "
                     f"delta={sorted(delta)}")
            try:
                inst = companion_structure(algebra, nabla, delta)
            except AssertionError as exc:
                report.fail("pipeline_invariants", f"{label}: {exc}")
                continue
            report.bump("instances_built")
            # the table's cells are the twists' cells: (f, dc) and (ft, dt)
            # are built in inst, and (f, d) is (f, dc) when delta is closed
            # and otherwise built here, which verifies its carrier closed
            f, dc = inst.heyting_twist.cell
            ft, dt = inst.twist.cell
            d = dc if delta == inst.delta_closure \
                else tw(algebra, nabla, delta).cell[1]
            built.append(d)

            lhs = inst.delta_hat & iso_set
            rhs = frozenset(iso[a] for a in inst.delta_closure)
            if lhs != rhs:
                report.fail("l331", label)
            report.bump("l331_checked")

            _check_open_pair_lemmas(report, label, inst)

            by_order = bool(algebra.le[np.ix_(sorted(delta),
                                              sorted(nabla))].all())
            if kleene_a[0, f, d] != by_order:
                report.fail("kleene_characterization", label)
            elif by_order:
                report.bump("kleene_models")
            report.bump("kleene_checked")

            for name, verdicts in (("N4BOT", axioms_a[:, f, d]),
                                   ("N4BOT", axioms_a[:, f, dc]),
                                   ("BS4", axioms_t[:, ft, dt])):
                if not verdicts.all():
                    report.fail("axiom_soundness", f"{label} ({name})")
            report.bump("axiom_soundness_checked")

            bad = np.flatnonzero(corpus_a[:, f, dc] != corpus_t[:, ft, dt])
            if len(bad):
                report.fail("t332", f"{label} formulas {_named(corpus, bad)}")
            report.bump("t332_formulas", len(corpus))

            if closed_axiom_a[0, f, d] and delta not in closed_set:
                report.fail("closed_ideal_axiom_kernel", label)
            report.bump("closed_ideal_axiom_checked")

        # with no instance built there is no f to read, and nothing varies
        verdicts = sharp_a[:, f, built] if built else sharp_a[:, 0, :0]
        varying = np.flatnonzero((verdicts != verdicts[:, :1]).any(axis=1))
        if len(varying):
            report.fail("l414", f"{label_base} nabla={sorted(nabla)} "
                                f"formulas {_named(sharp, varying)}")
        report.bump("l414_groups")
    return report


_worker_state: dict = {}


def _sweep_init(corpus, translated, sharp):
    _worker_state["args"] = (corpus, translated, sharp)


def _sweep_task(up_masks):
    from .order import FinitePoset

    corpus, translated, sharp = _worker_state["args"]
    poset = FinitePoset(len(up_masks), up_masks)
    return _sweep_poset(poset, corpus, translated, sharp)


def pipeline_sweep(max_size: int = 4, corpus=None, jobs: int = 1,
                   sharp_min: int = 50, posets=None) -> PipelineSweepReport:
    """Run every pipeline-level check over all posets up to ``max_size``.

    Covers, per (algebra, filter, ideal) triple: the translation
    equivalence on the corpus, the closed-ideal intersection law, the
    filter-lifting bijection, the open-pair lemmas, the Kleene
    characterisation, axiom soundness, and ideal-independence of
    excluded-middle-block formulas.  ``jobs`` parallelises by poset, on
    at most os.cpu_count() worker processes, with deterministic
    aggregation; an explicit ``posets`` list overrides the enumeration.
    """
    if corpus is None:
        corpus = semantics.default_corpus()
    corpus = [fm.desugar(phi) for phi in corpus]
    translated = [fm.belnap_translate(phi) for phi in corpus]
    sharp = form_sharp_corpus(sharp_min)
    if posets is None:
        posets = list(enumerate_posets(max_size))
    total = PipelineSweepReport(max_size=max_size)
    total.corpus_size = len(corpus)
    total.sharp_corpus_size = len(sharp)

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(jobs, os.cpu_count() or 1),
                initializer=_sweep_init,
                initargs=(corpus, translated, sharp)) as pool:
            shards = pool.map(_sweep_task, [p.up for p in posets])
            for shard in shards:
                total.merge(shard)
    else:
        for poset in posets:
            total.merge(_sweep_poset(poset, corpus, translated, sharp))
    return total
