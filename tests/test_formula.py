import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import formula as fm
from twistlab.formula import (And, Bot, Box, Dia, Iff, Imp, Neg, Or, SIff,
                              SNeg, Var)
from twistlab.semantics import enumerate_formulas

from conftest import (slow_belnap_translate, slow_godel_tarski,
                      slow_parse)

p, q = Var("p"), Var("q")


def test_parse_kleene_axiom():
    assert fm.parse("p & ~p -> q | ~q") == Imp(And(p, SNeg(p)),
                                               Or(q, SNeg(q)))


def test_parse_bot_constant():
    assert fm.parse("bot") is Bot


def test_parse_modified_kleene_desugars():
    phi = fm.desugar(fm.parse("!!(p & ~p) -> (q | ~q)"))
    body = And(p, SNeg(p))
    expected = Imp(Imp(Imp(body, Bot), Bot), Or(q, SNeg(q)))
    assert phi == expected


def test_parse_precedence_and_associativity():
    assert fm.parse("p & q & p") == And(And(p, q), p)
    assert fm.parse("p -> q -> p") == Imp(p, Imp(q, p))
    assert fm.parse("p | q | p") == Or(Or(p, q), p)
    assert fm.parse("p <-> q <=> p <=> q") == \
        SIff(Iff(p, q), SIff(p, q))
    assert fm.parse("~p -> q <-> p") == Iff(Imp(SNeg(p), q), p)
    assert fm.parse("p | q & p") == Or(p, And(q, p))
    assert fm.parse("[]p & <>q") == And(Box(p), Dia(q))
    assert fm.parse("~p & !q") == And(SNeg(p), Neg(q))


def test_parse_errors_carry_position():
    with pytest.raises(fm.ParseError) as err:
        fm.parse("p &\n& q")
    assert err.value.line == 2
    with pytest.raises(fm.ParseError):
        fm.parse("p ->")
    with pytest.raises(fm.ParseError):
        fm.parse("(p & q")
    with pytest.raises(fm.ParseError):
        fm.parse("p q")
    with pytest.raises(fm.ParseError):
        fm.parse("P")


@pytest.mark.parametrize("text,message,line,column", [
    ("p &\n& q", "expected a formula, found '&'", 2, 1),
    ("p ->", "expected a formula, found 'end'", 1, 5),
    ("(p & q", "expected ')'", 1, 7),
    ("p q", "trailing input", 1, 3),
    ("P", "unexpected character 'P'", 1, 1),
    ("9p", "unexpected character '9'", 1, 1),
    ("p $", "unexpected character '$'", 1, 3),
    ("p <- q", "unexpected character '<'", 1, 3),
    ("[p]", "unexpected character '['", 1, 1),
    ("", "expected a formula, found 'end'", 1, 1),
    ("  ", "expected a formula, found 'end'", 1, 3),
    (")", "expected a formula, found ')'", 1, 1),
    ("p\r\n-> Q", "unexpected character 'Q'", 2, 4),
    # a character no token starts is reported before an earlier misparse
    ("p q $", "unexpected character '$'", 1, 5),
])
def test_parse_error_message_line_column(text, message, line, column):
    with pytest.raises(fm.ParseError) as err:
        fm.parse(text)
    assert (str(err.value), err.value.line, err.value.column) == \
        (f"{line}:{column}: {message}", line, column)


def test_lowercase_symbol_is_unexpected_character():
    """A lowercase character that is not alphanumeric, such as U+24D0,
    starts no identifier."""
    with pytest.raises(fm.ParseError, match="1:3: unexpected character"):
        fm.parse("p ⓐ")


def test_reserved_word_is_constant_not_variable():
    assert fm.parse("bot -> p") == Imp(Bot, p)
    # identifiers may merely start with the reserved spelling
    assert fm.parse("bottom") == Var("bottom")


def test_desugar_neg_and_iff():
    assert fm.desugar(Neg(p)) == Imp(p, Bot)
    assert fm.desugar(Iff(p, q)) == And(Imp(p, q), Imp(q, p))


def test_desugar_dia_depends_on_language():
    # no strong negation anywhere: dia is an abbreviation
    assert fm.desugar(Dia(p)) == Imp(Box(Imp(p, Bot)), Bot)
    # with strong negation present, dia is primitive
    phi = And(Dia(p), SNeg(q))
    assert fm.desugar(phi) == phi
    # explicit target overrides the inference
    assert fm.desugar(Dia(p), fm.LanguageTag.Lsbox) == Dia(p)


@pytest.mark.parametrize("lang,depth,nvars", [
    ("Li", 2, 2), ("Ls", 2, 2), ("Lsbox", 2, 1),
])
def test_desugar_idempotent(lang, depth, nvars):
    for phi in enumerate_formulas(lang, depth, nvars, 300):
        once = fm.desugar(phi)
        assert fm.desugar(once) == once


def test_language_of():
    assert fm.language_of(Imp(p, q)) == fm.LanguageTag.Li
    assert fm.language_of(SNeg(p)) == fm.LanguageTag.Ls
    assert fm.language_of(Box(p)) == fm.LanguageTag.Lbox
    assert fm.language_of(Box(SNeg(p))) == fm.LanguageTag.Lsbox
    with pytest.raises(ValueError):
        fm.language_of(Neg(p))


def test_substitute():
    assert fm.substitute(Imp(p, q), {"p": Bot}) == Imp(Bot, q)
    assert fm.substitute(p, {"p": SNeg(p)}) == SNeg(p)
    assert fm.substitute(And(p, p), {"p": q}) == And(q, q)


def test_substitute_is_homomorphic():
    mapping = {"p": Or(q, Bot), "q": SNeg(p)}
    for op in (And, Or, Imp):
        assert fm.substitute(op(p, q), mapping) == op(
            fm.substitute(p, mapping), fm.substitute(q, mapping))
    for op in (SNeg, Box, Dia):
        assert fm.substitute(op(p), mapping) == op(fm.substitute(p, mapping))


def test_godel_tarski_clauses():
    assert fm.godel_tarski(p) == Box(p)
    assert fm.godel_tarski(Bot) is Bot
    assert fm.godel_tarski(Imp(p, q)) == Box(Imp(Box(p), Box(q)))
    assert fm.godel_tarski(And(p, q)) == And(Box(p), Box(q))
    assert fm.godel_tarski(Or(p, q)) == Or(Box(p), Box(q))
    with pytest.raises(ValueError):
        fm.godel_tarski(SNeg(p))


def test_belnap_translate_clauses():
    assert fm.belnap_translate(SNeg(Imp(p, q))) == And(Box(p), Box(SNeg(q)))
    assert fm.belnap_translate(SNeg(SNeg(p))) == Box(p)
    assert fm.belnap_translate(SNeg(Bot)) == SNeg(Bot)
    assert fm.belnap_translate(SNeg(And(p, q))) == Or(Box(SNeg(p)),
                                                      Box(SNeg(q)))
    assert fm.belnap_translate(SNeg(Or(p, q))) == And(Box(SNeg(p)),
                                                      Box(SNeg(q)))
    with pytest.raises(ValueError):
        fm.belnap_translate(Box(p))


def test_belnap_translate_kleene_axiom():
    translated = fm.belnap_translate(fm.KLEENE_AXIOM)
    assert translated == Box(Imp(And(Box(p), Box(SNeg(p))),
                                 Or(Box(q), Box(SNeg(q)))))
    assert fm.pretty(translated) == \
        "[]((([]p) & ([]~p)) -> (([]q) | ([]~q)))"


def test_belnap_extends_godel_tarski():
    """On Li the recursive T_B is the recursive Goedel-Tarski T, and the
    library's one walk gives both."""
    for phi in enumerate_formulas("Li", 3, 2, 500):
        want = slow_godel_tarski(phi)
        assert slow_belnap_translate(phi) is want
        assert fm.belnap_translate(phi) is want
        assert fm.godel_tarski(phi) is want


def test_translation_output_is_normal():
    for phi in enumerate_formulas("Ls", 3, 2, 500):
        assert fm.is_tb_normal(fm.belnap_translate(phi))


def test_is_tb_normal():
    assert fm.is_tb_normal(SNeg(p))
    assert fm.is_tb_normal(Box(SNeg(p)))
    assert fm.is_tb_normal(SNeg(Bot))
    assert not fm.is_tb_normal(SNeg(And(p, q)))


@pytest.mark.parametrize("lang", ["Li", "Ls", "Lbox", "Lsbox"])
def test_pretty_parse_round_trip(lang):
    for phi in enumerate_formulas(lang, 2, 2, 400):
        assert fm.parse(fm.pretty(phi)) == phi


def test_round_trip_with_sugar():
    for text in ("!p", "p <-> q", "p <=> ~q", "<>p -> []q"):
        phi = fm.parse(text)
        assert fm.parse(fm.pretty(phi)) == phi


def test_axiom_sets():
    assert fm.Iff(SNeg(SNeg(p)), p) in fm.axioms("SNEG")
    assert fm.axioms("KLEENE") == (fm.KLEENE_AXIOM,)
    assert len(fm.axioms("GRZ")) == 1
    assert len(fm.axioms("INT")) == 9
    assert len(fm.axioms("SNEG")) == 5
    assert len(fm.axioms("S4")) == 14
    assert len(fm.axioms("N4BOT")) == 14
    assert len(fm.axioms("BS4")) == 23
    assert set(fm.axioms("INT")) <= set(fm.axioms("N4BOT"))
    assert set(fm.axioms("S4")) <= set(fm.axioms("BS4"))
    with pytest.raises(ValueError):
        fm.axioms("NOPE")


def test_grz_axiom_shape():
    (grz,) = fm.axioms("GRZ")
    assert grz == Imp(Box(Imp(Box(Imp(p, Box(p))), p)), p)


def test_kleene_axioms_shapes():
    assert fm.KLEENE_AXIOM == fm.parse("(p & ~p) -> (q | ~q)")
    assert fm.desugar(fm.KLEENE_PRIME_AXIOM) == \
        fm.desugar(fm.parse("!!(p & ~p) -> (q | ~q)"))
    assert fm.desugar(fm.CLOSED_IDEAL_AXIOM) == \
        fm.desugar(fm.parse("!!(p & ~p) <-> (p & ~p)"))


# ---------------------------------------------------------------------------
# The analyses stored at interning, against plain recursive oracles

_ATOMS = st.sampled_from([p, q, Var("r"), Bot])
_UNARY = st.sampled_from([SNeg, Neg, Box, Dia])
_BINARY = st.sampled_from([And, Or, Imp, Iff, SIff])
_FORMULAS = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.builds(lambda op, a: op(a), _UNARY, sub),
    st.builds(lambda op, a, b: op(a, b), _BINARY, sub, sub)), max_leaves=12)
_TARGETS = [None, *fm.LanguageTag]


def _kinds(phi):
    if phi.kind == "var":
        return {"var"}
    return {phi.kind}.union(*(_kinds(a) for a in phi.args))


def _oracle_free_vars(phi):
    if phi.kind == "var":
        return frozenset((phi.name,))
    return frozenset().union(*(_oracle_free_vars(a) for a in phi.args))


def _oracle_language(phi):
    kinds = _kinds(phi)
    if kinds & {"neg", "iff", "siff"}:
        return None
    sneg, modal = "sneg" in kinds, bool(kinds & {"box", "dia"})
    return {(False, False): fm.LanguageTag.Li,
            (True, False): fm.LanguageTag.Ls,
            (False, True): fm.LanguageTag.Lbox,
            (True, True): fm.LanguageTag.Lsbox}[sneg, modal]


def _oracle_desugar(phi, target):
    kinds = _kinds(phi)
    if target is None:
        target = (fm.LanguageTag.Lsbox if "sneg" in kinds
                  else fm.LanguageTag.Lbox if kinds & {"box", "dia"}
                  else fm.LanguageTag.Li)

    def walk(f):
        kind = f.kind
        if kind in ("var", "bot"):
            return f
        args = [walk(a) for a in f.args]
        if kind == "neg":
            return Imp(args[0], Bot)
        if kind == "iff":
            a, b = args
            return And(Imp(a, b), Imp(b, a))
        if kind == "siff":
            a, b = args
            return And(And(Imp(a, b), Imp(b, a)),
                       And(Imp(SNeg(a), SNeg(b)), Imp(SNeg(b), SNeg(a))))
        if kind == "dia" and target != fm.LanguageTag.Lsbox:
            return Imp(Box(Imp(args[0], Bot)), Bot)
        return {"sneg": SNeg, "box": Box, "dia": Dia, "and": And, "or": Or,
                "imp": Imp}[kind](*args)

    return walk(phi)


def _oracle_reads(phi):
    """The literals of the strong-negation normal form of phi and of ~phi,
    (name, 0) for p and (name, 1) for ~p, by pushing ~ down the Lsbox
    desugaring: ~ flips the polarity, and ~(a -> b) is a & ~b."""
    def walk(f, negated):
        kind = f.kind
        if kind == "var":
            return {(f.name, int(negated))}
        if kind == "sneg":
            return walk(f.args[0], not negated)
        if kind == "imp" and negated:
            return walk(f.args[0], False) | walk(f.args[1], True)
        return set().union(*(walk(a, negated) for a in f.args))

    psi = _oracle_desugar(phi, fm.LanguageTag.Lsbox)
    return walk(psi, False), walk(psi, True)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_FORMULAS)
def test_stored_analyses_match_oracles(phi):
    kinds = _kinds(phi)
    assert fm.free_vars(phi) == _oracle_free_vars(phi)
    assert phi.reads == _oracle_reads(phi)
    assert bool(phi.flags & fm.HAS_SNEG) == ("sneg" in kinds)
    assert bool(phi.flags & fm.HAS_MODAL) == bool(kinds & {"box", "dia"})
    assert bool(phi.flags & fm.HAS_DIA) == ("dia" in kinds)
    assert bool(phi.flags & fm.HAS_SUGAR) == \
        bool(kinds & {"neg", "iff", "siff"})
    want = _oracle_language(phi)
    if want is None:
        with pytest.raises(ValueError):
            fm.language_of(phi)
    else:
        assert fm.language_of(phi) == want
    for target in _TARGETS:
        psi = fm.desugar(phi, target)
        assert psi is _oracle_desugar(phi, target)
        assert fm.desugar(psi, target) is psi
        assert fm.language_of(psi) == _oracle_language(psi)
        assert fm.free_vars(psi) == _oracle_free_vars(psi)
        assert psi.reads == _oracle_reads(psi)


def _oracle_tb_normal(phi):
    if phi.kind == "sneg":
        return phi.args[0].kind in ("var", "bot")
    if phi.kind == "var":
        return True
    return all(_oracle_tb_normal(a) for a in phi.args)


def _oracle_substitute(phi, mapping):
    if phi.kind == "var":
        return mapping.get(phi.name, phi)
    return fm._make(phi.kind, tuple(_oracle_substitute(a, mapping)
                                    for a in phi.args))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_FORMULAS, st.dictionaries(st.sampled_from("pqs"), _FORMULAS,
                                  max_size=2))
def test_walks_match_recursive_oracles(phi, mapping):
    """The translations, is_tb_normal and substitute agree with plain
    recursive definitions; modal input has no boxed translation."""
    psi = fm.desugar(phi)
    assert fm.is_tb_normal(psi) == _oracle_tb_normal(psi)
    assert fm.substitute(phi, mapping) is _oracle_substitute(phi, mapping)
    language = fm.language_of(psi)
    if language in (fm.LanguageTag.Li, fm.LanguageTag.Ls):
        translated = fm.belnap_translate(psi)
        assert translated is slow_belnap_translate(psi)
        assert fm.is_tb_normal(translated)
    else:
        with pytest.raises(ValueError):
            fm.belnap_translate(psi)
    if language == fm.LanguageTag.Li:
        assert fm.godel_tarski(psi) is slow_godel_tarski(psi)
    else:
        with pytest.raises(ValueError):
            fm.godel_tarski(psi)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_FORMULAS)
def test_pretty_parse_round_trip_random(phi):
    """Every query text goes through parse; pretty's output parses back to
    the same formula on random ones too, sugar and modalities included."""
    assert fm.parse(fm.pretty(phi)) is phi


def _same_tree(phi, psi):
    return phi.kind == psi.kind and len(phi.args) == len(psi.args) and all(
        _same_tree(a, b) if isinstance(a, fm.Formula) else a == b
        for a, b in zip(phi.args, psi.args))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_FORMULAS, _FORMULAS)
def test_interned_formulas_compare_by_identity(phi, psi):
    """Equal trees are one object, so == is identity; pickling and deep
    copying re-intern instead of making a second node."""
    assert (phi == psi) == (phi is psi) == _same_tree(phi, psi)
    assert len({phi, psi}) == 1 + (phi is not psi)
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert copy.deepcopy(phi) is phi and copy.copy(phi) is phi


_ALPHABET = ("<=>", "<->", "<>", "->", "[]", "~", "!", "&", "|", "(", ")",
             "<", "-", "[", "p", "q", "bot", " ", "\n", "\r\n", "\t", "P",
             "9", "\u00e9", "$")
_OPERANDS = st.tuples(st.sampled_from(("", "~", "!", "[]", "<>", "~!")),
                      st.sampled_from(("p", "q", "bot"))).map("".join)
# unparenthesised chains, where precedence and associativity decide
_CHAINS = st.builds(
    lambda first, rest: " ".join([first, *(f"{op} {x}" for op, x in rest)]),
    _OPERANDS, st.lists(st.tuples(st.sampled_from(
        ("<=>", "<->", "->", "|", "&")), _OPERANDS), max_size=5))
_WELL_FORMED = st.one_of(_FORMULAS.map(fm.pretty), _CHAINS)
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join),
    # a well-formed text with one token inserted or a stretch cut out
    st.builds(lambda text, at, token, cut: text[:at] + token + text[at + cut:],
              _WELL_FORMED, st.integers(0, 30),
              st.sampled_from(_ALPHABET + ("",)), st.integers(0, 3)),
    _WELL_FORMED)


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(_TEXTS)
def test_parse_matches_reference_parser(text):
    """parse returns the reference parser's formula or raises its error,
    with the same message, line and column, on random token strings and
    on well-formed texts, intact or with one token inserted or removed."""
    try:
        want = slow_parse(text)
    except fm.ParseError as err:
        want = (str(err), err.line, err.column)
    try:
        got = fm.parse(text)
    except fm.ParseError as err:
        got = (str(err), err.line, err.column)
    assert got is want or got == want


def _parse_outcome(text):
    "parse's formula for a text, or its error's (message, line, column)."
    try:
        return fm.parse(text)
    except fm.ParseError as err:
        return str(err), err.line, err.column


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_TEXTS)
def test_parse_memo_keeps_only_what_parses(text):
    """A text that parses gives one object on every call, the one its memo
    entry holds; one that does not raises the same error, message, line
    and column, on every call and is never kept."""
    first, second = _parse_outcome(text), _parse_outcome(text)
    if isinstance(first, fm.Formula):
        assert second is first and fm._parsed[text] is first
    else:
        assert second == first and text not in fm._parsed


def test_parse_memo_drops_oldest_first(monkeypatch):
    """After the bound plus k distinct texts the memo holds the bound: the
    latest texts, the oldest k dropped.  A dropped text parses again to
    the same interned formula."""
    monkeypatch.setattr(fm, "_parsed", {})
    k = 5
    texts = [f"p{i} -> q" for i in range(fm._PARSE_MEMO_SIZE + k)]
    formulas = [fm.parse(text) for text in texts]
    assert list(fm._parsed) == texts[k:]
    assert fm.parse(texts[0]) is formulas[0]
    assert len(fm._parsed) == fm._PARSE_MEMO_SIZE
    assert texts[k] not in fm._parsed and texts[0] in fm._parsed


# ---------------------------------------------------------------------------
# Formulas far deeper than the interpreter's recursion limit

_DEEP_CHECKS = """
import sys
from twistlab import companions, formula as fm
from twistlab.formula import And, Imp, Neg, SNeg, Var

depth, shape = int(sys.argv[1]), sys.argv[2]
p = Var("p")
step = {"sneg": SNeg, "neg": Neg, "imp": lambda f: Imp(p, f),
        "and": lambda f: And(f, p)}[shape]
phi = p
for _ in range(depth):
    phi = step(phi)
assert fm.parse("(" * depth + fm.pretty(phi) + ")" * depth) is phi
psi = fm.desugar(phi)
assert psi.height == depth
translated = fm.belnap_translate(psi)
assert fm.is_tb_normal(translated)
assert fm.substitute(phi, {"p": p}) is phi
sharp = companions.is_form_sharp(phi)
if shape == "sneg":
    assert translated is fm.Box(p) and sharp is None
else:
    assert fm.godel_tarski(psi) is translated
    assert sharp == (psi, ("p",), ())
print(translated.height)
"""


@pytest.mark.parametrize("shape,height", [
    ("sneg", 1), ("neg", 2 * 10**5 + 1), ("imp", 2 * 10**5 + 1),
    ("and", 10**5 + 1)])
def test_deep_formulas_need_no_recursion(shape, height):
    """A 10**5-deep chain of ~, !, right-nested -> or left-nested &, in
    10**5 more parentheses, round-trips through pretty and parse, and
    desugar, the translations, is_tb_normal, substitute and is_form_sharp
    all return, in a fresh process at the default recursion limit (which
    peaks at 100-200 MB of interned nodes, freed when it exits)."""
    path = os.pathsep.join(filter(None, (str(Path(fm.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_CHECKS, str(10**5), shape],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(height)]
