import concurrent.futures
import itertools
import os

import pytest
from hypothesis import strategies as st

from twistlab import formula as fm
from twistlab.formula import (And, Bot, Box, Dia, Iff, Imp, Neg, Or, SIff,
                              SNeg, Var)
from twistlab import kripke, order, semantics, twist


@pytest.fixture(scope="session")
def chain2():
    return order.FinitePoset.from_pairs(2, [(0, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def anti2():
    return order.FinitePoset.from_pairs(2, [(0, 0), (1, 1)])


@pytest.fixture(scope="session")
def three(chain2):
    "The 3-chain Heyting algebra: bot=0 < 1 < top=2."
    return order.heyting_from_poset(chain2)


@pytest.fixture(scope="session")
def bool2():
    poset = order.FinitePoset.from_pairs(1, [(0, 0)])
    return order.heyting_from_poset(poset)


@pytest.fixture(scope="session")
def bool4(anti2):
    return order.heyting_from_poset(anti2)


@pytest.fixture(scope="session")
def kleene_twist(three):
    "Tw(3-chain, {1, 2}, {0, 1}): the chi-validating, chi'-refuting model."
    return twist.tw(three, frozenset({1, 2}), frozenset({0, 1}))


@pytest.fixture()
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs its tasks in this
    process, with os.cpu_count() reading 3; returns the list to which
    each pool appends its max_workers and its number of tasks."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.record = {"max_workers": max_workers, "tasks": 0}
            pools.append(self.record)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            self.record["tasks"] = len(tasks)
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return pools


@pytest.fixture(scope="session")
def posets3():
    return list(order.enumerate_posets(3))


@pytest.fixture(scope="session")
def posets4_classes():
    return list(order.enumerate_posets(4, dedup=True))


@pytest.fixture(scope="session")
def posets5_classes():
    return list(order.enumerate_posets(5, dedup=True))


@st.composite
def random_posets(draw, max_n=5):
    """A random poset of at most max_n points: the transitive closure of
    a random set of edges i -> j with i < j, relabeled by a random
    permutation."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    label = draw(st.permutations(range(n)))
    return order.FinitePoset.from_pairs(
        n, [(label[i], label[j]) for i, j in edges], closure=True)


def slow_evaluate(structure, phi, valuation):
    """Independent reference evaluator: plain recursion, no numpy."""
    if isinstance(structure, twist.TwistStructure):
        base = structure.base

        def walk(f):
            kind = f.kind
            if kind == "var":
                return valuation[f.name]
            if kind == "bot":
                return (base.bot, base.top)
            if kind == "sneg":
                a, b = walk(f.args[0])
                return (b, a)
            if kind == "box":
                a, b = walk(f.args[0])
                return (int(base.box[a]), int(base.dia_table[b]))
            if kind == "dia":
                a, b = walk(f.args[0])
                return (int(base.dia_table[a]), int(base.box[b]))
            (a, b), (c, d) = walk(f.args[0]), walk(f.args[1])
            if kind == "and":
                return (int(base.meet[a, c]), int(base.join[b, d]))
            if kind == "or":
                return (int(base.join[a, c]), int(base.meet[b, d]))
            if kind == "imp":
                return (int(base.imp[a, c]), int(base.meet[a, d]))
            raise ValueError(kind)

        return walk(phi)

    def walk(f):
        kind = f.kind
        if kind == "var":
            return valuation[f.name]
        if kind == "bot":
            return structure.bot
        if kind == "box":
            return int(structure.box[walk(f.args[0])])
        if kind == "dia":
            return int(structure.dia_table[walk(f.args[0])])
        a = walk(f.args[0])
        if kind == "and":
            return int(structure.meet[a, walk(f.args[1])])
        if kind == "or":
            return int(structure.join[a, walk(f.args[1])])
        if kind == "imp":
            return int(structure.imp[a, walk(f.args[1])])
        raise ValueError(kind)

    return walk(phi)


# Reference parser for the concrete syntax

_SYMBOLS = ("<=>", "<->", "<>", "->", "[]", "~", "!", "&", "|", "(", ")")


def _tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if c.islower():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("ident", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise fm.ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("end", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def error(self, message):
        tok = self.peek()
        raise fm.ParseError(message, tok[-2], tok[-1])

    def accept(self, sym):
        if self.tokens[self.pos][0] == sym:
            self.pos += 1
            return True
        return False

    def expect(self, sym):
        if not self.accept(sym):
            self.error(f"expected {sym!r}")

    # precedence, loosest first: <=>  <->  ->  |  &  unary
    def siff(self):
        lhs = self.iff()
        if self.accept("<=>"):
            return SIff(lhs, self.siff())
        return lhs

    def iff(self):
        lhs = self.imp()
        if self.accept("<->"):
            return Iff(lhs, self.iff())
        return lhs

    def imp(self):
        lhs = self.disj()
        if self.accept("->"):
            return Imp(lhs, self.imp())
        return lhs

    def disj(self):
        lhs = self.conj()
        while self.accept("|"):
            lhs = Or(lhs, self.conj())
        return lhs

    def conj(self):
        lhs = self.unary()
        while self.accept("&"):
            lhs = And(lhs, self.unary())
        return lhs

    def unary(self):
        if self.accept("~"):
            return SNeg(self.unary())
        if self.accept("!"):
            return Neg(self.unary())
        if self.accept("[]"):
            return Box(self.unary())
        if self.accept("<>"):
            return Dia(self.unary())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok[0] == "ident":
            self.pos += 1
            if tok[1] == "bot":
                return Bot
            return Var(tok[1])
        if self.accept("("):
            inner = self.siff()
            self.expect(")")
            return inner
        self.error(f"expected a formula, found {tok[0]!r}")


def slow_parse(text):
    """Reference parser: a character-by-character tokenizer and recursive
    descent, one method per precedence level.  It loops forever on the
    few lowercase characters that are not alphanumeric (such as U+24D0),
    so property tests draw no such character."""
    parser = _Parser(_tokenize(text))
    phi = parser.siff()
    if parser.peek()[0] != "end":
        parser.error("trailing input")
    return phi


# Reference translations: the recursive definitions, one cache each

_slow_gt_cache: dict = {}


def slow_godel_tarski(phi):
    "Goedel-Tarski's T of an Li formula, by plain recursion."
    cached = _slow_gt_cache.get(phi)
    if cached is not None:
        return cached
    kind = phi.kind
    if kind == "var":
        out = Box(phi)
    elif kind == "bot":
        out = phi
    elif kind == "and":
        out = And(slow_godel_tarski(phi.args[0]),
                  slow_godel_tarski(phi.args[1]))
    elif kind == "or":
        out = Or(slow_godel_tarski(phi.args[0]),
                 slow_godel_tarski(phi.args[1]))
    elif kind == "imp":
        out = Box(Imp(slow_godel_tarski(phi.args[0]),
                      slow_godel_tarski(phi.args[1])))
    else:
        raise ValueError(f"unexpected connective {kind!r}")
    _slow_gt_cache[phi] = out
    return out


_slow_tb_cache: dict = {}


def slow_belnap_translate(phi):
    "T_B of an Ls formula, by plain recursion."
    cached = _slow_tb_cache.get(phi)
    if cached is not None:
        return cached
    kind = phi.kind
    if kind == "var":
        out = Box(phi)
    elif kind == "bot":
        out = phi
    elif kind == "and":
        out = And(slow_belnap_translate(phi.args[0]),
                  slow_belnap_translate(phi.args[1]))
    elif kind == "or":
        out = Or(slow_belnap_translate(phi.args[0]),
                 slow_belnap_translate(phi.args[1]))
    elif kind == "imp":
        out = Box(Imp(slow_belnap_translate(phi.args[0]),
                      slow_belnap_translate(phi.args[1])))
    elif kind == "sneg":
        inner = phi.args[0]
        ikind = inner.kind
        if ikind == "var":
            out = Box(phi)
        elif ikind == "bot":
            out = phi
        elif ikind == "and":
            out = Or(slow_belnap_translate(SNeg(inner.args[0])),
                     slow_belnap_translate(SNeg(inner.args[1])))
        elif ikind == "or":
            out = And(slow_belnap_translate(SNeg(inner.args[0])),
                      slow_belnap_translate(SNeg(inner.args[1])))
        elif ikind == "imp":
            out = And(slow_belnap_translate(inner.args[0]),
                      slow_belnap_translate(SNeg(inner.args[1])))
        else:  # sneg: even iterations cancel
            out = slow_belnap_translate(inner.args[0])
    else:
        raise ValueError(f"unexpected connective {kind!r}")
    _slow_tb_cache[phi] = out
    return out


def slow_is_valid(structure, phi):
    """Independent reference validity: exhaust valuations with plain loops.

    Returns (valid, least witness | None) matching the library's ordering
    contract.
    """
    psi = fm.desugar(phi, _target_of(structure))
    names = sorted(fm.free_vars(psi))
    if isinstance(structure, twist.TwistStructure):
        values = structure.pairs
        top = structure.base.top

        def ok(result):
            return result[0] == top
    else:
        values = list(range(structure.n))
        top = structure.top

        def ok(result):
            return result == top

    for combo in itertools.product(values, repeat=len(names)):
        valuation = dict(zip(names, combo))
        if not ok(slow_evaluate(structure, psi, valuation)):
            return False, valuation
    return True, None


def slow_forces(model, world, phi):
    """Reference Kripke truth at one world of a model, by the standard
    clauses and plain recursion: classical at each world, box over the
    up-set."""
    psi = kripke._modal_core(phi)
    frame, valuation = model.frame, model.valuation

    def walk(f, x):
        kind = f.kind
        if kind == "var":
            return x in valuation.get(f.name, ())
        if kind == "bot":
            return False
        if kind == "and":
            return walk(f.args[0], x) and walk(f.args[1], x)
        if kind == "or":
            return walk(f.args[0], x) or walk(f.args[1], x)
        if kind == "imp":
            return (not walk(f.args[0], x)) or walk(f.args[1], x)
        if kind == "box":
            return all(walk(f.args[0], y) for y in range(frame.n)
                       if frame.leq(x, y))
        raise semantics.LanguageError(f"cannot interpret {kind!r} in a frame")

    return walk(psi, world)


def slow_is_filter(algebra, subset, within=None):
    """Plain-loop filter test: non-empty, upward closed, closed under meet.
    With ``within`` (elements closed under meet and join) a filter of the
    lattice on those elements."""
    return _slow_is_closed(algebra, subset, within, algebra.leq, algebra.meet)


def slow_is_ideal(algebra, subset, within=None):
    """Plain-loop ideal test, the order dual of ``slow_is_filter``."""
    return _slow_is_closed(algebra, subset, within,
                           lambda a, b: algebra.leq(b, a), algebra.join)


def _slow_is_closed(algebra, subset, within, leq, table):
    carrier = set(range(algebra.n) if within is None else within)
    subset = set(subset)
    if not subset or not subset <= carrier:
        return False
    for a in subset:
        if any(leq(a, b) and b not in subset for b in carrier):
            return False
        if any(int(table[a, b]) not in subset for b in subset):
            return False
    return True


def slow_lambda_set(base, nabla):
    """Plain-loop lambda set: the open a with a v box(a -> bot) in nabla."""
    return frozenset(
        a for a in range(base.n) if int(base.box[a]) == a
        and int(base.join[a, base.box[base.imp[a, base.bot]]]) in nabla)


def _target_of(structure):
    if isinstance(structure, twist.TwistStructure):
        return fm.LanguageTag.Lsbox if structure.modal else fm.LanguageTag.Ls
    from twistlab.tba import FiniteTBA

    if isinstance(structure, FiniteTBA):
        return fm.LanguageTag.Lbox
    return fm.LanguageTag.Li
