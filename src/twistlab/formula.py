"""Propositional formulas with strong negation and modalities.

Four languages share one AST:

    Li    {and, or, imp, bot}              intuitionistic core
    Ls    Li + strong negation  ~          Nelson-style
    Lbox  Li + box              []         modal (diamond is sugar)
    Lsbox Li + ~, [], <>                   modal with strong negation

Sugar kinds (``neg``, ``iff``, ``siff``, and ``dia`` in Lbox position) are
accepted by the parser and eliminated by :func:`desugar`.

Concrete syntax, binding loosest first:

    <=>  <->  ->  |  &      binary; & and | associate left, the arrows right
    ~  !  []  <>            prefix, binding tighter than any binary one

with parentheses, the constant ``bot`` and identifiers: a lowercase letter
followed by letters, digits or ``_``.  :func:`parse` reads the binary
connectives from the one table ``_BINARY`` and the prefix ones from
``_PREFIX``.

Every traversal goes through one explicit-stack walk, ``_postorder``, so
nothing here recurses, whatever the depth.  Goedel-Tarski's T is the boxed
translation T_B on Li, one walk, so the two coincide there by construction.
"""

from __future__ import annotations

import enum
import re

__all__ = [
    "Formula", "LanguageTag", "ParseError",
    "Var", "Bot", "SNeg", "And", "Or", "Imp", "Box", "Dia",
    "Neg", "Iff", "SIff",
    "parse", "pretty", "desugar", "language_of", "free_vars", "substitute",
    "godel_tarski", "belnap_translate", "is_tb_normal", "axioms",
    "AXIOM_SETS", "HAS_SNEG", "HAS_MODAL", "HAS_DIA", "HAS_SUGAR",
]

CORE_KINDS = frozenset({"var", "bot", "sneg", "and", "or", "imp", "box", "dia"})
BINARY_KINDS = frozenset({"and", "or", "imp", "iff", "siff"})
UNARY_KINDS = frozenset({"sneg", "neg", "box", "dia"})

# Bits of Formula.flags: which kinds occur anywhere in the tree.
HAS_SNEG = 1
HAS_MODAL = 2   # box or dia
HAS_DIA = 4
HAS_SUGAR = 8   # neg, iff or siff

_OWN_FLAGS = {"sneg": HAS_SNEG, "box": HAS_MODAL, "dia": HAS_MODAL | HAS_DIA,
              "neg": HAS_SUGAR, "iff": HAS_SUGAR, "siff": HAS_SUGAR}


class LanguageTag(enum.Enum):
    Li = "Li"
    Ls = "Ls"
    Lbox = "Lbox"
    Lsbox = "Lsbox"


class Formula:
    """Immutable formula node; instances are interned, so equal formulas
    are the same object within a process, and ``==`` and ``hash`` are
    object identity (``__reduce__`` re-interns on unpickling).

    Besides ``kind`` and ``args`` each node stores, computed once from its
    arguments when it is interned:

    ``height``  tree height (variables and bot are 0);
    ``free``    frozenset of the variable names occurring in it;
    ``flags``   bitmask of HAS_SNEG, HAS_MODAL, HAS_DIA and HAS_SUGAR,
                set when such a connective occurs anywhere in the tree;
    ``reads``   (literals of the node, literals of its strong negation):
                frozensets of (name, 0) for a literal p and (name, 1) for
                ~p, in the strong-negation normal form (_reads).
    """

    __slots__ = ("kind", "args", "height", "free", "flags", "reads")

    def __init__(self, kind, args, height, free, flags, reads):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "reads", reads)

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __repr__(self):
        return f"<{pretty(self)}>"

    def __reduce__(self):
        return (_make, (self.kind, self.args))

    @property
    def name(self):
        if self.kind != "var":
            raise AttributeError("only variables have a name")
        return self.args[0]


_interned: dict = {}
_sets: dict = {}  # one shared frozenset per distinct set a node stores


def _shared(items):
    return _sets.setdefault(items, items)


def _reads(kind, args):
    """The literals of the strong-negation normal form of a node and of
    its strong negation, from its arguments'.  ~ is pushed down by
    ~(x & y) = ~x | ~y, ~(x | y) = ~x & ~y, ~(x -> y) = x & ~y,
    ~[]x = <>~x, ~<>x = []~x and ~~x = x (sugar as it desugars, ~bot
    stays); so ~ swaps a node's pair, and only the literals of ~(x -> y)
    take x's own."""
    if kind == "var":
        return (_shared(frozenset({(args[0], 0)})),
                _shared(frozenset({(args[0], 1)})))
    if not args:
        return _shared(frozenset()), _shared(frozenset())
    x0, x1 = args[0].reads
    if kind == "sneg":
        return x1, x0
    if kind == "neg":  # ~(x -> bot) is x & ~bot
        return x0, x0
    if len(args) == 1:  # box, dia
        return x0, x1
    y0, y1 = args[1].reads
    own = _shared(x0 | y0)
    if kind == "imp":
        return own, _shared(x0 | y1)
    if kind in ("and", "or"):
        return own, _shared(x1 | y1)
    both = _shared(own | x1 | y1)  # iff, siff
    return (both if kind == "siff" else own), both


def _make(kind, args):
    key = (kind, args)
    cached = _interned.get(key)
    if cached is not None:
        return cached
    if kind == "var":
        height, free, flags = 0, frozenset(args), 0
    else:
        height = 1 + max((a.height for a in args), default=-1)
        free = frozenset().union(*(a.free for a in args))
        flags = _OWN_FLAGS.get(kind, 0)
        for a in args:
            flags |= a.flags
    node = Formula(kind, args, height, _shared(free), flags,
                   _reads(kind, args))
    _interned[key] = node
    return node


def Var(name: str) -> Formula:
    return _make("var", (name,))


Bot = _make("bot", ())


def SNeg(phi):
    return _make("sneg", (phi,))


def And(phi, psi):
    return _make("and", (phi, psi))


def Or(phi, psi):
    return _make("or", (phi, psi))


def Imp(phi, psi):
    return _make("imp", (phi, psi))


def Box(phi):
    return _make("box", (phi,))


def Dia(phi):
    return _make("dia", (phi,))


def Neg(phi):
    "Intuitionistic negation, sugar for phi -> bot."
    return _make("neg", (phi,))


def Iff(phi, psi):
    "Equivalence, sugar for (phi -> psi) & (psi -> phi)."
    return _make("iff", (phi, psi))


def SIff(phi, psi):
    "Strong equivalence, sugar for (phi <-> psi) & (~phi <-> ~psi)."
    return _make("siff", (phi, psi))


# ---------------------------------------------------------------------------
# Concrete syntax


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# One token a match: a connective or parenthesis, a word, or any other
# visible character (an error).  On every character ``\s`` is exactly
# str.isspace and ``\w`` exactly str.isalnum or "_".
_TOKEN = re.compile(r"\s*(?:(<=>|<->|<>|->|\[\]|[~!&|()])|(\w+)|(\S))")
_END = ("", "", "")  # after the last token: no connective and no word

# The grammar's one table: precedence (higher binds tighter), whether the
# connective associates right, and its constructor.
_BINARY = {"<=>": (1, True, SIff), "<->": (2, True, Iff), "->": (3, True, Imp),
           "|": (4, False, Or), "&": (5, False, And)}
_PREFIX = {"~": SNeg, "!": Neg, "[]": Box, "<>": Dia}
_TIGHTER = 6  # than every binary connective: a prefix's operand takes none


class _Stuck(Exception):
    "Where parsing stopped: (token index, message) for _parse_error."


def _climb(tokens):
    """The formula at the start of ``tokens`` and the index after it, by
    precedence climbing over a stack of frames (constructor, left operand,
    floor: the least precedence that extends it), one per operand being
    read; "(" has no constructor, a prefix no left operand."""
    frames, i, floor = [], 0, 0
    while True:
        sym, word, _ = tokens[i]
        make = _PREFIX.get(sym)
        if make is not None or sym == "(":
            frames.append((make, None, floor))
            floor = 0 if make is None else _TIGHTER
            i += 1
            continue
        if not (word and word[0].islower()):
            raise _Stuck(i, f"expected a formula, found {sym or 'end'!r}")
        lhs = Bot if word == "bot" else Var(word)
        i += 1
        while True:
            op = _BINARY.get(tokens[i][0])
            if op is not None and op[0] >= floor:
                rank, right, make = op
                frames.append((make, lhs, floor))
                floor = rank if right else rank + 1
                i += 1
                break
            if not frames:
                return lhs, i
            make, left, floor = frames.pop()
            if make is None:
                if tokens[i][0] != ")":
                    raise _Stuck(i, "expected ')'")
                i += 1
            else:
                lhs = make(lhs) if left is None else make(left, lhs)


def _parse_error(text, index, message):
    """The ParseError of a text that does not parse: at its first
    character that starts no token, else ``message`` at token ``index``
    (the end of the text when past the last token)."""
    at = len(text)
    for k, match in enumerate(_TOKEN.finditer(text)):
        group = match.lastindex
        start = match.start(group)
        if group == 3 or group == 2 and not text[start].islower():
            message, at = f"unexpected character {text[start]!r}", start
            break
        if k == index:
            at = start
    return ParseError(message, text.count("\n", 0, at) + 1,
                      at - text.rfind("\n", 0, at))


_PARSE_MEMO_SIZE = 4096
_parsed: dict = {}  # text -> its formula, oldest first


def parse(text: str) -> Formula:
    """Parse concrete syntax (see the module docstring); sugar connectives
    are kept in the AST.

    The formulas of the last _PARSE_MEMO_SIZE (4,096) distinct texts that
    parsed are kept, so a repeated text costs one lookup; when the memo is
    full its oldest text is dropped, as ``re`` drops compiled patterns.  A
    text that raises ParseError is never kept."""
    phi = _parsed.get(text)
    if phi is not None:
        return phi
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    try:
        phi, i = _climb(tokens)
    except _Stuck as stuck:
        raise _parse_error(text, *stuck.args) from None
    if tokens[i] is not _END:
        raise _parse_error(text, i, "trailing input")
    if len(_parsed) >= _PARSE_MEMO_SIZE:
        del _parsed[next(iter(_parsed))]
    _parsed[text] = phi
    return phi


_SIGIL = {"and": " & ", "or": " | ", "imp": " -> ", "iff": " <-> ",
          "siff": " <=> ", "sneg": "~", "neg": "!", "box": "[]", "dia": "<>"}


def pretty(phi: Formula) -> str:
    """Render a formula; output always reparses to the same tree.

    Arguments of binary connectives are parenthesised unless atomic;
    arguments of unary connectives only when binary.
    """
    out, stack = [], [phi]  # pieces to emit, the next one last
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            out.append(f)
        elif f.kind in ("var", "bot"):
            out.append(f.args[0] if f.kind == "var" else "bot")
        else:
            *lhs, rhs = f.args
            bare = ("var", "bot") if lhs else ("var", "bot", *UNARY_KINDS)
            for piece in reversed((*lhs, _SIGIL[f.kind], rhs)):
                if isinstance(piece, str) or piece.kind in bare:
                    stack.append(piece)
                else:
                    stack += (")", piece, "(")
    return "".join(out)


# ---------------------------------------------------------------------------
# The one walk, desugaring and language classification


_EMIT = object()  # on _postorder's stack: the key below it is complete


def _postorder(root, deps):
    """The distinct keys of a DAG from ``root`` down, each after the keys
    it depends on, found with an explicit stack, so at any depth.
    ``deps(key)`` names the keys that key's value is built from and that
    are not memoised yet; the walk goes no further below memoised ones."""
    order, seen, stack = [], set(), [root]
    while stack:
        key = stack.pop()
        if key is _EMIT:
            order.append(stack.pop())
        elif key not in seen:
            seen.add(key)
            stack += (key, _EMIT)
            stack += deps(key)
    return order


_desugared: dict = {}


def desugar(phi: Formula, target: LanguageTag | None = None) -> Formula:
    """Eliminate neg/iff/siff; eliminate dia as !([]!...) unless the target
    language keeps it primitive.

    When ``target`` is None it is inferred from content: a formula with
    strong negation lives in Lsbox (dia primitive), otherwise any modality
    puts it in Lbox (dia is sugar for the boxed double negation).
    A formula with nothing to rewrite is returned as it is, so desugaring
    is idempotent and returns the same object the second time.  Results
    are memoised per (formula, target).
    """
    flags = phi.flags
    if target is None:
        if flags & HAS_SNEG:
            target = LanguageTag.Lsbox
        elif flags & HAS_MODAL:
            target = LanguageTag.Lbox
        else:
            target = LanguageTag.Li
    rewrite = HAS_SUGAR if target == LanguageTag.Lsbox else HAS_SUGAR | HAS_DIA
    if not flags & rewrite:
        return phi
    key = (phi, target)
    hit = _desugared.get(key)
    if hit is None:
        out = {}  # a node with nothing to rewrite stays as it is
        for f in _postorder(phi, lambda f: [a for a in f.args
                                            if a.flags & rewrite]):
            out[f] = _desugar_node(f.kind, [out.get(a, a) for a in f.args],
                                   rewrite)
        hit = _desugared[key] = out[phi]
    return hit


def _desugar_node(kind, args, rewrite):
    "A node of ``kind`` over desugared ``args``, itself desugared."
    if kind == "neg":
        return Imp(args[0], Bot)
    if kind in ("iff", "siff"):
        a, b = args
        both = And(Imp(a, b), Imp(b, a))
        if kind == "iff":
            return both
        return And(both, And(Imp(SNeg(a), SNeg(b)), Imp(SNeg(b), SNeg(a))))
    if kind == "dia" and rewrite & HAS_DIA:
        return Imp(Box(Imp(args[0], Bot)), Bot)
    return _make(kind, tuple(args))


def language_of(phi: Formula) -> LanguageTag:
    """Smallest language containing a desugared formula."""
    flags = phi.flags
    if flags & HAS_SUGAR:
        raise ValueError("language_of expects a desugared formula")
    if flags & HAS_SNEG:
        return LanguageTag.Lsbox if flags & HAS_MODAL else LanguageTag.Ls
    return LanguageTag.Lbox if flags & HAS_MODAL else LanguageTag.Li


def free_vars(phi: Formula) -> frozenset:
    """Names of the variables occurring in phi."""
    return phi.free


def substitute(phi: Formula, mapping: dict) -> Formula:
    """Simultaneous substitution of formulas for variables."""
    out = {}  # a node with no variable of the mapping stays as it is
    for f in _postorder(phi, lambda f: () if f.kind == "var" else [
            a for a in f.args if not a.free.isdisjoint(mapping)]):
        out[f] = mapping.get(f.name, f) if f.kind == "var" \
            else _make(f.kind, tuple(out.get(a, a) for a in f.args))
    return out[phi]


# ---------------------------------------------------------------------------
# The boxed translation T_B and its restriction to Li, Goedel-Tarski's T

# Memoised translations, plain and under ~: node -> its translation.
_tb_cache: tuple = ({}, {})


def godel_tarski(phi: Formula) -> Formula:
    """Embed an intuitionistic formula into the box language:
    variables and implications are boxed, the lattice connectives commute.
    This is belnap_translate on Li, the same walk.
    """
    if language_of(phi) != LanguageTag.Li:
        raise ValueError("godel_tarski is defined on Li formulas only")
    return _translate(phi)


def belnap_translate(phi: Formula) -> Formula:
    """Extend the boxed embedding to strong negation.

    Strong negation is pushed through the positive connectives (De Morgan
    on and/or, conjunctive reading of a negated implication), double strong
    negations cancel, and the residual ~ is boxed together with its
    variable.  The output has ~ only on variables and bot.  With no ~ to
    push this is godel_tarski, so the two coincide on Li by construction.
    """
    if language_of(phi) not in (LanguageTag.Li, LanguageTag.Ls):
        raise ValueError("belnap_translate rejects modal input")
    return _translate(phi)


def _translate(phi):
    """T_B of an Ls formula, by one walk over (node, under ~) keys that
    visits only the keys the translation reads and are not memoised."""
    plain = _tb_cache[False]
    if phi not in plain:
        for node, negated in _postorder((phi, False), lambda key: [
                (n, under) for n, under in _tb_reads(*key)
                if n not in _tb_cache[under]]):
            _tb_cache[negated][node] = _tb_node(node, negated, [
                _tb_cache[under][n] for n, under in _tb_reads(node, negated)])
    return plain[phi]


def _tb_reads(node, negated):
    """The keys whose translations that of (node, negated) is built from:
    ~ flips the flag, and ~(x -> y) = x & ~y reads x plain (as _reads)."""
    kind, args = node.kind, node.args
    if kind == "var":
        return ()
    if kind == "sneg":
        return [(args[0], not negated)]
    if kind == "imp" and negated:
        return [(args[0], False), (args[1], True)]
    return [(a, negated) for a in args]


def _tb_node(node, negated, parts):
    "The translation of (node, negated) from ``parts``, those of its reads."
    kind = node.kind
    if kind in ("var", "bot"):
        literal = SNeg(node) if negated else node
        return Box(literal) if kind == "var" else literal
    if kind == "sneg":
        return parts[0]
    if kind == "imp":
        return And(*parts) if negated else Box(Imp(*parts))
    return And(*parts) if (kind == "and") != negated else Or(*parts)


def is_tb_normal(phi: Formula) -> bool:
    """True when every strong negation wraps a variable or bot."""
    if not phi.flags & HAS_SNEG:
        return True
    return all(f.args[0].kind in ("var", "bot") for f in _postorder(
        phi, lambda f: [a for a in f.args if a.flags & HAS_SNEG])
        if f.kind == "sneg")


# ---------------------------------------------------------------------------
# Built-in axiom schemes

_p, _q, _r = Var("p"), Var("q"), Var("r")

_INT = (
    Imp(_p, Imp(_q, _p)),
    Imp(Imp(_p, Imp(_q, _r)), Imp(Imp(_p, _q), Imp(_p, _r))),
    Imp(And(_p, _q), _p),
    Imp(And(_p, _q), _q),
    Imp(_p, Imp(_q, And(_p, _q))),
    Imp(_p, Or(_p, _q)),
    Imp(_q, Or(_p, _q)),
    Imp(Imp(_p, _r), Imp(Imp(_q, _r), Imp(Or(_p, _q), _r))),
    Imp(Bot, _p),
)

_SNEG = (
    Iff(SNeg(Or(_p, _q)), And(SNeg(_p), SNeg(_q))),
    Iff(SNeg(And(_p, _q)), Or(SNeg(_p), SNeg(_q))),
    Iff(SNeg(Imp(_p, _q)), And(_p, SNeg(_q))),
    Iff(SNeg(SNeg(_p)), _p),
    SNeg(Bot),
)

_S4MODAL = (
    Box(Imp(_p, _p)),
    Imp(And(Box(_p), Box(_q)), Box(And(_p, _q))),
    Imp(Box(_p), _p),
    Imp(Box(_p), Box(Box(_p))),
)

_BS4INTERPLAY = (
    Iff(Neg(Box(_p)), Dia(Neg(_p))),
    Iff(Neg(Dia(_p)), Box(Neg(_p))),
    SIff(Box(_p), SNeg(Dia(SNeg(_p)))),
    SIff(Dia(_p), SNeg(Box(SNeg(_p)))),
)

_EXCLUDED_MIDDLE = (Or(_p, Neg(_p)),)

_GRZ = (Imp(Box(Imp(Box(Imp(_p, Box(_p))), _p)), _p),)

KLEENE_AXIOM = Imp(And(_p, SNeg(_p)), Or(_q, SNeg(_q)))
KLEENE_PRIME_AXIOM = Imp(Neg(Neg(And(_p, SNeg(_p)))), Or(_q, SNeg(_q)))
CLOSED_IDEAL_AXIOM = Iff(Neg(Neg(And(_p, SNeg(_p)))), And(_p, SNeg(_p)))

AXIOM_SETS = {
    "INT": _INT,
    "SNEG": _SNEG,
    "S4MODAL": _S4MODAL,
    "BS4INTERPLAY": _BS4INTERPLAY,
    "N4BOT": _INT + _SNEG,
    "S4": _INT + _EXCLUDED_MIDDLE + _S4MODAL,
    "BS4": _INT + _EXCLUDED_MIDDLE + _S4MODAL + _SNEG + _BS4INTERPLAY,
    "GRZ": _GRZ,
    "KLEENE": (KLEENE_AXIOM,),
    "KLEENE_PRIME": (KLEENE_PRIME_AXIOM,),
    "CLOSED_IDEAL_AXIOM": (CLOSED_IDEAL_AXIOM,),
}


def axioms(name: str) -> tuple:
    """Axiom schemes by set name; sugar connectives are kept as written."""
    try:
        return AXIOM_SETS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown axiom set {name!r}") from None
