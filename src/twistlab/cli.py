"""Command-line surface: validation, model checking, translations, the
companion pipeline, refutation search, and enumeration.

Exit codes follow one contract everywhere: 0 for a positive outcome,
1 for a definite negative finding (violation, refutation), 2 for usage,
parse or I/O errors.  Input errors surface as exceptions that main turns
into an ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import formula as fm
from . import semantics
from .companions import companion_structure, kleene_demo
from .heyting import FiniteHeytingAlgebra, heyting_from_json, heyting_to_json
from .kripke import grz_refutation_search
from .order import FinitePoset, enumerate_posets, poset_from_json, \
    poset_to_json, heyting_from_poset, validate_poset
from .tba import tba_from_json
from .twist import tw

USAGE_ERROR = 2


def _emit(args, payload, text_lines):
    """JSON output carries the version and a config echo; text output a
    version header."""
    if args.format == "json":
        wrapped = {
            "tool": "twistlab",
            "version": __version__,
            "config": {key: value for key, value in vars(args).items()
                       if key not in ("func",)},
            "result": payload,
        }
        print(json.dumps(wrapped, sort_keys=True))
    else:
        print(f"# twistlab {__version__}")
        for line in text_lines:
            print(line)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _positive_int(text):
    """A count option's value: a positive integer, else a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return int(text)


def _elements(data, key):
    values = data[key]
    if not (isinstance(values, list) and all(
            type(value) is int for value in values)):
        raise ValueError(f"{key} must be a list of element indices")
    return frozenset(values)


def _formula_texts(texts):
    """The formula strings of a file; anything but a list of strings is an
    input error."""
    if not (isinstance(texts, list)
            and all(isinstance(text, str) for text in texts)):
        raise ValueError("formulas must be a list of strings")
    return texts


# The builder of each structure type a file can name but "twist".
_READERS = {"poset": poset_from_json, "heyting": heyting_from_json,
            "tba": tba_from_json}


def _twist_parts(data, base_dir):
    """The base algebra, nabla and delta of a twist object; the base, an
    object or a file, must be a heyting or tba object and is not yet
    checked."""
    base = data["base"]
    if isinstance(base, str):
        base = _load_json(os.path.join(base_dir, base))
    kind = base.get("type") if isinstance(base, dict) \
        else type(base).__name__
    if kind not in ("heyting", "tba"):
        raise ValueError(f"a twist base must be a heyting or tba object, "
                         f"not {kind!r}")
    return _READERS[kind](base), _elements(data, "nabla"), \
        _elements(data, "delta")


def _structure_from_data(data, base_dir="."):
    if not isinstance(data, dict):
        raise ValueError("a structure must be a JSON object")
    kind = data.get("type")
    if kind == "twist":
        algebra, nabla, delta = _twist_parts(data, base_dir)
        return tw(algebra.check(), nabla, delta)
    if isinstance(kind, str) and kind in _READERS:
        return _READERS[kind](data)
    raise ValueError(f"unknown structure type {kind!r}")


def load_structure(path):
    data = _load_json(path)
    return _structure_from_data(data, os.path.dirname(path) or "."), data


def cmd_validate(args):
    data = _load_json(args.path)
    if isinstance(data, dict) and data.get("type") == "twist":
        algebra, nabla, delta = _twist_parts(
            data, os.path.dirname(args.path) or ".")
        try:
            tw(algebra.check(), nabla, delta)
            report = None
        except ValueError as exc:
            report = str(exc)
    else:
        structure = _structure_from_data(data)
        report = validate_poset(structure) \
            if isinstance(structure, FinitePoset) else structure.validate()
    ok = report is None
    _emit(args, {"ok": ok, "report": report},
          ["ok" if ok else f"violation: {report}"])
    return 0 if ok else 1


def cmd_check(args):
    structure, data = load_structure(args.path)
    if isinstance(structure, FinitePoset):
        raise ValueError("check needs an algebra or twist, not a poset")
    if isinstance(structure, FiniteHeytingAlgebra):
        report = structure.validate()
        if report is not None:
            raise ValueError(f"invalid structure: {report}")
    texts = [args.formula] if args.formula is not None \
        else _formula_texts(data.get("formulas", []))
    if not texts:
        raise ValueError("no formula given and none in the file")
    results = [(text, semantics.is_valid(structure, fm.parse(text),
                                          jobs=args.jobs))
               for text in texts]
    payload = []
    lines = []
    refuted = False
    for text, outcome in results:
        row = {"formula": text, "valid": outcome.valid}
        if outcome.valid:
            lines.append(f"valid: {text}")
        else:
            refuted = True
            row["witness"] = outcome.witness_json()
            lines.append(f"refuted: {text} "
                         f"witness={json.dumps(outcome.witness_json(), sort_keys=True)}")
        payload.append(row)
    _emit(args, payload, lines)
    return 1 if refuted else 0


def cmd_translate(args):
    core = fm.desugar(fm.parse(args.formula))
    if args.tb:
        out = fm.belnap_translate(core)
    else:
        out = fm.godel_tarski(core)
    rendered = fm.pretty(out)
    _emit(args, {"input": args.formula, "output": rendered}, [rendered])
    return 0


def cmd_companion(args):
    algebra = _structure_from_data(_load_json(args.path))
    if type(algebra) is not FiniteHeytingAlgebra:
        raise ValueError("expected a heyting object")
    algebra.check()
    nabla = frozenset(int(x) for x in args.nabla.split(","))
    delta = frozenset(int(x) for x in args.delta.split(","))
    instance = companion_structure(algebra, nabla, delta)
    if args.corpus:
        raw = _load_json(args.corpus)
        if isinstance(raw, dict):
            if "formulas" not in raw:
                raise ValueError(
                    f'{args.corpus}: corpus object has no "formulas" key')
            raw = raw["formulas"]
        corpus = [fm.parse(text) for text in _formula_texts(raw)]
    else:
        corpus = semantics.default_corpus()
    report = semantics.twtop_check(instance.twist, corpus)
    mismatches = len(report.mismatches)
    payload = {"instance": instance.to_json(), "twtop": report.to_json()}
    lines = [
        f"pipeline instance: {instance.to_json()}",
        f"hypotheses hold: {report.hypotheses_hold}",
        f"corpus size: {len(report.rows)}; mismatches: {mismatches}",
    ]
    _emit(args, payload, lines)
    return 0 if mismatches == 0 else 1


def cmd_grz_search(args):
    hit = grz_refutation_search(fm.parse(args.formula), args.max_worlds)
    if hit is None:
        _emit(args, {"refuted": False, "max_worlds": args.max_worlds},
              [f"no refutation on posets with <= {args.max_worlds} worlds "
               f"(bounded evidence, not a proof)"])
        return 0
    _emit(args, {"refuted": True, **hit.to_json()},
          [f"refuted: {json.dumps(hit.to_json(), sort_keys=True)}"])
    return 1


def cmd_kleene_demo(args):
    report = kleene_demo()
    _emit(args, report.to_json(), report.transcript)
    return 0


def cmd_enumerate(args):
    if args.type == "poset":
        items = [poset_to_json(p)
                 for p in enumerate_posets(args.max_size, dedup=args.dedup)]
    elif args.type == "heyting":
        items = [heyting_to_json(heyting_from_poset(p))
                 for p in enumerate_posets(args.max_size, dedup=args.dedup)]
    else:
        raise ValueError(f"unknown type {args.type!r}")
    lines = [json.dumps(item, sort_keys=True) for item in items]
    _emit(args, items, lines + [f"count: {len(items)}"])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Finite twist-structure and modal-translation workbench")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="check a formula in a structure")
    p.add_argument("path")
    p.add_argument("formula", nargs="?",
                   help="formula text; defaults to the file's formulas")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="apply a modal translation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gt", action="store_true",
                       help="boxed embedding of an intuitionistic formula")
    group.add_argument("--tb", action="store_true",
                       help="strong-negation-aware boxed embedding")
    p.add_argument("formula")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("companion",
                       help="run the companion pipeline on an algebra file")
    p.add_argument("path")
    p.add_argument("--nabla", required=True,
                   help="comma-separated element indices")
    p.add_argument("--delta", required=True,
                   help="comma-separated element indices")
    p.add_argument("--corpus", help="JSON file with formula strings")
    p.set_defaults(func=cmd_companion)

    p = sub.add_parser("grz-search",
                       help="search finite posets for a refuting model")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=_positive_int, default=5)
    p.set_defaults(func=cmd_grz_search)

    p = sub.add_parser("kleene-demo",
                       help="run the no-companion demonstration")
    p.set_defaults(func=cmd_kleene_demo)

    p = sub.add_parser("enumerate", help="enumerate small structures")
    p.add_argument("--type", required=True, choices=("poset", "heyting"))
    p.add_argument("--max-size", type=_positive_int, required=True)
    p.add_argument("--dedup", action="store_true",
                   help="one representative per isomorphism class")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError,
            semantics.CapExceededError) as exc:
        # ValueError covers json.JSONDecodeError, fm.ParseError and
        # semantics.LanguageError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        # only evaluation still recurses on a formula (_Vec.eval, kripke)
        print("error: formula nested too deeply", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
