import json

import pytest

from twistlab import cli, heyting, order, tba


@pytest.fixture()
def three_file(tmp_path, three):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(heyting.heyting_to_json(three)))
    return str(path)


@pytest.fixture()
def kleene_file(tmp_path, three):
    path = tmp_path / "kleene.json"
    data = {"type": "twist", "base": heyting.heyting_to_json(three),
            "nabla": [1, 2], "delta": [0, 1],
            "formulas": ["(p & ~p) -> (q | ~q)"]}
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, three_file):
    code, out = run(capsys, "validate", three_file)
    assert code == 0 and "ok" in out


def test_validate_violation(capsys, tmp_path, three):
    data = heyting.heyting_to_json(three)
    data["imp"][1][0] = 1  # mid -> bot must be bot
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "validate", str(path))
    assert code == 1 and "residuation" in out


def test_validate_missing_file(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/x.json")
    assert code == 2


def test_validate_poset_and_twist(capsys, tmp_path, kleene_file):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(
        {"type": "poset", "size": 2, "le": [[0, 0], [1, 1], [0, 1]]}))
    assert run(capsys, "validate", str(poset))[0] == 0
    assert run(capsys, "validate", kleene_file)[0] == 0


def test_validate_twist_precondition(capsys, tmp_path, three):
    path = tmp_path / "badtwist.json"
    path.write_text(json.dumps(
        {"type": "twist", "base": heyting.heyting_to_json(three),
         "nabla": [2], "delta": [0]}))
    code, out = run(capsys, "validate", str(path))
    assert code == 1 and "dense" in out


def test_check_valid_formula(capsys, kleene_file):
    code, out = run(capsys, "check", kleene_file, "(p & ~p) -> (q | ~q)")
    assert code == 0 and "valid" in out


def test_check_refuted_formula(capsys, kleene_file):
    code, out = run(capsys, "--format", "json", "check", kleene_file,
                    "!!(p & ~p) -> (q | ~q)")
    assert code == 1
    payload = json.loads(out)
    (row,) = payload["result"]
    assert row["witness"]["valuation"] == {"p": [1, 1], "q": [0, 1]}
    assert row["witness"]["value"] == [1, 0]
    assert payload["tool"] == "twistlab"


def test_check_formulas_from_file(capsys, kleene_file):
    code, out = run(capsys, "check", kleene_file)
    assert code == 0 and "valid" in out


def test_check_language_mismatch(capsys, three_file):
    code, _ = run(capsys, "check", three_file, "[]p -> p")
    assert code == 2


def test_check_parse_error(capsys, kleene_file):
    code, _ = run(capsys, "check", kleene_file, "p &")
    assert code == 2


def test_translate_tb_golden(capsys):
    code, out = run(capsys, "translate", "--tb", "(p & ~p) -> (q | ~q)")
    assert code == 0
    assert out.splitlines()[-1] == \
        "[]((([]p) & ([]~p)) -> (([]q) | ([]~q)))"


def test_translate_gt(capsys):
    code, out = run(capsys, "translate", "--gt", "p -> q")
    assert code == 0
    assert out.splitlines()[-1] == "[](([]p) -> ([]q))"


def test_translate_rejects_modal(capsys):
    code, _ = run(capsys, "translate", "--tb", "[]p")
    assert code == 2


def test_companion_pipeline(capsys, tmp_path, three_file):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(
        ["(p & ~p) -> (q | ~q)", "p -> p", "~~p <-> p"]))
    code, out = run(capsys, "--format", "json", "companion", three_file,
                    "--nabla", "1,2", "--delta", "0,1",
                    "--corpus", str(corpus))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["twtop"]["mismatches"] == 0
    assert payload["result"]["instance"]["tba_size"] == 4


@pytest.mark.parametrize("corpus", [
    [5], 5, {"formulas": [["p"]]}, {"formulas": "p -> p"}],
    ids=["int-entry", "int", "nested-list", "string"])
def test_companion_corpus_not_strings(capsys, tmp_path, three_file, corpus):
    """A corpus file that is not a list of formula strings, bare or under
    "formulas", ends with exit 2 and an error line, not a traceback."""
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code = cli.main(["companion", three_file, "--nabla", "1,2",
                     "--delta", "0,1", "--corpus", str(path)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: formulas must be a list of strings\n"


def test_companion_corpus_without_formulas(capsys, tmp_path, three_file):
    """A corpus object without a "formulas" key names the missing key."""
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"formula": ["p -> p"]}))
    code = cli.main(["companion", three_file, "--nabla", "1,2",
                     "--delta", "0,1", "--corpus", str(path)])
    assert code == 2
    assert capsys.readouterr().err == \
        f'error: {path}: corpus object has no "formulas" key\n'


@pytest.mark.parametrize("argv", [
    pytest.param(["enumerate", "--type", "poset", "--max-size", "-1"],
                 id="enumerate-max-size-negative"),
    pytest.param(["enumerate", "--type", "heyting", "--max-size", "0"],
                 id="enumerate-max-size-zero"),
    pytest.param(["grz-search", "p", "--max-worlds", "-1"],
                 id="grz-search-max-worlds-negative"),
    pytest.param(["grz-search", "p", "--max-worlds", "0"],
                 id="grz-search-max-worlds-zero"),
    pytest.param(["grz-search", "p", "--max-worlds", "2.5"],
                 id="grz-search-max-worlds-float"),
    pytest.param(["check", "KLEENE", "p -> p", "--jobs", "0"],
                 id="check-jobs-zero"),
    pytest.param(["check", "KLEENE", "p -> p", "--jobs", "-3"],
                 id="check-jobs-negative"),
])
def test_malformed_count_is_usage_error(capsys, kleene_file, argv):
    """A count option that is not a positive integer is a usage error
    (exit 2 and a message), never an empty or serial run."""
    argv = [kleene_file if arg == "KLEENE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-1]!r} is not a positive integer" in captured.err


def test_companion_bad_filter(capsys, three_file):
    code, _ = run(capsys, "companion", three_file,
                  "--nabla", "2", "--delta", "0")
    assert code == 2


def test_grz_search_bounded_evidence(capsys):
    code, out = run(capsys, "grz-search",
                    "[](p | q) & (([]p | []<>!p) & ([]q | []<>!q))"
                    " -> ([]p | []q)", "--max-worlds", "3")
    assert code == 0 and "bounded evidence" in out


def test_grz_search_refutation(capsys):
    code, out = run(capsys, "--format", "json", "grz-search",
                    "<>[]p -> []<>p", "--max-worlds", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["refuted"] is True
    assert payload["result"]["frame"]["size"] == 3


def test_kleene_demo(capsys):
    code, out = run(capsys, "--format", "json", "kleene-demo")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["kleene_axiom_valid"] is True
    assert payload["result"]["modified_axiom_refuted"] is True
    assert payload["result"]["scan"]["violations"] == []


@pytest.mark.parametrize("cap", ["1", "abc", "0"])
def test_kleene_demo_cap_errors(capsys, monkeypatch, cap):
    """A cap the demo's grids exceed, or one that is not a positive
    integer, ends with exit 2 and an error line, not a traceback."""
    monkeypatch.setenv("TWISTLAB_VALUATION_CAP", cap)
    code = cli.main(["kleene-demo"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "TWISTLAB_VALUATION_CAP" in captured.err


def test_kleene_demo_transcript(capsys):
    code, out = run(capsys, "kleene-demo")
    assert code == 0 and "[checked]" in out and "[glue]" in out


def test_enumerate_posets(capsys):
    code, out = run(capsys, "enumerate", "--type", "poset", "--max-size", "2")
    assert code == 0
    assert "count: 4" in out  # one singleton poset plus three on two points
    code2, out2 = run(capsys, "enumerate", "--type", "poset",
                      "--max-size", "2")
    assert out2 == out  # byte-deterministic


def test_enumerate_heyting_json(capsys):
    code, out = run(capsys, "--format", "json", "enumerate", "--type",
                    "heyting", "--max-size", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]) == 4
    assert all(item["type"] == "heyting" for item in payload["result"])


def test_twist_base_by_path(capsys, tmp_path, three):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(heyting.heyting_to_json(three)))
    twist_file = tmp_path / "twist.json"
    twist_file.write_text(json.dumps(
        {"type": "twist", "base": "base.json", "nabla": [1, 2],
         "delta": [0, 1]}))
    code, _ = run(capsys, "validate", str(twist_file))
    assert code == 0
    code, _ = run(capsys, "check", str(twist_file), "(p & ~p) -> (q | ~q)")
    assert code == 0


def _chain3_json(**changes):
    "The 3-chain algebra's file, with some fields replaced."
    poset = order.FinitePoset.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    data = heyting.heyting_to_json(order.heyting_from_poset(poset))
    data.update(changes)
    return data


def _chain3_meet(row, col, entry):
    meet = _chain3_json()["meet"]
    meet[row][col] = entry
    return meet


_BOOL2 = heyting.heyting_to_json(
    order.heyting_from_poset(order.FinitePoset.from_pairs(1, [(0, 0)])))
_TWIST_NABLA_7 = {"type": "twist", "base": _chain3_json(), "nabla": [7],
                  "delta": [0]}
_POSET = {"type": "poset", "size": 2, "le": [[0, 0], [1, 1]]}
_TWIST_CHAIN3 = {"type": "twist", "base": _chain3_json(), "nabla": [1, 2],
                 "delta": [0, 1]}


@pytest.mark.parametrize("command,data,extra,want", [
    pytest.param("validate", [1, 2], [], 2, id="validate-list"),
    pytest.param("check", [1, 2], ["p -> p"], 2, id="check-list"),
    pytest.param("companion", [1, 2], ["--nabla", "0", "--delta", "0"], 2,
                 id="companion-list"),
    pytest.param("check", _chain3_json(meet=_chain3_meet(0, 1, None)),
                 ["p -> p"], 2, id="check-null-entry"),
    pytest.param("check", _chain3_json(bot="x"), ["p -> p"], 2,
                 id="check-bot-string"),
    pytest.param("companion", _BOOL2, ["--nabla", "5", "--delta", "0"], 2,
                 id="companion-nabla-range"),
    pytest.param("check", _TWIST_NABLA_7, ["p -> p"], 2,
                 id="check-twist-nabla-range"),
    pytest.param("validate", _TWIST_NABLA_7, [], 1,
                 id="validate-twist-nabla-range"),
    pytest.param("validate", _chain3_json(meet=_chain3_meet(1, 1, 1.9)), [],
                 2, id="validate-float-entry"),
    pytest.param("validate", _chain3_json(bot=0.7), [], 2,
                 id="validate-float-bot"),
    pytest.param("validate", {**_BOOL2, "type": "tba", "box": [0, 0.5]}, [],
                 2, id="validate-float-box"),
    *[pytest.param(command, data, extra, 2, id=f"{command}-{name}")
      for command, extra in (("check", ["p -> p"]), ("validate", []))
      for name, data in (
          ("twist-nabla-int", {**_TWIST_NABLA_7, "nabla": 5}),
          ("twist-nabla-nested", {**_TWIST_NABLA_7, "nabla": [[1]]}),
          ("poset-size-string", {**_POSET, "size": "x"}),
          ("poset-le-not-pair", {**_POSET, "le": [[0, 0], 5]}))],
    pytest.param("check", _chain3_json(formulas=5), [], 2,
                 id="check-formulas-int"),
    pytest.param("check", _chain3_json(formulas=["p -> p"]), [""], 2,
                 id="check-empty-formula"),
    pytest.param("check", _TWIST_CHAIN3, ["~" * 3000 + "p"], 2,
                 id="check-nested-sneg"),
    pytest.param("check", _chain3_json(), ["(" * 2000 + "p" + ")" * 1999], 2,
                 id="check-nested-parentheses"),
    *[pytest.param(command, data, extra, 2, id=f"{command}-{name}-size-{tag}")
      for command, extra in (("check", ["p -> p"]), ("validate", []))
      for name, data in (("heyting", _chain3_json()),
                         ("tba", tba.tba_to_json(tba.powerset_tba(
                             order.FinitePoset.from_pairs(1, [(0, 0)])))))
      for tag, size in (("7", 7), ("string", "x"), ("null", None),
                        ("true", True), ("float", 3.0))
      for data in [{**data, "size": size}]],
])
def test_malformed_input_exit_codes(capsys, tmp_path, command, data, extra,
                                    want):
    """Malformed files end with exit 2 and an error line, never a
    traceback; a twist whose filter leaves the base is a violation."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = cli.main([command, str(path), *extra])
    captured = capsys.readouterr()
    assert code == want
    if want == 2:
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
    else:
        assert "violation: nabla is not a filter" in captured.out


@pytest.mark.parametrize("base,kind", [
    pytest.param(_TWIST_CHAIN3, "'twist'", id="twist"),
    pytest.param("input.json", "'twist'", id="self"),
    pytest.param(_POSET, "'poset'", id="poset"),
    pytest.param({**_chain3_json(), "type": [1]}, "[1]", id="type-list"),
    pytest.param([_chain3_json()], "'list'", id="list"),
    pytest.param(5, "'int'", id="number"),
])
@pytest.mark.parametrize("command,extra", [
    pytest.param("check", ["p -> p"], id="check"),
    pytest.param("validate", [], id="validate")])
def test_twist_base_type_is_named(capsys, tmp_path, base, kind, command,
                                  extra):
    """A twist base, given inline or as a file, even the twist's own file,
    is read by its type first: anything but a heyting or tba object is an
    input error that names the type it got, the JSON value's own type for
    a base that is no object."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**_TWIST_CHAIN3, "base": base}))
    assert cli.main([command, str(path), *extra]) == 2
    assert capsys.readouterr().err == (
        f"error: a twist base must be a heyting or tba object, not {kind}\n")


@pytest.mark.parametrize("text", [
    pytest.param("~" * 3000 + "p", id="strong-negation"),
    pytest.param("(p -> " * 3000 + "p" + ")" * 3000, id="parentheses"),
    pytest.param("p -> " * 3000 + "p", id="implication")])
def test_deep_formula_is_input_error(capsys, tmp_path, text):
    """A formula nested deeper than the interpreter's recursion limit parses
    and translates, but evaluating it gives out: an input error."""
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(_TWIST_CHAIN3))
    assert cli.main(["check", str(path), text]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


def test_deep_parentheses_check_as_bare_formula(capsys, tmp_path):
    """Parentheses leave no node, so 2,000 pairs of them around p check
    exactly as p does."""
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(_chain3_json()))
    text = "(" * 2000 + "p" + ")" * 2000
    code, out = run(capsys, "check", str(path), text)
    assert (code, out.replace(text, "p")) == run(capsys, "check", str(path),
                                                  "p")


def test_deep_strong_negation_translates(capsys):
    """An even chain of 3,000 strong negations cancels under T_B."""
    code, out = run(capsys, "translate", "--tb", "~" * 3000 + "p")
    assert code == 0 and out.splitlines()[-1] == "[]p"


def test_deep_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.endswith("JSON nested too deeply\n")
