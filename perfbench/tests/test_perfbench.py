"""Tests of the benchmark itself: run with

    python -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys

import pytest

import reference
import run
import tracer
import workloads
from twistlab import companions, formula, order, twist

ROOT = run.ROOT


def test_same_seed_gives_same_inputs():
    def texts(seed, pass_index):
        return [(i, text) for i, _, text in
                workloads.setup_check(seed, pass_index)["queries"]]

    first = texts(7, 0)
    assert first == texts(7, 0)
    assert first != texts(8, 0)
    assert first != texts(7, 1)
    assert sorted(i for i, _ in first) == list(
        range(len(reference.EXPECTED["check"])))
    for name in ("sweep", "build"):
        setup = workloads.WORKLOADS[name][0]
        one, two = setup(7, 0), setup(7, 0)
        assert one.keys() == two.keys()
        for key in one.keys() - {"rng"}:
            assert [repr(x) for x in one[key]] == [repr(x) for x in two[key]]
    order = [workloads.setup_build(seed, 0)["rng"].random()
             for seed in (7, 7, 8)]
    assert order[0] == order[1] != order[2]


def test_check_pool_respects_row_cap():
    pool = workloads.check_pool()
    assert {category for category, _, _ in pool} == {"N4BOT", "BS4",
                                                     "random"}
    for _, structure, phi in pool:
        rows = structure.size ** len(reference.variables(phi))
        assert rows <= workloads.CHECK_ROW_CAP


def test_committed_check_answers_match_the_plain_loop():
    """The pool is the one the answers were written for, and the plain
    loop still gives them on a sample of the small entries."""
    pool = workloads.check_pool()
    want = reference.EXPECTED["check"]
    assert [workloads.describe(entry) for entry in pool] == \
        [ref[:3] for ref in want]
    small = [k for k, (_, s, phi) in enumerate(pool)
             if s.size ** len(reference.variables(phi)) <= 4096]
    for k in small[::25]:
        _, structure, phi = pool[k]
        _, witness = reference.twist_validity(
            reference.TwistTables(structure), phi)
        assert workloads.encode_witness(witness) == want[k][3]


def _twistlab_globals():
    return {(module.__name__, attr): value
            for module in tracer._twistlab_modules()
            for attr, value in vars(module).items()}


def test_tracer_rebinds_from_imports_and_restores_them():
    before = _twistlab_globals()
    original_tw = twist.tw
    with tracer.Tracer() as active:
        assert companions.tw is twist.tw is not original_tw
        assert twist.tw.__wrapped__ is original_tw
        phi = formula.parse("(p & q) -> (r | ~p)")
        assert formula.free_vars(phi) == {"p", "q", "r"}
    assert _twistlab_globals() == before
    assert twist.tw is original_tw and companions.tw is original_tw
    stats = active.stats
    assert stats["formula.parse"].calls == 1
    # the recursive calls inside free_vars are not counted
    assert stats["formula.free_vars"].calls == 1
    assert stats["twist.tw"].calls == 0


def test_tracer_reports_every_per_layer_metric():
    with tracer.Tracer() as active:
        pass
    names = set(active.metrics())
    assert set(run.PER_LAYER) - {"trace.overhead_s"} <= names


def test_self_time_excludes_wrapped_children():
    with tracer.Tracer() as active:
        _, triple = next(workloads.instance_triples(
            order.enumerate_posets(3, dedup=True)))
        companions.companion_structure(*triple)
    stats = active.stats
    total = sum(s.self_s for s in stats.values())
    outer = stats["companions.companion_structure"]
    assert outer.calls == 1
    assert stats["twist.tw"].calls >= 2
    assert 0 <= outer.self_s <= total


def test_check_reference_catches_one_flipped_verdict():
    inputs = workloads.setup_check(3, 0)
    inputs["queries"] = inputs["queries"][:300]
    items, obs = workloads.run_check(inputs, [])
    assert items == 300
    assert workloads.verify_check(3, [obs]) == (300, 0)
    refuted = next(k for k, (_, got) in enumerate(obs) if got is not None)
    valid = next(k for k, (_, got) in enumerate(obs) if got is None)
    for k, flipped in ((refuted, None), (valid, obs[refuted][1])):
        bad = [list(entry) for entry in obs]
        bad[k][1] = flipped
        assert workloads.verify_check(3, [bad]) == (300, 1)


def test_check_reference_catches_a_later_witness():
    inputs = workloads.setup_check(3, 0)
    inputs["queries"] = inputs["queries"][:300]
    _, obs = workloads.run_check(inputs, [])
    k = next(k for k, (_, got) in enumerate(obs) if got is not None)
    index = obs[k][0]
    pairs = reference.TwistTables(workloads.check_pool()[index][1]).pairs
    bad = [list(entry) for entry in obs]
    bad[k][1] = [[name, *pairs[-1]] for name, _, _ in obs[k][1]]
    assert bad[k][1] != obs[k][1]
    assert workloads.verify_check(3, [bad]) == (300, 1)


def test_committed_references_catch_one_flipped_verdict():
    sweep = reference.EXPECTED["sweep"]
    good = {"ok": True, "instances": sweep["instances"],
            "counts": dict(sweep["counts"])}
    total = sweep["counts"]["t332_formulas"]
    assert workloads.verify_sweep(0, [good]) == (total, 0)
    bad = dict(good, counts=dict(good["counts"], kleene_models=65))
    assert workloads.verify_sweep(0, [bad]) == (total, total)


def test_build_reference_catches_one_wrong_structure():
    frames = workloads.setup_build(0, 0)["frames"]
    classes = reference.EXPECTED["build"]["classes"]
    good = {"classes": [[n, 0, closed, lifted]
                        for n, closed, lifted in classes],
            "opens": [reference.up_set_count(f.up) for f in frames]}
    total = sum(c[0] for c in classes) + len(frames)
    assert workloads.verify_build(0, [good]) == (total, 0)
    bad = dict(good, opens=list(good["opens"]))
    bad["opens"][10] += 1
    assert workloads.verify_build(0, [bad]) == (total, 1)
    bad = dict(good, classes=[list(c) for c in good["classes"]])
    bad["classes"][3][2] += 1
    assert workloads.verify_build(0, [bad]) == (total, classes[3][0])


def test_percentile_interpolates():
    assert run.percentile([5.0], 99) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile(list(range(101)), 99) == pytest.approx(99.0)


def test_end_to_end_weighs_passes_by_their_time():
    passes = [{"traced": False, "wall_s": 1.0, "items": 10,
               "latencies_ms": [1.0, 2.0], "peak_rss_mb": 5.0},
              {"traced": False, "wall_s": 3.0, "items": 10,
               "latencies_ms": [3.0, 4.0], "peak_rss_mb": 7.0},
              {"traced": True, "wall_s": 9.0, "items": 10,
               "latencies_ms": [9.0, 9.0], "peak_rss_mb": 9.0}]
    got = run.end_to_end(passes, [0.3, 0.1, 0.2])
    assert got["setup_s"] == (0.2, 3)
    assert got["wall_s"] == (2.0, 2)
    assert got["items_per_s"] == (5.0, 2)
    assert got["query_ms_p50"] == (2.5, 4)
    assert got["peak_rss_mb"] == (6.0, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
