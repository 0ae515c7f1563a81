"""The three benchmark workloads.

Each workload has three parts:

* ``setup(seed, pass_index)`` builds the inputs; a worker process times it
  from interpreter start as ``setup_s``.
* ``run(inputs, latencies_ms)`` is the timed pass.  It appends the latency
  of each request and returns ``(items, observations)``, where the
  observations are plain JSON data.  A request is one query on ``check``,
  the one closed-loop workload.  ``sweep`` and ``build`` are batch jobs,
  so there a request is the whole pass: the latency of a single builder
  call is a fraction of a millisecond, and its median moved by up to
  70% with the shared host's speed, more than any bound could allow.
* ``verify(seed, passes)`` runs in ``run.py`` after all passes
  and returns ``(attempted, failed)`` items by comparing observations with
  the references in ``reference.py``.

An item is one (structure, formula) translation check on ``sweep``, one
query on ``check`` and one built and checked structure on ``build``.
"""

from __future__ import annotations

import random
import time

from twistlab import companions, formula, heyting, order, semantics, tba

import reference

# ---------------------------------------------------------------------------
# sweep: the acceptance suite's hot path, all four layers

SWEEP_MAX_SIZE = 3
SWEEP_CORPUS = 1000
SWEEP_SHARP_MIN = 50


def setup_sweep(seed, pass_index):
    return {
        "posets": list(order.enumerate_posets(SWEEP_MAX_SIZE, dedup=True)),
        "corpus": semantics.default_corpus(SWEEP_CORPUS),
    }


def run_sweep(inputs, latencies_ms):
    start = time.perf_counter()
    report = companions.pipeline_sweep(
        max_size=SWEEP_MAX_SIZE, corpus=inputs["corpus"],
        sharp_min=SWEEP_SHARP_MIN, posets=inputs["posets"])
    latencies_ms.append((time.perf_counter() - start) * 1e3)
    items = report.counts.get("t332_formulas", 0)
    return items, {"ok": report.ok, "instances": report.instances,
                   "counts": report.counts}


def verify_sweep(seed, passes):
    want = reference.EXPECTED["sweep"]
    attempted = failed = 0
    for obs in passes:
        attempted += want["counts"]["t332_formulas"]
        if obs is None or not (obs["ok"]
                               and obs["instances"] == want["instances"]
                               and obs["counts"] == want["counts"]):
            failed += want["counts"]["t332_formulas"]
    return attempted, failed


# ---------------------------------------------------------------------------
# build: structure builders and pipeline verification, no evaluation

BUILD_MAX_SIZE = 4
BUILD_FRAME_SIZE = 5


def instance_triples(posets):
    """(class index, (algebra, dense filter, ideal)) for every pipeline
    instance over the given poset classes, in enumeration order."""
    for i, poset in enumerate(posets):
        algebra = order.heyting_from_poset(poset)
        for nabla in heyting.filters(algebra, require_dense=True):
            for delta in heyting.ideals(algebra):
                yield i, (algebra, nabla, delta)


def setup_build(seed, pass_index):
    return {
        "classes": list(order.enumerate_posets(BUILD_MAX_SIZE, dedup=True)),
        "frames": [p for p in order.enumerate_posets(BUILD_FRAME_SIZE)
                   if p.n == BUILD_FRAME_SIZE],
        "rng": random.Random(f"build:{seed}:{pass_index}"),
    }


def run_build(inputs, latencies_ms):
    """Every builder call of the pass, in a seeded random order."""
    start = time.perf_counter()
    classes, frames = inputs["classes"], inputs["frames"]
    calls = [("frame", i, frame) for i, frame in enumerate(frames)]
    calls += [("class", i, triple) for i, triple in instance_triples(classes)]
    inputs["rng"].shuffle(calls)
    # per class: built, raised, closed-ideal twist pairs, lifted twist pairs
    per_class = [[0, 0, 0, 0] for _ in classes]
    opens = [None] * len(frames)
    for kind, i, arg in calls:
        try:
            if kind == "frame":
                box = tba.powerset_tba(arg).box.tolist()
            else:
                inst = companions.companion_structure(*arg)
        except Exception:  # counted as a failed item by verify_build
            if kind == "class":
                per_class[i][1] += 1
            continue
        if kind == "frame":
            opens[i] = sum(1 for x, y in enumerate(box) if x == y)
        else:
            per_class[i][0] += 1
            per_class[i][2] += inst.heyting_twist.size
            per_class[i][3] += inst.twist.size
    latencies_ms.append((time.perf_counter() - start) * 1e3)
    return len(calls), {"classes": per_class, "opens": opens}


def verify_build(seed, passes):
    want = reference.EXPECTED["build"]
    frames = setup_build(seed, 0)["frames"]
    want_opens = [reference.up_set_count(f.up) for f in frames]
    per_pass = sum(c[0] for c in want["classes"]) + len(frames)
    attempted = failed = 0
    for obs in passes:
        attempted += per_pass
        if obs is None or len(obs["classes"]) != len(want["classes"]) \
                or len(obs["opens"]) != len(frames):
            failed += per_pass
            continue
        for got, (instances, closed_pairs, lifted_pairs) in zip(
                obs["classes"], want["classes"]):
            if got != [instances, 0, closed_pairs, lifted_pairs]:
                failed += instances
        failed += sum(got != ref for got, ref in zip(obs["opens"],
                                                     want_opens))
    return attempted, failed


# ---------------------------------------------------------------------------
# check: one client, one formula per call, closed loop

CHECK_INSTANCES = 16       # pipeline instances in the structure pool
CHECK_RANDOM_FORMULAS = 40  # height-3 Ls formulas in the formula pool
# Largest valuation space (carrier size ** variables) in the pool: the
# library's default valuation cap, so that no query is refused.
CHECK_ROW_CAP = 10_000_000


def _random_formula(rng, height):
    """A random Ls formula of exactly the given height over p, q, r."""
    if height == 0:
        return rng.choice((formula.Var("p"), formula.Var("q"),
                           formula.Var("r"), formula.Bot))
    op = rng.choice(("sneg", "and", "or", "imp", "and", "or", "imp"))
    tall = _random_formula(rng, height - 1)
    if op == "sneg":
        return formula.SNeg(tall)
    other = _random_formula(rng, rng.randrange(height))
    if rng.random() < 0.5:
        tall, other = other, tall
    make = {"and": formula.And, "or": formula.Or, "imp": formula.Imp}[op]
    return make(tall, other)


def check_pool():
    """The fixed query population: a list of (category, structure,
    formula) triples over pipeline instances from posets with <= 4 points.

    N4BOT axioms are asked of the closed-ideal twist over the algebra,
    BS4 axioms of the twist over its realisation, and random formulas of
    both.  Pairs whose valuation space exceeds CHECK_ROW_CAP are left out.

    The pool does not depend on the seed, so its answers are committed in
    ``reference.json``; the seed only orders the queries of a pass.
    """
    triples = [t for _, t in instance_triples(
        order.enumerate_posets(BUILD_MAX_SIZE, dedup=True))]
    stride = len(triples) / CHECK_INSTANCES
    instances = [companions.companion_structure(*triples[int(i * stride)])
                 for i in range(CHECK_INSTANCES)]
    rng = random.Random("check-pool")
    randoms = []
    while len(randoms) < CHECK_RANDOM_FORMULAS:
        phi = _random_formula(rng, 3)
        if phi not in randoms:
            randoms.append(phi)
    pool = []
    for inst in instances:
        closed, lifted = inst.heyting_twist, inst.twist
        pool += [("N4BOT", closed, phi) for phi in formula.axioms("N4BOT")]
        pool += [("BS4", lifted, phi) for phi in formula.axioms("BS4")]
        pool += [("random", s, phi) for phi in randoms
                 for s in (closed, lifted)]
    return [entry for entry in pool
            if entry[1].size ** len(reference.variables(entry[2]))
            <= CHECK_ROW_CAP]


def check_queries(pool, seed, pass_index):
    """Pool indices of one pass's queries: every entry once, in a seeded
    order, so every pass asks the same work and the seed moves only the
    order."""
    indices = list(range(len(pool)))
    random.Random(f"check:{seed}:{pass_index}").shuffle(indices)
    return indices


def setup_check(seed, pass_index):
    pool = check_pool()
    return {"queries": [(i, pool[i][1], formula.pretty(pool[i][2]))
                        for i in check_queries(pool, seed, pass_index)]}


def run_check(inputs, latencies_ms):
    clock = time.perf_counter
    out = []
    for index, structure, text in inputs["queries"]:
        start = clock()
        try:
            result = semantics.is_valid(structure, formula.parse(text))
        except Exception:  # a raising query fails
            latencies_ms.append((clock() - start) * 1e3)
            out.append([index, "raised"])
            continue
        latencies_ms.append((clock() - start) * 1e3)
        out.append([index, encode_witness(result.witness)])
    return len(out), out


def encode_witness(witness):
    if witness is None:
        return None
    return [[name, int(a), int(b)] for name, (a, b) in sorted(witness.items())]


def describe(entry):
    """What a committed check answer is keyed by: category, carrier size
    and formula text of a pool entry."""
    category, structure, phi = entry
    return [category, int(structure.size), formula.pretty(phi)]


def verify_check(seed, passes):
    """Each answer against the least witness (None when valid) that the
    plain-loop evaluator in ``reference.py`` gave for that pool entry."""
    want = reference.EXPECTED["check"]
    pool = check_pool()
    same_pool = len(pool) == len(want) and all(
        describe(entry) == ref[:3] for entry, ref in zip(pool, want))
    attempted = failed = 0
    for obs in passes:
        if obs is None:
            attempted += len(want)
            failed += len(want)
            continue
        for index, got in obs:
            attempted += 1
            failed += not same_pool or got != want[index][3]
    return attempted, failed


WORKLOADS = {
    "sweep": (setup_sweep, run_sweep, verify_sweep),
    "check": (setup_check, run_check, verify_check),
    "build": (setup_build, run_build, verify_build),
}
