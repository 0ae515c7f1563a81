"""Measurements behind BENCH_query_memo.json: the parse traffic of each
benchmark workload and the cost of a parse-memo miss.

    python3 scripts/query_memo_bench.py traffic
    python3 scripts/query_memo_bench.py miss --parent DIR

DIR is a checkout of the parent commit (``git archive`` into a directory
will do); ``--change DIR`` names the tree measured against it, by default
this one.  ``traffic`` counts, with a counting wrapper around
``formula.parse``, the calls and distinct texts of one timed pass of each
workload.  ``miss`` parses every distinct text of ``default_corpus(2000)``
once a pass, each a miss (the memo is emptied before each pass), in
alternating processes of the parent and of this tree, and reports the
minimum over the passes per text.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TRAFFIC = """
import collections, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from twistlab import formula
import workloads
out = {}
for name, (setup, run, _) in workloads.WORKLOADS.items():
    inputs = setup(0, 0)
    texts = collections.Counter()
    plain = formula.parse
    def counted(text):
        texts[text] += 1
        return plain(text)
    formula.parse = counted
    try:
        run(inputs, [])
    finally:
        formula.parse = plain
    calls = sum(texts.values())
    out[name] = {"parse_calls": calls, "distinct_texts": len(texts),
                 "repeated_calls": calls - len(texts)}
print(json.dumps(out))
"""

_MISS = """
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from twistlab import formula, semantics
texts = list(dict.fromkeys(map(formula.pretty, semantics.default_corpus(2000))))
best = float("inf")
for _ in range(int(sys.argv[2])):
    if hasattr(formula, "_parsed"):
        formula._parsed.clear()
    start = time.perf_counter()
    for text in texts:
        formula.parse(text)
    best = min(best, time.perf_counter() - start)
print(json.dumps({"texts": len(texts), "us_per_text": best / len(texts) * 1e6}))
"""


def _python(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def cmd_traffic(args):
    return _python(_TRAFFIC, ROOT)


def cmd_miss(args):
    trees = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    runs = {name: [] for name in trees}
    for i in range(args.rounds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(_python(_MISS, trees[name], args.passes))
    return {"texts": runs["change"][0]["texts"],
            "passes_per_process": args.passes,
            **{name: [round(r["us_per_text"], 3) for r in rs]
               for name, rs in runs.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("traffic").set_defaults(func=cmd_traffic)
    p = sub.add_parser("miss")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", default=ROOT)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--passes", type=int, default=25)
    p.set_defaults(func=cmd_miss)
    args = parser.parse_args(argv)
    print(json.dumps(args.func(args), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
