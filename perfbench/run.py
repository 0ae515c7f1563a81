"""twistlab benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Runs passes of one workload, each in a fresh single-process interpreter
(``worker.py``, jobs=1, no threads), until the next pass would end after
``--seconds``; at least one pass runs.  A fresh process per pass makes
every pass pay the per-process formula caches, as every pytest or CLI run
does.  Extra set-up-only workers top the set-up samples up to
SETUP_SAMPLES.  All observations are checked against ``reference.py``.

``--trace 0`` reports the end-to-end metrics over the untraced passes:
``setup_s`` is the median of the set-ups and ``peak_rss_mb`` the median
over the passes, ``wall_s`` is the passes' total time over their number,
``items_per_s`` all their items over that total, and the latency
percentiles are taken over all their latencies together.  The shared
host's speed swings by a third or more for tens of seconds at a time, so
a slow spell should weigh by its length in the run; a median of the two
to five passes a run holds would jump between fast and slow spells.
``--trace 1`` alternates untraced and traced passes on the same inputs
and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the median traced minus the median untraced pass
time.  A header names the hardware and versions; every metric is printed
with its unit and sample count, and the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
DEADLINE_S = 150  # all workers of a run; verification follows

# Workload and metric names and units are those of BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def spawn(args, pass_index, deadline, traced=False, setup_only=False):
    """Run one worker; returns its JSON record with ``setup_s`` added."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S} s run deadline")
    ended = time.monotonic()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - started
    record["duration_s"] = ended - started
    record["traced"] = traced
    return record


def run_passes(args):
    """Passes until the next would overrun ``--seconds``, then set-up-only
    workers up to SETUP_SAMPLES set-up samples."""
    begun = time.monotonic()
    deadline = begun + DEADLINE_S
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_index = len(passes) // 2 if args.trace else len(passes)
        passes.append(spawn(args, pass_index, deadline, traced))
        enough = not args.trace or len(passes) >= 2
        elapsed = time.monotonic() - begun
        if enough and elapsed + passes[-1]["duration_s"] > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        record = spawn(args, len(passes) + len(setups), deadline,
                       setup_only=True)
        setups.append(record["setup_s"])
    return passes, setups


def end_to_end(passes, setups):
    """name -> (value, sample count)."""
    plain = [p for p in passes if not p["traced"]]
    latencies = [ms for p in plain for ms in p["latencies_ms"]]
    items = sum(p["items"] for p in plain)
    wall = sum(p["wall_s"] for p in plain)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall / len(plain), len(plain)),
        "items_per_s": (items / wall, len(plain)),
        "query_ms_p50": (percentile(latencies, 50), len(latencies)),
        "query_ms_p99": (percentile(latencies, 99), len(latencies)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain),
                        len(plain)),
    }
    return {name: values[name] for name in END_TO_END}


def per_layer(passes):
    """name -> (value, sample count): medians over the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(p["wall_s"] for p in traced)
                     - statistics.median(p["wall_s"] for p in plain))
        else:
            value = statistics.median(p["trace"][name] for p in traced)
        out[name] = (value, len(traced))
    return out


def header(args):
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return [
        f"# twistlab benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# host: nproc={os.cpu_count()} machine={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"commit={commit}",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"error: twistlab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        passes, setups = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verify = workloads.WORKLOADS[args.workload][2]
    attempted, failed = verify(args.seed,
                               [p["observations"] for p in passes])

    plain = sum(not p["traced"] for p in passes)
    lines = header(args)
    lines.append(f"# passes: {plain} untraced, {len(passes) - plain} traced,"
                 f" each in a fresh interpreter; {len(setups)} set-ups")
    if args.trace:
        metrics, units = per_layer(passes), PER_LAYER
    else:
        metrics, units = end_to_end(passes, setups), END_TO_END
    for name, (value, count) in metrics.items():
        lines.append(f"{name:<44} {value:>14.6g} {units[name]:<6} n={count}")
    lines.append(f"{'failed_share':<44} {failed / max(attempted, 1):>14.6g} "
                 f"{'share':<6} n={attempted}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
