"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON line.  ``ready`` is the monotonic
clock when the inputs are built, so run.py can time set-up from the
moment it started this process.  With ``--setup-only`` the worker stops
there.  With ``--trace 1`` the pass runs under the outside-in tracer.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    from tracer import Tracer

    setup, run, _ = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.pass_index)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    latencies_ms = []
    tracer = Tracer() if args.trace else nullcontext()
    items, observations = 0, None
    with tracer:
        start = time.perf_counter()
        try:
            items, observations = run(inputs, latencies_ms)
        except Exception:  # run.py counts the whole pass as failed
            traceback.print_exc()
        wall = time.perf_counter() - start
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "items": items,
        "latencies_ms": latencies_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "observations": observations,
        "trace": tracer.metrics() if args.trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
