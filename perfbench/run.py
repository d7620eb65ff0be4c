#!/usr/bin/env python3
"""Replica-placement benchmark: build the harness from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cells --seed 1 --seconds 12 --trace 0

Workloads (each a fixed op list over pinned instances; see harness.ml):

    cells       class lower-bound cells (Bounds.Pipeline.compute)
    deploy      minimal goal-meeting heuristic deployments (Sim.Runner)
    online      epoch-by-epoch replays of the online service (Online.Engine)
    lagrangian  bundled Lagrangian bounds on the CDN scale family

The seed permutes the op order of every pass; it never changes which ops
run, so medians from different seeds measure the same work.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. With --trace 0 the metrics are end to end:

    op_ms     median, over the op list, of each op's best latency
    pass_ms   sum, over the op list, of each op's best latency: the time
              to run the whole list once (one figure sweep, one replay)
    setup_s   median of the fixture builds, one before each pass

An op's best latency is its minimum over the run's passes. The ops are
deterministic single-process computations, so the spread between passes
is interference from the machine, which only adds time; the minimum is
the estimate of the program's own cost that stays steady from run to run.

With --trace 1 the metrics are per-layer self times per op, from a
separate run under wall-clock tracing; they sum to traced_op_ms (the mean
traced op latency), so the tracing overhead is traced_op_ms against an
untraced run. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("cells", "deploy", "online", "lagrangian")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")

# Set-up, the warm-up pass and its oracles, and the overrun of the last
# pass all come on top of the measured seconds.
RUN_GRACE_S = 120
BUILD_TIMEOUT_S = 850

END_TO_END = (("op_ms", "ms"), ("pass_ms", "ms"), ("setup_s", "s"))
PER_LAYER = (
    ("traced_op_ms", "ms"),
    ("permission_ms", "ms"),
    ("model_build_ms", "ms"),
    ("bundling_ms", "ms"),
    ("workload_fold_ms", "ms"),
    ("strategy_search_ms", "ms"),
    ("solve_setup_ms", "ms"),
    ("pdhg_ms", "ms"),
    ("simplex_ms", "ms"),
    ("heuristic_ms", "ms"),
    ("epoch_other_ms", "ms"),
    ("pool_dispatch_ms", "ms"),
    ("other_spans_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("pdhg_iterations", "count"),
    ("simplex_pivots", "count"),
    ("heuristic_runs", "count"),
    ("bound_solves", "count"),
)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root (dune-project and lib/ not found)")
    if shutil.which("dune") is None:
        die("dune is not on PATH")

    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/harness.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
            check=True,
        )
    except subprocess.CalledProcessError as e:
        die("build failed with exit code %d" % e.returncode)
    except subprocess.TimeoutExpired:
        die("build timed out")

    cmd = [
        HARNESS,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            timeout=args.seconds + RUN_GRACE_S,
            text=True,
        )
    except subprocess.TimeoutExpired:
        die("harness timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("harness exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])
    for err in raw["errors"]:
        print("perfbench: check failed: " + err, file=sys.stderr)

    ms = [s[1] for s in raw["samples"]]
    if not ms:
        die("no timed ops")
    if args.trace == 0:
        best = {}
        for label, t in raw["samples"]:
            best[label] = min(t, best.get(label, t))
        values = {
            "op_ms": statistics.median(best.values()),
            "pass_ms": sum(best.values()),
            "setup_s": statistics.median(raw["setup_s"]),
        }
        names = END_TO_END
    else:
        values = dict(raw["layers"], traced_op_ms=statistics.mean(ms))
        names = PER_LAYER
    print(
        "perfbench: %s seed %d: %d timed ops in %d passes"
        % (args.workload, args.seed, len(ms), raw["passes"]),
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
            }
        )
    )


if __name__ == "__main__":
    main()
