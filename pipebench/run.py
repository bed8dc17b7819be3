"""Benchmark of polyperc's exact pipelines, in-process.

    python3 pipebench/run.py --workload {pointwise,enumerate,cells,algebra}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``
there.  Inputs are generated from the seed under ``.pipebench/``, set-up
is timed in fresh interpreters, then whole rounds of the workload's ops
run in this process, a single caller in a closed loop, until ``S``
seconds have passed.  Every output is checked.  The last line of stdout
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from harness import (Clock, RunFailure, Stats, Tracer, layer_metrics, quantile,
                     run_round)
from load import NullTracer, load
from workloads import build_ops, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
MIN_ROUNDS = 3
MIN_LATENCIES = 100  # p90 keeps at least ten samples beyond it


def _setup_once(clock, workload, workdir):
    """Normalised seconds of one cold set-up in a child, and its report."""
    for _ in range(4):
        clock.sample()
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"), ROOT, workload, workdir],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    end = time.perf_counter()
    for _ in range(4):
        clock.sample()
    if child.returncode != 0:
        raise RunFailure(f"set-up failed:\n{child.stderr.strip()}")
    out = json.loads(child.stdout.strip().splitlines()[-1])
    return out["seconds"] * clock.factor(start, end), out


def _environment():
    import numpy
    import polyperc

    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=ROOT, check=False) if shutil.which("git") else None
    return {
        "have_compiled": polyperc.HAVE_COMPILED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha.stdout.strip() if sha and sha.returncode == 0 else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
    }


def _rounds(ops, clock, tracer, stats, traced, until, min_rounds):
    while len(stats.rounds) < min_rounds or time.perf_counter() < until or (
            not traced and len(stats.ops) < MIN_LATENCIES):
        tracer.round = len(stats.rounds) + 1
        run_round(ops, clock, tracer, stats, traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pointwise", "enumerate", "cells", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polyperc", "__init__.py")):
        print(f"error: no polyperc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".pipebench", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    files, spec = generate(args.workload, args.seed, workdir)
    clock = Clock()
    setups = [_setup_once(clock, args.workload, workdir) for _ in range(1 if args.trace else SETUP_REPEATS)]
    modules_loaded = setups[0][1]["modules"]

    import polyperc
    from polyperc.cli import console_main

    if os.path.dirname(os.path.abspath(polyperc.__file__)) != os.path.join(SRC, "polyperc"):
        raise RunFailure(f"imported polyperc from {polyperc.__file__}, not from {SRC}")
    env = _environment()

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.round = "setup"
    objs = load(args.workload, polyperc, workdir, files, tracer)
    ops = build_ops(args.workload, polyperc, console_main, objs, files, spec, workdir)

    # Warm-up: one round checks every output and fills lazy caches.  The
    # objects alive after it (inputs and checked outputs) are frozen out of
    # the collector, so the timed rounds' collections see only what the
    # round itself allocates, as in a process that runs each op once.
    run_round(ops, clock, NullTracer(), Stats(), False)
    gc.freeze()
    stats = Stats()
    start = time.perf_counter()
    if not args.trace:
        _rounds(ops, clock, tracer, stats, False, start + args.seconds, MIN_ROUNDS)
        clock.sample()
        latencies, walls = stats.normalise(clock)
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (quantile(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail = {"rounds": len(walls), "ops_per_round": stats.attempted // len(walls),
                  "latency_samples": len(latencies)}
    else:
        traced_stats = Stats()
        _rounds(ops, clock, NullTracer(), stats, False, start + args.seconds / 2, 1)
        _rounds(ops, clock, tracer, traced_stats, True, start + args.seconds, 1)
        clock.sample()
        plain, traced = stats.normalise(clock)[1], traced_stats.normalise(clock)[1]
        overhead = statistics.median(traced) - statistics.median(plain)
        layers = layer_metrics(tracer.spans, clock, len(traced), modules_loaded, overhead)
        metrics = {name: (value, _unit(name)) for name, value in sorted(layers.items())}
        trace_dir = os.path.join(ROOT, ".pipebench", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        with open(trace_file, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
        detail = {"untraced_rounds": len(plain), "traced_rounds": len(traced), "spans": trace_file}

    print("# env " + json.dumps({**env, "workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": True,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_ms") or name == "cli.ms_per_call":
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "cli.s":
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
