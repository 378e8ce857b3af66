#!/usr/bin/env python3
"""End-to-end benchmark of busytime: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk_unit --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload service_mix --seed 1 --trace 1
    python3 perfbench/run.py --workload session_stream --repeat 10 --seed 100

One run sets its workload up (``SETUP_REPEATS`` times; ``setup_s`` is the
median), times closed-loop operations until ``--seconds`` of them have
elapsed (finishing the round in progress), checks every output with
:mod:`check`, and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and the metrics.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones, from spans recorded around the calls into
each layer.  The exit status is 1 when a check failed and 2 when the
checkout holds no program to measure.

``--repeat K`` runs the workload K times in fresh processes with seeds
``seed .. seed+K-1`` and prints each metric's median and quartiles, so two
sets of runs can be compared.  See README.md for the workloads and seeds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import ROOT, MissingProgram, program_root

WORKLOADS = ("bulk_unit", "service_mix", "session_stream")

#: Every per-layer metric and its unit.  A traced run reports all of them;
#: a layer the workload never calls reads 0.
PER_LAYER = {
    "core.components_ms": "ms",
    "engine.policy.rank_ms": "ms",
    "core.schedule.validate_ms": "ms",
    "core.objectives.lower_bound_ms": "ms",
    "engine.unattributed_ms": "ms",
    "engine.solve_ms": "ms",
    "algorithms.schedule_ms": "ms",
    "algorithms.machines": "count",
    "io.parse_ms": "ms",
    "service.canonical.fingerprint_ms": "ms",
    "service.canonical.decanonicalize_ms": "ms",
    "service.store.get_ms": "ms",
    "service.store.hits": "count",
    "service.store.misses": "count",
    "io.serialize_ms": "ms",
    "service.frontend.response_bytes": "bytes",
    "service.frontend.http_ms": "ms",
    "service.service.queue_wait_ms": "ms",
    "service.service.mean_batch": "count",
    "pricing.flex_solve_ms": "ms",
    "service.sessions.prepare_ms": "ms",
    "extensions.dynamic.feed_ms": "ms",
    "service.sessions.checkpoint_ms": "ms",
    "service.sessions.checkpoint_bytes": "bytes",
    "extensions.dynamic.replans": "count",
    "extensions.dynamic.migrations": "count",
    "trace.overhead_pct": "%",
}


def _workload_module(name: str):
    if name == "bulk_unit":
        import bulk as module
    elif name == "service_mix":
        import service_mix as module
    else:
        import session_stream as module
    return module


def run_once(args: argparse.Namespace) -> int:
    try:
        program_root()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = _workload_module(args.workload).run(
            # numpy seeds must be non-negative; any integer maps onto one.
            args.workload, args.seed % 2**63, args.seconds, bool(args.trace), tmpdir
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.trace:
        result.metrics = {
            name: (float(result.layers.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()
        }
    for error in result.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(result.line(), flush=True)
    return 0 if result.correct else 1


def run_repeated(args: argparse.Namespace) -> int:
    """Run the workload ``--repeat`` times; print medians and quartiles."""
    runs = []
    status = 0
    for k in range(args.repeat):
        seed = args.seed + k
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run with seed {seed} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        doc = json.loads(lines[-1])
        runs.append(doc)
        print(f"seed {seed}: " + json.dumps(doc), flush=True)
    if not runs:
        return 1
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
        print(
            f"{name:>36} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
            f"spread {summary[name]['spread']:7.2%}"
        )
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(json.dumps({
        "workload": args.workload,
        "runs": len(runs),
        "seeds": [args.seed, args.seed + args.repeat - 1],
        "failed_shares": shares,
        "correct": all(r["correct"] for r in runs),
        "metrics": summary,
    }))
    return status if all(r["correct"] for r in runs) else 1


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through every ``finally``: child servers are stopped and the
    # run's temporary directory is removed when the run is terminated.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    if args.repeat > 0:
        return run_repeated(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
