"""The bulk_unit workload: ``Engine.solve`` in-process on fresh instances.

Each operation solves a unit-demand ``uniform_random_instance`` of
n = 100k jobs at a constant density (``n / horizon = 20``, g = 10).  Every
operation builds a new instance (outside the timed region), so nothing
memoised on an instance survives into the next solve.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import numpy as np

from check import CheckError, Jobs, check_schedule
from harness import Result, fresh_import, op_metrics, peak_rss_mb_self, set_up
from instrument import ENGINE_LAYERS, SpanTable, Tracer, install_engine_spans

N = 100_000
G = 10
DENSITY = 20.0
#: Size of the warm-up solve that loads every lazily imported module.
WARMUP_N = 2_000


def _generate(n: int, seed: int):
    from busytime.generators import uniform_random_instance

    return uniform_random_instance(n=n, g=G, horizon=n / DENSITY, seed=seed)


def _columns(instance) -> Jobs:
    jobs = instance.jobs
    return Jobs(
        ids=np.fromiter((j.id for j in jobs), np.int64, len(jobs)),
        start=np.fromiter((j.start for j in jobs), float, len(jobs)),
        end=np.fromiter((j.end for j in jobs), float, len(jobs)),
        demand=np.fromiter((j.demand for j in jobs), np.int64, len(jobs)),
        g=instance.g,
    )


def _check(result: Result, jobs: Jobs, report) -> float:
    """Independent check of one solve; returns the lower bound."""
    ids, machine, lo, hi = [], [], [], []
    for m in report.schedule.machines:
        for j in m.jobs:
            ids.append(j.id)
            machine.append(m.index)
            lo.append(j.start)
            hi.append(j.end)
    try:
        return check_schedule(
            jobs, np.array(ids), np.array(machine), np.array(lo), np.array(hi),
            report.objective_value,
        )
    except CheckError as exc:
        result.fail_check(f"solve of {report.schedule.instance.name}: {exc}")
        return 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, tmpdir: Path) -> Result:
    result = Result()
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=10_000).tolist()

    from busytime import Engine, SolveRequest

    def make(_: int):
        gc.collect()
        fresh_import(tmpdir, "busytime.engine, busytime.generators")
        engine = Engine()
        engine.solve(SolveRequest(instance=_generate(WARMUP_N, seeds[0])))
        return engine, _generate(N, seeds[1])

    (engine, instance), setups = set_up(make)

    tracer = Tracer()
    if trace:
        install_engine_spans(tracer)
    latencies, traced_lat, plain_lat, traced_ops = [], [], [], []
    machines = []
    jobs_done = cost = bound = 0.0
    op = 0
    try:
        while sum(latencies) < seconds:
            if instance is None:
                instance = _generate(N, seeds[2 + op])
            request = SolveRequest(instance=instance)
            gc.collect()
            tracer.enabled = trace and op % 2 == 0
            tracer.op = op
            started = time.perf_counter()
            report = engine.solve(request)
            elapsed = time.perf_counter() - started
            tracer.enabled = False
            result.attempted += 1
            latencies.append(elapsed)
            (traced_lat if op % 2 == 0 else plain_lat).append(elapsed)
            if trace and op % 2 == 0:
                traced_ops.append(op)
            jobs_done += instance.n
            machines.append(report.schedule.num_machines)
            cost += report.objective_value
            bound += _check(result, _columns(instance), report)
            instance = report = request = None
            op += 1
    finally:
        tracer.restore()

    op_metrics(result, [(latencies, jobs_done)], setups, peak_rss_mb_self(), cost, bound)
    if trace:
        table = SpanTable(tracer.spans)
        layers = {
            metric: table.mean_self_ms(span, traced_ops)
            for metric, span in ENGINE_LAYERS.items()
        }
        layers["engine.solve_ms"] = table.mean_total_ms("engine.solve", traced_ops)
        layers["algorithms.machines"] = statistics.mean(machines)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_lat) / statistics.median(plain_lat) - 1.0
        ) if plain_lat else 0.0
        result.layers = layers
    return result
