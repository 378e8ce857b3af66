"""The service_mix workload: ``POST /solve`` with ``"wait": true`` over HTTP.

One client, one keep-alive connection, each request sent after the previous
reply (a closed loop) against a default ``busytime serve`` child process.
A round is ``ROUND``: mostly disguised repeats of a small hot set (cache
hits), a cold slice from five instance families, and two invalid-input
probes.  Runs are whole rounds.

A disguised repeat relabels the jobs, reorders them and translates time by
a multiple of 1/64.  Hot-set coordinates lie on a 1/1024 grid below 128, so
every translated coordinate is exact and the canonical form of each repeat
is bit-identical to the original's: every repeat is a genuine hit.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from check import CheckError, Jobs, Tariff, check_schedule
from harness import Client, Result, Server, op_metrics, set_up, strict_json
from instrument import ENGINE_LAYERS, HANDLER_SPAN, SEND_SPAN, SpanTable

#: Operations per round, by class.  Hits are 76 of the 98 timed requests,
#: so the median falls inside the hit class; the four flex requests (the
#: slowest class, 4.1% of timed requests) hold the 99th percentile, at
#: about their own 75th percentile.
ROUND: Tuple[Tuple[str, int], ...] = (
    ("hit", 76),
    ("uniform", 6),
    ("demand", 5),
    ("bounded", 4),
    ("proper", 3),
    ("flex", 4),
    ("probe_infinite_end", 1),
    ("probe_boolean_g", 1),
)
COLD = ("uniform", "demand", "bounded", "proper", "flex")
PROBES = ("probe_infinite_end", "probe_boolean_g")

#: Whole rounds a run makes at least: 11 rounds time 1078 requests, so at
#: least ten lie beyond the 99th percentile.
MIN_ROUNDS = 11

HOT_SET = 8
HOT_N = 200
COLD_N = 200
FLEX_N = 40
GRID = 1024.0


def _cold_doc(kind: str, seed: int) -> dict:
    from busytime import io as bio
    from busytime.generators import demand_loaded_instance, uniform_random_instance
    from busytime.generators.structured import bounded_length_instance, proper_instance
    from busytime.generators.tariffs import flex_window_instance

    if kind == "uniform":
        instance = uniform_random_instance(COLD_N, 3, horizon=100.0, seed=seed)
    elif kind == "demand":
        instance = demand_loaded_instance(COLD_N, 4, horizon=100.0, seed=seed)
    elif kind == "bounded":
        instance = bounded_length_instance(COLD_N, 3, d=2.0, horizon=100, seed=seed)
    elif kind == "proper":
        instance = proper_instance(COLD_N, 3, seed=seed)
    else:
        return _anchored(bio.instance_to_dict(flex_window_instance(FLEX_N, 3, seed=seed)))
    return bio.instance_to_dict(instance)


def _anchored(doc: dict) -> dict:
    """The flex instance translated so that its earliest start is 0.

    The service solves the canonical form, whose earliest start is 0, and
    maps slid jobs back by adding the offset; that float round trip can
    make touching placements overlap and the returned schedule infeasible
    (see README, *Known limits*).  At offset 0 the round trip is exact.
    """
    first = min(row["start"] for row in doc["jobs"])
    for row in doc["jobs"]:
        for key in ("start", "end", "release", "deadline"):
            if key in row:
                row[key] -= first
    return doc


def _flex_options() -> dict:
    from busytime import CostModel
    from busytime.generators.tariffs import tou_tariff

    model = CostModel(objective="tariff_busy_time", tariff=tou_tariff())
    return {"objective": "tariff_busy_time", "cost_model": model.to_dict()}


def _hot_doc(index: int, seed: int) -> dict:
    """A hot-set instance with every coordinate on the 1/GRID grid."""
    from busytime.generators import uniform_random_instance

    instance = uniform_random_instance(HOT_N, 3, horizon=100.0, seed=seed)
    rows = []
    for j in instance.jobs:
        start = round(j.start * GRID) / GRID
        end = max(round(j.end * GRID) / GRID, start + 1.0 / GRID)
        rows.append({"id": j.id, "start": start, "end": end, "demand": 1})
    return {"format": "busytime-instance", "version": 2, "name": f"hot-{index}",
            "g": 3, "jobs": rows}


def _disguise(doc: dict, rng: np.random.Generator) -> dict:
    """Relabel, reorder and translate (exactly) one hot-set instance."""
    rows = doc["jobs"]
    ids = rng.permutation(len(rows)) + int(rng.integers(1_000, 1_000_000))
    delta = int(rng.integers(0, 64 * 64)) / 64.0
    moved = [
        {"id": int(ids[i]), "start": r["start"] + delta, "end": r["end"] + delta,
         "demand": 1}
        for i, r in enumerate(rows)
    ]
    order = rng.permutation(len(moved))
    return {"format": "busytime-instance", "version": 2, "name": "",
            "g": doc["g"], "jobs": [moved[i] for i in order]}


def _probe_body(kind: str) -> bytes:
    rows = [{"id": i, "start": float(i), "end": float(i) + 2.0} for i in range(5)]
    doc = {"format": "busytime-instance", "version": 2, "name": "probe", "g": 2,
           "jobs": rows}
    if kind == "probe_infinite_end":
        rows[0]["end"] = float("inf")  # serialised as the non-standard Infinity
    else:
        doc["g"] = True
    return json.dumps({"instance": doc, "options": {}, "wait": True}).encode()


def _body(doc: dict, options: Optional[dict] = None) -> bytes:
    return json.dumps({"instance": doc, "options": options or {}, "wait": True}).encode()


def _check_reply(data: bytes, doc: dict, tariff: Optional[Tariff]) -> Tuple[dict, float]:
    """Independent check of one answered solve; returns (payload, bound)."""
    payload = strict_json(data)
    if payload.get("status") != "done":
        raise CheckError(f"job ended {payload.get('status')}: {payload.get('error')}")
    report = payload["report"]
    schedule = report["schedule"]
    ids, machine = [], []
    for m in schedule["machines"]:
        ids.extend(m["job_ids"])
        machine.extend([m["index"]] * len(m["job_ids"]))
    rows = {r["id"]: r for r in doc["jobs"]}
    placed = {p["id"]: p for p in schedule.get("placements", ())}
    lo = [placed.get(i, rows.get(i, {"start": np.nan}))["start"] for i in ids]
    hi = [placed.get(i, rows.get(i, {"end": np.nan}))["end"] for i in ids]
    jobs = Jobs.from_rows(doc["jobs"], doc["g"])
    bound = check_schedule(
        jobs, np.array(ids), np.array(machine), np.array(lo), np.array(hi),
        report["objective_value"], tariff,
    )
    return payload, bound


class _Setup:
    """A started server with its hot set solved once (cold) and warm."""

    def __init__(self, tmpdir: Path, seed: int, trace: bool, index: int):
        self.spans_path = tmpdir / f"spans-{index}.json"
        self.server = Server(tmpdir, self.spans_path if trace else None)
        try:
            self.client = Client(self.server.host, self.server.port)
            self.hot = [_hot_doc(k, s) for k, s in
                        enumerate(np.random.default_rng([seed, 0]).integers(0, 2**31, HOT_SET))]
            self.hot_cost = []
            for doc in self.hot:
                status, data, _ = self.client.call("POST", "/solve", _body(doc))
                payload, _ = _check_reply(data, doc, None)
                self.hot_cost.append(payload["report"]["objective_value"])
            warm = np.random.default_rng([seed, 2]).integers(0, 2**31, len(COLD))
            for kind, s in zip(COLD, warm):
                doc = _cold_doc(kind, int(s))
                options = _flex_options() if kind == "flex" else None
                self.client.call("POST", "/solve", _body(doc, options))
        except BaseException:
            self.server.stop()
            raise

    def stop(self) -> None:
        self.client.close()
        self.server.stop()


def _round_plan(seed: int, index: int) -> List[Tuple[str, int]]:
    """The shuffled (class, seed) operations of round ``index``."""
    rng = np.random.default_rng([seed, 1, index])
    plan = [(kind, int(s)) for kind, count in ROUND
            for s in rng.integers(0, 2**31, count)]
    return [plan[i] for i in rng.permutation(len(plan))]


def run(workload: str, seed: int, seconds: float, trace: bool, tmpdir: Path) -> Result:
    result = Result()
    setup, setups = set_up(lambda k: _Setup(tmpdir, seed, trace, k))

    flex_options = _flex_options()
    tariff = Tariff.from_doc(flex_options["cost_model"]["tariff"])
    latencies: List[float] = []
    ops: List[dict] = []  # per operation: class, traced, seconds, bytes, machines
    cost = bound = 0.0
    elapsed = 0.0
    op = 0
    round_index = 0
    try:
        while elapsed < seconds or round_index < MIN_ROUNDS:
            traced = trace and round_index % 2 == 0
            for kind, s in _round_plan(seed, round_index):
                if kind == "hit":
                    rng = np.random.default_rng(s)
                    hot = int(rng.integers(0, HOT_SET))
                    doc = _disguise(setup.hot[hot], rng)
                    body = _body(doc)
                elif kind in PROBES:
                    body = _probe_body(kind)
                else:
                    doc = _cold_doc(kind, s)
                    body = _body(doc, flex_options if kind == "flex" else None)
                headers = {"X-Bench-Op": str(op), "X-Bench-Trace": "1" if traced else "0"}
                status, data, secs = setup.client.call("POST", "/solve", body, headers)
                result.attempted += 1
                elapsed += secs
                record = {"op": op, "kind": kind, "traced": traced, "secs": secs,
                          "bytes": len(data)}
                op += 1
                if kind in PROBES:
                    # The right answer to invalid input is a 4xx whose body
                    # is strict JSON; anything else counts as a failed op.
                    try:
                        ok = 400 <= status < 500 and strict_json(data) is not None
                    except ValueError:
                        ok = False
                    result.failed += 0 if ok else 1
                    continue
                latencies.append(secs)
                ops.append(record)
                if status != 200:
                    result.failed += 1
                    result.fail_check(f"{kind} request answered {status}: {data[:200]!r}")
                    continue
                try:
                    payload, op_bound = _check_reply(
                        data, doc, tariff if kind == "flex" else None
                    )
                    value = payload["report"]["objective_value"]
                    if kind == "hit":
                        if not payload.get("cached"):
                            raise CheckError("a disguised repeat missed the cache")
                        first = setup.hot_cost[hot]
                        if abs(value - first) > 1e-9 * max(1.0, first):
                            raise CheckError(f"hit cost {value} != first solve {first}")
                    record["machines"] = len(payload["report"]["schedule"]["machines"])
                    cost += value
                    bound += op_bound
                except (CheckError, KeyError, ValueError) as exc:
                    result.fail_check(f"{kind} request: {exc}")
            round_index += 1
            if round_index == MIN_ROUNDS:
                # Peak memory over a fixed amount of work: later rounds
                # depend on speed, and the service keeps what they add.
                rss = setup.server.peak_rss_mb()
        stats = setup.client.json("GET", "/stats")
    finally:
        setup.stop()

    # One block: a round's 98 timed requests are too few for a percentile.
    op_metrics(result, [(latencies, len(latencies))], setups, rss, cost, bound)
    if trace:
        result.layers = _layers(setup.spans_path, ops, stats)
    return result


def _layers(spans_path: Path, ops: List[dict], stats: dict) -> Dict[str, float]:
    spans = json.loads(spans_path.read_text())["spans"]
    table = SpanTable(spans)
    traced = [o for o in ops if o["traced"]]
    hits = [o["op"] for o in traced if o["kind"] == "hit"]
    cold = [o["op"] for o in traced if o["kind"] in COLD and o["kind"] != "flex"]
    flex = [o["op"] for o in traced if o["kind"] == "flex"]
    layers = {metric: table.mean_self_ms(span, cold) for metric, span in ENGINE_LAYERS.items()}
    layers.update({
        "engine.solve_ms": table.mean_total_ms("engine.solve", cold),
        "pricing.flex_solve_ms": table.mean_total_ms("engine.solve", flex),
        "algorithms.machines": statistics.mean(
            o["machines"] for o in ops if o["kind"] in COLD and "machines" in o
        ),
        "io.parse_ms": table.mean_self_ms("io.parse", hits),
        "service.canonical.fingerprint_ms": table.mean_self_ms(
            "service.canonical.fingerprint", hits),
        "service.canonical.decanonicalize_ms": table.mean_self_ms(
            "service.canonical.decanonicalize", hits),
        "service.store.get_ms": table.mean_self_ms("service.store.get", hits),
        "io.serialize_ms": table.mean_self_ms("io.serialize", hits),
        "service.frontend.response_bytes": statistics.mean(
            o["bytes"] for o in traced if o["kind"] == "hit"),
        # The round trip less the server's time from reading the request to
        # starting its reply: request and reply transfer plus HTTP parsing.
        "service.frontend.http_ms": 1e3 * statistics.mean(
            o["secs"] - table.total_s[o["op"]][HANDLER_SPAN]
            + table.total_s[o["op"]][SEND_SPAN]
            for o in traced if o["kind"] == "hit"),
        "service.service.queue_wait_ms": 1e3 * statistics.mean(
            table.total_s[op]["service.service.result"] - table.worker_s[op]
            for op in cold + flex),
        "service.service.mean_batch": stats["mean_batch"],
        "service.store.hits": stats["store"]["hits"],
        "service.store.misses": stats["store"]["misses"],
    })
    plain = [o["secs"] for o in ops if o["kind"] == "hit" and not o["traced"]]
    timed = [o["secs"] for o in traced if o["kind"] == "hit"]
    layers["trace.overhead_pct"] = (
        100.0 * (statistics.median(timed) / statistics.median(plain) - 1.0)
        if plain and timed else 0.0
    )
    return layers
