"""The session_stream workload: streaming sessions over HTTP.

One client, one keep-alive connection, a closed loop against a default
``busytime serve`` child process.  A round opens ``SESSIONS`` sessions
(policies 8:1:1 ``never_migrate`` / ``rolling_horizon`` /
``migration_budget``), streams each one's ``uniform_dynamic_trace`` of
``JOBS`` jobs in ``BATCH``-event batches round-robin across the sessions,
and closes them.  An operation is one event-batch ``POST``; runs are whole
rounds.

Every acknowledgement is checked, every ``SAMPLE_EVERY``-th session's live
assignment is checked for feasibility halfway through its stream, and every
session's realized cost at close is held against the Observation 1.1 bound
of the trace's effective intervals.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from check import CheckError, Jobs, check_live_assignment, observation_bound
from harness import Client, Result, Server, op_metrics, set_up
from instrument import ENGINE_LAYERS, SpanTable

SESSIONS = 50
JOBS = 100
BATCH = 10
G = 3
REPLAN_PERIOD = 25.0
#: (policy, budget, share of each ten sessions)
POLICIES = (("never_migrate", 4, 8), ("rolling_horizon", 4, 1), ("migration_budget", 2, 1))
SAMPLE_EVERY = 10
#: Whole rounds a run makes at least (each times 1000 batches).
MIN_ROUNDS = 2


class _Stream:
    """One session's trace, as the rows the client sends."""

    def __init__(self, session_id: str, policy: str, budget: int, seed: int):
        from busytime.generators.dynamic_traces import uniform_dynamic_trace
        from busytime.io import trace_event_to_dict

        trace = uniform_dynamic_trace(n=JOBS, g=G, seed=seed)
        self.id = session_id
        self.config = {
            "session_id": session_id, "g": G, "horizon": list(trace.horizon),
            "policy": policy, "budget": budget,
            "replan_period": None if policy == "never_migrate" else REPLAN_PERIOD,
        }
        self.rows = [trace_event_to_dict(e) for e in trace.events]
        self.batches = [self.rows[i:i + BATCH] for i in range(0, len(self.rows), BATCH)]

    def effective_jobs(self) -> Jobs:
        """Jobs at their effective intervals: arrival to actual departure."""
        arrive: Dict[int, dict] = {}
        rows = []
        for row in self.rows:
            job = row["job"]
            if row["kind"] == "arrive":
                arrive[job["id"]] = row
            else:
                rows.append({"id": job["id"], "start": arrive[job["id"]]["time"],
                             "end": row["time"], "demand": job["demand"]})
        return Jobs.from_rows(rows, G)

    def live_after(self, batches: int):
        """Live jobs and the clock after the first ``batches`` batches."""
        live: Dict[int, dict] = {}
        clock = 0.0
        for row in self.rows[: batches * BATCH]:
            clock = row["time"]
            if row["kind"] == "arrive":
                live[row["job"]["id"]] = row["job"]
            else:
                live.pop(row["job"]["id"])
        jobs = list(live.values())
        return (
            np.array([j["id"] for j in jobs], dtype=np.int64),
            np.array([j["start"] for j in jobs]),
            np.array([j["end"] for j in jobs]),
            np.array([j["demand"] for j in jobs], dtype=np.int64),
            clock,
        )


def _round_streams(seed: int, index: int) -> List[_Stream]:
    mix = [(p, b) for p, b, share in POLICIES for _ in range(share)]
    seeds = np.random.default_rng([seed, 1, index]).integers(0, 2**31, SESSIONS)
    return [
        _Stream(f"r{index}-s{k}", *mix[k % len(mix)], int(s))
        for k, s in enumerate(seeds)
    ]


class _Setup:
    """A started server that has streamed one short session end to end."""

    def __init__(self, tmpdir: Path, seed: int, trace: bool, index: int):
        self.spans_path = tmpdir / f"spans-{index}.json"
        self.server = Server(tmpdir, self.spans_path if trace else None)
        try:
            self.client = Client(self.server.host, self.server.port)
            self.first = _round_streams(seed, 0)
            for policy, budget, _ in POLICIES:
                warm = _Stream(f"warm-{policy}", policy, budget, seed)
                self.client.json("POST", "/sessions", warm.config)
                for offset, batch in enumerate(warm.batches):
                    self.client.json("POST", f"/sessions/{warm.id}/events",
                                     {"events": batch, "first_offset": offset * BATCH})
                self.client.json("POST", f"/sessions/{warm.id}/close", {})
        except BaseException:
            self.server.stop()
            raise

    def stop(self) -> None:
        self.client.close()
        self.server.stop()


def run(workload: str, seed: int, seconds: float, trace: bool, tmpdir: Path) -> Result:
    result = Result()
    setup, setups = set_up(lambda k: _Setup(tmpdir, seed, trace, k))

    client = setup.client
    blocks: List[Tuple[List[float], int]] = []  # per round: latencies, events
    ops: List[dict] = []
    cost = bound = 0.0
    replans = migrations = 0
    elapsed = 0.0
    op = 0
    round_index = 0
    try:
        while elapsed < seconds or round_index < MIN_ROUNDS:
            streams = setup.first if round_index == 0 else _round_streams(seed, round_index)
            traced = trace and round_index % 2 == 0
            latencies: List[float] = []
            events = 0
            for stream in streams:
                client.json("POST", "/sessions", stream.config)
            for b in range(len(streams[0].batches)):
                for k, stream in enumerate(streams):
                    batch = stream.batches[b]
                    body = json.dumps({"events": batch, "first_offset": b * BATCH}).encode()
                    headers = {"X-Bench-Op": str(op), "X-Bench-Trace": "1" if traced else "0"}
                    status, data, secs = client.call(
                        "POST", f"/sessions/{stream.id}/events", body, headers)
                    result.attempted += 1
                    elapsed += secs
                    latencies.append(secs)
                    ops.append({"op": op, "traced": traced, "secs": secs})
                    op += 1
                    try:
                        ack = json.loads(data)
                        if status != 200 or ack.get("accepted") != len(batch) or \
                                ack.get("applied") != b * BATCH + len(batch):
                            raise CheckError(f"batch {b} answered {status}: {data[:200]!r}")
                        events += len(batch)
                        if k % SAMPLE_EVERY == 0 and b == len(stream.batches) // 2:
                            doc = client.json("GET", f"/sessions/{stream.id}/assignment")
                            ids, lo, hi, demand, clock = stream.live_after(b + 1)
                            check_live_assignment(ids, lo, hi, demand, G, clock,
                                                  doc["assignment"])
                    except (CheckError, ValueError) as exc:
                        result.failed += status != 200
                        result.fail_check(f"session {stream.id}: {exc}")
            for stream in streams:
                closed = client.json("POST", f"/sessions/{stream.id}/close", {})
                jobs = stream.effective_jobs()
                lower = observation_bound(jobs)
                realized = closed["realized_cost"]
                if closed["arrivals"] != JOBS or closed["departures"] != JOBS:
                    result.fail_check(f"session {stream.id} settled {closed}")
                if realized < lower * (1 - 1e-9):
                    result.fail_check(
                        f"session {stream.id}: realized cost {realized} below bound {lower}")
                cost += realized
                bound += lower
                replans += closed["replans"]
                migrations += closed["migrations"]
            blocks.append((latencies, events))
            round_index += 1
            if round_index == MIN_ROUNDS:
                # Peak memory over a fixed amount of work: later rounds
                # depend on speed, and the service keeps what they add.
                rss = setup.server.peak_rss_mb()
    finally:
        setup.stop()

    # A round times 1000 batches, enough for its own 99th percentile.
    op_metrics(result, blocks, setups, rss, cost, bound)
    if trace:
        result.layers = _layers(setup.spans_path, ops, replans, migrations)
    return result


def _layers(spans_path: Path, ops: List[dict], replans: int, migrations: int) -> Dict[str, float]:
    dump = json.loads(spans_path.read_text())
    table = SpanTable(dump["spans"])
    traced = [o["op"] for o in ops if o["traced"]]
    layers = {metric: table.mean_self_ms(span, traced) for metric, span in ENGINE_LAYERS.items()}
    sizes = [value for name, value, _ in dump["counts"] if name == "checkpoint_bytes"]
    layers.update({
        "engine.solve_ms": table.mean_total_ms("engine.solve", traced),
        "service.sessions.prepare_ms": table.mean_self_ms("service.sessions.prepare", traced),
        "extensions.dynamic.feed_ms": table.mean_self_ms("extensions.dynamic.feed", traced),
        "service.sessions.checkpoint_ms": table.mean_self_ms(
            "service.sessions.checkpoint", traced),
        "service.sessions.checkpoint_bytes": statistics.mean(sizes) if sizes else 0.0,
        "extensions.dynamic.replans": replans,
        "extensions.dynamic.migrations": migrations,
    })
    plain = [o["secs"] for o in ops if not o["traced"]]
    timed = [o["secs"] for o in ops if o["traced"]]
    layers["trace.overhead_pct"] = (
        100.0 * (statistics.median(timed) / statistics.median(plain) - 1.0)
        if plain and timed else 0.0
    )
    return layers
