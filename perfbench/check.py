"""Independent output checker for the benchmark (numpy only, no busytime).

Every schedule the benchmark receives is recomputed here from plain arrays:
the jobs the benchmark generated (ids, nominal intervals, demands, optional
windows) and the assignment the program returned (job id -> machine, plus
the placed interval of each job).  Nothing here trusts the program's own
validation.

Intervals are closed: two jobs that touch at a single point overlap there,
so at equal coordinates every start is counted before any end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: Relative tolerance for comparing a reported cost with the recomputed one
#: (the two sums add the same lengths in a different order).
COST_RTOL = 1e-9


class CheckError(AssertionError):
    """A schedule that breaks one of the checked properties."""


@dataclass(frozen=True)
class Jobs:
    """The generated jobs of one instance, as columns."""

    ids: np.ndarray
    start: np.ndarray
    end: np.ndarray
    demand: np.ndarray
    g: int
    release: Optional[np.ndarray] = None  # NaN where the job has no window
    deadline: Optional[np.ndarray] = None

    @classmethod
    def from_rows(cls, rows: Sequence[dict], g: int) -> "Jobs":
        """Columns from instance-document job rows (``id``/``start``/...)."""
        windowed = any("release" in r or "deadline" in r for r in rows)
        nan = float("nan")
        return cls(
            ids=np.array([r["id"] for r in rows], dtype=np.int64),
            start=np.array([r["start"] for r in rows], dtype=float),
            end=np.array([r["end"] for r in rows], dtype=float),
            demand=np.array([r.get("demand", 1) for r in rows], dtype=np.int64),
            g=g,
            release=(
                np.array([r.get("release", nan) for r in rows], dtype=float)
                if windowed
                else None
            ),
            deadline=(
                np.array([r.get("deadline", nan) for r in rows], dtype=float)
                if windowed
                else None
            ),
        )


@dataclass(frozen=True)
class Tariff:
    """A step-function rate: ``rates[0]`` before ``breakpoints[0]``, then
    ``rates[i]`` on ``[breakpoints[i-1], breakpoints[i])``."""

    breakpoints: np.ndarray
    rates: np.ndarray

    @classmethod
    def from_doc(cls, doc: dict) -> "Tariff":
        return cls(
            np.asarray(doc["breakpoints"], dtype=float),
            np.asarray(doc["rates"], dtype=float),
        )

    def cumulative(self, t: np.ndarray) -> np.ndarray:
        """The integral of the rate from ``breakpoints[0]`` to ``t``."""
        b, r = self.breakpoints, self.rates
        if b.size == 0:
            return r[0] * t
        cum = np.concatenate(([0.0], np.cumsum(r[1:-1] * np.diff(b))))
        k = np.searchsorted(b, t, side="right")  # breakpoints <= t
        base = np.where(k > 0, cum[np.maximum(k - 1, 0)], 0.0)
        anchor = b[np.maximum(k - 1, 0)]
        anchor = np.where(k > 0, anchor, b[0])
        return base + r[k] * (t - anchor)

    @property
    def min_rate(self) -> float:
        return float(self.rates.min())


def _sweep(machine: np.ndarray, lo: np.ndarray, hi: np.ndarray, weight: np.ndarray):
    """Events of every machine in sweep order, with the running level.

    Returns ``(machine, coordinate, level)`` per event, ordered by machine,
    then coordinate, then starts before ends (closed intervals).  Each
    machine's weights sum to zero, so one global cumulative sum is the
    per-machine running level.
    """
    m = np.concatenate([machine, machine])
    x = np.concatenate([lo, hi])
    kind = np.concatenate([np.zeros(lo.size, np.int8), np.ones(hi.size, np.int8)])
    w = np.concatenate([weight, -weight])
    order = np.lexsort((kind, x, m))
    return m[order], x[order], np.cumsum(w[order])


def machine_union_lengths(
    machine: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    machines: int,
    tariff: Optional[Tariff] = None,
) -> np.ndarray:
    """Per machine, the length (or tariff price) of the union of its intervals."""
    out = np.zeros(machines)
    if machine.size == 0:
        return out
    m, x, level = _sweep(machine, lo, hi, np.ones(machine.size, np.int64))
    covered = (level[:-1] > 0) & (m[:-1] == m[1:])
    left, right = x[:-1][covered], x[1:][covered]
    if tariff is None:
        piece = right - left
    else:
        piece = tariff.cumulative(right) - tariff.cumulative(left)
    np.add.at(out, m[:-1][covered], piece)
    return out


def machine_peak_loads(
    machine: np.ndarray, lo: np.ndarray, hi: np.ndarray, demand: np.ndarray, machines: int
) -> np.ndarray:
    """Per machine, the largest demand-weighted point load."""
    peak = np.zeros(machines, np.int64)
    if machine.size == 0:
        return peak
    m, _, level = _sweep(machine, lo, hi, demand.astype(np.int64))
    np.maximum.at(peak, m, level)
    return peak


def union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length of the union of closed intervals."""
    return float(
        machine_union_lengths(np.zeros(lo.size, np.int64), lo, hi, 1)[0]
    )


def observation_bound(jobs: Jobs) -> float:
    """Observation 1.1: ``max(span, sum(len * demand) / g)`` on the nominal
    intervals."""
    if jobs.ids.size == 0:
        return 0.0
    work = float(np.sum((jobs.end - jobs.start) * jobs.demand)) / jobs.g
    return max(union_length(jobs.start, jobs.end), work)


def tariff_bound(jobs: Jobs, tariff: Tariff) -> float:
    """A priced lower bound valid for any placement: every unit of busy time
    costs at least the cheapest rate, and busy time is at least
    ``sum(len * demand) / g`` (no machine carries more than ``g``)."""
    work = float(np.sum((jobs.end - jobs.start) * jobs.demand)) / jobs.g
    return tariff.min_rate * work


def check_schedule(
    jobs: Jobs,
    assigned_ids: np.ndarray,
    assigned_machine: np.ndarray,
    placed_start: np.ndarray,
    placed_end: np.ndarray,
    reported_cost: float,
    tariff: Optional[Tariff] = None,
) -> float:
    """Check one schedule; returns the lower bound the cost was held against.

    Raises :class:`CheckError` unless every job sits on exactly one machine
    (at its nominal interval, or inside its window at its own length), no
    machine carries a demand-weighted point load above ``g``, the reported
    cost equals the recomputed sum of per-machine union lengths (priced by
    ``tariff`` when given), and that cost is at least the lower bound.
    """
    assigned_ids = np.asarray(assigned_ids, dtype=np.int64)
    order = np.argsort(assigned_ids, kind="stable")
    sorted_ids = assigned_ids[order]
    if sorted_ids.size and np.any(sorted_ids[1:] == sorted_ids[:-1]):
        dup = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]][0]
        raise CheckError(f"job {dup} sits on more than one machine")
    ref = np.argsort(jobs.ids, kind="stable")
    if sorted_ids.size != jobs.ids.size or not np.array_equal(sorted_ids, jobs.ids[ref]):
        missing = np.setdiff1d(jobs.ids, assigned_ids)
        extra = np.setdiff1d(assigned_ids, jobs.ids)
        raise CheckError(
            f"assignment does not cover the jobs exactly once: "
            f"{missing.size} missing, {extra.size} unknown"
        )
    # Rows of the assignment, re-ordered to match the jobs' own rows.
    to_job = np.empty(jobs.ids.size, np.int64)
    to_job[ref] = order
    machine = np.asarray(assigned_machine, dtype=np.int64)[to_job]
    lo = np.asarray(placed_start, dtype=float)[to_job]
    hi = np.asarray(placed_end, dtype=float)[to_job]

    nominal = (lo == jobs.start) & (hi == jobs.end)
    if not nominal.all():
        if jobs.release is None:
            raise CheckError(f"{int((~nominal).sum())} rigid jobs were moved")
        moved = ~nominal
        length = jobs.end - jobs.start
        windowed = ~np.isnan(jobs.release) | ~np.isnan(jobs.deadline)
        if np.any(moved & ~windowed):
            raise CheckError("a job without a window was moved")
        release = np.where(np.isnan(jobs.release), jobs.start, jobs.release)
        deadline = np.where(np.isnan(jobs.deadline), jobs.end, jobs.deadline)
        tol = 1e-9 * np.maximum(1.0, np.abs(deadline))
        if np.any(moved & ((lo < release - tol) | (hi > deadline + tol))):
            raise CheckError("a placed job leaves its window")
        if np.any(moved & (np.abs((hi - lo) - length) > 1e-9 * np.maximum(1.0, length))):
            raise CheckError("a placed job changed its length")

    machines = int(machine.max()) + 1 if machine.size else 0
    if machine.size and machine.min() < 0:
        raise CheckError("negative machine index")
    peaks = machine_peak_loads(machine, lo, hi, jobs.demand, machines)
    if np.any(peaks > jobs.g):
        worst = int(np.argmax(peaks))
        raise CheckError(f"machine {worst} carries load {int(peaks[worst])} > g={jobs.g}")

    cost = float(machine_union_lengths(machine, lo, hi, machines, tariff).sum())
    if abs(cost - reported_cost) > COST_RTOL * max(1.0, abs(cost)):
        raise CheckError(f"reported cost {reported_cost!r} != recomputed {cost!r}")
    bound = tariff_bound(jobs, tariff) if tariff is not None else observation_bound(jobs)
    if cost < bound * (1.0 - COST_RTOL):
        raise CheckError(f"cost {cost!r} is below the lower bound {bound!r}")
    return bound


def check_live_assignment(
    live_ids: np.ndarray,
    live_start: np.ndarray,
    live_end: np.ndarray,
    live_demand: np.ndarray,
    g: int,
    clock: float,
    assignment: dict,
) -> None:
    """Check a streaming session's live assignment at time ``clock``.

    ``assignment`` maps job id (as a string) to machine index.  Every live
    job must be assigned, no other job may be, and each machine must carry
    at most ``g`` over the rest of its live jobs' intervals.
    """
    keys = np.array(sorted(int(k) for k in assignment), dtype=np.int64)
    if not np.array_equal(keys, np.sort(np.asarray(live_ids, dtype=np.int64))):
        raise CheckError(
            f"live assignment lists {keys.size} jobs, expected {len(live_ids)}"
        )
    machine = np.array([assignment[str(int(j))] for j in live_ids], dtype=np.int64)
    lo = np.maximum(np.asarray(live_start, dtype=float), clock)
    hi = np.maximum(np.asarray(live_end, dtype=float), lo)
    machines = int(machine.max()) + 1 if machine.size else 0
    peaks = machine_peak_loads(machine, lo, hi, np.asarray(live_demand), machines)
    if np.any(peaks > g):
        raise CheckError(f"live machine load {int(peaks.max())} > g={g}")
