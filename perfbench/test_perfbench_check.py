"""Tests of the benchmark's independent output checker (hand-computed cases)."""

from __future__ import annotations

import numpy as np
import pytest

from check import (
    CheckError,
    Jobs,
    Tariff,
    check_live_assignment,
    check_schedule,
    machine_peak_loads,
    machine_union_lengths,
    observation_bound,
    union_length,
)


def _jobs(rows, g):
    return Jobs.from_rows(
        [dict(id=i, start=s, end=e, demand=d) for i, (s, e, d) in enumerate(rows)], g
    )


def test_union_length_by_hand():
    # [0,2] u [1,3] u [5,6] u [6,6.5] = [0,3] + [5,6.5] = 4.5
    lo = np.array([0.0, 1.0, 5.0, 6.0])
    hi = np.array([2.0, 3.0, 6.0, 6.5])
    assert union_length(lo, hi) == 4.5


def test_per_machine_union_lengths():
    machine = np.array([0, 1, 0, 1])
    lo = np.array([0.0, 10.0, 1.0, 20.0])
    hi = np.array([2.0, 11.0, 4.0, 21.5])
    np.testing.assert_array_equal(
        machine_union_lengths(machine, lo, hi, 2), [4.0, 2.5]
    )


def test_touching_intervals_overlap_at_the_shared_point():
    # Closed intervals: [0,1] and [1,2] both hold the point 1, so the load
    # there is 2 even though neither interval's interior meets the other.
    machine = np.zeros(2, np.int64)
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    assert machine_peak_loads(machine, lo, hi, np.array([1, 1]), 1)[0] == 2
    # ... which g = 1 forbids.
    jobs = _jobs([(0.0, 1.0, 1), (1.0, 2.0, 1)], g=1)
    with pytest.raises(CheckError, match="load 2"):
        check_schedule(jobs, jobs.ids, [0, 0], jobs.start, jobs.end, 2.0)
    # On two machines the same jobs are fine: cost 1 + 1.
    assert check_schedule(jobs, jobs.ids, [0, 1], jobs.start, jobs.end, 2.0) == 2.0


def test_demand_weights_count_towards_g():
    jobs = _jobs([(0.0, 4.0, 3), (2.0, 6.0, 2), (5.0, 7.0, 1)], g=4)
    # jobs 0 and 1 overlap on [2,4] with load 5 > 4.
    with pytest.raises(CheckError, match="load 5"):
        check_schedule(jobs, jobs.ids, [0, 0, 1], jobs.start, jobs.end, 9.0)
    # 0 and 2 never meet; 1 alone: costs 4 + 2 (machine 0: [0,4] u [5,7]) + 4.
    bound = check_schedule(jobs, jobs.ids, [0, 1, 0], jobs.start, jobs.end, 10.0)
    # span 7 against total demand-weighted length (12 + 8 + 2) / 4 = 5.5.
    assert bound == 7.0 == observation_bound(jobs)


def test_reported_cost_must_match():
    jobs = _jobs([(0.0, 1.0, 1), (0.5, 2.0, 1)], g=2)
    assert check_schedule(jobs, jobs.ids, [0, 0], jobs.start, jobs.end, 2.0) == 2.0
    with pytest.raises(CheckError, match="reported cost"):
        check_schedule(jobs, jobs.ids, [0, 0], jobs.start, jobs.end, 1.5)


def test_each_job_exactly_once():
    jobs = _jobs([(0.0, 1.0, 1), (2.0, 3.0, 1)], g=1)
    with pytest.raises(CheckError, match="more than one"):
        check_schedule(jobs, [0, 0], [0, 1], [0.0, 0.0], [1.0, 1.0], 2.0)
    with pytest.raises(CheckError, match="exactly once"):
        check_schedule(jobs, [0], [0], [0.0], [1.0], 1.0)


def test_rows_may_come_in_any_order():
    jobs = _jobs([(0.0, 1.0, 1), (2.0, 3.0, 1), (0.5, 2.5, 1)], g=2)
    ids = np.array([2, 0, 1])
    check_schedule(jobs, ids, [0, 0, 0], [0.5, 0.0, 2.0], [2.5, 1.0, 3.0], 3.0)


def test_rigid_jobs_may_not_move_and_windows_hold():
    rows = [
        dict(id=0, start=0.0, end=1.0),
        dict(id=1, start=4.0, end=6.0, release=2.0, deadline=9.0),
    ]
    jobs = Jobs.from_rows(rows, g=1)
    # Job 1 slides to [7,9], inside its window, at its own length 2.
    check_schedule(jobs, [0, 1], [0, 0], [0.0, 7.0], [1.0, 9.0], 3.0)
    with pytest.raises(CheckError, match="window"):
        check_schedule(jobs, [0, 1], [0, 0], [0.0, 8.0], [1.0, 10.0], 3.0)
    with pytest.raises(CheckError, match="length"):
        check_schedule(jobs, [0, 1], [0, 0], [0.0, 7.0], [1.0, 8.5], 2.5)
    with pytest.raises(CheckError, match="without a window"):
        check_schedule(jobs, [0, 1], [0, 0], [0.5, 4.0], [1.5, 6.0], 3.0)


def test_tariff_bound_is_the_cheapest_rate_times_the_work():
    # One job of length 4 and demand 2 with g = 2: work 4 at rate >= 1, and
    # the job itself is priced at rate 2 on [0, 4].
    tariff = Tariff(np.array([10.0]), np.array([2.0, 1.0]))
    jobs = _jobs([(0.0, 4.0, 2)], g=2)
    assert check_schedule(jobs, [0], [0], [0.0], [4.0], 8.0, tariff=tariff) == 4.0


def test_tariff_integral_by_hand():
    # rate 1 before 7, 3 on [7, 12), 2 after 12.
    tariff = Tariff(np.array([7.0, 12.0]), np.array([1.0, 3.0, 2.0]))
    price = lambda a, b: float(tariff.cumulative(np.array([b]))[0] - tariff.cumulative(np.array([a]))[0])
    assert price(0.0, 7.0) == 7.0
    assert price(6.0, 8.0) == 1.0 + 3.0
    assert price(11.0, 14.0) == 3.0 + 4.0
    assert price(0.0, 20.0) == 7.0 + 15.0 + 16.0
    machine = np.array([0, 0])
    lo, hi = np.array([6.0, 6.5]), np.array([8.0, 13.0])  # union [6, 13]
    assert machine_union_lengths(machine, lo, hi, 1, tariff)[0] == 1.0 + 15.0 + 2.0


def test_live_assignment_checks_the_future_only():
    ids = np.array([3, 4])
    start, end = np.array([0.0, 5.0]), np.array([10.0, 12.0])
    # At clock 5 both jobs hold machine 0 from 5 to 10: load 2 fits g = 2.
    check_live_assignment(ids, start, end, np.array([1, 1]), 2, 5.0, {"3": 0, "4": 0})
    with pytest.raises(CheckError, match="> g=1"):
        check_live_assignment(ids, start, end, np.array([1, 1]), 1, 5.0, {"3": 0, "4": 0})
    with pytest.raises(CheckError, match="lists 1 jobs"):
        check_live_assignment(ids, start, end, np.array([1, 1]), 2, 5.0, {"3": 0})
