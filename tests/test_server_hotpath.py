"""Flat dispatch: a ``request_work`` call costs the same late in a run as
early, with 1,000 registered donors as with 8, and with 2,000 finished
problems as with none.

Every figure is a median of in-process wall times.  The two-server
comparisons alternate blocks of calls between the servers, so drift in
the machine's speed lands on both sides alike.
"""

from __future__ import annotations

import statistics
import time

from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import RangeSumAlgorithm, RangeSumDataManager


def _server(items: int, donors: int) -> TaskFarmServer:
    """A server cutting one-item units of a single *items* problem."""
    server = TaskFarmServer(policy=FixedGranularity(1))
    for i in range(donors):
        server.register_donor(f"d{i}", 0.0)
    server.submit(Problem("sum", RangeSumDataManager(items), RangeSumAlgorithm()))
    return server


def _timed_step(server: TaskFarmServer, donor: str, now: float) -> int:
    """Time one ``request_work`` (ns), then fold the unit it granted."""
    start = time.perf_counter_ns()
    a = server.request_work(donor, now)
    elapsed = time.perf_counter_ns() - start
    lo, hi = a.payload
    value = sum(range(lo, hi))
    server.submit_result(
        WorkResult(a.problem_id, a.unit_id, value, donor, 0.0, a.items), now
    )
    return elapsed


def _interleaved_ratio(
    base: TaskFarmServer, other: TaskFarmServer, calls: int, block: int = 50
) -> float:
    """Median ``request_work`` time on *other* over that on *base*,
    both stepped by donor ``d0`` in alternating blocks."""
    times: dict[int, list[int]] = {id(base): [], id(other): []}
    for start in range(0, calls, block):
        for server in (base, other):
            for i in range(start, start + block):
                times[id(server)].append(_timed_step(server, "d0", float(i)))
    return statistics.median(times[id(other)]) / statistics.median(times[id(base)])


def test_request_work_cost_does_not_grow_with_units_cut():
    units = 20_000
    server = _server(units, donors=8)
    donors = [f"d{i}" for i in range(8)]
    times = [_timed_step(server, donors[i % 8], float(i)) for i in range(units)]
    assert server.all_complete()
    decile = units // 10
    first = statistics.median(times[:decile])
    last = statistics.median(times[-decile:])
    assert last / first <= 2.0, (
        f"last decile {last / 1e3:.1f} us vs first {first / 1e3:.1f} us"
    )


def test_request_work_cost_does_not_grow_with_registered_donors():
    """Each donor holds a lease, as on a busy farm, so neither the
    donors nor the outstanding leases may be walked per call."""
    pools = []
    for donors in (8, 1_000):
        server = _server(donors + 2_000, donors=donors)
        for i in range(donors):
            assert server.request_work(f"d{i}", 0.0) is not None
        pools.append(server)
    ratio = _interleaved_ratio(*pools, calls=2_000)
    assert ratio <= 1.5, f"1,000 donors cost {ratio:.2f}x of 8"


def test_request_work_cost_does_not_grow_with_finished_problems():
    busy_history = TaskFarmServer(policy=FixedGranularity(1))
    busy_history.register_donor("d0", 0.0)
    for _ in range(2_000):
        pid = busy_history.submit(
            Problem("one", RangeSumDataManager(1), RangeSumAlgorithm())
        )
        _timed_step(busy_history, "d0", 0.0)
        assert busy_history.all_complete(), pid
    busy_history.submit(
        Problem("sum", RangeSumDataManager(2_000), RangeSumAlgorithm())
    )
    ratio = _interleaved_ratio(_server(2_000, donors=1), busy_history, calls=2_000)
    assert ratio <= 1.5, f"2,000 finished problems cost {ratio:.2f}x of none"
