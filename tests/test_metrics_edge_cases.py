"""Degenerate-input regression tests for the accounting layer.

The divisions hiding in the status panel's utilization and the
histogram statistics must be defined for empty farms, empty runs and
zero-span donor careers — the states every farm passes through at
startup.
"""

from __future__ import annotations

import pytest

from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from repro.core.problem import Problem
from repro.core.status import render_status, snapshot, snapshot_dict
from repro.core.workunit import WorkResult
from tests.helpers import RangeSumAlgorithm, RangeSumDataManager


def donor_utilization(registered: float, busy: float, now: float) -> float:
    """The status panel's utilization of a donor registered at
    *registered* that reports one unit of *busy* compute seconds at
    *now* (no unit at all when *busy* is 0)."""
    server = TaskFarmServer(policy=FixedGranularity(4))
    pid = server.submit(
        Problem("one", RangeSumDataManager(4), RangeSumAlgorithm()), now=registered
    )
    server.register_donor("d", now=registered)
    if busy:
        a = server.request_work("d", now=registered)
        result = WorkResult(pid, a.unit_id, sum(range(*a.payload)), "d", busy, a.items)
        server.submit_result(result, now=now)
    (donor,) = snapshot(server, now).donors
    return donor.utilization


class TestDonorUtilization:
    def test_zero_span_with_work_is_fully_utilized(self):
        """A donor whose whole recorded career is one instant but which
        did complete work was busy for all the time we saw it."""
        assert donor_utilization(5.0, busy=1.0, now=5.0) == 1.0

    def test_zero_span_without_work_is_idle(self):
        assert donor_utilization(5.0, busy=0.0, now=5.0) == 0.0

    def test_utilization_is_capped_at_one(self):
        # Clock skew between donor-reported compute time and server
        # timestamps can push busy over span; never report > 100%.
        assert donor_utilization(0.0, busy=10.0, now=5.0) == 1.0

    def test_normal_fraction(self):
        assert donor_utilization(0.0, busy=2.0, now=8.0) == pytest.approx(0.25)


class TestEmptyFarm:
    def test_empty_server_snapshots_cleanly(self):
        server = TaskFarmServer()
        snap = snapshot_dict(server, now=0.0)
        assert snap["problems"] == [] and snap["donors"] == []
        # The farm counters exist from birth but have counted nothing.
        assert all(v == 0 for v in snap["meters"]["counters"].values())
        assert "donor" in render_status(server, now=0.0)  # header renders

    def test_registered_but_idle_donor(self):
        server = TaskFarmServer()
        server.register_donor("d0", now=1.0)
        snap = snapshot_dict(server, now=1.0)  # zero-span presence
        (donor,) = snap["donors"]
        assert donor["utilization"] == 0.0
        assert donor["items_per_second"] == 0.0


class TestSingleUnitRun:
    def test_instantaneous_single_unit_run(self):
        """Everything happens at t=0: one unit, zero elapsed time.

        Every derived statistic must still be finite and sensible."""
        server = TaskFarmServer(policy=FixedGranularity(4))
        pid = server.submit(
            Problem("one", RangeSumDataManager(4), RangeSumAlgorithm()), now=0.0
        )
        server.register_donor("d0", now=0.0)
        a = server.request_work("d0", now=0.0)
        server.submit_result(
            WorkResult(
                problem_id=pid,
                unit_id=a.unit_id,
                value=sum(range(*a.payload)),
                donor_id="d0",
                compute_seconds=0.5,  # donor-measured, server saw no time pass
                items=a.items,
            ),
            now=0.0,
        )
        assert server.obs.meters.counter("farm.units.completed").value == 1
        assert server.makespan(pid) == 0.0
        (donor,) = snapshot(server, now=0.0).donors
        assert donor.utilization == 1.0  # zero span, real work
        h = server.obs.meters.histogram("farm.unit.seconds")
        assert h.count == 1 and h.mean == pytest.approx(0.5)
