"""Tests for the donor client loop, in-process port and accounting."""

import pytest

from repro.core.client import DonorClient, InProcessServerPort, run_to_completion
from repro.core.problem import FunctionAlgorithm, Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.status import snapshot
from tests.helpers import (
    ManualClock,
    RangeSumAlgorithm,
    RangeSumDataManager,
    StagedAlgorithm,
    StagedDataManager,
)


def make_setup(n=100, items=10, lease=1000.0):
    clock = ManualClock()
    server = TaskFarmServer(policy=FixedGranularity(items), lease_timeout=lease)
    pid = server.submit(
        Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm()), clock()
    )
    port = InProcessServerPort(server, clock=clock)
    return clock, server, pid, port


class TestDonorClient:
    def test_single_donor_completes_problem(self):
        clock, server, pid, port = make_setup(n=57, items=10)
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        units = client.run()
        assert units == 6  # ceil(57/10)
        assert server.final_result(pid) == sum(range(57))

    def test_client_caches_algorithm(self):
        clock, server, pid, port = make_setup()
        fetches = 0
        real_get = port.get_algorithm

        def counting_get(problem_id):
            nonlocal fetches
            fetches += 1
            return real_get(problem_id)

        port.get_algorithm = counting_get
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        client.run()
        assert fetches == 1

    def test_max_units_limits_work(self):
        clock, server, pid, port = make_setup(n=100, items=10)
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        assert client.run(max_units=3) == 3

    def test_should_stop_halts_loop(self):
        clock, server, pid, port = make_setup(n=1000, items=1)
        calls = {"n": 0}

        def stop():
            calls["n"] += 1
            return calls["n"] > 5

        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        client.run(should_stop=stop)
        assert client.units_done <= 5

    def test_deregister_on_exit(self):
        clock, server, pid, port = make_setup(n=10, items=10)
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        client.run()
        assert server.donor_ids() == []

    def test_staged_problem_with_idle_waits(self):
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(1), lease_timeout=1000.0)
        pid = server.submit(
            Problem("staged", StagedDataManager(8), StagedAlgorithm()), clock()
        )
        port = InProcessServerPort(server, clock=clock)
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        client.run()
        assert server.final_result(pid) == sum(x * x for x in range(8))


class TestRunToCompletion:
    def test_multiple_donors(self):
        server = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=1000.0)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm()), 0.0
        )
        run_to_completion(server, donors=4)
        assert server.final_result(pid) == sum(range(100))
        # all four donors contributed registrations
        assert len(server.donor_ids()) == 4

    def test_function_algorithm(self):
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=1000.0)
        pid = server.submit(
            Problem(
                "sum",
                RangeSumDataManager(30),
                FunctionAlgorithm(lambda span: sum(range(span[0], span[1]))),
            ),
            0.0,
        )
        run_to_completion(server, donors=2)
        assert server.final_result(pid) == sum(range(30))


class TestMetrics:
    def _run(self):
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=1000.0)
        pid = server.submit(
            Problem("sum", RangeSumDataManager(40), RangeSumAlgorithm()), clock()
        )
        server.register_donor("d0", clock())
        server.register_donor("d1", clock())
        donors = ["d0", "d1"]
        i = 0
        while not server.all_complete():
            d = donors[i % 2]
            a = server.request_work(d, clock.advance(1.0))
            if a is None:
                break
            lo, hi = a.payload
            from repro.core.workunit import WorkResult

            server.submit_result(
                WorkResult(pid, a.unit_id, sum(range(lo, hi)), d, 2.0, a.items),
                clock.advance(2.0),
            )
            i += 1
        return server, pid

    def test_problem_accounting(self):
        server, pid = self._run()
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.units.completed"] == 4
        assert counters["farm.items.completed"] == 40
        assert server.makespan(pid) > 0
        assert server.obs.meters.histogram("farm.unit.seconds").mean == (
            pytest.approx(2.0)
        )
        assert counters["farm.units.requeued"] == 0
        assert counters["farm.units.duplicate"] + counters["farm.units.stale"] == 0

    def test_donor_states_aggregate_work(self):
        server, pid = self._run()
        donors = [server.donor_state(d) for d in server.donor_ids()]
        assert [d.donor_id for d in donors] == ["d0", "d1"]
        assert sum(d.units_completed for d in donors) == 4
        assert sum(d.busy_seconds for d in donors) == pytest.approx(8.0)
        status = snapshot(server, server._problems[pid].completed_at)
        assert all(0 < d.utilization <= 1.0 for d in status.donors)
        assert server.status(pid) is ProblemStatus.COMPLETE

    def test_unknown_problem_raises(self):
        server, _pid = self._run()
        with pytest.raises(KeyError):
            server.status(424242)
