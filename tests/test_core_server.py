"""Tests for the TaskFarmServer state machine: issue/collect, leases,
churn, duplicates, multi-problem fairness, completion."""

import pytest

from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import (
    RangeSumAlgorithm,
    RangeSumDataManager,
    StagedAlgorithm,
    StagedDataManager,
)


def make_server(**kwargs) -> TaskFarmServer:
    kwargs.setdefault("policy", FixedGranularity(10))
    kwargs.setdefault("lease_timeout", 100.0)
    return TaskFarmServer(**kwargs)


def sum_problem(n=100) -> Problem:
    return Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm())


def compute(assignment) -> WorkResult:
    lo, hi = assignment.payload
    return WorkResult(
        problem_id=assignment.problem_id,
        unit_id=assignment.unit_id,
        value=sum(range(lo, hi)),
        donor_id="d0",
        compute_seconds=1.0,
        items=assignment.items,
    )


class TestBasicLifecycle:
    def test_submit_and_complete(self):
        server = make_server()
        pid = server.submit(sum_problem(25), now=0.0)
        server.register_donor("d0", 0.0)
        t = 1.0
        while server.status(pid) is ProblemStatus.RUNNING:
            a = server.request_work("d0", t)
            assert a is not None
            server.submit_result(compute(a), t + 0.5)
            t += 1.0
        assert server.final_result(pid) == sum(range(25))
        assert server.makespan(pid) > 0

    def test_unit_sizes_respect_fixed_policy(self):
        server = make_server(policy=FixedGranularity(7))
        server.submit(sum_problem(20), now=0.0)
        server.register_donor("d0", 0.0)
        sizes = []
        while True:
            a = server.request_work("d0", 1.0)
            if a is None:
                break
            sizes.append(a.items)
            # don't submit results; keep pulling until partition exhausted
        assert sizes == [7, 7, 6]

    def test_final_result_before_complete_raises(self):
        server = make_server()
        pid = server.submit(sum_problem(10), now=0.0)
        with pytest.raises(RuntimeError, match="not complete"):
            server.final_result(pid)

    def test_unknown_problem_raises(self):
        server = make_server()
        with pytest.raises(KeyError, match="unknown problem"):
            server.status(999)

    def test_duplicate_submit_rejected(self):
        server = make_server()
        p = sum_problem(10)
        server.submit(p, 0.0)
        with pytest.raises(ValueError, match="already submitted"):
            server.submit(p, 0.0)

    def test_unregistered_donor_cannot_request(self):
        server = make_server()
        server.submit(sum_problem(10), 0.0)
        with pytest.raises(KeyError, match="unregistered donor"):
            server.request_work("ghost", 1.0)

    def test_progress_tracks_items(self):
        server = make_server(policy=FixedGranularity(50))
        pid = server.submit(sum_problem(100), 0.0)
        server.register_donor("d0", 0.0)
        assert server.progress(pid) == 0.0
        a = server.request_work("d0", 1.0)
        server.submit_result(compute(a), 2.0)
        assert server.progress(pid) == pytest.approx(0.5)


class TestLeaseExpiry:
    def test_expired_unit_requeued_and_recomputed(self):
        server = make_server(lease_timeout=10.0)
        pid = server.submit(sum_problem(10), 0.0)
        server.register_donor("slow", 0.0)
        server.register_donor("fast", 0.0)
        a = server.request_work("slow", 1.0)  # whole problem in one unit
        assert a is not None
        # lease expires at t=11; "slow" never returns
        assert server.expire_leases(12.0) == 1
        b = server.request_work("fast", 13.0)
        assert b is not None
        assert b.unit_id == a.unit_id
        result = compute(b)
        server.submit_result(
            WorkResult(pid, b.unit_id, result.value, "fast", 1.0, b.items), 14.0
        )
        assert server.status(pid) is ProblemStatus.COMPLETE
        assert server.final_result(pid) == sum(range(10))

    def test_late_result_after_expiry_still_counts(self):
        server = make_server(lease_timeout=10.0)
        pid = server.submit(sum_problem(10), 0.0)
        server.register_donor("slow", 0.0)
        a = server.request_work("slow", 1.0)
        server.expire_leases(20.0)  # requeued, not yet reissued
        ok = server.submit_result(compute(a), 21.0)
        assert ok
        assert server.status(pid) is ProblemStatus.COMPLETE
        # The ghost copy must not be reissued afterwards.
        server.register_donor("d1", 22.0)
        assert server.request_work("d1", 22.0) is None

    def test_duplicate_result_dropped(self):
        server = make_server(lease_timeout=10.0)
        pid = server.submit(sum_problem(30), 0.0)
        server.register_donor("a", 0.0)
        server.register_donor("b", 0.0)
        ua = server.request_work("a", 1.0)
        server.expire_leases(15.0)
        ub = server.request_work("b", 16.0)
        assert ub.unit_id == ua.unit_id
        r_b = WorkResult(pid, ub.unit_id, sum(range(*ub.payload)), "b", 1.0, ub.items)
        assert server.submit_result(r_b, 17.0)
        r_a = WorkResult(pid, ua.unit_id, sum(range(*ua.payload)), "a", 9.0, ua.items)
        assert not server.submit_result(r_a, 18.0)  # duplicate
        # exactly-once: total items applied equals one copy
        dm_total = server._state(pid).items_completed
        assert dm_total == ua.items

    def test_heartbeat_renews_lease(self):
        server = make_server(lease_timeout=10.0)
        server.submit(sum_problem(10), 0.0)
        server.register_donor("d0", 0.0)
        server.request_work("d0", 0.0)
        server.heartbeat("d0", 8.0)  # extends deadline to 18
        assert server.expire_leases(12.0) == 0
        assert server.expire_leases(19.0) == 1

    def test_result_for_completed_problem_is_stale(self):
        server = make_server()
        pid = server.submit(sum_problem(10), 0.0)
        server.register_donor("d0", 0.0)
        a = server.request_work("d0", 1.0)
        server.submit_result(compute(a), 2.0)
        assert server.status(pid) is ProblemStatus.COMPLETE
        assert not server.submit_result(compute(a), 3.0)
        assert server.obs.meters.counter("farm.units.stale").value == 1


class TestDonorChurn:
    def test_deregister_requeues_active_unit(self):
        server = make_server()
        pid = server.submit(sum_problem(10), 0.0)
        server.register_donor("d0", 0.0)
        a = server.request_work("d0", 1.0)
        server.deregister_donor("d0", 2.0)
        server.register_donor("d1", 3.0)
        b = server.request_work("d1", 4.0)
        assert b is not None and b.unit_id == a.unit_id
        server.submit_result(
            WorkResult(pid, b.unit_id, sum(range(*b.payload)), "d1", 1.0, b.items), 5.0
        )
        assert server.final_result(pid) == sum(range(10))

    def test_reregistration_is_clean_churn(self):
        server = make_server()
        server.submit(sum_problem(100), 0.0)
        server.register_donor("d0", 0.0)
        server.request_work("d0", 1.0)
        server.register_donor("d0", 2.0)  # reboot: implicit deregister
        assert server.obs.meters.counter("farm.units.requeued").value == 1

    def test_deregister_unknown_donor_is_noop(self):
        server = make_server()
        server.deregister_donor("never-registered", 0.0)


class TestMultiProblem:
    def test_round_robin_across_problems(self):
        server = make_server(policy=FixedGranularity(1))
        p1 = server.submit(sum_problem(50), 0.0)
        p2 = server.submit(sum_problem(50), 0.0)
        server.register_donor("d0", 0.0)
        seen = [server.request_work("d0", float(i)).problem_id for i in range(6)]
        # alternates between the two problems
        assert seen.count(p1) == 3
        assert seen.count(p2) == 3
        assert seen[0] != seen[1]

    def test_priority_classes(self):
        server = make_server(policy=FixedGranularity(1))
        urgent = Problem("urgent", RangeSumDataManager(5), RangeSumAlgorithm(), priority=0)
        casual = Problem("casual", RangeSumDataManager(5), RangeSumAlgorithm(), priority=5)
        server.submit(casual, 0.0)
        server.submit(urgent, 0.0)
        server.register_donor("d0", 0.0)
        first = server.request_work("d0", 1.0)
        assert first.problem_id == urgent.problem_id

    def test_both_problems_complete(self):
        server = make_server(policy=FixedGranularity(25))
        p1 = server.submit(sum_problem(50), 0.0)
        p2 = server.submit(sum_problem(80), 0.0)
        server.register_donor("d0", 0.0)
        t = 1.0
        while not server.all_complete():
            a = server.request_work("d0", t)
            if a is None:
                break
            server.submit_result(compute(a), t)
            t += 1.0
        assert server.final_result(p1) == sum(range(50))
        assert server.final_result(p2) == sum(range(80))


class TestStagedComputation:
    def test_barrier_then_stage2(self):
        server = make_server(policy=FixedGranularity(1))
        pid = server.submit(
            Problem("staged", StagedDataManager(8), StagedAlgorithm()), 0.0
        )
        server.register_donor("d0", 0.0)
        algo = server.get_algorithm(pid)
        t = 1.0
        idle_seen = False
        stage1 = []
        # Issue all stage-1 units but hold results: server must go idle.
        for _ in range(8):
            a = server.request_work("d0", t)
            assert a is not None
            stage1.append(a)
        assert server.request_work("d0", t) is None  # barrier
        idle_seen = True
        for a in stage1:
            server.submit_result(
                WorkResult(pid, a.unit_id, algo.compute(a.payload), "d0", 1.0, 1), t
            )
            t += 1.0
        # Stage 2 units now exist.
        progressed = 0
        while server.status(pid) is ProblemStatus.RUNNING:
            a = server.request_work("d0", t)
            assert a is not None
            server.submit_result(
                WorkResult(pid, a.unit_id, algo.compute(a.payload), "d0", 1.0, 1), t
            )
            t += 1.0
            progressed += 1
        assert idle_seen
        assert progressed == 4  # n/2 pair-sums
        assert server.final_result(pid) == sum(x * x for x in range(8))
