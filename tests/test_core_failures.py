"""Tests for Algorithm-failure reporting and poison-unit handling."""

import pytest

from repro.cluster.local import ServerFacade, ThreadCluster
from repro.core.client import DonorClient, InProcessServerPort
from repro.core.problem import FunctionAlgorithm, Problem
from repro.core.scheduler import FixedGranularity
from repro.core.server import ProblemStatus, TaskFarmServer
from tests.helpers import ManualClock, RangeSumAlgorithm, RangeSumDataManager


def counter(server, name: str) -> float:
    return server.obs.meters.counter(name).value


def flaky_algorithm(fail_spans: set[tuple[int, int]], failures_left: dict):
    """Fails the given spans a limited number of times, then succeeds."""

    def compute(span):
        if tuple(span) in fail_spans and failures_left.get(tuple(span), 0) > 0:
            failures_left[tuple(span)] -= 1
            raise ValueError(f"transient failure on {span}")
        return sum(range(*span))

    return FunctionAlgorithm(compute)


class TestTransientFailures:
    def test_flaky_unit_recovers(self):
        clock = ManualClock()
        server = TaskFarmServer(
            policy=FixedGranularity(10), lease_timeout=1e6, max_unit_attempts=5
        )
        counters = {(0, 10): 2}  # first unit fails twice, then works
        pid = server.submit(
            Problem("flaky", RangeSumDataManager(30), flaky_algorithm({(0, 10)}, counters)),
            clock(),
        )
        port = InProcessServerPort(server, clock=clock)
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        client.run()
        assert server.final_result(pid) == sum(range(30))
        assert client.failures == 2
        assert counter(server, "farm.units.failed") == 2
        assert counter(server, "farm.units.requeued") == 2

    def test_failure_events_carry_error_text(self):
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=1e6)
        counters = {(0, 10): 1}
        server.submit(
            Problem("f", RangeSumDataManager(10), flaky_algorithm({(0, 10)}, counters)),
            clock(),
        )
        port = InProcessServerPort(server, clock=clock)
        DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock).run()
        (span,) = [
            s for s in server.obs.tracer.finished_spans("unit") if s.status == "failed"
        ]
        assert "transient failure" in span.attrs["error"]
        assert span.attrs["attempt"] == 1


def _poison_compute(span):
    """Module-level (picklable) Algorithm body with a deterministic bug."""
    if span[0] == 0:
        raise RuntimeError("deterministic bug in user code")
    return sum(range(*span))


class TestPoisonUnit:
    def poison_problem(self, n=30):
        return Problem(
            "poison", RangeSumDataManager(n), FunctionAlgorithm(_poison_compute)
        )

    def test_problem_fails_after_max_attempts(self):
        clock = ManualClock()
        server = TaskFarmServer(
            policy=FixedGranularity(10), lease_timeout=1e6, max_unit_attempts=3
        )
        pid = server.submit(self.poison_problem(), clock())
        port = InProcessServerPort(server, clock=clock)
        client = DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock)
        client.run()
        assert server.status(pid) is ProblemStatus.FAILED
        assert "deterministic bug" in server.failure_reason(pid)
        assert counter(server, "farm.units.failed") == 3
        with pytest.raises(RuntimeError, match="failed"):
            server.final_result(pid)

    def test_failed_problem_frees_the_pool(self):
        """Other problems keep running after one fails."""
        clock = ManualClock()
        server = TaskFarmServer(
            policy=FixedGranularity(10), lease_timeout=1e6, max_unit_attempts=2
        )
        bad = server.submit(self.poison_problem(10), clock())
        good = server.submit(
            Problem("good", RangeSumDataManager(40), RangeSumAlgorithm()), clock()
        )
        port = InProcessServerPort(server, clock=clock)
        DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock).run()
        assert server.status(bad) is ProblemStatus.FAILED
        assert server.final_result(good) == sum(range(40))

    def test_thread_cluster_surfaces_failure(self):
        cluster = ThreadCluster(workers=2, policy=FixedGranularity(10))
        pid = cluster.submit(self.poison_problem())
        cluster.run()  # donors drain and exit despite the failure
        with pytest.raises(RuntimeError, match="deterministic bug"):
            cluster.final_result(pid)

    def test_checkpoint_preserves_failure(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        clock = ManualClock()
        server = TaskFarmServer(
            policy=FixedGranularity(10), lease_timeout=1e6, max_unit_attempts=1
        )
        pid = server.submit(self.poison_problem(10), clock())
        port = InProcessServerPort(server, clock=clock)
        DonorClient("d0", port, sleep=lambda s: clock.advance(s), clock=clock).run()
        assert server.status(pid) is ProblemStatus.FAILED

        path = tmp_path / "failed.ckpt"
        save_checkpoint(server, path, now=clock())
        fresh = TaskFarmServer(policy=FixedGranularity(10))
        load_checkpoint(path, fresh, now=0.0)
        assert fresh.status(pid) is ProblemStatus.FAILED
        assert "deterministic bug" in fresh.failure_reason(pid)


class TestValidation:
    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            TaskFarmServer(max_unit_attempts=0)

    def test_stale_failure_report_ignored(self):
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=1e6)
        pid = server.submit(
            Problem("p", RangeSumDataManager(10), RangeSumAlgorithm()), clock()
        )
        server.register_donor("d0", clock())
        a = server.request_work("d0", clock.advance(1.0))
        from repro.core.workunit import WorkResult

        server.submit_result(
            WorkResult(pid, a.unit_id, sum(range(*a.payload)), "d0", 1.0, a.items),
            clock.advance(1.0),
        )
        # Late failure report for an already-completed unit: a no-op.
        server.report_failure(pid, a.unit_id, "d0", "too late", clock.advance(1.0))
        assert server.status(pid) is ProblemStatus.COMPLETE


class TestQuorumExactlyOnce:
    """A quorum-accepted unit folds into the DataManager exactly once,
    no matter how many extra replicas straggle in afterwards."""

    class _CountingDataManager(RangeSumDataManager):
        def __init__(self, n):
            super().__init__(n)
            self.folds: dict[int, int] = {}

        def handle_result(self, result):
            self.folds[result.unit_id] = self.folds.get(result.unit_id, 0) + 1
            super().handle_result(result)

    def test_late_third_replica_not_folded_twice(self):
        from repro.core.integrity import IntegrityPolicy
        from repro.core.workunit import WorkResult

        clock = ManualClock()
        dm = self._CountingDataManager(20)
        server = TaskFarmServer(
            policy=FixedGranularity(10),
            lease_timeout=1e6,
            integrity=IntegrityPolicy(replication=3, quorum=2),
        )
        pid = server.submit(Problem("sum", dm, RangeSumAlgorithm()), clock())
        for donor_id in ("d0", "d1", "d2"):
            server.register_donor(donor_id, clock())
        # All three replicas of the first unit go out...
        assignments = {
            donor_id: server.request_work(donor_id, clock.advance(1.0))
            for donor_id in ("d0", "d1", "d2")
        }
        assert all(a is not None for a in assignments.values())
        assert len({a.unit_id for a in assignments.values()}) == 1
        first_unit = assignments["d0"].unit_id

        def result_from(donor_id, a=None):
            a = a or assignments[donor_id]
            return WorkResult(
                pid, a.unit_id, sum(range(*a.payload)), donor_id, 1.0, a.items
            )

        # ...two agreeing votes reach quorum and accept the unit...
        assert server.submit_result(result_from("d0"), clock.advance(1.0))
        assert server.submit_result(result_from("d1"), clock.advance(1.0))
        assert dm.folds == {first_unit: 1}
        # ...and the late third replica is a duplicate, not a re-fold.
        assert server.submit_result(result_from("d2"), clock.advance(1.0)) is False
        assert dm.folds == {first_unit: 1}
        assert counter(server, "farm.units.duplicate") == 1

        # Finish the second unit through its own quorum.
        second = {
            donor_id: server.request_work(donor_id, clock.advance(1.0))
            for donor_id in ("d0", "d1")
        }
        assert server.submit_result(
            result_from("d0", second["d0"]), clock.advance(1.0)
        )
        assert server.submit_result(
            result_from("d1", second["d1"]), clock.advance(1.0)
        )
        assert server.status(pid) is ProblemStatus.COMPLETE
        assert server.final_result(pid) == sum(range(20))
        assert dm.folds == {first_unit: 1, second["d0"].unit_id: 1}
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.units.duplicate"] == 1
        assert counters["farm.units.completed"] == 2
