"""End-of-run reconciliation: streaming meters == journal records.

The meters are the live instrument panel; the write-ahead journal is
the flight recorder, and the stronger oracle: it survives a crash.
Both are updated at the same program points, so at the end of any run
— simulated or live, calm or churning — the counter totals must equal
the journal's records *exactly*: every fold, its items and every
submit.
"""

from __future__ import annotations

import time

from repro.cluster.local import ThreadCluster
from repro.cluster.sim import SimCluster
from repro.cluster.sim.machines import MachineSpec
from repro.core.journal import read_journal
from repro.core.problem import Algorithm, Problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity
from repro.core.server import TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import (
    ManualClock,
    RangeSumAlgorithm,
    RangeSumDataManager,
    check_folds_once,
    journaled,
)


def assert_reconciles(server) -> None:
    """Meter totals must equal the journal's records, kind for kind."""
    counters = server.obs.meters.snapshot()["counters"]
    records, _, _ = read_journal(server.journal.store)
    folds = [r["result"] for r in records if r["kind"] == "unit.fold"]
    submits = [r for r in records if r["kind"] == "problem.submit"]
    assert counters["farm.units.completed"] == len(folds)
    assert counters["farm.items.completed"] == sum(r.items for r in folds)
    assert counters["farm.bytes.out"] == sum(r.output_bytes for r in folds)
    assert counters["farm.problems.submitted"] == len(submits)
    # And the per-unit histogram saw exactly the folded units.
    assert server.obs.meters.histogram("farm.unit.seconds").count == len(folds)
    check_folds_once(server.journal.store)


class TestSimReconciliation:
    def test_calm_run(self):
        cluster = SimCluster(
            [MachineSpec(f"m{i}", speed=1.0 + 0.5 * i) for i in range(4)],
            policy=AdaptiveGranularity(target_seconds=10.0),
            seed=5,
        )
        journaled(cluster.server)
        cluster.submit(Problem("a", RangeSumDataManager(500), RangeSumAlgorithm()))
        cluster.submit(Problem("b", RangeSumDataManager(300), RangeSumAlgorithm()))
        assert cluster.run().completed
        assert_reconciles(cluster.server)

    def test_churning_run_with_requeues(self):
        """Machines leave mid-compute; leases expire; units reissue.
        The books must still balance to the cent."""
        machines = [
            MachineSpec("steady", speed=1.0),
            # Joins late, leaves early — abandons whatever it holds.
            MachineSpec("flaky1", speed=0.4, sessions=((5.0, 60.0), (200.0, 260.0))),
            MachineSpec("flaky2", speed=0.3, sessions=((0.0, 45.0),)),
        ]
        cluster = SimCluster(
            machines,
            policy=FixedGranularity(25),
            lease_timeout=30.0,
            seed=9,
        )
        journaled(cluster.server)
        cluster.submit(Problem("sum", RangeSumDataManager(600), RangeSumAlgorithm()))
        report = cluster.run()
        assert report.completed
        counters = cluster.server.obs.meters.snapshot()["counters"]
        assert counters["farm.units.requeued"] > 0, (
            "churn scenario produced no requeues; scenario needs retuning"
        )
        assert_reconciles(cluster.server)


class _SlowRangeSum(Algorithm):
    """RangeSum that outlives a short lease, forcing live requeues."""

    def __init__(self, delay: float):
        self.delay = delay

    def compute(self, payload):
        lo, hi = payload
        time.sleep(self.delay)
        return sum(range(lo, hi))

    def cost(self, payload) -> float:
        lo, hi = payload
        return float(hi - lo)


class TestLiveReconciliation:
    def test_threadcluster_with_expiring_leases(self):
        """A real wall-clock run where every unit overruns its lease:
        expiries, requeues and duplicate results all occur, and the
        meters still reconcile exactly."""
        cluster = ThreadCluster(
            workers=3,
            policy=FixedGranularity(10),
            lease_timeout=0.02,
            idle_sleep=0.001,
        )
        journaled(cluster.server)
        cluster.submit(Problem("slow", RangeSumDataManager(80), _SlowRangeSum(0.05)))
        cluster.run()
        counters = cluster.server.obs.meters.snapshot()["counters"]
        assert counters["farm.units.completed"] > 0
        assert counters["farm.units.requeued"] > 0, (
            "leases never expired; timing constants need retuning"
        )
        assert_reconciles(cluster.server)

    def test_manual_clock_donor_churn(self):
        """Deterministic churn: a donor takes a unit and deregisters
        without returning it; a second donor cleans up."""
        server = journaled(
            TaskFarmServer(policy=FixedGranularity(5), lease_timeout=1e9)
        )
        clock = ManualClock()
        pid = server.submit(
            Problem("sum", RangeSumDataManager(40), RangeSumAlgorithm()), clock()
        )
        server.register_donor("quitter", clock())
        held = server.request_work("quitter", clock())
        assert held is not None
        clock.advance(1.0)
        server.deregister_donor("quitter", clock())  # requeues the held unit

        server.register_donor("steady", clock())
        while not server.all_complete():
            a = server.request_work("steady", clock())
            clock.advance(1.0)
            server.submit_result(
                WorkResult(
                    problem_id=pid,
                    unit_id=a.unit_id,
                    value=sum(range(*a.payload)),
                    donor_id="steady",
                    compute_seconds=1.0,
                    items=a.items,
                ),
                clock(),
            )
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.units.requeued"] == 1
        assert server.final_result(pid) == 40 * 39 // 2
        assert_reconciles(server)
