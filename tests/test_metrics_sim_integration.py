"""Integration: the farm's accounting on simulated-cluster runs.

The meters, the tracer's spans and the sim report must account for
every item and unit on SimCluster runs with heterogeneity and churn.
"""

import pytest

from repro.cluster.sim import MachineSpec, SimCluster, heterogeneous_pool
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity


def run_sim(machines, policy, traces, seed=5, lease=600.0):
    cluster = SimCluster(
        machines, policy=policy, lease_timeout=lease, seed=seed, execute=False
    )
    pids = [cluster.submit(trace_problem(t)) for t in traces]
    report = cluster.run()
    assert report.completed
    return cluster, report, pids


def counters(cluster) -> dict:
    return cluster.obs.meters.snapshot()["counters"]


class TestProblemMetricsFromSim:
    def test_single_problem_accounting(self):
        cluster, report, (pid,) = run_sim(
            heterogeneous_pool(6, seed=1),
            FixedGranularity(10),
            [WorkloadTrace.single_stage([5.0] * 100)],
        )
        c = counters(cluster)
        assert c["farm.items.completed"] == 100
        assert c["farm.units.completed"] == 10
        (span,) = cluster.obs.tracer.finished_spans("problem")
        assert span.attrs["problem_id"] == pid
        assert span.duration == pytest.approx(report.makespans[pid])
        assert cluster.obs.meters.histogram("farm.unit.seconds").mean > 0
        assert c["farm.units.duplicate"] + c["farm.units.stale"] == 0

    def test_churn_shows_up_as_requeues(self):
        machines = [
            MachineSpec("leaver", sessions=((0.0, 20.0),)),
            MachineSpec("stayer"),
        ]
        cluster, report, (pid,) = run_sim(
            machines,
            FixedGranularity(50),
            [WorkloadTrace.single_stage([1.0] * 100)],
            lease=60.0,
        )
        assert counters(cluster)["farm.items.completed"] == 100
        assert report.results[pid]["items"] == 100
        assert counters(cluster)["farm.units.requeued"] >= 1

    def test_multi_problem_accounting(self):
        cluster, report, pids = run_sim(
            heterogeneous_pool(8, seed=2),
            AdaptiveGranularity(target_seconds=30.0),
            [
                WorkloadTrace.single_stage([2.0] * 150),
                WorkloadTrace.single_stage([4.0] * 80),
            ],
        )
        assert set(report.results) == set(pids)
        total_items = sum(report.results[pid]["items"] for pid in pids)
        assert total_items == 150 + 80
        # The meters must balance the problems' own accounting.
        c = counters(cluster)
        assert c["farm.items.completed"] == total_items
        assert c["farm.problems.completed"] == len(pids)
        assert sum(report.machine_units.values()) >= c["farm.units.completed"]
        assert 0 < report.mean_utilization <= 1.0
        assert sum(report.machine_busy.values()) > 0
        assert report.sim_time >= max(report.makespans.values())

    def test_fast_donor_contributes_more(self):
        machines = [
            MachineSpec("fast", speed=4.0),
            MachineSpec("slow", speed=0.5),
        ]
        cluster, report, _pids = run_sim(
            machines,
            AdaptiveGranularity(target_seconds=20.0),
            [WorkloadTrace.single_stage([1.0] * 400)],
        )
        assert report.machine_units["fast"] > report.machine_units["slow"]
        # Folded units' spans carry the donor and the items it computed.
        items = {"fast": 0, "slow": 0}
        for span in cluster.obs.tracer.finished_spans("unit"):
            if span.status == "ok":
                items[span.attrs["donor_id"]] += span.attrs["items"]
        assert sum(items.values()) == 400
        assert items["fast"] > items["slow"]
