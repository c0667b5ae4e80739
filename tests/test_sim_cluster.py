"""Tests for machine models, the network model, trace workloads and the
simulated cluster end to end."""

import math

import numpy as np
import pytest

from repro.cluster.sim import (
    MachineSpec,
    NetworkModel,
    SimCluster,
    Simulator,
    heterogeneous_pool,
    homogeneous_pool,
)
from repro.cluster.sim.machines import churn_sessions, with_churn
from repro.cluster.sim.network import NetworkConfig
from repro.cluster.sim.trace import (
    TraceAlgorithm,
    TraceDataManager,
    TraceStage,
    WorkloadTrace,
    trace_problem,
)
from repro.core.problem import Problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity
from tests.helpers import RangeSumAlgorithm, RangeSumDataManager


class TestMachineSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec("m", speed=0)
        with pytest.raises(ValueError):
            MachineSpec("m", availability=0)
        with pytest.raises(ValueError):
            MachineSpec("m", availability=1.5)
        with pytest.raises(ValueError):
            MachineSpec("m", sessions=((5.0, 5.0),))

    def test_effective_rate_without_jitter(self):
        spec = MachineSpec("m", speed=2.0, availability=0.5)
        rng = np.random.default_rng(0)
        assert spec.effective_rate(rng) == pytest.approx(1.0)

    def test_effective_rate_with_jitter_bounded(self):
        spec = MachineSpec("m", speed=1.0, availability=0.8, availability_jitter=0.2)
        rng = np.random.default_rng(0)
        rates = [spec.effective_rate(rng) for _ in range(200)]
        assert all(0.8 * 0.8 - 1e-9 <= r <= 0.8 * 1.2 + 1e-9 for r in rates)
        assert max(rates) <= 1.0  # availability never exceeds 100%

    def test_present_at(self):
        spec = MachineSpec("m", sessions=((0.0, 10.0), (20.0, 30.0)))
        assert spec.present_at(5.0)
        assert not spec.present_at(15.0)
        assert spec.present_at(25.0)
        always = MachineSpec("m2")
        assert always.present_at(1e9)

    def test_pools(self):
        homo = homogeneous_pool(5, speed=2.0)
        assert len(homo) == 5
        assert all(m.speed == 2.0 for m in homo)
        assert len({m.machine_id for m in homo}) == 5

        hetero = heterogeneous_pool(20, seed=1, speed_range=(0.25, 2.0))
        speeds = [m.speed for m in hetero]
        assert min(speeds) >= 0.25 and max(speeds) <= 2.0
        assert max(speeds) / min(speeds) > 2  # genuinely heterogeneous

    def test_heterogeneous_pool_deterministic(self):
        a = heterogeneous_pool(5, seed=7)
        b = heterogeneous_pool(5, seed=7)
        assert [m.speed for m in a] == [m.speed for m in b]

    def test_churn_sessions(self):
        rng = np.random.default_rng(0)
        sessions = churn_sessions(1000.0, 100.0, 50.0, rng)
        assert sessions
        for (s1, e1), (s2, _e2) in zip(sessions, sessions[1:]):
            assert e1 > s1
            assert s2 > e1  # non-overlapping, ordered
        assert all(e <= 1000.0 for _s, e in sessions)

    def test_with_churn_preserves_specs(self):
        pool = with_churn(homogeneous_pool(3), 1000.0, 100.0, 10.0, seed=3)
        assert all(m.sessions for m in pool)
        assert [m.speed for m in pool] == [1.0, 1.0, 1.0]


class TestNetworkModel:
    def test_transfer_time(self):
        sim = Simulator()
        net = NetworkModel(sim, NetworkConfig(bandwidth=1e6, latency=0.0))
        assert net.transfer_seconds(1_000_000) == pytest.approx(1.0)

    def test_shared_link_serializes(self):
        sim = Simulator()
        net = NetworkModel(sim, NetworkConfig(bandwidth=1e6, latency=0.0))
        ends = []

        def sender():
            yield from net.transmit(1_000_000)
            ends.append(sim.now)

        sim.spawn(sender())
        sim.spawn(sender())
        sim.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]
        assert net.bytes_transferred == 2_000_000

    def test_latency_not_on_link(self):
        # Two zero-byte messages with latency don't queue behind each other.
        sim = Simulator()
        net = NetworkModel(sim, NetworkConfig(bandwidth=1e6, latency=0.5))
        ends = []

        def sender():
            yield from net.transmit(0)
            ends.append(sim.now)

        sim.spawn(sender())
        sim.spawn(sender())
        sim.run()
        assert ends == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkConfig(latency=-1)


class TestWorkloadTrace:
    def test_totals(self):
        trace = WorkloadTrace(
            (TraceStage((1.0, 2.0, 3.0)), TraceStage((4.0, 5.0)))
        )
        assert trace.total_cost == pytest.approx(15.0)
        assert trace.total_items == 5
        assert trace.critical_path == pytest.approx(3.0 + 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadTrace(())
        with pytest.raises(ValueError):
            TraceStage(())
        with pytest.raises(ValueError):
            TraceStage((1.0, -2.0))

    def test_single_stage_helper(self):
        trace = WorkloadTrace.single_stage([1, 2, 3], name="t")
        assert len(trace.stages) == 1
        assert trace.total_cost == 6.0

    def test_datamanager_partitions_and_barriers(self):
        trace = WorkloadTrace((TraceStage((1.0,) * 6), TraceStage((2.0,) * 2)))
        dm = TraceDataManager(trace)
        first = dm.next_unit(4)
        assert first.items == 4
        second = dm.next_unit(4)
        assert second.items == 2
        assert dm.next_unit(4) is None  # barrier: stage 1 outstanding
        from repro.core.workunit import WorkResult

        dm.handle_result(WorkResult(0, 0, None, items=4))
        assert dm.next_unit(4) is None  # still one unit outstanding
        dm.handle_result(WorkResult(0, 1, None, items=2))
        third = dm.next_unit(10)  # stage 2 unlocked
        assert third.items == 2
        assert third.cost_hint == pytest.approx(4.0)
        dm.handle_result(WorkResult(0, 2, None, items=2))
        assert dm.is_complete()

    def test_algorithm_cost(self):
        assert TraceAlgorithm().cost((1.0, 2.5)) == pytest.approx(3.5)


class TestSimCluster:
    def test_real_execution_produces_correct_result(self):
        cluster = SimCluster(
            homogeneous_pool(4),
            policy=FixedGranularity(10),
            seed=1,
        )
        pid = cluster.submit(
            Problem("sum", RangeSumDataManager(100), RangeSumAlgorithm())
        )
        report = cluster.run()
        assert report.completed
        assert report.results[pid] == sum(range(100))
        assert report.makespans[pid] > 0

    def test_more_machines_finish_faster(self):
        def runtime(n_machines):
            cluster = SimCluster(
                homogeneous_pool(n_machines),
                policy=FixedGranularity(5),
                seed=1,
                execute=False,
            )
            pid = cluster.submit(
                trace_problem(WorkloadTrace.single_stage([10.0] * 100))
            )
            return cluster.run().makespans[pid]

        t1, t4, t16 = runtime(1), runtime(4), runtime(16)
        assert t1 > t4 > t16
        assert t1 / t4 == pytest.approx(4.0, rel=0.15)

    def test_fast_machine_does_more_work(self):
        machines = [
            MachineSpec("fast", speed=4.0),
            MachineSpec("slow", speed=1.0),
        ]
        cluster = SimCluster(
            machines, policy=AdaptiveGranularity(target_seconds=20.0), seed=1,
            execute=False,
        )
        cluster.submit(trace_problem(WorkloadTrace.single_stage([1.0] * 400)))
        report = cluster.run()
        assert report.completed
        assert report.machine_units["fast"] >= report.machine_units["slow"]
        fast_items = report.machine_busy["fast"]
        slow_items = report.machine_busy["slow"]
        assert fast_items > 0 and slow_items > 0

    def test_determinism(self):
        def run_once():
            cluster = SimCluster(
                heterogeneous_pool(8, seed=3),
                policy=AdaptiveGranularity(target_seconds=10.0),
                seed=42,
                execute=False,
            )
            pid = cluster.submit(
                trace_problem(WorkloadTrace.single_stage([2.0] * 200))
            )
            return cluster.run().makespans[pid]

        assert run_once() == run_once()

    def test_churned_machine_work_is_reissued(self):
        # One machine leaves after 5s holding a huge unit; the stable one
        # must eventually complete everything.
        machines = [
            MachineSpec("flaky", speed=1.0, sessions=((0.0, 5.0),)),
            MachineSpec("stable", speed=1.0),
        ]
        cluster = SimCluster(
            machines,
            policy=FixedGranularity(50),
            lease_timeout=30.0,
            seed=1,
            execute=False,
        )
        pid = cluster.submit(trace_problem(WorkloadTrace.single_stage([1.0] * 100)))
        report = cluster.run()
        assert report.completed
        assert report.results[pid]["items"] == 100
        requeues = cluster.obs.meters.counter("farm.units.requeued").value
        assert requeues  # the flaky machine's unit came back

    def test_staged_trace_respects_barrier(self):
        # Stage 2 items cannot start before every stage 1 item ends.
        trace = WorkloadTrace(
            (TraceStage((10.0,) * 8), TraceStage((10.0,) * 8)), name="staged"
        )
        cluster = SimCluster(
            homogeneous_pool(8),
            policy=FixedGranularity(1),
            seed=1,
            execute=False,
        )
        pid = cluster.submit(trace_problem(trace))
        report = cluster.run()
        assert report.completed
        # With 8 machines and a barrier the makespan is ~2 stage-lengths,
        # strictly more than the no-barrier bound of 160/8 = 20.
        assert report.makespans[pid] >= 20.0

    def test_multiple_problems_share_pool(self):
        cluster = SimCluster(
            homogeneous_pool(4),
            policy=FixedGranularity(10),
            seed=1,
            execute=False,
        )
        p1 = cluster.submit(trace_problem(WorkloadTrace.single_stage([1.0] * 50)))
        p2 = cluster.submit(trace_problem(WorkloadTrace.single_stage([1.0] * 50)))
        report = cluster.run()
        assert report.completed
        assert set(report.makespans) == {p1, p2}

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one machine"):
            SimCluster([])
        with pytest.raises(ValueError, match="unique"):
            SimCluster([MachineSpec("x"), MachineSpec("x")])

    def test_run_until_horizon_incomplete(self):
        cluster = SimCluster(
            homogeneous_pool(1),
            policy=FixedGranularity(1),
            seed=1,
            execute=False,
        )
        cluster.submit(trace_problem(WorkloadTrace.single_stage([100.0] * 10)))
        report = cluster.run(until=50.0)
        assert not report.completed
        assert report.makespans == {}
