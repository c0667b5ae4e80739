"""Property-based invariants of the simulated task farm.

Whatever the churn pattern, pool composition or granularity policy,
the farm must satisfy its conservation laws: every item completed
exactly once, no phantom work (both read back from the journal),
makespan at least the theoretical bound.  Hypothesis searches the configuration
space for violations.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.sim import MachineSpec, SimCluster
from repro.cluster.sim.machines import with_churn
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity
from tests.helpers import check_folds_once, check_invariants, journaled


@st.composite
def pools(draw):
    """Small random heterogeneous pools, possibly with churn."""
    count = draw(st.integers(1, 8))
    machines = [
        MachineSpec(
            machine_id=f"m{i}",
            speed=draw(st.floats(0.25, 4.0)),
            availability=draw(st.floats(0.3, 1.0)),
            availability_jitter=draw(st.floats(0.0, 0.3)),
        )
        for i in range(count)
    ]
    churny = draw(st.booleans())
    if churny:
        machines = with_churn(
            machines,
            horizon=1e6,
            mean_uptime=draw(st.floats(200.0, 5000.0)),
            mean_downtime=draw(st.floats(50.0, 1000.0)),
            seed=draw(st.integers(0, 100)),
        )
    return machines


@st.composite
def workloads(draw):
    n_stages = draw(st.integers(1, 3))
    stages = []
    for _ in range(n_stages):
        n_items = draw(st.integers(1, 60))
        cost = draw(st.floats(0.5, 50.0))
        stages.append(tuple([cost] * n_items))
    return stages


@st.composite
def policies(draw):
    if draw(st.booleans()):
        return FixedGranularity(draw(st.integers(1, 20)))
    return AdaptiveGranularity(
        target_seconds=draw(st.floats(5.0, 500.0)),
        probe_items=draw(st.integers(1, 4)),
    )


@settings(max_examples=25, deadline=None)
@given(pool=pools(), stage_costs=workloads(), policy=policies(), seed=st.integers(0, 1000))
def test_farm_conservation_laws(pool, stage_costs, policy, seed):
    from repro.cluster.sim.trace import TraceStage

    trace = WorkloadTrace(tuple(TraceStage(costs) for costs in stage_costs))
    cluster = SimCluster(
        pool, policy=policy, lease_timeout=300.0, seed=seed, execute=False
    )
    journaled(cluster.server)
    pid = cluster.submit(trace_problem(trace))
    report = cluster.run(until=5e6)

    # 1. The server's counters match its state and no cut unit is lost.
    check_invariants(cluster.server)
    # 2. No phantom completions: every folded unit was cut first.
    # 3. Exactly-once: no unit folded twice.
    check_folds_once(cluster.server.journal.store)

    if report.completed:
        # 4. All items accounted for exactly once.
        assert report.results[pid]["items"] == trace.total_items
        # 5. Makespan respects the physics: cannot beat perfect speedup
        #    on the aggregate nominal capacity, nor the critical path.
        capacity = sum(m.speed for m in pool)  # availability <= 1
        lower_bound = max(
            trace.total_cost / capacity / 1.5,  # jitter can't exceed nominal
            trace.critical_path / 4.0 / 1.5,    # fastest machine is <= 4x
        )
        assert report.makespans[pid] >= lower_bound * 0.99
        # 6. Donor busy time never exceeds elapsed time per machine
        #    (sessions make this an inequality, not equality).
        for machine_id, busy in report.machine_busy.items():
            assert busy <= report.sim_time + 1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_determinism_across_replays(seed):
    """Same seed, same pool, same trace => bit-identical makespan."""
    def run():
        pool = [
            MachineSpec("a", speed=1.0, availability=0.8, availability_jitter=0.2),
            MachineSpec("b", speed=2.0, availability=0.9, availability_jitter=0.1),
        ]
        cluster = SimCluster(
            pool,
            policy=AdaptiveGranularity(target_seconds=20.0),
            seed=seed,
            execute=False,
        )
        pid = cluster.submit(trace_problem(WorkloadTrace.single_stage([3.0] * 50)))
        return cluster.run().makespans[pid]

    assert run() == run()
