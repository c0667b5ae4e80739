"""Ablation 4 — donor churn: cycle scavenging must tolerate departures.

The paper's donors are lab desktops running the client "as a low
priority background service"; machines reboot and owners reclaim them
constantly, yet the system "has been running for over 3 years".  This
ablation sweeps churn intensity (mean donor uptime) on a fixed
workload and reports completion, recomputation overhead, and slowdown
versus a stable pool.  The invariant under test: every item is
accounted for exactly once, whatever the churn.
"""

import pytest

from repro.cluster.sim import SimCluster, homogeneous_pool
from repro.cluster.sim.machines import with_churn
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.scheduler import AdaptiveGranularity

POOL = 32
ITEMS = 3000
ITEM_COST = 30.0


def run_with_uptime(mean_uptime: float | None, seed: int = 19):
    machines = homogeneous_pool(POOL, availability=0.95, availability_jitter=0.05)
    if mean_uptime is not None:
        machines = with_churn(
            machines,
            horizon=1e7,
            mean_uptime=mean_uptime,
            mean_downtime=mean_uptime / 4,
            seed=seed,
        )
    cluster = SimCluster(
        machines,
        policy=AdaptiveGranularity(target_seconds=120.0, probe_items=1),
        lease_timeout=600.0,
        seed=seed,
        execute=False,
    )
    pid = cluster.submit(
        trace_problem(WorkloadTrace.single_stage([ITEM_COST] * ITEMS))
    )
    report = cluster.run()
    counters = cluster.obs.meters.snapshot()["counters"]
    requeued = int(counters["farm.units.requeued"])
    duplicates = int(counters["farm.units.duplicate"] + counters["farm.units.stale"])
    items = report.results[pid]["items"] if pid in report.results else 0
    return report.completed, report.makespans.get(pid), requeued, duplicates, items


@pytest.mark.benchmark(group="abl4")
def test_abl4_churn_tolerance(benchmark, report):
    uptimes = [None, 7200.0, 3600.0, 1800.0, 900.0]

    def sweep():
        return [(u, *run_with_uptime(u)) for u in uptimes]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # row = (uptime, completed, makespan, requeued, duplicates, items)
    baseline_makespan = rows[0][2]
    lines = [
        f"pool: {POOL} donors, {ITEMS} items x {ITEM_COST:.0f}s, lease 600s",
        "",
        f"{'mean uptime':>12} {'done':>5} {'makespan(s)':>12} {'slowdown':>9} "
        f"{'requeued':>9} {'dups':>5}",
    ]
    for uptime, completed, makespan, requeued, dups, items in rows:
        label = "stable" if uptime is None else f"{uptime:.0f}s"
        slowdown = makespan / baseline_makespan if makespan else float("nan")
        lines.append(
            f"{label:>12} {str(completed):>5} {makespan:>12.0f} "
            f"{slowdown:>9.2f} {requeued:>9} {dups:>5}"
        )
        # The core fault-tolerance invariant: nothing lost, nothing
        # double-counted, at any churn level.
        assert completed
        assert items == ITEMS
    report("abl4_churn", "ABL4: donor churn tolerance", lines)

    # Churn costs time (requeued work) but never correctness.
    final_slowdown = rows[-1][2] / baseline_makespan
    assert final_slowdown >= 1.0
    assert rows[-1][3] > 0, "heavy churn must actually requeue units"
