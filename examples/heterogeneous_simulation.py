#!/usr/bin/env python
"""Simulated deployment: adaptive granularity on a heterogeneous pool.

Recreates the paper's deployment conditions in the discrete-event
simulator — a pool of donor PCs spanning PII-to-PIV speeds, each only
semi-idle, behind one 100 Mbit/s server link — and compares the paper's
adaptive granularity control against a fixed unit size on the same
workload.  Also injects donor churn to show work units being requeued
and recomputed with no loss of results.

Run:  python examples/heterogeneous_simulation.py
"""

from __future__ import annotations

from repro.cluster.sim import SimCluster, heterogeneous_pool
from repro.cluster.sim.machines import with_churn
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.scheduler import AdaptiveGranularity, FixedGranularity


def run(policy, machines, label: str, seed: int = 5) -> float:
    cluster = SimCluster(
        machines, policy=policy, lease_timeout=600.0, seed=seed, execute=False
    )
    pid = cluster.submit(
        trace_problem(WorkloadTrace.single_stage([30.0] * 2000, name=label))
    )
    report = cluster.run()
    assert report.completed
    makespan = report.makespans[pid]
    print(
        f"  {label:<22} makespan {makespan:>9.0f} s   "
        f"mean donor utilisation {report.mean_utilization:5.1%}"
    )
    return makespan


def main() -> None:
    pool = heterogeneous_pool(
        32, seed=1, speed_range=(0.25, 2.0), availability_range=(0.5, 1.0)
    )
    speeds = sorted(m.speed for m in pool)
    print(
        f"pool: 32 donors, speed {speeds[0]:.2f}x..{speeds[-1]:.2f}x, semi-idle\n"
    )

    print("fixed vs adaptive granularity (same workload):")
    fixed = run(FixedGranularity(63), pool, "fixed 63-item units")
    adaptive = run(
        AdaptiveGranularity(target_seconds=120.0, probe_items=4),
        pool,
        "adaptive units",
    )
    print(f"  -> adaptive is {fixed / adaptive:.2f}x faster on this pool\n")

    print("with donor churn (machines leave and return):")
    churny = with_churn(pool, horizon=1e6, mean_uptime=2000.0, mean_downtime=500.0, seed=9)
    cluster = SimCluster(
        churny,
        policy=AdaptiveGranularity(target_seconds=120.0, probe_items=4),
        lease_timeout=300.0,
        seed=5,
        execute=False,
    )
    pid = cluster.submit(trace_problem(WorkloadTrace.single_stage([30.0] * 2000)))
    report = cluster.run()
    requeued = int(cluster.obs.meters.counter("farm.units.requeued").value)
    print(
        f"  completed: {report.completed}, makespan {report.makespans[pid]:.0f} s, "
        f"{requeued} units requeued after donor departures, "
        f"{report.results[pid]['items']} / 2000 items accounted for"
    )


if __name__ == "__main__":
    main()
