"""Multi-tenant fair-share under contention: shares vs. weights.

Three tenants with weights 1:2:4 each feed the gateway a stream of
identical trace jobs on the same simulated farm.  While every tenant
has eligible work, the delivered work items must split in proportion to
the weights — the gateway's headline scheduling contract.  The run then
drains completely, yielding the per-job queue waits the admission layer
produced along the way.

Writes ``BENCH_gateway.json`` (per-tenant share error + p95 queue wait)
for trend tracking and **fails if any tenant's mid-run share is more
than 10% off its weight-proportional target** — the regression gate CI
runs.
"""

import json
import random

from conftest import OUT_DIR, write_report
from repro.cluster.sim import SimCluster, homogeneous_pool
from repro.cluster.sim.trace import WorkloadTrace, trace_problem
from repro.core.gateway import TenantConfig
from repro.core.scheduler import FixedGranularity

WEIGHTS = {"alice": 1.0, "bob": 2.0, "carol": 4.0}
JOBS_PER_TENANT = 4
ITEMS_PER_JOB = 160
ITEMS_PER_UNIT = 4
DONORS = 8
MEASURE_AT = 60.0  # virtual seconds: mid-run, all tenants contended
GATE_SHARE_ERROR = 0.10
SEED = 5


def _job_trace(tenant: str, index: int) -> WorkloadTrace:
    # A string seed hashes the same in every process; hash() of a str
    # varies with PYTHONHASHSEED.
    rng = random.Random(f"{tenant}-{index}")
    costs = [rng.uniform(0.4, 0.6) for _ in range(ITEMS_PER_JOB)]
    return WorkloadTrace.single_stage(
        costs, bytes_per_item=2_000, name=f"bench-gw-{tenant}-{index}"
    )


def test_three_tenant_shares_track_weights():
    cluster = SimCluster(
        homogeneous_pool(DONORS),
        policy=FixedGranularity(ITEMS_PER_UNIT),
        lease_timeout=300.0,
        seed=SEED,
        execute=False,
        tenants=[
            TenantConfig(tenant, weight=weight, max_running=2, max_pending=8)
            for tenant, weight in WEIGHTS.items()
        ],
    )
    for tenant in WEIGHTS:
        for index in range(JOBS_PER_TENANT):
            cluster.submit_job(tenant, trace_problem(_job_trace(tenant, index)))

    # Pause mid-run, while every tenant still has open jobs, and read
    # the delivered split — fairness only means anything under
    # contention (a drained run always converges on the job totals).
    cluster.run(until=MEASURE_AT)
    gateway = cluster.gateway
    assert gateway.has_open_jobs(), "measured after the farm drained"
    delivered = {t: gateway.scheduler.delivered_items(t) for t in WEIGHTS}
    total = sum(delivered.values())
    assert total > 0, "no work delivered by the measurement point"
    total_weight = sum(WEIGHTS.values())
    shares = {t: delivered[t] / total for t in WEIGHTS}
    errors = {
        t: abs(shares[t] - WEIGHTS[t] / total_weight) / (WEIGHTS[t] / total_weight)
        for t in WEIGHTS
    }

    # Drain the farm, then collect every job's queue wait.
    report = cluster.run()
    assert report.completed, "gateway run did not drain"
    waits = sorted(
        info["started_at"] - info["submitted_at"]
        for info in (
            gateway.job_status(job_id) for job_id in gateway.job_ids()
        )
        if info["started_at"] is not None
    )
    p95_wait = waits[min(len(waits) - 1, int(0.95 * len(waits)))]

    lines = [
        f"workload: {len(WEIGHTS)} tenants x {JOBS_PER_TENANT} jobs x "
        f"{ITEMS_PER_JOB} items (~0.5 s each), {DONORS} donors, "
        f"{ITEMS_PER_UNIT} items/unit; shares read at t={MEASURE_AT:g}s",
        "",
        f"{'tenant':<8} {'weight':>6} {'target':>8} {'share':>8} {'error':>7}",
    ]
    for tenant, weight in WEIGHTS.items():
        target = weight / total_weight
        lines.append(
            f"{tenant:<8} {weight:>6.1f} {target:>8.1%} "
            f"{shares[tenant]:>8.1%} {errors[tenant]:>7.1%}"
        )
    lines += [
        "",
        f"max share error: {max(errors.values()):.1%} "
        f"(gate: <= {GATE_SHARE_ERROR:.0%})",
        f"queue wait: p95 {p95_wait:,.1f}s over {len(waits)} started jobs",
    ]
    write_report(
        "gateway", "Job gateway: weighted fair share under contention", lines
    )

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": {
            "tenants": WEIGHTS,
            "jobs_per_tenant": JOBS_PER_TENANT,
            "items_per_job": ITEMS_PER_JOB,
            "items_per_unit": ITEMS_PER_UNIT,
            "donors": DONORS,
            "measured_at": MEASURE_AT,
        },
        "delivered_items": delivered,
        "shares": {t: round(s, 4) for t, s in shares.items()},
        "share_errors": {t: round(e, 4) for t, e in errors.items()},
        "gate_share_error": GATE_SHARE_ERROR,
        "queue_wait_p95": round(p95_wait, 2),
        "started_jobs": len(waits),
        "makespan": round(report.sim_time, 2),
    }
    (OUT_DIR / "BENCH_gateway.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # The gate: every tenant's delivered share lands within 10% of its
    # weight-proportional target while contention holds.
    for tenant, error in errors.items():
        assert error <= GATE_SHARE_ERROR, (
            f"{tenant}: share {shares[tenant]:.3f} is {error:.1%} off its "
            f"target {WEIGHTS[tenant] / total_weight:.3f} "
            f"(gate {GATE_SHARE_ERROR:.0%})"
        )
