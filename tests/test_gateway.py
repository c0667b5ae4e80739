"""The multi-tenant job gateway: admission control, the job lifecycle,
cancel cleanup, weighted fair-share dispatch, and durability.

The headline properties:

- **Equivalence**: per-problem results assembled through the gateway are
  bit-identical to direct ``server.submit`` runs (the fair-share policy
  reorders dispatch, never results) — for both target applications,
  across seeds.
- **Fairness**: while every tenant has eligible work, delivered work
  items split in proportion to tenant weights (and, as a regression
  test, a sustained stream of high-priority submissions can no longer
  starve a low-priority problem the way the old strict priority-class
  round robin did).
- **Durability**: a crashed gateway rebuilt from journal replay (or
  checkpoint + tail) restores its queue and tenant accounting exactly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.dprml import DPRmlConfig
from repro.apps.dprml import build_problem as build_dprml_problem
from repro.apps.dsearch import DSearchConfig
from repro.apps.dsearch import build_problem as build_dsearch_problem
from repro.bio.phylo.models import JC69
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.seq import DNA
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.cluster.local import ServerFacade
from repro.cluster.sim import SimCluster, heterogeneous_pool, homogeneous_pool
from repro.core import journal as journal_module
from repro.core.gateway import (
    SUBMIT_HEADROOM,
    AdmissionError,
    JobGateway,
    JobStatus,
    TenantConfig,
    WeightedFairShare,
    parse_tenants,
)
from repro.core.integrity import IntegrityPolicy, canonical_digest
from repro.core.journal import (
    JournalError,
    JournalWriter,
    MemoryStore,
    compact,
    recover,
)
from repro.core.checkpoint import dumps_checkpoint
from repro.core.problem import Problem
from repro.core.scheduler import FixedGranularity, ProblemRoundRobin
from repro.core.server import ProblemStatus, TaskFarmServer
from repro.core.workunit import WorkResult
from repro.rmi.datachannel import DataChannelServer
from repro.util.config import ConfigError, ConfigFile
from tests.helpers import (
    RangeSumAlgorithm,
    RangeSumDataManager,
    check_invariants,
    rewrite_journal,
)


def make_server(**kwargs) -> TaskFarmServer:
    kwargs.setdefault("policy", FixedGranularity(10))
    kwargs.setdefault("lease_timeout", 100.0)
    return TaskFarmServer(**kwargs)


def sum_problem(n=100, name="sum") -> Problem:
    return Problem(name, RangeSumDataManager(n), RangeSumAlgorithm())


def compute(assignment, donor="d0") -> WorkResult:
    lo, hi = assignment.payload
    return WorkResult(
        problem_id=assignment.problem_id,
        unit_id=assignment.unit_id,
        value=sum(range(lo, hi)),
        donor_id=donor,
        compute_seconds=1.0,
        items=assignment.items,
    )


def counters(server) -> dict:
    return server.obs.meters.snapshot()["counters"]


def gauges(server) -> dict:
    return server.obs.meters.snapshot()["gauges"]


def drive_jobs_to_completion(server, gateway, donor="driver", t=100.0):
    """Pull and fold units until no job is queued or running."""
    server.register_donor(donor, t)
    for _ in range(10_000):
        if not gateway.has_open_jobs():
            return t
        a = server.request_work(donor, (t := t + 0.1))
        if a is None:
            server.expire_leases((t := t + server.leases.timeout))
            gateway.pump(t)
            continue
        server.submit_result(compute(a, donor), (t := t + 0.1))
        gateway.pump(t)
    raise AssertionError("jobs did not finish")


# ---------------------------------------------------------------------------
# Tenant config parsing


class TestParseTenants:
    def test_parses_weights_and_quotas(self, tmp_path):
        path = tmp_path / "tenants.conf"
        path.write_text(
            "tenant.alice.weight = 1\n"
            "tenant.bob.weight = 2\n"
            "tenant.bob.max_running = 3\n"
            "tenant.carol.weight = 4\n"
            "tenant.carol.max_inflight_items = 500\n"
            "lease.timeout = 300\n"  # non-tenant keys are ignored
        )
        tenants = {t.tenant_id: t for t in parse_tenants(ConfigFile.from_path(path))}
        assert set(tenants) == {"alice", "bob", "carol"}
        assert tenants["alice"] == TenantConfig("alice", weight=1.0)
        assert tenants["bob"].weight == 2.0 and tenants["bob"].max_running == 3
        assert tenants["carol"].max_inflight_items == 500

    def test_unknown_tenant_field_fails_loudly(self, tmp_path):
        path = tmp_path / "tenants.conf"
        path.write_text("tenant.alice.wieght = 1\n")
        with pytest.raises(ConfigError, match="bad tenant key"):
            parse_tenants(ConfigFile.from_path(path))

    def test_invalid_value_is_a_config_error(self, tmp_path):
        path = tmp_path / "tenants.conf"
        path.write_text("tenant.alice.weight = -2\n")
        with pytest.raises(ConfigError, match="weight must be > 0"):
            parse_tenants(ConfigFile.from_path(path))

    def test_tenant_config_validation(self):
        with pytest.raises(ValueError, match="weight"):
            TenantConfig("a", weight=0.0)
        with pytest.raises(ValueError, match="max_running"):
            TenantConfig("a", max_running=0)
        with pytest.raises(ValueError, match="max_inflight_items"):
            TenantConfig("a", max_inflight_items=0)
        with pytest.raises(ValueError, match="tenant_id"):
            TenantConfig("")


# ---------------------------------------------------------------------------
# Admission control


class TestAdmission:
    def test_unknown_tenant_rejected(self):
        gateway = JobGateway(make_server(), [TenantConfig("a")])
        with pytest.raises(KeyError, match="unknown tenant"):
            gateway.submit_job("ghost", sum_problem(10), now=0.0)

    def test_queue_full_rejects_with_retry_after(self):
        server = make_server()
        gateway = JobGateway(
            server,
            [TenantConfig("a", max_running=1, max_pending=2)],
            retry_after=7.5,
        )
        gateway.submit_job("a", sum_problem(10), now=0.0)  # runs
        gateway.submit_job("a", sum_problem(10), now=0.0)  # queued
        gateway.submit_job("a", sum_problem(10), now=0.0)  # queued (full)
        with pytest.raises(AdmissionError, match="admission queue full") as exc:
            gateway.submit_job("a", sum_problem(10), now=1.0)
        assert exc.value.retry_after == 7.5
        assert counters(server)["farm.gateway.jobs.rejected"] == 1
        snap = gateway.snapshot()["tenants"][0]
        assert snap["rejected"] == 1 and snap["pending"] == 2

    def test_rejected_submit_does_not_burn_a_job_id(self):
        gateway = JobGateway(
            make_server(), [TenantConfig("a", max_running=1, max_pending=0)]
        )
        j1 = gateway.submit_job("a", sum_problem(10), now=0.0)
        with pytest.raises(AdmissionError):
            gateway.submit_job("a", sum_problem(10), now=0.0)
        j2_problem = sum_problem(10)
        gateway.cancel_job(j1, now=1.0)
        j2 = gateway.submit_job("a", j2_problem, now=2.0)
        assert j2 == j1 + 1

    def test_facade_rekeys_colliding_submitter_ids(self):
        # Problem ids come from a per-process counter on the submitter,
        # so two independent repro-jobs processes both ship "problem 1".
        # The RMI facade re-keys each incoming job instead of bouncing
        # the second scientist with "already submitted".
        server = make_server()
        gateway = JobGateway(server, [TenantConfig("a"), TenantConfig("b")])
        facade = ServerFacade(server, gateway=gateway)
        first = sum_problem(20, name="first")
        second = sum_problem(30, name="second")
        second.problem_id = first.problem_id  # simulate the collision
        r1 = facade.submit_job("a", first)
        r2 = facade.submit_job("b", second)
        assert r1["accepted"] and r2["accepted"]
        assert first.problem_id != second.problem_id
        assert len(server._problems) == 2
        names = {
            facade.job_status(r["job_id"])["problem_id"] for r in (r1, r2)
        }
        assert names == {first.problem_id, second.problem_id}

    def test_duplicate_problem_rejected(self):
        gateway = JobGateway(make_server(), [TenantConfig("a"), TenantConfig("b")])
        problem = sum_problem(10)
        gateway.submit_job("a", problem, now=0.0)
        with pytest.raises(ValueError, match="already submitted"):
            gateway.submit_job("b", problem, now=0.0)

    def test_gateway_and_direct_submission_share_the_id_space(self):
        server = make_server()
        gateway = JobGateway(server, [TenantConfig("a")])
        problem = sum_problem(10)
        server.submit(problem, 0.0)
        with pytest.raises(ValueError, match="already submitted"):
            gateway.submit_job("a", problem, now=0.0)

    def test_max_running_holds_jobs_queued(self):
        server = make_server()
        gateway = JobGateway(
            server, [TenantConfig("a", max_running=2, max_pending=8)]
        )
        jobs = [gateway.submit_job("a", sum_problem(10), now=0.0) for _ in range(4)]
        statuses = [gateway.job_status(j)["status"] for j in jobs]
        assert statuses == ["running", "running", "queued", "queued"]
        assert gauges(server)["farm.gateway.jobs.running"] == 2
        assert gauges(server)["farm.gateway.jobs.queued"] == 2
        # Only the two running problems exist on the server so far.
        assert len(server.active_problem_ids()) == 2


# ---------------------------------------------------------------------------
# Job lifecycle


class TestJobLifecycle:
    def test_submit_run_complete(self):
        server = make_server()
        gateway = JobGateway(server, [TenantConfig("a")])
        job_id = gateway.submit_job("a", sum_problem(25), now=0.0)
        assert gateway.job_status(job_id)["status"] == "running"
        drive_jobs_to_completion(server, gateway)
        info = gateway.job_status(job_id)
        assert info["status"] == "done" and info["progress"] == 1.0
        assert gateway.job_result(job_id) == sum(range(25))
        assert counters(server)["farm.gateway.jobs.started"] == 1
        assert counters(server)["farm.gateway.jobs.done"] == 1

    def test_queued_job_starts_when_slot_frees(self):
        server = make_server()
        gateway = JobGateway(
            server, [TenantConfig("a", max_running=1, max_pending=8)]
        )
        first = gateway.submit_job("a", sum_problem(10), now=0.0)
        second = gateway.submit_job("a", sum_problem(10), now=1.0)
        assert gateway.job_status(second)["status"] == "queued"
        server.register_donor("d0", 2.0)
        a = server.request_work("d0", 2.0)
        server.submit_result(compute(a), 5.0)
        gateway.pump(5.0)
        assert gateway.job_status(first)["status"] == "done"
        info = gateway.job_status(second)
        assert info["status"] == "running" and info["started_at"] == 5.0
        # Queue-wait accounting: second waited from t=1 to t=5.
        snap = gateway.snapshot()["tenants"][0]
        assert snap["queue_wait_max"] == pytest.approx(4.0)
        assert snap["queue_wait_count"] == 2

    def test_failed_problem_marks_job_failed(self):
        server = make_server(max_unit_attempts=2)
        gateway = JobGateway(server, [TenantConfig("a")])
        job_id = gateway.submit_job("a", sum_problem(10), now=0.0)
        pid = gateway.job_status(job_id)["problem_id"]
        server.register_donor("d0", 0.0)
        for t in (1.0, 2.0):
            a = server.request_work("d0", t)
            server.report_failure(pid, a.unit_id, "d0", "poison unit", t + 0.5)
        gateway.pump(3.0)
        info = gateway.job_status(job_id)
        assert info["status"] == "failed" and "poison" in info["failure"]
        assert counters(server)["farm.gateway.jobs.failed"] == 1
        with pytest.raises(RuntimeError, match="failed, not done"):
            gateway.job_result(job_id)

    def test_result_of_unfinished_job_raises(self):
        gateway = JobGateway(make_server(), [TenantConfig("a")])
        job_id = gateway.submit_job("a", sum_problem(10), now=0.0)
        with pytest.raises(RuntimeError, match="running, not done"):
            gateway.job_result(job_id)
        with pytest.raises(KeyError, match="unknown job"):
            gateway.job_status(999)

    def test_snapshot_counts_jobs_by_status(self):
        server = make_server()
        gateway = JobGateway(
            server, [TenantConfig("a", max_running=1, max_pending=8)]
        )
        gateway.submit_job("a", sum_problem(10), now=0.0)
        gateway.submit_job("a", sum_problem(10), now=0.0)
        third = gateway.submit_job("a", sum_problem(10), now=0.0)
        gateway.cancel_job(third, now=1.0)
        snap = gateway.snapshot()
        assert snap["jobs"] == {
            "queued": 1, "running": 1, "done": 0, "failed": 0, "cancelled": 1,
        }


# ---------------------------------------------------------------------------
# Cancellation: no leaked leases, votes, gauges, or blobs


class TestCancelCleanup:
    def test_cancel_queued_job_never_reaches_server(self):
        server = make_server()
        gateway = JobGateway(
            server, [TenantConfig("a", max_running=1, max_pending=8)]
        )
        gateway.submit_job("a", sum_problem(10), now=0.0)
        queued = gateway.submit_job("a", sum_problem(10), now=0.0)
        pid = gateway.job_status(queued)["problem_id"]
        assert gateway.cancel_job(queued, now=1.0) is True
        assert gateway.job_status(queued)["status"] == "cancelled"
        assert pid not in server._problems
        assert counters(server)["farm.gateway.jobs.cancelled"] == 1

    def test_cancel_running_job_sweeps_leases_votes_and_gauges(self):
        server = make_server(
            integrity=IntegrityPolicy(replication=2, quorum=2)
        )
        gateway = JobGateway(server, [TenantConfig("a")])
        job_id = gateway.submit_job("a", sum_problem(10), now=0.0)
        pid = gateway.job_status(job_id)["problem_id"]
        server.register_donor("d0", 0.0)
        server.register_donor("d1", 0.0)
        # One unit, two replicated copies: both donors hold a lease.
        a0 = server.request_work("d0", 1.0)
        a1 = server.request_work("d1", 1.0)
        assert a0.unit_id == a1.unit_id
        # First vote lands; the unit now sits in quorum-voting state.
        assert server.submit_result(compute(a0, "d0"), 2.0) is True
        state = server._problems[pid]
        assert state.voting
        assert gateway.cancel_job(job_id, now=3.0) is True
        assert server.status(pid) is ProblemStatus.CANCELLED
        # Leases released, voting/requeue/replica state dropped.
        assert server.leases.outstanding(pid) == []
        assert not state.voting and not state.replicas and not state.requeue
        # Donor slots freed: no leaked busy gauge, no held units.
        assert gauges(server)["farm.donors.busy"] == 0
        assert server._donors["d1"].active_units == []
        assert counters(server)["farm.problems.cancelled"] == 1
        # The straggler's late result is refused via the exactly-once
        # stale path — a clean False, not an exception.
        stale_before = counters(server).get("farm.units.stale", 0)
        assert server.submit_result(compute(a1, "d1"), 4.0) is False
        assert counters(server)["farm.units.stale"] == stale_before + 1
        # The freed slot immediately serves other tenants' work.
        other = gateway.submit_job("a", sum_problem(10), now=5.0)
        assert server.request_work("d1", 6.0) is not None
        assert gateway.job_status(other)["status"] == "running"

    def test_cancelled_problem_result_is_unreadable(self):
        server = make_server()
        gateway = JobGateway(server, [TenantConfig("a")])
        job_id = gateway.submit_job("a", sum_problem(10), now=0.0)
        pid = gateway.job_status(job_id)["problem_id"]
        gateway.cancel_job(job_id, now=1.0)
        with pytest.raises(RuntimeError, match="cancelled"):
            server.final_result(pid)
        with pytest.raises(RuntimeError, match="cancelled, not done"):
            gateway.job_result(job_id)

    def test_cancel_terminal_job_returns_false(self):
        server = make_server()
        gateway = JobGateway(server, [TenantConfig("a")])
        job_id = gateway.submit_job("a", sum_problem(10), now=0.0)
        drive_jobs_to_completion(server, gateway)
        assert gateway.cancel_job(job_id, now=200.0) is False
        assert gateway.job_status(job_id)["status"] == "done"
        with pytest.raises(KeyError, match="unknown job"):
            gateway.cancel_job(999, now=200.0)

    def test_cancel_releases_published_data_channel_blobs(self):
        server = make_server(policy=FixedGranularity(3))
        gateway = JobGateway(server, [TenantConfig("a")])
        channel = DataChannelServer(meters=server.obs.meters)
        try:
            facade = ServerFacade(server, data_channel=channel, gateway=gateway)
            rng = np.random.default_rng(3)
            query = random_sequence("q0", 64, DNA, rng)
            database, _ = seeded_database(
                query, decoy_count=8, homolog_count=2, seed=4,
                substitution_rate=0.1,
            )
            problem = build_dsearch_problem(
                database, [query], DSearchConfig(top_hits=4, share_payloads=True)
            )
            reply = facade.submit_job("a", problem)
            assert reply["accepted"]
            facade.register_donor("d0")
            assignment = facade.request_work("d0")
            assert assignment is not None
            keys = set(facade._published[problem.problem_id])
            assert keys
            assert all(channel.refcount(key) == 1 for key in keys)
            assert facade.cancel_job(reply["job_id"]) == {"cancelled": True}
            # The facade sweep released every blob the problem pinned.
            assert problem.problem_id not in facade._published
            assert all(channel.refcount(key) == 0 for key in keys)
        finally:
            channel.close()


# ---------------------------------------------------------------------------
# Starvation regression: priority streams vs. the old round robin


def _serve_rounds(policy, rounds=64):
    """Count how often a low-priority problem wins the dispatch pass
    against three high-priority problems that always have work."""
    high = [1, 2, 3]
    low_pid = 99
    low_served = 0
    for _ in range(rounds):
        candidates = [(pid, 0) for pid in high] + [(low_pid, 1)]
        first = policy.order(candidates)[0]
        policy.served(first)
        policy.completed(first, 10)
        if first == low_pid:
            low_served += 1
    return low_served


class TestStarvationRegression:
    def test_old_round_robin_starves_low_priority(self):
        # The historical behaviour this PR fixes for gateway servers:
        # rotation stays inside the leading priority class, so a
        # sustained stream of priority-0 work starves priority 1 forever.
        assert _serve_rounds(ProblemRoundRobin()) == 0

    def test_fair_share_serves_low_priority_despite_stream(self):
        scheduler = WeightedFairShare()
        low_served = _serve_rounds(scheduler)
        # The within-tenant cycle visits every problem: the low-priority
        # problem gets its fair turn (1 in 4) instead of zero.
        assert low_served >= 64 // 4 - 1

    def test_priority_still_orders_within_a_turn(self):
        # Priority is not dead: within one dispatch pass the lower
        # priority number is offered first (when no rotation pivot).
        scheduler = WeightedFairShare()
        assert scheduler.order([(7, 1), (8, 0)]) == [8, 7]


# ---------------------------------------------------------------------------
# Fair-share properties (hypothesis)


VERDICT_SUPPRESS = [HealthCheck.too_slow]


class _StubLease:
    def __init__(self, problem_id, items):
        class _Unit:
            pass

        self.unit = _Unit()
        self.unit.problem_id = problem_id
        self.unit.items = items


class _StubLeases:
    def __init__(self, leases):
        self._leases = list(leases)

    def in_flight(self, problem_id):
        mine = [l for l in self._leases if l.unit.problem_id == problem_id]
        return len(mine), sum(l.unit.items for l in mine)


class _StubObs:
    class _Meters:
        def counter(self, name):  # pragma: no cover - not exercised
            raise AssertionError("order() must not touch meters")

    meters = None


class _StubServer:
    def __init__(self, leases):
        self.leases = _StubLeases(leases)
        self.obs = _StubObs()


@st.composite
def _tenant_worlds(draw):
    n_tenants = draw(st.integers(min_value=1, max_value=4))
    tenants = [f"t{i}" for i in range(n_tenants)]
    weights = {
        t: draw(st.floats(min_value=0.25, max_value=8.0)) for t in tenants
    }
    completed = {
        t: float(draw(st.integers(min_value=0, max_value=500))) for t in tenants
    }
    problems = []
    pid = 1
    owners = {}
    for t in tenants:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            problems.append((pid, draw(st.integers(min_value=0, max_value=2))))
            owners[pid] = t
            pid += 1
    return tenants, weights, completed, problems, owners


class TestFairShareProperties:
    @given(_tenant_worlds())
    @settings(max_examples=60, deadline=None)
    def test_work_conservation_order_is_a_permutation(self, world):
        """No caps -> every candidate problem is offered: an idle donor
        is never refused while any tenant has eligible work."""
        tenants, weights, completed, problems, owners = world
        scheduler = WeightedFairShare()
        for t in tenants:
            scheduler.set_tenant(t, weights[t])
        for pid, t in owners.items():
            scheduler.bind(pid, t)
        scheduler.rebuild(completed)
        out = scheduler.order(list(problems))
        assert sorted(out) == sorted(pid for pid, _prio in problems)

    @given(_tenant_worlds(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_inflight_cap_excludes_only_saturated_tenants(self, world, cap):
        tenants, weights, completed, problems, owners = world
        capped = tenants[0]
        scheduler = WeightedFairShare()
        for t in tenants:
            scheduler.set_tenant(
                t, weights[t], max_inflight_items=cap if t == capped else None
            )
        for pid, t in owners.items():
            scheduler.bind(pid, t)
        # Put the capped tenant exactly at its in-flight budget.
        first_pid = next(pid for pid, t in owners.items() if t == capped)
        scheduler.attach(_StubServer([_StubLease(first_pid, cap)]))
        out = scheduler.order(list(problems))
        expected = [pid for pid, _prio in problems if owners[pid] != capped]
        assert sorted(out) == sorted(expected)
        # Results landing (leases drained) lift the cap again.
        scheduler.attach(_StubServer([]))
        out = scheduler.order(list(problems))
        assert sorted(out) == sorted(pid for pid, _prio in problems)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=8), min_size=2, max_size=4
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_delivered_shares_track_weights(self, weights):
        """Serving the scheduler's first choice each round splits the
        delivered items in proportion to the weights."""
        scheduler = WeightedFairShare()
        tenants = [f"t{i}" for i in range(len(weights))]
        problems = []
        for i, t in enumerate(tenants):
            scheduler.set_tenant(t, float(weights[i]))
            scheduler.bind(i + 1, t)
            problems.append((i + 1, 0))
        rounds = 400
        for _ in range(rounds):
            pid = scheduler.order(list(problems))[0]
            scheduler.served(pid)
            scheduler.completed(pid, 1)
        total_weight = float(sum(weights))
        for i, t in enumerate(tenants):
            share = scheduler.delivered_items(t) / rounds
            target = weights[i] / total_weight
            # Virtual-time stride scheduling: per-tenant lag is O(1)
            # items, so 400 rounds land well within 5% of target.
            assert share == pytest.approx(target, abs=0.05)

    @given(
        st.lists(
            st.sampled_from(["submit_a", "submit_b", "work"]),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=VERDICT_SUPPRESS)
    def test_admission_invariants_under_random_traffic(self, events):
        """Bounded queues, work-conserving promotion, FIFO starts."""
        server = make_server(policy=FixedGranularity(4))
        configs = {
            "a": TenantConfig("a", max_running=2, max_pending=2),
            "b": TenantConfig("b", weight=2.0, max_running=1, max_pending=1),
        }
        gateway = JobGateway(server, configs.values())
        server.register_donor("d0", 0.0)
        submitted = {"a": [], "b": []}
        started = {"a": [], "b": []}
        t = 0.0

        def check():
            for tid, config in configs.items():
                tenant = gateway._tenants[tid]
                assert len(tenant.pending) <= config.max_pending
                assert len(tenant.running) <= config.max_running
                if tenant.pending:
                    # Work conservation: a job never waits behind a free
                    # running slot.
                    assert len(tenant.running) == config.max_running
                # FIFO: the started jobs are exactly the first k
                # submitted and still-uncancelled ones, in order.
                newly = [
                    j for j in submitted[tid]
                    if gateway.job_status(j)["status"] != "queued"
                    and j not in started[tid]
                ]
                started[tid].extend(newly)
                assert started[tid] == submitted[tid][: len(started[tid])]

        for event in events:
            t += 1.0
            if event == "work":
                a = server.request_work("d0", t)
                if a is not None:
                    server.submit_result(compute(a), t + 0.5)
                gateway.pump(t + 0.5)
            else:
                tid = event.removeprefix("submit_")
                try:
                    job_id = gateway.submit_job(tid, sum_problem(4), now=t)
                    submitted[tid].append(job_id)
                except AdmissionError:
                    # Rejections happen exactly at the queue bound.
                    tenant = gateway._tenants[tid]
                    assert len(tenant.pending) == configs[tid].max_pending
            check()
        # Queue wait is bounded by the service of the jobs ahead: every
        # started job waited while its tenant's slots were all busy,
        # never longer than the full traffic history.
        for tid in configs:
            snap = next(
                s for s in gateway.snapshot()["tenants"] if s["tenant"] == tid
            )
            assert snap["queue_wait_max"] <= t


# ---------------------------------------------------------------------------
# Simulated 3-tenant acceptance: fair shares + bit-identical results


def _dsearch_problem(seed, **config):
    rng = np.random.default_rng(seed)
    query = random_sequence("q0", 60, DNA, rng)
    database, _ = seeded_database(
        query, decoy_count=12, homolog_count=2, seed=seed + 1,
        substitution_rate=0.1,
    )
    return build_dsearch_problem(
        database, [query], DSearchConfig(top_hits=4, **config)
    )


def _dprml_problem(seed):
    true = random_yule_tree(6, seed=seed, mean_branch=0.2)
    alignment = simulate_alignment(true, JC69(), 150, seed=seed + 1)
    return build_dprml_problem(alignment, DPRmlConfig(model="jc69"))


DIFF_SEEDS = [3, 17, 29]

THREE_TENANTS = [
    TenantConfig("alice", weight=1.0, max_running=4),
    TenantConfig("bob", weight=2.0, max_running=4),
    TenantConfig("carol", weight=4.0, max_running=4),
]


def _sim_cluster(tenants=None):
    return SimCluster(
        heterogeneous_pool(6, seed=2),
        policy=FixedGranularity(4),
        lease_timeout=60.0,
        seed=5,
        tenants=tenants,
    )


class TestGatewayEquivalence:
    """Gateway-vs-direct differential: same problems, same donors, same
    seeds — bit-identical per-problem results despite reordered
    dispatch."""

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_three_tenant_run_matches_direct_submission(self, seed):
        def build():
            return [
                _dsearch_problem(seed),
                _dprml_problem(seed),
                _dsearch_problem(seed + 101),
            ]

        direct = _sim_cluster()
        direct_pids = [direct.submit(p) for p in build()]
        direct_report = direct.run()
        assert direct_report.completed

        gatewayed = _sim_cluster(tenants=list(THREE_TENANTS))
        tenant_ids = ["alice", "bob", "carol"]
        gw_pids = [
            gatewayed.submit_job(tid, p)
            for tid, p in zip(tenant_ids, build())
        ]
        gw_report = gatewayed.run()
        assert gw_report.completed

        for direct_pid, gw_pid in zip(direct_pids, gw_pids):
            assert canonical_digest(
                gw_report.results[gw_pid]
            ) == canonical_digest(direct_report.results[direct_pid])
        snap = gatewayed.gateway.snapshot()
        assert snap["jobs"]["done"] == 3 and not gatewayed.gateway.has_open_jobs()


class TestFairShareSim:
    def test_three_tenants_1_2_4_shares_within_ten_percent(self):
        """The acceptance drill: weights 1:2:4 under sustained
        contention split delivered items 1/7 : 2/7 : 4/7 (±10%)."""
        cluster = SimCluster(
            homogeneous_pool(8),
            policy=FixedGranularity(4),
            lease_timeout=120.0,
            seed=5,
            tenants=list(THREE_TENANTS),
        )
        for tenant in ("alice", "bob", "carol"):
            for _ in range(3):
                cluster.submit_job(tenant, sum_problem(4000, name=f"{tenant}-job"))
        cluster.run(until=600.0)
        gateway = cluster.gateway
        # Still contended: every tenant must have had eligible work the
        # whole way, or the share measurement is meaningless.
        assert gateway.has_open_jobs()
        for state in cluster.server._problems.values():
            assert state.status is ProblemStatus.RUNNING
        delivered = {
            t: gateway.scheduler.delivered_items(t)
            for t in ("alice", "bob", "carol")
        }
        total = sum(delivered.values())
        assert total > 500  # the farm actually ran
        targets = {"alice": 1 / 7, "bob": 2 / 7, "carol": 4 / 7}
        for tenant, target in targets.items():
            share = delivered[tenant] / total
            assert share == pytest.approx(target, rel=0.10), (
                f"{tenant}: share {share:.3f} vs target {target:.3f}"
            )

    def test_inflight_cap_throttles_a_tenant(self):
        cluster = SimCluster(
            homogeneous_pool(4),
            policy=FixedGranularity(4),
            lease_timeout=120.0,
            seed=5,
            tenants=[
                TenantConfig("greedy", weight=8.0, max_inflight_items=4),
                TenantConfig("meek", weight=1.0),
            ],
        )
        cluster.submit_job("greedy", sum_problem(2000, name="greedy-job"))
        cluster.submit_job("meek", sum_problem(2000, name="meek-job"))
        cluster.run(until=300.0)
        gateway = cluster.gateway
        # Despite 8x the weight, the cap (one unit in flight at a time)
        # keeps the greedy tenant from dominating delivery.
        assert gateway.scheduler.delivered_items(
            "meek"
        ) > gateway.scheduler.delivered_items("greedy")


# ---------------------------------------------------------------------------
# Durability: journal replay and checkpoint restore are exact


def _comparable(dump: dict) -> dict:
    """A dump with Problem objects reduced to identity-free facts (a
    recovered queued job holds an equal but distinct Problem object)."""
    out = dict(dump)
    out["jobs"] = [
        {**job, "problem": None if job["problem"] is None else job["problem_id"]}
        for job in dump["jobs"]
    ]
    return out


def _driven_gateway():
    """A journaled server + gateway with jobs in every state: running,
    queued, cancelled-while-running, cancelled-while-queued, plus a
    folded result and a lease still in flight."""
    store = MemoryStore()
    server = TaskFarmServer(
        policy=FixedGranularity(5),
        lease_timeout=100.0,
        journal=JournalWriter(store),
    )
    gateway = JobGateway(
        server,
        [
            TenantConfig("a", weight=1.0, max_running=1, max_pending=4),
            TenantConfig("b", weight=2.0, max_running=2, max_pending=4),
        ],
    )
    server.register_donor("d0", 0.0)
    gateway.submit_job("a", sum_problem(20), now=1.0)  # running
    gateway.submit_job("a", sum_problem(20), now=2.0)  # queued behind it
    gateway.submit_job("b", sum_problem(20), now=3.0)  # running
    j4 = gateway.submit_job("b", sum_problem(20), now=4.0)  # running
    a = server.request_work("d0", 5.0)
    server.submit_result(compute(a), 6.0)  # one fold on the books
    gateway.pump(6.0)
    server.request_work("d0", 7.0)  # a lease left in flight
    gateway.cancel_job(j4, now=8.0)  # cancelled while running
    j5 = gateway.submit_job("a", sum_problem(20), now=9.0)
    gateway.cancel_job(j5, now=10.0)  # cancelled while queued
    return store, server, gateway


def _assert_same_gateway(fresh, original):
    assert _comparable(fresh.dump()) == _comparable(original.dump())
    assert fresh.snapshot() == original.snapshot()
    for tenant in original.tenant_ids():
        assert fresh.scheduler.delivered_items(
            tenant
        ) == original.scheduler.delivered_items(tenant)


class TestJournalFrameCap:
    """An oversize job is refused at admission, before any record is
    written — never at start, after its ``gateway.job.start`` record."""

    @staticmethod
    def _journaled():
        store = MemoryStore()
        server = make_server(journal=JournalWriter(store))
        gateway = JobGateway(server, [TenantConfig("a")])
        return store, server, gateway

    @staticmethod
    def _submit_record_bytes(server, gateway, problem, now) -> int:
        record = {
            "lsn": server.journal.next_lsn,
            "kind": "gateway.job.submit",
            "now": now,
            "job_id": gateway._next_job_id,
            "tenant": "a",
            "problem": problem,
        }
        return len(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    def test_one_byte_over_refused_with_state_unchanged(self, monkeypatch):
        store, server, gateway = self._journaled()
        problem = sum_problem(20)
        size = self._submit_record_bytes(server, gateway, problem, 1.0)
        before = (
            _comparable(gateway.dump()),
            dict(server._problems),
            {name: bytes(store.read(name)) for name in store.names()},
        )
        monkeypatch.setattr(
            journal_module, "_MAX_FRAME_BYTES", size + SUBMIT_HEADROOM - 1
        )
        with pytest.raises(JournalError, match="frame cap"):
            gateway.submit_job("a", problem, now=1.0)
        after = (
            _comparable(gateway.dump()),
            dict(server._problems),
            {name: bytes(store.read(name)) for name in store.names()},
        )
        assert after == before

    def test_admitted_at_the_limit_starts_and_recovers(self, monkeypatch):
        store, server, gateway = self._journaled()
        problem = sum_problem(20)
        size = self._submit_record_bytes(server, gateway, problem, 1.0)
        monkeypatch.setattr(
            journal_module, "_MAX_FRAME_BYTES", size + SUBMIT_HEADROOM
        )
        job_id = gateway.submit_job("a", problem, now=1.0)
        assert gateway.job_status(job_id)["status"] == "running"
        assert server.status(problem.problem_id) is ProblemStatus.RUNNING
        fresh = make_server()
        fresh_gateway = JobGateway(fresh)
        recover(fresh, store, now=2.0, gateway=fresh_gateway)
        _assert_same_gateway(fresh_gateway, gateway)
        drive_jobs_to_completion(fresh, fresh_gateway, t=3.0)
        assert fresh_gateway.job_result(job_id) == sum(range(20))

    def test_facade_returns_the_refusal(self, monkeypatch):
        store, server, gateway = self._journaled()
        facade = ServerFacade(server, gateway=gateway)
        monkeypatch.setattr(journal_module, "_MAX_FRAME_BYTES", SUBMIT_HEADROOM + 100)
        reply = facade.submit_job("a", sum_problem(20))
        assert "frame cap" in reply["error"]
        assert gateway.job_ids() == [] and not server._problems


class TestGatewayDurability:
    def test_journal_replay_restores_queue_and_accounting_exactly(self):
        store, _server, gateway = _driven_gateway()
        fresh = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=100.0)
        fresh_gateway = JobGateway(fresh)
        report = recover(fresh, store, now=20.0, gateway=fresh_gateway)
        assert report.replayed > 0
        _assert_same_gateway(fresh_gateway, gateway)

    def test_checkpoint_plus_tail_restores_exactly(self):
        store, server, gateway = _driven_gateway()
        blob = dumps_checkpoint(
            server, 11.0, journal_lsn=server.journal.last_lsn, gateway=gateway
        )
        # Post-checkpoint tail: one more job + a cancel, both replayed
        # on top of the restored checkpoint.
        j6 = gateway.submit_job("b", sum_problem(20), now=12.0)
        gateway.cancel_job(j6, now=13.0)
        fresh = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=100.0)
        fresh_gateway = JobGateway(fresh)
        recover(fresh, store, checkpoint=blob, now=20.0, gateway=fresh_gateway)
        _assert_same_gateway(fresh_gateway, gateway)

    def test_recovered_gateway_drives_jobs_to_completion(self):
        store, _server, gateway = _driven_gateway()
        fresh = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=100.0)
        fresh_gateway = JobGateway(fresh)
        recover(fresh, store, now=20.0, gateway=fresh_gateway)
        drive_jobs_to_completion(fresh, fresh_gateway, t=30.0)
        snap = fresh_gateway.snapshot()
        assert snap["jobs"] == {
            "queued": 0, "running": 0, "done": 3, "failed": 0, "cancelled": 2,
        }
        for job_id in fresh_gateway.job_ids():
            if fresh_gateway.job_status(job_id)["status"] == "done":
                assert fresh_gateway.job_result(job_id) == sum(range(20))

    @staticmethod
    def _recover_torn_after(store, kind):
        """Recover from *store*'s journal torn right after its first
        *kind* record, before the server record that followed it."""
        fresh = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=100.0)
        fresh_gateway = JobGateway(fresh)
        torn = rewrite_journal(store, upto=kind)
        recover(fresh, torn, now=20.0, gateway=fresh_gateway)
        return fresh, fresh_gateway

    def test_torn_tail_after_job_start_still_submits_the_problem(self):
        """Replaying a job start submits its problem, so losing the
        server's own problem.submit record loses nothing."""
        store, _server, _gateway = _driven_gateway()
        fresh, fresh_gateway = self._recover_torn_after(store, "gateway.job.start")
        status = fresh_gateway.job_status(1)
        assert status["status"] == "running"
        assert fresh.status(status["problem_id"]) is ProblemStatus.RUNNING
        drive_jobs_to_completion(fresh, fresh_gateway, t=30.0)
        assert fresh_gateway.job_result(1) == sum(range(20))

    def test_torn_tail_after_job_cancel_still_cancels_the_problem(self):
        """Replaying a running job's cancel cancels its problem, so no
        donor keeps computing it when problem.cancelled was lost."""
        store, _server, _gateway = _driven_gateway()
        fresh, fresh_gateway = self._recover_torn_after(store, "gateway.job.cancel")
        status = fresh_gateway.job_status(4)
        assert status["status"] == "cancelled"
        assert fresh.status(status["problem_id"]) is ProblemStatus.CANCELLED

    def test_gateway_journal_without_gateway_fails_loudly(self):
        store, _server, _gateway = _driven_gateway()
        fresh = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=100.0)
        with pytest.raises(JournalError, match="gateway"):
            recover(fresh, store, now=20.0)

    def test_gateway_checkpoint_without_gateway_fails_loudly(self):
        store, server, gateway = _driven_gateway()
        blob = dumps_checkpoint(
            server, 11.0, journal_lsn=server.journal.last_lsn, gateway=gateway
        )
        fresh = TaskFarmServer(policy=FixedGranularity(5), lease_timeout=100.0)
        with pytest.raises(JournalError, match="gateway"):
            recover(fresh, store, checkpoint=blob, now=20.0)


# ---------------------------------------------------------------------------
# Replay runs the live transitions: a whole journal rebuilds the live state


_OPS = st.sampled_from(
    ["submit", "fold", "lie", "fail", "hold", "late", "redo", "expire", "cancel",
     "pump", "churn", "checkpoint"]
)


def _live_facts(server, gateway) -> dict:
    """The durable state of a server + gateway, identity-free.

    Terminal job times are derived at reconcile time rather than
    journaled, so jobs are compared by status and start only.
    """
    jobs = {
        job_id: (job.tenant_id, job.status, job.problem_id, job.started_at)
        for job_id, job in gateway._jobs.items()
    }
    problems = {
        pid: (
            state.status,
            state.completed_at,
            state.next_unit_id,
            state.items_completed,
            state.items_cut,
            frozenset(state.completed_units),
            server.failure_reason(pid),
            {uid: len(v.votes) for uid, v in state.voting.items()},
        )
        for pid, state in server._problems.items()
    }
    delivered = {t: gateway.scheduler.delivered_items(t) for t in gateway.tenant_ids()}
    return {
        "jobs": jobs,
        "problems": problems,
        "tenants": gateway.snapshot()["tenants"],
        "delivered": delivered,
        "reputation": server.reputation.dump(),
    }


class TestReplayEqualsLive:
    @given(
        ops=st.lists(st.tuples(_OPS, st.integers(0, 5)), min_size=30, max_size=80),
        replicated=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=VERDICT_SUPPRESS)
    def test_whole_journal_rebuilds_live_state(self, ops, replicated):
        """Any run of submits, folds, lies, failures, expiries, cancels,
        churn and checkpoints, recovered from its last checkpoint plus
        the journal tail, rebuilds the same problems, jobs, tenant
        accounting and reputations."""
        integrity = IntegrityPolicy(replication=2) if replicated else None
        store = MemoryStore()
        server = make_server(
            policy=FixedGranularity(5),
            integrity=integrity,
            max_unit_attempts=2,
            journal=JournalWriter(store),
        )
        tenants = [
            TenantConfig("a", max_running=2, max_pending=99),
            TenantConfig("b", weight=2.0, max_running=1, max_pending=99),
        ]
        gateway = JobGateway(server, tenants)
        donors = ["d0", "d1", "d2"]
        for donor in donors:
            server.register_donor(donor, 0.0)
        held, sent = [], []
        checkpoint = None
        t = 0.0
        for op, k in ops:
            check_invariants(server)  # the state every earlier op left
            t += 1.0
            donor = donors[k % len(donors)]
            if op == "submit":
                gateway.submit_job("ab"[k % 2], sum_problem(5 + 5 * (k % 3)), now=t)
            elif op in ("fold", "lie", "fail", "hold"):
                a = server.request_work(donor, t)
                if a is None:
                    continue
                if op == "hold":
                    held.append((donor, a))
                elif op == "fail":
                    server.report_failure(a.problem_id, a.unit_id, donor, "boom", t)
                else:
                    value = compute(a).value if op == "fold" else -1
                    result = WorkResult(
                        a.problem_id, a.unit_id, value, donor, 1.0, a.items
                    )
                    server.submit_result(result, t)
                    sent.append(result)
            elif op == "late" and held:
                donor, a = held.pop(k % len(held))
                sent.append(compute(a, donor))
                server.submit_result(sent[-1], t)
            elif op == "redo" and sent:
                server.submit_result(sent[k % len(sent)], t)
            elif op == "expire":
                server.expire_leases((t := t + server.leases.timeout))
            elif op == "cancel" and gateway.job_ids():
                gateway.cancel_job(gateway.job_ids()[k % len(gateway.job_ids())], t)
            elif op == "churn":
                server.deregister_donor(donor, t)
                server.register_donor(donor, t)
            elif op == "pump":
                gateway.pump(t)
            elif op == "checkpoint":
                lsn = server.journal.last_lsn
                checkpoint = dumps_checkpoint(
                    server, t, journal_lsn=lsn, gateway=gateway
                )
                server.journal.rotate()
                compact(store, lsn)
        check_invariants(server)
        gateway.pump(t + 1.0)
        check_invariants(server)

        fresh = make_server(
            policy=FixedGranularity(5), integrity=integrity, max_unit_attempts=2
        )
        fresh_gateway = JobGateway(fresh)
        recover(fresh, store, checkpoint, now=t + 1.0, gateway=fresh_gateway)
        check_invariants(fresh)
        assert _live_facts(fresh, fresh_gateway) == _live_facts(server, gateway)
        if checkpoint is None:  # a checkpoint holds no donors: they re-register
            assert fresh.donor_ids() == server.donor_ids()
