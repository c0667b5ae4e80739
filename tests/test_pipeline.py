"""The pipelined donor runtime, differentially tested.

The tentpole contract: with prefetch double-buffering, depth-limited
leases, and tail-straggler re-issue all enabled, the assembled result
of every run is **bit-identical** to the historical serial runtime —
for both target applications, across seeds, in the simulator and on
the live in-process path.  The speed-up itself is gated in
``benchmarks/test_pipeline.py``; this file owns correctness: the depth
gate, the tail re-issue policy and its exactly-once folding, the
chaos interplay (a crashed donor with a prefetched lease outstanding,
a speculative copy racing a late honest replica), the granularity
taper, and the donor-side idle backoff.
"""

import random
import threading
import time

import pytest

from repro.cluster.local import ServerFacade, ThreadCluster
from repro.cluster.sim import FaultPlan, SimCluster, heterogeneous_pool
from repro.core.client import DonorClient, InProcessServerPort, run_to_completion
from repro.core.integrity import canonical_digest
from repro.core.problem import Problem
from repro.core.scheduler import (
    AdaptiveGranularity,
    DonorState,
    FixedGranularity,
)
from repro.core.server import PipelineConfig, ProblemStatus, TaskFarmServer
from repro.core.workunit import WorkResult
from tests.helpers import (
    ManualClock,
    RangeSumAlgorithm,
    RangeSumDataManager,
    RecordingPort,
)
from tests.test_data_cache import DIFF_SEEDS, dprml_problem, dsearch_problem

#: The standard pipelined runtime under test everywhere below.
PIPELINE = PipelineConfig(lease_depth=2, tail_reissue=True)


# ---------------------------------------------------------------------------
# Workload helpers


def run_sim(problem, pipeline=None, chaos=None, lease_timeout=120.0):
    """One simulated run; mirrors tests/test_data_cache.py's harness so
    the serial digests here match that suite's."""
    cluster = SimCluster(
        heterogeneous_pool(5, seed=2),
        policy=FixedGranularity(3),
        lease_timeout=lease_timeout,
        seed=5,
        pipeline=pipeline,
        chaos=chaos,
        max_unit_attempts=10,
    )
    pid = cluster.submit(problem)
    report = cluster.run()
    assert report.completed
    return cluster, report.results[pid]


def sum_problem(n=30) -> Problem:
    return Problem("sum", RangeSumDataManager(n), RangeSumAlgorithm())


def compute(assignment, donor_id) -> WorkResult:
    lo, hi = assignment.payload
    return WorkResult(
        problem_id=assignment.problem_id,
        unit_id=assignment.unit_id,
        value=sum(range(lo, hi)),
        donor_id=donor_id,
        compute_seconds=1.0,
        items=assignment.items,
    )


# ---------------------------------------------------------------------------
# The differential equivalence suite: pipelined == serial, bit for bit


class TestSimDifferential:
    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dsearch_pipelined_bit_identical(self, seed):
        _c, plain = run_sim(dsearch_problem(seed, share=False))
        piped_cluster, piped = run_sim(
            dsearch_problem(seed, share=False), pipeline=PIPELINE
        )
        assert canonical_digest(piped) == canonical_digest(plain)
        counters = piped_cluster.obs.meters.snapshot()["counters"]
        # The overlap really happened: most fetches hid under compute.
        assert counters["farm.pipeline.prefetch.hits"] > 0

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dprml_pipelined_bit_identical(self, seed):
        _c, plain = run_sim(dprml_problem(seed, share=False))
        piped_cluster, piped = run_sim(
            dprml_problem(seed, share=False), pipeline=PIPELINE
        )
        assert canonical_digest(piped) == canonical_digest(plain)
        counters = piped_cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.pipeline.prefetch.hits"] > 0

    def test_pipeline_composes_with_payload_sharing(self):
        """Prefetch + the content-addressed blob cache together still
        assemble the serial, share-off answer."""
        _c, plain = run_sim(dsearch_problem(3, share=False))
        piped_cluster, piped = run_sim(
            dsearch_problem(3, share=True), pipeline=PIPELINE
        )
        assert canonical_digest(piped) == canonical_digest(plain)
        counters = piped_cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.pipeline.prefetch.hits"] > 0
        assert counters["farm.cache.hits"] > 0


class TestInProcessDifferential:
    """The live code path: a prefetching ThreadCluster against the
    single-threaded serial driver."""

    @pytest.mark.parametrize("build", [dsearch_problem, dprml_problem])
    def test_threaded_prefetch_bit_identical(self, build):
        serial_server = TaskFarmServer(
            policy=FixedGranularity(3), lease_timeout=120.0
        )
        pid = serial_server.submit(build(3, False), now=0.0)
        run_to_completion(serial_server, donors=3)
        plain = serial_server.final_result(pid)

        cluster = ThreadCluster(
            workers=3, policy=FixedGranularity(3), prefetch=True
        )
        pid2 = cluster.submit(build(3, False))
        cluster.run()
        piped = cluster.final_result(pid2)

        assert canonical_digest(piped) == canonical_digest(plain)
        # Donor-side meters crossed the wire inside result envelopes
        # and landed in the server registry.
        counters = cluster.server.obs.meters.snapshot()["counters"]
        assert (
            counters.get("farm.pipeline.prefetch.hits", 0)
            + counters.get("farm.pipeline.prefetch.misses", 0)
        ) > 0


class TestOneLoop:
    """Every mode runs the one windowed loop of ``DonorClient.run``."""

    def test_serial_run_port_calls_in_order(self):
        """Window 1: each unit's calls in the paper's order, one unit at
        a time, the shared blobs fetched once."""
        server = TaskFarmServer(policy=FixedGranularity(2), lease_timeout=600.0)
        server.submit(dsearch_problem(3, share=True), 0.0)
        port = RecordingPort(InProcessServerPort(server))
        assert DonorClient("d0", port, sleep=lambda _s: None).run() == 7
        assert port.names() == (
            ["register_donor", "request_work", "get_algorithm"]
            + ["get_shared_blob"] * 2
            + ["submit_result"]
            + ["request_work", "submit_result"] * 6
            + ["request_work", "all_complete", "deregister_donor"]
        )
        assert {thread for _name, thread in port.calls} == {threading.get_ident()}

    def test_prefetch_port_calls_stay_on_the_run_thread(self):
        """Window 2: only compute leaves the loop's thread."""
        server = TaskFarmServer(
            policy=FixedGranularity(2), lease_timeout=600.0, pipeline=PIPELINE
        )
        server.submit(dsearch_problem(3, share=True), time.monotonic())
        port = RecordingPort(ServerFacade(server))
        client = DonorClient("d0", port, prefetch=True, idle_sleep=0.001)
        assert client.run() == 7
        assert {thread for _name, thread in port.calls} == {threading.get_ident()}
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.pipeline.prefetch.hits"] > 0


# ---------------------------------------------------------------------------
# The depth gate


class TestLeaseDepth:
    def test_third_request_refused_at_depth_two(self):
        server = TaskFarmServer(
            policy=FixedGranularity(10),
            lease_timeout=100.0,
            pipeline=PipelineConfig(lease_depth=2),
        )
        pid = server.submit(sum_problem(100), now=0.0)
        server.register_donor("d0", 0.0)
        a1 = server.request_work("d0", 1.0)
        a2 = server.request_work("d0", 1.0)
        assert a1 is not None and a2 is not None
        assert server.request_work("d0", 1.0) is None
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.pipeline.depth.refusals"] == 1
        # Completing one unit frees one slot.
        assert server.submit_result(compute(a1, "d0"), 2.0)
        a3 = server.request_work("d0", 3.0)
        assert a3 is not None
        assert a3.unit_id not in (a1.unit_id, a2.unit_id)
        assert pid == a3.problem_id

    def test_depth_none_keeps_unlimited_behaviour(self):
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=100.0)
        server.submit(sum_problem(100), now=0.0)
        server.register_donor("d0", 0.0)
        grants = [server.request_work("d0", 1.0) for _ in range(10)]
        assert all(a is not None for a in grants)
        counters = server.obs.meters.snapshot()["counters"]
        assert counters.get("farm.pipeline.depth.refusals", 0) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lease_depth"):
            PipelineConfig(lease_depth=0)
        with pytest.raises(ValueError, match="tail_window"):
            PipelineConfig(tail_window=0)
        with pytest.raises(ValueError, match="max_holders"):
            PipelineConfig(max_holders=1)


# ---------------------------------------------------------------------------
# Chaos interplay


class TestChaosInterplay:
    def test_donor_crash_with_prefetched_lease_outstanding(self):
        """A pipelined donor dies holding TWO leases (one computing, one
        prefetched).  Both must expire, requeue, and be recomputed
        exactly once by the survivor."""
        server = TaskFarmServer(
            policy=FixedGranularity(10),
            lease_timeout=30.0,
            pipeline=PipelineConfig(lease_depth=2),
        )
        pid = server.submit(sum_problem(30), now=0.0)  # 3 units
        server.register_donor("doomed", 0.0)
        server.register_donor("survivor", 0.0)
        a1 = server.request_work("doomed", 1.0)
        a2 = server.request_work("doomed", 1.0)  # the prefetched slot
        assert a1 is not None and a2 is not None
        b1 = server.request_work("survivor", 1.0)
        assert server.submit_result(compute(b1, "survivor"), 2.0)
        # "doomed" goes silent; both of its leases age out together.
        assert server.expire_leases(32.0) == 2
        t = 33.0
        while server.status(pid) is ProblemStatus.RUNNING:
            a = server.request_work("survivor", t)
            assert a is not None
            assert server.submit_result(compute(a, "survivor"), t + 0.5)
            t += 1.0
        assert server.final_result(pid) == sum(range(30))
        counters = server.obs.meters.snapshot()["counters"]
        # Exactly once: 30 items' worth of results applied, no waste.
        assert counters["farm.items.completed"] == 30
        assert counters["farm.leases.expired"] == 2
        assert counters.get("farm.pipeline.wasted.items", 0) == 0

    def test_tail_reissue_races_late_honest_replica(self):
        """The straggler finishes AFTER its speculative copy: the copy's
        result is applied, the late honest one is folded away as a
        duplicate and charged to the waste meter."""
        server = TaskFarmServer(
            policy=FixedGranularity(10),
            lease_timeout=100.0,
            pipeline=PipelineConfig(tail_reissue=True, tail_window=4),
        )
        pid = server.submit(sum_problem(30), now=0.0)  # 3 units
        for d in ("slow", "b", "c", "idle"):
            server.register_donor(d, 0.0)
        a = server.request_work("slow", 1.0)
        b = server.request_work("b", 1.0)
        c = server.request_work("c", 1.0)
        assert server.submit_result(compute(b, "b"), 2.0)
        # Fresh units are exhausted ("c" still computing); "idle" gets a
        # speculative copy of the oldest in-flight unit — "slow"'s.
        d = server.request_work("idle", 3.0)
        assert d is not None and d.unit_id == a.unit_id
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.pipeline.tail.reissues"] == 1
        # The copy wins the race...
        assert server.submit_result(compute(d, "idle"), 4.0)
        # ...and the late honest original is dropped, not double-counted.
        assert not server.submit_result(compute(a, "slow"), 5.0)
        assert server.submit_result(compute(c, "c"), 6.0)
        assert server.status(pid) is ProblemStatus.COMPLETE
        assert server.final_result(pid) == sum(range(30))
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.units.duplicate"] == 1
        assert counters["farm.pipeline.wasted.items"] == a.items
        assert counters["farm.items.completed"] == 30
        # The loser's lease bookkeeping is cleaned up with the fold.
        assert not server.leases.holders(pid, a.unit_id)

    def test_tail_reissue_respects_max_holders(self):
        server = TaskFarmServer(
            policy=FixedGranularity(30),
            lease_timeout=100.0,
            pipeline=PipelineConfig(tail_reissue=True, tail_window=4),
        )
        server.submit(sum_problem(30), now=0.0)  # a single unit
        for d in ("a", "b", "c"):
            server.register_donor(d, 0.0)
        a = server.request_work("a", 1.0)
        b = server.request_work("b", 2.0)  # speculative copy (2 holders)
        assert a is not None and b is not None and b.unit_id == a.unit_id
        # A third holder would exceed max_holders=2.
        assert server.request_work("c", 3.0) is None

    @pytest.mark.parametrize("seed", [11, 23])
    def test_pipelined_chaos_crash_bit_identical(self, seed):
        """Machine crashes under the pipelined protocol (prefetched
        leases die with their donor) still converge to the fault-free
        serial answer."""
        _c, plain = run_sim(dsearch_problem(7, share=False))
        chaos = FaultPlan(seed=seed, crash_rate=0.15, crash_downtime=40.0)
        _piped, result = run_sim(
            dsearch_problem(7, share=False),
            pipeline=PIPELINE,
            chaos=chaos,
            lease_timeout=60.0,
        )
        assert canonical_digest(result) == canonical_digest(plain)


# ---------------------------------------------------------------------------
# The granularity taper


class TestTailTaper:
    def _calibrated_donor(self, policy, rate=100.0):
        donor = DonorState("d0", registered_at=0.0, last_seen=0.0)
        model = donor.perf_for(1, alpha=policy.alpha)
        model.observe(1000, 1000.0 / rate)  # rate items/s, well warmed
        model.last_items = 1000
        return donor

    def test_tail_cap_shrinks_final_units(self):
        policy = AdaptiveGranularity(
            target_seconds=10.0, max_items=10_000, tail_factor=4.0
        )
        donor = self._calibrated_donor(policy)
        # Mid-problem the ideal (rate * target = 1000) wins.
        assert policy.items_for(donor, 1, remaining=100_000) == 1000
        # Near the end the tail cap binds: ceil(remaining / factor).
        assert policy.items_for(donor, 1, remaining=8) == 2
        assert policy.items_for(donor, 1, remaining=3) == 1

    def test_no_taper_by_default_or_without_count(self):
        plain = AdaptiveGranularity(target_seconds=10.0, max_items=10_000)
        donor = self._calibrated_donor(plain)
        assert plain.items_for(donor, 1, remaining=8) == 1000
        tapered = AdaptiveGranularity(
            target_seconds=10.0, max_items=10_000, tail_factor=4.0
        )
        donor2 = self._calibrated_donor(tapered)
        # A DataManager that cannot count passes remaining=None.
        assert tapered.items_for(donor2, 1, remaining=None) == 1000

    def test_tail_factor_validation(self):
        with pytest.raises(ValueError, match="tail_factor"):
            AdaptiveGranularity(tail_factor=1.0)

    def test_fixed_policy_ignores_remaining(self):
        donor = DonorState("d0", registered_at=0.0, last_seen=0.0)
        assert FixedGranularity(7).items_for(donor, 1, remaining=2) == 7


# ---------------------------------------------------------------------------
# Donor-side idle backoff (satellite: no more fixed 0.1 s hammering)


class _IdlePort:
    """A server with never any work (and no completion either)."""

    def register_donor(self, donor_id):
        pass

    def deregister_donor(self, donor_id):
        pass

    def request_work(self, donor_id):
        return None

    def all_complete(self):
        return False


class TestIdleBackoff:
    def test_full_jitter_growth_and_cap(self):
        sleeps = []
        client = DonorClient(
            "d0",
            _IdlePort(),
            idle_sleep=0.5,
            idle_sleep_max=4.0,
            sleep=sleeps.append,
            rng=random.Random(7),
        )
        for _ in range(6):
            client._idle_wait()
        rng = random.Random(7)
        expected = [
            rng.uniform(0.0, min(4.0, 0.5 * 2.0**attempt))
            for attempt in range(6)
        ]
        assert sleeps == expected
        assert all(s <= 4.0 for s in sleeps)
        assert client.idle_polls == 6

    def test_cap_defaults_to_heartbeat_interval(self):
        sleeps = []
        client = DonorClient(
            "d0",
            _IdlePort(),
            idle_sleep=1.0,
            heartbeat_interval=2.0,
            sleep=sleeps.append,
            rng=random.Random(3),
        )
        for _ in range(5):
            client._idle_wait()
        rng = random.Random(3)
        expected = [
            rng.uniform(0.0, min(2.0, 1.0 * 2.0**attempt))
            for attempt in range(5)
        ]
        assert sleeps == expected

    def test_attempt_resets_after_work(self):
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=60.0)
        server.submit(sum_problem(10), now=0.0)
        from repro.core.client import InProcessServerPort

        client = DonorClient(
            "d0", InProcessServerPort(server), sleep=lambda _s: None
        )
        client._idle_attempt = 5  # as if it had been idling at a barrier
        client.run()
        assert client.units_done == 1
        assert client._idle_attempt == 0

    def test_idle_sleep_max_below_base_rejected(self):
        with pytest.raises(ValueError, match="idle_sleep_max"):
            DonorClient("d0", _IdlePort(), idle_sleep=1.0, idle_sleep_max=0.5)


# ---------------------------------------------------------------------------
# run_to_completion yields instead of busy-spinning


class TestRunToCompletion:
    def test_idle_rounds_yield_through_sleep(self):
        """Every unit is leased to a donor that never answers: the
        driver must *wait* (letting the clock advance toward lease
        expiry), not spin hot, and then finish on the requeued units."""
        clock = ManualClock()
        server = TaskFarmServer(policy=FixedGranularity(10), lease_timeout=5.0)
        pid = server.submit(sum_problem(30), now=clock())
        server.register_donor("ghost", clock())
        ghost = server.request_work("ghost", clock())
        assert ghost is not None  # unit 0 stranded on the ghost

        yields = []

        def sleep(seconds):
            yields.append(seconds)
            clock.advance(1.0)

        run_to_completion(server, donors=2, clock=clock, sleep=sleep)
        assert server.final_result(pid) == sum(range(30))
        # The driver idled (units 1-2 done, unit 0 leased out) and
        # yielded instead of burning the 10k-round guard.
        assert 0 < len(yields) <= 10
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.leases.expired"] == 1
