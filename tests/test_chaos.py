"""The deterministic chaos harness.

The headline property: for any seeded fault schedule (donor crashes,
byzantine corruption, dropped / duplicated / delayed results, one
mid-run server restart), every problem completes and the assembled
result is **bit-identical** to the fault-free run — for both target
applications.  Plus the byte-level wire chaos: corrupted RMI frames
and datachannel streams must fail loudly without killing the server.
"""

import os
import socket

import numpy as np
import pytest

from repro.apps.dprml import DPRmlConfig
from repro.apps.dprml import build_problem as build_dprml_problem
from repro.apps.dsearch import DSearchConfig
from repro.apps.dsearch import build_problem as build_dsearch_problem
from repro.bio.phylo.models import JC69
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.seq import DNA
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.cluster.sim import FaultPlan, SimCluster, WireChaos, heterogeneous_pool
from repro.core.integrity import IntegrityPolicy, canonical_digest
from repro.core.journal import read_journal
from repro.core.scheduler import FixedGranularity
from repro.rmi import serialize
from repro.rmi.datachannel import DataChannelServer, fetch_data, push_data
from repro.rmi.errors import ChecksumError, ConnectionClosed, RMIError
from repro.rmi.reconnect import ReconnectingPort
from repro.rmi.transport import FrameSocket, TransportServer, dial
from repro.obs.meters import MeterRegistry
from repro.util.rng import spawn_rng
from tests.helpers import check_folds_once, check_invariants

#: The chaos-smoke seed set.  CI adds one rolling seed from the run
#: number (see .github/workflows/ci.yml) so the schedule space keeps
#: getting explored; the failing seed is in the test id, so a red run
#: is replayable verbatim.
CHAOS_SEEDS = [11, 23, 37, 59, 83]
_extra = os.environ.get("CHAOS_EXTRA_SEED")
if _extra and _extra.isdigit():
    CHAOS_SEEDS.append(int(_extra))


#: Chaos seeds exercised by the cached-vs-uncached differential (a
#: subset: each case runs two full simulations).
CACHE_CHAOS_SEEDS = CHAOS_SEEDS[:2]


def chaos_plan(seed: int, restart_at: float | None) -> FaultPlan:
    """Every fault type at once, scheduled by *seed*."""
    return FaultPlan(
        seed=seed,
        crash_rate=0.15,
        crash_downtime=40.0,
        byzantine_fraction=0.3,
        corrupt_rate=0.7,
        drop_rate=0.1,
        dup_rate=0.15,
        delay_rate=0.2,
        max_delay=90.0,  # beyond the lease timeout: late-result paths
        server_restart_at=restart_at,
    )


def check_journaled_run(cluster) -> None:
    """Invariants of a finished run, plus exactly-once folding read back
    from its journal when it ran one."""
    check_invariants(cluster.server)
    if cluster.journal_store is not None:
        check_folds_once(cluster.journal_store, cluster._checkpoint_bytes)


def run_sim(build_problem, chaos=None, integrity=None):
    cluster = SimCluster(
        heterogeneous_pool(6, seed=2),
        policy=FixedGranularity(4),
        lease_timeout=60.0,
        seed=5,
        integrity=integrity,
        chaos=chaos,
        max_unit_attempts=10,
    )
    pid = cluster.submit(build_problem())
    report = cluster.run()
    check_journaled_run(cluster)
    return cluster, pid, report


@pytest.fixture(scope="module")
def dsearch_factory():
    rng = np.random.default_rng(7)
    query = random_sequence("q0", 60, DNA, rng)
    database, _ = seeded_database(
        query, decoy_count=14, homolog_count=2, seed=11, substitution_rate=0.1
    )

    def build():
        return build_dsearch_problem(
            database, [query], DSearchConfig(top_hits=4)
        )

    return build


@pytest.fixture(scope="module")
def dprml_factory():
    true = random_yule_tree(6, seed=33, mean_branch=0.2)
    alignment = simulate_alignment(true, JC69(), 200, seed=34)

    def build():
        return build_dprml_problem(alignment, DPRmlConfig(model="jc69"))

    return build


@pytest.fixture(scope="module")
def dsearch_baseline(dsearch_factory):
    """Fault-free digest + a restart time inside the chaos run."""
    _cluster, pid, report = run_sim(dsearch_factory)
    assert report.completed
    return canonical_digest(report.results[pid]), report.sim_time * 0.4


@pytest.fixture(scope="module")
def dprml_baseline(dprml_factory):
    _cluster, pid, report = run_sim(dprml_factory)
    assert report.completed
    return canonical_digest(report.results[pid]), report.sim_time * 0.4


class TestChaosProperty:
    """Completion + bit-identical results under seeded fault schedules."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_dsearch_survives_chaos(self, seed, dsearch_factory, dsearch_baseline):
        baseline_digest, restart_at = dsearch_baseline
        _cluster, pid, report = run_sim(
            dsearch_factory,
            chaos=chaos_plan(seed, restart_at),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed, f"chaos seed {seed}: run did not finish"
        assert pid in report.results, f"chaos seed {seed}: problem failed"
        assert canonical_digest(report.results[pid]) == baseline_digest, (
            f"chaos seed {seed}: assembled result diverged from fault-free run"
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_dprml_survives_chaos(self, seed, dprml_factory, dprml_baseline):
        baseline_digest, restart_at = dprml_baseline
        _cluster, pid, report = run_sim(
            dprml_factory,
            chaos=chaos_plan(seed, restart_at),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed, f"chaos seed {seed}: run did not finish"
        assert pid in report.results, f"chaos seed {seed}: problem failed"
        assert canonical_digest(report.results[pid]) == baseline_digest, (
            f"chaos seed {seed}: assembled result diverged from fault-free run"
        )

    def test_same_seed_replays_identically(self, dsearch_factory, dsearch_baseline):
        """The determinism contract: one seed, one fault schedule."""
        _digest, restart_at = dsearch_baseline

        def trace(seed):
            cluster, _pid, _report = run_sim(
                dsearch_factory,
                chaos=chaos_plan(seed, restart_at),
                integrity=IntegrityPolicy(replication=2),
            )
            # Problem ids come from a process-global counter, so they
            # are numbered by first appearance.
            pids: dict[int, int] = {}
            stream = []
            for r in read_journal(cluster.journal_store)[0]:
                result = r.get("result")
                if result is not None:
                    pid, uid, donor = result.problem_id, result.unit_id, result.donor_id
                else:
                    pid, uid, donor = r.get("pid"), r.get("uid"), r.get("donor")
                if pid is not None:
                    pid = pids.setdefault(pid, len(pids))
                stream.append((r["kind"], r["now"], pid, uid, donor))
            return stream

        assert trace(CHAOS_SEEDS[0]) == trace(CHAOS_SEEDS[0])
        assert trace(CHAOS_SEEDS[0]) != trace(CHAOS_SEEDS[1])

    def test_faults_really_fire(self, dsearch_factory, dsearch_baseline):
        """Guard against a harness that silently injects nothing."""
        _digest, restart_at = dsearch_baseline
        cluster, _pid, _report = run_sim(
            dsearch_factory,
            chaos=chaos_plan(CHAOS_SEEDS[0], restart_at),
            integrity=IntegrityPolicy(replication=2),
        )
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.recovery.seconds"] > 0
        assert counters["farm.integrity.redundant_units"] > 0


class TestCachedChaosEquivalence:
    """The data cache under fire: a run with shared payload blobs and
    every fault type active (including a mid-run server restart, which
    rebuilds the server — and its shared-blob table — from checkpoint
    bytes while donors keep their warm caches) must assemble the same
    bits as a fault-free run with the cache off entirely."""

    @pytest.fixture(scope="class")
    def dsearch_uncached_digest(self, dsearch_factory):
        rng = np.random.default_rng(7)
        query = random_sequence("q0", 60, DNA, rng)
        database, _ = seeded_database(
            query, decoy_count=14, homolog_count=2, seed=11,
            substitution_rate=0.1,
        )
        _cluster, pid, report = run_sim(
            lambda: build_dsearch_problem(
                database,
                [query],
                DSearchConfig(top_hits=4, share_payloads=False),
            )
        )
        assert report.completed
        return canonical_digest(report.results[pid])

    @pytest.fixture(scope="class")
    def dprml_uncached_digest(self):
        true = random_yule_tree(6, seed=33, mean_branch=0.2)
        alignment = simulate_alignment(true, JC69(), 200, seed=34)
        _cluster, pid, report = run_sim(
            lambda: build_dprml_problem(
                alignment, DPRmlConfig(model="jc69", share_payloads=False)
            )
        )
        assert report.completed
        return canonical_digest(report.results[pid])

    @pytest.mark.parametrize("seed", CACHE_CHAOS_SEEDS)
    def test_dsearch_cached_chaos_matches_uncached_clean(
        self, seed, dsearch_factory, dsearch_baseline, dsearch_uncached_digest
    ):
        cached_clean_digest, restart_at = dsearch_baseline
        # Sharing on or off must not change the assembled bits even
        # before any chaos enters the picture.
        assert cached_clean_digest == dsearch_uncached_digest
        cluster, pid, report = run_sim(
            dsearch_factory,  # default config: share_payloads on
            chaos=chaos_plan(seed, restart_at),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed
        assert canonical_digest(report.results[pid]) == dsearch_uncached_digest
        counters = cluster.obs.meters.snapshot()["counters"]
        # The cache really was in the line of fire.
        assert counters["farm.cache.misses"] > 0
        assert counters["net.blob.bytes"] > 0
        assert counters["farm.recovery.seconds"] > 0

    @pytest.mark.parametrize("seed", CACHE_CHAOS_SEEDS)
    def test_dprml_cached_chaos_matches_uncached_clean(
        self, seed, dprml_factory, dprml_baseline, dprml_uncached_digest
    ):
        cached_clean_digest, restart_at = dprml_baseline
        assert cached_clean_digest == dprml_uncached_digest
        cluster, pid, report = run_sim(
            dprml_factory,
            chaos=chaos_plan(seed, restart_at),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed
        assert canonical_digest(report.results[pid]) == dprml_uncached_digest
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.cache.misses"] > 0


def recovery_plan(
    seed: int,
    restart_at: float,
    torn: int = 0,
    ack_crash: float = 0.0,
) -> FaultPlan:
    """Every fault type plus the durability drills: periodic journal
    checkpoints, crashes in the journal-append-to-ack window, and
    optional byte-level tail corruption at each restart."""
    return FaultPlan(
        seed=seed,
        crash_rate=0.15,
        crash_downtime=40.0,
        byzantine_fraction=0.3,
        corrupt_rate=0.7,
        drop_rate=0.1,
        dup_rate=0.15,
        delay_rate=0.2,
        max_delay=90.0,
        server_restart_at=restart_at,
        checkpoint_every=restart_at * 0.45,
        torn_tail_bytes=torn,
        ack_crash_rate=ack_crash,
    )


#: The crash/recover differentials run two full sims per case.
RECOVERY_SEEDS = CHAOS_SEEDS[:3]


class TestRecoveryDrills:
    """Crash/recover vs. never-crashed, bit-identical.

    Every restart here is a genuine recovery: the dying server's memory
    is dropped and a fresh one rebuilds itself from checkpoint bytes +
    journal replay (plus an optional torn tail chopped off first).  The
    assembled results must match the fault-free baselines exactly.
    """

    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_dsearch_journal_recovery_differential(
        self, seed, dsearch_factory, dsearch_baseline
    ):
        baseline_digest, restart_at = dsearch_baseline
        cluster, pid, report = run_sim(
            dsearch_factory,
            chaos=recovery_plan(seed, restart_at, ack_crash=0.02),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed, f"seed {seed}: run did not finish"
        assert canonical_digest(report.results[pid]) == baseline_digest, (
            f"seed {seed}: recovered run diverged from never-crashed run"
        )
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.records"] > 0
        assert counters["farm.journal.fsyncs"] > 0
        # A restart can land right after a checkpoint and replay zero
        # records; the recovery pass itself must still have run.
        assert counters["farm.recovery.seconds"] > 0

    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_dprml_journal_recovery_differential(
        self, seed, dprml_factory, dprml_baseline
    ):
        baseline_digest, restart_at = dprml_baseline
        cluster, pid, report = run_sim(
            dprml_factory,
            chaos=recovery_plan(seed, restart_at, ack_crash=0.02),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed, f"seed {seed}: run did not finish"
        assert canonical_digest(report.results[pid]) == baseline_digest, (
            f"seed {seed}: recovered run diverged from never-crashed run"
        )
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.records"] > 0
        assert counters["farm.recovery.seconds"] > 0

    def test_dsearch_torn_tail_recovers_after_loud_truncation(
        self, dsearch_factory, dsearch_baseline
    ):
        baseline_digest, restart_at = dsearch_baseline
        cluster, pid, report = run_sim(
            dsearch_factory,
            chaos=recovery_plan(RECOVERY_SEEDS[0], restart_at, torn=200),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed
        assert canonical_digest(report.results[pid]) == baseline_digest
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.torn.truncated"] > 0

    def test_dprml_torn_tail_recovers_after_loud_truncation(
        self, dprml_factory, dprml_baseline
    ):
        baseline_digest, restart_at = dprml_baseline
        cluster, pid, report = run_sim(
            dprml_factory,
            chaos=recovery_plan(RECOVERY_SEEDS[0], restart_at, torn=200),
            integrity=IntegrityPolicy(replication=2),
        )
        assert report.completed
        assert canonical_digest(report.results[pid]) == baseline_digest
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.torn.truncated"] > 0


def run_gateway_sim(build_problem, chaos=None, integrity=None, cancel_at=None):
    """Four identical jobs through the job gateway: alice's second job
    queues behind her ``max_running=1`` cap, bob's two run at once, and
    (with *cancel_at*) bob's second is cancelled mid-flight — so a
    restart inside the run crashes a gateway holding queued, running,
    and cancelled jobs at once."""
    from repro.core.gateway import TenantConfig

    cluster = SimCluster(
        heterogeneous_pool(6, seed=2),
        policy=FixedGranularity(4),
        lease_timeout=60.0,
        seed=5,
        integrity=integrity,
        chaos=chaos,
        max_unit_attempts=10,
        tenants=[
            TenantConfig("alice", weight=1.0, max_running=1, max_pending=8),
            TenantConfig("bob", weight=2.0, max_running=2, max_pending=8),
        ],
    )
    pids = [
        cluster.submit_job("alice", build_problem()),  # job 1: runs
        cluster.submit_job("alice", build_problem()),  # job 2: queued behind it
        cluster.submit_job("bob", build_problem()),  # job 3: runs
        cluster.submit_job("bob", build_problem()),  # job 4: cancelled mid-run
    ]
    if cancel_at is not None:
        cluster.sim.schedule(
            cancel_at,
            lambda: cluster.gateway.cancel_job(4, now=cluster.sim.now),
        )
    report = cluster.run()
    check_journaled_run(cluster)
    return cluster, pids, report


class TestGatewayRecoveryDrills:
    """Kill the server while the gateway holds queued + running +
    cancelled jobs; journal replay must restore the job queue and the
    per-tenant accounting exactly, and every surviving job's result
    must match the fault-free single-problem baseline bit-for-bit."""

    def _check(self, cluster, pids, report, baseline_digest, seed):
        assert report.completed, f"seed {seed}: run did not finish"
        for pid in pids[:3]:
            assert canonical_digest(report.results[pid]) == baseline_digest, (
                f"seed {seed}: job result diverged from fault-free run"
            )
        # The cancelled job never assembles a result.
        assert pids[3] not in report.results
        gateway = cluster.gateway
        assert gateway.job_status(4)["status"] == "cancelled"
        snap = {t["tenant"]: t for t in gateway.snapshot()["tenants"]}
        assert snap["alice"]["jobs_done"] == 2
        assert snap["bob"]["jobs_done"] == 1
        assert snap["bob"]["jobs_cancelled"] == 1
        # Accounting consistency across the crash: each tenant's
        # delivered-items total is exactly the sum of its problems'
        # folded items (the quantity journal replay rebuilds).
        for tenant, jobs in (("alice", pids[:2]), ("bob", pids[2:])):
            folded = sum(
                cluster.server._problems[pid].items_completed
                for pid in jobs
                if pid in cluster.server._problems
            )
            assert gateway.scheduler.delivered_items(tenant) == folded
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.journal.records"] > 0
        assert counters["farm.recovery.seconds"] > 0

    @pytest.mark.parametrize("seed", RECOVERY_SEEDS)
    def test_dsearch_gateway_journal_recovery(
        self, seed, dsearch_factory, dsearch_baseline
    ):
        baseline_digest, restart_at = dsearch_baseline
        cluster, pids, report = run_gateway_sim(
            dsearch_factory,
            chaos=recovery_plan(seed, restart_at),
            integrity=IntegrityPolicy(replication=2),
            cancel_at=restart_at * 0.5,
        )
        self._check(cluster, pids, report, baseline_digest, seed)

    def test_dprml_gateway_journal_recovery(self, dprml_factory, dprml_baseline):
        baseline_digest, restart_at = dprml_baseline
        cluster, pids, report = run_gateway_sim(
            dprml_factory,
            chaos=recovery_plan(RECOVERY_SEEDS[0], restart_at),
            integrity=IntegrityPolicy(replication=2),
            cancel_at=restart_at * 0.5,
        )
        self._check(cluster, pids, report, baseline_digest, RECOVERY_SEEDS[0])


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestWireChaos:
    def test_mangle_flips_exactly_one_byte(self):
        chaos = WireChaos(seed=3, corrupt_rate=1.0)
        payload = bytes(range(64))
        damaged = chaos.mangle(payload)
        assert len(damaged) == len(payload)
        assert sum(a != b for a, b in zip(payload, damaged)) == 1
        assert chaos.corrupted == 1

    def test_maybe_delay_uses_injected_sleep(self):
        slept = []
        chaos = WireChaos(
            seed=4, delay_rate=1.0, max_delay=5.0, sleep=slept.append
        )
        chaos.maybe_delay()
        chaos.maybe_delay()
        assert chaos.delayed == 2
        assert all(0.0 <= s <= 5.0 for s in slept) and len(slept) == 2

    @staticmethod
    def _corrupting_seed(obj) -> int:
        """A seed whose one-byte flip makes the frame undecodable
        without touching the length field (which would stall the
        reader instead of failing loudly)."""
        frame = serialize.dumps(obj)
        for seed in range(200):
            mangled = WireChaos(seed=seed, corrupt_rate=1.0).mangle(frame)
            index = next(
                i for i, (a, b) in enumerate(zip(frame, mangled)) if a != b
            )
            if 3 <= index < 7:  # the big-endian length field
                continue
            try:
                serialize.loads(mangled)
            except RMIError:
                return seed
        raise AssertionError("no corrupting seed found")

    def test_server_survives_corrupt_frame(self):
        """A mangled frame kills that connection, not the server."""
        request = {"op": "ping", "payload": list(range(32))}

        def echo(fsock):
            while True:
                fsock.send_obj(("echo", fsock.recv_obj()))

        with TransportServer(echo, meters=MeterRegistry()) as server:
            seed = self._corrupting_seed(request)
            dirty = dial("127.0.0.1", server.port)
            dirty.chaos = WireChaos(seed=seed, corrupt_rate=1.0)
            dirty.send_obj(request)
            assert dirty.chaos.corrupted == 1
            with pytest.raises((ConnectionClosed, OSError)):
                dirty.recv_obj()  # server dropped the poisoned connection
            dirty.close()

            with dial("127.0.0.1", server.port) as clean:
                clean.send_obj(request)
                assert clean.recv_obj() == ("echo", request)


class TestDataChannelChecksum:
    def test_corrupted_push_refused_and_metered(self):
        meters = MeterRegistry()
        with DataChannelServer(meters=meters) as server:
            data = bytes(range(256)) * 64
            chaos = WireChaos(seed=9, corrupt_rate=1.0)
            with pytest.raises(ChecksumError):
                push_data(server.host, server.port, "blob", data, chaos=chaos)
            assert chaos.corrupted > 0
            assert (
                meters.snapshot()["counters"]["data.checksum.failures"] == 1
            )
            assert "blob" not in server.keys()

            # The connection-level failure did not poison the server.
            push_data(server.host, server.port, "blob", data)
            assert fetch_data(server.host, server.port, "blob") == data

    def test_clean_roundtrip_unchanged(self):
        with DataChannelServer() as server:
            payload = b"x" * (1 << 18) + b"tail"
            push_data(server.host, server.port, "k", payload)
            assert fetch_data(server.host, server.port, "k") == payload

    def test_corrupted_get_detected_by_receiver(self):
        """Byzantine blob corruption on the serving side: the server's
        chaos hook damages outgoing streams after digest computation,
        and the fetching donor must catch it — this is the failure the
        donor cache answers with exactly one refetch."""
        with DataChannelServer() as server:
            data = bytes(range(256)) * 32
            server.store("blob", data)
            server.chaos = WireChaos(seed=13, corrupt_rate=1.0)
            with pytest.raises(ChecksumError):
                fetch_data(server.host, server.port, "blob")
            assert server.chaos.corrupted > 0
            # The stored blob itself is unharmed: once the wire clears,
            # the same key serves the original bytes.
            server.chaos = None
            assert fetch_data(server.host, server.port, "blob") == data

    def test_cache_refetches_through_transient_get_corruption(self):
        """End to end: a BlobCache fetching over a data channel whose
        first transfer is damaged recovers with one refetch."""
        from repro.core.blobs import BlobCache, BlobRef, blob_key, canonical_dumps

        value = ("database", bytes(range(128)) * 16)
        data = canonical_dumps(value)
        ref = BlobRef(key=blob_key(data), size=len(data))
        with DataChannelServer() as server:
            server.store(ref.key, data)
            server.chaos = WireChaos(seed=21, corrupt_rate=1.0)
            cache = BlobCache(1 << 20, sink=lambda n, a: None)

            def flaky_fetch(r):
                try:
                    return fetch_data(server.host, server.port, r.key)
                finally:
                    server.chaos = None  # wire clears after the first try

            assert cache.ensure(ref, flaky_fetch) == value
            assert cache.refetches == 1
            assert cache.contains(ref.key)


class TestReconnectJitter:
    def _failing_port(self, **kwargs) -> ReconnectingPort:
        return ReconnectingPort("127.0.0.1", _free_port(), **kwargs)

    def test_full_jitter_delays_vary_and_respect_caps(self):
        slept: list[float] = []
        port = self._failing_port(
            max_attempts=6,
            base_backoff=0.5,
            max_backoff=4.0,
            sleep=slept.append,
            rng=spawn_rng(42, "jitter"),
        )
        with pytest.raises(RMIError, match="gave up"):
            port.heartbeat("d0")
        assert len(slept) == 5  # one sleep between each pair of attempts
        caps = [min(4.0, 0.5 * 2.0**attempt) for attempt in range(5)]
        assert all(0.0 <= delay <= cap for delay, cap in zip(slept, caps))
        # Full jitter: the delays are spread, not a deterministic ladder.
        assert len({round(d, 6) for d in slept}) > 1
        assert any(delay < cap * 0.95 for delay, cap in zip(slept, caps))

    def test_jitter_is_seed_deterministic(self):
        def delays(seed):
            slept: list[float] = []
            port = self._failing_port(
                max_attempts=4,
                base_backoff=0.25,
                max_backoff=2.0,
                sleep=slept.append,
                rng=spawn_rng(seed, "jitter"),
            )
            with pytest.raises(RMIError):
                port.request_work("d0")
            return slept

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)
