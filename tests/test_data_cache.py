"""The content-addressed donor data cache, differentially tested.

The tentpole contract: with ``share_payloads`` on, work units carry
:class:`~repro.core.blobs.BlobRef` placeholders and donors cache the
blobs, and the assembled result of every run is **bit-identical** to
the same run with sharing off — for both target applications, across
seeds, under simulated schedules.  On top of that, the byte accounting
must show the point of the whole exercise: the database crosses the
wire once per donor, not once per unit.

Plus Hypothesis property tests for the donor cache itself (budget
invariant, counter reconciliation against real
:class:`~repro.rmi.datachannel.DataChannelServer` transfer meters,
exactly-one-refetch on digest mismatch) and the refcounted blob
lifecycle on the data channel.
"""

import pickle
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dprml import DPRmlConfig
from repro.apps.dprml import build_problem as build_dprml_problem
from repro.apps.dsearch import DSearchConfig
from repro.apps.dsearch import build_problem as build_dsearch_problem
from repro.bio.phylo.models import JC69
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.seq import DNA
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.cluster.sim import SimCluster, heterogeneous_pool, homogeneous_pool
from repro.cluster.sim.network import NetworkConfig
from repro.core.blobs import (
    DEFAULT_CACHE_BYTES,
    BlobCache,
    BlobRef,
    blob_key,
    canonical_dumps,
    fetch_and_resolve,
    iter_blob_refs,
    payload_nbytes,
    resolve_payload,
)
from repro.core.client import DonorClient, InProcessServerPort
from repro.core.integrity import canonical_digest
from repro.core.scheduler import FixedGranularity
from repro.core.server import TaskFarmServer
from repro.obs.meters import MeterRegistry
from repro.rmi.datachannel import DataChannelServer, fetch_data
from repro.rmi.errors import ChecksumError

DIFF_SEEDS = [3, 17, 29]


# ---------------------------------------------------------------------------
# Workload builders


def dsearch_problem(seed: int, share: bool):
    rng = np.random.default_rng(seed)
    query = random_sequence("q0", 64, DNA, rng)
    database, _ = seeded_database(
        query, decoy_count=12, homolog_count=2, seed=seed + 1,
        substitution_rate=0.1,
    )
    return build_dsearch_problem(
        database, [query], DSearchConfig(top_hits=4, share_payloads=share)
    )


def dprml_problem(seed: int, share: bool):
    true = random_yule_tree(6, seed=seed, mean_branch=0.2)
    alignment = simulate_alignment(true, JC69(), 150, seed=seed + 1)
    return build_dprml_problem(
        alignment, DPRmlConfig(model="jc69", share_payloads=share)
    )


def run_sim(problem, donors=5, granularity=3):
    cluster = SimCluster(
        heterogeneous_pool(donors, seed=2),
        policy=FixedGranularity(granularity),
        lease_timeout=120.0,
        seed=5,
    )
    pid = cluster.submit(problem)
    report = cluster.run()
    assert report.completed
    return cluster, report.results[pid]


# ---------------------------------------------------------------------------
# The differential equivalence suite (satellite 1)


class TestDifferentialEquivalence:
    """share-on and share-off runs assemble bit-identical results."""

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dsearch_cache_on_off_bit_identical(self, seed):
        _c_off, plain = run_sim(dsearch_problem(seed, share=False))
        cached_cluster, cached = run_sim(dsearch_problem(seed, share=True))
        assert canonical_digest(cached) == canonical_digest(plain)
        counters = cached_cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.cache.misses"] > 0
        assert counters["farm.cache.hits"] > 0

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_dprml_cache_on_off_bit_identical(self, seed):
        _c_off, plain = run_sim(dprml_problem(seed, share=False))
        cached_cluster, cached = run_sim(dprml_problem(seed, share=True))
        assert canonical_digest(cached) == canonical_digest(plain)
        counters = cached_cluster.obs.meters.snapshot()["counters"]
        assert counters["farm.cache.misses"] > 0

    def test_share_off_run_moves_no_blobs(self):
        cluster, _result = run_sim(dsearch_problem(3, share=False))
        counters = cluster.obs.meters.snapshot()["counters"]
        assert counters.get("net.blob.refs", 0) == 0
        assert counters.get("net.blob.bytes", 0) == 0
        assert counters.get("farm.cache.misses", 0) == 0


# ---------------------------------------------------------------------------
# Byte accounting: the database crosses the wire once per donor


def _byte_workload(share: bool):
    """A deliberately reference-heavy search: many tiny units, each of
    which (uncached) re-ships the whole 24-query set."""
    rng = np.random.default_rng(11)
    queries = [random_sequence(f"q{i}", 150, DNA, rng) for i in range(24)]
    database, _ = seeded_database(
        queries[0], decoy_count=23, homolog_count=1, seed=12,
        substitution_rate=0.1,
    )
    return build_dsearch_problem(
        database, queries, DSearchConfig(top_hits=2, share_payloads=share)
    )


def _run_byte_workload(share: bool, donors: int = 3):
    # control_bytes=0 isolates payload movement: every byte on the
    # simulated link is unit input, blob fetch, or result upload.
    cluster = SimCluster(
        homogeneous_pool(donors, speed=1.0, availability=1.0),
        policy=FixedGranularity(1),
        lease_timeout=600.0,
        seed=9,
        network=NetworkConfig(control_bytes=0),
    )
    # Two identical searches: content addressing must share one cached
    # copy between them (the second search is "free").
    pid_a = cluster.submit(_byte_workload(share))
    pid_b = cluster.submit(_byte_workload(share))
    report = cluster.run()
    assert report.completed
    counters = cluster.obs.meters.snapshot()["counters"]
    digest = canonical_digest((report.results[pid_a], report.results[pid_b]))
    return counters, digest


class TestSimByteAccounting:
    @pytest.fixture(scope="class")
    def byte_runs(self):
        return _run_byte_workload(share=False), _run_byte_workload(share=True)

    def test_net_bytes_drop_by_dedup_factor(self, byte_runs):
        (plain, plain_digest), (cached, cached_digest) = byte_runs
        assert cached_digest == plain_digest
        # Input side: 48 single-sequence units each re-ship the query
        # set uncached; cached they ship ~64-byte refs and the blobs
        # move once per donor.  The crafted workload dedups >=5x.
        assert plain["farm.bytes.in"] >= 5 * cached["farm.bytes.in"]
        # Link side: outputs are identical (bit-identical results) and
        # control traffic is zeroed, so the net.bytes drop must equal
        # the input-side saving exactly.
        saving = plain["farm.bytes.in"] - cached["farm.bytes.in"]
        assert plain["net.bytes"] - cached["net.bytes"] == saving

    def test_blob_meters_reconcile(self, byte_runs):
        _plain, (cached, _digest) = byte_runs
        # Every simulated blob download is a donor-cache miss the
        # server also charged as a first delivery — and vice versa.
        assert cached["net.blob.fetches"] == cached["net.blob.deliveries"]
        assert cached["net.blob.fetch.bytes"] == cached["net.blob.bytes"]
        assert cached["farm.cache.misses"] == cached["net.blob.fetches"]
        # 2 blobs (queries, database), fetched at most once per donor
        # across BOTH problems: content addressing dedups the second
        # submission against the first.
        assert cached["net.blob.deliveries"] <= 2 * 3
        assert cached["net.blob.bytes.saved"] > 0
        # Charged wire bytes reconcile: farm.bytes.in is all inline
        # envelopes plus the first-delivery blob content.
        assert cached["farm.bytes.in"] > cached["net.blob.bytes"]


# ---------------------------------------------------------------------------
# Live donors under a cache budget: exact fetch counts


def _run_counting_fetches(cache_bytes: int, donors: int = 2):
    """DSEARCH on in-process donors; returns (fetches per blob key,
    units computed)."""
    server = TaskFarmServer(policy=FixedGranularity(2), lease_timeout=600.0)
    server.submit(dsearch_problem(3, share=True), 0.0)
    port = InProcessServerPort(server)
    fetches: Counter = Counter()

    def fetch(problem_id, ref):
        fetches[ref.key] += 1
        return port.get_shared_blob(problem_id, ref.key)

    clients = [
        DonorClient(f"d{i}", port, cache_bytes=cache_bytes, blob_fetch=fetch)
        for i in range(donors)
    ]
    for client in clients:
        port.register_donor(client.donor_id)
    while not server.all_complete():
        for client in clients:
            client.step()
    return fetches, sum(client.units_done for client in clients)


class TestCacheBudget:
    """Blob refs are content-addressed, so a freshly built problem names
    the same blobs the run fetched."""

    refs = dsearch_problem(3, share=True).data_manager

    def test_database_over_budget_is_fetched_every_unit(self):
        # Pins today's cost of an over-budget database: it bypasses the
        # cache, so every unit downloads all of it again.
        queries, database = self.refs._queries_ref, self.refs._database_ref
        assert queries.size < database.size
        fetches, units = _run_counting_fetches(database.size - 1)
        assert units == 7  # 14 sequences, 2 per unit
        assert fetches == {database.key: units, queries.key: 2}

    def test_default_budget_fetches_each_blob_once_per_donor(self):
        queries, database = self.refs._queries_ref, self.refs._database_ref
        fetches, units = _run_counting_fetches(DEFAULT_CACHE_BYTES)
        assert units == 7
        assert fetches == {database.key: 2, queries.key: 2}


# ---------------------------------------------------------------------------
# The blob primitives


class TestBlobPrimitives:
    def test_canonical_dumps_ignores_sharing(self):
        piece = [1, 2, 3]
        shared = (piece, piece)
        copies = ([1, 2, 3], [1, 2, 3])
        assert canonical_dumps(shared) == canonical_dumps(copies)
        assert blob_key(canonical_dumps(shared)) == blob_key(
            canonical_dumps(copies)
        )

    def test_iter_blob_refs_dedups_in_order(self):
        a = BlobRef(key="a" * 32, size=10)
        b = BlobRef(key="b" * 32, size=20)
        payload = {"x": [a, (b, a)], "y": b}
        assert iter_blob_refs(payload) == [a, b]
        assert iter_blob_refs(("no", "refs", 3)) == []

    def test_resolve_payload_substitutes_and_passes_through(self):
        a = BlobRef(key="a" * 32, size=10)
        payload = ("head", a, [1, a])
        resolved = resolve_payload(payload, lambda ref: "BLOB")
        assert resolved == ("head", "BLOB", [1, "BLOB"])
        plain = ("head", [1, 2], {"k": 3})
        assert resolve_payload(plain, lambda ref: "BLOB") is plain

    def test_blob_ref_rejects_negative_size(self):
        with pytest.raises(ValueError):
            BlobRef(key="a" * 32, size=-1)

    def test_payload_nbytes_is_real_pickle_size(self):
        value = list(range(100))
        assert payload_nbytes(value) == len(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )


def _make_blob(value):
    data = canonical_dumps(value)
    return data, BlobRef(key=blob_key(data), size=len(data))


# ---------------------------------------------------------------------------
# Hypothesis: the donor cache (satellite 2)


class TestBlobCacheProperties:
    @given(
        budget=st.integers(min_value=64, max_value=2048),
        values=st.lists(
            st.integers(min_value=0, max_value=11), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_lru_never_exceeds_byte_budget(self, budget, values):
        """The invariant: whatever the access sequence and blob sizes,
        ``bytes_used`` stays within budget (oversized blobs bypass)."""
        cache = BlobCache(budget, sink=lambda name, amount: None)
        store = {}
        for v in values:
            # Sizes spread around the budget so eviction and bypass
            # both fire: value v serializes to ~v*300 bytes.
            data, ref = _make_blob(bytes(300 * v))
            store[ref.key] = data
            cache.ensure(ref, lambda r: store[r.key])
            assert cache.bytes_used <= budget
            assert cache.bytes_used == sum(
                size for size, _obj in cache._entries.values()
            )
        assert cache.hits + cache.misses == len(values)

    @given(
        accesses=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=12
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_counters_reconcile_with_datachannel_meters(
        self, channel, channel_blobs, accesses
    ):
        """Cache misses are exactly the data channel's outbound
        transfers; fetched bytes are exactly its outbound bytes."""
        server, meters = channel
        before = meters.snapshot()["counters"]
        recorded: dict[str, float] = {}

        def sink(name, amount):
            recorded[name] = recorded.get(name, 0.0) + amount

        def delta(name):
            counters = meters.snapshot()["counters"]
            return counters.get(name, 0) - before.get(name, 0)

        cache = BlobCache(1 << 20, sink=sink)
        fetch = lambda ref: fetch_data(server.host, server.port, ref.key)
        for i in accesses:
            ref = channel_blobs[i]
            value = cache.ensure(ref, fetch)
            assert value[0] == "blob"
            assert blob_key(canonical_dumps(value)) == ref.key
        expected_misses = len({i for i in accesses})
        assert cache.misses == expected_misses
        assert cache.hits == len(accesses) - expected_misses
        assert cache.refetches == 0
        fetched = recorded.get("farm.cache.fetch.bytes", 0.0)
        assert fetched == sum(
            channel_blobs[i].size for i in set(accesses)
        )
        assert recorded.get("farm.cache.hits", 0.0) == cache.hits
        assert recorded.get("farm.cache.misses", 0.0) == cache.misses
        # The server meters a transfer *after* streaming it, on its own
        # thread: give the last increment a moment to land, then the
        # reconciliation must be exact.
        deadline = time.monotonic() + 2.0
        while (
            delta("data.transfers.out") != cache.misses
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        assert delta("data.transfers.out") == cache.misses
        assert delta("data.bytes.out") == fetched

    @given(value=st.binary(min_size=1, max_size=512), flip=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_digest_mismatch_triggers_exactly_one_refetch(self, value, flip):
        data, ref = _make_blob(value)
        corrupt = bytearray(data)
        corrupt[flip % len(data)] ^= 0x41
        corrupt = bytes(corrupt)
        if corrupt == data:  # XOR happened to be identity — impossible
            return

        calls = []

        def flaky(r):
            calls.append(r.key)
            return corrupt if len(calls) == 1 else data

        cache = BlobCache(1 << 20, sink=lambda n, a: None)
        assert cache.ensure(ref, flaky) == value
        assert cache.refetches == 1
        assert len(calls) == 2
        # The verified copy is cached: no further fetches.
        assert cache.ensure(ref, flaky) == value
        assert len(calls) == 2 and cache.hits == 1

    def test_persistently_corrupt_source_fails_loudly(self):
        data, ref = _make_blob(b"payload")
        calls = []

        def always_corrupt(r):
            calls.append(r.key)
            return b"not the blob"

        cache = BlobCache(1 << 20, sink=lambda n, a: None)
        with pytest.raises(ChecksumError):
            cache.ensure(ref, always_corrupt)
        assert cache.refetches == 1
        assert len(calls) == 2
        assert not cache.contains(ref.key)

    def test_transport_checksum_error_counts_as_refetch(self):
        data, ref = _make_blob(b"payload")
        calls = []

        def flaky(r):
            calls.append(r.key)
            if len(calls) == 1:
                raise ChecksumError("damaged in transit")
            return data

        cache = BlobCache(1 << 20, sink=lambda n, a: None)
        assert cache.ensure(ref, flaky) == b"payload"
        assert cache.refetches == 1 and len(calls) == 2

    def test_oversized_blob_bypasses_cache(self):
        data, ref = _make_blob(bytes(4096))
        cache = BlobCache(256, sink=lambda n, a: None)
        assert cache.ensure(ref, lambda r: data) == bytes(4096)
        assert cache.bypasses == 1
        assert cache.bytes_used == 0 and len(cache) == 0

    def test_fetch_and_resolve_counts_each_distinct_ref_once(self):
        data_a, ref_a = _make_blob([1, 2, 3])
        data_b, ref_b = _make_blob({"k": "v"})
        store = {ref_a.key: data_a, ref_b.key: data_b}
        cache = BlobCache(1 << 20, sink=lambda n, a: None)
        payload = (ref_a, ref_b, ref_a, ("inline", ref_b))
        resolved = fetch_and_resolve(
            payload, cache, lambda r: store[r.key]
        )
        assert resolved == ([1, 2, 3], {"k": "v"}, [1, 2, 3], ("inline", {"k": "v"}))
        assert cache.misses == 2 and cache.hits == 0


@pytest.fixture(scope="class")
def channel():
    meters = MeterRegistry()
    with DataChannelServer(meters=meters) as server:
        yield server, meters


@pytest.fixture(scope="class")
def channel_blobs(channel):
    server, _meters = channel
    refs = []
    for i in range(4):
        data, ref = _make_blob(("blob", i, bytes(64 * (i + 1))))
        server.store(ref.key, data)
        refs.append(ref)
    return refs


# ---------------------------------------------------------------------------
# Refcounted blob lifecycle on the data channel


class TestDataChannelLifecycle:
    def test_retain_release_deletes_on_last_reference(self):
        with DataChannelServer() as server:
            data, ref = _make_blob("shared database")
            server.retain(ref.key, data)
            server.retain(ref.key)  # second problem, same content
            assert server.refcount(ref.key) == 2
            assert server.get(ref.key) == data
            server.release(ref.key)
            assert server.refcount(ref.key) == 1
            assert ref.key in server.keys()
            server.release(ref.key)
            assert server.refcount(ref.key) == 0
            assert ref.key not in server.keys()

    def test_release_of_untracked_key_is_noop(self):
        with DataChannelServer() as server:
            server.release("never-published")  # must not raise

    def test_retain_without_data_requires_prior_publish(self):
        with DataChannelServer() as server:
            with pytest.raises(KeyError):
                server.retain("unknown-key")

    def test_retained_blob_fetchable_and_digest_verified(self):
        with DataChannelServer() as server:
            data, ref = _make_blob(("db", bytes(1 << 12)))
            server.retain(ref.key, data)
            fetched = fetch_data(server.host, server.port, ref.key)
            assert fetched == data
            assert blob_key(fetched) == ref.key
