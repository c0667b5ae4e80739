"""Batched multi-subject alignment: bit-exactness against the scalar
kernels, bucketing invariants, deterministic top-k, cost-model/meter
consistency, and the donor→server unit-stat plumbing."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dsearch import DSearchAlgorithm, DSearchConfig, build_problem
from repro.apps.dsearch.translated import build_translated_problem
from repro.bio.align.banded import banded_global_score
from repro.bio.align import batch
from repro.bio.align.batch import (
    BucketPlan,
    SubjectBucket,
    banded_model_cells,
    batched_scores,
    plan_buckets,
    sweep_dtype,
    use_batched,
)
from repro.bio.align.hits import Hit, TopK
from repro.bio.align.nw import needleman_wunsch_score
from repro.bio.align.scoring import ScoringScheme, blosum62, dna_scheme
from repro.bio.align.sw import smith_waterman_score
from repro.bio.seq import DNA, PROTEIN
from repro.bio.seq.generate import random_sequence, seeded_database
from repro.bio.seq.sequence import Sequence
from repro.core.client import run_to_completion
from repro.core.server import TaskFarmServer
from repro.core.workunit import WorkResult
from repro.obs import unitstats


def _make_seqs(seed, m, lengths, alphabet):
    rng = np.random.default_rng(seed)
    query = random_sequence("q0", m, alphabet, rng)
    subjects = [
        random_sequence(f"s{i:03d}", length, alphabet, rng)
        for i, length in enumerate(lengths)
    ]
    return query, subjects


def _full_plan(lengths):
    """One ragged bucket holding every subject (worst-case padding)."""
    return BucketPlan(tuple(range(len(lengths))), tuple(lengths), max(lengths))


def _scalar(query, subject, scheme, mode, band):
    if mode == "sw":
        return smith_waterman_score(query, subject, scheme)
    if mode == "nw":
        return needleman_wunsch_score(query, subject, scheme)
    return banded_global_score(query, subject, scheme, band=band)


class TestBatchedExactness:
    """batched_scores must equal the scalar kernels *bit for bit*."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=10),
        mode=st.sampled_from(["sw", "nw", "banded"]),
        protein=st.booleans(),
        both=st.booleans(),
        band=st.integers(0, 8),
    )
    def test_matches_scalar(self, seed, m, lengths, mode, protein, both, band):
        alphabet = PROTEIN if protein else DNA
        scheme = blosum62() if protein else dna_scheme()
        both = both and not protein
        query, subjects = _make_seqs(seed, m, lengths, alphabet)
        variants = [query] + ([query.reverse_complement()] if both else [])
        bucket = SubjectBucket(_full_plan(lengths), subjects)
        band_arg = band if mode == "banded" else None
        got = batched_scores(
            variants, bucket, scheme, local=(mode == "sw"), band=band_arg
        )
        assert got.shape == (len(variants), len(subjects))
        for vi, variant in enumerate(variants):
            for si, subject in enumerate(subjects):
                assert got[vi, si] == _scalar(variant, subject, scheme, mode, band)

    def test_single_subject_and_uniform_lengths(self):
        scheme = dna_scheme()
        query, subjects = _make_seqs(5, 24, [17], DNA)
        bucket = SubjectBucket(_full_plan([17]), subjects)
        got = batched_scores([query], bucket, scheme, local=True)
        assert got[0, 0] == smith_waterman_score(query, subjects[0], scheme)

        query, subjects = _make_seqs(6, 24, [30] * 8, DNA)
        bucket = SubjectBucket(_full_plan([30] * 8), subjects)
        got = batched_scores([query], bucket, scheme, local=False)
        for si, subject in enumerate(subjects):
            assert got[0, si] == needleman_wunsch_score(query, subject, scheme)

    def test_input_validation(self):
        scheme = dna_scheme()
        query, subjects = _make_seqs(7, 12, [10, 20], DNA)
        bucket = SubjectBucket(_full_plan([10, 20]), subjects)
        with pytest.raises(ValueError, match="at least one"):
            batched_scores([], bucket, scheme, local=True)
        with pytest.raises(ValueError, match="global"):
            batched_scores([query], bucket, scheme, local=True, band=4)
        short = random_sequence("short", 5, DNA, np.random.default_rng(0))
        with pytest.raises(ValueError, match="share one length"):
            batched_scores([query, short], bucket, scheme, local=False)
        protein_query = random_sequence("p", 12, PROTEIN, np.random.default_rng(0))
        with pytest.raises(ValueError, match="alphabet"):
            batched_scores([protein_query], bucket, scheme, local=False)
        with pytest.raises(ValueError, match="alphabet"):
            batched_scores([query], bucket, blosum62(), local=False)
        empty = Sequence("e", np.empty(0, dtype=np.uint8), DNA)
        with pytest.raises(ValueError, match="empty"):
            SubjectBucket(BucketPlan((0,), (0,), 0), [empty])
        with pytest.raises(ValueError, match="alphabet"):
            SubjectBucket(_full_plan([10, 12]), [subjects[0], protein_query])


def _variants(queries, both):
    return [
        v for q in queries for v in ([q, q.reverse_complement()] if both else [q])
    ]


def _assert_exact(got, variants, bucket, subjects, scheme, mode, band):
    """*got* equals the float64 sweep run one variant at a time, and the
    scalar kernels, with ``==``."""
    local = mode == "sw"
    band_arg = band if mode == "banded" else None
    for vi, variant in enumerate(variants):
        ref = batched_scores(
            [variant], bucket, scheme, local=local, band=band_arg, dtype=np.float64
        )[0]
        assert np.array_equal(got[vi], ref)
        for si, subject in enumerate(subjects):
            assert got[vi, si] == _scalar(variant, subject, scheme, mode, band)


class TestStackedIntegerSweep:
    """One sweep per bucket for all of a unit's equal-length queries, in
    the narrowest exact dtype, equals today's float64 per-query sweep."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 30),
        n_queries=st.integers(1, 4),
        lengths=st.lists(st.integers(1, 50), min_size=2, max_size=8),
        mode=st.sampled_from(["sw", "nw", "banded"]),
        protein=st.booleans(),
        both=st.booleans(),
        band=st.integers(0, 8),
    )
    def test_stacked_equals_float_per_query_and_scalar(
        self, seed, m, n_queries, lengths, mode, protein, both, band
    ):
        alphabet = PROTEIN if protein else DNA
        scheme = blosum62() if protein else dna_scheme()
        both = both and not protein
        rng = np.random.default_rng(seed)
        queries = [random_sequence(f"q{k}", m, alphabet, rng) for k in range(n_queries)]
        subjects = [
            random_sequence(f"s{i}", length, alphabet, rng)
            for i, length in enumerate(lengths)
        ]
        bucket = SubjectBucket(_full_plan(lengths), subjects)
        banded = mode == "banded"
        assert sweep_dtype(scheme, m, max(lengths), banded)[0] == np.int16
        variants = _variants(queries, both)
        got = batched_scores(
            variants, bucket, scheme, local=(mode == "sw"),
            band=band if banded else None,
        )
        assert got.dtype == np.float64
        _assert_exact(got, variants, bucket, subjects, scheme, mode, band)

    def test_chunked_stack_equals_one_sweep(self, monkeypatch):
        scheme = dna_scheme()
        rng = np.random.default_rng(3)
        queries = [random_sequence(f"q{k}", 25, DNA, rng) for k in range(5)]
        lengths = [30, 34, 40]
        subjects = [
            random_sequence(f"s{i}", n, DNA, rng) for i, n in enumerate(lengths)
        ]
        bucket = SubjectBucket(_full_plan(lengths), subjects)
        variants = _variants(queries, both=True)
        whole = batched_scores(variants, bucket, scheme, local=True)
        monkeypatch.setattr(batch, "MAX_SWEEP_BYTES", 1)  # one variant per chunk
        chunked = batched_scores(variants, bucket, scheme, local=True)
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize(
        "scheme, m, lengths, mode, want",
        [
            # The benchmark's shape: 300-nt queries, DNA 5/-4/-10/-1.
            (dna_scheme(), 300, [250, 300, 400], "sw", np.int16),
            (blosum62(), 40, [60, 80], "nw", np.int16),
            # Long enough to break the int16 bound.
            (dna_scheme(), 40, [3000, 2990], "sw", np.int32),
            (dna_scheme(), 40, [2800, 2790], "nw", np.int32),
            # Banded: the sentinel's room and drift cost int16 sooner.
            (dna_scheme(), 40, [1400, 1390], "banded", np.int32),
            # A non-integer score always sweeps in float64.
            (dna_scheme(match=5.5), 30, [40, 45], "sw", np.float64),
            (dna_scheme(gap_extend=-0.5), 30, [40, 45], "banded", np.float64),
        ],
    )
    def test_dtype_rule_boundaries_stay_exact(self, scheme, m, lengths, mode, want):
        banded = mode == "banded"
        dtype, _ = sweep_dtype(scheme, m, max(lengths), banded)
        assert dtype == want
        rng = np.random.default_rng(m + len(lengths))
        queries = [random_sequence(f"q{k}", m, scheme.alphabet, rng) for k in range(2)]
        subjects = [
            random_sequence(f"s{i}", n, scheme.alphabet, rng)
            for i, n in enumerate(lengths)
        ]
        bucket = SubjectBucket(_full_plan(lengths), subjects)
        got = batched_scores(
            queries, bucket, scheme, local=(mode == "sw"), band=8 if banded else None
        )
        _assert_exact(got, queries, bucket, subjects, scheme, mode, 8)

    def test_dtype_rule(self):
        dna = dna_scheme()
        # int16 exactly while the bound (with its banded margin) fits.
        assert sweep_dtype(dna, 300, 2454)[0] == np.int16
        assert sweep_dtype(dna, 300, 2455)[0] == np.int32
        assert sweep_dtype(dna, 300, 951, banded=True)[0] == np.int16
        assert sweep_dtype(dna, 300, 952, banded=True)[0] == np.int32
        assert sweep_dtype(dna, 10**6, 10**8)[0] == np.int32
        assert sweep_dtype(dna, 10**6, 10**9)[0] == np.float64
        _, neg = sweep_dtype(dna, 300, 400)
        assert neg < 0 and float(neg).is_integer()
        matrix = dna.matrix.copy()
        matrix[0, 0] = np.inf
        inf_scheme = ScoringScheme("inf", DNA, matrix)
        assert sweep_dtype(inf_scheme, 10, 10)[0] == np.float64
        with pytest.raises(ValueError, match="float64"):
            query, subjects = _make_seqs(1, 10, [10, 12], DNA)
            bucket = SubjectBucket(_full_plan([10, 12]), subjects)
            batched_scores([query], bucket, dna, local=True, dtype=np.int16)


class TestPlanBuckets:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 5000), min_size=0, max_size=150),
        waste_cap=st.floats(0.0, 0.9),
        max_bucket=st.integers(1, 64),
    )
    def test_partition_and_waste_invariants(self, lengths, waste_cap, max_bucket):
        plans = plan_buckets(lengths, waste_cap, max_bucket)
        covered = sorted(i for plan in plans for i in plan.indices)
        assert covered == list(range(len(lengths)))
        for plan in plans:
            assert 1 <= plan.size <= max_bucket
            assert plan.width == max(plan.lengths)
            assert all(
                lengths[i] == length
                for i, length in zip(plan.indices, plan.lengths)
            )
            if plan.size > 1:
                padded = plan.padded_cells(1)
                waste = padded - plan.effective_cells(1)
                assert waste <= waste_cap * padded + 1e-9

    def test_deterministic_and_empty(self):
        lengths = [300, 40, 41, 44, 2000, 39, 300]
        assert plan_buckets(lengths) == plan_buckets(lengths)
        assert plan_buckets([]) == []

    def test_outlier_isolated(self):
        lengths = [50] * 100 + [10_000]
        plans = plan_buckets(lengths, waste_cap=0.25)
        outlier = [p for p in plans if 10_000 in p.lengths]
        assert len(outlier) == 1 and outlier[0].size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_buckets([10], waste_cap=1.0)
        with pytest.raises(ValueError):
            plan_buckets([10], max_bucket=0)

    def test_use_batched_rules(self):
        pair = _full_plan([100, 100])
        single = _full_plan([100])
        assert use_batched(pair, 100, "sw", 0)
        assert not use_batched(single, 100, "sw", 0)
        # Narrow band over long similar-length subjects: full-width
        # sweeping costs far more than the band — stay scalar.
        assert not use_batched(_full_plan([1000] * 8), 1000, "banded", 8)
        # Band wide relative to the matrix: batch.
        assert use_batched(_full_plan([60] * 8), 60, "banded", 40)


class TestTopKDeterminism:
    def _hits(self):
        # Deliberate score ties across distinct subjects.
        return [
            Hit("q", f"s{i:02d}", score)
            for i, score in enumerate([5.0, 3.0, 5.0, 1.0, 3.0, 3.0, 7.0, 5.0])
        ]

    def test_order_independent(self):
        hits = self._hits()
        expected = None
        rng = random.Random(11)
        for _ in range(20):
            shuffled = hits[:]
            rng.shuffle(shuffled)
            top = TopK(4)
            top.extend(shuffled)
            best = top.best()
            if expected is None:
                expected = best
            assert best == expected

    def test_tie_prefers_smaller_subject_id(self):
        for order in ([0, 1], [1, 0]):
            top = TopK(1)
            candidates = [Hit("q", "s_b", 9.0), Hit("q", "s_a", 9.0)]
            for i in order:
                top.offer(candidates[i])
            assert top.best()[0].subject_id == "s_a"

    def test_identical_hits_do_not_crash(self):
        # Fully equal keys force the heap to its final tiebreaker; it
        # must never compare Hit objects themselves.
        top = TopK(3)
        for _ in range(10):
            top.offer(Hit("q", "s", 1.0))
        assert len(top.best()) == 3


class TestCostModel:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(21)
        queries = [
            random_sequence("qa", 90, DNA, rng),
            random_sequence("qb", 140, DNA, rng),
        ]
        database = [
            random_sequence(f"d{i:03d}", int(length), DNA, rng)
            for i, length in enumerate(rng.integers(20, 400, size=50))
        ]
        return queries, database

    @pytest.mark.parametrize("algorithm", ["sw", "nw", "banded"])
    @pytest.mark.parametrize("both_strands", [False, True])
    def test_cost_equals_cells_charged_to_meters(
        self, workload, algorithm, both_strands
    ):
        """cost() must charge exactly the cells compute() reports filling."""
        queries, database = workload
        cfg = DSearchConfig(
            algorithm=algorithm, both_strands=both_strands, band=16, top_hits=5
        )
        algo = DSearchAlgorithm(cfg)
        payload = (queries, database)
        with unitstats.collect() as stats:
            algo.compute(payload)
        assert stats["farm.align.cells.padded"] == algo.cost(payload)
        assert stats["farm.align.cells.effective"] <= stats["farm.align.cells.padded"]

    def test_banded_cost_widens_per_pair_without_batching(self, workload):
        """Length-mismatched pairs widen the band; a band wider than the
        matrix degenerates to the full sweep (the scalar kernels'
        actual behaviour, which cost() must mirror)."""
        _, database = workload
        query = random_sequence("q", 100, DNA, np.random.default_rng(3))
        subject = random_sequence("s", 10, DNA, np.random.default_rng(4))
        cfg = DSearchConfig(algorithm="banded", band=2, batch=False)
        cost = DSearchAlgorithm(cfg).cost(([query], [subject]))
        # band widens to |100-10|=90 > matrix: full 100×10 sweep.
        assert cost == 100 * 10
        assert banded_model_cells(100, [10], 2) == 100 * 10


def _per_query_meters(cfg, queries, subjects) -> dict:
    """``farm.align.*`` totals as charged when every query swept every
    bucket on its own — what stacking must keep reporting."""
    plans = plan_buckets([len(s) for s in subjects], cfg.batch_waste_cap)
    nvar = 2 if cfg.both_strands else 1
    want: dict = {}

    def add(name, value):
        want[name] = want.get(name, 0.0) + value

    for query in queries:
        m = len(query)
        for plan in plans:
            if use_batched(plan, m, cfg.algorithm, cfg.band):
                add("farm.align.cells.effective", nvar * plan.effective_cells(m))
                add("farm.align.cells.padded", nvar * plan.padded_cells(m))
                add("farm.align.buckets.batched", 1.0)
            else:
                if cfg.algorithm == "banded":
                    filled = nvar * banded_model_cells(m, plan.lengths, cfg.band)
                else:
                    filled = nvar * plan.effective_cells(m)
                add("farm.align.cells.effective", filled)
                add("farm.align.cells.padded", filled)
                add("farm.align.pairs.scalar", float(plan.size))
    return want


class TestStackedSearch:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        query_lengths=st.lists(st.sampled_from([20, 35, 36]), min_size=1, max_size=5),
        db_lengths=st.lists(st.integers(10, 90), min_size=1, max_size=25),
        algorithm=st.sampled_from(["sw", "nw", "banded"]),
        both_strands=st.booleans(),
    )
    def test_hits_and_unit_meters_match_per_query_search(
        self, seed, query_lengths, db_lengths, algorithm, both_strands
    ):
        rng = np.random.default_rng(seed)
        queries = [
            random_sequence(f"q{k}", length, DNA, rng)
            for k, length in enumerate(query_lengths)
        ]
        database = [
            random_sequence(f"d{i:02d}", length, DNA, rng)
            for i, length in enumerate(db_lengths)
        ]
        kwargs = dict(
            algorithm=algorithm, both_strands=both_strands, band=6, top_hits=4
        )
        cfg = DSearchConfig(batch=True, **kwargs)
        payload = (queries, database)
        with unitstats.collect() as stats:
            got = DSearchAlgorithm(cfg).compute(payload)
        assert got == DSearchAlgorithm(DSearchConfig(batch=False, **kwargs)).compute(
            payload
        )
        assert stats == _per_query_meters(cfg, queries, database)

    def test_protein_mixed_lengths(self):
        rng = np.random.default_rng(29)
        queries = [random_sequence(f"p{k}", n, PROTEIN, rng) for k, n in
                   enumerate([30, 45, 30, 45, 60])]
        database = [
            random_sequence(f"d{i:02d}", int(n), PROTEIN, rng)
            for i, n in enumerate(rng.integers(20, 120, size=30))
        ]
        for algorithm in ("sw", "nw", "banded"):
            kwargs = dict(scoring="blosum62", algorithm=algorithm, band=10, top_hits=5)
            cfg = DSearchConfig(batch=True, **kwargs)
            with unitstats.collect() as stats:
                got = DSearchAlgorithm(cfg).compute((queries, database))
            want = DSearchAlgorithm(DSearchConfig(batch=False, **kwargs)).compute(
                (queries, database)
            )
            assert got == want
            assert stats == _per_query_meters(cfg, queries, database)

    def test_batched_slice_never_widens_subject_codes(self):
        rng = np.random.default_rng(41)
        queries = [random_sequence(f"q{k}", 40, DNA, rng) for k in range(3)]
        database = [
            random_sequence(f"d{i:02d}", int(n), DNA, rng)
            for i, n in enumerate(rng.integers(50, 60, size=24))
        ]
        cfg = DSearchConfig(both_strands=True, top_hits=3)
        plans = plan_buckets([len(s) for s in database], cfg.batch_waste_cap)
        assert all(use_batched(p, 40, cfg.algorithm, cfg.band) for p in plans)
        with unitstats.collect() as stats:
            DSearchAlgorithm(cfg).compute((queries, database))
        assert "farm.align.pairs.scalar" not in stats
        assert all(subject._icodes is None for subject in database)


class TestSearchEquivalence:
    """Whole-application check: batch on/off give identical hit lists."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(7)
        query = random_sequence("query0", 120, DNA, rng)
        database, homolog_ids = seeded_database(
            query, decoy_count=60, homolog_count=3, seed=13
        )
        extra_query = random_sequence("query1", 75, DNA, rng)
        return [query, extra_query], database, homolog_ids

    @pytest.mark.parametrize("algorithm", ["sw", "nw", "banded"])
    @pytest.mark.parametrize("both_strands", [False, True])
    def test_identical_hit_lists(self, workload, algorithm, both_strands):
        queries, database, homolog_ids = workload
        kwargs = dict(
            algorithm=algorithm, both_strands=both_strands, band=12, top_hits=8
        )
        batched = DSearchAlgorithm(DSearchConfig(batch=True, **kwargs))
        scalar = DSearchAlgorithm(DSearchConfig(batch=False, **kwargs))
        payload = (queries, database)
        got, want = batched.compute(payload), scalar.compute(payload)
        assert got == want
        if algorithm == "sw":
            top = {h.subject_id for h in got["query0"][: len(homolog_ids)]}
            assert top == set(homolog_ids)

    def test_translated_search_identical(self):
        rng = np.random.default_rng(31)
        protein_db = [
            random_sequence(f"p{i:02d}", int(length), PROTEIN, rng)
            for i, length in enumerate(rng.integers(25, 90, size=20))
        ]
        dna_queries = [
            random_sequence("dq0", 60, DNA, rng),
            random_sequence("dq1", 45, DNA, rng),
        ]
        reports = {}
        for batch in (True, False):
            config = DSearchConfig(scoring="blosum62", batch=batch, top_hits=4)
            server = TaskFarmServer()
            pid = server.submit(
                build_translated_problem(protein_db, dna_queries, config)
            )
            run_to_completion(server, donors=2)
            reports[batch] = server.final_result(pid)
        assert reports[True].hits == reports[False].hits


class TestMeterPlumbing:
    def test_record_is_noop_outside_collect(self):
        unitstats.record("farm.align.cells.effective", 5.0)  # must not raise

    def test_collect_nests(self):
        with unitstats.collect() as outer:
            unitstats.record("a", 1.0)
            with unitstats.collect() as inner:
                unitstats.record("a", 2.0)
            unitstats.record("a", 4.0)
        assert inner == {"a": 2.0}
        assert outer == {"a": 5.0}

    def test_server_folds_only_align_counters(self):
        server = TaskFarmServer()
        server._fold_unit_meters(
            WorkResult(
                problem_id=0,
                unit_id=0,
                value=None,
                extra={
                    "meters": {
                        "farm.align.cells.effective": 10.0,
                        "farm.align.cells.padded": 12.5,
                        "farm.units.completed": 100.0,  # forged: ignored
                        "farm.align.bogus.negative": -5.0,
                        "farm.align.bogus.nan": float("nan"),
                        "farm.align.bogus.inf": math.inf,
                        42: 1.0,
                    }
                },
            )
        )
        counters = server.obs.meters.snapshot()["counters"]
        assert counters["farm.align.cells.effective"] == 10.0
        assert counters["farm.align.cells.padded"] == 12.5
        assert counters.get("farm.units.completed", 0.0) == 0.0
        assert "farm.align.bogus.negative" not in counters
        assert "farm.align.bogus.nan" not in counters
        assert "farm.align.bogus.inf" not in counters

    def test_end_to_end_through_donor_client(self):
        rng = np.random.default_rng(17)
        query = random_sequence("query0", 80, DNA, rng)
        database, _ = seeded_database(query, decoy_count=30, homolog_count=2, seed=5)
        server = TaskFarmServer()
        server.submit(build_problem(database, [query], DSearchConfig(top_hits=3)))
        run_to_completion(server, donors=3)
        counters = server.obs.meters.snapshot()["counters"]
        effective = counters["farm.align.cells.effective"]
        padded = counters["farm.align.cells.padded"]
        assert 0 < effective <= padded
        assert counters["farm.align.buckets.batched"] >= 1

    def test_sim_cluster_folds_meters(self):
        from repro.cluster.sim import SimCluster, homogeneous_pool

        rng = np.random.default_rng(19)
        query = random_sequence("query0", 60, DNA, rng)
        database, _ = seeded_database(query, decoy_count=20, homolog_count=2, seed=3)
        cluster = SimCluster(homogeneous_pool(3), seed=1, execute=True)
        cluster.submit(build_problem(database, [query], DSearchConfig(top_hits=3)))
        report = cluster.run()
        assert report.completed
        counters = cluster.server.obs.meters.snapshot()["counters"]
        assert counters["farm.align.cells.effective"] > 0
        assert (
            counters["farm.align.cells.effective"]
            <= counters["farm.align.cells.padded"]
        )
