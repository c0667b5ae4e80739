"""The DSEARCH donor-side Algorithm: align queries against a DB slice."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bio.align.banded import banded_global_score
from repro.bio.align.batch import (
    BucketPlan,
    SubjectBucket,
    banded_model_cells,
    batched_scores,
    plan_buckets,
    use_batched,
)
from repro.bio.align.hits import Hit, TopK
from repro.bio.align.kernels import cell_count
from repro.bio.align.nw import needleman_wunsch_score
from repro.bio.align.sw import smith_waterman_score
from repro.bio.seq.sequence import Sequence
from repro.core.problem import Algorithm
from repro.obs import unitstats


class DSearchAlgorithm(Algorithm):
    """Runs the configured rigorous aligner over one database slice.

    The payload is ``(queries, slice)`` — both lists of
    :class:`~repro.bio.seq.sequence.Sequence` — and the result is a
    per-query local top-k hit list (bounding result size keeps the
    upload small however large the slice was).

    Two execution paths produce identical hit lists:

    * the **batched** path (default) packs the slice into length
      buckets and sweeps the Gotoh recurrence across whole buckets at
      once (:mod:`repro.bio.align.batch`), every same-length query of
      the unit stacked into one sweep per bucket, in the narrowest
      integer dtype that stays exact — many times faster on the
      short-to-mid length subjects real databases are full of;
    * the **scalar** path scores one ``(query, subject)`` pair at a
      time with the reference kernels.  It is kept as the correctness
      oracle, runs when ``batch = false`` or for buckets that would not
      amortise batching, and is the automatic fallback if the batched
      path fails for any reason.
    """

    def __init__(self, config) -> None:
        # Import deferred so the class stays light to pickle; donors
        # reconstruct the scheme locally from the config dataclass.
        self.config = config

    # -- scalar reference path ---------------------------------------------

    def _score(self, query: Sequence, subject: Sequence, scheme) -> float:
        algorithm = self.config.algorithm
        if algorithm == "sw":
            return smith_waterman_score(query, subject, scheme)
        if algorithm == "nw":
            return needleman_wunsch_score(query, subject, scheme)
        return banded_global_score(query, subject, scheme, band=self.config.band)

    def _variants(self, query: Sequence) -> list[Sequence]:
        # DNA features can sit on either strand of the subject; search
        # the reverse complement of the query against the given strand
        # (equivalent and cheaper than flipping every subject).
        variants = [query]
        if self.config.both_strands:
            variants.append(query.reverse_complement())
        return variants

    def _pair_scores_scalar(
        self, variants: list[Sequence], subjects: list[Sequence], scheme
    ) -> list[float]:
        return [
            max(self._score(variant, subject, scheme) for variant in variants)
            for subject in subjects
        ]

    # -- batched path -------------------------------------------------------

    def _group_scores_batched(
        self,
        group: list[list[Sequence]],
        subjects: list[Sequence],
        scheme,
        plans: list[BucketPlan],
        buckets: dict[int, SubjectBucket],
    ) -> np.ndarray:
        """Scores of equal-length queries (each given as its strand
        variants), ``(len(group), len(subjects))``: every batched bucket
        is swept once for the whole group, all variants stacked."""
        cfg = self.config
        local = cfg.algorithm == "sw"
        band = cfg.band if cfg.algorithm == "banded" else None
        m = len(group[0][0])
        nvar = len(group[0])
        n_queries = float(len(group))
        stacked = [variant for variants in group for variant in variants]
        scores = np.empty((len(group), len(subjects)))
        for pi, plan in enumerate(plans):
            indices = list(plan.indices)
            effective = nvar * plan.effective_cells(m)
            if use_batched(plan, m, cfg.algorithm, cfg.band):
                bucket = buckets.get(pi)
                if bucket is None:
                    bucket = buckets[pi] = SubjectBucket(plan, subjects)
                per_variant = batched_scores(
                    stacked, bucket, scheme, local=local, band=band
                )
                scores[:, indices] = per_variant.reshape(
                    len(group), nvar, plan.size
                ).max(axis=1)
                # Charged per query, as cost() charges it: stacking
                # changes how cells are swept, not which.
                unitstats.record(
                    "farm.align.cells.effective", n_queries * effective
                )
                unitstats.record(
                    "farm.align.cells.padded", n_queries * nvar * plan.padded_cells(m)
                )
                unitstats.record("farm.align.buckets.batched", n_queries)
            else:
                members = [subjects[i] for i in plan.indices]
                for row, variants in zip(scores, group):
                    row[indices] = self._pair_scores_scalar(variants, members, scheme)
                # Scalar kernels fill exactly the useful cells (the
                # band, for banded alignment): no padding on this path,
                # and the same quantity cost() charges.
                if cfg.algorithm == "banded":
                    filled = nvar * banded_model_cells(m, plan.lengths, cfg.band)
                else:
                    filled = float(effective)
                unitstats.record("farm.align.cells.effective", n_queries * filled)
                unitstats.record("farm.align.cells.padded", n_queries * filled)
                unitstats.record("farm.align.pairs.scalar", n_queries * plan.size)
        return scores

    def _scores_batched(
        self, queries: list[Sequence], subjects: list[Sequence], scheme
    ) -> np.ndarray:
        """Per-query score rows, sweeping each bucket once per query
        length rather than once per query."""
        plans = plan_buckets([len(s) for s in subjects], self.config.batch_waste_cap)
        buckets: dict[int, SubjectBucket] = {}
        by_length: dict[int, list[int]] = {}
        for qi, query in enumerate(queries):
            by_length.setdefault(len(query), []).append(qi)
        scores = np.empty((len(queries), len(subjects)))
        for members in by_length.values():
            group = [self._variants(queries[qi]) for qi in members]
            try:
                rows = self._group_scores_batched(
                    group, subjects, scheme, plans, buckets
                )
            except Exception:
                # The scalar kernels are the reference; anything the
                # batched engine cannot handle (and any genuine input
                # error, which will re-raise identically) goes through
                # them instead.
                unitstats.record("farm.align.batch.fallbacks", float(len(group)))
                rows = [
                    self._pair_scores_scalar(variants, subjects, scheme)
                    for variants in group
                ]
            scores[members] = rows
        return scores

    # -- Algorithm interface ------------------------------------------------

    @staticmethod
    def _unpack(payload: Any) -> tuple[list[Sequence], list[Sequence]]:
        """Both payload shapes: inline ``(queries, subjects)`` and the
        shared form ``(queries, database, (lo, hi))`` where the donor
        cache has already substituted the blob references."""
        if len(payload) == 3:
            queries, database, (lo, hi) = payload
            return queries, database[lo:hi]
        queries, subjects = payload
        return queries, subjects

    def compute(self, payload: Any) -> dict[str, list[Hit]]:
        queries, subjects = self._unpack(payload)
        scheme = self.config.scheme()
        if self.config.batch and subjects:
            scores = self._scores_batched(queries, subjects, scheme)
        else:
            scores = [
                self._pair_scores_scalar(self._variants(query), subjects, scheme)
                for query in queries
            ]
        results: dict[str, list[Hit]] = {}
        for query, row in zip(queries, scores):
            top = TopK(self.config.top_hits)
            for subject, score in zip(subjects, row):
                top.offer(
                    Hit(
                        query_id=query.seq_id,
                        subject_id=subject.seq_id,
                        score=float(score),
                        subject_length=len(subject),
                    )
                )
            results[query.seq_id] = top.best()
        return results

    def cost(self, payload: Any) -> float:
        """Abstract cost: DP cells filled (the real work driver).

        Mirrors the donor's execution plan exactly: with batching on,
        each bucket is charged the padded cells the batched sweep fills
        — or, for buckets that fall back to the scalar kernels, the
        reference cell count (full matrix, or the per-pair auto-widened
        band for banded alignment).  Keeping the simulator's cost model
        and the donor's actual work in lockstep is what keeps adaptive
        granularity honest.
        """
        queries, subjects = self._unpack(payload)
        cfg = self.config
        strands = 2.0 if cfg.both_strands else 1.0
        lengths = [len(s) for s in subjects]
        if cfg.batch and subjects:
            plans = plan_buckets(lengths, cfg.batch_waste_cap)
            total = 0.0
            for query in queries:
                m = len(query)
                for plan in plans:
                    if use_batched(plan, m, cfg.algorithm, cfg.band):
                        total += plan.padded_cells(m)
                    elif cfg.algorithm == "banded":
                        total += banded_model_cells(m, plan.lengths, cfg.band)
                    else:
                        total += plan.effective_cells(m)
            return strands * total
        if cfg.algorithm == "banded":
            return strands * float(
                sum(
                    banded_model_cells(len(q), lengths, cfg.band)
                    for q in queries
                )
            )
        return strands * float(
            sum(cell_count(q, s) for q in queries for s in subjects)
        )
