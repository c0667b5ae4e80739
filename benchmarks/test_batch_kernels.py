"""Batched vs scalar alignment kernel throughput.

The batched engine (:mod:`repro.bio.align.batch`) exists for one
reason: real FASTA databases are dominated by short-to-mid length
sequences, where the scalar kernel's per-row NumPy dispatch overhead
dominates the actual arithmetic.  This benchmark measures, on
representative length distributions:

* the scalar reference kernels (one query);
* the batched sweep forced to float64, one query per sweep — the
  engine's reference arithmetic;
* the batched sweep in the dtype :func:`~repro.bio.align.batch.sweep_dtype`
  picks, one query per sweep;
* the same with every query of the workload stacked into one sweep per
  bucket, as a DSEARCH donor runs a unit.

It asserts that every batched score equals the float64 sweep and the
scalar kernels exactly, writes ``BENCH_batch_kernels.json`` for trend
tracking, and gates the many-short reference workload: the batched
engine must beat the scalar one, and the rule's dtype must be at least
1.5× the float64 sweep.
"""

import json
import time

import numpy as np

from conftest import OUT_DIR, write_report
from repro.bio.align.batch import (
    SubjectBucket,
    batched_scores,
    plan_buckets,
    sweep_dtype,
)
from repro.bio.align.nw import needleman_wunsch_score
from repro.bio.align.scoring import blosum62, dna_scheme
from repro.bio.align.sw import smith_waterman_score
from repro.bio.seq import DNA, PROTEIN
from repro.bio.seq.generate import random_sequence

#: (name, subjects, query_length, mode, alphabet, length sampler)
WORKLOADS = [
    # The reference workload: lots of short subjects, where batching
    # pays most.  This is the one the regression gates apply to.
    ("many-short dna/sw", 500, 360, "sw", DNA,
     lambda rng, n: rng.integers(60, 200, size=n)),
    # Right-skewed mid-length distribution, like a real nt slice.
    ("mid-length dna/sw", 150, 360, "sw", DNA,
     lambda rng, n: np.clip(50 + rng.gamma(2.0, 175.0, size=n), 50, 1000).astype(int)),
    # Protein global search against typical protein lengths.
    ("protein nw/blosum62", 300, 350, "nw", PROTEIN,
     lambda rng, n: rng.integers(100, 400, size=n)),
]

REFERENCE = "many-short dna/sw"

#: Equal-length queries per workload, stacked into one sweep per bucket
#: (a DSEARCH unit of the live ledger carries four 300-nt queries).
QUERIES = 4


def _sweep_all(queries, plans, buckets, scheme, local, stacked, dtype=None):
    """Scores ``(len(queries), n_subjects)`` and the seconds they took."""
    n_subjects = sum(plan.size for plan in plans)
    scores = np.empty((len(queries), n_subjects))
    t0 = time.perf_counter()
    for plan, bucket in zip(plans, buckets):
        if stacked:
            scores[:, list(plan.indices)] = batched_scores(
                queries, bucket, scheme, local=local, dtype=dtype
            )
        else:
            for qi, query in enumerate(queries):
                scores[qi, list(plan.indices)] = batched_scores(
                    [query], bucket, scheme, local=local, dtype=dtype
                )[0]
    return scores, time.perf_counter() - t0


def _measure(name, n_subjects, query_len, mode, alphabet, sampler):
    rng = np.random.default_rng(17)
    scheme = dna_scheme() if alphabet is DNA else blosum62()
    scalar_fn = smith_waterman_score if mode == "sw" else needleman_wunsch_score
    local = mode == "sw"
    query = random_sequence("q", query_len, alphabet, rng)
    lengths = [int(x) for x in sampler(rng, n_subjects)]
    subjects = [
        random_sequence(f"s{i:04d}", length, alphabet, rng)
        for i, length in enumerate(lengths)
    ]
    queries = [query] + [
        random_sequence(f"q{k}", query_len, alphabet, rng) for k in range(1, QUERIES)
    ]
    effective_cells = query_len * sum(lengths)

    # Warm both paths once (matrix parsing, icodes memoisation) so the
    # timed runs compare steady-state kernels.
    scalar_fn(query, subjects[0], scheme)
    plans = plan_buckets(lengths)
    buckets = [SubjectBucket(plan, subjects) for plan in plans]
    padded_cells = sum(plan.padded_cells(query_len) for plan in plans)
    dtypes = sorted(
        {str(sweep_dtype(scheme, query_len, plan.width)[0]) for plan in plans}
    )

    t0 = time.perf_counter()
    scalar = np.array([scalar_fn(query, s, scheme) for s in subjects])
    scalar_s = time.perf_counter() - t0

    float64, float64_s = _sweep_all(
        queries, plans, buckets, scheme, local, stacked=False, dtype=np.float64
    )
    batched, batched_s = _sweep_all(
        queries, plans, buckets, scheme, local, stacked=False
    )
    stacked, stacked_s = _sweep_all(
        queries, plans, buckets, scheme, local, stacked=True
    )

    assert np.array_equal(scalar, float64[0]), f"{name}: float64 sweep diverges"
    assert np.array_equal(batched, float64), f"{name}: {dtypes} sweep diverges"
    assert np.array_equal(stacked, float64), f"{name}: stacked sweep diverges"
    # Per-query seconds, so every column reads as one query's sweep.
    float64_s /= QUERIES
    batched_s /= QUERIES
    stacked_s /= QUERIES
    return {
        "name": name,
        "subjects": n_subjects,
        "query_length": query_len,
        "mode": mode,
        "queries": QUERIES,
        "dtype": "+".join(dtypes),
        "effective_cells": effective_cells,
        "padded_cells": padded_cells,
        "scalar_seconds": round(scalar_s, 4),
        "float64_seconds": round(float64_s, 4),
        "batched_seconds": round(batched_s, 4),
        "stacked_seconds": round(stacked_s, 4),
        "scalar_mcells_per_s": round(effective_cells / scalar_s / 1e6, 1),
        "float64_mcells_per_s": round(effective_cells / float64_s / 1e6, 1),
        "batched_mcells_per_s": round(effective_cells / batched_s / 1e6, 1),
        "stacked_mcells_per_s": round(effective_cells / stacked_s / 1e6, 1),
        "speedup": round(scalar_s / batched_s, 2),
        "dtype_speedup": round(float64_s / batched_s, 2),
        "stacked_speedup": round(float64_s / stacked_s, 2),
    }


def test_batched_kernels_beat_scalar():
    rows = [_measure(*spec) for spec in WORKLOADS]

    lines = [
        f"{'workload':<22} {'cells(M)':>9} {'dtype':>11} {'scalar':>8} "
        f"{'float64':>8} {'dtype':>8} {'stacked':>8}  Mcells/s (per query)",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<22} {row['effective_cells'] / 1e6:>9.1f} "
            f"{row['dtype']:>11} {row['scalar_mcells_per_s']:>8.1f} "
            f"{row['float64_mcells_per_s']:>8.1f} {row['batched_mcells_per_s']:>8.1f} "
            f"{row['stacked_mcells_per_s']:>8.1f}"
        )
    lines.append("")
    for row in rows:
        lines.append(
            f"{row['name']:<22} batched/scalar {row['speedup']:>5.1f}x  "
            f"dtype/float64 {row['dtype_speedup']:>4.1f}x  "
            f"stacked/float64 {row['stacked_speedup']:>4.1f}x"
        )
    reference = next(r for r in rows if r["name"] == REFERENCE)
    lines.append("")
    lines.append(
        f"reference ({REFERENCE}): {reference['speedup']:.1f}x over scalar, "
        f"{reference['dtype_speedup']:.1f}x over float64, "
        f"padding efficiency "
        f"{reference['effective_cells'] / reference['padded_cells']:.1%}"
    )
    write_report("batch_kernels", "Batched vs scalar alignment kernels", lines)

    OUT_DIR.mkdir(exist_ok=True)
    payload = {"reference": REFERENCE, "workloads": rows}
    (OUT_DIR / "BENCH_batch_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The gates, on the many-short reference workload: the batched
    # engine must actually be faster than scalar, and the exact integer
    # sweep must earn its place over the float64 one.
    assert reference["speedup"] > 1.0, (
        f"batched engine slower than scalar on {REFERENCE}: "
        f"{reference['speedup']:.2f}x"
    )
    assert reference["dtype_speedup"] >= 1.5, (
        f"{reference['dtype']} sweep only {reference['dtype_speedup']:.2f}x "
        f"the float64 sweep on {REFERENCE}"
    )
