"""Edge-local vs pruning placement kernel throughput (DPRml donors).

A DPRml donor scores every candidate edge of a stage: insert the taxon,
optimise the three local branches with Brent, report the best
log-likelihood.  The pruning oracle (:mod:`tests.placement_oracle`)
runs a full :class:`~repro.bio.phylo.likelihood.TreeLikelihood` pass
per Brent probe; :func:`~repro.bio.phylo.stepwise.evaluate_placements`
scores each probe edge-locally from directional partials computed once
per call.

On one fixed stage — the 18th taxon of an HKY85 alignment (600 sites)
placed on the true tree of the other 17 — this times both, asserts
the same winning edge, the same pruning-equivalent costs and
log-likelihoods within 1e-6, writes ``BENCH_dprml_kernel.json``, and
gates the edge-local kernel at ≥ 3× the oracle's placements per
second.  Wall-clock, so the report is not pinned.
"""

import json
import time

import numpy as np

from conftest import OUT_DIR, write_report
from repro.bio.phylo.models import HKY85
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.phylo.stepwise import evaluate_placements
from tests.placement_oracle import evaluate_placement

TAXA = 18
SITES = 600
REPEATS = 3
MIN_SPEEDUP = 3.0


def _stage():
    """The newick of the true tree without its last leaf, that leaf's
    name, the alignment and the model."""
    model = HKY85(2.5, np.array([0.3, 0.2, 0.2, 0.3]))
    tree = random_yule_tree(TAXA, seed=2005, mean_branch=0.12)
    alignment = simulate_alignment(tree, model, SITES, seed=2006)
    leaf = next(n for n in reversed(tree.leaves()) if n.parent is not tree.root)
    tree.remove_insertion(leaf.parent)
    return tree.newick(), leaf.name, alignment, model


def _best_of(run):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _winner(scores):
    best = None
    for score in scores:
        if score.better_than(best):
            best = score
    return best


def test_edge_local_kernel_beats_pruning():
    newick, taxon, alignment, model = _stage()
    n_edges = 2 * (TAXA - 1) - 3
    edges = range(n_edges)

    local, local_s = _best_of(
        lambda: evaluate_placements(newick, taxon, edges, alignment, model)
    )
    oracle, oracle_s = _best_of(
        lambda: [evaluate_placement(newick, taxon, e, alignment, model) for e in edges]
    )

    max_diff = max(abs(a.log_likelihood - b.log_likelihood) for a, b in zip(local, oracle))
    row = {
        "taxa": TAXA,
        "sites": SITES,
        "patterns": alignment.n_patterns,
        "placements": n_edges,
        "edge_local_seconds": round(local_s, 4),
        "oracle_seconds": round(oracle_s, 4),
        "edge_local_evals_per_s": round(n_edges / local_s, 1),
        "oracle_evals_per_s": round(n_edges / oracle_s, 1),
        "speedup": round(oracle_s / local_s, 2),
        "winner_edge": _winner(local).edge_index,
        "oracle_winner_edge": _winner(oracle).edge_index,
        "max_abs_loglik_diff": float(f"{max_diff:.3g}"),
        "costs_equal": [a.cost for a in local] == [b.cost for b in oracle],
    }
    write_report(
        "dprml_kernel",
        "DPRml placement kernel: edge-local vs pruning",
        [
            f"stage: taxon {TAXA} of {TAXA}, {n_edges} edges, "
            f"{SITES} sites ({row['patterns']} patterns), HKY85, best of {REPEATS}",
            f"pruning oracle  {oracle_s:8.4f} s  {row['oracle_evals_per_s']:>8.1f} placements/s",
            f"edge-local      {local_s:8.4f} s  {row['edge_local_evals_per_s']:>8.1f} placements/s",
            f"speedup {row['speedup']:.1f}x; winner edge {row['winner_edge']} "
            f"(oracle {row['oracle_winner_edge']}); max |dlnL| {max_diff:.2e}; "
            f"costs equal: {row['costs_equal']}",
        ],
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_dprml_kernel.json").write_text(json.dumps(row, indent=2) + "\n")

    assert row["winner_edge"] == row["oracle_winner_edge"]
    assert row["costs_equal"]
    assert max_diff < 1e-6
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"edge-local kernel only {row['speedup']:.2f}x the pruning oracle"
    )
