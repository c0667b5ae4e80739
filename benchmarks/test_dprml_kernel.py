"""Edge-local vs pruning DPRml kernels: placement and polish.

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
log-likelihoods within 1e-6, and gates the edge-local kernel at ≥ 3×
the oracle's placements per second.

A polish unit optimises every branch of the final tree.  On the
18-taxon true tree with every branch at 0.3 this times a 2-pass
:func:`~repro.bio.phylo.optimize.optimize_all_branches` (one edge-local
traversal per pass) against the pruning sweep of the oracle, gates it
at ≥ 3× faster, asserts the 2-pass sweep lands no more than 1 log unit
below the oracle, and that both run to convergence reach the same lnL
within 1e-6.

Both rows go to ``BENCH_dprml_kernel.json``.  Wall-clock, so the
report is not pinned.
"""

import json
import time

import numpy as np

from conftest import OUT_DIR, write_report
import pytest

from repro.bio.phylo.likelihood import TreeLikelihood
from repro.bio.phylo.models import HKY85
from repro.bio.phylo.optimize import optimize_all_branches
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.phylo.stepwise import evaluate_placements
from tests.placement_oracle import evaluate_placement, optimize_all_branches_by_pruning

TAXA = 18
SITES = 600
REPEATS = 3
MIN_SPEEDUP = 3.0
POLISH_START = 0.3
#: How far (log units) a 2-pass sweep may land below the oracle's.
POLISH_SLACK = 1.0


def _true_tree():
    """The 18-taxon true tree, its alignment and the model."""
    model = HKY85(2.5, np.array([0.3, 0.2, 0.2, 0.3]))
    tree = random_yule_tree(TAXA, seed=2005, mean_branch=0.12)
    alignment = simulate_alignment(tree, model, SITES, seed=2006)
    return tree, alignment, model


def _stage():
    """The newick of the true tree without its last leaf, that leaf's
    name, the alignment and the model."""
    tree, alignment, model = _true_tree()
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


def _placement_row():
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
    return {
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


def _polish_row():
    tree, alignment, model = _true_tree()
    for node in tree.edges():
        node.branch_length = POLISH_START

    def polish(optimize, **kwargs):
        tl = TreeLikelihood(tree.copy(), alignment, model)
        return optimize(tl, **kwargs)

    sweep, sweep_s = _best_of(lambda: polish(optimize_all_branches, passes=2))
    oracle, oracle_s = _best_of(
        lambda: polish(optimize_all_branches_by_pruning, passes=2)
    )
    converged = [
        polish(optimize, passes=200, min_improvement=1e-7)
        for optimize in (optimize_all_branches, optimize_all_branches_by_pruning)
    ]
    return {
        "branches": len(tree.edges()),
        "start_branch": POLISH_START,
        "passes": 2,
        "sweep_seconds": round(sweep_s, 4),
        "oracle_seconds": round(oracle_s, 4),
        "speedup": round(oracle_s / sweep_s, 2),
        "sweep_loglik": round(sweep, 6),
        "oracle_loglik": round(oracle, 6),
        "converged_loglik": round(converged[0], 6),
        "converged_abs_diff": float(f"{abs(converged[0] - converged[1]):.3g}"),
    }


@pytest.fixture(scope="module")
def rows():
    """Both rows, timed once and written to the reports."""
    row, polish = _placement_row(), _polish_row()
    write_report(
        "dprml_kernel",
        "DPRml kernels: edge-local vs pruning",
        [
            f"placement stage: taxon {TAXA} of {TAXA}, {row['placements']} edges, "
            f"{SITES} sites ({row['patterns']} patterns), HKY85, best of {REPEATS}",
            f"pruning oracle  {row['oracle_seconds']:8.4f} s  "
            f"{row['oracle_evals_per_s']:>8.1f} placements/s",
            f"edge-local      {row['edge_local_seconds']:8.4f} s  "
            f"{row['edge_local_evals_per_s']:>8.1f} placements/s",
            f"speedup {row['speedup']:.1f}x; winner edge {row['winner_edge']} "
            f"(oracle {row['oracle_winner_edge']}); max |dlnL| "
            f"{row['max_abs_loglik_diff']:.2e}; costs equal: {row['costs_equal']}",
            f"polish: {TAXA}-taxon true tree, {polish['branches']} branches from "
            f"{POLISH_START}, {polish['passes']} passes, best of {REPEATS}",
            f"pruning sweep   {polish['oracle_seconds']:8.4f} s  "
            f"lnL {polish['oracle_loglik']:.4f}",
            f"edge-local      {polish['sweep_seconds']:8.4f} s  "
            f"lnL {polish['sweep_loglik']:.4f}",
            f"speedup {polish['speedup']:.1f}x; converged lnL "
            f"{polish['converged_loglik']:.4f} (|dlnL| "
            f"{polish['converged_abs_diff']:.2e})",
        ],
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_dprml_kernel.json").write_text(
        json.dumps({**row, "polish": polish}, indent=2) + "\n"
    )
    return row, polish


def test_edge_local_kernel_beats_pruning(rows):
    row, _polish = rows
    assert row["winner_edge"] == row["oracle_winner_edge"]
    assert row["costs_equal"]
    assert row["max_abs_loglik_diff"] < 1e-6
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"edge-local kernel only {row['speedup']:.2f}x the pruning oracle"
    )


def test_branch_sweep_beats_pruning(rows):
    _row, polish = rows
    assert polish["sweep_loglik"] >= polish["oracle_loglik"] - POLISH_SLACK
    assert polish["converged_abs_diff"] <= 1e-6
    assert polish["speedup"] >= MIN_SPEEDUP, (
        f"branch sweep only {polish['speedup']:.2f}x the pruning oracle"
    )
