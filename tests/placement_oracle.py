"""The pruning-based placement evaluator, branch sweep and likelihood,
kept as test oracles.

:func:`repro.bio.phylo.stepwise.evaluate_placements` scores a placement
edge-locally from directional partials.  This is the straightforward
version it replaces: insert the taxon into the tree for real and run
the full :class:`TreeLikelihood` pruning pass for every Brent probe of
the three local branches.  Likewise
:func:`repro.bio.phylo.optimize.optimize_all_branches` scores each
branch's probes edge-locally in one traversal per pass;
:func:`optimize_all_branches_by_pruning` re-prunes for every probe.
Slow, but obviously right — the placement and branch-sweep tests and
the DPRml kernel benchmark compare the edge-local paths against them.
"""

from __future__ import annotations

import numpy as np

from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.likelihood import TreeLikelihood
from repro.bio.phylo.models import N_STATES, GammaRates, SubstitutionModel
from repro.bio.phylo.optimize import optimize_branch
from repro.bio.phylo.stepwise import (
    DEFAULT_LEAF_BRANCH,
    LOCAL_MAXITER,
    LOCAL_TOL,
    PlacementScore,
)
from repro.bio.phylo.tree import parse_newick


def optimize_all_branches_by_pruning(
    tl: TreeLikelihood,
    passes: int = 2,
    tol: float = 1e-6,
    min_improvement: float = 1e-4,
) -> float:
    """Coordinate ascent over every branch in postorder, each Brent
    probe a pruning pass; returns the final log-likelihood.  Stops early
    when a full pass improves by less than *min_improvement*."""
    loglik = tl.log_likelihood()
    for _ in range(passes):
        before = loglik
        for node in tl.tree.postorder():
            if node.parent is None:
                continue
            loglik = optimize_branch(tl, node, tol=tol)
        if loglik - before < min_improvement:
            break
    return loglik


def evaluate_placement(
    tree_newick: str,
    taxon: str,
    edge_index: int,
    alignment: SiteAlignment,
    model: SubstitutionModel,
    rates: GammaRates | None = None,
    local_passes: int = 1,
    leaf_branch: float = DEFAULT_LEAF_BRANCH,
) -> PlacementScore:
    """Score inserting *taxon* on edge *edge_index* by full pruning.

    ``cost`` is the :class:`TreeLikelihood` node updates spent.
    """
    tree = parse_newick(tree_newick)
    edges = tree.edges()
    if not (0 <= edge_index < len(edges)):
        raise IndexError(f"edge {edge_index} out of range ({len(edges)} edges)")
    sub = alignment.subset(tree.leaf_names() + [taxon])
    tl = TreeLikelihood(tree, sub, model, rates)
    v, leaf = tree.insert_on_edge(edges[edge_index], taxon, leaf_branch)
    tl.invalidate(v)
    child = v.children[0] if v.children[1] is leaf else v.children[1]
    loglik = tl.log_likelihood()
    for _ in range(local_passes):
        for branch in (child, leaf, v):
            loglik = optimize_branch(
                tl, branch, tol=LOCAL_TOL, max_iter=LOCAL_MAXITER
            )
    return PlacementScore(
        edge_index=edge_index,
        log_likelihood=loglik,
        child_branch=child.branch_length,
        internal_branch=v.branch_length,
        leaf_branch=leaf.branch_length,
        cost=float(tl.node_updates),
    )


class FullWalkLikelihood(TreeLikelihood):
    """:class:`TreeLikelihood` without its shortcuts: every evaluation
    walks the whole postorder and rebuilds each stale node's transition
    matrices.  The production class must match it bit for bit."""

    def log_likelihood(self) -> float:
        K = self.rates.categories
        for node in self.tree.postorder():
            if node in self._partials:
                continue
            self.node_updates += 1
            if node.is_leaf:
                leaf = self._leaf_partial(node.name)
                self._partials[node] = np.broadcast_to(leaf, (K, *leaf.shape))
                self._scale_logs[node] = np.zeros(leaf.shape[0])
                continue
            partial = np.ones((K, self.alignment.n_patterns, N_STATES))
            scale_log = np.zeros(self.alignment.n_patterns)
            for child in node.children:
                child_partial = self._partials[child]
                scale_log += self._scale_logs[child]
                for k, rate in enumerate(self.rates.rates):
                    P = self.model.transition_matrix(child.branch_length, rate)
                    partial[k] *= child_partial[k] @ P.T
            peak = partial.max(axis=(0, 2))
            safe = np.where(peak > 0, peak, 1.0)
            partial /= safe[None, :, None]
            scale_log += np.log(safe)
            self._partials[node] = partial
            self._scale_logs[node] = scale_log

        root = self.tree.root
        site_lik = np.einsum("kps,s->kp", self._partials[root], self.model.freqs)
        mixed = np.einsum("k,kp->p", self.rates.weights, site_lik)
        if (mixed <= 0).any():
            return float("-inf")
        self.evaluations += 1
        return float(
            np.dot(self.alignment.weights, np.log(mixed) + self._scale_logs[root])
        )
