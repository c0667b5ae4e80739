"""The DPRml donor-side Algorithm: evaluate candidate placements.

The alignment and model travel inside the Algorithm object, which the
framework ships to each donor once per problem (donors cache it), so
per-unit payloads are just ``(tree newick, taxon, edge indices)`` — a
few hundred bytes however large the dataset is.  This is the paper's
"all its likelihood calculations" on the donor side.
"""

from __future__ import annotations

from typing import Any

from repro.apps.dprml.config import DPRmlConfig
from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.likelihood import TreeLikelihood
from repro.bio.phylo.optimize import optimize_all_branches
from repro.bio.phylo.stepwise import evaluate_placements
from repro.bio.phylo.tree import parse_newick
from repro.core.problem import Algorithm


class DPRmlAlgorithm(Algorithm):
    """Evaluates placement batches and final polish tasks.

    Payload forms::

        ("place",  newick, taxon, (edge_index, ...))
            -> ("place", [PlacementScore, ...])
        ("polish", newick, passes)
            -> ("polish", (optimized_newick, log_likelihood))
    """

    def __init__(self, config: DPRmlConfig, alignment: SiteAlignment):
        self.config = config
        self.alignment = alignment
        # Model/rates are rebuilt lazily donor-side (cheap, avoids
        # shipping eigendecompositions).
        self._model = None
        self._rates = None

    def _ensure_model(self):
        if self._model is None:
            self._model = self.config.substitution_model()
            self._rates = self.config.rates()
        return self._model, self._rates

    def compute(self, payload: Any) -> Any:
        kind = payload[0]
        model, rates = self._ensure_model()
        if kind == "place":
            _kind, newick, taxon, edge_indices = payload
            scores = evaluate_placements(
                newick,
                taxon,
                edge_indices,
                self.alignment,
                model,
                rates,
                local_passes=self.config.local_passes,
                leaf_branch=self.config.leaf_branch,
            )
            return ("place", scores)
        if kind == "polish":
            _kind, newick, passes = payload
            tree = parse_newick(newick)
            sub = self.alignment.subset(tree.leaf_names())
            if self.config.final_nni and tree.n_leaves >= 4:
                from repro.bio.phylo.nni import nni_search

                tree, _ll, _rounds = nni_search(tree, self.alignment, model, rates)
                sub = self.alignment.subset(tree.leaf_names())
            tl = TreeLikelihood(tree, sub, model, rates)
            loglik = optimize_all_branches(tl, passes=passes)
            return ("polish", (tree.newick(), loglik))
        raise ValueError(f"unknown DPRml task kind {kind!r}")

    def cost(self, payload: Any) -> float:
        """Abstract cost in pruning-equivalent node updates.

        The simulator charges a placement what pruning would spend on
        it — every Brent probe re-pruning the inserted node's path, each
        node update O(patterns × categories), estimated here from the
        tree size — the currency of :attr:`PlacementScore.cost` and of
        the Fig. 2 trace.  Donors score placements edge-locally for far
        less (:func:`~repro.bio.phylo.stepwise.evaluate_placements`);
        the simulated clock does not follow that kernel.  A polish is
        charged the same way: each pass as if every branch's probes
        re-pruned the tree, though donors sweep the branches edge-locally
        (:func:`~repro.bio.phylo.optimize.optimize_all_branches`).  These
        weights only matter to the simulator's clock, not to correctness.
        """
        kind = payload[0]
        npat = self.alignment.n_patterns
        ncat = self.config.gamma_categories if self.config.gamma_alpha > 0 else 1
        if kind == "place":
            _kind, newick, _taxon, edge_indices = payload
            taxa = newick.count(",") + 1  # leaf count, cheaply estimated
            return float(len(edge_indices) * taxa * npat * ncat) / 1e4
        _kind, newick, passes = payload
        taxa = newick.count(",") + 1
        return float(passes * (2 * taxa) * taxa * npat * ncat) / 1e4
