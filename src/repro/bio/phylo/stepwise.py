"""Stepwise-insertion maximum-likelihood tree search (fastDNAml style).

The algorithm DPRml distributes [11, 16 in the paper]:

1. Start from the unique 3-taxon tree.
2. For each remaining taxon (in a distance-guided order): try inserting
   it on **every** edge of the current tree — ``2i−5`` candidate
   placements at stage *i* — optimising the three branch lengths local
   to each insertion; keep the best-scoring placement.
3. Periodically (and finally) re-optimise all branch lengths.

Each stage's placements are independent given the current tree, which
is exactly the unit of distribution: DPRml ships ``(tree newick, taxon,
edge index)`` tasks to donors and synchronises at the stage barrier.
This module provides both the sequential search (:class:`StepwiseSearch`)
and the task-level pieces (:func:`evaluate_placements`,
:func:`apply_placement`) the distributed application composes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.distances import nj_addition_order
from repro.bio.phylo.likelihood import DirectionalPartials, TreeLikelihood
from repro.bio.phylo.models import GammaRates, SubstitutionModel
from repro.bio.phylo.optimize import (
    MAX_BRANCH,
    MIN_BRANCH,
    bounded_minimize,
    optimize_all_branches,
)
from repro.bio.phylo.tree import Node, Tree, parse_newick

DEFAULT_LEAF_BRANCH = 0.1

#: Brent settings of the per-placement local optimisation.
LOCAL_TOL = 1e-4
LOCAL_MAXITER = 40


@dataclass(frozen=True, slots=True)
class PlacementScore:
    """Outcome of evaluating one candidate placement."""

    edge_index: int
    log_likelihood: float
    child_branch: float
    internal_branch: float
    leaf_branch: float
    cost: float = 0.0  # node updates spent (workload-trace currency)

    def better_than(self, other: "PlacementScore | None") -> bool:
        if other is None:
            return True
        if self.log_likelihood != other.log_likelihood:
            return self.log_likelihood > other.log_likelihood
        return self.edge_index < other.edge_index  # deterministic ties


@dataclass(slots=True)
class StageRecord:
    """Accounting for one insertion stage."""

    taxon: str
    n_candidates: int
    best: PlacementScore
    costs: list[float] = field(default_factory=list)


@dataclass(slots=True)
class StepwiseResult:
    """Final tree plus per-stage accounting."""

    tree: Tree
    log_likelihood: float
    stages: list[StageRecord]
    addition_order: list[str]

    @property
    def total_evaluations(self) -> int:
        return sum(s.n_candidates for s in self.stages)


def evaluate_placements(
    tree_newick: str,
    taxon: str,
    edge_indices: Sequence[int],
    alignment: SiteAlignment,
    model: SubstitutionModel,
    rates: GammaRates | None = None,
    local_passes: int = 1,
    leaf_branch: float = DEFAULT_LEAF_BRANCH,
) -> list[PlacementScore]:
    """Score inserting *taxon* on each edge in *edge_indices* of the
    Newick tree.

    Self-contained (tree travels as text, edges as postorder indices)
    so it can run in any donor process.  The alignment is restricted to
    the taxa on the tree plus the new one, so early stages are cheap.

    This is fastDNAml's local optimisation: the split edge's two halves
    and the new leaf's branch are optimised (in that order, for
    *local_passes* passes) while the rest of the tree stays fixed.  Each
    probe is scored edge-locally from :class:`DirectionalPartials`,
    computed once for the whole call, so a score does not depend on
    which other edges share the call.  ``cost`` stays in pruning node
    updates: what the same search would have spent re-running
    :class:`TreeLikelihood` on the inserted tree for every probe.
    """
    tree = parse_newick(tree_newick)
    edges = tree.edges()
    for edge_index in edge_indices:
        if not (0 <= edge_index < len(edges)):
            raise IndexError(f"edge {edge_index} out of range ({len(edges)} edges)")
    sub = alignment.subset(tree.leaf_names() + [taxon])
    partials = DirectionalPartials(tree, sub, model, rates)
    depth = {tree.root: 0}
    for node in tree.preorder():
        for child in node.children:
            depth[child] = depth[node] + 1
    n_nodes = len(depth) + 2  # with the new node v and the new leaf
    return [
        _optimize_placement(
            partials, edges[edge_index], edge_index, taxon,
            local_passes, leaf_branch, n_nodes, depth[edges[edge_index].parent],
        )
        for edge_index in edge_indices
    ]


def _optimize_placement(
    partials: DirectionalPartials,
    edge: Node,
    edge_index: int,
    taxon: str,
    local_passes: int,
    leaf_branch: float,
    n_nodes: int,
    parent_depth: int,
) -> PlacementScore:
    """Brent-optimise the three branches around one insertion."""
    # Branches in optimisation order: child half, new leaf, parent half.
    messages = (
        lambda t: partials.down(edge, t),
        lambda t: partials.leaf(taxon, t),
        lambda t: partials.up(edge, t),
    )
    lengths = [0.5 * edge.branch_length, leaf_branch, 0.5 * edge.branch_length]
    current = [message(t) for message, t in zip(messages, lengths)]
    loglik = partials.combine(edge, current[0] * current[1], current[2])
    # A probe of the child or leaf branch would re-prune v's path to
    # the root (parent_depth + 2 nodes), one of the parent half p's path.
    path = (parent_depth + 2, parent_depth + 2, parent_depth + 1)
    cost = n_nodes
    for _ in range(local_passes):
        for i, message in enumerate(messages):
            j, k = (x for x in range(3) if x != i)
            held = current[j] * current[k]
            x, fx, nfev = bounded_minimize(
                lambda t: -partials.combine(edge, held, message(t)),
                MIN_BRANCH, MAX_BRANCH, xatol=LOCAL_TOL, maxiter=LOCAL_MAXITER,
            )
            lengths[i], current[i], loglik = x, message(x), -fx
            cost += (nfev + 1) * path[i]
    return PlacementScore(
        edge_index=edge_index,
        log_likelihood=loglik,
        child_branch=lengths[0],
        internal_branch=lengths[2],
        leaf_branch=lengths[1],
        cost=float(cost),
    )


def apply_placement(
    tree: Tree, taxon: str, score: PlacementScore, leaf_branch: float = DEFAULT_LEAF_BRANCH
) -> None:
    """Insert *taxon* into *tree* according to a winning score."""
    edges = tree.edges()
    v, leaf = tree.insert_on_edge(edges[score.edge_index], taxon, leaf_branch)
    child = v.children[0] if v.children[1] is leaf else v.children[1]
    child.branch_length = score.child_branch
    v.branch_length = score.internal_branch
    leaf.branch_length = score.leaf_branch


class StepwiseSearch:
    """Sequential stepwise-insertion search over a full alignment.

    Parameters
    ----------
    alignment:
        All taxa to place.
    model, rates:
        The likelihood model.
    addition_order:
        Taxon order; defaults to the distance-guided order of
        :func:`~repro.bio.phylo.distances.nj_addition_order`.
    local_passes:
        Optimisation passes over the three local branches per candidate.
    global_opt_every:
        Run a full branch-length optimisation after every N stages
        (0 = only at the end).
    """

    def __init__(
        self,
        alignment: SiteAlignment,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        addition_order: list[str] | None = None,
        local_passes: int = 1,
        global_opt_every: int = 0,
        leaf_branch: float = DEFAULT_LEAF_BRANCH,
    ):
        if alignment.n_taxa < 3:
            raise ValueError("stepwise insertion needs at least three taxa")
        self.alignment = alignment
        self.model = model
        self.rates = rates
        self.local_passes = local_passes
        self.global_opt_every = global_opt_every
        self.leaf_branch = leaf_branch
        order = addition_order or nj_addition_order(alignment)
        if sorted(order) != sorted(alignment.names):
            raise ValueError("addition order must be a permutation of the taxa")
        self.order = list(order)

    def initial_tree(self) -> Tree:
        """The 3-taxon starting tree (its topology is unique)."""
        return Tree.star(self.order[:3], branch_length=self.leaf_branch)

    def run(self) -> StepwiseResult:
        """Execute the whole search in-process."""
        tree = self.initial_tree()
        # Settle the starting branch lengths.
        tl = TreeLikelihood(
            tree, self.alignment.subset(self.order[:3]), self.model, self.rates
        )
        optimize_all_branches(tl, passes=1)

        stages: list[StageRecord] = []
        for stage_number, taxon in enumerate(self.order[3:], start=4):
            newick = tree.newick()
            n_edges = len(tree.edges())
            scores = evaluate_placements(
                newick,
                taxon,
                range(n_edges),
                self.alignment,
                self.model,
                self.rates,
                local_passes=self.local_passes,
                leaf_branch=self.leaf_branch,
            )
            best: PlacementScore | None = None
            for score in scores:
                if score.better_than(best):
                    best = score
            costs = [score.cost for score in scores]
            assert best is not None
            apply_placement(tree, taxon, best, leaf_branch=self.leaf_branch)
            stages.append(
                StageRecord(taxon=taxon, n_candidates=n_edges, best=best, costs=costs)
            )
            if self.global_opt_every and (stage_number % self.global_opt_every == 0):
                tl = TreeLikelihood(
                    tree,
                    self.alignment.subset(tree.leaf_names()),
                    self.model,
                    self.rates,
                )
                optimize_all_branches(tl, passes=1)

        tl = TreeLikelihood(
            tree, self.alignment.subset(tree.leaf_names()), self.model, self.rates
        )
        final_loglik = optimize_all_branches(tl, passes=2)
        return StepwiseResult(
            tree=tree,
            log_likelihood=final_loglik,
            stages=stages,
            addition_order=self.order,
        )
