"""Felsenstein pruning with scaling and dirty-node caching.

The log-likelihood of a tree is computed by the pruning algorithm:
conditional likelihoods ("partials") flow from the leaves to the root,
each edge applying its transition matrix.  Two engineering details make
this usable at DPRml's scale:

* **Per-node scaling** — partials are renormalised at every internal
  node and the log of the factor accumulated, so likelihoods of
  hundreds of taxa don't underflow float64.
* **Dirty-node caching** — partials are cached per node; changing a
  branch length or inserting a taxon invalidates only the path from the
  change to the root.  Stepwise insertion evaluates thousands of
  single-edge changes, each of which then costs O(depth) instead of
  O(taxa) node updates.  This mirrors what fastDNAml calls "partial
  likelihood reuse".  An evaluation walks only the stale nodes, and
  each edge's transition matrices are kept until its length changes.

Scoring a candidate placement needs less still: :class:`DirectionalPartials`
holds every edge's partials from below *and* from above, so the
likelihood of the tree with one more leaf on any edge is a product of
three messages at that edge — no tree walk at all.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.models import GammaRates, SubstitutionModel, N_STATES
from repro.bio.phylo.tree import Node, Tree


def rescale_patterns(partial: np.ndarray) -> np.ndarray:
    """Divide each pattern of a (K, npat, 4) *partial* in place by its
    peak over categories and states; return the log of the factors."""
    peak = partial.max(axis=(0, 2))
    # A pattern impossible under the tree would give peak == 0;
    # guard so log() stays finite and the zero propagates.
    safe = np.where(peak > 0, peak, 1.0)
    partial /= safe[None, :, None]
    return np.log(safe)


def up_partial(
    above: np.ndarray,
    above_scale: np.ndarray,
    siblings: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """An edge's scaled up partial and its log scale: the parent's
    *above* message times each sibling's ``(down message, log scale)``
    in *siblings*, rescaled per pattern."""
    partial = above.copy()
    scale_log = above_scale.copy()
    for message, sibling_scale in siblings:
        partial *= message
        scale_log += sibling_scale
    return partial, scale_log + rescale_patterns(partial)


class TreeLikelihood:
    """Log-likelihood evaluator bound to one (tree, alignment, model).

    The tree may be mutated in place (branch lengths, taxon insertion /
    removal) as long as the corresponding ``invalidate*`` method is
    called; :meth:`set_branch_length` and the stepwise search do this
    for you.
    """

    def __init__(
        self,
        tree: Tree,
        alignment: SiteAlignment,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
    ):
        self.tree = tree
        self.alignment = alignment
        self.model = model
        self.rates = rates or GammaRates.uniform()
        missing = set(tree.leaf_names()) - set(alignment.names)
        if missing:
            raise ValueError(f"taxa missing from alignment: {sorted(missing)}")
        self._partials: dict[Node, np.ndarray] = {}      # (K, npat, 4), scaled
        self._scale_logs: dict[Node, np.ndarray] = {}    # (npat,) cumulative
        self._leaf_rows: dict[str, np.ndarray] = {}
        # Per child edge: (length, per-category P) it was built for.
        self._matrices: dict[Node, tuple[float, list[np.ndarray]]] = {}
        self.evaluations = 0
        self.node_updates = 0

    # -- cache control ---------------------------------------------------

    def invalidate(self, node: Node) -> None:
        """Drop cached partials on the path from *node* to the root."""
        while node is not None:
            self._partials.pop(node, None)
            self._scale_logs.pop(node, None)
            node = node.parent

    def invalidate_all(self) -> None:
        self._partials.clear()
        self._scale_logs.clear()
        self._matrices.clear()

    def set_branch_length(self, node: Node, length: float) -> None:
        """Update one branch length and invalidate exactly what changed.

        The edge's matrix is applied when computing the *parent's*
        partial, so the subtree below *node* stays valid.
        """
        if length < 0:
            raise ValueError(f"negative branch length {length}")
        node.branch_length = length
        self.invalidate(node.parent if node.parent is not None else node)

    # -- leaf partials ------------------------------------------------------

    def _leaf_partial(self, name: str) -> np.ndarray:
        cached = self._leaf_rows.get(name)
        if cached is None:
            codes = self.alignment.row(name)
            npat = codes.shape[0]
            partial = np.zeros((npat, N_STATES))
            known = codes < N_STATES
            partial[np.arange(npat)[known], codes[known]] = 1.0
            partial[~known, :] = 1.0  # gap/unknown: uninformative
            cached = partial
            self._leaf_rows[name] = cached
        return cached

    # -- the pruning pass ----------------------------------------------------

    def _transition_matrices(self, node: Node) -> list[np.ndarray]:
        """Per-category ``P`` of *node*'s edge, reused until its length
        changes."""
        cached = self._matrices.get(node)
        if cached is not None and cached[0] == node.branch_length:
            return cached[1]
        mats = [
            self.model.transition_matrix(node.branch_length, rate)
            for rate in self.rates.rates
        ]
        self._matrices[node] = (node.branch_length, mats)
        return mats

    def _update(self, node: Node) -> None:
        """Recompute *node*'s partial from its (current) children."""
        self.node_updates += 1
        if node.is_leaf:
            leaf = self._leaf_partial(node.name)
            self._partials[node] = np.broadcast_to(
                leaf, (self.rates.categories, *leaf.shape)
            )
            self._scale_logs[node] = np.zeros(leaf.shape[0])
            return
        partial = np.ones(
            (self.rates.categories, self.alignment.n_patterns, N_STATES)
        )
        scale_log = np.zeros(self.alignment.n_patterns)
        for child in node.children:
            child_partial = self._partials[child]
            scale_log += self._scale_logs[child]
            for k, P in enumerate(self._transition_matrices(child)):
                # (npat,4) @ (4,4)ᵀ: prob of data below child given
                # each parent state.
                partial[k] *= child_partial[k] @ P.T
        scale_log += rescale_patterns(partial)
        self._partials[node] = partial
        self._scale_logs[node] = scale_log

    def log_likelihood(self) -> float:
        """Recompute whatever is stale and return the tree log-likelihood.

        Invalidation always drops a whole path to the root, so a cached
        node's subtree is cached too: the walk descends only into stale
        nodes and updates them children first, in postorder.
        """
        root = self.tree.root
        stack: list[tuple[Node, bool]] = (
            [] if root in self._partials else [(root, False)]
        )
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self._update(node)
                continue
            stack.append((node, True))
            for child in reversed(node.children):
                if child not in self._partials:
                    stack.append((child, False))

        root_partial = self._partials[root]
        site_lik = np.einsum(
            "kps,s->kp", root_partial, self.model.freqs
        )
        mixed = np.einsum("k,kp->p", self.rates.weights, site_lik)
        if (mixed <= 0).any():
            return float("-inf")
        self.evaluations += 1
        return float(
            np.dot(self.alignment.weights, np.log(mixed) + self._scale_logs[root])
        )

    # -- conveniences -------------------------------------------------------

    def per_site_log_likelihoods(self) -> np.ndarray:
        """Per-*pattern* log-likelihoods (site order is not preserved by
        compression; pair with ``alignment.weights`` for totals)."""
        self.log_likelihood()
        root = self.tree.root
        site_lik = np.einsum(
            "kps,s->kp", self._partials[root], self.model.freqs
        )
        mixed = np.einsum("k,kp->p", self.rates.weights, site_lik)
        return np.log(mixed) + self._scale_logs[root]


class DirectionalPartials:
    """Edge-local likelihoods of one extra leaf inserted on any edge.

    For a fixed tree this holds, per edge ``n → p`` (named by its child
    node *n*), the scaled **down partial** ``D_n`` — the data below *n*
    given the state at *n* (:class:`TreeLikelihood`'s partial) — and the
    scaled **up partial** ``U_n`` — the rest of the tree given the
    state at *p*, with π folded in at the root.  Inserting a leaf *x* on
    the edge creates a node *v*; with ``t_c`` (``n → v``), ``t_l``
    (``x → v``) and ``t_u`` (``v → p``) the placement's site likelihood
    is ::

        Σ_s [P(t_u)ᵀ U_n]_s · [P(t_c) D_n]_s · [P(t_l) x]_s

    plus the per-pattern constant ``scale(D_n) + scale(U_n)`` in log
    space.  Each factor is a :meth:`down`, :meth:`up` or :meth:`leaf`
    message and :meth:`combine` joins three of them, so scoring one
    branch length costs one matrix per rate category and no tree walk.
    Both passes run over the whole tree once, so every edge's partials
    are the same whichever edges are then scored.
    """

    def __init__(
        self,
        tree: Tree,
        alignment: SiteAlignment,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
    ):
        tl = TreeLikelihood(tree, alignment, model, rates)
        tl.log_likelihood()
        self.model = model
        self.rates = tl.rates
        self.alignment = alignment
        self._down = tl._partials
        self._leaf_partial = tl._leaf_partial
        self._up: dict[Node, np.ndarray] = {}
        up_scale: dict[Node, np.ndarray] = {}
        K, npat = self.rates.categories, alignment.n_patterns
        for node in tree.preorder():
            if node.is_leaf:
                continue
            if node.parent is None:
                above = np.broadcast_to(model.freqs, (K, npat, N_STATES))
                above_scale = np.zeros(npat)
            else:
                above = self.up(node, node.branch_length)
                above_scale = up_scale[node]
            below = [self.down(child, child.branch_length) for child in node.children]
            for i, child in enumerate(node.children):
                self._up[child], up_scale[child] = up_partial(
                    above,
                    above_scale,
                    (
                        (below[j], tl._scale_logs[sibling])
                        for j, sibling in enumerate(node.children)
                        if j != i
                    ),
                )
        # scale(U_n) + scale(D_n): each edge's constant log term.
        self._const = {
            node: scale_log + tl._scale_logs[node] for node, scale_log in up_scale.items()
        }

    def _matrices(self, t: float) -> np.ndarray:
        return self.model.transition_matrices(t, self.rates.rates)

    def down(self, node: Node, t: float) -> np.ndarray:
        """``P(t)·D_node`` per category: (K, npat, 4)."""
        return np.matmul(self._down[node], self._matrices(t).transpose(0, 2, 1))

    def up(self, node: Node, t: float) -> np.ndarray:
        """``P(t)ᵀ·U_node`` per category: (K, npat, 4)."""
        return np.matmul(self._up[node], self._matrices(t))

    def leaf(self, name: str, t: float) -> np.ndarray:
        """``P(t)·x`` for taxon *name*'s tip partial: (K, npat, 4)."""
        return np.matmul(self._leaf_partial(name), self._matrices(t).transpose(0, 2, 1))

    def combine(self, node: Node, held: np.ndarray, message: np.ndarray) -> float:
        """Log-likelihood of the tree with a leaf on *node*'s edge, from
        the product of two of its messages (*held*) and the third."""
        site_lik = np.einsum("kps,kps->kp", held, message)
        mixed = self.rates.weights @ site_lik
        if (mixed <= 0).any():
            return float("-inf")
        return float(np.dot(self.alignment.weights, np.log(mixed) + self._const[node]))
