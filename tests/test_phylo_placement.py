"""Edge-local placement scoring and branch sweep against the pruning
oracles.

:func:`~repro.bio.phylo.stepwise.evaluate_placements` scores every
candidate edge from directional partials computed once per call, and
:func:`~repro.bio.phylo.optimize.optimize_all_branches` scores every
branch's Brent probes from the partials above and below it.  These
properties pin both to what full pruning gives
(:mod:`tests.placement_oracle`), and pin the pruning path's own caching
to a plain full-walk evaluator bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.likelihood import DirectionalPartials, TreeLikelihood
from repro.bio.phylo.models import GTR, HKY85, JC69, GammaRates
from repro.bio.phylo.nni import nni_search
from repro.bio.phylo.optimize import bounded_minimize, optimize_all_branches
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.phylo.stepwise import DEFAULT_LEAF_BRANCH, evaluate_placements
from repro.bio.phylo.tree import parse_newick
from tests.placement_oracle import (
    FullWalkLikelihood,
    evaluate_placement,
    optimize_all_branches_by_pruning,
)

FREQS = np.array([0.3, 0.2, 0.2, 0.3])
MODELS = {
    "jc69": JC69(),
    "hky85": HKY85(2.5, FREQS),
    "gtr": GTR([1.2, 3.1, 0.8, 1.1, 2.7, 1.0], [0.35, 0.15, 0.2, 0.3]),
}


@st.composite
def placement_cases(draw):
    """A random tree of 4–12 taxa, the alignment of those taxa plus one
    more to place (with gap/unknown codes), a model and rates."""
    n_taxa = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 10_000))
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    rates = GammaRates(0.7, 4) if draw(st.booleans()) else None
    sites = draw(st.integers(40, 160))
    unknown = draw(st.sampled_from([0.0, 0.05, 0.2]))

    truth = random_yule_tree(n_taxa + 1, seed=seed, mean_branch=0.15)
    alignment = _with_unknowns(truth, model, sites, unknown, seed)

    tree = random_yule_tree(n_taxa, seed=seed + 2, mean_branch=0.15, prefix="x")
    for leaf, name in zip(tree.leaves(), alignment.names[:n_taxa]):
        leaf.name = name
    return tree, alignment, alignment.names[n_taxa], model, rates


@st.composite
def generating_topology_cases(draw):
    """A 4–12-taxon tree with every branch at one drawn length, the
    alignment simulated down it (with gap/unknown codes), a model and
    rates: enough data that the branch-length optimum is unique."""
    n_taxa = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 10_000))
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    rates = GammaRates(0.7, 4) if draw(st.booleans()) else None
    sites = draw(st.integers(120, 240))
    unknown = draw(st.sampled_from([0.0, 0.05, 0.2]))
    start = draw(st.sampled_from([0.05, 0.3, 1.0]))

    tree = random_yule_tree(n_taxa, seed=seed, mean_branch=0.15)
    alignment = _with_unknowns(tree, model, sites, unknown, seed)
    for node in tree.edges():
        node.branch_length = start
    return tree, alignment, model, rates


def _with_unknowns(truth, model, sites, unknown, seed):
    """*sites* columns simulated down *truth*, each code turned into
    the unknown code 4 with probability *unknown*."""
    simulated = simulate_alignment(truth, model, sites, seed=seed + 1)
    columns = np.repeat(
        simulated.patterns, simulated.weights.astype(np.intp), axis=1
    )
    rng = np.random.default_rng(seed)
    columns[rng.random(columns.shape) < unknown] = 4
    return SiteAlignment(simulated.names, columns)


branch = st.floats(1e-6, 3.0)


def _recording(calls):
    """A ``bounded_minimize`` that also logs each call's probes and
    the point it returns."""

    def minimize(func, lo, hi, **kwargs):
        probes = []

        def probe(t):
            probes.append(t)
            return func(t)

        x, fx, nfev = bounded_minimize(probe, lo, hi, **kwargs)
        calls.append((probes, x))
        return x, fx, nfev

    return minimize


def _replay(newick, taxon, edge_index, alignment, model, rates, calls):
    """Pruning on the inserted tree, fed the same probes the edge-local
    optimiser made (child, leaf, parent half, per pass): its node
    updates and final log-likelihood."""
    tree = parse_newick(newick)
    sub = alignment.subset(tree.leaf_names() + [taxon])
    tl = TreeLikelihood(tree, sub, model, rates)
    edge = tree.edges()[edge_index]
    v, leaf = tree.insert_on_edge(edge, taxon, DEFAULT_LEAF_BRANCH)
    tl.invalidate(v)
    loglik = tl.log_likelihood()
    for i, (probes, x) in enumerate(calls):
        node = (edge, leaf, v)[i % 3]
        for t in probes + [x]:
            tl.set_branch_length(node, t)
            loglik = tl.log_likelihood()
    return tl.node_updates, loglik


def _edge_local(partials, node, name, t_child, t_leaf, t_up):
    """The tree with taxon *name* inserted on *node*'s edge, from the
    three directional messages."""
    return partials.combine(
        node,
        partials.up(node, t_up) * partials.down(node, t_child),
        partials.leaf(name, t_leaf),
    )


class TestEdgeLocalEqualsPruning:
    @settings(max_examples=40, deadline=None)
    @given(placement_cases(), branch, branch, branch)
    def test_every_edge_matches_the_inserted_tree(self, case, t_child, t_leaf, t_up):
        tree, alignment, taxon, model, rates = case
        sub = alignment.subset(tree.leaf_names() + [taxon])
        partials = DirectionalPartials(tree, sub, model, rates)
        for edge_index, edge in enumerate(tree.edges()):
            edge_local = _edge_local(partials, edge, taxon, t_child, t_leaf, t_up)

            inserted = tree.copy()
            target = inserted.edges()[edge_index]
            v, leaf = inserted.insert_on_edge(target, taxon)
            target.branch_length, leaf.branch_length = t_child, t_leaf
            v.branch_length = t_up
            pruned = TreeLikelihood(inserted, sub, model, rates).log_likelihood()
            assert edge_local == pytest.approx(pruned, rel=1e-9, abs=0)


class TestEvaluatePlacements:
    @settings(max_examples=25, deadline=None)
    @given(placement_cases(), st.sampled_from([1, 2]), st.randoms(use_true_random=False))
    def test_scores_do_not_depend_on_batch(self, case, passes, rnd):
        tree, alignment, taxon, model, rates = case
        newick = tree.newick()
        n_edges = len(tree.edges())
        batch = rnd.sample(range(n_edges), rnd.randint(1, n_edges))

        def score(edges):
            return evaluate_placements(
                newick, taxon, edges, alignment, model, rates, local_passes=passes
            )

        together = score(batch)
        assert [s.edge_index for s in together] == batch
        for s in together:
            assert score([s.edge_index]) == [s]
        everything = {s.edge_index: s for s in score(range(n_edges))}
        assert together == [everything[e] for e in batch]

    @settings(max_examples=25, deadline=None)
    @given(placement_cases(), st.sampled_from([1, 2]))
    def test_cost_is_pruning_node_updates_of_the_same_probes(self, case, passes):
        tree, alignment, taxon, model, rates = case
        newick = tree.newick()
        for edge_index in range(len(tree.edges())):
            calls = []
            with mock.patch(
                "repro.bio.phylo.stepwise.bounded_minimize", _recording(calls)
            ):
                (score,) = evaluate_placements(
                    newick, taxon, [edge_index], alignment, model, rates,
                    local_passes=passes,
                )
            assert len(calls) == 3 * passes
            node_updates, loglik = _replay(
                newick, taxon, edge_index, alignment, model, rates, calls
            )
            assert score.cost == node_updates
            assert score.log_likelihood == pytest.approx(loglik, rel=1e-9)

    def test_ledger_stage_matches_the_oracle(self):
        """On a realistic stage (18th taxon, 600 HKY85 sites) the two
        independent Brent runs agree: same winner, same costs, lnL and
        branch lengths to 1e-6.  On a likelihood surface flat to
        rounding (a branch pinned at ``MAX_BRANCH``) the probe path is
        decided by rounding and may differ; the replay property above
        is the exact one."""
        model = HKY85(2.5, FREQS)
        tree = random_yule_tree(18, seed=2005, mean_branch=0.12)
        alignment = simulate_alignment(tree, model, 600, seed=2006)
        leaf = next(n for n in reversed(tree.leaves()) if n.parent is not tree.root)
        tree.remove_insertion(leaf.parent)
        newick, n_edges = tree.newick(), len(tree.edges())
        scores = evaluate_placements(newick, leaf.name, range(n_edges), alignment, model)
        oracle = [
            evaluate_placement(newick, leaf.name, e, alignment, model)
            for e in range(n_edges)
        ]
        best = max(scores, key=lambda s: (s.log_likelihood, -s.edge_index))
        want = max(oracle, key=lambda s: (s.log_likelihood, -s.edge_index))
        assert best.edge_index == want.edge_index
        for got, ref in zip(scores, oracle):
            assert got.cost == ref.cost
            for a, b in (
                (got.log_likelihood, ref.log_likelihood),
                (got.child_branch, ref.child_branch),
                (got.leaf_branch, ref.leaf_branch),
                (got.internal_branch, ref.internal_branch),
            ):
                assert a == pytest.approx(b, abs=1e-6)


def _random_problem(seed, n_taxa, sites, gamma):
    model = HKY85(2.0, FREQS)
    tree = random_yule_tree(n_taxa, seed=seed, mean_branch=0.12)
    aln = simulate_alignment(tree, model, sites, seed=seed + 1)
    start = random_yule_tree(n_taxa, seed=seed + 7, mean_branch=0.2)
    for leaf, name in zip(start.leaves(), aln.names):
        leaf.name = name
    return start, aln, model, (GammaRates(0.5, 4) if gamma else None)


class TestPruningShortcutsAreExact:
    """Stale-only recomputation and matrix reuse change no bit."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 10), st.booleans())
    def test_optimize_all_branches(self, seed, n_taxa, gamma):
        start, aln, model, rates = _random_problem(seed, n_taxa, 120, gamma)
        runs = []
        for cls in (TreeLikelihood, FullWalkLikelihood):
            tree = start.copy()
            tl = cls(tree, aln, model, rates)
            loglik = optimize_all_branches_by_pruning(tl, passes=2)
            runs.append((loglik, tree.newick(precision=17), tl.node_updates))
        assert runs[0] == runs[1]

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 8))
    def test_nni_search(self, seed, n_taxa):
        start, aln, model, rates = _random_problem(seed, n_taxa, 100, False)
        runs = []
        for cls in (TreeLikelihood, FullWalkLikelihood):
            made = []

            class Recording(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    made.append(self)

            with mock.patch("repro.bio.phylo.nni.TreeLikelihood", Recording):
                tree, loglik, rounds = nni_search(start, aln, model, rates)
            updates = sum(tl.node_updates for tl in made)
            runs.append((loglik, rounds, tree.newick(precision=17), updates))
        assert runs[0] == runs[1]


def _sweep_problem(case):
    """A placement case's tree, on its own taxa."""
    tree, alignment, _taxon, model, rates = case
    return tree, alignment.subset(tree.leaf_names()), model, rates


class TestBranchSweep:
    """The edge-local sweep is pruning coordinate ascent, scored
    without tree walks."""

    @settings(max_examples=30, deadline=None)
    @given(placement_cases(), st.integers(1, 3))
    def test_loglik_is_the_pruning_value_of_the_returned_tree(self, case, passes):
        tree, alignment, model, rates = _sweep_problem(case)
        tl = TreeLikelihood(tree, alignment, model, rates)
        loglik = optimize_all_branches(tl, passes=passes)
        fresh = TreeLikelihood(tree.copy(), alignment, model, rates).log_likelihood()
        assert loglik == pytest.approx(fresh, rel=1e-9, abs=0)
        assert tl.log_likelihood() == pytest.approx(fresh, rel=1e-9, abs=0)

    @settings(max_examples=20, deadline=None)
    @given(placement_cases(), branch)
    def test_every_objective_is_the_pruning_loglik(self, case, t):
        """Each branch's Brent objective at any length is minus the
        pruning lnL of the tree as the sweep has left it, with that
        branch at that length.  Branches are visited in preorder."""
        tree, alignment, model, rates = _sweep_problem(case)
        n_edges = len(tree.edges())
        pairs = []

        def minimize(func, lo, hi, **kwargs):
            probe = tree.copy()
            edges = [node for node in probe.preorder() if node.parent is not None]
            edges[len(pairs) % n_edges].branch_length = t
            pruned = TreeLikelihood(probe, alignment, model, rates).log_likelihood()
            pairs.append((-func(t), pruned))
            return bounded_minimize(func, lo, hi, **kwargs)

        tl = TreeLikelihood(tree, alignment, model, rates)
        with mock.patch("repro.bio.phylo.optimize.bounded_minimize", minimize):
            optimize_all_branches(tl, passes=2, min_improvement=-math.inf)
        assert len(pairs) == 2 * n_edges
        for edge_local, pruned in pairs:
            assert edge_local == pytest.approx(pruned, rel=1e-9, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(placement_cases())
    def test_a_pass_never_lowers_the_loglik(self, case):
        tree, alignment, model, rates = _sweep_problem(case)
        tl = TreeLikelihood(tree, alignment, model, rates)
        before = tl.log_likelihood()
        for _ in range(3):
            after = optimize_all_branches(tl, passes=1, min_improvement=-math.inf)
            assert after >= before - 1e-9
            before = after

    @settings(max_examples=12, deadline=None)
    @given(generating_topology_cases())
    def test_converges_to_the_pruning_optimum(self, case):
        tree, alignment, model, rates = case
        runs = []
        for optimize in (optimize_all_branches, optimize_all_branches_by_pruning):
            tl = TreeLikelihood(tree.copy(), alignment, model, rates)
            runs.append(optimize(tl, passes=200, min_improvement=1e-7))
        assert runs[0] == pytest.approx(runs[1], rel=0, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(placement_cases())
    def test_pruning_cannot_improve_the_converged_sweep(self, case):
        """On any topology, where the surface may have several optima,
        the sweep still stops only where pruning finds no gain."""
        tree, alignment, model, rates = _sweep_problem(case)
        tl = TreeLikelihood(tree, alignment, model, rates)
        converged = optimize_all_branches(tl, passes=200, min_improvement=1e-7)
        polished = optimize_all_branches_by_pruning(tl, passes=1)
        assert polished - converged < 1e-6
