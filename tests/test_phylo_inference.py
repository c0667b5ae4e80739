"""Tests for distances, NJ, simulation and the stepwise-insertion search
— the inference pipeline end to end."""

import numpy as np
import pytest

from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.distances import (
    MAX_JC_DISTANCE,
    jc_distance,
    jc_distance_matrix,
    neighbor_joining,
    nj_addition_order,
)
from repro.bio.phylo.likelihood import TreeLikelihood
from repro.bio.phylo.models import JC69, HKY85
from repro.bio.phylo.simulate import (
    alignment_to_sequences,
    random_yule_tree,
    simulate_alignment,
)
from repro.bio.phylo.stepwise import (
    StepwiseSearch,
    apply_placement,
    evaluate_placements,
)
from repro.bio.phylo.tree import Tree, parse_newick, rf_distance
from repro.bio.seq.sequence import dna

FREQS = np.array([0.3, 0.2, 0.2, 0.3])


class TestJCDistance:
    def test_identical_is_zero(self):
        aln = SiteAlignment.from_sequences([dna("a", "ACGTAC"), dna("b", "ACGTAC")])
        assert jc_distance(aln.patterns[0], aln.patterns[1], aln.weights) == 0.0

    def test_increases_with_divergence(self):
        aln = SiteAlignment.from_sequences(
            [dna("a", "AAAAAAAAAA"), dna("b", "AAAAAAAATT"), dna("c", "AAAATTTTTT")]
        )
        d_ab = jc_distance(aln.patterns[0], aln.patterns[1], aln.weights)
        d_ac = jc_distance(aln.patterns[0], aln.patterns[2], aln.weights)
        assert 0 < d_ab < d_ac

    def test_saturation_capped(self):
        aln = SiteAlignment.from_sequences([dna("a", "AAAA"), dna("b", "TTTT")])
        assert (
            jc_distance(aln.patterns[0], aln.patterns[1], aln.weights)
            == MAX_JC_DISTANCE
        )

    def test_unknowns_ignored(self):
        aln = SiteAlignment.from_sequences([dna("a", "ACGTNN"), dna("b", "ACGANN")])
        d = jc_distance(aln.patterns[0], aln.patterns[1], aln.weights)
        aln2 = SiteAlignment.from_sequences([dna("a", "ACGT"), dna("b", "ACGA")])
        d2 = jc_distance(aln2.patterns[0], aln2.patterns[1], aln2.weights)
        assert d == pytest.approx(d2)

    def test_matrix_symmetric_zero_diagonal(self):
        tree = random_yule_tree(6, seed=1)
        aln = simulate_alignment(tree, JC69(), 200, seed=2)
        D = jc_distance_matrix(aln)
        assert np.allclose(D, D.T)
        assert np.allclose(np.diag(D), 0.0)
        assert (D[~np.eye(6, dtype=bool)] > 0).all()


class TestNeighborJoining:
    def test_additive_distances_recover_topology(self):
        # Distances measured on a known tree are additive; NJ must
        # reconstruct that tree exactly.
        true = parse_newick(
            "((a:0.1,b:0.2):0.15,(c:0.12,d:0.08):0.1,e:0.3);"
        )
        names = true.leaf_names()
        # path-length matrix
        n = len(names)
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = _path_length(true, names[i], names[j])
        nj = neighbor_joining(names, D)
        assert rf_distance(true, nj) == 0
        # branch lengths recovered too (additive case is exact)
        for leaf in nj.leaves():
            assert leaf.branch_length == pytest.approx(
                true.find(leaf.name).branch_length, abs=1e-9
            )

    def test_two_and_three_taxa(self):
        t2 = neighbor_joining(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sorted(t2.leaf_names()) == ["a", "b"]
        D3 = np.array([[0, 0.4, 0.6], [0.4, 0, 0.8], [0.6, 0.8, 0]])
        t3 = neighbor_joining(["a", "b", "c"], D3)
        assert len(t3.root.children) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="match"):
            neighbor_joining(["a", "b"], np.zeros((3, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            neighbor_joining(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="at least two"):
            neighbor_joining(["a"], np.zeros((1, 1)))

    def test_recovers_simulated_topology(self):
        true = random_yule_tree(8, seed=13, mean_branch=0.15)
        aln = simulate_alignment(true, JC69(), 2000, seed=14)
        nj = neighbor_joining(aln.names, jc_distance_matrix(aln))
        assert rf_distance(true, nj) <= 2  # near-perfect on long clean data


def _path_length(tree: Tree, a: str, b: str) -> float:
    ancestors = {}
    node = tree.find(a)
    total = 0.0
    while node is not None:
        ancestors[id(node)] = total
        total += node.branch_length
        node = node.parent
    node = tree.find(b)
    total = 0.0
    while id(node) not in ancestors:
        total += node.branch_length
        node = node.parent
    return total + ancestors[id(node)]


class TestSimulate:
    def test_shape_and_determinism(self):
        tree = random_yule_tree(5, seed=3)
        a = simulate_alignment(tree, JC69(), 100, seed=9)
        b = simulate_alignment(tree, JC69(), 100, seed=9)
        assert a.n_taxa == 5
        assert a.weights.sum() == 100
        assert np.array_equal(a.patterns, b.patterns)

    def test_zero_branch_child_copies_parent(self):
        tree = parse_newick("(a:0.0000001,b:0.0000001,c:0.0000001);")
        aln = simulate_alignment(tree, JC69(), 200, seed=5)
        assert np.array_equal(aln.patterns[0], aln.patterns[1])

    def test_long_branches_decorrelate(self):
        tree = parse_newick("(a:8,b:8,c:8);")
        aln = simulate_alignment(tree, JC69(), 2000, seed=6)
        agree = float(
            (aln.patterns[0] == aln.patterns[1]).astype(float) @ aln.weights
        ) / aln.weights.sum()
        assert agree == pytest.approx(0.25, abs=0.05)

    def test_frequencies_respected(self):
        tree = random_yule_tree(4, seed=1)
        model = HKY85(2.0, FREQS)
        aln = simulate_alignment(tree, model, 5000, seed=2)
        expanded = np.repeat(aln.patterns, aln.weights.astype(int), axis=1)
        counts = np.bincount(expanded.ravel(), minlength=4)[:4]
        observed = counts / counts.sum()
        assert np.allclose(observed, FREQS, atol=0.03)

    def test_alignment_to_sequences_roundtrip(self):
        tree = random_yule_tree(4, seed=1)
        aln = simulate_alignment(tree, JC69(), 60, seed=2)
        seqs = alignment_to_sequences(aln)
        again = SiteAlignment.from_sequences(seqs)
        assert sorted(again.names) == sorted(aln.names)
        assert again.weights.sum() == aln.weights.sum()

    def test_validation(self):
        tree = random_yule_tree(4, seed=1)
        with pytest.raises(ValueError):
            simulate_alignment(tree, JC69(), 0)


class TestAdditionOrder:
    def test_is_permutation(self):
        tree = random_yule_tree(7, seed=2)
        aln = simulate_alignment(tree, JC69(), 150, seed=3)
        order = nj_addition_order(aln)
        assert sorted(order) == sorted(aln.names)

    def test_first_pair_is_most_distant(self):
        tree = random_yule_tree(6, seed=5)
        aln = simulate_alignment(tree, JC69(), 400, seed=6)
        D = jc_distance_matrix(aln)
        order = nj_addition_order(aln)
        i, j = aln.names.index(order[0]), aln.names.index(order[1])
        assert D[i, j] == pytest.approx(D.max())


class TestPlacementTasks:
    def setup_method(self):
        self.true = random_yule_tree(6, seed=31, mean_branch=0.12)
        self.model = JC69()
        self.aln = simulate_alignment(self.true, self.model, 300, seed=32)

    def score(self, newick, taxon, edge_index):
        return evaluate_placements(newick, taxon, [edge_index], self.aln, self.model)[0]

    def test_evaluate_placement_is_pure(self):
        tree = Tree.star(self.aln.names[:3])
        newick = tree.newick()
        s1 = self.score(newick, self.aln.names[3], 0)
        s2 = self.score(newick, self.aln.names[3], 0)
        assert s1.log_likelihood == s2.log_likelihood
        assert tree.newick() == newick  # input tree untouched

    def test_edge_index_out_of_range(self):
        tree = Tree.star(self.aln.names[:3])
        with pytest.raises(IndexError):
            self.score(tree.newick(), self.aln.names[3], 99)

    def test_apply_placement_matches_evaluation(self):
        tree = Tree.star(self.aln.names[:3])
        taxon = self.aln.names[3]
        score = self.score(tree.newick(), taxon, 1)
        apply_placement(tree, taxon, score)
        sub = self.aln.subset(tree.leaf_names())
        ll = TreeLikelihood(tree, sub, self.model).log_likelihood()
        assert ll == pytest.approx(score.log_likelihood, rel=1e-9)

    def test_cost_recorded(self):
        tree = Tree.star(self.aln.names[:3])
        score = self.score(tree.newick(), self.aln.names[3], 0)
        assert score.cost > 0


class TestStepwiseSearch:
    def test_candidate_counts_follow_2i_minus_5(self):
        true = random_yule_tree(7, seed=41, mean_branch=0.1)
        aln = simulate_alignment(true, JC69(), 200, seed=42)
        result = StepwiseSearch(aln, JC69()).run()
        assert [s.n_candidates for s in result.stages] == [3, 5, 7, 9]
        assert result.total_evaluations == 24

    def test_recovers_easy_topology(self):
        true = random_yule_tree(7, seed=51, mean_branch=0.15)
        aln = simulate_alignment(true, JC69(), 1500, seed=52)
        result = StepwiseSearch(aln, JC69()).run()
        assert sorted(result.tree.leaf_names()) == sorted(aln.names)
        assert rf_distance(true, result.tree) <= 2

    def test_loglik_beats_random_tree(self):
        true = random_yule_tree(6, seed=61, mean_branch=0.12)
        aln = simulate_alignment(true, JC69(), 400, seed=62)
        result = StepwiseSearch(aln, JC69()).run()
        random_tree = random_yule_tree(6, seed=99)
        for node, name in zip(random_tree.leaves(), aln.names):
            node.name = name
        from repro.bio.phylo.optimize import optimize_all_branches

        tl = TreeLikelihood(random_tree, aln, JC69())
        random_ll = optimize_all_branches(tl, passes=2)
        assert result.log_likelihood >= random_ll - 1e-6

    def test_respects_addition_order(self):
        true = random_yule_tree(5, seed=71)
        aln = simulate_alignment(true, JC69(), 150, seed=72)
        order = list(reversed(aln.names))
        result = StepwiseSearch(aln, JC69(), addition_order=order).run()
        assert result.addition_order == order
        assert [s.taxon for s in result.stages] == order[3:]

    def test_bad_order_rejected(self):
        true = random_yule_tree(5, seed=71)
        aln = simulate_alignment(true, JC69(), 100, seed=72)
        with pytest.raises(ValueError, match="permutation"):
            StepwiseSearch(aln, JC69(), addition_order=aln.names[:-1])

    def test_too_few_taxa_rejected(self):
        aln = SiteAlignment.from_sequences([dna("a", "ACGT"), dna("b", "ACGT")])
        with pytest.raises(ValueError, match="three"):
            StepwiseSearch(aln, JC69())
