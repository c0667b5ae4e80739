"""Maximum-likelihood estimation of model parameters.

DPRml's selling point is its range of substitution models; a model is
only useful if its free parameters (transition/transversion ratio κ,
Gamma shape α, base frequencies) can be fitted.  Frequencies are
estimated empirically from the alignment (the standard "+F" approach);
κ and α are optimised numerically on a fixed tree by Brent search,
optionally alternating with branch-length optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.phylo.alignment import SiteAlignment
from repro.bio.phylo.likelihood import TreeLikelihood
from repro.bio.phylo.models import GammaRates, HKY85, N_STATES, SubstitutionModel
from repro.bio.phylo.optimize import bounded_minimize, optimize_all_branches
from repro.bio.phylo.tree import Tree


def empirical_frequencies(alignment: SiteAlignment, pseudocount: float = 1.0) -> np.ndarray:
    """Observed base frequencies with a Laplace pseudocount (so no base
    ever gets frequency zero, which would break reversible models)."""
    if pseudocount <= 0:
        raise ValueError("pseudocount must be positive")
    counts = np.full(N_STATES, pseudocount)
    for row in alignment.patterns:
        known = row < N_STATES
        counts += np.bincount(row[known], weights=alignment.weights[known], minlength=N_STATES)[:N_STATES]
    return counts / counts.sum()


@dataclass(frozen=True, slots=True)
class FittedModel:
    """Result of :func:`fit_hky_gamma`."""

    model: SubstitutionModel
    rates: GammaRates
    kappa: float
    alpha: float | None
    log_likelihood: float


def fit_kappa(
    tree: Tree,
    alignment: SiteAlignment,
    freqs: np.ndarray,
    rates: GammaRates | None = None,
    bounds: tuple[float, float] = (0.05, 100.0),
) -> tuple[float, float]:
    """ML estimate of HKY85's κ on a fixed tree.

    Returns ``(kappa, log_likelihood)``.
    """

    def negative_loglik(log_kappa: float) -> float:
        model = HKY85(float(np.exp(log_kappa)), freqs)
        return -TreeLikelihood(tree, alignment, model, rates).log_likelihood()

    x, fx, _nfev = bounded_minimize(
        negative_loglik, np.log(bounds[0]), np.log(bounds[1]), xatol=1e-4
    )
    return float(np.exp(x)), -float(fx)


def fit_alpha(
    tree: Tree,
    alignment: SiteAlignment,
    model: SubstitutionModel,
    categories: int = 4,
    bounds: tuple[float, float] = (0.05, 50.0),
) -> tuple[float, float]:
    """ML estimate of the discrete-Gamma shape α on a fixed tree.

    Returns ``(alpha, log_likelihood)``.
    """

    def negative_loglik(log_alpha: float) -> float:
        rates = GammaRates(float(np.exp(log_alpha)), categories)
        return -TreeLikelihood(tree, alignment, model, rates).log_likelihood()

    x, fx, _nfev = bounded_minimize(
        negative_loglik, np.log(bounds[0]), np.log(bounds[1]), xatol=1e-4
    )
    return float(np.exp(x)), -float(fx)


def fit_hky_gamma(
    tree: Tree,
    alignment: SiteAlignment,
    gamma_categories: int = 0,
    rounds: int = 2,
) -> FittedModel:
    """Joint fit of κ (+ α when ``gamma_categories > 0``) and branch
    lengths on a fixed topology, by coordinate ascent.

    Each round: optimise branch lengths under the current parameters,
    then re-fit κ (then α).  Two rounds suffice in practice — the
    parameters are only weakly coupled to the lengths.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    sub = alignment.subset(tree.leaf_names())
    freqs = empirical_frequencies(sub)
    kappa = 2.0
    alpha: float | None = None
    rates = GammaRates.uniform()
    loglik = float("-inf")
    work_tree = tree.copy()
    for _ in range(rounds):
        model = HKY85(kappa, freqs)
        tl = TreeLikelihood(work_tree, sub, model, rates)
        loglik = optimize_all_branches(tl, passes=1)
        kappa, loglik = fit_kappa(work_tree, sub, freqs, rates)
        if gamma_categories > 0:
            alpha, loglik = fit_alpha(
                work_tree, sub, HKY85(kappa, freqs), categories=gamma_categories
            )
            rates = GammaRates(alpha, gamma_categories)
    return FittedModel(
        model=HKY85(kappa, freqs),
        rates=rates,
        kappa=kappa,
        alpha=alpha,
        log_likelihood=loglik,
    )
