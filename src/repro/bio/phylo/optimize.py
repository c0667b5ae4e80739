"""Branch-length optimisation.

One-dimensional bounded Brent search on each branch.
``optimize_branch`` re-prunes on every probe, exploiting the likelihood
cache: changing one branch only invalidates the path to the root, so
the objective re-evaluates in O(depth) node updates.
``optimize_all_branches`` is the standard coordinate-ascent scheme of
fastDNAml and PAL, done edge-locally: each pass is one depth-first
traversal that scores every probe of a branch from the partials above
and below it, with no tree walk (DESIGN §13, "branch sweep").
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.bio.phylo.likelihood import TreeLikelihood, up_partial
from repro.bio.phylo.models import N_STATES
from repro.bio.phylo.tree import Node

#: Bounds keep the optimiser away from exact zero (singular) and from
#: saturation where the likelihood surface is flat.
MIN_BRANCH = 1e-8
MAX_BRANCH = 20.0

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(v: float) -> float:
    """``np.sign(v) + (v == 0)``: +1 for zero, so a step is never null."""
    return -1.0 if v < 0.0 else 1.0


def bounded_minimize(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    xatol: float = 1e-5,
    maxiter: int = 500,
) -> tuple[float, float, int]:
    """Minimise *func* on ``[lo, hi]``; returns ``(x, fx, nfev)``.

    Brent's bounded method (Forsythe, Malcolm & Moler's ``fminbound``):
    golden-section steps, parabolic interpolation once three points
    allow it.  This is an operation-for-operation port of SciPy's
    ``scipy.optimize._optimize._minimize_scalar_bounded`` (BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers),
    so every probe, the returned point and the evaluation count equal
    ``minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol, "maxiter": maxiter})`` bit for bit.  As in
    SciPy, *maxiter* caps function evaluations, checked after each step.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = lo, hi
    # xf: best point so far; nfc: second best; fulc: the one before.
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = func(xf)
    nfev = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Fit a parabola through the three points.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        nfev += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= maxiter:
            break
    return xf, fx, nfev


def optimize_branch(
    tl: TreeLikelihood,
    node: Node,
    tol: float = 1e-6,
    max_iter: int = 40,
) -> float:
    """Optimise one branch length in place; returns the new log-likelihood."""
    if node.parent is None:
        raise ValueError("the root has no branch to optimise")

    def negative_loglik(length: float) -> float:
        tl.set_branch_length(node, float(length))
        return -tl.log_likelihood()

    x, _fx, _nfev = bounded_minimize(
        negative_loglik, MIN_BRANCH, MAX_BRANCH, xatol=tol, maxiter=max_iter
    )
    # Leave the tree at the optimum (the last probe may not be it).
    tl.set_branch_length(node, float(x))
    return tl.log_likelihood()


def optimize_all_branches(
    tl: TreeLikelihood,
    passes: int = 2,
    tol: float = 1e-6,
    min_improvement: float = 1e-4,
) -> float:
    """Coordinate-ascent over every branch; returns the final
    log-likelihood.  Stops early when a full pass improves by less than
    *min_improvement* log units.

    Each pass is :func:`_sweep_branches`; its log-likelihood is then
    *tl*'s own pruning value, so the early stop compares true values
    and *tl* is consistent with the tree on return.
    """
    loglik = tl.log_likelihood()
    for _ in range(passes):
        before = loglik
        _sweep_branches(tl, tol)
        loglik = tl.log_likelihood()
        if loglik - before < min_improvement:
            break
    return loglik


def _sweep_branches(tl: TreeLikelihood, tol: float) -> None:
    """One pass over every branch, depth-first from the root.

    At each edge ``n → p`` the up partial ``U_n`` is built from *p*'s
    above-message (π at the root) and the siblings' down-messages
    ``P(t_s)·D_s``, then ``t_n`` is Brent-optimised on the edge-local
    site likelihood ``Σ_s U_n[s]·[P(t)·D_n][s]`` plus the constant
    ``scale(U_n) + scale(D_n)`` — exact for the whole tree, since the
    rest of it is fixed while ``t_n`` moves.  The sweep then descends
    into *n* with ``P(t_n)ᵀ·U_n`` and on return rebuilds ``D_n`` (one
    :class:`TreeLikelihood` node update) from its children's new
    lengths.  So every edge costs at most two node updates however
    deep it lies, and only the root's partial is stale afterwards.
    *tl* must be evaluated (every partial current) on entry.
    """
    model, rates, weights = tl.model, tl.rates, tl.alignment.weights
    down, down_scale = tl._partials, tl._scale_logs

    def message(node: Node, t: float) -> np.ndarray:
        """``P(t)·D_node`` per category: (K, npat, 4)."""
        P = model.transition_matrices(t, rates.rates)
        return np.matmul(down[node], P.transpose(0, 2, 1))

    def visit(node: Node, above: np.ndarray, above_scale: np.ndarray) -> None:
        for child in node.children:
            up, up_scale = up_partial(
                above,
                above_scale,
                (
                    (message(sibling, sibling.branch_length), down_scale[sibling])
                    for sibling in node.children
                    if sibling is not child
                ),
            )
            const = float(weights @ (up_scale + down_scale[child]))

            def negative_loglik(t: float) -> float:
                site_lik = np.einsum("kps,kps->kp", up, message(child, t))
                mixed = rates.weights @ site_lik
                if (mixed <= 0).any():
                    return math.inf
                return -(float(weights @ np.log(mixed)) + const)

            x, _fx, _nfev = bounded_minimize(
                negative_loglik, MIN_BRANCH, MAX_BRANCH, xatol=tol, maxiter=40
            )
            child.branch_length = float(x)
            if not child.is_leaf:
                P = model.transition_matrices(child.branch_length, rates.rates)
                visit(child, np.matmul(up, P), up_scale)
                tl._update(child)

    root = tl.tree.root
    npat = tl.alignment.n_patterns
    visit(
        root,
        np.broadcast_to(model.freqs, (rates.categories, npat, N_STATES)),
        np.zeros(npat),
    )
    tl.invalidate(root)
