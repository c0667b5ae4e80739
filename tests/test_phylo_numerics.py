"""The pure-Python numerics behind DPRml against SciPy as the oracle.

``bounded_minimize`` must equal ``minimize_scalar(method="bounded")``
bit for bit — every probe, the argmin, its value and the evaluation
count — so DPRml's branch lengths and digests do not depend on which
one ran.  The discrete-Gamma rates and their quantile cuts must agree
with SciPy's ``gamma.ppf``/``gammainc`` formula to 1e-12 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
from scipy.optimize import minimize_scalar  # noqa: E402
from scipy.special import gammainc  # noqa: E402
from scipy.stats import gamma as gamma_dist  # noqa: E402

from repro.bio.phylo.models import (  # noqa: E402
    GammaRates,
    gamma_quantile,
    regularized_gamma_p,
)
from repro.bio.phylo.optimize import bounded_minimize  # noqa: E402


# ---------------------------------------------------------------------------
# bounded Brent
# ---------------------------------------------------------------------------

#: Objectives ``(c, s) -> f``: smooth unimodal, kinked, multimodal,
#: flat-topped (ties between probes), and one that is infinite on part
#: of the interval (NaN parabolas).
OBJECTIVES = {
    "quadratic": lambda c, s: lambda x: s * (x - c) ** 2,
    "abs": lambda c, s: lambda x: s * abs(x - c),
    "multimodal": lambda c, s: lambda x: math.sin(s * x) + 0.1 * (x - c) ** 2,
    "plateau": lambda c, s: lambda x: float(round(s * (x - c) ** 2)),
    "wall": lambda c, s: lambda x: math.inf if x < c else s * (x - c - 1.0) ** 2,
    "loglik_like": lambda c, s: lambda x: s * x - math.log(x - c) if x > c else math.inf,
}


def _trace(kind, c, s):
    probes = []
    inner = OBJECTIVES[kind](c, s)

    def f(x):
        probes.append(float(x).hex())
        return inner(float(x))

    return f, probes


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(OBJECTIVES)),
    lo=st.floats(-50.0, 50.0),
    width=st.one_of(st.just(0.0), st.floats(1e-9, 100.0)),
    c_frac=st.floats(-0.5, 1.5),
    s=st.floats(0.1, 30.0),
    log_xatol=st.floats(-12.0, 0.0),
    maxiter=st.one_of(st.integers(1, 60), st.just(500)),
)
def test_bounded_minimize_equals_scipy(kind, lo, width, c_frac, s, log_xatol, maxiter):
    hi = lo + width
    c = lo + c_frac * width
    xatol = 10.0 ** log_xatol
    ours_f, ours_probes = _trace(kind, c, s)
    ref_f, ref_probes = _trace(kind, c, s)

    x, fx, nfev = bounded_minimize(ours_f, lo, hi, xatol=xatol, maxiter=maxiter)
    with np.errstate(all="ignore"):
        ref = minimize_scalar(
            ref_f,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": xatol, "maxiter": maxiter},
        )

    assert ours_probes == ref_probes
    assert float(x).hex() == float(ref.x).hex()
    assert float(fx).hex() == float(ref.fun).hex()
    assert nfev == ref.nfev


@pytest.mark.parametrize(
    "lo, hi, match",
    [(0.0, math.inf, "finite"), (math.nan, 1.0, "finite"), (2.0, 1.0, "exceeds")],
)
def test_bounded_minimize_rejects_bounds_like_scipy(lo, hi, match):
    with pytest.raises(ValueError, match=match):
        bounded_minimize(lambda x: x * x, lo, hi)
    with pytest.raises(ValueError, match=match):
        minimize_scalar(lambda x: x * x, bounds=(lo, hi), method="bounded")


# ---------------------------------------------------------------------------
# discrete Gamma
# ---------------------------------------------------------------------------


def scipy_rates(alpha: float, k: int) -> np.ndarray:
    """The SciPy formula GammaRates used before it went numpy-only."""
    cuts = gamma_dist.ppf(np.arange(1, k) / k, alpha, scale=1.0 / alpha)
    bounds = np.concatenate(([0.0], cuts, [np.inf]))
    upper = gammainc(alpha + 1, bounds[1:] * alpha)
    lower = gammainc(alpha + 1, bounds[:-1] * alpha)
    return (upper - lower) * k


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 100.0), k=st.integers(1, 16))
def test_gamma_rates_match_scipy(alpha, k):
    np.testing.assert_allclose(
        GammaRates(alpha, k).rates, scipy_rates(alpha, k), rtol=1e-12, atol=0
    )


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 100.0), k=st.integers(2, 16))
def test_gamma_quantiles_match_scipy(alpha, k):
    levels = np.arange(1, k) / k
    ours = [gamma_quantile(float(p), alpha) for p in levels]
    np.testing.assert_allclose(
        ours, gamma_dist.ppf(levels, alpha), rtol=1e-12, atol=0
    )


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.05, 101.0), log_ratio=st.floats(-3.0, 1.5))
def test_regularized_gamma_p_matches_scipy(a, log_ratio):
    x = a * math.exp(log_ratio)
    ref = float(gammainc(a, x))
    assert regularized_gamma_p(a, x) == pytest.approx(ref, rel=1e-12, abs=1e-300)
