"""DNA substitution models.

Every model is a time-reversible continuous-time Markov chain on
{A, C, G, T} defined by symmetric exchangeabilities ``R`` and stationary
frequencies ``π``: ``Q[i,j] = R[i,j]·π[j]`` for ``i≠j``, diagonal set so
rows sum to zero, and the whole matrix scaled so the expected
substitution rate at stationarity is 1 — branch lengths are then in
expected substitutions per site, the standard unit.

Transition matrices ``P(t) = exp(Qt)`` come from the symmetrised
eigendecomposition (exact for reversible models, no Padé iteration):
with ``D = diag(√π)``, ``B = D·Q·D⁻¹`` is symmetric, so
``P(t) = D⁻¹·U·exp(Λt)·Uᵀ·D``.

Rate heterogeneity across sites uses Yang's (1994) discrete Gamma:
``K`` equal-probability categories, each represented by its mean rate,
with overall mean exactly 1.
"""

from __future__ import annotations

import math
import sys

import numpy as np

#: Nucleotide order everywhere: A, C, G, T (matches the DNA alphabet).
N_STATES = 4

_PURINES = (0, 2)  # A, G
_PYRIMIDINES = (1, 3)  # C, T


def _validate_freqs(freqs: np.ndarray) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.shape != (N_STATES,):
        raise ValueError(f"need {N_STATES} frequencies, got shape {freqs.shape}")
    if (freqs <= 0).any():
        raise ValueError("all base frequencies must be positive")
    if not np.isclose(freqs.sum(), 1.0):
        raise ValueError(f"frequencies must sum to 1, got {freqs.sum()}")
    return freqs / freqs.sum()


class SubstitutionModel:
    """A reversible DNA model built from exchangeabilities and π."""

    def __init__(self, name: str, exchangeabilities: np.ndarray, freqs: np.ndarray):
        R = np.asarray(exchangeabilities, dtype=np.float64)
        if R.shape != (N_STATES, N_STATES):
            raise ValueError(f"exchangeability matrix must be 4x4, got {R.shape}")
        if not np.allclose(R, R.T):
            raise ValueError("exchangeabilities must be symmetric")
        if (R[~np.eye(N_STATES, dtype=bool)] <= 0).any():
            raise ValueError("off-diagonal exchangeabilities must be positive")
        self.name = name
        self.freqs = _validate_freqs(freqs)
        self.R = R

        Q = R * self.freqs[None, :]
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        # Normalise: expected rate  −Σ πᵢ Qᵢᵢ  = 1.
        mu = -float(np.dot(self.freqs, np.diag(Q)))
        if mu <= 0:
            raise ValueError("degenerate rate matrix")
        self.Q = Q / mu

        sqrt_pi = np.sqrt(self.freqs)
        B = (sqrt_pi[:, None] * self.Q) / sqrt_pi[None, :]
        eigvals, eigvecs = np.linalg.eigh((B + B.T) / 2.0)
        self._eigvals = eigvals
        self._left = eigvecs.T * sqrt_pi[None, :]          # Uᵀ·D
        self._right = (1.0 / sqrt_pi)[:, None] * eigvecs   # D⁻¹·U

    def transition_matrix(self, t: float, rate: float = 1.0) -> np.ndarray:
        """``P(rate·t)`` for one branch length (rows sum to 1)."""
        if t < 0:
            raise ValueError(f"negative branch length {t}")
        exp_diag = np.exp(self._eigvals * (t * rate))
        P = (self._right * exp_diag[None, :]) @ self._left
        # Clip tiny negative round-off so downstream probabilities stay valid.
        np.clip(P, 0.0, None, out=P)
        return P / P.sum(axis=1, keepdims=True)

    def transition_matrices(
        self, t: float, rates: np.ndarray
    ) -> np.ndarray:
        """Stack of ``P(rate_k · t)`` over rate categories: (K, 4, 4)."""
        return np.stack([self.transition_matrix(t, float(r)) for r in rates])

    def __repr__(self) -> str:  # pragma: no cover
        return f"SubstitutionModel({self.name!r})"


# ---------------------------------------------------------------------------
# The model family (in increasing generality)
# ---------------------------------------------------------------------------

_UNIFORM = np.full(N_STATES, 0.25)


def _kappa_exchange(kappa: float) -> np.ndarray:
    """Transitions (A<->G, C<->T) kappa times faster than transversions."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    R = np.ones((N_STATES, N_STATES))
    R[0, 2] = R[2, 0] = kappa
    R[1, 3] = R[3, 1] = kappa
    np.fill_diagonal(R, 0.0)
    return R


def JC69() -> SubstitutionModel:
    """Jukes-Cantor 1969: equal rates, equal frequencies."""
    return SubstitutionModel("JC69", _kappa_exchange(1.0), _UNIFORM)


def K80(kappa: float = 2.0) -> SubstitutionModel:
    """Kimura 1980: transition/transversion ratio, equal frequencies."""
    return SubstitutionModel(f"K80(k={kappa:g})", _kappa_exchange(kappa), _UNIFORM)


def F81(freqs) -> SubstitutionModel:
    """Felsenstein 1981: unequal frequencies, equal exchangeabilities."""
    return SubstitutionModel("F81", _kappa_exchange(1.0), freqs)


def HKY85(kappa: float, freqs) -> SubstitutionModel:
    """Hasegawa-Kishino-Yano 1985: kappa + unequal frequencies."""
    return SubstitutionModel(
        f"HKY85(k={kappa:g})", _kappa_exchange(kappa), freqs
    )


def F84(kappa: float, freqs) -> SubstitutionModel:
    """Felsenstein 1984 (as in PHYLIP/PAL): transition bias split by
    purine/pyrimidine frequencies."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    freqs = _validate_freqs(np.asarray(freqs, dtype=np.float64))
    pi_r = freqs[list(_PURINES)].sum()
    pi_y = freqs[list(_PYRIMIDINES)].sum()
    R = np.ones((N_STATES, N_STATES))
    R[0, 2] = R[2, 0] = 1.0 + kappa / pi_r
    R[1, 3] = R[3, 1] = 1.0 + kappa / pi_y
    np.fill_diagonal(R, 0.0)
    return SubstitutionModel(f"F84(k={kappa:g})", R, freqs)


def TN93(kappa_r: float, kappa_y: float, freqs) -> SubstitutionModel:
    """Tamura-Nei 1993: separate purine and pyrimidine transition rates."""
    if kappa_r <= 0 or kappa_y <= 0:
        raise ValueError("kappas must be positive")
    R = np.ones((N_STATES, N_STATES))
    R[0, 2] = R[2, 0] = kappa_r
    R[1, 3] = R[3, 1] = kappa_y
    np.fill_diagonal(R, 0.0)
    return SubstitutionModel(f"TN93({kappa_r:g},{kappa_y:g})", R, freqs)


def GTR(rates, freqs) -> SubstitutionModel:
    """General time-reversible: six exchangeabilities
    (AC, AG, AT, CG, CT, GT order) + frequencies."""
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (6,):
        raise ValueError("GTR needs exactly six exchangeabilities")
    if (rates <= 0).any():
        raise ValueError("GTR exchangeabilities must be positive")
    ac, ag, at, cg, ct, gt = rates
    R = np.array(
        [
            [0.0, ac, ag, at],
            [ac, 0.0, cg, ct],
            [ag, cg, 0.0, gt],
            [at, ct, gt, 0.0],
        ]
    )
    return SubstitutionModel("GTR", R, freqs)


def model_by_name(name: str, **params) -> SubstitutionModel:
    """Configuration-file model lookup (DPRml's ``model =`` key).

    Recognised names: jc69, k80, f81, f84, hky85, tn93, gtr.  Parameters
    not supplied fall back to neutral defaults (kappa=2, uniform π,
    unit GTR rates).
    """
    key = name.lower()
    freqs = params.get("freqs", _UNIFORM)
    kappa = params.get("kappa", 2.0)
    if key == "jc69":
        return JC69()
    if key == "k80":
        return K80(kappa)
    if key == "f81":
        return F81(freqs)
    if key == "f84":
        return F84(kappa, freqs)
    if key == "hky85":
        return HKY85(kappa, freqs)
    if key == "tn93":
        return TN93(params.get("kappa_r", kappa), params.get("kappa_y", kappa), freqs)
    if key == "gtr":
        return GTR(params.get("rates", np.ones(6)), freqs)
    raise ValueError(f"unknown substitution model {name!r}")


# ---------------------------------------------------------------------------
# The incomplete gamma function and its inverse (for the discrete Gamma)
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
#: Newton stops once a step moves the quantile by less than this
#: (relative); convergence is quadratic, so the returned point is then
#: as accurate as P(a, x) itself.
_NEWTON_RTOL = 1e-12
_NEWTON_MAX_STEPS = 100


def _log1pmx(d: float) -> float:
    """``log(1 + d) - d`` for ``|d| <= 0.5`` without cancellation.

    ``log(1 + d) = 2·atanh(y)`` with ``y = d / (2 + d)``, and
    ``2y - d = -d·y``; the rest is the atanh series in ``y² <= 1/9``.
    """
    y = d / (2.0 + d)
    y2 = y * y
    power, total, k = y, 0.0, 3.0
    while True:
        power *= y2
        term = power / k
        total += term
        if abs(term) <= _EPS * abs(total):
            return 2.0 * total - d * y
        k += 2.0


def _stirling_error(a: float) -> float:
    """``lgamma(a+1) - (a+½)·log(a) + a - ½·log(2π)`` for ``a >= 10``:
    the Stirling series, truncated below 3e-17."""
    r = 1.0 / a
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (
        1 / 1680 - r2 * (1 / 1188 - r2 * (691 / 360360 - r2 / 156))))))


def _gamma_prefix(a: float, x: float) -> float:
    """``x^a · e^-x / Γ(a+1)`` for ``x > 0``.

    Near the mode of a large shape the direct exponent is a difference
    of terms in the hundreds, which would cost ~1e-13 of relative
    accuracy; there Stirling's form leaves only small terms.
    """
    d = (x - a) / a
    if a < 10.0 or abs(d) > 0.5:
        return math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
    return math.exp(a * _log1pmx(d) - _stirling_error(a)) / math.sqrt(
        2.0 * math.pi * a
    )


def regularized_gamma_p(a: float, x: float) -> float:
    """The regularised lower incomplete gamma ``P(a, x)``: the CDF of
    the standard Gamma(a) distribution at *x*.

    The power series for ``x < a + 1``, else ``1 - Q(a, x)`` with ``Q``
    from its continued fraction evaluated by the modified Lentz method
    (Numerical Recipes §6.2).
    """
    if a <= 0.0 or math.isnan(x):
        raise ValueError(f"P(a, x) needs a > 0 and a number x, got a={a}, x={x}")
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    prefix = _gamma_prefix(a, x)
    if x < a + 1.0:
        # P = prefix · Σ_n x^n / ((a+1)···(a+n))
        term = total = 1.0
        ap = a
        while term > _EPS * total:
            ap += 1.0
            term *= x / ap
            total += term
        return prefix * total
    # Q = prefix · a / (x+1-a - 1·(1-a) / (x+3-a - 2·(2-a) / ...))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return 1.0 - prefix * a * h


def gamma_quantile(p: float, a: float) -> float:
    """The *p*-quantile of the standard Gamma(a) distribution: the
    ``x`` with ``P(a, x) = p``.

    Newton's method on ``P(a, x) - p``, whose derivative is the density
    ``a · prefix / x``.  Every evaluation narrows a bracket around the
    root; a step that leaves it (or a density that underflowed) is
    replaced by bisection, or by doubling while no upper bound is known.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    # P(a, x) <= x^a / Γ(a+1), so for a < 1 this start lies at or below
    # the root, where the concave CDF makes Newton climb monotonically.
    x = a if a >= 1.0 else (p * math.gamma(a + 1.0)) ** (1.0 / a)
    if x == 0.0:
        return 0.0  # the quantile is below the smallest float
    lo, hi = 0.0, math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        f = regularized_gamma_p(a, x) - p
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        density = a * _gamma_prefix(a, x) / x
        step = f / density if density > 0.0 else math.nan
        if abs(step) <= _NEWTON_RTOL * x:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    return x


class GammaRates:
    """Discrete-Gamma site-rate heterogeneity (Yang 1994).

    ``K`` equal-probability categories; category *k*'s rate is the mean
    of the Gamma(α, 1/α) distribution over its quantile slice, so the
    rates average exactly 1.
    """

    def __init__(self, alpha: float, categories: int = 4):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if categories < 1:
            raise ValueError("need at least one category")
        self.alpha = alpha
        self.categories = categories
        if categories == 1:
            self.rates = np.ones(1)
        else:
            k = categories
            # Category cuts of Gamma(α, scale 1/α), times α.
            cuts = [gamma_quantile(i / k, alpha) for i in range(1, k)]
            # E[X · 1{X<q}] for Gamma(a, scale s) is a·s·P(a+1, q/s);
            # here a·s = 1.
            cdf = [0.0] + [regularized_gamma_p(alpha + 1.0, c) for c in cuts] + [1.0]
            self.rates = np.diff(cdf) * k
        self.weights = np.full(self.categories, 1.0 / self.categories)

    @classmethod
    def uniform(cls) -> "GammaRates":
        """The no-heterogeneity special case (one category, rate 1)."""
        rates = cls.__new__(cls)
        rates.alpha = np.inf
        rates.categories = 1
        rates.rates = np.ones(1)
        rates.weights = np.ones(1)
        return rates

    def __repr__(self) -> str:  # pragma: no cover
        return f"GammaRates(alpha={self.alpha}, K={self.categories})"
