"""Proper normal-regression imputation of one incomplete variable.

The model: an incomplete outcome y regressed on one fully observed
auxiliary x.  Each imputation first draws the regression parameters from
their posterior given the complete cases (so between-imputation variance
reflects parameter uncertainty), then fills each missing y with a draw
from the predictive distribution at its x.

``fit_and_draw``, ``impute_once``, ``impute_m`` and ``analyze_mean`` are
the reference path: they build every completed dataset.  The engine
draws what ``analyze_mean`` would return for m imputations from the same
distribution, using four variates per imputation: ``draw_mean_variates``
draws the variates and ``mean_analyses`` turns them into analyses, for
one pooling or a block of them.  Both paths read one complete-case fit,
made once per dataset: ``IncompleteBivariate.mean_stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .pooling import ImputationResult


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IncompleteBivariate:
    """An incomplete outcome with one fully observed auxiliary.

    ``y`` uses NaN for missing entries (None in input sequences is
    accepted and converted).  At least 4 complete cases are required so
    the residual-variance posterior has at least 2 degrees of freedom.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        # float conversion turns None entries into NaN
        x = _as_readonly(self.x)
        y = _as_readonly(self.y)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValueError("invalid input: x and y must be 1-d sequences of equal length")
        if not np.all(np.isfinite(x)):
            raise ValueError("invalid input: auxiliary x must be fully observed and finite")
        obs = ~np.isnan(y)
        if not np.all(np.isfinite(y[obs])):
            raise ValueError("invalid input: observed y values must be finite")
        if int(obs.sum()) < 4:
            raise ValueError(
                f"insufficient complete cases: need at least 4, got {int(obs.sum())}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.y)

    @property
    def n_obs(self) -> int:
        return int((~np.isnan(self.y)).sum())

    @cached_property
    def mean_stats(self) -> "MeanStats":
        """The complete-case fit and the sums over the missing rows, computed
        on first use (the arrays are read-only, so they stay valid).  Raises
        on a singular design: x constant among the complete cases."""
        mask = self.missing_mask
        xo, yo, xm = self.x[~mask], self.y[~mask], self.x[mask]
        x_mean, y_mean = float(np.mean(xo)), float(np.mean(yo))
        dx, dy = xo - x_mean, yo - y_mean
        sxx = float(dx @ dx)
        if sxx <= 0.0:
            raise ValueError("singular design: auxiliary x is constant among complete cases")
        sxy, syy = float(dx @ dy), float(dy @ dy)
        slope = sxy / sxx
        k = xm.shape[0]
        x_mis_mean = float(np.mean(xm)) if k else x_mean
        d = xm - x_mis_mean
        return MeanStats(
            n=self.n, n_obs=xo.shape[0], k=k, x_mean=x_mean, y_mean=y_mean,
            sxx=sxx, syy=syy, slope=slope, rss=max(syy - slope * sxy, 0.0),
            shift=x_mis_mean - x_mean, sdd=float(d @ d),
        )


class MeanStats(NamedTuple):
    """The one complete-case fit, read by ``fit_and_draw`` and ``mean_analyses``,
    and what ``analyze_mean ∘ impute_m`` depends on in the data.

    Over the n_obs complete cases: the means of x and y, the centered sums
    of squares Sxx and Syy, and the least-squares slope and RSS of y on x.
    Over the k missing rows: shift = mean(x_mis) - mean(x_obs) and
    Sdd = sum(d_i^2) with d_i = x_i - mean(x_mis).
    """

    n: int
    n_obs: int
    k: int
    x_mean: float
    y_mean: float
    sxx: float
    syy: float
    slope: float
    rss: float
    shift: float
    sdd: float


@dataclass(frozen=True)
class PosteriorDraw:
    """One draw of the imputation-model parameters."""

    beta0: float
    beta1: float
    sigma: float


@dataclass(frozen=True)
class CompletedDataset:
    """A completed copy of the data; imputed_mask marks the filled entries."""

    x: np.ndarray
    y: np.ndarray
    imputed_mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", _as_readonly(self.y))
        mask = np.array(self.imputed_mask, dtype=bool, copy=True)
        mask.setflags(write=False)
        object.__setattr__(self, "imputed_mask", mask)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def fit_and_draw(data: IncompleteBivariate, rng: np.random.Generator) -> PosteriorDraw:
    """Draw regression parameters from their posterior given complete cases.

    The residual variance is drawn as (n_obs - 2) * s^2 / chi2(n_obs - 2)
    where s^2 is the least-squares residual variance; the coefficients are
    drawn from a bivariate normal centered at the least-squares fit with
    covariance sigma^2 * (X'X)^-1.  Consumes exactly one chi-square and
    two normal variates from ``rng``.  The fit is ``data.mean_stats``.
    """
    s = data.mean_stats
    s2 = s.rss / (s.n_obs - 2)
    chi2 = rng.chisquare(s.n_obs - 2)
    sigma = math.sqrt((s.n_obs - 2) * s2 / chi2)
    z0, z1 = rng.standard_normal(2)
    beta1 = s.slope + sigma * float(z1) / math.sqrt(s.sxx)
    beta0 = (s.y_mean + sigma * float(z0) / math.sqrt(s.n_obs)) - beta1 * s.x_mean
    return PosteriorDraw(beta0=beta0, beta1=beta1, sigma=sigma)


def impute_once(
    data: IncompleteBivariate,
    draw: PosteriorDraw,
    rng: np.random.Generator,
) -> CompletedDataset:
    """Fill the missing y values from the predictive distribution at ``draw``.

    Observed entries are copied bit-for-bit; each missing y_i becomes
    beta0 + beta1 * x_i + sigma * z_i with independent standard normal z_i.
    """
    mask = data.missing_mask
    y = np.array(data.y, copy=True)
    k = int(mask.sum())
    if k:
        z = rng.standard_normal(k)
        y[mask] = draw.beta0 + draw.beta1 * data.x[mask] + draw.sigma * z
    return CompletedDataset(x=data.x, y=y, imputed_mask=mask)


def impute_m(
    data: IncompleteBivariate,
    m: int,
    rng: np.random.Generator,
) -> list[CompletedDataset]:
    """m independent proper imputations: fresh parameter draw, then fill."""
    if m < 2:
        raise ValueError(f"insufficient imputations: need m >= 2, got {m}")
    return [impute_once(data, fit_and_draw(data, rng), rng) for _ in range(m)]


def analyze_mean(completed: CompletedDataset) -> ImputationResult:
    """Estimate the mean of y and its squared SE from one completed dataset."""
    n = completed.n
    if n < 2:
        raise ValueError(f"insufficient data: need n >= 2, got {n}")
    y = completed.y
    estimate = float(np.mean(y))
    within = float(np.var(y, ddof=1)) / n
    return ImputationResult(estimate=estimate, within_variance=within)


class MeanVariates(NamedTuple):
    """The variates of m imputations that ``mean_analyses`` turns into analyses.

    Per imputation: the chi-square of ``fit_and_draw``'s posterior draw
    (chi2), two correlated normals (u, v) that carry its two normals and
    the fill normals' sum and d-weighted sum, and the rest of the fill
    normals' sum of squares (rest).  Every field has the same shape, (m,)
    for one pooling.
    """

    chi2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    rest: np.ndarray


def draw_mean_variates(
    data: IncompleteBivariate,
    m: int,
    rng: np.random.Generator,
) -> MeanVariates:
    """The variates of m proper imputations; the engine's only use of ``rng``.

    Each imputation draws sigma^2 = RSS / chi2(n_obs - 2) and two normals
    z0, z1 for (beta0, beta1), as ``fit_and_draw`` does.  Its k fill normals
    z enter the completed mean and variance only through sum(z), sum(d z)
    and sum(z^2).  Since 1 and d are orthogonal, these are exactly
    sqrt(k) e0, sqrt(Sdd) e1 and e0^2 + e1^2 + chi2(k - 2) for independent
    standard normals e0, e1; for k = 1 they are e0, 0 and e0^2.  (When all
    missing x are equal, Sdd = 0 and sum(z^2) = e0^2 + chi2(k - 1), which
    e1^2 + chi2(k - 2) matches in distribution.)  The analysis then depends
    on z0, z1, e0 and e1 only through

        u = sqrt(k) shift z1 / sqrt(Sxx) + sqrt(k / n_obs) z0 + e0
        v = sqrt(Sdd) z1 / sqrt(Sxx) + e1

    (see ``mean_analyses``), a bivariate normal independent of sigma with
    Var(u) = 1 + k / n_obs + k shift^2 / Sxx, Cov(u, v) = sqrt(k Sdd) shift
    / Sxx and Var(v) = 1 + Sdd / Sxx.  So each imputation draws four
    variates: chi2(n_obs - 2), (u, v) from two standard normals through the
    Cholesky factor of that covariance, and rest = chi2(k - 2).  For k = 1,
    v and rest are 0 (there is no e1); for k = 2, rest is 0.  With no
    missing y every imputation is the observed data, so nothing is drawn
    and the variates are zeros.
    """
    if m < 2:
        raise ValueError(f"insufficient imputations: need m >= 2, got {m}")
    s = data.mean_stats
    if s.k == 0:
        return MeanVariates(*np.zeros((4, m)))
    chi2 = rng.chisquare(s.n_obs - 2, m)
    l11 = math.sqrt(1.0 + s.k / s.n_obs + s.k * s.shift * s.shift / s.sxx)
    if s.k == 1:
        u = rng.standard_normal(m)
        u *= l11
        return MeanVariates(chi2, u, np.zeros(m), np.zeros(m))
    # l22^2 = Var(v) - Cov(u, v)^2 / Var(u)
    #       = 1 + Sdd / Sxx (1 - k shift^2 / (Sxx Var(u))) >= 1,
    # since k shift^2 / Sxx < Var(u), so the root needs no clamp.
    l21 = math.sqrt(s.k * s.sdd) * s.shift / s.sxx / l11
    l22 = math.sqrt(1.0 + s.sdd / s.sxx - l21 * l21)
    u, v = rng.standard_normal((2, m))
    v *= l22
    v += l21 * u
    u *= l11
    rest = rng.chisquare(s.k - 2, m) if s.k >= 3 else np.zeros(m)
    return MeanVariates(chi2, u, v, rest)


def mean_analyses(s: MeanStats, chi2, u, v, rest):
    """``analyze_mean`` of completed data in closed form, from the variates
    ``draw_mean_variates`` draws.

    Centered at the observed mean of y, a filled y_i is
    a + beta1 d_i + sigma z_i, with sigma = sqrt(RSS / chi2),
    beta1 = slope + sigma z1 / sqrt(Sxx) and a = sigma z0 / sqrt(n_obs) +
    beta1 shift.  With G = sqrt(k) a + sigma e0 and H = sqrt(Sdd) beta1 +
    sigma e1, the completed data's sum is t1 = sqrt(k) G and its centered
    sum of squares is t2 - t1^2 / n = Syy + (1 - k / n) G^2 + H^2 +
    sigma^2 rest, a sum of terms that are not negative, so nothing
    cancels.  In the variates, G = sqrt(k) shift slope + sigma u and
    H = sqrt(Sdd) slope + sigma v.

    Elementwise, so it takes the variates of one pooling, shape (m,), or of
    a block of replications, shape (reps, m), and returns the estimates and
    within variances in that shape.
    """
    n = s.n
    if s.k == 0:
        shape = np.shape(chi2)
        return np.full(shape, s.y_mean), np.full(shape, s.syy / ((n - 1) * n))
    # The expression form below, evaluated with each temporary reused in
    # place: every product and sum is the same IEEE operation on the same
    # operands (addition and multiplication commute bit for bit), so the
    # bits are the same.
    #   sigma2 = rss / chi2,  sigma = sqrt(sigma2)
    #   g = sigma * u + sqrt(k) * shift * slope
    #   h = sigma * v + sqrt(Sdd) * slope
    #   estimate = y_mean + g * (sqrt(k) / n)
    #   within = (Syy + (1 - k / n) * (g * g) + h * h + sigma2 * rest) / ((n - 1) n)
    sigma2 = np.divide(s.rss, chi2)
    sigma = np.sqrt(sigma2)
    g = sigma * u
    g += math.sqrt(s.k) * s.shift * s.slope
    h = sigma  # sigma's buffer, which nothing reads after g
    h *= v
    h += math.sqrt(s.sdd) * s.slope
    sigma2 *= rest
    within = np.multiply(g, g)
    within *= 1.0 - s.k / n
    within += s.syy
    h *= h
    within += h
    within += sigma2
    within /= (n - 1) * n
    g *= math.sqrt(s.k) / n
    g += s.y_mean
    return g, within
