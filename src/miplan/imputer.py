"""Proper normal-regression imputation of one incomplete variable.

The model: an incomplete outcome y regressed on one fully observed
auxiliary x.  Each imputation first draws the regression parameters from
their posterior given the complete cases (so between-imputation variance
reflects parameter uncertainty), then fills each missing y with a draw
from the predictive distribution at its x.

``fit_and_draw``, ``impute_once``, ``impute_m`` and ``analyze_mean`` are
the reference path: they build every completed dataset.  The engine
draws what ``analyze_mean`` would return for m imputations from the same
distribution, using O(1) variates per imputation: ``draw_mean_variates``
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

    Per imputation: the chi-square and two normals of ``fit_and_draw``'s
    posterior draw (chi2, z0, z1), and the three sums of the k fill normals
    the completed mean and variance depend on (sum_z, sum_dz, sum_z2).
    Every field has the same shape, (m,) for one pooling.
    """

    chi2: np.ndarray
    z0: np.ndarray
    z1: np.ndarray
    sum_z: np.ndarray
    sum_dz: np.ndarray
    sum_z2: np.ndarray


def draw_mean_variates(
    data: IncompleteBivariate,
    m: int,
    rng: np.random.Generator,
) -> MeanVariates:
    """The variates of m proper imputations; the engine's only use of ``rng``.

    Each imputation draws (beta0, beta1, sigma) from one chi-square and two
    normals, as ``fit_and_draw`` does.  Its k fill normals z enter the
    completed mean and variance only through sum(z), sum(d z) and
    sum(z^2).  Since 1 and d are orthogonal, these are exactly
    sqrt(k) e0, sqrt(Sdd) e1 and e0^2 + e1^2 + chi2(k - 2) for independent
    standard normals e0, e1; for k = 1 they are e0, 0 and e0^2.  (When all
    missing x are equal, Sdd = 0 and sum(z^2) = e0^2 + chi2(k - 1), which
    e1^2 + chi2(k - 2) matches in distribution.)  With no missing y every
    imputation is the observed data, so nothing is drawn and the variates
    are zeros.
    """
    if m < 2:
        raise ValueError(f"insufficient imputations: need m >= 2, got {m}")
    s = data.mean_stats
    if s.k == 0:
        return MeanVariates(*np.zeros((6, m)))
    chi2 = rng.chisquare(s.n_obs - 2, m)
    z0, z1, e0, e1 = rng.standard_normal((4, m))
    sum_z2 = e0 * e0
    if s.k >= 2:
        sum_z2 += e1 * e1
    if s.k >= 3:
        sum_z2 += rng.chisquare(s.k - 2, m)
    e0 *= math.sqrt(s.k)
    e1 *= math.sqrt(s.sdd)
    return MeanVariates(chi2, z0, z1, e0, e1, sum_z2)


def mean_analyses(s: MeanStats, chi2, z0, z1, sum_z, sum_dz, sum_z2):
    """``analyze_mean`` of completed data in closed form, from the posterior
    variates of ``fit_and_draw`` and the three sums of the fill normals.

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
    #   sigma = sqrt(rss / chi2)
    #   beta1 = slope + sigma * z1 / sqrt(Sxx)
    # Centered at the observed mean of y (so the sums of squares below do
    # not cancel on data with a large mean), a filled y_i is
    # a + beta1 * d_i + sigma * z_i, with
    #   a = sigma * z0 / sqrt(n_obs) + beta1 * shift
    #   t1 = k * a + sigma * sum_z
    #   t2 = (Syy + k * a * a + beta1 * beta1 * Sdd + sigma * sigma * sum_z2
    #         + 2 * sigma * (a * sum_z + beta1 * sum_dz))
    #   estimate = y_mean + t1 / n,  within = (t2 - t1 * t1 / n) / ((n - 1) n)
    sigma = np.divide(s.rss, chi2)
    np.sqrt(sigma, out=sigma)
    beta1 = sigma * z1
    beta1 /= math.sqrt(s.sxx)
    beta1 += s.slope
    tmp = np.multiply(beta1, s.shift)
    a = sigma * z0
    a /= math.sqrt(s.n_obs)
    a += tmp
    t2 = s.k * a
    t1 = np.multiply(sigma, sum_z)
    t1 += t2
    t2 *= a
    t2 += s.syy
    np.multiply(beta1, beta1, out=tmp)
    tmp *= s.sdd
    t2 += tmp
    np.multiply(sigma, sigma, out=tmp)
    tmp *= sum_z2
    t2 += tmp
    np.multiply(a, sum_z, out=tmp)
    beta1 *= sum_dz
    tmp += beta1
    sigma *= 2.0
    tmp *= sigma
    t2 += tmp
    np.multiply(t1, t1, out=tmp)
    tmp /= n
    t2 -= tmp
    t2 /= (n - 1) * n
    t1 /= n
    t1 += s.y_mean
    return t1, t2
