"""Closed-form moments of the engine's analyses over one fixed dataset.

For a dataset with complete-case fit ``MeanStats`` s, one imputation's
estimate and within variance come from ``mean_analyses`` of the variates
``draw_mean_variates`` draws: chi2, (u, v) and rest.  Over the posterior
draw:

- sigma^2 = RSS / chi2(n_obs - 2), so E[sigma^2] = RSS / (n_obs - 4);
- beta1 = slope + sigma z1 / sqrt(Sxx), so E[beta1^2] = slope^2 + E[sigma^2] / Sxx;
- a = sigma z0 / sqrt(n_obs) + beta1 shift, so
  E[a^2] = E[sigma^2] / n_obs + shift^2 E[beta1^2].

The estimate is y_mean + sqrt(k) G / n with G = sqrt(k) shift slope +
sigma u, where u is a normal of variance Var u = 1 + k / n_obs +
k shift^2 / Sxx independent of sigma.  With c = k Var u
= k^2 / n_obs + k^2 shift^2 / Sxx + k:

- B = Var(estimate) = E[sigma^2] c / n^2, the between-imputation variance
  a pooling's b estimates as m grows;
- W = E[within] = (Syy + (1 - k / n) E[G^2] + E[H^2] + (k - 2) E[sigma^2])
  / ((n - 1) n), with H = sqrt(Sdd) slope + sigma v and Var v =
  1 + Sdd / Sxx, the mean within variance.  (For k = 1, H and rest are
  0; the formula still holds, since Sdd = 0 makes E[H^2] as written
  E[sigma^2], which (k - 2) E[sigma^2] cancels.)  Regrouped, this is (E[t2] - E[t1^2] / n) / ((n - 1) n) with t1 =
  sqrt(k) G, E[t1^2] = k E[G^2] = (k shift slope)^2 + E[sigma^2] c and
  E[t2] = Syy + E[G^2] + E[H^2] + (k - 2) E[sigma^2]
  = Syy + k E[a^2] + Sdd E[beta1^2] + k E[sigma^2];
- gamma = B / (B + W), the large-m fraction of missing information;
- kappa = 6 / (n_obs - 6), the excess kurtosis of one estimate: a normal
  scaled by sigma has kurtosis 3 E[sigma^4] / E[sigma^2]^2
  = 3 (n_obs - 4) / (n_obs - 6).

kappa needs n_obs > 6 and at least one missing y; with none, every
imputation is the observed data, B is 0 and W is Syy / ((n - 1) n).
"""

from __future__ import annotations

from typing import NamedTuple

from miplan.imputer import MeanStats


class Moments(NamedTuple):
    b: float
    w: float
    gamma: float
    kappa: float


def engine_moments(s: MeanStats) -> Moments:
    """B, W, gamma and kappa of the engine's analyses of the dataset whose
    complete-case fit is s (see the module docstring)."""
    n, n_obs, k = s.n, s.n_obs, s.k
    e_sigma2 = s.rss / (n_obs - 4)
    e_beta1_sq = s.slope * s.slope + e_sigma2 / s.sxx
    e_a_sq = e_sigma2 / n_obs + s.shift * s.shift * e_beta1_sq
    c = k * k / n_obs + k * k * s.shift * s.shift / s.sxx + k
    b = e_sigma2 * c / (n * n)
    e_t2 = s.syy + k * e_a_sq + s.sdd * e_beta1_sq + k * e_sigma2
    e_t1_sq = (k * s.shift * s.slope) ** 2 + e_sigma2 * c
    w = (e_t2 - e_t1_sq / n) / ((n - 1) * n)
    return Moments(b=b, w=w, gamma=b / (b + w), kappa=6.0 / (n_obs - 6))
