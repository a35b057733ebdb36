"""The closed-form engine moments of ``moments.engine_moments`` against
10^6 engine draws on each of two datasets.

Each tolerance is TOLERANCE_SE times the Monte Carlo SE of the figure,
estimated by batch means: the draws come in BATCHES batches, the figure is
computed in each, and its SE over all draws is the SD of the batch figures
over sqrt(BATCHES).  The factor and the batching were fixed before the
first run.  A miss means the formula or the engine is wrong; the tolerance
is not widened.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from miplan import gen_incomplete, stream
from miplan.imputer import draw_mean_variates, mean_analyses
from miplan.montecarlo import TAG_DATA, TAG_REP

from moments import engine_moments

BATCHES = 100
PER_BATCH = 10_000  # BATCHES * PER_BATCH = 10^6 draws per dataset
TOLERANCE_SE = 4.0

# (n, rho, missing fraction, seed): a large dataset, where kappa is near 0,
# and a small one, whose n_obs puts kappa above 0.1
DATASETS = {
    "n2000": (2000, 0.6, 0.5, 22_101),
    "n80": (80, 0.5, 0.4, 22_102),
}


def figures(estimates: np.ndarray, withins: np.ndarray) -> np.ndarray:
    """B, W, gamma and kappa as measured on these draws."""
    b = np.var(estimates, ddof=1)
    w = np.mean(withins)
    return np.array([b, w, b / (b + w), stats.kurtosis(estimates)])


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_closed_form_matches_the_engine(name):
    n, rho, missing, seed = DATASETS[name]
    data = gen_incomplete(n, rho, missing, stream(seed, TAG_DATA))
    s = data.mean_stats
    expected = engine_moments(s)
    if name == "n80":
        assert expected.kappa >= 0.1
    draws = [mean_analyses(s, *draw_mean_variates(data, PER_BATCH, stream(seed, TAG_REP, batch)))
             for batch in range(BATCHES)]
    batch_figures = np.array([figures(e, w) for e, w in draws])
    measured = figures(*(np.concatenate(column) for column in zip(*draws)))
    se = batch_figures.std(axis=0, ddof=1) / np.sqrt(BATCHES)
    for field, got, want, tol in zip(expected._fields, measured, expected, TOLERANCE_SE * se):
        assert abs(got - want) <= tol, (field, got, want, tol)
