"""Hypothesis tests with stated false-alarm levels, numpy and math only.

All statistical tests of one benchmark run share the family-wise level
FAMILY_LEVEL: a workload counts its tests and runs each at level / count
(Bonferroni), so the chance that any test of a correct program rejects is at
most FAMILY_LEVEL, whatever the program's RNG use.
"""

from __future__ import annotations

import math

import numpy as np

# Family-wise false-alarm level of all statistical tests in one run of a
# workload.  Small enough that the tens of runs behind one comparison almost
# never see a false alarm; the seed sweep (seed_sweep.py) measures the rate and
# the planted defects show the tests still have power at this level.
FAMILY_LEVEL = 1e-5

_TINY = 1e-300


def _gamma_series(a, x):
    """Regularized lower incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(10_000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_fraction(a, x):
    """Regularized upper incomplete gamma Q(a, x) by Lentz's continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = _TINY if abs(d) < _TINY else d
        c = b + an / c
        c = _TINY if abs(c) < _TINY else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(stat, df):
    """P(X >= stat) for X chi-square with `df` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if stat <= 0:
        return 1.0
    a, x = 0.5 * df, 0.5 * stat
    if x < a + 1.0:
        return max(0.0, 1.0 - _gamma_series(a, x))
    return _gamma_cont_fraction(a, x)


def normal_sf(z):
    """P(Z >= z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_gof(counts, probs, min_expected=5.0):
    """Pearson goodness of fit of observed `counts` to the law `probs`.

    Cells whose expected count is below `min_expected` are pooled into one
    cell (kept only if its expected count reaches `min_expected`, else merged
    into the smallest remaining cell), so the chi-square approximation holds.
    Observations in cells of probability zero make the p-value 0.
    Returns (statistic, degrees of freedom, p-value).
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    total = counts.sum()
    if counts.shape != probs.shape or total <= 0:
        raise ValueError("counts and probs must match and counts must be nonempty")
    if (counts[probs <= 0.0] > 0).any():
        return math.inf, 0, 0.0
    expected = probs * total
    big = expected >= min_expected
    obs = list(counts[big])
    exp = list(expected[big])
    rest_obs, rest_exp = counts[~big].sum(), expected[~big].sum()
    if rest_exp >= min_expected:
        obs.append(rest_obs)
        exp.append(rest_exp)
    elif rest_exp > 0 and exp:
        k = int(np.argmin(exp))
        obs[k] += rest_obs
        exp[k] += rest_exp
    obs = np.array(obs)
    exp = np.array(exp)
    df = len(exp) - 1
    if df < 1:
        return 0.0, 0, 1.0
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, df, chi2_sf(stat, df)


def mean_z_test(samples, exact_mean):
    """Two-sided z test of a sample mean against its exact value.
    Returns (z, p-value)."""
    samples = np.asarray(samples, dtype=float)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    diff = float(samples.mean()) - float(exact_mean)
    if se == 0.0:
        return (0.0, 1.0) if diff == 0.0 else (math.inf, 0.0)
    z = diff / se
    return z, min(1.0, 2.0 * normal_sf(abs(z)))
