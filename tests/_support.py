"""Shared generators and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from envspin import Configuration, EnvRateSpec, JointState, LocalSpinRates, ModelSpec, SpinRatePair

GRID = 64  # rate values live on a dyadic grid so exact-arithmetic checks stay cheap


def _dyadic(rng, n, low=0, high=2 * GRID):
    return rng.integers(low, high, n) / GRID


def random_attractive_table(rng, positive=False):
    low = 1 if positive else 0
    up = np.sort(_dyadic(rng, 4, low=low))
    if rng.random() < 0.5:
        up[1], up[2] = up[2], up[1]
    down = np.sort(_dyadic(rng, 4, low=low))[::-1]
    if rng.random() < 0.5:
        down[1], down[2] = down[2], down[1]
    return LocalSpinRates.from_dict(
        {
            (0, 0, 0): up[0], (0, 0, 1): up[1], (1, 0, 0): up[2], (1, 0, 1): up[3],
            (0, 1, 0): down[0], (0, 1, 1): down[1], (1, 1, 0): down[2], (1, 1, 1): down[3],
        }
    )


def random_compatible_pair(rng, positive=False):
    """A random attractive pair satisfying the background-compatibility
    inequalities: c1 = c0 plus an attractive bump at center 0, and c0 scaled
    down (by a grid fraction) at center 1."""
    c0 = random_attractive_table(rng, positive=positive)
    bump = random_attractive_table(rng)
    lo = 1 if positive else 0
    scale = rng.integers(lo, GRID + 1) / GRID
    vals = {}
    for a in (0, 1):
        for c in (0, 1):
            vals[(a, 0, c)] = c0.rate(a, 0, c) + bump.rate(a, 0, c)
            vals[(a, 1, c)] = c0.rate(a, 1, c) * scale
    return SpinRatePair(c0, LocalSpinRates.from_dict(vals))


def random_env(rng, positive=False):
    lo = 1 if positive else 0
    return EnvRateSpec(0, tuple(_dyadic(rng, 2, low=lo)))


def random_positive_spec(rng, sites=3):
    spec = ModelSpec(random_compatible_pair(rng, positive=True), random_env(rng, positive=True), sites)
    assert not spec.validate()
    return spec


ORDERED_COLUMNS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))


def ordered_window_triples():
    """Every ordered assignment of (lower, middle, upper) neighborhoods: one
    ordered column per window position."""
    for cols in itertools.product(ORDERED_COLUMNS, repeat=3):
        lower = "".join(str(c[0]) for c in cols)
        middle = "".join(str(c[1]) for c in cols)
        upper = "".join(str(c[2]) for c in cols)
        yield lower, middle, upper


def ordered_triple_configs(words):
    lower, middle, upper = words
    return (Configuration(lower), Configuration(middle), Configuration(upper))


def all_ordered_triples(length):
    """Exhaustive ordered (lower, middle, upper) bit tuples of a given length."""
    for cols in itertools.product(range(4), repeat=length):
        lower = tuple(1 if c == 3 else 0 for c in cols)
        middle = tuple(1 if c >= 2 else 0 for c in cols)
        upper = tuple(1 if c >= 1 else 0 for c in cols)
        yield lower, middle, upper


def random_ordered_triple(rng, length):
    cols = rng.integers(0, 4, length)
    return (
        tuple(int(c == 3) for c in cols),
        tuple(int(c >= 2) for c in cols),
        tuple(int(c >= 1) for c in cols),
    )


# independent brute-force oracles for the run-count functionals


def disagreement_sequence(lower, middle, upper, m, n):
    return [middle[x] for x in range(m, n + 1) if lower[x] == 0 and upper[x] == 1]


def brute_run_count(lower, middle, upper, m, n):
    seq = disagreement_sequence(lower, middle, upper, m, n)
    return len(list(itertools.groupby(seq)))


def brute_interior_runs(lower, middle, upper, m, n):
    """Direct double loop over (start, length) pairs per the defining
    condition: a constant block strictly inside the subsequence, differing
    from both flanking values."""
    seq = disagreement_sequence(lower, middle, upper, m, n)
    k = len(seq)
    counts = {}
    for l in range(1, k + 1):
        for i in range(0, k - l - 1):
            block = seq[i + 1 : i + l + 1]
            if (
                seq[i] != block[0]
                and all(v == block[0] for v in block)
                and block[-1] != seq[i + l + 1]
            ):
                counts[l] = counts.get(l, 0) + 1
    return counts


def empirical_pair_distribution(B, E):
    """Empirical law over joint states indexed as (background_bits << n) | spin_bits."""
    n = B.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1)
    idx_b = (B * weights).sum(axis=1)
    idx_e = (E * weights).sum(axis=1)
    states = (idx_b << n) | idx_e
    return np.bincount(states, minlength=4**n) / len(states)


def max_z_score(empirical, exact, replicas):
    sigma = np.sqrt(exact * (1.0 - exact) / replicas)
    diff = np.abs(empirical - exact)
    z = np.where(sigma > 0, diff / np.maximum(sigma, 1e-300), np.where(diff > 0, np.inf, 0.0))
    return float(z.max())


# Pearson chi-square gates against exact oracle laws.  A test file runs its
# gates at a family-wise false-alarm level of GATE_LEVEL, split evenly
# (Bonferroni) over the gates of one test, so a correct simulator fails a
# test with probability at most GATE_LEVEL whatever its RNG use.
GATE_LEVEL = 1e-3


def chi2_sf(stat, df):
    """P(X >= stat) for X chi-square with `df` degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, stat/2), by its power series
    below a+1 and by Lentz's continued fraction above."""
    a, x = 0.5 * df, 0.5 * stat
    if x <= 0.0:
        return 1.0
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while abs(term) > 1e-16 * total:
            k += 1.0
            term *= x / k
            total += term
        return max(0.0, 1.0 - total * front)
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h * front


def pooled_chi_square(counts, probs):
    """Pearson goodness of fit of observed `counts` to the exact law `probs`.

    Cells whose expected count is below 5 are pooled into one extra cell
    (merged into the smallest big cell if the pool itself stays below 5).  Observations in a cell of probability zero give
    p = 0.  Returns (statistic, degrees of freedom, p-value).
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if (counts[probs <= 0.0] > 0).any():
        return math.inf, 0, 0.0
    expected = probs * counts.sum()
    big = expected >= 5.0
    obs, exp = list(counts[big]), list(expected[big])
    rest_obs, rest_exp = counts[~big].sum(), expected[~big].sum()
    if rest_exp >= 5.0:
        obs.append(rest_obs)
        exp.append(rest_exp)
    elif rest_exp > 0.0:
        k = int(np.argmin(exp))
        obs[k] += rest_obs
        exp[k] += rest_exp
    obs, exp = np.array(obs), np.array(exp)
    df = obs.size - 1
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, df, chi2_sf(stat, df)


def scaled_deaths(spec, factor):
    """`spec` with every death rate (center-1 entry of both spin tables)
    multiplied by `factor`: the planted defect the gates must catch."""

    def table(values):
        return LocalSpinRates(tuple(v * factor if (w >> 1) & 1 else v for w, v in enumerate(values)))

    pair = SpinRatePair(table(spec.spin.c0.values), table(spec.spin.c1.values))
    return ModelSpec(pair, spec.env, spec.size, spec.boundary)


# worked three-layer interval example (11 sites, both functionals known)

WORKED_UPPER = "10111110111"
WORKED_MIDDLE = "10110010110"
WORKED_LOWER = "10000000000"
WORKED_BACKGROUND = "10100111011"
