"""Shared generators and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from envspin import Configuration, EnvRateSpec, LocalSpinRates, ModelSpec, SpinRatePair
from envspin.coupling import _agreement_scan

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
    # by word 000..111: up-rates at center 0, down-rates at center 1
    return LocalSpinRates((up[0], up[1], down[0], down[1], up[2], up[3], down[2], down[3]))


def random_compatible_pair(rng, positive=False):
    """A random attractive pair satisfying the background-compatibility
    inequalities: c1 = c0 plus an attractive bump at center 0, and c0 scaled
    down (by a grid fraction) at center 1."""
    c0 = random_attractive_table(rng, positive=positive)
    bump = random_attractive_table(rng)
    lo = 1 if positive else 0
    scale = rng.integers(lo, GRID + 1) / GRID
    vals = [c0.values[w] * scale if w & 0b010 else c0.values[w] + bump.values[w] for w in range(8)]
    return SpinRatePair(c0, LocalSpinRates(vals))


def random_env(rng, positive=False):
    lo = 1 if positive else 0
    return EnvRateSpec(0, tuple(_dyadic(rng, 2, low=lo)))


def random_positive_spec(rng, sites=3):
    spec = ModelSpec(random_compatible_pair(rng, positive=True), random_env(rng, positive=True), sites)
    assert not spec.validate()
    return spec


ORDERED_COLUMNS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))


def word_bits(word, width=3):
    """The bits of an integer neighborhood word, most significant first."""
    return tuple((word >> (width - 1 - k)) & 1 for k in range(width))


def ordered_window_triples():
    """Every ordered assignment of (lower, middle, upper) neighborhoods, as
    integer words: one ordered column per window position."""
    for cols in itertools.product(ORDERED_COLUMNS, repeat=3):
        yield tuple(sum(c[k] << (2 - pos) for pos, c in enumerate(cols)) for k in range(3))


def ordered_stack(cols):
    """(lower, middle, upper) stacks from an array of ordered-column codes:
    code c in 0..3 gives the column ([c == 3], [c >= 2], [c >= 1]), as in
    `random_ordered_triple`."""
    cols = np.asarray(cols)
    return (cols == 3).astype(np.int8), (cols >= 2).astype(np.int8), (cols >= 1).astype(np.int8)


def sample_ordered_quadruples(rng, replicas, n):
    """Random (lower, mid1, mid2, upper) with both middles wedged between the
    outer layers but mutually unordered."""
    p = rng.random((replicas, n))
    lower = (p < 0.25).astype(np.int8)
    upper = (p < 0.75).astype(np.int8)
    mid1 = lower | ((rng.random((replicas, n)) < 0.5) & (upper == 1))
    mid2 = lower | ((rng.random((replicas, n)) < 0.5) & (upper == 1))
    return lower, mid1.astype(np.int8), mid2.astype(np.int8), upper


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


def random_attractive_env(rng, radius, positive=True):
    """An attractive background table of range `radius` on the dyadic grid:
    a base rate plus a weight per occupied neighbor at center 0, a base rate
    minus a weight per occupied neighbor at center 1."""
    width = 2 * radius + 1
    lo = 1 if positive else 0
    up_w = _dyadic(rng, width, high=GRID // 2)
    down_w = _dyadic(rng, width, high=GRID // 2)
    up_base, down_extra = _dyadic(rng, 2, low=lo)
    table = []
    for w in range(2 ** width):
        bits = [(w >> (width - 1 - k)) & 1 for k in range(width)]
        if bits[radius] == 0:
            table.append(up_base + sum(b * v for k, (b, v) in enumerate(zip(bits, up_w)) if k != radius))
        else:
            table.append(down_extra + sum((1 - b) * v for k, (b, v) in enumerate(zip(bits, down_w)) if k != radius))
    return EnvRateSpec(radius, tuple(table))


# agreement classes of a coupled ordered triple along a path


def check_agreement_moves(traj):
    """Replay the layer events of a three-layer trajectory and check that the
    agreement classes of (eta, gamma, xi) move only as the coupled dynamics
    allows: the triple never leaves the union of A1..A4, a full-agreement
    membership (A1, A2) persists, and an interface class (A3, A4) may only
    collapse into full agreement, never cross to the mirror interface class.

    One ring can flip several layers at one instant, and between those flips
    the triple may be unordered, so every flip sharing a time stamp is applied
    before the check.  Raises AssertionError at the first forbidden move;
    returns the number of rings checked.
    """
    names = ("eta", "gamma", "xi")
    bits = {name: list(traj.initial[name].bits) for name in names}
    boundaries = [traj.initial[name].boundary for name in names]

    def classes():
        return _agreement_scan(*(Configuration(bits[k], b) for k, b in zip(names, boundaries)))[2]

    current = classes()
    rings = 0
    layer_events = (e for e in traj.events if e.layer in bits)
    for t, ring in itertools.groupby(layer_events, key=lambda e: e.time):
        for e in ring:
            bits[e.layer][e.site] = e.new
        now = classes()
        bad = (
            "NONE" in now
            or ("A1" in current and "A1" not in now)
            or ("A2" in current and "A2" not in now)
            or (current == {"A3"} and "A4" in now)
            or (current == {"A4"} and "A3" in now)
        )
        if bad:
            raise AssertionError("agreement classes moved %s -> %s at t=%r" % (sorted(current), sorted(now), t))
        current = now
        rings += 1
    return rings
