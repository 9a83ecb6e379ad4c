"""Run-count functionals of an ordered configuration triple over a window.

Given layers lower <= middle <= upper and an inclusive window [m, n], restrict
attention to the disagreement sites (lower 0, upper 1) inside the window and
read off the middle layer along that subsequence: its run count is the number
of maximal constant runs, and its interior runs are those flanked on both
sides by further disagreement sites.  One query core (`_window_queries`)
scans a whole stack of triples once over the hull of many windows and answers
every window's run counts in one array pass, and each window's interior runs
as a mask over the stack's runs.  `window_run_counts` and the estimators of
`experiments` read both from it; `run_counts` is its batch of one window, and
the scalar functions are batches of one triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Configuration, _count


def _rows(layer):
    """One layer as an (R, N) array: a stack, or a single triple's tuple,
    1-D array, Configuration or 0/1 string as one row."""
    if isinstance(layer, Configuration):
        layer = layer.bits
    elif isinstance(layer, str):
        layer = [int(v) for v in layer]
    return np.atleast_2d(np.asarray(layer))


def window_run_counts(lower, middle, upper, windows):
    """Both functionals on each window [m, n] of `windows`, for every row of
    a stack of triples.

    Yields one (runs, interior) pair per window, in order: `runs[r]` is row
    r's run count (0 when the window holds no disagreement site) and
    `interior[r, l]` its number of interior runs of exact length l, an
    (R, N + 1) integer array built for one window at a time.  Every row must
    be ordered over the whole lattice and every window must lie in it; both
    are checked, and the stack scanned, when the function is called.
    """
    runs, row, length, interiors = _window_queries(lower, middle, upper, windows)
    replicas, cells = runs.shape[1], _rows(middle).shape[1] + 1
    code = row * cells + length
    return ((r, np.bincount(code[inner], minlength=replicas * cells).reshape(replicas, cells))
            for r, inner in zip(runs, interiors))


def _window_bounds(windows, size):
    """The windows [m, n] as a (W, 2) int64 array, once each is checked: integer ends in `size` sites."""
    bounds = []
    for m, n in windows:
        if m > n:
            raise ValueError("window endpoints must satisfy m <= n")
        if m < 0 or n >= size:
            raise ValueError("window [%s, %s] outside the lattice" % (m, n))
        bounds.append((_count("m", m, 0), _count("n", n, 0)))
    return np.array(bounds, dtype=np.int64).reshape(-1, 2)


def _window_queries(lower, middle, upper, windows):
    """The one query core: every window, for every row of a stack of triples,
    from one scan of the windows' hull, once the stack and windows are checked.

    The hull's disagreement sites of all rows are laid end to end as
    positions r * width + j, so a run is a stretch of constant (row, middle
    value).  Window w's sites in row r are the stretch [lo, hi) of the sites,
    read off the prefix counts `before` for all (w, r) at once, and the runs
    meeting it are numbered count[lo + 1] to count[hi] (count[k + 1] numbers
    site k's run).  A run is interior when the sites just before and after
    it (`lead`, `trail`: their columns, outside every window when in another
    row or missing) lie in the window, so it is neither first nor last there.

    Returns the (windows, R) run counts, every run's row and length, and a
    generator of each window's interior mask over the runs.
    """
    lo, mid, up = _rows(lower), _rows(middle), _rows(upper)
    if not (lo.shape == mid.shape == up.shape) or lo.ndim != 2:
        raise ValueError("layers must have equal length")
    if (lo > mid).any() or (mid > up).any():
        raise ValueError("layers must be ordered lower <= middle <= upper")
    size = lo.shape[1]
    bounds = _window_bounds(windows, size)
    first = bounds[:, 0].min(initial=size)
    width = bounds[:, 1].max(initial=first - 1) + 1 - first
    hull = slice(first, first + width)
    disagree = ((lo[:, hull] == 0) & (up[:, hull] == 1)).ravel()
    before = np.zeros(disagree.size + 1, dtype=np.int64)
    np.cumsum(disagree, out=before[1:])
    sites = np.flatnonzero(disagree)
    key = 2 * (sites // width) + mid[:, hull].ravel()[sites]
    new_run = np.ones(sites.size + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_run[1:-1])
    count = np.zeros(sites.size + 2, dtype=np.int64)
    np.cumsum(new_run[:-1], out=count[1:-1])
    edges = np.flatnonzero(new_run)  # each run's first site, then one past the last
    starts, ends = edges[:-1], edges[1:]
    row = sites[starts] // width
    at = np.concatenate(([-1], sites, [disagree.size]))  # at[k + 1]: site k's position
    shift = first - row * width  # a position in a run's row, to its column
    lead, trail = at[starts] + shift, at[ends + 1] + shift
    base = np.arange(lo.shape[0]) * width - first
    lo_r, hi_r = before[base + bounds[:, :1]], before[base + bounds[:, 1:] + 1]
    runs = (count[hi_r] - count[lo_r + 1] + 1) * (hi_r > lo_r)
    interiors = ((lead >= m) & (trail <= n) for m, n in bounds.tolist())
    return runs, row, ends - starts, interiors


def run_counts(lower, middle, upper, m, n):
    """Both functionals on [m, n] for every row of a stack of triples: the
    batch of one over `window_run_counts`."""
    return next(window_run_counts(lower, middle, upper, [(m, n)]))


def _one(lower, middle, upper, *windows):
    """(run count, interior row) of a single triple on each window."""
    for runs, interior in window_run_counts(lower, middle, upper, windows):
        if runs.size != 1:
            raise ValueError("expected one triple, got a stack of %d" % runs.size)
        yield int(runs[0]), interior[0]


def interval_run_count(lower, middle, upper, m, n) -> int:
    """Number of maximal constant runs of the middle layer along the
    disagreement subsequence of [m, n] (0 when there is no disagreement)."""
    return next(_one(lower, middle, upper, (m, n)))[0]


def _histogram(interior):
    return {int(l): int(interior[l]) for l in np.flatnonzero(interior)}


def interior_run_histogram(lower, middle, upper, m, n) -> dict:
    """Map length -> number of constant runs of that exact length that have a
    differing disagreement site on both sides.  Runs touching either end of
    the subsequence are not counted."""
    return _histogram(next(_one(lower, middle, upper, (m, n)))[1])


def check_window_monotone(lower, middle, upper, m, n) -> bool:
    """True iff both functionals grow (weakly) when the window is extended one
    site on either side.  The window must be extendable within the lattice."""
    if m - 1 < 0 or n + 1 >= _rows(middle).shape[-1]:
        raise ValueError("window must be extendable by one site on both sides")
    (f, g), *bigger = _one(lower, middle, upper, (m, n), (m - 1, n), (m, n + 1))
    return all(f_big >= f and (g_big >= g).all() for f_big, g_big in bigger)


@dataclass(frozen=True)
class IntervalStats:
    """Both functionals on one window, with their structural bounds enforced:
    run count <= 2 + interior runs, and total interior length <= window size."""

    m: int
    n: int
    run_count: int
    interior_runs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m > self.n:
            raise ValueError("m must be <= n")
        if self.run_count < 0 or any(v < 0 for v in self.interior_runs.values()):
            raise ValueError("counts must be >= 0")
        if self.run_count > 2 + sum(self.interior_runs.values()):
            raise ValueError("run count exceeds 2 + interior run total")
        if sum(l * c for l, c in self.interior_runs.items()) > self.n - self.m + 1:
            raise ValueError("interior runs cover more sites than the window holds")


def interval_stats(lower, middle, upper, m, n) -> IntervalStats:
    f, g = next(_one(lower, middle, upper, (m, n)))
    return IntervalStats(m, n, f, _histogram(g))
