"""Run-count functionals of an ordered configuration triple over a window.

Given layers lower <= middle <= upper and an inclusive window [m, n], restrict
attention to the disagreement sites (lower 0, upper 1) inside the window and
read off the middle layer along that subsequence: its run count is the number
of maximal constant runs, and its interior runs are those flanked on both
sides by further disagreement sites.  One query core (`_window_queries`)
scans a whole stack of triples once over the hull of many windows, whose
bounds its callers have checked once (`_window_bounds`), and answers every
window's run counts in one array pass.  A window's interior runs are those
whose neighbouring sites lie in it: `window_run_counts` and
`interval_inequality_check` mask the stack's runs one window at a time, for
counts per row, and `run_length_decay` reads every window's totals over the
rows from one corner count (`_interior_totals`).  `run_counts` is the batch
of one window of `window_run_counts`, and the scalar functions are batches of
one triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Configuration, _distinct, _integers


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
    (R, N + 1) integer array built for one window at a time.  Every window
    must lie in the lattice and every row must be ordered over the whole
    lattice; both are checked, and the stack scanned, when the function is
    called.
    """
    cells = _rows(middle).shape[-1] + 1
    bounds = _window_bounds(windows, cells - 1)
    runs, row, length, lead, trail = _window_queries(lower, middle, upper, bounds)
    replicas = runs.shape[1]
    code = row * cells + length
    return ((r, np.bincount(code[(lead >= m) & (trail <= n)], minlength=replicas * cells).reshape(replicas, cells))
            for r, (m, n) in zip(runs, bounds.tolist()))


def _window_bounds(windows, size):
    """The windows [m, n] as a (W, 2) int64 array, once each is checked: integer ends in `size` sites."""
    bounds = []
    for m, n in windows:
        _integers(0, m=m, n=n)
        if m > n:
            raise ValueError("window endpoints must satisfy m <= n")
        if m < 0 or n >= size:
            raise ValueError("window [%s, %s] outside the lattice" % (m, n))
        bounds.append((m, n))
    return np.array(bounds, dtype=np.int64).reshape(-1, 2)


def _window_queries(lower, middle, upper, bounds):
    """The one query core: every window of `bounds`, a (W, 2) array already
    checked by `_window_bounds`, for every row of a stack of triples, from
    one scan of the windows' hull, once the stack is checked.

    The hull's disagreement sites of all rows are laid end to end as
    positions r * width + j, so a run is a stretch of constant (row, middle
    value).  Window w's sites in row r are the stretch [lo, hi) of the sites,
    read off the prefix counts `before` for all (w, r) at once, and the runs
    meeting it are numbered count[lo + 1] to count[hi] (count[k + 1] numbers
    site k's run).  A run is interior to [m, n] when the sites just before
    and after it (`lead`, `trail`: their columns, outside every window when
    in another row or missing) lie in the window, lead >= m and trail <= n,
    so it is neither first nor last there.

    Returns the (windows, R) run counts, and every run's row, length, lead
    and trail.
    """
    lo, mid, up = _rows(lower), _rows(middle), _rows(upper)
    if not (lo.shape == mid.shape == up.shape) or lo.ndim != 2:
        raise ValueError("layers must have equal length")
    if (lo > mid).any() or (mid > up).any():
        raise ValueError("layers must be ordered lower <= middle <= upper")
    size = lo.shape[1]
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
    return runs, row, ends - starts, lead, trail


# the cells a block of `_interior_totals` may hold however few runs there are
CORNER_FLOOR = 1024


def _interior_totals(length, lead, trail, bounds):
    """Every window's interior runs, summed over the rows and split by length,
    from the runs of `_window_queries`: a (W, L + 1) array for L the longest
    run, row w for window w of `bounds`.

    One corner count per block of windows.  A run's lead rank is the number
    of the block's distinct starts at or below its lead, its trail rank the
    number of distinct ends below its trail (both looked up by column, the
    columns clipped to one past the windows' hull); the runs are counted by
    (lead rank, trail rank, length).  A run is interior to a window of start
    rank i and end rank j iff its lead rank is above i and its trail rank at
    most j, so a reversed cumulative sum over lead ranks, then a cumulative
    sum over trail ranks, leaves the window's totals at (i + 1, j).  B
    windows have at most B distinct starts and ends, so a block's
    (B + 1)^2 (L + 1) cells are no more than the runs, or CORNER_FLOOR,
    unless a block of one window needs more.
    """
    cells = int(length.max(initial=0)) + 1
    block = max(1, math.isqrt(max(length.size, CORNER_FLOOR) // cells) - 1)
    totals = np.empty((len(bounds), cells), dtype=np.int64)
    high = bounds.max(initial=0) + 1
    low = bounds.min(initial=high) - 1
    columns = np.arange(low, high + 1)
    lead, trail = np.clip(lead, low, high) - low, np.clip(trail, low, high) - low
    for b in range(0, len(bounds), block):
        m, n = bounds[b:b + block].T
        starts, ends = _distinct(m), _distinct(n)
        shape = (len(starts) + 1, len(ends) + 1, cells)
        code = (np.searchsorted(starts, columns, "right") * (shape[1] * cells)).take(lead)
        code += (np.searchsorted(ends, columns, "left") * cells).take(trail)
        code += length
        table = np.bincount(code, minlength=math.prod(shape)).reshape(shape)
        np.cumsum(table[::-1], axis=0, out=table[::-1])
        np.cumsum(table, axis=1, out=table)
        totals[b:b + block] = table[np.searchsorted(starts, m) + 1, np.searchsorted(ends, n)]
    return totals


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
    _integers(0, m=m, n=n)
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
