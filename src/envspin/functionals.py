"""Run-count functionals of an ordered configuration triple over a window.

Given layers lower <= middle <= upper and an inclusive window [m, n], restrict
attention to the disagreement sites (lower 0, upper 1) inside the window and
read off the middle layer along that subsequence: its run count is the number
of maximal constant runs, and its interior runs are those flanked on both
sides by further disagreement sites.  `window_run_counts` computes both for a
whole stack of triples on many windows from one scan of the stack, the
windows being queries on it; `run_counts` is its batch of one window, and the
scalar functions are batches of one triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Configuration


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
    (R, N + 1) integer array.  Every row must be ordered over the whole
    lattice and every window must lie in it; both are checked when the
    function is called, before anything is counted.

    The stack is scanned once, over the hull of the windows: the
    disagreement sites of all rows are laid end to end, so a run is a
    stretch of constant (row, middle value).  Each window is then a query.
    Its disagreement sites in row r are the stretch [lo_r, hi_r) of that
    sequence, read off prefix counts; its runs are the runs that meet the
    stretch, and a run is interior when the sites just before and just
    after it both lie in the stretch, so that it is neither the first nor
    the last of its row.
    """
    lo, mid, up = _rows(lower), _rows(middle), _rows(upper)
    if not (lo.shape == mid.shape == up.shape) or lo.ndim != 2:
        raise ValueError("layers must have equal length")
    if (lo > mid).any() or (mid > up).any():
        raise ValueError("layers must be ordered lower <= middle <= upper")
    size = lo.shape[1]
    windows = list(windows)
    for m, n in windows:
        if m > n:
            raise ValueError("window endpoints must satisfy m <= n")
        if m < 0 or n >= size:
            raise ValueError("window [%d, %d] outside the lattice" % (m, n))
    return _window_queries(lo, mid, up, windows)


def _hull_runs(lo, mid, up, first, width):
    """The runs of the hull columns [first, first + width) of every row.

    The hull's disagreement sites are laid end to end as positions
    r * width + j.  Returns `before`, where before[r * width + j] counts the
    sites before that position, and each run's first site, its end (one past
    its last site) and its row, as indices into the sites.  The sites, rows
    and keys are freed on return, so only these stay alive while the
    windows are answered.
    """
    hull = slice(first, first + width)
    disagree = ((lo[:, hull] == 0) & (up[:, hull] == 1)).ravel()
    before = np.zeros(disagree.size + 1, dtype=np.int64)
    np.cumsum(disagree, out=before[1:])
    sites = np.flatnonzero(disagree)
    row = sites // width
    key = 2 * row + mid[:, hull].ravel()[sites]
    new_run = np.empty(sites.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    return before, starts, np.append(starts[1:], sites.size), row[starts]


def _window_queries(lo, mid, up, windows):
    if not windows:
        return
    replicas, size = lo.shape
    first = min(m for m, _ in windows)
    width = max(n for _, n in windows) + 1 - first
    before, starts, ends, run_row = _hull_runs(lo, mid, up, first, width)
    code = run_row * (size + 1) + (ends - starts)
    base = np.arange(replicas) * width
    for m, n in windows:
        # row r's sites in [m, n] are the stretch [lo_r, hi_r) of the sites
        lo_r = before[base + (m - first)]
        hi_r = before[base + (n + 1 - first)]
        # a run [s, e) meets the stretch when s < hi_r and e > lo_r
        runs = (np.searchsorted(starts, hi_r) - np.searchsorted(ends, lo_r, side="right")) * (hi_r > lo_r)
        inner = (starts > lo_r[run_row]) & (ends < hi_r[run_row])
        interior = np.bincount(code[inner], minlength=replicas * (size + 1)).reshape(replicas, size + 1)
        yield runs, interior


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
