"""Run-count functionals of an ordered configuration triple over a window.

Given layers lower <= middle <= upper and an inclusive window [m, n], restrict
attention to the disagreement sites (lower 0, upper 1) inside the window and
read off the middle layer along that subsequence: its run count is the number
of maximal constant runs, and its interior runs are those flanked on both
sides by further disagreement sites.  `run_counts` computes both for a whole
stack of triples; the scalar functions are batches of one over it.
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


def run_counts(lower, middle, upper, m, n):
    """Both functionals on [m, n] for every row of a stack of triples.

    Returns (runs, interior): `runs[r]` is row r's run count (0 when the
    window holds no disagreement site) and `interior[r, l]` its number of
    interior runs of exact length l, an (R, N + 1) integer array.  Every row
    must be ordered over the whole lattice, and the window must lie in it.
    The disagreement sites of all rows are laid end to end, so a run is a
    stretch of constant (row, middle value), and the first and last run of
    each row are the ones that are not interior.
    """
    lo, mid, up = _rows(lower), _rows(middle), _rows(upper)
    if not (lo.shape == mid.shape == up.shape) or lo.ndim != 2:
        raise ValueError("layers must have equal length")
    if (lo > mid).any() or (mid > up).any():
        raise ValueError("layers must be ordered lower <= middle <= upper")
    if m > n:
        raise ValueError("window endpoints must satisfy m <= n")
    replicas, size = lo.shape
    if m < 0 or n >= size:
        raise ValueError("window [%d, %d] outside the lattice" % (m, n))
    window = slice(m, n + 1)
    row, col = np.nonzero((lo[:, window] == 0) & (up[:, window] == 1))
    starts = np.flatnonzero(np.diff(2 * row + mid[:, window][row, col], prepend=-1))
    run_row = row[starts]
    lengths = np.diff(starts, append=row.size)
    inner = (np.diff(run_row, prepend=-1) == 0) & (np.diff(run_row, append=replicas) == 0)
    interior = np.bincount(
        run_row[inner] * (size + 1) + lengths[inner], minlength=replicas * (size + 1)
    ).reshape(replicas, size + 1)
    return np.bincount(run_row, minlength=replicas), interior


def _one(lower, middle, upper, m, n):
    runs, interior = run_counts(lower, middle, upper, m, n)
    if runs.size != 1:
        raise ValueError("expected one triple, got a stack of %d" % runs.size)
    return int(runs[0]), interior[0]


def interval_run_count(lower, middle, upper, m, n) -> int:
    """Number of maximal constant runs of the middle layer along the
    disagreement subsequence of [m, n] (0 when there is no disagreement)."""
    return _one(lower, middle, upper, m, n)[0]


def _histogram(interior):
    return {int(l): int(interior[l]) for l in np.flatnonzero(interior)}


def interior_run_histogram(lower, middle, upper, m, n) -> dict:
    """Map length -> number of constant runs of that exact length that have a
    differing disagreement site on both sides.  Runs touching either end of
    the subsequence are not counted."""
    return _histogram(_one(lower, middle, upper, m, n)[1])


def check_window_monotone(lower, middle, upper, m, n) -> bool:
    """True iff both functionals grow (weakly) when the window is extended one
    site on either side.  The window must be extendable within the lattice."""
    f, g = _one(lower, middle, upper, m, n)
    if m - 1 < 0 or n + 1 >= g.size - 1:
        raise ValueError("window must be extendable by one site on both sides")
    for mm, nn in ((m - 1, n), (m, n + 1)):
        f_big, g_big = _one(lower, middle, upper, mm, nn)
        if f_big < f or (g_big < g).any():
            return False
    return True


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
    f, g = _one(lower, middle, upper, m, n)
    return IntervalStats(m, n, f, _histogram(g))
