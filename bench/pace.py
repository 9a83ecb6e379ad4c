"""Pace probe: a fixed computation timed beside every round.

The benchmark's machine is shared.  Other tenants slow every process on it by
up to half for seconds to minutes at a time, so the wall time of a
fixed round drifts by more than a regression bound from one run to the next.
The probe is a fixed mix of the three kinds of work envspin does: interpreter
work on small tuples (as the run-count functionals do), elementwise numpy work
on replica-by-site arrays (as the lockstep engine does) and dense BLAS products
(as the oracle does).  It calls nothing in envspin, so no change to the
program moves it.  Timed right before and right after a round, it gauges how
fast the machine ran during that round: a round's paced time is its wall time
times REFERENCE_S over the mean of the two probes, that is, the time the
round would take on a machine where the probe takes REFERENCE_S seconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the probe's median wall time on the 2-core x86-64 machine the benchmark's
# reference figures come from (bench/README.md); a fixed scale, not measured
# per run
REFERENCE_S = 0.2

_rng = np.random.default_rng(20071218)
_ROWS = [tuple(_rng.integers(0, 2, size=64).astype(np.int8) for _ in range(3)) for _ in range(300)]
_MATRIX = _rng.random((160, 160)) / 160.0


def _interpreter():
    total = 0
    for _ in range(5):
        for lower, middle, upper in _ROWS:
            lo, mid, up = (tuple(int(v) for v in layer) for layer in (lower, middle, upper))
            seq = [mid[x] for x in range(64) if lo[x] == 0 or up[x] == 1]
            total += 1 + sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    return total


def _arrays():
    rng = np.random.default_rng(7)
    state = rng.random((2000, 64)) < 0.5
    for _ in range(100):
        u = rng.random(state.shape)
        birth = (np.roll(state, 1, axis=1) | np.roll(state, -1, axis=1)) & (u < 0.2)
        state = (state | birth) & ~(u > 0.9)
    return int(state.sum())


def _blas():
    product = np.eye(160)
    for _ in range(150):
        product = product @ _MATRIX
    return float(np.linalg.solve(product + np.eye(160), np.ones(160)).sum())


def probe():
    """Wall seconds of one run of the fixed mix."""
    start = perf_counter()
    _interpreter()
    _arrays()
    _blas()
    return perf_counter() - start
