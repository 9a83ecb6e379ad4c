import re
import tracemalloc

import numpy as np
import pytest

from envspin import (
    Configuration,
    IntervalStats,
    check_window_monotone,
    interior_run_histogram,
    interval_run_count,
    interval_stats,
    run_counts,
    window_run_counts,
)

from _support import (
    WORKED_LOWER,
    WORKED_MIDDLE,
    WORKED_UPPER,
    brute_interior_runs,
    brute_run_count,
    ordered_stack,
    random_ordered_triple,
)


def worked():
    return (
        tuple(int(v) for v in WORKED_LOWER),
        tuple(int(v) for v in WORKED_MIDDLE),
        tuple(int(v) for v in WORKED_UPPER),
    )


def test_worked_example_values():
    lo, mid, up = worked()
    assert interval_run_count(lo, mid, up, 0, 10) == 4
    assert interior_run_histogram(lo, mid, up, 0, 10) == {2: 1, 3: 1}


def test_no_disagreement_gives_zero():
    bits = (0, 1, 1, 0, 1)
    assert interval_run_count(bits, bits, bits, 0, 4) == 0
    assert interior_run_histogram(bits, bits, bits, 0, 4) == {}


def test_few_disagreement_sites_no_interior_runs():
    lo = (0, 0, 0)
    up = (1, 1, 0)
    mid = (0, 1, 0)
    assert interior_run_histogram(lo, mid, up, 0, 2) == {}


def test_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(3000):
        n = int(rng.integers(1, 13))
        lo, mid, up = random_ordered_triple(rng, n)
        m = int(rng.integers(0, n))
        k = int(rng.integers(m, n))
        assert interval_run_count(lo, mid, up, m, k) == brute_run_count(lo, mid, up, m, k)
        assert interior_run_histogram(lo, mid, up, m, k) == brute_interior_runs(lo, mid, up, m, k)


def test_unordered_input_rejected():
    with pytest.raises(ValueError):
        interval_run_count((0, 1), (1, 0), (1, 1), 0, 1)
    with pytest.raises(ValueError):
        interval_run_count((0, 0), (0, 0), (1, 1), 1, 0)


def test_window_monotone_examples():
    lo, mid, up = worked()
    assert check_window_monotone(lo, mid, up, 1, 9)
    # shrinking off the left disagreement sites loses runs
    assert interval_run_count(lo, mid, up, 5, 10) < interval_run_count(lo, mid, up, 0, 10)
    bits = (0, 1, 0, 1)
    assert check_window_monotone(bits, bits, bits, 1, 2)


@pytest.mark.parametrize("m, n", [(0, 2), (1, 3), (0, 3), ("1", 2), (1.5, 2), (True, 2)], ids=repr)
def test_window_monotone_refuses_a_window_that_cannot_be_extended(m, n):
    # an end that is not an integer gets the count rule's message: '1' once
    # died in a raw TypeError from the range test, which the type test now
    # precedes
    bits = (0, 1, 0, 1)
    if type(m) is int:
        message = "window must be extendable by one site on both sides"
    else:
        message = "m must be an integer >= 0, not %r" % (m,)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        check_window_monotone(bits, bits, bits, m, n)


def test_window_monotone_exhaustive_subwindows():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(3, 10))
        lo, mid, up = random_ordered_triple(rng, n)
        for m in range(1, n - 1):
            for k in range(m, n - 1):
                assert check_window_monotone(lo, mid, up, m, k)


def test_one_step_growth_bound():
    # extending the window by one site adds at most one run
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(3, 12))
        lo, mid, up = random_ordered_triple(rng, n)
        m = int(rng.integers(1, n - 1))
        k = int(rng.integers(m, n - 1))
        f = interval_run_count(lo, mid, up, m, k)
        assert interval_run_count(lo, mid, up, m - 1, k) <= f + 1
        assert interval_run_count(lo, mid, up, m, k + 1) <= f + 1


def test_interval_stats_bounds():
    lo, mid, up = worked()
    stats = interval_stats(lo, mid, up, 0, 10)
    assert stats.run_count <= 2 + sum(stats.interior_runs.values())
    assert sum(l * c for l, c in stats.interior_runs.items()) <= stats.n - stats.m + 1
    with pytest.raises(ValueError):
        IntervalStats(0, 3, run_count=9, interior_runs={1: 1})
    with pytest.raises(ValueError):
        IntervalStats(0, 3, run_count=2, interior_runs={5: 1})


def test_interval_stats_refuses_a_reversed_window_and_negative_counts():
    with pytest.raises(ValueError, match="^m must be <= n$"):
        IntervalStats(4, 3, run_count=0)
    for run_count, interior in ((-1, {}), (2, {1: -1})):
        with pytest.raises(ValueError, match="^counts must be >= 0$"):
            IntervalStats(0, 3, run_count=run_count, interior_runs=interior)


def test_run_counts_rows_match_brute_force():
    rng = np.random.default_rng(6)
    for size in (1, 2, 5, 12):
        cols = rng.integers(0, 4, (60, size))
        cols[0] = 0  # lower = middle = upper = 0: no disagreement site
        cols[1] = 3  # all ones: no disagreement site
        cols[2:4] = rng.integers(1, 3, (2, size))  # every site disagrees
        lo, mid, up = ordered_stack(cols)
        for m in range(size):
            for n in range(m, size):
                runs, interior = run_counts(lo, mid, up, m, n)
                assert runs.shape == (60,) and interior.shape == (60, size + 1)
                for r in range(60):
                    assert runs[r] == brute_run_count(lo[r], mid[r], up[r], m, n)
                    hist = {l: int(interior[r, l]) for l in np.flatnonzero(interior[r])}
                    assert hist == brute_interior_runs(lo[r], mid[r], up[r], m, n)
                assert (runs[:2] == 0).all() and (interior[:2] == 0).all()


def test_run_counts_rejects_bad_stacks():
    rng = np.random.default_rng(7)
    lo, mid, up = ordered_stack(rng.integers(0, 4, (5, 8)))
    run_counts(lo, mid, up, 0, 2)
    for r, column in ((3, (1, 0, 1)), (4, (0, 1, 0))):
        # one row unordered at one site outside the window
        bad = [layer.copy() for layer in (lo, mid, up)]
        for layer, v in zip(bad, column):
            layer[r, 6] = v
        with pytest.raises(ValueError, match="ordered"):
            run_counts(*bad, 0, 2)
    with pytest.raises(ValueError):
        run_counts(lo, mid, up, 4, 3)
    for m, n in ((-1, 3), (2, 8)):
        with pytest.raises(ValueError, match="outside"):
            run_counts(lo, mid, up, m, n)
    for short in (mid[:4], mid[:, :7]):
        with pytest.raises(ValueError):
            run_counts(lo, short, up, 0, 2)


def test_scalar_names_accept_every_single_triple_form():
    lo, mid, up = worked()
    forms = [
        (lo, mid, up),
        (WORKED_LOWER, WORKED_MIDDLE, WORKED_UPPER),
        tuple(np.array(layer) for layer in (lo, mid, up)),
        tuple(Configuration(layer) for layer in (WORKED_LOWER, WORKED_MIDDLE, WORKED_UPPER)),
    ]
    for form in forms:
        assert interval_run_count(*form, 0, 10) == 4
        hist = interior_run_histogram(*form, 0, 10)
        assert hist == {2: 1, 3: 1}
        assert all(type(k) is int and type(v) is int for k, v in hist.items())
        assert check_window_monotone(*form, 1, 9)
        assert interval_stats(*form, 0, 10) == IntervalStats(0, 10, 4, {2: 1, 3: 1})
    stack = [np.array([layer, layer]) for layer in (lo, mid, up)]
    with pytest.raises(ValueError, match="one triple"):
        interval_run_count(*stack, 0, 10)


def _fixed_windows(size):
    """Single sites, both lattice ends, the whole lattice, and overlapping,
    repeated and unsorted windows."""
    last = size - 1
    return [(last, last), (0, 0), (0, last), (last // 2, last), (0, last // 2), (0, last), (last // 2, last // 2)]


def test_window_run_counts_matches_brute_force():
    rng = np.random.default_rng(8)
    for trial in range(400):
        replicas, size = int(rng.integers(1, 13)), int(rng.integers(1, 16))
        cols = rng.integers(0, 4, (replicas, size))
        cols[rng.random(replicas) < 0.2] = 0  # rows with no disagreement site
        cols[rng.random(replicas) < 0.2] = 3
        lo, mid, up = ordered_stack(cols)
        if trial % 2:
            lo, mid, up = (layer.astype(np.int64) for layer in (lo, mid, up))
        windows = []
        for _ in range(int(rng.integers(1, 7))):
            m = int(rng.integers(0, size))
            windows.append((m, int(rng.integers(m, size))))
        if trial % 5 == 0:
            windows += _fixed_windows(size)
        counts = list(window_run_counts(lo, mid, up, windows))
        assert len(counts) == len(windows)
        for (m, n), (runs, interior) in zip(windows, counts):
            assert runs.dtype == interior.dtype == np.int64
            assert runs.shape == (replicas,) and interior.shape == (replicas, size + 1)
            for r in range(replicas):
                assert runs[r] == brute_run_count(lo[r], mid[r], up[r], m, n)
                hist = {int(l): int(interior[r, l]) for l in np.flatnonzero(interior[r])}
                assert hist == brute_interior_runs(lo[r], mid[r], up[r], m, n)
        assert list(window_run_counts(lo, mid, up, [])) == []


def test_window_run_counts_checks_every_window_when_called(monkeypatch):
    rng = np.random.default_rng(9)
    lo, mid, up = ordered_stack(rng.integers(0, 4, (5, 8)))

    def no_scan(*args, **kwargs):
        raise AssertionError("the stack was scanned before every window was checked")

    monkeypatch.setattr(np, "nonzero", no_scan)
    monkeypatch.setattr(np, "cumsum", no_scan)
    good = [(0, 2), (7, 7), (1, 6)]
    bad_windows = (((4, 3), "m <= n"), ((-1, 3), r"window \[-1, 3\] outside"), ((2, 8), r"window \[2, 8\] outside"))
    for bad, message in bad_windows:
        for at in range(len(good) + 1):
            with pytest.raises(ValueError, match=message):
                window_run_counts(lo, mid, up, good[:at] + [bad] + good[at:])
    with pytest.raises(ValueError, match="ordered"):
        window_run_counts(np.ones_like(lo), mid, up, good)


def test_window_run_counts_holds_one_window_at_a_time():
    # the benchmark's 300 x 64 stack and its 30 nested windows: a stacked
    # (windows, replicas, N + 1) result would hold 4.7 MB in `interior` alone
    lo, mid, up = ordered_stack(np.random.default_rng(10).integers(0, 4, (300, 64)))
    windows = [(32 - k, 32 + k) for k in range(1, 31)]
    for _ in window_run_counts(lo, mid, up, windows[:1]):
        pass  # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        for runs, interior in window_run_counts(lo, mid, up, windows):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, "peak %d bytes" % peak


@pytest.mark.parametrize(
    "window, name",
    [((0.9, 4.9), "m"), ((1, 4.0), "n"), ((True, 3), "m"), (("1", "3"), "m"), ((-1, "3"), "n"), ((5, "3"), "n")],
    ids=repr,
)
def test_window_endpoints_that_are_not_integers_are_refused_before_the_scan(monkeypatch, window, name):
    # run_counts(lo, mid, up, 0.9, 4.9) once answered for the window [0, 4];
    # a string once died in a TypeError from the range test, which the type
    # test now precedes
    lo, mid, up = ordered_stack(np.random.default_rng(9).integers(0, 4, (5, 8)))

    def no_scan(*args, **kwargs):
        raise AssertionError("the stack was scanned before the window was checked")

    monkeypatch.setattr(np, "cumsum", no_scan)
    value = dict(zip("mn", window))[name]
    with pytest.raises(ValueError, match=r"^%s must be an integer >= 0, not %r$" % (name, value)):
        run_counts(lo, mid, up, *window)


def test_window_endpoints_may_be_numpy_integers():
    lo, mid, up = ordered_stack(np.random.default_rng(9).integers(0, 4, (5, 8)))
    runs, interior = run_counts(lo, mid, up, np.int64(1), np.int32(6))
    expected = run_counts(lo, mid, up, 1, 6)
    assert np.array_equal(runs, expected[0]) and np.array_equal(interior, expected[1])
