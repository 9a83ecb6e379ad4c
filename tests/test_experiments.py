import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from envspin import (
    build_coupled_generator,
    dominating_rates,
    interior_run_histogram,
    interval_run_count,
    build_generator,
    calibrate_burn_in,
    density_curves,
    estimate_coalescence,
    interval_inequality_check,
    preset,
    run_length_decay,
    scenario_remarks,
    semigroup_apply,
    window_run_counts,
)
from envspin import functionals, graphical
from envspin.experiments import (
    EstimateReport,
    _mean_se,
    _random_coupled_run,
    density_csv_text,
    run_decay_csv_text,
    sample_ordered_triples,
)

from _support import ordered_stack, random_positive_spec, sample_ordered_quadruples


def cpree(sites, **kw):
    params = dict(gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0)
    params.update(kw)
    return preset("cpree", sites=sites, **params)


def test_coalescence_zero_horizon_is_zero():
    spec = cpree(9)
    rep = estimate_coalescence(spec, "0" * 9, k=2, t=0.0, replicas=500, seed=1)
    assert rep.estimate == 0.0
    assert rep.stderr == 0.0
    assert rep.window == 5


def test_estimators_deterministic_in_seed():
    spec = cpree(9)
    a = estimate_coalescence(spec, "0" * 9, 1, 2.0, 3000, seed=5)
    b = estimate_coalescence(spec, "0" * 9, 1, 2.0, 3000, seed=5)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    da = density_curves(spec, [0.5, 1.0], 500, seed=5)
    db = density_curves(spec, [0.5, 1.0], 500, seed=5)
    dc = density_curves(spec, [0.5, 1.0], 500, seed=6)
    assert da.extra == db.extra
    assert da.extra["density_from_one"] != dc.extra["density_from_one"]


def test_coalescence_matches_exact_coupled_chain():
    spec = cpree(3)
    k, t, replicas = 1, 1.5, 30000
    G = build_coupled_generator(spec, 2)
    start = G.encode([0b000, 0b000, 0b111])
    res = semigroup_apply(G, G.point_mass(start), t)
    sites = [0, 1, 2][0:3]
    center = 3 // 2
    window = [(center + d) % 3 for d in (-k, 0, k)]
    exact = 0.0
    for s, p in enumerate(res.dist):
        _, lo, hi = G.decode(s)
        if all((lo >> (2 - x)) & 1 == (hi >> (2 - x)) & 1 for x in window):
            exact += p
    rep = estimate_coalescence(spec, "000", k, t, replicas, seed=9)
    se = math.sqrt(exact * (1 - exact) / replicas)
    assert abs(rep.estimate - exact) < 3 * se


def test_density_gap_starts_at_one_and_order_holds():
    spec = cpree(12)
    rep = density_curves(spec, [0.0, 0.5, 1.5], 2000, seed=3)
    assert rep.extra["gap"][0] == 1.0
    assert all(0 <= g <= 1 for g in rep.extra["gap"])
    csv = density_csv_text(rep)
    assert csv.splitlines()[0] == "t,density_from_zero,density_from_one,gap"


def test_density_matches_oracle_marginals():
    spec = cpree(3)
    t = 1.0
    replicas = 30000
    rep = density_curves(spec, [t], replicas, seed=11)
    G = build_generator(spec)
    for start, key in ((0, "density_from_zero"), (G.dim - 1, "density_from_one")):
        res = semigroup_apply(G, G.point_mass(start), t)
        exact = 0.0
        for s, p in enumerate(res.dist):
            eta = G.decode(s)[1]
            exact += p * bin(eta).count("1") / 3
        est = rep.extra[key][0]
        se = max(rep.extra["se_from_zero"][0], rep.extra["se_from_one"][0], 1e-4)
        assert abs(est - exact) < 4 * se


def test_run_length_decay_zero_when_outer_layers_equal():
    spec = cpree(12)
    eta = spec.spin_config((0,) * 12)
    rep = run_length_decay(
        spec, [(3, 6), (2, 9)], t=1.0, replicas=200, seed=2,
        initial=(spec.env_config((0,) * 12), [eta, eta, eta]),
    )
    assert all(row["mean_runs"] == 0.0 for row in rep.extra["rows"])


def test_run_length_decay_trend_for_positive_floor():
    spec = cpree(24)
    windows = [(10, 13), (8, 15), (5, 18)]
    rep = run_length_decay(spec, windows, t=14.0, replicas=4000, seed=8)
    rows = rep.extra["rows"]
    # normalized run counts should not grow with the window at late times
    for a, b in zip(rows, rows[1:]):
        assert b["normalized"] <= a["normalized"] + 3 * (a["se"] + b["se"])


def test_interval_inequalities_small_window():
    spec = cpree(10)
    rep = interval_inequality_check(spec, t=8.0, replicas=3000, seed=4, m=3, n=6, l=1)
    assert rep.extra["holds_d_within_3sigma"]
    assert rep.extra["holds_e_within_3sigma"]
    with pytest.raises(ValueError):
        interval_inequality_check(spec, 1.0, 10, 0, m=0, n=5)


def _replica_samples(spec, t, replicas, seed):
    """The coupled triples both estimators draw for (spec, t, replicas, seed),
    one (lower, middle, upper) tuple of rows per replica."""
    layers = _random_coupled_run(spec, [float(t)], replicas, seed).layers[-1]
    return list(zip(*layers))


def test_run_length_decay_equals_per_replica_scalar_loop():
    spec = cpree(16, lam=3.0, delta0=1.0, delta1=0.5)
    windows = [(7, 8), (5, 10), (2, 13), (0, 15)]
    rep = run_length_decay(spec, windows, t=0.5, replicas=150, seed=21)
    samples = _replica_samples(spec, 0.5, 150, 21)
    for row, (m, n) in zip(rep.extra["rows"], windows):
        mean, se = _mean_se([float(interval_run_count(*triple, m, n)) for triple in samples])
        totals = {}
        for triple in samples:
            for l, c in interior_run_histogram(*triple, m, n).items():
                totals[l] = totals.get(l, 0) + c
        expected = {
            "m": m,
            "n": n,
            "mean_runs": mean,
            "se": se,
            "normalized": mean / (n - m),
            "mean_interior_runs": {l: c / 150 for l, c in sorted(totals.items())},
        }
        assert row == expected
        assert list(row["mean_interior_runs"]) == list(expected["mean_interior_runs"])
        assert all(type(l) is int and type(v) is float for l, v in row["mean_interior_runs"].items())
        assert all(type(row[key]) is float for key in ("mean_runs", "se", "normalized"))
    assert len(rep.extra["rows"][-1]["mean_interior_runs"]) >= 2
    text = run_decay_csv_text(rep)
    assert "np." not in text and len(text.splitlines()) == len(windows) + 1


def test_interval_inequality_check_equals_per_replica_scalar_loop():
    spec = cpree(12, lam=3.0, delta0=1.0, delta1=0.5)
    m, n, l = 3, 8, 1
    rep = interval_inequality_check(spec, t=0.5, replicas=200, seed=22, m=m, n=n, l=l)
    consts = dominating_rates(spec)
    C, K = consts.C, consts.K
    slack_d, slack_e, g_first, curvature = [], [], [], []
    for triple in _replica_samples(spec, 0.5, 200, 22):
        hist = interior_run_histogram(*triple, m, n)
        f_mn = interval_run_count(*triple, m, n)
        f_left = interval_run_count(*triple, m - 1, n)
        f_right = interval_run_count(*triple, m, n + 1)
        g_first.append(float(hist.get(1, 0)))
        curvature.append(float(f_left + f_right - 2 * f_mn))
        slack_d.append(K * (f_left + f_right - 2 * f_mn) - C * hist.get(1, 0))
        slack_e.append(12.0 * K * l * hist.get(l, 0) - C * hist.get(l + 1, 0))
    mean_d, se_d = _mean_se(slack_d)
    mean_e, se_e = _mean_se(slack_e)
    mean_g1, se_g1 = _mean_se(g_first)
    mean_curv, se_curv = _mean_se(curvature)
    assert rep.extra == {
        "lhs_d": C * mean_g1,
        "rhs_d": K * mean_curv,
        "slack_d_mean": mean_d,
        "slack_d_se": se_d,
        "holds_d_within_3sigma": mean_d >= -3.0 * se_d,
        "slack_e_mean": mean_e,
        "slack_e_se": se_e,
        "holds_e_within_3sigma": mean_e >= -3.0 * se_e,
        "mean_interior_singletons": mean_g1,
        "se_interior_singletons": se_g1,
        "mean_curvature": mean_curv,
        "se_curvature": se_curv,
    }
    assert mean_g1 > 0 and mean_curv != 0 and se_g1 > 0 and se_curv > 0
    assert all(type(v) in (float, bool) for v in rep.extra.values())


def test_coalescence_heavy_death_contact():
    # with deaths crushing births, both layers empty out fast: agreement is
    # near the product of per-site agreement probabilities, grows with t, and
    # the exact three-site coupled chain confirms the estimate
    spec = preset("contact", lam=0.2, delta=10.0, sites=3)
    G = build_coupled_generator(spec, 2)
    start = G.encode([0b000, 0b000, 0b111])
    estimates = []
    for t in (0.2, 0.5, 1.0):
        dist = semigroup_apply(G, G.point_mass(start), t).dist
        exact = 0.0
        for s, p in enumerate(dist):
            _, lo, hi = G.decode(s)
            if lo == hi:
                exact += p
        rep = estimate_coalescence(spec, "000", 1, t, 20000, seed=3)
        se = max(math.sqrt(exact * (1 - exact) / 20000), 1e-6)
        assert abs(rep.estimate - exact) < 4 * se
        estimates.append(rep.estimate)
    assert estimates[0] > 0.5  # far from 0 already at small t
    assert estimates == sorted(estimates)


def test_run_length_decay_reports_for_degenerate_floor():
    # when the boundary-pair floor vanishes the normalized run count need not
    # decay; the estimator still reports rows (no trend asserted)
    spec = preset("remark_vi", sites=12)
    rep = run_length_decay(spec, [(4, 6), (3, 8)], t=4.0, replicas=300, seed=1)
    assert len(rep.extra["rows"]) == 2
    assert all("mean_interior_runs" in row for row in rep.extra["rows"])


def test_sampling_helpers_ordered():
    rng = np.random.default_rng(5)
    lo, mid, up = sample_ordered_triples(rng, 200, 7)
    assert (lo <= mid).all() and (mid <= up).all()
    lo, m1, m2, up = sample_ordered_quadruples(rng, 200, 7)
    assert (lo <= m1).all() and (m1 <= up).all()
    assert (lo <= m2).all() and (m2 <= up).all()


def test_burn_in_calibration():
    spec = cpree(64)
    b = calibrate_burn_in(spec)
    assert b.t_burn >= b.t_calibrated > 0
    assert b.cal_sites == 4


def test_scenario_iv_structure():
    rep = scenario_remarks("iv", sites=3)
    assert rep["n_closed_classes"] >= 2
    assert rep["frozen_background_words"] == ["000", "111"]


def test_scenario_vi_structure():
    rep = scenario_remarks("vi", sites=5)
    assert rep["all_staircases_absorbing"]
    assert rep["n_closed_classes"] >= 2
    assert len(rep["staircases"]) == 6
    with pytest.raises(ValueError):
        scenario_remarks("nope")


def test_report_json_schema():
    rep = EstimateReport("demo", {"a": 1}, 0.5, 0.01, 100, 7, window=3, horizon=2.0)
    data = json.loads(rep.to_json())
    assert set(data) == {
        "scenario", "params", "estimate", "stderr", "replicas", "seed",
        "window", "horizon", "runtime_ms", "extra",
    }


SUPERCRITICAL = dict(gamma=1.0, delta0=1.0, delta1=0.5, p=0.5, lam=3.0)


def _report_digest(report):
    """SHA-256 of a report's JSON with its wall time dropped, keys in the
    order the estimator wrote them."""
    data = dataclasses.asdict(report)
    del data["runtime_ms"]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def decay_nested_windows():
    # the benchmark's run-counts shape: 300 coupled 64-site triples, 30
    # nested windows, t = 0.05
    spec = preset("cpree", sites=64, **SUPERCRITICAL)
    windows = [(32 - k, 32 + k) for k in range(1, 31)]
    return run_length_decay(spec, windows, t=0.05, replicas=300, seed=41)


def decay_without_disagreement():
    # lower = middle = upper in every replica: no window holds a
    # disagreement site
    spec = cpree(12)
    rng = np.random.default_rng(42)
    beta = rng.integers(0, 2, (40, 12)).astype(np.int8)
    eta = rng.integers(0, 2, (40, 12)).astype(np.int8)
    layers = [(eta, spec.spin_boundary)] * 3
    windows = [(3, 6), (2, 9), (0, 11), (5, 5)]
    return run_length_decay(spec, windows, t=0.5, replicas=40, seed=43, initial=((beta, spec.env_boundary), layers))


def inequality_widest_window():
    # m = 1, n = size - 2: both extensions reach the lattice ends
    spec = cpree(10, lam=3.0, delta0=1.0, delta1=0.5)
    return interval_inequality_check(spec, t=0.5, replicas=400, seed=44, m=1, n=8, l=1)


def inequality_narrow_window():
    spec = cpree(10, lam=3.0, delta0=1.0, delta1=0.5)
    return interval_inequality_check(spec, t=0.5, replicas=400, seed=45, m=4, n=5, l=2)


# captured before the estimators read the functionals' one query core; a
# rewrite that claims the same samples and floats reproduces them bit for bit
REPORT_GOLDEN = {
    decay_nested_windows: "6b448a94fff307ef007893cba30d752a9807b0bef8f48e0ffd00ceeecd9f2cb3",
    decay_without_disagreement: "fe8b3b3180bc6b784fe37ddd3709af8df06a2ac0d167efb58437ee6d1b419cb9",
    inequality_widest_window: "79823fb89f1d72bdd2d4068008e5a8339623bc0512f9818723b9d1cd2fc46b40",
    inequality_narrow_window: "6289c066723efb28e7e2b75a564f9fa6cfeb5e38b2b756a10f26c7ebca20260b",
}


@pytest.mark.parametrize("run", list(REPORT_GOLDEN), ids=lambda f: f.__name__)
def test_estimator_report_matches_golden_digest(run):
    assert _report_digest(run()) == REPORT_GOLDEN[run]


@pytest.mark.parametrize("replicas", [0, -3, 2.5, True, "4"], ids=repr)
def test_estimators_refuse_a_replica_count_that_is_not_a_positive_integer(monkeypatch, replicas):
    # 0 once gave NaN estimates with "Mean of empty slice" warnings, -3 died
    # in numpy's "negative dimensions are not allowed" and 2.5 in a numpy
    # TypeError
    spec = cpree(9)
    eta = spec.spin_config((0, 1) * 4 + (1,))

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the replica count was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    calls = (
        lambda: estimate_coalescence(spec, "0" * 9, 1, 1.0, replicas, seed=1),
        lambda: density_curves(spec, [0.5], replicas, seed=1),
        lambda: run_length_decay(spec, [(3, 5)], 1.0, replicas, seed=1),
        lambda: run_length_decay(spec, [(3, 5)], 1.0, replicas, seed=1, initial=(spec.env_config("0" * 9), [eta] * 3)),
        lambda: interval_inequality_check(spec, 1.0, replicas, seed=1, m=3, n=5),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^replicas must be an integer >= 1, not %s$" % re.escape(repr(replicas))):
            call()


@pytest.mark.parametrize("l", [-2, 0, 1.5, 2.0, True, "1"], ids=repr)
def test_interval_inequality_check_refuses_a_run_length_that_is_not_a_positive_integer(monkeypatch, l):
    # on 12-site supercritical cpree (t = 0.5, 200 replicas, seed 22, m = 3,
    # n = 8), l = -2, 0 and 1.5 were reported to hold (E), -2 and 1.5 with a
    # slack of 0 +- 0
    spec = cpree(12, lam=3.0, delta0=1.0, delta1=0.5)

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before l was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"^l must be an integer >= 1, not %s$" % re.escape(repr(l))):
        interval_inequality_check(spec, t=0.5, replicas=200, seed=22, m=3, n=8, l=l)


def _no_work(*args, **kwargs):
    raise AssertionError("a generator was made or the engine ran before the window was checked")


@pytest.mark.parametrize(
    "case",
    ["decay-m", "decay-n", "interval-m", "interval-n", "coalescence-k",
     "decay-m-text", "decay-n-text", "interval-m-text", "interval-n-text", "coalescence-k-text", "coalescence-k-bool"],
)
def test_estimators_refuse_window_endpoints_that_are_not_integers_before_any_draw(monkeypatch, case):
    # run_length_decay once reported m = 1.5, interval_inequality_check a
    # window of 2.5 sites at m = 1.5, and estimate_coalescence died in a
    # TypeError from range at k = 1.5
    spec = cpree(5)
    monkeypatch.setattr(np.random, "default_rng", _no_work)
    monkeypatch.setattr(graphical, "batch_evolve", _no_work)
    calls = {
        "decay-m": (lambda: run_length_decay(spec, [(1, 2), (1.5, 3)], 1.0, 10, seed=1), "m", 1.5),
        "decay-n": (lambda: run_length_decay(spec, [(1, 3.0)], 1.0, 10, seed=1), "n", 3.0),
        "interval-m": (lambda: interval_inequality_check(spec, 1.0, 10, seed=1, m=1.5, n=3), "m", 1.5),
        "interval-n": (lambda: interval_inequality_check(spec, 1.0, 10, seed=1, m=1, n=np.float64(3)), "n",
                       np.float64(3)),
        "coalescence-k": (lambda: estimate_coalescence(spec, "0" * 5, 1.5, 1.0, 10, seed=1), "k", 1.5),
        # the type test comes before each range test, whose messages stay as they are
        "decay-m-text": (lambda: run_length_decay(spec, [(1, 2), ("1", 3)], 1.0, 10, seed=1), "m", "1"),
        "decay-n-text": (lambda: run_length_decay(spec, [(-1, "3")], 1.0, 10, seed=1), "n", "3"),
        "interval-m-text": (lambda: interval_inequality_check(spec, 1.0, 10, seed=1, m="1", n=3), "m", "1"),
        "interval-n-text": (lambda: interval_inequality_check(spec, 1.0, 10, seed=1, m=0, n="3"), "n", "3"),
        "coalescence-k-text": (lambda: estimate_coalescence(spec, "0" * 5, "1", 1.0, 10, seed=1), "k", "1"),
        "coalescence-k-bool": (lambda: estimate_coalescence(spec, "0" * 5, True, 1.0, 10, seed=1), "k", True),
    }
    call, name, value = calls[case]
    with pytest.raises(ValueError, match=r"^%s must be an integer >= 0, not %s$" % (name, re.escape(repr(value)))):
        call()


def test_run_length_decay_refuses_a_window_outside_the_lattice_before_the_engine_runs(monkeypatch):
    # it once refused such a window only after a full engine call
    monkeypatch.setattr(np.random, "default_rng", _no_work)
    monkeypatch.setattr(graphical, "batch_evolve", _no_work)
    with pytest.raises(ValueError, match=r"^window \[1, 5\] outside the lattice$"):
        run_length_decay(cpree(5), [(1, 3), (1, 5)], 1.0, 10, seed=1)


def test_run_length_decay_reports_numpy_integer_windows_as_ints():
    # a window of numpy integers once gave a report that to_json refused
    spec = cpree(9)
    reports = [run_length_decay(spec, [(cast(2), cast(5))], 0.5, 10, seed=1) for cast in (np.int64, int)]
    for rep in reports:
        rep.runtime_ms = 0.0
    assert reports[0].to_json() == reports[1].to_json()


def test_run_length_decay_functional_pass_holds_one_window_at_a_time(monkeypatch):
    # the benchmark's 300 x 64 stack and its 30 nested windows, within the
    # bound `window_run_counts` keeps: a (windows, replicas, N + 1) array
    # would hold 4.7 MB
    spec = preset("cpree", sites=64, **SUPERCRITICAL)
    stack = ordered_stack(np.random.default_rng(10).integers(0, 4, (300, 64)))
    windows = [(32 - k, 32 + k) for k in range(1, 31)]
    monkeypatch.setattr(graphical, "batch_evolve", lambda *args, **kwargs: SimpleNamespace(layers=[stack]))
    beta = spec.env_config("0" * 64)
    run_length_decay(spec, windows[:1], 0.05, 300, 1, initial=(beta, []))  # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        rep = run_length_decay(spec, windows, 0.05, 300, 1, initial=(beta, []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.extra["rows"]) == 30 and rep.extra["rows"][-1]["mean_runs"] > 0
    assert peak <= 1.5e6, "peak %d bytes" % peak


def _corner_windows(rng, size, quiet):
    """Windows that overlap, nest, repeat, share a start or an end, hold one
    site or only the sites of `quiet` (no disagreement site), in random
    order: enough for more than one corner-count block."""
    last, mid = size - 1, size // 2
    windows = [(mid - k, mid + k) for k in range(min(mid, last - mid) + 1)]  # nested
    windows += [(0, last), (0, last), (mid, mid), (0, 0), (last, last), (0, mid), (mid, last), (1, mid), (1, last - 1)]
    windows += [(quiet.start, quiet.stop - 1), (quiet.start + 1, quiet.stop - 2)]
    for _ in range(60):
        m = int(rng.integers(0, size))
        windows.append((m, int(rng.integers(m, size))))
    windows += windows[-10:]  # repeated
    return [windows[k] for k in rng.permutation(len(windows))]


@pytest.mark.parametrize("replicas, size", [(7, 12), (40, 33), (300, 64)])
def test_run_length_decay_interior_totals_equal_window_run_counts_summed(monkeypatch, replicas, size):
    # the corner count against the per-window masks of window_run_counts
    rng = np.random.default_rng(140 + size)
    cols = rng.integers(0, 4, (replicas, size))
    quiet = slice(size // 3, size // 3 + 4)
    cols[:, quiet] = rng.choice([0, 3], (replicas, 4))  # lower = upper: no disagreement site
    stack = ordered_stack(cols)
    windows = _corner_windows(rng, size, quiet)
    spec = preset("cpree", sites=size, **SUPERCRITICAL)
    monkeypatch.setattr(graphical, "batch_evolve", lambda *args, **kwargs: SimpleNamespace(layers=[stack]))
    distinct, blocks = functionals._distinct, []

    def counted(values):
        blocks.append(len(values))
        return distinct(values)

    monkeypatch.setattr(functionals, "_distinct", counted)
    rep = run_length_decay(spec, windows, 0.05, replicas, 1, initial=(spec.env_config("0" * size), []))
    assert len(blocks) > 2  # each block ranks its starts and its ends
    rows = rep.extra["rows"]
    assert [(row["m"], row["n"]) for row in rows] == windows
    for row, (runs, interior) in zip(rows, window_run_counts(*stack, windows)):
        totals = interior.sum(axis=0)
        assert row["mean_interior_runs"] == {l: int(c) / replicas for l, c in enumerate(totals) if c}
        assert list(row["mean_interior_runs"]) == sorted(row["mean_interior_runs"])
        assert row["mean_runs"] == runs.mean()
    quiet_rows = [row for row in rows if (row["m"], row["n"]) == (quiet.start, quiet.stop - 1)]
    assert quiet_rows and all(row["mean_runs"] == 0 and row["mean_interior_runs"] == {} for row in quiet_rows)
