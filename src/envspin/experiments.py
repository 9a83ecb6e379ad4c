"""Monte Carlo estimators and exact-oracle scenario drivers.

Every estimator is a deterministic function of (spec, seed, parameters) and
reports its replica count, standard error, window size and horizon alongside
the point estimate, so any number in a report can be regenerated.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import functionals, graphical, oracle
from .lattice import _count, _integers
from .rates import ModelSpec, dominating_rates, preset


@dataclass
class EstimateReport:
    scenario: str
    params: dict
    estimate: float
    stderr: float
    replicas: int
    seed: int
    window: object = None
    horizon: float = None
    runtime_ms: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), indent=2) + "\n"


def _mean_se(values):
    """Mean and standard error along the last axis, as floats or lists of floats."""
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=-1)
    size = values.shape[-1]
    se = values.std(axis=-1, ddof=1) / math.sqrt(size) if size > 1 else np.zeros_like(mean)
    return mean.tolist(), se.tolist()


def sample_ordered_triples(rng, replicas, n):
    """Per-site uniform draw over the four ordered columns (0,0,0) .. (1,1,1):
    returns (lower, middle, upper) bit arrays of shape (replicas, n)."""
    col = rng.integers(0, 4, size=(replicas, n))
    lower = (col == 3).astype(np.int8)
    middle = (col >= 2).astype(np.int8)
    upper = (col >= 1).astype(np.int8)
    return lower, middle, upper


def _window_sites(spec, k):
    """2k+1 contiguous sites recentred on the middle of the window."""
    n = spec.size
    _integers(0, k=k)
    if k < 0:
        raise ValueError("window half-width %s is negative" % k)
    if 2 * k + 1 > n:
        raise ValueError("window half-width %s does not fit in %d sites" % (k, n))
    k = int(k)
    center = n // 2
    return [(center + d) % n for d in range(-k, k + 1)]


def estimate_coalescence(spec: ModelSpec, beta0, k, t, replicas, seed) -> EstimateReport:
    """Probability that the all-zeros and all-ones spin starts, coupled through
    shared marks over the same background, agree on the recentred window
    [-k, k] at time t."""
    start = time.perf_counter()
    if isinstance(beta0, str):
        beta0 = spec.env_config(beta0)
    lo = spec.spin_config((0,) * spec.size)
    hi = spec.spin_config((1,) * spec.size)
    sites = _window_sites(spec, k)
    result = graphical.batch_evolve(spec, beta0, [lo, hi], [float(t)], replicas, seed)
    low_arr, high_arr = result.layers[-1]
    agree = (low_arr[:, sites] == high_arr[:, sites]).all(axis=1)
    mean, se = _mean_se(agree)
    extra = {}
    if spec.size <= oracle.MAX_SITES:
        # at oracle scale, report the exact long-time gap between the extreme
        # starts next to the agreement estimate; the estimate itself never
        # claims anything about that gap
        limits = oracle.limit_distributions(oracle.build_generator(spec))
        extra["oracle_tv_lower_upper"] = limits.tv_distance
        extra["oracle_limits_converged"] = limits.converged
    return EstimateReport(
        scenario="coalescence",
        params={"beta0": beta0.to_literal(), "k": k, "t": t},
        estimate=mean,
        stderr=se,
        replicas=replicas,
        seed=int(seed),
        window=2 * k + 1,
        horizon=float(t),
        runtime_ms=(time.perf_counter() - start) * 1e3,
        extra=extra,
    )


def density_curves(spec: ModelSpec, t_grid, replicas, seed) -> EstimateReport:
    """Mean spin density along t_grid from the two extreme joint starts
    (background and spin all zeros vs all ones), monotonically coupled; the
    engine keeps the lower pair below the upper pair at every ring."""
    start = time.perf_counter()
    grid = [float(t) for t in t_grid]
    _, snaps, _ = graphical.batch_envelope(spec, grid, replicas, seed)
    dens0, dens1, se0, se1 = [], [], [], []
    for _, low_arr, _, high_arr in snaps:
        m0, s0 = _mean_se(low_arr.mean(axis=1))
        m1, s1 = _mean_se(high_arr.mean(axis=1))
        dens0.append(m0)
        dens1.append(m1)
        se0.append(s0)
        se1.append(s1)
    gap = [b - a for a, b in zip(dens0, dens1)]
    return EstimateReport(
        scenario="density",
        params={"t_grid": grid},
        estimate=gap[-1] if gap else 1.0,
        stderr=max(se0[-1], se1[-1]) if se0 else 0.0,
        replicas=replicas,
        seed=int(seed),
        window=spec.size,
        horizon=grid[-1] if grid else 0.0,
        runtime_ms=(time.perf_counter() - start) * 1e3,
        extra={
            "t": grid,
            "density_from_zero": dens0,
            "density_from_one": dens1,
            "gap": gap,
            "se_from_zero": se0,
            "se_from_one": se1,
        },
    )


def density_csv_text(report: EstimateReport) -> str:
    rows = ["t,density_from_zero,density_from_one,gap"]
    e = report.extra
    for t, a, b, g in zip(e["t"], e["density_from_zero"], e["density_from_one"], e["gap"]):
        rows.append("%r,%r,%r,%r" % (t, a, b, g))
    return "\n".join(rows) + "\n"


def run_decay_csv_text(report: EstimateReport) -> str:
    """Per-window rows (m, n, mean run count, interior-run histogram) from a
    run-length decay report; histogram entries are "length:mean" pairs."""
    rows = ["m,n,f,g_histogram"]
    for row in report.extra["rows"]:
        hist = ";".join("%d:%r" % (l, v) for l, v in row["mean_interior_runs"].items())
        rows.append("%d,%d,%r,%s" % (row["m"], row["n"], row["mean_runs"], hist))
    return "\n".join(rows) + "\n"


def _random_coupled_run(spec, t_grid, replicas, seed):
    """Coupled triples from per-replica random ordered starts over a random
    background; returns the batch result."""
    replicas = _count("replicas", replicas, 1)
    rng = np.random.default_rng(seed)
    beta_bits = rng.integers(0, 2, size=(replicas, spec.size)).astype(np.int8)
    layers = sample_ordered_triples(rng, replicas, spec.size)
    sim_seed = int(rng.integers(0, 2**63 - 1))
    result = graphical.batch_evolve(
        spec,
        (beta_bits, spec.env_boundary),
        [(arr, spec.spin_boundary) for arr in layers],
        t_grid,
        replicas,
        sim_seed,
    )
    return result


def run_length_decay(spec: ModelSpec, windows, t, replicas, seed, initial=None) -> EstimateReport:
    """Normalized expected run count E[runs]/(n-m) over growing windows at a
    late time, from coupled three-layer samples.  The windows are checked
    once, before the engine runs; all their run counts come from one scan of
    the final stack (`functionals._window_queries`) and are reduced at once,
    and their interior-run totals by length from one corner count
    (`functionals._interior_totals`)."""
    start = time.perf_counter()
    bounds = functionals._window_bounds(windows, spec.size)
    windows = bounds.tolist()
    if initial is None:
        result = _random_coupled_run(spec, [float(t)], replicas, seed)
    else:
        beta0, layers = initial
        result = graphical.batch_evolve(spec, beta0, list(layers), [float(t)], replicas, seed)
    runs, _, length, lead, trail = functionals._window_queries(*result.layers[-1], bounds)
    means, ses = _mean_se(runs)
    totals = functionals._interior_totals(length, lead, trail, bounds).tolist()
    rows = []
    for (m, n), mean, se, counts in zip(windows, means, ses, totals):
        rows.append(
            {
                "m": m,
                "n": n,
                "mean_runs": mean,
                "se": se,
                "normalized": mean / (n - m if n > m else 1),
                "mean_interior_runs": {l: c / replicas for l, c in enumerate(counts) if c},
            }
        )
    return EstimateReport(
        scenario="run-decay",
        params={"windows": [list(w) for w in windows], "t": t},
        estimate=rows[-1]["normalized"] if rows else 0.0,
        stderr=rows[-1]["se"] / max(1, windows[-1][1] - windows[-1][0]) if rows else 0.0,
        replicas=replicas,
        seed=int(seed),
        window=spec.size,
        horizon=float(t),
        runtime_ms=(time.perf_counter() - start) * 1e3,
        extra={"rows": rows},
    )


def interval_inequality_check(spec: ModelSpec, t, replicas, seed, m, n, l=1) -> EstimateReport:
    """Estimate both sides of the stationary run-count inequalities from
    late-time coupled samples.

    With C and K the derived constants, near-stationary samples must satisfy
    C*E[interior runs of length 1 on [m,n]] <= K*E[runs(m-1,n) + runs(m,n+1)
    - 2*runs(m,n)] and C*E[runs of length l+1] <= 12*K*l*E[runs of length l].
    Each inequality is reported as held when the estimated slack is above
    -3 standard errors; a larger violation flags insufficient burn-in or an
    implementation bug.  The three windows [m, n], [m-1, n] and [m, n+1] are
    queries on one scan of the final stack (`functionals._window_queries`).
    The endpoints m, n and the run length l >= 1 (as (E) is stated) must
    be integers; they are checked before anything is drawn."""
    start = time.perf_counter()
    _integers(0, m=m, n=n)
    if not (0 < m <= n < spec.size - 1):
        raise ValueError("need 0 < m <= n < size-1 so both window extensions exist")
    m, n, l = int(m), int(n), _count("l", l, 1)
    result = _random_coupled_run(spec, [float(t)], replicas, seed)
    consts = dominating_rates(spec)
    C, K = consts.C, consts.K

    bounds = np.array([(m, n), (m - 1, n), (m, n + 1)], dtype=np.int64)
    (f_mn, f_left, f_right), row, length, lead, trail = functionals._window_queries(*result.layers[-1], bounds)
    inner = (lead >= m) & (trail <= n)
    # per-replica interior runs of length 1, l and l + 1 on [m, n]
    g_first, g_l, g_next = (np.bincount(row[inner & (length == k)], minlength=f_mn.size) for k in (1, l, l + 1))
    curvature = f_left + f_right - 2 * f_mn
    slack_d = K * curvature - C * g_first
    slack_e = 12.0 * K * l * g_l - C * g_next

    (mean_d, mean_e, mean_g1, mean_curv), (se_d, se_e, se_g1, se_curv) = _mean_se([slack_d, slack_e, g_first, curvature])
    holds_d = mean_d >= -3.0 * se_d
    holds_e = mean_e >= -3.0 * se_e
    return EstimateReport(
        scenario="interval-bounds",
        params={"t": t, "m": m, "n": n, "l": l, "C": C, "K": K},
        estimate=mean_d,
        stderr=se_d,
        replicas=replicas,
        seed=int(seed),
        window=n - m + 1,
        horizon=float(t),
        runtime_ms=(time.perf_counter() - start) * 1e3,
        extra={
            "lhs_d": C * mean_g1,
            "rhs_d": K * mean_curv,
            "slack_d_mean": mean_d,
            "slack_d_se": se_d,
            "holds_d_within_3sigma": bool(holds_d),
            "slack_e_mean": mean_e,
            "slack_e_se": se_e,
            "holds_e_within_3sigma": bool(holds_e),
            "mean_interior_singletons": mean_g1,
            "se_interior_singletons": se_g1,
            "mean_curvature": mean_curv,
            "se_curvature": se_curv,
        },
    )


@dataclass
class BurnIn:
    t_calibrated: float
    t_burn: float
    cal_sites: int
    tv_tol: float


CAL_SITES = 4  # periodic sites of the calibration window
TV_TOL = 1e-3  # total variation from the limit that counts as mixed
CAL_T0 = 1.0  # first time tried
CAL_DOUBLINGS = 24  # most doublings of the bracket


def calibrate_burn_in(spec: ModelSpec) -> BurnIn:
    """Pick a burn-in horizon from the exact oracle on a small window.

    The same tables are run on CAL_SITES periodic sites; the smallest time
    (doubling bracket from CAL_T0, then two bisection steps) at which the
    all-ones start is within TV_TOL of its limit is stretched by
    1 + log(size/CAL_SITES) as a heuristic for the real window.  The
    heuristic is reported, never claimed exact.
    """
    small = ModelSpec(spec.spin, spec.env, CAL_SITES)
    G = oracle.build_generator(small)
    limits = oracle.limit_distributions(G)
    target = limits.upper
    start = G.point_mass(G.dim - 1)

    def mixed(t):
        res = oracle.semigroup_apply(G, start, t)
        return oracle.total_variation(res.dist, target) < TV_TOL

    t = CAL_T0
    for _ in range(CAL_DOUBLINGS):
        if mixed(t):
            break
        t *= 2.0
    lo, hi = t / 2.0, t
    for _ in range(2):
        mid = 0.5 * (lo + hi)
        if mixed(mid):
            hi = mid
        else:
            lo = mid
    stretch = 1.0 + max(0.0, math.log(spec.size / CAL_SITES))
    return BurnIn(t_calibrated=hi, t_burn=hi * stretch, cal_sites=CAL_SITES, tv_tol=TV_TOL)


# ---------------------------------------------------------------------------
# remark scenarios (exact-oracle regime)


def scenario_remarks(name, sites=5, spec=None):
    """Structural stationary-set reports for the two counterexample scenarios.

    "iv": background with absorbing all-zeros and all-ones words over contact
    spins; the report lists the closed classes of the joint chain (at least
    two, one per frozen background phase).  "vi": background driven to all
    ones with spin rates vanishing on every one-step profile; each staircase
    is checked to be exactly absorbing (zero generator row).  Finite-window
    caveats are attached to every report.  A prebuilt `spec` overrides the
    preset construction.
    """
    if name == "iv":
        if spec is None:
            spec = preset("remark_iv", sites=sites)
        sites = spec.size
        G = oracle.build_generator(spec)
        S = oracle.stationary_set(G)
        width = 2 * spec.env.range + 1
        frozen_bg_words = [
            format(w, "0%db" % width) for w in (0, (1 << width) - 1) if spec.env.table[w] == 0.0
        ]
        classes = [[G.decode(s) for s in comp] for comp in S.closed_classes]
        return {
            "scenario": "remark-iv",
            "sites": sites,
            "frozen_background_words": frozen_bg_words,
            "n_closed_classes": S.dimension,
            "closed_classes_decoded": [
                [[format(f, "0%db" % sites) for f in state] for state in comp[:4]]
                for comp in classes
            ],
            "flagged": S.flagged,
            "caveats": [
                "a finite window cannot carry a surviving infinite-volume phase;"
                " only the closed-class structure is checked",
            ],
        }
    if name == "vi":
        if spec is None:
            spec = preset("remark_vi", sites=sites)
        sites = spec.size
        G = oracle.build_generator(spec)
        S = oracle.stationary_set(G)
        beta_all_one = (1 << sites) - 1
        staircases = []
        for a in range(sites + 1):
            bits = [0] * a + [1] * (sites - a)
            eta = G.bits_to_int(bits)
            s = G.encode([beta_all_one, eta])
            staircases.append(
                {
                    "profile": "".join(str(b) for b in bits),
                    "state_index": s,
                    "out_rate": G.out_rate(s),
                    "absorbing": G.out_rate(s) == 0.0,
                }
            )
        return {
            "scenario": "remark-vi",
            "sites": sites,
            "n_closed_classes": S.dimension,
            "staircases": staircases,
            "all_staircases_absorbing": all(st["absorbing"] for st in staircases),
            "flagged": S.flagged,
            "caveats": [
                "frozen boundary words stand in for the infinite staircase tails",
            ],
        }
    raise ValueError("unknown scenario %r" % name)
