"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Statistical criteria use
fixed seeds so the suite is deterministic and compare against exact oracle
values computed in-process: criterion 3 by chi-square tests at the stated
family-wise level `GATE_LEVEL`, the other estimates at 3 standard errors.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from envspin import (
    Configuration,
    CoupledSpec,
    EnvRateSpec,
    JointState,
    ModelSpec,
    build_coupled_generator,
    build_generator,
    calibrate_burn_in,
    coupled_event_rates,
    estimate_coalescence,
    interior_run_histogram,
    interval_inequality_check,
    interval_run_count,
    limit_distributions,
    preset,
    semigroup_apply,
    simulate_coupled,
    stationary_set,
    window_rates,
)
from envspin import coupling, graphical
from envspin.cli import main as cli_main
from envspin.experiments import sample_ordered_quadruples
from envspin.graphical import exact_table

from _support import (
    GATE_LEVEL,
    WORKED_LOWER,
    WORKED_MIDDLE,
    WORKED_UPPER,
    all_ordered_triples,
    empirical_pair_distribution,
    ordered_window_triples,
    pooled_chi_square,
    random_compatible_pair,
    random_ordered_triple,
    random_positive_spec,
    scaled_deaths,
)


def cpree(sites, **kw):
    params = dict(gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0)
    params.update(kw)
    return preset("cpree", sites=sites, **params)


def test_criterion_1_worked_example_golden():
    lo = tuple(int(v) for v in WORKED_LOWER)
    mid = tuple(int(v) for v in WORKED_MIDDLE)
    up = tuple(int(v) for v in WORKED_UPPER)
    interval_run_count(lo, mid, up, 0, 10)  # warm-up
    start = time.perf_counter()
    f = interval_run_count(lo, mid, up, 0, 10)
    g = interior_run_histogram(lo, mid, up, 0, 10)
    elapsed = time.perf_counter() - start
    assert f == 4
    assert g == {2: 1, 3: 1}
    assert all(g.get(l, 0) == 0 for l in range(1, 12) if l not in (2, 3))
    assert elapsed < 1e-3
    print("ACCEPTANCE 1 PASS: worked example gives runs=4, interior={2:1,3:1} in %.3f ms"
          % (elapsed * 1e3))


def _transcribed_tables(pair, bit, words):
    """Independent transcription of the published coupled-rate tables."""
    table = exact_table(pair.table(bit).values)
    e, g, x = (table[int(w, 2)] for w in words)
    rows = {
        (0, 0, 0): {(0, 0, 1): x - g, (0, 1, 1): g - e, (1, 1, 1): e},
        (0, 0, 1): {(0, 0, 0): x, (0, 1, 1): g - e, (1, 1, 1): e},
        (0, 1, 1): {(0, 0, 0): x, (0, 0, 1): g - x, (1, 1, 1): e},
        (1, 1, 1): {(0, 0, 0): x, (0, 0, 1): g - x, (0, 1, 1): e - g},
    }
    ctr = tuple(int(w[1]) for w in words)
    return {(bit,) + t: r for t, r in rows[ctr].items() if r > 0}


# eight per-pair local triples: the four ordered center columns, each with
# two neighbor-column choices that make the three layer windows pairwise
# distinct, so every rate argument differs
_CENTER_COLUMNS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
_NEIGHBOR_CHOICES = (((0, 0, 1), (0, 1, 1)), ((0, 1, 1), (0, 0, 1)))


def _discriminating_triples():
    for center in _CENTER_COLUMNS:
        for left, right in _NEIGHBOR_CHOICES:
            yield tuple(
                "%d%d%d" % (left[k], center[k], right[k]) for k in range(3)
            )


def test_criterion_2_coupling_table_identity():
    rng = np.random.default_rng(77)
    cp = cpree(3)
    random_pairs = [random_compatible_pair(rng) for _ in range(100)]
    env = EnvRateSpec(0, (0.0, 0.0))
    all_triples = list(ordered_window_triples())
    states = {}
    for words in all_triples:
        cfgs = tuple(Configuration(w) for w in words)
        for bit in (0, 1):
            states[(words, bit)] = JointState(Configuration((bit,) * 3), cfgs)

    def check(pair, words, bit):
        via_intervals = window_rates(pair, bit, words)
        via_tables = _transcribed_tables(pair, bit, words)
        spec = ModelSpec(pair, env, 3)
        via_coupling = {
            k: v for k, v in coupled_event_rates(spec, states[(words, bit)], 1).items()
            if k[0] == bit
        }
        assert via_intervals == via_tables == via_coupling, (words, bit)

    start = time.perf_counter()
    checked = 0
    # the stock preset and the first ten random pairs: every ordered
    # assignment of layer neighborhoods
    for pair in [cp.spin] + random_pairs[:10]:
        for words in all_triples:
            for bit in (0, 1):
                check(pair, words, bit)
                checked += 1
    # every random pair: the eight discriminating local triples
    for pair in random_pairs:
        for words in _discriminating_triples():
            for bit in (0, 1):
                check(pair, words, bit)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("ACCEPTANCE 2 PASS: %d exact identities (interval = table = coupling) in %.2f s"
          % (checked, elapsed))


def _criterion_3_pvalues(sim_factor=1.0, seeds=(1, 1001)):
    """Chi-square p-values of the mark-driven and the generator-level
    simulator against the exact pair law at t=1; the simulators get the spec
    with its death rates scaled by `sim_factor`, the oracle the true spec."""
    spec = random_positive_spec(np.random.default_rng(101), sites=3)
    G = build_generator(spec)
    start_state = G.encode([0b000, 0b111])
    exact = semigroup_apply(G, G.point_mass(start_state), 1.0).dist
    sim = scaled_deaths(spec, sim_factor)
    beta0 = sim.env_config((0, 0, 0))
    eta0 = sim.spin_config((1, 1, 1))
    replicas = 100_000

    res = graphical.batch_evolve(sim, beta0, [eta0], [1.0], replicas, seed=seeds[0])
    emp1 = empirical_pair_distribution(res.background[-1], res.layers[-1][0])
    B, E = coupling.batch_simulate_pair(sim, beta0, eta0, 1.0, replicas, seed=seeds[1])
    emp2 = empirical_pair_distribution(B, E)
    return [pooled_chi_square(emp * replicas, exact)[2] for emp in (emp1, emp2)]


def test_criterion_3_marginal_oracle_agreement():
    start = time.perf_counter()
    p1, p2 = _criterion_3_pvalues()
    elapsed = time.perf_counter() - start
    # two gates share the family-wise level
    assert p1 >= GATE_LEVEL / 2, p1
    assert p2 >= GATE_LEVEL / 2, p2
    assert elapsed < 60.0
    print("ACCEPTANCE 3 PASS: chi-square p = %.3g (mark-driven) / %.3g (generator-level)"
          " against the exact law at 1e5 replicas, family level %g, in %.1f s"
          % (p1, p2, GATE_LEVEL, elapsed))


def test_criterion_3_gate_catches_high_death_rates():
    # every death rate 10 % high in the simulators' spec must fail both gates
    p1, p2 = _criterion_3_pvalues(sim_factor=1.1)
    assert p1 < GATE_LEVEL / 2, p1
    assert p2 < GATE_LEVEL / 2, p2


def test_criterion_4_monotonicity_suite():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    violations = 0
    replicas_total = 0
    for rep in range(5):
        spec = random_positive_spec(rng, sites=8)
        replicas = 2000
        beta = rng.integers(0, 2, (replicas, 8)).astype(np.int8)
        layers = sample_ordered_quadruples(rng, replicas, 8)
        res = graphical.batch_evolve(
            spec,
            (beta, spec.env_boundary),
            [(a, spec.spin_boundary) for a in layers],
            [2.0],
            replicas,
            seed=1000 + rep,
            on_violation="count",
        )
        violations += res.order_violations
        replicas_total += replicas
        for low_arr, m1_arr, m2_arr, high_arr in [res.layers[-1]]:
            assert (low_arr <= m1_arr).all() and (m1_arr <= high_arr).all()
            assert (low_arr <= m2_arr).all() and (m2_arr <= high_arr).all()
    # event-level assertions on the generator-level path as well
    spec = cpree(6)
    for seed in range(100):
        cols = np.random.default_rng(9000 + seed).integers(0, 4, 6)
        lo = tuple(int(c == 3) for c in cols)
        m1 = tuple(int(c >= 2) for c in cols)
        hi = tuple(int(c >= 1) for c in cols)
        init = JointState(
            spec.env_config((0, 1) * 3),
            (spec.spin_config(lo), spec.spin_config(m1), spec.spin_config(m1),
             spec.spin_config(hi)),
        )
        simulate_coupled(CoupledSpec(spec, 4), init, seed=seed, t_max=1.5, assert_order=True)
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 60.0
    print("ACCEPTANCE 4 PASS: 0 order violations over %d four-layer replicas"
          " (+100 event-asserted runs) in %.1f s" % (replicas_total, elapsed))


def test_criterion_5_deterministic_functional_suite():
    checks = 0
    for length in range(1, 7):
        for lo, mid, up in all_ordered_triples(length):
            cache = {}
            for m in range(length):
                for n in range(m, length):
                    f = interval_run_count(lo, mid, up, m, n)
                    g = interior_run_histogram(lo, mid, up, m, n)
                    cache[(m, n)] = (f, g)
                    assert f <= 2 + sum(g.values())
                    assert sum(l * c for l, c in g.items()) <= n - m + 1
                    checks += 1
            for (m, n), (f, g) in cache.items():
                for wider in ((m - 1, n), (m, n + 1)):
                    if wider in cache:
                        f2, g2 = cache[wider]
                        assert f2 >= f
                        assert f2 <= f + 1
                        assert all(g2.get(l, 0) >= c for l, c in g.items())

    rng = np.random.default_rng(505)
    for _ in range(100_000):
        length = int(rng.integers(1, 13))
        lo, mid, up = random_ordered_triple(rng, length)
        m = int(rng.integers(0, length))
        n = int(rng.integers(m, length))
        f = interval_run_count(lo, mid, up, m, n)
        g = interior_run_histogram(lo, mid, up, m, n)
        assert f <= 2 + sum(g.values())
        assert sum(l * c for l, c in g.items()) <= n - m + 1
        if m > 0:
            f2 = interval_run_count(lo, mid, up, m - 1, n)
            assert f <= f2 <= f + 1
        if n < length - 1:
            g2 = interior_run_histogram(lo, mid, up, m, n + 1)
            assert all(g2.get(l, 0) >= c for l, c in g.items())
        checks += 1
    print("ACCEPTANCE 5 PASS: growth/bound identities over %d windows"
          " (exhaustive length <= 6 plus 1e5 random length <= 12), zero violations" % checks)


def test_criterion_6_stationary_structure():
    rng = np.random.default_rng(606)
    for k in range(20):
        spec = random_positive_spec(rng, sites=3)
        G = build_generator(spec)
        S = stationary_set(G)
        assert S.dimension == 1, "spec %d: dimension %d" % (k, S.dimension)
        assert not S.flagged
        L = limit_distributions(G)
        assert L.converged
        assert L.tv_distance < 1e-6, L.tv_distance

    spec = preset("remark_vi", sites=5)
    G = build_generator(spec)
    n = spec.size
    for a in range(n + 1):
        eta = G.bits_to_int([0] * a + [1] * (n - a))
        state = G.encode([(1 << n) - 1, eta])
        assert G.out_rate(state) == 0.0, "staircase 0^%d1^%d is not frozen" % (a, n - a)
    S = stationary_set(G)
    assert S.dimension >= 2
    print("ACCEPTANCE 6 PASS: 20 positive specs give a unique stationary law with"
          " TV(lower, upper) < 1e-6; frozen-boundary staircases are exact zero rows"
          " and the stationary set has %d extreme points" % S.dimension)


def test_criterion_7_interval_inequalities_at_scale():
    start = time.perf_counter()
    spec = cpree(64)
    burn = calibrate_burn_in(spec, cal_sites=4, tv_tol=1e-3)
    rep = interval_inequality_check(
        spec, t=burn.t_burn, replicas=10_000, seed=2, m=24, n=40, l=1
    )
    elapsed = time.perf_counter() - start
    assert rep.extra["holds_d_within_3sigma"]
    assert rep.extra["holds_e_within_3sigma"]
    assert elapsed < 300.0
    print("ACCEPTANCE 7 PASS: both stationary inequalities hold within 3 SE at"
          " 64 sites, burn-in t=%.1f (oracle-calibrated %.1f), 1e4 samples, %.0f s"
          % (burn.t_burn, burn.t_calibrated, elapsed))


def test_criterion_8_coalescence_estimator_validity():
    spec = cpree(3)
    k, t, replicas = 1, 1.0, 100_000
    start = time.perf_counter()
    zero = estimate_coalescence(spec, "000", k, 0.0, 1000, seed=1)
    assert zero.estimate == 0.0

    G = build_coupled_generator(spec, 2)
    joint_start = G.encode([0b000, 0b000, 0b111])
    dist = semigroup_apply(G, G.point_mass(joint_start), t).dist
    center = spec.size // 2
    window = sorted({(center + d) % spec.size for d in range(-k, k + 1)})
    exact = 0.0
    for s, p in enumerate(dist):
        _, low_bits, high_bits = G.decode(s)
        if all(
            ((low_bits >> (spec.size - 1 - x)) & 1) == ((high_bits >> (spec.size - 1 - x)) & 1)
            for x in window
        ):
            exact += p
    rep = estimate_coalescence(spec, "000", k, t, replicas, seed=1)
    se = math.sqrt(exact * (1 - exact) / replicas)
    z = abs(rep.estimate - exact) / se
    elapsed = time.perf_counter() - start
    assert z <= 3.0, z
    assert elapsed < 60.0
    print("ACCEPTANCE 8 PASS: estimate %.4f vs exact %.4f (z=%.2f) at 1e5 replicas;"
          " zero horizon gives exactly 0; %.1f s" % (rep.estimate, exact, z, elapsed))


CLI_SPEC = ["--preset", "cpree", "--gamma", "1", "--delta0", "2", "--delta1", "1",
            "--p", "0.5", "--lambda", "1"]


def _strip_runtime(path):
    data = json.loads(Path(path).read_text())
    data.pop("runtime_ms", None)
    return data


def test_criterion_9_cli_determinism(tmp_path):
    jobs = [
        ("sim", ["simulate", *CLI_SPEC, "--sites", "16", "--tmax", "4", "--seed", "42"],
         [".csv"]),
        ("cpl", ["couple", *CLI_SPEC, "--sites", "8", "--layers", "3", "--tmax", "2",
                 "--seed", "5"], [".csv"]),
        ("orc", ["oracle", *CLI_SPEC, "--sites", "3"],
         [".generator.csv", ".stationary0.csv", ".nu0.csv", ".nu1.csv", ".summary.json"]),
        ("sco", ["scenario", "coalescence", *CLI_SPEC, "--sites", "9", "--window", "2",
                 "--tmax", "2", "--replicas", "2000", "--seed", "7"], [".report.json"]),
        ("svi", ["scenario", "vi", "--sites", "5"], [".report.json"]),
    ]
    for name, args, suffixes in jobs:
        first = tmp_path / (name + "1")
        again = tmp_path / (name + "2")
        replayed = tmp_path / (name + "3")
        assert cli_main([*args, "--out", str(first)]) == 0
        assert cli_main([*args, "--out", str(again)]) == 0
        assert cli_main(["replay", str(first) + ".manifest.json", "--out", str(replayed)]) == 0
        for suffix in suffixes:
            a = Path(str(first) + suffix)
            b = Path(str(again) + suffix)
            c = Path(str(replayed) + suffix)
            if suffix == ".report.json":
                # reports carry a wall-clock runtime field; everything else is
                # byte-reproducible
                assert _strip_runtime(a) == _strip_runtime(b) == _strip_runtime(c)
            else:
                assert a.read_bytes() == b.read_bytes() == c.read_bytes(), (name, suffix)
    print("ACCEPTANCE 9 PASS: simulate/couple/oracle/scenario reruns and manifest"
          " replays reproduce their data files byte for byte")
