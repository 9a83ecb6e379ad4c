from fractions import Fraction

import numpy as np
import pytest

from envspin import (
    Configuration,
    CoupledSpec,
    EnvRateSpec,
    FrozenWords,
    JointState,
    LocalSpinRates,
    ModelSpec,
    ModelViolationError,
    SpinRatePair,
    classify_agreement,
    coupled_event_rates,
    interior_run_histogram,
    preset,
    simulate_coupled,
    window_rates,
)
from envspin.coupling import agreement_memberships, spin_flip_groups
from envspin.lattice import order_pairs
from envspin.rates import TRIPLES

from _support import (
    GATE_LEVEL,
    WORKED_LOWER,
    WORKED_MIDDLE,
    WORKED_UPPER,
    ordered_window_triples,
    pooled_chi_square,
    random_compatible_pair,
    random_env,
    random_ordered_triple,
    scaled_deaths,
)


def spec_from(pair, env=None, sites=3):
    return ModelSpec(pair, env if env is not None else EnvRateSpec(0, (0.5, 0.25)), sites)


def make_state(spec, beta_bits, layer_bits):
    return JointState(
        spec.env_config(beta_bits),
        tuple(spec.spin_config(b) for b in layer_bits),
    )


def test_interpretation_row_half_coupled():
    # local column (eta, gamma, xi) = (0, 0, 1): the upper layer flips down
    # alone at its own rate, the middle alone at the rate excess over the
    # lower, and lower+middle flip up together at the lower rate
    rng = np.random.default_rng(50)
    pair = random_compatible_pair(rng, positive=True)
    spec = spec_from(pair, sites=3)
    state = make_state(spec, (0, 0, 0), [(0, 0, 0), (0, 0, 0), (1, 1, 1)])
    x = 1
    rates = coupled_event_rates(spec, state, x)
    c = pair.c0
    expect = {
        (0, 0, 0, 0): Fraction(c.rate(1, 1, 1)),
        (0, 0, 1, 1): Fraction(c.rate(0, 0, 0)) - Fraction(c.rate(0, 0, 0)),
        (0, 1, 1, 1): Fraction(c.rate(0, 0, 0)),
        (1, 0, 0, 1): Fraction(spec.env.rate_word("0")),
    }
    expect = {k: v for k, v in expect.items() if v > 0}
    assert rates == expect


def test_table_row_with_distinct_neighborhoods():
    # choose layer windows 000 < 001 < 011 so all three rates differ
    rng = np.random.default_rng(51)
    pair = random_compatible_pair(rng, positive=True)
    spec = spec_from(pair, sites=3)
    state = make_state(spec, (1, 1, 1), [(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    x = 1
    rates = coupled_event_rates(spec, state, x)
    c = pair.c1
    lower, middle, upper = Fraction(c.rate(0, 0, 0)), Fraction(c.rate(0, 0, 1)), Fraction(c.rate(0, 1, 1))
    spin = {k: v for k, v in rates.items() if k[0] == 1}
    expect = {
        (1, 0, 0, 0): upper,              # upper flips down alone
        (1, 0, 1, 1): middle - lower,     # middle flips up alone
        (1, 1, 1, 1): lower,              # lower+middle flip up together
    }
    expect = {k: v for k, v in expect.items() if v > 0}
    assert spin == expect


def test_all_equal_layers_single_joint_flip():
    rng = np.random.default_rng(52)
    pair = random_compatible_pair(rng, positive=True)
    spec = spec_from(pair, sites=3)
    state = make_state(spec, (0, 0, 0), [(0, 1, 0)] * 3)
    rates = coupled_event_rates(spec, state, 1)
    spin = {k: v for k, v in rates.items() if k[0] == 0}
    assert spin == {(0, 0, 0, 0): Fraction(pair.c0.rate(0, 1, 0))}


def test_non_attractive_table_raises_named_violation():
    vals = {t: 1.0 for t in TRIPLES}
    vals[(0, 0, 0)] = 2.0
    vals[(0, 0, 1)] = 0.5  # center-0 monotonicity broken
    bad = LocalSpinRates.from_dict(vals)
    pair = SpinRatePair(bad, bad)
    spec = spec_from(pair, sites=3)
    state = make_state(spec, (0, 0, 0), [(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    with pytest.raises(ModelViolationError) as err:
        coupled_event_rates(spec, state, 1)
    assert "attractivity" in str(err.value)


def test_window_rates_and_coupled_rates_agree_everywhere():
    rng = np.random.default_rng(53)
    for _ in range(10):
        pair = random_compatible_pair(rng)
        spec = spec_from(pair, random_env(rng))
        for words in ordered_window_triples():
            configs = [Configuration(w) for w in words]
            for bit in (0, 1):
                state = JointState(spec.env_config((bit,) * 3), tuple(configs))
                via_tables = {
                    k: v for k, v in coupled_event_rates(spec, state, 1).items() if k[0] == bit
                }
                via_windows = window_rates(pair, bit, words)
                assert via_tables == via_windows


def test_coupled_rates_marginal_sums_exact():
    rng = np.random.default_rng(54)
    for _ in range(10):
        pair = random_compatible_pair(rng)
        for words in list(ordered_window_triples())[::5]:
            for bit in (0, 1):
                groups = spin_flip_groups(pair, bit, words, order_pairs(3))
                for k, word in enumerate(words):
                    total = sum(rate for flips, rate in groups if k in flips)
                    assert total == Fraction(pair.table(bit).rate_word(word))


def test_four_layer_projections_match_three_layer_rule():
    # dropping either middle layer from the four-layer stack reproduces the
    # three-layer transition rule exactly
    rng = np.random.default_rng(55)
    cols4 = [(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)]
    for _ in range(6):
        pair = random_compatible_pair(rng)
        for trial in range(40):
            pick = rng.integers(0, len(cols4), 3)
            layers = ["".join(str(cols4[p][k]) for p in pick) for k in range(4)]
            for bit in (0, 1):
                g4 = spin_flip_groups(pair, bit, layers, order_pairs(4))
                for drop, keep in ((2, (0, 1, 3)), (1, (0, 2, 3))):
                    words3 = [layers[k] for k in keep]
                    g3 = spin_flip_groups(pair, bit, words3, order_pairs(3))
                    projected = {}
                    for flips, rate in g4:
                        sub = frozenset(keep.index(k) for k in flips if k in keep)
                        if sub:
                            projected[sub] = projected.get(sub, Fraction(0)) + rate
                    assert projected == {f: r for f, r in g3}


def test_simulate_coupled_diagonal_absorbing():
    rng = np.random.default_rng(56)
    pair = random_compatible_pair(rng, positive=True)
    spec = spec_from(pair, random_env(rng, positive=True), sites=5)
    bits = (0, 1, 0, 0, 1)
    init = make_state(spec, (0, 0, 1, 0, 1), [bits, bits, bits])
    traj = simulate_coupled(CoupledSpec(spec, 3), init, seed=1, t_max=3.0, watch_class=True)
    finals = [traj.final[n].bits for n in ("eta", "gamma", "xi")]
    assert finals[0] == finals[1] == finals[2]
    # spin flips always hit all three layers at the same instant
    spins = [e for e in traj.events if e.layer != "beta"]
    by_time = {}
    for e in spins:
        by_time.setdefault(e.time, set()).add(e.layer)
    assert all(layers == {"eta", "gamma", "xi"} for layers in by_time.values())


def test_simulate_coupled_replay_and_order():
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    init = make_state(
        spec, (0, 1, 0, 1, 0, 1),
        [(0,) * 6, (0, 1, 0, 1, 0, 1), (1,) * 6],
    )
    traj = simulate_coupled(CoupledSpec(spec, 3), init, seed=4, t_max=4.0)
    traj.verify_replay()
    final = [traj.final[n].bits for n in ("eta", "gamma", "xi")]
    assert all(a <= b for a, b in zip(final[0], final[1]))
    assert all(a <= b for a, b in zip(final[1], final[2]))


def test_classification_examples():
    eta, xi = Configuration("0000"), Configuration("1111")
    assert classify_agreement(eta, Configuration("0000"), xi).kind == "A1"
    assert classify_agreement(eta, Configuration("1111"), xi).kind == "A2"
    got = classify_agreement(eta, Configuration("0011"), xi)
    assert (got.kind, got.interface) == ("A3", 1)
    got = classify_agreement(eta, Configuration("1100"), xi)
    assert (got.kind, got.interface) == ("A4", 1)
    assert classify_agreement(eta, Configuration("0110"), xi).kind == "NONE"
    # middle equals lower but not upper somewhere
    assert classify_agreement(
        Configuration("0101"), Configuration("0101"), Configuration("0111")
    ).kind == "A1"
    # the worked example has an interior run, so no agreement class fits
    assert classify_agreement(
        Configuration(WORKED_LOWER), Configuration(WORKED_MIDDLE), Configuration(WORKED_UPPER)
    ).kind == "NONE"
    with pytest.raises(ValueError):
        classify_agreement(Configuration("10"), Configuration("01"), Configuration("11"))


def test_classification_interface_clauses_brute_force():
    # verify the reported interface satisfies the defining clauses by scanning
    # every candidate split position
    rng = np.random.default_rng(57)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        lo, mid, up = random_ordered_triple(rng, n)
        got = classify_agreement(Configuration(lo), Configuration(mid), Configuration(up))
        if got.kind in ("A3", "A4"):
            x = got.interface
            left_ref, right_ref = (lo, up) if got.kind == "A3" else (up, lo)
            assert all(mid[y] == left_ref[y] for y in range(n) if y <= x)
            assert all(mid[y] == right_ref[y] for y in range(n) if y > x)
            assert mid != lo and mid != up


def test_classification_matches_empty_interior_runs():
    rng = np.random.default_rng(58)
    for _ in range(400):
        n = int(rng.integers(1, 10))
        lo, mid, up = random_ordered_triple(rng, n)
        kinds = agreement_memberships(Configuration(lo), Configuration(mid), Configuration(up))
        empty = all(
            not interior_run_histogram(lo, mid, up, m, k)
            for m in range(n)
            for k in range(m, n)
        )
        assert ("NONE" not in kinds) == empty


def _three_layer_law_pvalue(sim_factor=1.0, seed=61):
    """Chi-square p-value of the shared-mark replica engine's joint law of
    (background, three ordered layers) against the coupled generator's exact
    law; the engine gets the spec with its death rates scaled by
    `sim_factor`, the generator the true spec."""
    from envspin import build_coupled_generator, semigroup_apply
    from envspin.graphical import batch_evolve

    rng = np.random.default_rng(60)
    spec = spec_from(random_compatible_pair(rng, positive=True), random_env(rng, positive=True), sites=2)
    G = build_coupled_generator(spec, 3)
    start = G.encode([0b00, 0b00, 0b01, 0b11])
    t = 0.7
    exact = semigroup_apply(G, G.point_mass(start), t).dist

    sim = scaled_deaths(spec, sim_factor)
    replicas = 40000
    res = batch_evolve(
        sim,
        sim.env_config((0, 0)),
        [sim.spin_config((0, 0)), sim.spin_config((0, 1)), sim.spin_config((1, 1))],
        [t],
        replicas,
        seed=seed,
    )
    weights = 1 << np.arange(1, -1, -1)
    state = (res.background[-1] * weights).sum(axis=1)
    for arr in res.layers[-1]:
        state = (state << 2) | (arr * weights).sum(axis=1)
    return pooled_chi_square(np.bincount(state, minlength=G.dim), exact)[2]


def test_batch_three_layer_law_matches_coupled_generator():
    # the shared-mark replica engine and the generator built from the
    # transition-table rule produce the same joint law for the full
    # (background, three ordered layers) chain
    p = _three_layer_law_pvalue()
    assert p >= GATE_LEVEL, p


def test_three_layer_law_gate_catches_high_death_rates():
    p = _three_layer_law_pvalue(sim_factor=1.1)
    assert p < GATE_LEVEL, p


def test_simulate_coupled_marginal_matches_oracle():
    # the generator-level simulator, replica by replica, reproduces the exact
    # pair law at t = 1
    from envspin import build_generator, semigroup_apply
    from _support import empirical_pair_distribution, max_z_score
    import numpy as np

    rng = np.random.default_rng(59)
    spec = spec_from(random_compatible_pair(rng, positive=True), random_env(rng, positive=True))
    G = build_generator(spec)
    exact = semigroup_apply(G, G.point_mass(G.encode([0b000, 0b111])), 1.0).dist
    replicas = 3000
    B = np.empty((replicas, 3), dtype=np.int8)
    E = np.empty((replicas, 3), dtype=np.int8)
    init = make_state(spec, (0, 0, 0), [(1, 1, 1)])
    cspec = CoupledSpec(spec, 1)
    for r in range(replicas):
        traj = simulate_coupled(cspec, init, seed=7000 + r, t_max=1.0)
        B[r] = traj.final["beta"].bits
        E[r] = traj.final["eta"].bits
    z = max_z_score(empirical_pair_distribution(B, E), exact, replicas)
    assert z <= 3.5, z


def test_agreement_classes_absorbing_on_frozen_window():
    spec0 = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    bnd = FrozenWords("0", "0")
    spec = ModelSpec(spec0.spin, spec0.env, 6, bnd)

    def run(mid_bits, seed):
        init = JointState(
            Configuration((0,) * 6, bnd),
            (
                Configuration((0,) * 6, bnd),
                Configuration(mid_bits, bnd),
                Configuration((1,) * 6, bnd),
            ),
        )
        simulate_coupled(CoupledSpec(spec, 3), init, seed=seed, t_max=3.0, watch_class=True)

    for seed in range(25):
        run((0, 0, 0, 1, 1, 1), 100 + seed)  # single interface, lower-side left
        run((1, 1, 0, 0, 0, 0), 200 + seed)  # single interface, upper-side left
        run((0, 0, 0, 0, 0, 0), 300 + seed)  # equal to the lower layer
        run((1, 1, 1, 1, 1, 1), 400 + seed)  # equal to the upper layer
