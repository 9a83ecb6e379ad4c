from fractions import Fraction

import numpy as np
import pytest

from envspin import (
    Configuration,
    CoupledSpec,
    EnvRateSpec,
    EventStream,
    FrozenWords,
    JointState,
    LocalSpinRates,
    ModelSpec,
    ModelViolationError,
    PerLayerFrozen,
    SpinRatePair,
    classify_agreement,
    coupled_event_rates,
    evolve,
    interior_run_histogram,
    preset,
    simulate_coupled,
    window_rates,
)
from envspin import graphical
from envspin.coupling import _agreement_scan, _float_menu, _toggle_table, batch_simulate_pair, site_menu
from envspin.graphical import Event, Trajectory
from envspin.lattice import MutableWindow, layer_names, word_index

from _support import (
    GATE_LEVEL,
    WORKED_LOWER,
    WORKED_MIDDLE,
    WORKED_UPPER,
    check_agreement_moves,
    ordered_window_triples,
    pooled_chi_square,
    random_attractive_env,
    random_compatible_pair,
    random_env,
    random_ordered_triple,
    scaled_deaths,
    word_bits,
)


def spec_from(pair, env=None, sites=3):
    return ModelSpec(pair, env if env is not None else EnvRateSpec(0, (0.5, 0.25)), sites)


def make_state(spec, beta_bits, layer_bits):
    return JointState(
        spec.env_config(beta_bits),
        tuple(spec.spin_config(b) for b in layer_bits),
    )


def spin_menu(pair, bit, words):
    """The spin transitions of `site_menu` under background bit `bit`, as a
    dict from target to rate (a background of rate 0 adds none)."""
    return dict(site_menu(pair, EnvRateSpec(0, (0.0, 0.0)), bit, tuple(words)))


def flip_sets(menu, words):
    """Each spin target of a menu as the set of layers it flips."""
    return {
        frozenset(k for k, w in enumerate(words) if target[1 + k] != (w >> 1) & 1): rate
        for target, rate in menu.items()
    }


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
    c = pair.c0.values
    expect = {
        (0, 0, 0, 0): Fraction(c[0b111]),
        (0, 0, 1, 1): Fraction(c[0b000]) - Fraction(c[0b000]),
        (0, 1, 1, 1): Fraction(c[0b000]),
        (1, 0, 0, 1): Fraction(spec.env.table[0b0]),
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
    c = pair.c1.values
    lower, middle, upper = Fraction(c[0b000]), Fraction(c[0b001]), Fraction(c[0b011])
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
    assert spin == {(0, 0, 0, 0): Fraction(pair.c0.values[0b010])}


def test_non_attractive_table_raises_named_violation():
    vals = [1.0] * 8
    vals[0b000] = 2.0
    vals[0b001] = 0.5  # center-0 monotonicity broken
    bad = LocalSpinRates(vals)
    pair = SpinRatePair(bad, bad)
    spec = spec_from(pair, sites=3)
    state = make_state(spec, (0, 0, 0), [(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    # menus are cached by local word; a violation must raise on every call
    for _ in range(2):
        with pytest.raises(ModelViolationError) as err:
            coupled_event_rates(spec, state, 1)
        assert "attractivity" in str(err.value)


def test_center_one_violation_raises_named_violation():
    # only center-1 monotonicity is broken: c(010) < c(011) although the
    # word 010 lies below 011
    vals = [1.0] * 8
    vals[0b010] = 0.5
    vals[0b011] = 2.0
    bad = LocalSpinRates(vals)
    spec = spec_from(SpinRatePair(bad, bad), sites=3)
    state = make_state(spec, (0, 0, 0), [(0, 1, 0), (0, 1, 0), (0, 1, 1)])
    for _ in range(2):
        with pytest.raises(ModelViolationError) as err:
            coupled_event_rates(spec, state, 1)
        assert str(err.value) == (
            "attractivity failed: c0(010)=1/2 < c0(011)=2 with ordered center-1 layers"
        )


def test_window_rates_and_coupled_rates_agree_everywhere():
    rng = np.random.default_rng(53)
    for _ in range(10):
        pair = random_compatible_pair(rng)
        spec = spec_from(pair, random_env(rng))
        for words in ordered_window_triples():
            configs = [Configuration(word_bits(w)) for w in words]
            for bit in (0, 1):
                state = JointState(spec.env_config((bit,) * 3), tuple(configs))
                via_tables = {
                    k: v for k, v in coupled_event_rates(spec, state, 1).items() if k[0] == bit
                }
                via_windows = window_rates(pair, bit, words)
                assert via_tables == via_windows


def test_site_menu_matches_full_state_rates():
    # on a range-1 background, the word-level menu equals the interval rule
    # on the same words plus the background's own flip, and the rates read
    # off a full joint state with those words
    rng = np.random.default_rng(69)
    for _ in range(4):
        pair = random_compatible_pair(rng)
        env = EnvRateSpec(1, tuple(rng.integers(0, 8, 8) / 4))
        spec = spec_from(pair, env)
        for words in ordered_window_triples():
            centers = tuple((w >> 1) & 1 for w in words)
            for env_word in range(8):
                bit = (env_word >> 1) & 1
                expect = window_rates(pair, bit, words)
                if env.table[env_word] > 0:
                    expect[(1 - bit,) + centers] = Fraction(env.table[env_word])
                menu = site_menu(pair, env, env_word, words)
                assert isinstance(menu, tuple)
                assert dict(menu) == expect
                state = JointState(
                    Configuration(word_bits(env_word)), tuple(Configuration(word_bits(w)) for w in words)
                )
                assert coupled_event_rates(spec, state, 1) == expect


def test_coupled_rates_marginal_sums_exact():
    rng = np.random.default_rng(54)
    for _ in range(10):
        pair = random_compatible_pair(rng)
        for words in list(ordered_window_triples())[::5]:
            for bit in (0, 1):
                groups = flip_sets(spin_menu(pair, bit, words), words)
                for k, word in enumerate(words):
                    total = sum(rate for flips, rate in groups.items() if k in flips)
                    assert total == Fraction(pair.table(bit).values[word])


def test_four_layer_projections_match_three_layer_rule():
    # dropping either middle layer from the four-layer stack reproduces the
    # three-layer transition rule exactly
    rng = np.random.default_rng(55)
    cols4 = [(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)]
    for _ in range(6):
        pair = random_compatible_pair(rng)
        for trial in range(40):
            pick = rng.integers(0, len(cols4), 3)
            layers = [sum(cols4[p][k] << (2 - i) for i, p in enumerate(pick)) for k in range(4)]
            for bit in (0, 1):
                g4 = flip_sets(spin_menu(pair, bit, layers), layers)
                for drop, keep in ((2, (0, 1, 3)), (1, (0, 2, 3))):
                    words3 = [layers[k] for k in keep]
                    g3 = flip_sets(spin_menu(pair, bit, words3), words3)
                    projected = {}
                    for flips, rate in g4.items():
                        sub = frozenset(keep.index(k) for k in flips if k in keep)
                        if sub:
                            projected[sub] = projected.get(sub, Fraction(0)) + rate
                    assert projected == g3


def test_simulate_coupled_diagonal_absorbing():
    rng = np.random.default_rng(56)
    pair = random_compatible_pair(rng, positive=True)
    spec = spec_from(pair, random_env(rng, positive=True), sites=5)
    bits = (0, 1, 0, 0, 1)
    init = make_state(spec, (0, 0, 1, 0, 1), [bits, bits, bits])
    traj = simulate_coupled(CoupledSpec(spec, 3), init, seed=1, t_max=3.0)
    check_agreement_moves(traj)
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


def test_simulate_coupled_equal_starts_give_equal_runs():
    # the start's set-up is cached by (cspec, initial): two equal but distinct
    # starts, and the same start before and after its results are mutated,
    # give the same trajectory
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    bits = ((0, 1, 0, 1, 0, 1), [(0,) * 6, (0, 1, 0, 1, 0, 1), (1,) * 6])
    first, second = make_state(spec, *bits), make_state(spec, *bits)
    assert first == second and first is not second and first.beta is not second.beta
    cspec = CoupledSpec(spec, 3)

    def run(init):
        traj = simulate_coupled(cspec, init, seed=11, t_max=2.0)
        return traj, (traj.to_csv_text(), dict(traj.initial), dict(traj.final), list(traj.events))

    traj, reference = run(first)
    assert traj.events
    assert run(second)[1] == reference
    traj.initial["beta"] = spec.env_config((1,) * 6)
    traj.final["eta"] = spec.spin_config((1,) * 6)
    del traj.final["xi"]
    assert run(first)[1] == run(second)[1] == reference
    # each result holds dicts of its own
    again, _ = run(first)
    assert again.initial is not traj.initial and again.final is not traj.final


def test_simulate_coupled_start_violation_raises_on_every_call():
    vals = [1.0] * 8
    vals[0b000] = 2.0
    vals[0b001] = 0.5  # center-0 monotonicity broken
    bad = LocalSpinRates(vals)
    spec = spec_from(SpinRatePair(bad, bad), sites=3)
    state = make_state(spec, (0, 0, 0), [(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    for seed in (1, 1, 2):
        with pytest.raises(ModelViolationError, match="attractivity"):
            simulate_coupled(CoupledSpec(spec, 3), state, seed=seed, t_max=0.0)


def test_simulate_coupled_rejects_layers_other_than_arity():
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    init = make_state(spec, (0,) * 6, [(0,) * 6, (0, 1, 0, 1, 0, 1), (1,) * 6])
    with pytest.raises(ValueError, match="arity 4"):
        simulate_coupled(CoupledSpec(spec, 4), init, seed=1, t_max=1.0)


def _cpree4():
    return preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=4)


def _no_draw(*args, **kwargs):
    raise AssertionError("a generator was made before the start was checked")


def test_simulate_coupled_refuses_a_start_of_another_size(monkeypatch):
    # a 5-site start on a 4-site spec once gave a trajectory whose initial
    # state had 5 sites and whose final state had 4
    spec = _cpree4()
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    with pytest.raises(ValueError, match="^beta has 5 sites, not 4$"):
        simulate_coupled(CoupledSpec(spec, 1), make_state(spec, (0,) * 5, [(1,) * 5]), 1, 1.0)


def _pair_refuses_a_start_of_another_size(monkeypatch, replicas, words):
    # 5-site starts on a 4-site spec once gave (replicas, 4) arrays on both paths
    spec = _cpree4()
    assert graphical._holds_words(2, 4, 8, 8 * replicas) == words
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    five, four = spec.spin_config((1,) * 5), spec.spin_config((1,) * 4)
    for beta0, eta0, name in ((five, five, "beta"), (four, five, "eta")):
        with pytest.raises(ValueError, match="^%s has 5 sites, not 4$" % name):
            batch_simulate_pair(spec, beta0, eta0, 1.0, replicas, 1)


def test_pair_byte_path_refuses_a_start_of_another_size(monkeypatch):
    _pair_refuses_a_start_of_another_size(monkeypatch, 10, False)


def test_pair_word_path_refuses_a_start_of_another_size(monkeypatch):
    _pair_refuses_a_start_of_another_size(monkeypatch, 2000, True)


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
        kinds = _agreement_scan(Configuration(lo), Configuration(mid), Configuration(up))[2]
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


def _simulate_coupled_marginal_pvalue(sim_factor=1.0, seed=7000):
    """Chi-square p-value of the (background, spin) law that the
    generator-level simulator reaches at t = 1, replica r seeded seed + r,
    against the exact pair law; the simulator gets the spec with its death
    rates scaled by `sim_factor`, the generator the true spec."""
    from envspin import build_generator, semigroup_apply

    rng = np.random.default_rng(59)
    spec = spec_from(random_compatible_pair(rng, positive=True), random_env(rng, positive=True))
    G = build_generator(spec)
    exact = semigroup_apply(G, G.point_mass(G.encode([0b000, 0b111])), 1.0).dist

    sim = scaled_deaths(spec, sim_factor)
    init = make_state(sim, (0, 0, 0), [(1, 1, 1)])
    cspec = CoupledSpec(sim, 1)
    replicas = 3000
    states = np.empty(replicas, dtype=np.int64)
    for r in range(replicas):
        final = simulate_coupled(cspec, init, seed=seed + r, t_max=1.0).final
        states[r] = G.encode([G.bits_to_int(final["beta"].bits), G.bits_to_int(final["eta"].bits)])
    return pooled_chi_square(np.bincount(states, minlength=G.dim), exact)[2]


def test_simulate_coupled_marginal_matches_oracle():
    # the generator-level simulator, replica by replica, reproduces the exact
    # pair law at t = 1
    p = _simulate_coupled_marginal_pvalue()
    assert p >= GATE_LEVEL, p


def test_simulate_coupled_gate_catches_high_death_rates():
    # at 3000 replicas a 10 % defect is out of reach of the pooled test
    # (noncentrality about 19 on about 63 degrees of freedom); 30 % gives 170
    p = _simulate_coupled_marginal_pvalue(sim_factor=1.3)
    assert p < GATE_LEVEL, p


FROZEN_ENDS = FrozenWords("0", "0")
FROZEN_MIDDLES = (
    (0, 0, 0, 1, 1, 1),  # single interface, lower-side left
    (1, 1, 0, 0, 0, 0),  # single interface, upper-side left
    (0, 0, 0, 0, 0, 0),  # equal to the lower layer
    (1, 1, 1, 1, 1, 1),  # equal to the upper layer
)


def _frozen_window_runs():
    """(spec, initial triple, seed) for 25 seeds of each middle layer above,
    between all-0 and all-1 outer layers on a 6-site window with frozen 0
    ends.  On a ring A3/A4 are windowed notions, so the check needs frozen
    ends."""
    spec0 = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    spec = ModelSpec(spec0.spin, spec0.env, 6, FROZEN_ENDS)
    for k, mid_bits in enumerate(FROZEN_MIDDLES):
        init = JointState(
            Configuration((0,) * 6, FROZEN_ENDS),
            (
                Configuration((0,) * 6, FROZEN_ENDS),
                Configuration(mid_bits, FROZEN_ENDS),
                Configuration((1,) * 6, FROZEN_ENDS),
            ),
        )
        for seed in range(25):
            yield spec, init, 100 * (k + 1) + seed


def test_agreement_classes_absorbing_on_frozen_window():
    for spec, init, seed in _frozen_window_runs():
        check_agreement_moves(simulate_coupled(CoupledSpec(spec, 3), init, seed=seed, t_max=3.0))


def test_agreement_classes_absorbing_under_the_mark_engine():
    rings = 0
    for spec, init, seed in _frozen_window_runs():
        rings += check_agreement_moves(evolve(init.beta, init.layers, EventStream(spec, seed, 3.0)))
    assert rings > 0


@pytest.mark.parametrize(
    "middle, flip, moved",
    [
        ((0, 0, 0, 0, 0, 0), Event(0.5, 5, "gamma", 0, 1), r"\['A1'\] -> \['A3'\]"),
        ((0, 0, 0, 1, 1, 1), Event(0.5, 1, "gamma", 0, 1), r"\['A3'\] -> \['NONE'\]"),
    ],
    ids=["full-agreement-to-interface", "interface-out-of-the-union"],
)
def test_agreement_move_check_refuses_planted_twins(middle, flip, moved):
    def triple(mid):
        return {
            "beta": Configuration((0,) * 6, FROZEN_ENDS),
            "eta": Configuration((0,) * 6, FROZEN_ENDS),
            "gamma": Configuration(mid, FROZEN_ENDS),
            "xi": Configuration((1,) * 6, FROZEN_ENDS),
        }

    moved_middle = list(middle)
    moved_middle[flip.site] = flip.new
    traj = Trajectory(triple(middle), [flip], triple(moved_middle), 1.0)
    assert traj.verify_replay()
    with pytest.raises(AssertionError, match=moved):
        check_agreement_moves(traj)


@pytest.mark.parametrize(
    "n, radius, boundary",
    [(1, 1, None), (2, 2, None), (3, 1, None), (7, 2, None), (1, 2, FrozenWords("10", "01")),
     (5, 1, FrozenWords("1", "0")), (6, 2, FrozenWords("110", "01")), (4, 0, None), (1, 0, None),
     (3, 0, FrozenWords("1", "0")), (4, 1, PerLayerFrozen(FrozenWords("01", "10"), FrozenWords("1", "0"))),
     (5, 2, PerLayerFrozen(FrozenWords("10", "11"), FrozenWords("01", "00")))],
    ids=["ring1-r1", "ring2-r2", "ring3-r1", "ring7-r2", "frozen1-r2", "frozen5-r1", "frozen6-r2", "ring4-r0",
         "ring1-r0", "frozen3-r0", "per-layer4-r1", "per-layer5-r2"],
)
def test_packed_site_keys_follow_the_bits(n, radius, boundary):
    # simulate_coupled keeps one packed key per site and XORs each flip into
    # the keys that read it; replaying random runs, every site's key after
    # every jump equals the key rebuilt from the bits, also on rings so small
    # that a word reads one site more than once, and its menu is site_menu's
    rng = np.random.default_rng(700 + 10 * n + radius)
    pair = random_compatible_pair(rng, positive=True)
    env = random_attractive_env(rng, radius)
    spec = ModelSpec(pair, env, n, boundary) if boundary else ModelSpec(pair, env, n)
    jumps = 0
    for arity in (1, 3, 4):
        names = ("beta",) + layer_names(arity)
        for seed in range(4):
            cols = rng.integers(0, 4, n)
            layers = {1: [cols >= 2], 3: [cols == 3, cols >= 2, cols >= 1],
                      4: [cols == 3, cols >= 2, (cols >= 2) | (cols == 1), cols >= 1]}[arity]
            init = make_state(spec, tuple(rng.integers(0, 2, n)), [tuple(int(b) for b in l) for l in layers])
            traj = simulate_coupled(CoupledSpec(spec, arity), init, seed=seed, t_max=6.0)
            work = [MutableWindow(cfg) for cfg in (init.beta, *init.layers)]

            def rebuilt(x):
                key = word_index(work[0], x, radius)
                for layer in work[1:]:
                    key = key << 3 | word_index(layer, x, 1)
                return key

            base, toggles = _toggle_table(tuple(w.boundary for w in work), n, radius)
            keys = list(base)
            for f, w in enumerate(work):
                for x, b in enumerate(w.bits):
                    for y, bits in toggles[1 << f][x] if b else ():
                        keys[y] |= bits
            assert keys == [rebuilt(x) for x in range(n)]
            by_jump = {}
            for e in traj.events:
                by_jump.setdefault((e.time, e.site), []).append(e)
            for (_, x), flips in by_jump.items():
                mask = 0
                for e in flips:
                    f = names.index(e.layer)
                    work[f].flip(x)
                    mask |= 1 << f
                for y, bits in toggles[mask][x]:
                    keys[y] ^= bits
                assert keys == [rebuilt(y) for y in range(n)]
                jumps += 1
            for x, key in enumerate(keys):
                menu, _ = _float_menu(pair, env, arity, key)
                words = tuple(word_index(layer, x, 1) for layer in work[1:])
                want = site_menu(pair, env, word_index(work[0], x, radius), words)
                assert [entry[0] for entry in menu] == [float(rate) for _, rate in want]
    assert jumps >= 60
