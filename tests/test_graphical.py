import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from envspin import (
    Configuration,
    EnvRateSpec,
    SpinRatePair,
    batch_envelope,
    batch_evolve,
    density_curves,
    evolve_background,
    evolve_spins,
    generate_streams,
    preset,
    window_rates,
)
from envspin.graphical import EventBudgetError, accept_window, exact_clock, exact_table
from envspin.lattice import MutableWindow
from envspin.rates import LocalSpinRates, ModelSpec, TRIPLES

from _support import ordered_triple_configs, ordered_window_triples, random_compatible_pair, random_env


def cpree(sites=6, **kw):
    params = dict(gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0)
    params.update(kw)
    return preset("cpree", sites=sites, **params)


def test_streams_deterministic():
    spec = cpree()
    a = generate_streams(spec, seed=7, t_max=5.0)
    b = generate_streams(spec, seed=7, t_max=5.0)
    for x in (0, 3, 5):
        sa, sb = a.site(x), b.site(x)
        assert np.array_equal(sa.spin_times, sb.spin_times)
        assert np.array_equal(sa.bg_marks, sb.bg_marks)
        assert np.array_equal(sa.spin_marks0, sb.spin_marks0)
    c = generate_streams(spec, seed=8, t_max=5.0)
    assert not np.array_equal(a.site(0).spin_times, c.site(0).spin_times)


def test_zero_background_rate_gives_no_events():
    spec = preset("contact", lam=1.0, delta=1.0, sites=4)
    stream = generate_streams(spec, seed=0, t_max=50.0)
    assert spec.constants().b_bar == 0.0
    for x in range(4):
        assert stream.site(x).bg_times.size == 0


def test_clock_mean_gap_matches_rate():
    spec = cpree(sites=1)
    c_bar = spec.constants().c_bar
    stream = generate_streams(spec, seed=3, t_max=20000.0, max_events=10**7)
    times = stream.site(0).spin_times
    gaps = np.diff(times)
    assert gaps.size > 10**5
    mean = gaps.mean()
    tol = 3.0 * (1.0 / c_bar) / math.sqrt(gaps.size)
    assert abs(mean - 1.0 / c_bar) < tol
    assert (gaps > 0).all()


def test_event_budget_enforced():
    spec = cpree(sites=4)
    stream = generate_streams(spec, seed=0, t_max=1000.0, max_events=100)
    with pytest.raises(EventBudgetError):
        stream.site(0)
        stream.site(1)


def test_marks_within_ranges():
    spec = cpree(sites=3)
    consts = spec.constants()
    stream = generate_streams(spec, seed=5, t_max=50.0)
    for x in range(3):
        s = stream.site(x)
        assert (s.bg_marks >= 0).all() and (s.bg_marks <= consts.b_bar).all()
        assert (s.spin_marks0 <= consts.c_bar0).all()
        assert (s.spin_marks1 <= consts.c_bar1).all()
        assert (np.diff(s.bg_times) > 0).all()


def test_background_rule_against_independent_replay():
    # recompute every accepted/rejected ring by the acceptance definition
    spec = preset("remark_iv", sites=5)
    stream = generate_streams(spec, seed=11, t_max=4.0)
    beta0 = spec.env_config((0, 1, 0, 0, 1))
    traj = evolve_background(beta0, stream)
    traj.verify_replay()

    b_bar = spec.constants().b_bar
    rows = []
    for x in range(5):
        s = stream.site(x)
        rows += [(t, x, d) for t, d in zip(s.bg_times, s.bg_marks)]
    rows.sort()
    state = MutableWindow(beta0)
    expected = []
    for t, x, d in rows:
        rate = spec.env.rate_index(state.word_index(x, spec.env.range))
        if state.bits[x] == 0 and d >= b_bar - rate:
            expected.append((t, x, 0, 1))
            state.flip(x)
        elif state.bits[x] == 1 and d < rate:
            expected.append((t, x, 1, 0))
            state.flip(x)
    assert [(e.time, e.site, e.old, e.new) for e in traj.events] == expected
    assert traj.final["beta"].bits == tuple(state.bits)


def test_cpree_center_zero_threshold():
    # b_bar = gamma, so a 0-site flips exactly when its mark clears gamma*(1-p)
    spec = cpree(sites=1, gamma=1.0, p=0.3)
    stream = generate_streams(spec, seed=2, t_max=30.0)
    s = stream.site(0)
    traj = evolve_background(spec.env_config((0,)), stream)
    state = 0
    for t, d in zip(s.bg_times, s.bg_marks):
        flipped = any(e.time == t for e in traj.events)
        if state == 0:
            assert flipped == (d >= 1.0 - 0.3)
        else:
            assert flipped == (d < 0.7)
        state ^= flipped
    assert traj.final["beta"].bits[0] == state


def test_two_state_background_closed_form():
    u, d = 0.8, 0.5
    env = EnvRateSpec(0, (u, d))
    pair = SpinRatePair(LocalSpinRates.constant(0.0), LocalSpinRates.constant(0.0))
    spec = ModelSpec(pair, env, 1)
    t = 1.3
    replicas = 30000
    hits = 0
    result = batch_evolve(spec, spec.env_config((0,)), [], [t], replicas, seed=21)
    hits = result.background[0].sum()
    p_exact = (u / (u + d)) * (1.0 - math.exp(-(u + d) * t))
    se = math.sqrt(p_exact * (1 - p_exact) / replicas)
    assert abs(hits / replicas - p_exact) < 3 * se
    # same law from the per-site stream construction
    hits = 0
    small = 4000
    for r in range(small):
        stream = generate_streams(spec, seed=100 + r, t_max=t)
        traj = evolve_background(spec.env_config((0,)), stream)
        hits += traj.final["beta"].bits[0]
    se = math.sqrt(p_exact * (1 - p_exact) / small)
    assert abs(hits / small - p_exact) < 3.5 * se


def test_evolve_spins_zero_horizon_is_identity():
    spec = cpree(sites=5)
    stream = generate_streams(spec, seed=1, t_max=0.0)
    beta0 = spec.env_config((0, 0, 1, 0, 1))
    eta0 = spec.spin_config((1, 0, 1, 1, 0))
    btraj = evolve_background(beta0, stream)
    traj = evolve_spins(btraj, [eta0], stream)
    assert traj.final["eta"] == eta0
    assert traj.final["beta"] == beta0
    assert traj.events == []


def test_evolve_spins_preserves_order_and_replays():
    spec = cpree(sites=8)
    stream = generate_streams(spec, seed=17, t_max=6.0)
    beta0 = spec.env_config((0,) * 8)
    layers = [
        spec.spin_config((0,) * 8),
        spec.spin_config((0, 1, 0, 1, 0, 1, 0, 1)),
        spec.spin_config((1,) * 8),
    ]
    btraj = evolve_background(beta0, stream)
    traj = evolve_spins(btraj, layers, stream)
    traj.verify_replay()
    final = [traj.final[n] for n in ("eta", "gamma", "xi")]
    for a, b in ((0, 1), (1, 2)):
        assert all(x <= y for x, y in zip(final[a].bits, final[b].bits))


def test_trajectory_fully_determined_by_seed():
    spec = cpree(sites=6)
    def run():
        stream = generate_streams(spec, seed=13, t_max=3.0)
        btraj = evolve_background(spec.env_config((0,) * 6), stream)
        return evolve_spins(btraj, [spec.spin_config((1,) * 6)], stream)
    a, b = run(), run()
    assert a.events == b.events
    assert a.final == b.final


def test_trajectory_csv_format():
    spec = cpree(sites=4)
    stream = generate_streams(spec, seed=3, t_max=1.0)
    btraj = evolve_background(spec.env_config((0,) * 4), stream)
    traj = evolve_spins(btraj, [spec.spin_config((1,) * 4)], stream)
    text = traj.to_csv_text()
    lines = text.splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,site,layer,from,to"
    assert any(l.startswith("# initial beta=") for l in lines)
    assert any(l.startswith("# final eta=") for l in lines)
    for line in lines:
        if line.startswith("#") or line == header:
            continue
        t, site, layer, old, new = line.split(",")
        float(t)
        assert layer in ("beta", "eta")
        assert {old, new} == {"0", "1"}


def test_window_rates_identical_tables_ignore_background():
    rng = np.random.default_rng(30)
    c0 = random_compatible_pair(rng).c0
    pair = SpinRatePair(c0, c0)
    for words in ordered_window_triples():
        w0 = window_rates(pair, 0, words)
        w1 = window_rates(pair, 1, words)
        assert {k[1:]: v for k, v in w0.items()} == {k[1:]: v for k, v in w1.items()}


def test_window_rates_all_layers_equal_flip_together():
    rng = np.random.default_rng(31)
    pair = random_compatible_pair(rng, positive=True)
    for word in ("000", "010", "101", "111"):
        for bit in (0, 1):
            rates = window_rates(pair, bit, [word, word, word])
            assert len(rates) == 1
            (target, rate), = rates.items()
            flipped = 1 - int(word[1])
            assert target == (bit, flipped, flipped, flipped)
            assert rate == Fraction(pair.table(bit).rate_word(word))


def test_window_rates_marginals_exact():
    # per layer, the summed flip rate equals the layer's own table entry
    rng = np.random.default_rng(32)
    for _ in range(20):
        pair = random_compatible_pair(rng)
        for words in list(ordered_window_triples())[::7]:
            for bit in (0, 1):
                rates = window_rates(pair, bit, words)
                for k, word in enumerate(words):
                    total = sum(
                        v for tgt, v in rates.items() if tgt[1 + k] != int(word[1])
                    )
                    assert total == Fraction(pair.table(bit).rate_word(word))


def test_batch_evolve_matches_stream_law():
    spec = cpree(sites=3)
    t = 0.8
    replicas = 20000
    beta0 = spec.env_config((0, 0, 0))
    eta0 = spec.spin_config((1, 1, 1))
    res = batch_evolve(spec, beta0, [eta0], [t], replicas, seed=40)
    batch_density = res.layers[0][0].mean()
    small = 3000
    acc = 0
    for r in range(small):
        stream = generate_streams(spec, seed=5000 + r, t_max=t)
        btraj = evolve_background(beta0, stream)
        traj = evolve_spins(btraj, [eta0], stream)
        acc += sum(traj.final["eta"].bits)
    stream_density = acc / (small * 3)
    assert abs(batch_density - stream_density) < 4.0 * math.sqrt(0.25 / small)


def test_lockstep_engines_reject_decreasing_or_negative_grid():
    spec = cpree(sites=4)
    bad = [1.0, 0.5, -2.0]
    with pytest.raises(ValueError):
        batch_envelope(spec, bad, 10, seed=1)
    with pytest.raises(ValueError):
        batch_evolve(spec, spec.env_config((0,) * 4), [spec.spin_config((1,) * 4)], bad, 10, seed=1)
    with pytest.raises(ValueError):
        density_curves(spec, bad, 10, seed=1)
    with pytest.raises(ValueError):
        batch_envelope(spec, [-1.0], 10, seed=1)


def _window_defects(pair, clock):
    """Exact checks of the engine's acceptance windows on [0, clock] for one
    spin pair: windows inside [0, clock]; for every ordered pair of
    neighborhoods on equal or ordered backgrounds, the lower up-window inside
    the upper one and the upper down-window inside the lower one; and every
    up-window disjoint from every down-window, over both tables."""
    tables = [exact_table(pair.table(bit).values) for bit in (0, 1)]
    words = ["".join(w) for w in itertools.product("01", repeat=3)]
    window = {
        (bit, w): accept_window(int(w[1]), tables[bit][int(w, 2)], clock)
        for bit in (0, 1)
        for w in words
    }
    defects = [key for key, (lo, hi) in window.items() if not 0 <= lo <= hi <= clock]
    for (i, w), (j, v) in itertools.product(window, repeat=2):
        if i <= j and w[1] == v[1] and all(a <= b for a, b in zip(w, v)):
            (lo_w, hi_w), (lo_v, hi_v) = window[(i, w)], window[(j, v)]
            if w[1] == "0" and not lo_v <= lo_w:
                defects.append(("up-windows do not nest", i, w, j, v))
            if w[1] == "1" and not hi_v <= hi_w:
                defects.append(("down-windows do not nest", i, w, j, v))
        if w[1] == "0" and v[1] == "1":
            (up_lo, up_hi), (down_lo, down_hi) = window[(i, w)], window[(j, v)]
            if max(up_lo, down_lo) < min(up_hi, down_hi):
                defects.append(("up- and down-window overlap", i, w, j, v))
    return defects


def test_accept_windows_nest_and_stay_disjoint_exactly():
    rng = np.random.default_rng(34)
    for _ in range(30):
        pair = random_compatible_pair(rng)
        c_hat = exact_clock(pair.c0.values, pair.c1.values)
        assert _window_defects(pair, c_hat) == []
        # a clock 1/8 below c_hat lets some up- and down-window overlap
        short = _window_defects(pair, c_hat - Fraction(1, 8))
        assert any(d[0] == "up- and down-window overlap" for d in short)


def test_batch_counters_add_up():
    spec = cpree(sites=5)
    n, t, replicas, seed = 5, 1.5, 4000, 9
    beta0 = spec.env_config((0,) * n)
    layers = [spec.spin_config((0, 1, 0, 1, 0)), spec.spin_config((1,) * n)]
    res = batch_evolve(spec, beta0, layers, [t], replicas, seed)
    c = res.counters
    consts = spec.constants()
    rate = (consts.b_bar + consts.c_hat) * n * t
    # the engine's first draw is the per-replica Poisson ring counts
    counts = np.random.default_rng(seed).poisson(rate, replicas)
    assert c["events"] == counts.sum() == c["background_rings"] + c["spin_rings"]
    assert c["steps"] == counts.max()
    assert abs(c["events"] / replicas - rate) < 5 * math.sqrt(rate / replicas)
    # every ring that is not null flips at least one field
    assert 0 < c["events"] - c["null_rings"] <= sum(c["flips"].values())
    assert c["order_checks"] == c["events"]  # one ordered pair of layers
    finals = [res.background[-1]] + res.layers[-1]
    for cfg, final, (name, flips) in zip([beta0] + layers, finals, c["flips"].items()):
        changed = int((final != cfg.as_array()).sum())
        assert flips >= changed and (flips - changed) % 2 == 0, name
