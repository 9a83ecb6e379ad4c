import itertools
import json
import math
import re
import tracemalloc
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
    PerLayerFrozen,
    SpinRatePair,
    batch_envelope,
    batch_evolve,
    build_generator,
    density_curves,
    evolve,
    preset,
    semigroup_apply,
    simulate_coupled,
    window_rates,
)
from envspin import graphical
from envspin.coupling import batch_simulate_pair
from envspin.graphical import EventBudgetError, accept_window, exact_clock, exact_table
from envspin.lattice import PERIODIC, MutableWindow
from envspin.rates import LocalSpinRates, ModelSpec

from _support import (
    GATE_LEVEL,
    empirical_pair_distribution,
    ordered_stack,
    ordered_window_triples,
    pooled_chi_square,
    random_attractive_env,
    random_compatible_pair,
    random_env,
    scaled_deaths,
)
from test_engine_golden import _crossing_spec, _exact_window_spec, _spin_stack


def cpree(sites=6, **kw):
    params = dict(gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0)
    params.update(kw)
    return preset("cpree", sites=sites, **params)


def test_streams_deterministic():
    spec = cpree()
    a = EventStream(spec, seed=7, t_max=5.0)
    b = EventStream(spec, seed=7, t_max=5.0)
    for x in (0, 3, 5):
        sa, sb = a.site(x), b.site(x)
        assert np.array_equal(sa.spin_times, sb.spin_times)
        assert np.array_equal(sa.bg_marks, sb.bg_marks)
        assert np.array_equal(sa.spin_marks0, sb.spin_marks0)
    c = EventStream(spec, seed=8, t_max=5.0)
    assert not np.array_equal(a.site(0).spin_times, c.site(0).spin_times)


def test_zero_background_rate_gives_no_events():
    spec = preset("contact", lam=1.0, delta=1.0, sites=4)
    stream = EventStream(spec, seed=0, t_max=50.0)
    assert spec.constants().b_bar == 0.0
    for x in range(4):
        assert stream.site(x).bg_times.size == 0


def test_clock_mean_gap_matches_rate():
    spec = cpree(sites=1)
    c_bar = spec.constants().c_bar
    stream = EventStream(spec, seed=3, t_max=20000.0, max_events=10**7)
    times = stream.site(0).spin_times
    gaps = np.diff(times)
    assert gaps.size > 10**5
    mean = gaps.mean()
    tol = 3.0 * (1.0 / c_bar) / math.sqrt(gaps.size)
    assert abs(mean - 1.0 / c_bar) < tol
    assert (gaps > 0).all()


def test_event_budget_enforced():
    spec = cpree(sites=4)
    stream = EventStream(spec, seed=0, t_max=1000.0, max_events=100)
    with pytest.raises(EventBudgetError):
        stream.site(0)
        stream.site(1)


def test_event_budget_refused_before_the_clock_is_drawn_in_full():
    # about 5e5 background and 3.5e6 spin rings at site 0: a refusal must hold
    # memory for about max_events ring times, not for rate * t_max of them
    spec = cpree(sites=4)
    stream = EventStream(spec, seed=0, t_max=5e5, max_events=100)
    EventStream(spec, seed=1, t_max=1.0).site(0)  # numpy.random's lazy imports, untraced
    tracemalloc.start()
    try:
        with pytest.raises(EventBudgetError):
            stream.site(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_event_budget_refusal_holds_about_the_kept_times():
    # a clock of about 1e9 rings refused at 1e6 keeps 8 MB of ring times; the
    # refusal may hold 2.5 times that, and joins none of them
    spec = cpree()
    stream = EventStream(spec, 1, 1e9, max_events=10**6)
    EventStream(spec, seed=1, t_max=1.0).site(0)  # numpy.random's lazy imports, untraced
    tracemalloc.start()
    try:
        with pytest.raises(EventBudgetError):
            stream.site(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


def test_tight_event_budget_draws_the_same_stream():
    # a budget of exactly the rings drawn gives the same times and marks as
    # the default budget, and one ring less is refused
    spec = cpree(sites=3)
    free = EventStream(spec, seed=9, t_max=40.0)
    rings = sum(free.site(x).bg_times.size + free.site(x).spin_times.size for x in range(3))
    tight = EventStream(spec, seed=9, t_max=40.0, max_events=rings)
    for x in range(3):
        a, b = free.site(x), tight.site(x)
        for name in ("bg_times", "bg_marks", "spin_times", "spin_marks0", "spin_marks1"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    short = EventStream(spec, seed=9, t_max=40.0, max_events=rings - 1)
    with pytest.raises(EventBudgetError):
        for x in range(3):
            short.site(x)


def test_marks_within_ranges():
    spec = cpree(sites=3)
    consts = spec.constants()
    stream = EventStream(spec, seed=5, t_max=50.0)
    for x in range(3):
        s = stream.site(x)
        assert (s.bg_marks >= 0).all() and (s.bg_marks <= consts.b_bar).all()
        assert (s.spin_marks0 <= consts.c_bar0).all()
        assert (s.spin_marks1 <= consts.c_bar1).all()
        assert (np.diff(s.bg_times) > 0).all()


def test_background_rule_against_independent_replay():
    # recompute every accepted/rejected ring by the acceptance definition
    spec = preset("remark_iv", sites=5)
    stream = EventStream(spec, seed=11, t_max=4.0)
    beta0 = spec.env_config((0, 1, 0, 0, 1))
    traj = evolve(beta0, [], stream)
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
        rate = spec.env.table[state.word_index(x, spec.env.range)]
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
    stream = EventStream(spec, seed=2, t_max=30.0)
    s = stream.site(0)
    traj = evolve(spec.env_config((0,)), [], stream)
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
    pair = SpinRatePair(LocalSpinRates((0.0,) * 8), LocalSpinRates((0.0,) * 8))
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
        stream = EventStream(spec, seed=100 + r, t_max=t)
        traj = evolve(spec.env_config((0,)), [], stream)
        hits += traj.final["beta"].bits[0]
    se = math.sqrt(p_exact * (1 - p_exact) / small)
    assert abs(hits / small - p_exact) < 3.5 * se


def test_evolve_zero_horizon_is_identity():
    spec = cpree(sites=5)
    stream = EventStream(spec, seed=1, t_max=0.0)
    beta0 = spec.env_config((0, 0, 1, 0, 1))
    eta0 = spec.spin_config((1, 0, 1, 1, 0))
    traj = evolve(beta0, [eta0], stream)
    assert traj.final["eta"] == eta0
    assert traj.final["beta"] == beta0
    assert traj.events == []


def test_evolve_preserves_order_and_replays():
    spec = cpree(sites=8)
    stream = EventStream(spec, seed=17, t_max=6.0)
    beta0 = spec.env_config((0,) * 8)
    layers = [
        spec.spin_config((0,) * 8),
        spec.spin_config((0, 1, 0, 1, 0, 1, 0, 1)),
        spec.spin_config((1,) * 8),
    ]
    traj = evolve(beta0, layers, stream)
    traj.verify_replay()
    final = [traj.final[n] for n in ("eta", "gamma", "xi")]
    for a, b in ((0, 1), (1, 2)):
        assert all(x <= y for x, y in zip(final[a].bits, final[b].bits))


def test_replay_refuses_an_event_whose_old_value_does_not_match():
    # planted: one event claims its site already held the value it writes;
    # replay still reaches the final state, so only the old-value check sees it
    spec = cpree(sites=8)
    traj = evolve(spec.env_config((0,) * 8), _spin_stack(spec, 3), EventStream(spec, seed=17, t_max=6.0))
    assert traj.verify_replay()
    e = traj.events[len(traj.events) // 2]
    assert e.old != e.new
    traj.events[len(traj.events) // 2] = e._replace(old=e.new)
    with pytest.raises(AssertionError, match="does not match the replayed state"):
        traj.verify_replay()


def test_trajectory_fully_determined_by_seed():
    spec = cpree(sites=6)
    def run():
        stream = EventStream(spec, seed=13, t_max=3.0)
        return evolve(spec.env_config((0,) * 6), [spec.spin_config((1,) * 6)], stream)
    a, b = run(), run()
    assert a.events == b.events
    assert a.final == b.final


def test_trajectory_csv_format():
    spec = cpree(sites=4)
    stream = EventStream(spec, seed=3, t_max=1.0)
    traj = evolve(spec.env_config((0,) * 4), [spec.spin_config((1,) * 4)], stream)
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
    for word in (0b000, 0b010, 0b101, 0b111):
        for bit in (0, 1):
            rates = window_rates(pair, bit, [word, word, word])
            assert len(rates) == 1
            (target, rate), = rates.items()
            flipped = 1 - ((word >> 1) & 1)
            assert target == (bit, flipped, flipped, flipped)
            assert rate == Fraction(pair.table(bit).values[word])


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
                        v for tgt, v in rates.items() if tgt[1 + k] != (word >> 1) & 1
                    )
                    assert total == Fraction(pair.table(bit).values[word])


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
        stream = EventStream(spec, seed=5000 + r, t_max=t)
        traj = evolve(beta0, [eta0], stream)
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


def test_lockstep_snapshot_does_not_depend_on_later_grid_times():
    # distinct per-replica starts; the rows move into each interval's
    # ring-count order, and the snapshots must still come back per replica
    rng = np.random.default_rng(43)
    replicas, n = 300, 12
    beta = rng.integers(0, 2, (replicas, n))
    layers = ordered_stack(rng.integers(0, 4, (replicas, n)))
    for spec in (cpree(sites=n, delta0=1.0, delta1=0.5, lam=3.0), preset("contact", sites=n, lam=2.0, delta=1.0)):
        start = ((beta, spec.env_boundary), [(a, spec.spin_boundary) for a in layers])
        short = batch_evolve(spec, *start, [0.6], replicas, seed=5)
        long = batch_evolve(spec, *start, [0.6, 1.2], replicas, seed=5)
        assert np.array_equal(short.background[0], long.background[0])
        for a, b in zip(short.layers[0], long.layers[0]):
            assert np.array_equal(a, b)
        if spec.constants().b_bar == 0:
            # the contact preset's background never rings
            assert all(np.array_equal(snap, beta) for snap in long.background)
    spec = cpree(sites=n, delta0=1.0, delta1=0.5, lam=3.0)
    short, long = batch_envelope(spec, [0.6], replicas, 6)[1], batch_envelope(spec, [0.6, 1.2], replicas, 6)[1]
    assert all(np.array_equal(a, b) for a, b in zip(short[0], long[0]))
    # an empty interval draws nothing: a repeated grid time repeats its snapshot
    twice = batch_envelope(spec, [0.6, 0.6, 1.2], replicas, 6)[1]
    assert all(np.array_equal(a, b) for x, y in zip(twice[1:], long) for a, b in zip(x, y))
    assert all(np.array_equal(a, b) for a, b in zip(twice[0], twice[1]))


def test_lockstep_output_does_not_depend_on_block_size(monkeypatch):
    # blocks of any size draw the same doubles in the same order, and the
    # rings of one step fall on distinct replicas, so the pieces a step is
    # cut into apply independently: on the byte path (10 sites), and on the
    # word path (exact-window's 3 sites) at more replicas than a block
    shapes = _word_paths(monkeypatch)
    blocks = (4096, graphical.BLOCK_RINGS, 67)
    rng = np.random.default_rng(44)
    cases = ((cpree(sites=10, delta0=1.0, delta1=0.5, lam=3.0), 200), (_exact_window_spec(), blocks[1] + 3000))
    for spec, replicas in cases:
        n = spec.size
        beta = (rng.integers(0, 2, (replicas, n)), spec.env_boundary)
        layers = [(a, spec.spin_boundary) for a in ordered_stack(rng.integers(0, 4, (replicas, n)))]
        runs = []
        for block in blocks:
            monkeypatch.setattr(graphical, "BLOCK_RINGS", block)
            res = batch_evolve(spec, beta, layers, [0.5, 1.0], replicas, seed=9)
            snaps = [[b, *ls] for b, ls in zip(res.background, res.layers)]
            runs.append((res.counters, snaps, batch_envelope(spec, [0.5, 1.0], replicas, 9)[1]))
        counters, *a = runs[0]
        for counters_b, *b in runs[1:]:
            assert counters == counters_b
            for x, y in zip(a, b):
                assert all(np.array_equal(f, g) for snap, snap_b in zip(x, y) for f, g in zip(snap, snap_b))
    # the 3-site runs and envelopes held their windows as words
    assert [fields for fields, *_ in shapes] == [4, 4] * len(blocks)


def _window_defects(pair, clock):
    """Exact checks of the engine's acceptance windows on [0, clock] for one
    spin pair: windows inside [0, clock]; for every ordered pair of
    neighborhoods on equal or ordered backgrounds, the lower up-window inside
    the upper one and the upper down-window inside the lower one; and every
    up-window disjoint from every down-window, over both tables."""
    tables = [exact_table(pair.table(bit).values) for bit in (0, 1)]
    window = {
        (bit, w): accept_window((w >> 1) & 1, tables[bit][w], clock)
        for bit in (0, 1)
        for w in range(8)
    }
    defects = [key for key, (lo, hi) in window.items() if not 0 <= lo <= hi <= clock]
    for (i, w), (j, v) in itertools.product(window, repeat=2):
        up_w, up_v = not w & 0b010, not v & 0b010
        # w lies below v bitwise, with the same center
        if i <= j and up_w == up_v and not w & ~v:
            (lo_w, hi_w), (lo_v, hi_v) = window[(i, w)], window[(j, v)]
            if up_w and not lo_v <= lo_w:
                defects.append(("up-windows do not nest", i, w, j, v))
            if not up_w and not hi_v <= hi_w:
                defects.append(("down-windows do not nest", i, w, j, v))
        if up_w and not up_v:
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


# layers of a 5-site batch_evolve -> the layer pairs ordered in every replica at the
# start, each kept at every ring, so order_checks / events
_ALT, _TLA = (0, 1, 0, 1, 0), (1, 0, 1, 0, 1)
_LOW = np.random.default_rng(0).integers(0, 2, (200, 5))
_HIGH = _LOW | np.random.default_rng(1).integers(0, 2, (200, 5))
ORDERED_PAIRS = {
    "decreasing": ([(1,) * 5, _ALT, (0,) * 5], 3),
    "equal": ([_ALT, _ALT], 1),
    "unordered-middles": ([(0,) * 5, _ALT, _TLA, (1,) * 5], 5),
    "per-replica-ordered": ([_LOW, _HIGH], 1),
    "per-replica-one-unordered": ([_LOW, np.where(np.arange(200)[:, None] == 17, 0, _HIGH)], 0),
}


@pytest.mark.parametrize("case", sorted(ORDERED_PAIRS))
def test_order_checks_count_the_pairs_ordered_at_the_start(case):
    spec = cpree(sites=5)
    layers, pairs = ORDERED_PAIRS[case]
    starts = [spec.spin_config(bits) if isinstance(bits, tuple) else (bits, PERIODIC) for bits in layers]
    c = batch_evolve(spec, spec.env_config((0,) * 5), starts, [0.5], 200, 3).counters
    assert c["events"] > 0 and c["order_checks"] == pairs * c["events"]


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
    # plain ints, which JSON reports and digests take as they are
    values = [v for k, v in c.items() if k != "flips"] + list(c["flips"].values())
    assert all(type(v) is int for v in values), c
    assert json.loads(json.dumps(c)) == c


def test_rank_lookup_matches_binary_search():
    # bins with several edges, edges one ulp apart, marks exactly on an edge
    # and one ulp either side of it; clustered edges fall back to the binary
    # search, and the lookup stays within its bound either way
    rng = np.random.default_rng(35)
    paths = set()
    for spread in (1.0, 1e-3 / 7.25, 1e-9 / 7.25):
        inner = np.sort(rng.uniform(0.0, spread, 40))
        edges = np.unique(np.concatenate([[0.0, 1.0], inner, np.nextafter(inner, np.inf)]))
        lookup = graphical._rank_lookup(edges)
        paths.add(lookup is None)
        if lookup is not None:
            rows, bins = lookup[2].shape
            assert rows <= graphical.RANK_ROWS and bins <= graphical.RANK_BINS + 1
        u = np.concatenate([
            rng.random(20000),
            edges,
            np.nextafter(edges[1:], -np.inf),
            np.nextafter(edges[:-1], np.inf),
        ])
        assert np.array_equal(graphical._ranks(u, edges, lookup), np.searchsorted(edges, u, "right") - 1)
    assert paths == {True, False}
    # the site-shifted atom starts that the lockstep engine ranks its
    # uniforms among, for the benchmark's cpree on 64 and 4096 sites
    for n in (64, 4096):
        spec = cpree(sites=n, delta0=1.0, delta1=0.5, lam=3.0)
        consts = spec.constants()
        lam = consts.b_bar + consts.c_hat
        edges = graphical._joint_table(graphical._windows(spec, consts), [0, 0, 0, 0], 0, consts.b_bar, lam, 1)[0]
        edges = graphical._site_atoms(edges, n)[0]
        lookup = graphical._rank_lookup(edges)
        assert lookup is not None and lookup[2].shape[1] <= graphical.RANK_BINS + 1
        u = np.concatenate([
            rng.random(20000),
            edges,
            np.nextafter(edges[1:], -np.inf),
            np.nextafter(edges, np.inf),
        ])
        assert np.array_equal(graphical._ranks(u, edges, lookup), np.searchsorted(edges, u, "right") - 1)


# bounds, in units of 2**-53, on how far the float starts and lengths of the
# (site, atom) V-intervals may stray from the exact ones: four roundings
# (x*lam, + edges[k], n*lam, the quotient) each within 2**-53 of a start <= 1
START_ULPS, LENGTH_ULPS = 4, 8


def _site_atom_defects(site_atoms=graphical._site_atoms):
    """Defects of the map from one uniform V on [0, 1) to a (site, atom)
    pair, over one random spec per ring size n = 1..70 (range 0-2, periodic
    and frozen, rates on the dyadic grid or scaled off it): ("order", n)
    when the pairs of `site_atoms` do not increase with V or miss a site,
    else (n, x, k) for each pair whose V-interval starts more than
    START_ULPS * 2**-53 from (x*lam + edges[k]) / (n*lam), or whose length
    is more than LENGTH_ULPS * 2**-53 from (edges[k+1] - edges[k]) / (n*lam).
    A pair whose atom collapsed owns the empty interval at the next kept
    start.  All comparisons are exact integer arithmetic on the floats."""
    rng = np.random.default_rng(42)
    defects = []
    for n in range(1, 71):
        radius = n % 3
        pair, env = random_compatible_pair(rng), random_attractive_env(rng, radius)
        if n % 2:
            factor = rng.uniform(0.3, 3.0)
            pair = SpinRatePair(*(LocalSpinRates(tuple(v * factor for v in c.values)) for c in (pair.c0, pair.c1)))
            env = EnvRateSpec(radius, tuple(v * factor for v in env.table))
        boundary = FrozenWords("10" * radius or "1", "01") if n % 4 < 2 else PERIODIC
        spec = ModelSpec(pair, env, n, boundary)
        consts = spec.constants()
        lam = consts.b_bar + consts.c_hat
        windows = graphical._windows(spec, consts)
        edges = graphical._joint_table(windows, [0, 0], radius, consts.b_bar, lam, max(1, radius))[0]
        starts, site, atom = site_atoms(edges, n)
        n_atoms = len(edges) - 1
        pairs = site * n_atoms + atom
        if (np.diff(pairs) <= 0).any() or set(site.tolist()) != set(range(n)) or starts[0] != 0:
            defects.append(("order", n))
            continue
        begin = np.append(starts, 1.0)[np.searchsorted(pairs, np.arange(n * n_atoms + 1))]
        b, q = float(lam).as_integer_ratio()
        ratios = [e.as_integer_ratio() for e in edges.tolist()]
        # start error of pair (x, k) as num / den: begin - (x*lam + e) / (n*lam)
        errs = []
        for p, v in enumerate(begin.tolist()):
            x, k = divmod(p, n_atoms)
            a, d = v.as_integer_ratio()
            c, r = ratios[k]
            errs.append((a * n * b * r - d * (x * b * r + c * q), d * n * b * r))
        for p, ((num, den), (num2, den2)) in enumerate(zip(errs, errs[1:])):
            length_err = abs(num2 * den - num * den2)
            if abs(num) << 53 > START_ULPS * den or length_err << 53 > LENGTH_ULPS * den * den2:
                defects.append((n,) + divmod(p, n_atoms))
    return defects


def test_site_atom_map_certificate():
    # every (site, atom) pair gets the V-interval of its exact probability,
    # in order of V, within a few ulps, on every ring size up to 70
    assert _site_atom_defects() == []


def test_site_atom_certificate_refuses_a_shifted_site_map():
    def planted(edges, n):
        starts, site, atom = graphical._site_atoms(edges, n)
        return starts, (site + 1) % n, atom

    assert _site_atom_defects(planted) != []


def _joint_table_defects(pair, windows=graphical._windows, joint_table=graphical._joint_table):
    """Keys of one-group joint flip tables (1 to 3 spin layers, background
    range 0) whose summed atom lengths per flip set differ from
    `window_rates` by more than float rounding.  Each (key, spin rank) is
    read as `_lockstep` reads it: the key's bits are the background center,
    then each layer's 3-bit word; the slot shares of `joint_table`'s lookup
    for the bytes at x-1..x+1 that hold the key (unread field bits set) sum
    to an index into its flat table; an index outside the table is a
    defect."""
    spec = ModelSpec(pair, EnvRateSpec(0, (0.5, 0.25)), 3)
    consts = spec.constants()
    lam = consts.b_bar + consts.c_hat
    defects = []
    for layers in (1, 2, 3):
        reads = ((0, 0),) + tuple((f, d) for f in range(1, 1 + layers) for d in (-1, 0, 1))
        edges, table, lut, rows = joint_table(windows(spec, consts), [0] * (1 + layers), 0, consts.b_bar, lam, 1)
        n_bg = np.searchsorted(edges, consts.b_bar)
        spin_rows = rows[:, n_bg:]
        length = np.diff(np.append(edges, lam))[n_bg:]
        for key in range(1 << len(reads)):
            bit, words = key >> (3 * layers), [(key >> (3 * (layers - 1 - k))) & 7 for k in range(layers)]
            nbhd = np.full(3, (1 << (1 + layers)) - 1)
            for j, (f, d) in enumerate(reads):
                nbhd[d + 1] ^= (1 - ((key >> (len(reads) - 1 - j)) & 1)) << f
            index = lut[nbhd[:, None] + spin_rows].sum(axis=0)
            if ((index < 0) | (index >= len(table))).any():
                defects.append((layers, key))
                continue
            got = {}
            for m, size in zip(table[index].tolist(), length):
                if m:
                    got[m] = got.get(m, 0.0) + size
            want = {
                sum(1 << (1 + k) for k, w in enumerate(words) if target[1 + k] != (w >> 1) & 1): float(rate)
                for target, rate in window_rates(pair, bit, words).items()
            }
            if got.keys() != want.keys() or any(abs(got[m] - want[m]) > 1e-12 * lam for m in want):
                defects.append((layers, key))
    return defects


def test_joint_flip_table_matches_window_rates():
    # every 1-3-layer key: the engine's table and the exact interval
    # arithmetic give the same joint flip rates
    rng = np.random.default_rng(36)
    for _ in range(30):
        assert _joint_table_defects(random_compatible_pair(rng)) == []


def test_joint_table_check_catches_bottom_anchored_up_window():
    def planted(spec, consts):
        bg_lo, bg_hi, sp_lo, sp_hi = graphical._windows(spec, consts)
        sp_lo, sp_hi = sp_lo.copy(), sp_hi.copy()
        w = 0b1001  # background 1, spin word 001: an up-window, moved to the bottom
        sp_hi[w] = consts.b_bar + (sp_hi[w] - sp_lo[w])
        sp_lo[w] = consts.b_bar
        return bg_lo, bg_hi, sp_lo, sp_hi

    pair = random_compatible_pair(np.random.default_rng(37), positive=True)
    assert _joint_table_defects(pair) == []
    assert _joint_table_defects(pair, planted) != []


def test_joint_table_check_catches_center_row_without_offset():
    def planted(*args):
        # every rank's center-slot row loses offset[k]: it becomes the plain
        # center-slot row of its kind, which sits right after slot halo - 1's
        edges, table, lut, rows = graphical._joint_table(*args)
        halo = args[-1]
        lut = lut.copy()
        for center, plain in zip(rows[halo], rows[halo - 1] + 256):
            lut[center:center + 256] = lut[plain:plain + 256]
        return edges, table, lut, rows

    pair = random_compatible_pair(np.random.default_rng(37), positive=True)
    assert _joint_table_defects(pair) == []
    assert _joint_table_defects(pair, joint_table=planted) != []


def test_lockstep_refuses_shapes_over_the_cap_before_allocating():
    import tracemalloc

    spec = cpree(sites=64)
    beta0 = spec.env_config((0,) * 64)
    replicas = 100_000  # the packed state alone would take 6.6 MB
    for layers, match in ((8, "8 bits of a packed site"), (6, "exceeds TABLE_CAP=%d" % graphical.TABLE_CAP)):
        tracemalloc.start()
        with pytest.raises(ValueError, match=match):
            batch_evolve(spec, beta0, [spec.spin_config((1,) * 64)] * layers, [1.0], replicas, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20, peak
    # the widest shape the engine serves: range 2, four spin layers
    rng = np.random.default_rng(39)
    wide = ModelSpec(random_compatible_pair(rng), random_attractive_env(rng, 2), 5)
    layers = [wide.spin_config(w) for w in ("00000", "00100", "01010", "11111")]
    res = batch_evolve(wide, wide.env_config((0,) * 5), layers, [0.5], 10, seed=1)
    assert len(res.layers[-1]) == 4


def test_lockstep_rejects_bits_other_than_zero_and_one():
    # a 2 packed into field f would set field f + 1's bit
    spec = cpree(sites=4)
    bits = np.zeros((3, 4), dtype=np.int64)
    for bad in (2, 256, -1):
        bits[1, 2] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            batch_evolve(spec, spec.env_config((0,) * 4), [(bits, spec.spin_boundary)], [1.0], 3, seed=1)


def test_lockstep_rejects_fields_that_mix_periodic_and_frozen_boundaries():
    spec = cpree(sites=4)
    frozen = [Configuration((0,) * 4, FrozenWords("0", "1"))]
    with pytest.raises(ValueError, match="^fields mix periodic and frozen boundaries$"):
        batch_evolve(spec, spec.env_config((0,) * 4), frozen, [1.0], 3, seed=1)


def _range_law_pvalues(sim_factor=1.0, seed=90):
    """Chi-square p-values of the lockstep engine's (background, spin) law
    at t=0.8 against the exact pair law, for background range 1 and 2, each
    on a ring and between frozen boundary words; the engine gets the spec
    with its death rates scaled by `sim_factor`, the oracle the true spec."""
    rng = np.random.default_rng(38)
    cases = (
        (1, PERIODIC),
        (1, FrozenWords("01", "10")),
        (2, PERIODIC),
        (2, PerLayerFrozen(FrozenWords("10", "011"), FrozenWords("110", "01"))),
    )
    replicas, t = 100_000, 0.8
    out = []
    for k, (radius, boundary) in enumerate(cases):
        spec = ModelSpec(random_compatible_pair(rng, positive=True), random_attractive_env(rng, radius), 3, boundary)
        G = build_generator(spec)
        exact = semigroup_apply(G, G.point_mass(G.encode([0b010, 0b101])), t).dist
        sim = scaled_deaths(spec, sim_factor)
        res = batch_evolve(sim, sim.env_config((0, 1, 0)), [sim.spin_config((1, 0, 1))], [t], replicas, seed + k)
        emp = empirical_pair_distribution(res.background[-1], res.layers[-1][0])
        out.append(pooled_chi_square(emp * replicas, exact)[2])
    return out


def test_lockstep_law_on_wider_backgrounds_and_frozen_boundaries():
    # four gates share the family-wise level
    for p in _range_law_pvalues():
        assert p >= GATE_LEVEL / 4, p


def test_wider_background_gate_catches_high_death_rates():
    for p in _range_law_pvalues(sim_factor=1.1):
        assert p < GATE_LEVEL / 4, p


# the order proof: a call whose joint table cannot cross an ordered pair
# skips the per-ring check


PRESET_PARAMS = {
    "cpree": dict(gamma=1.0, delta0=1.0, delta1=0.5, p=0.5, lam=3.0),
    "contact": dict(lam=2.0, delta=1.0),
    "remark_iv": {},
    "remark_vi": {},
}


def _proof_verdicts(monkeypatch, keep_check=False):
    """Record what `_may_cross` decides on each call; with `keep_check` the
    engine is told a crossing may happen whatever the verdict."""
    real, verdicts = graphical._may_cross, []

    def recorded(*args):
        verdicts.append(real(*args))
        return True if keep_check else verdicts[-1]

    monkeypatch.setattr(graphical, "_may_cross", recorded)
    # a kept order proof would be reused without a verdict: keep none
    monkeypatch.setattr(graphical, "_PROOFS", {})
    monkeypatch.setattr(graphical, "PROOFS", 0)
    return verdicts


def _short_runs(spec):
    # one layer has no ordered pair; the envelope holds one layer per group
    beta0 = spec.env_config((0,) * spec.size)
    for n_layers in (1, 3, 4):
        batch_evolve(spec, beta0, _spin_stack(spec, n_layers), [0.05], 4, seed=1)
    batch_envelope(spec, [0.05], 4, 2)


def test_order_proof_holds_for_presets_and_attractive_specs(monkeypatch):
    verdicts = _proof_verdicts(monkeypatch)
    for name, params in PRESET_PARAMS.items():
        _short_runs(preset(name, sites=5, **params))
    rng = np.random.default_rng(120)
    for k in range(30):
        pair = random_compatible_pair(rng, positive=bool(k % 2))
        _short_runs(ModelSpec(pair, random_attractive_env(rng, k % 3, positive=bool(k % 2)), 5))
    # the 3- and 4-layer stacks and the envelope ask; a lone layer has no pair
    assert verdicts == [False] * 3 * (len(PRESET_PARAMS) + 30)


def test_order_proof_fails_for_a_non_attractive_table(monkeypatch):
    verdicts = _proof_verdicts(monkeypatch)
    spec = _crossing_spec()
    with pytest.raises(graphical.OrderViolationError):
        batch_evolve(spec, spec.env_config((0,) * 10), _spin_stack(spec, 3), [2.0], 40, seed=18)
    assert verdicts == [True]
    # a proof that always passes would let that crossing through unseen
    monkeypatch.setattr(graphical, "_may_cross", lambda *args: False)
    batch_evolve(spec, spec.env_config((0,) * 10), _spin_stack(spec, 3), [2.0], 40, seed=18)


def test_order_proof_keeps_the_check_wherever_a_ring_crosses(monkeypatch):
    # planted twin: the check runs on every ring whatever the proof says; on
    # random tables with no attractivity, every run that crosses a pair must
    # be one whose proof failed
    verdicts = _proof_verdicts(monkeypatch, keep_check=True)
    rng = np.random.default_rng(121)
    raised = 0
    for k in range(24):
        radius = k % 3
        c0, c1 = (LocalSpinRates(tuple(rng.integers(0, 8, 8) / 4)) for _ in range(2))
        env = EnvRateSpec(radius, tuple(rng.integers(0, 8, 2 ** (2 * radius + 1)) / 4))
        spec = ModelSpec(SpinRatePair(c0, c1), env, 6)
        verdicts.clear()
        try:
            if k % 4 == 3:
                batch_envelope(spec, [1.0], 30, seed=k)
            else:
                batch_evolve(spec, spec.env_config((0,) * 6), _spin_stack(spec, 3 + k % 2), [1.0], 30, seed=k)
        except graphical.OrderViolationError:
            raised += 1
            assert verdicts == [True], k
    assert raised >= 5


def test_frozen_words_that_cross_a_pair_keep_the_check(monkeypatch):
    # bodies ordered, boundary words not: the table alone proves nothing
    # about keys that read the crossed words, so every ring is checked, and
    # the first one that copies the crossing inward raises
    verdicts = _proof_verdicts(monkeypatch)
    spec = cpree(sites=4, boundary=FrozenWords("1", "1"))
    # 3000 replicas would hold each whole window as one word, but a checked
    # call keeps to the byte path
    for replicas in (20, 3000):
        zeros = np.zeros((replicas, 4), dtype=np.int8)
        layers = [(zeros, FrozenWords("1", "1")), (zeros, FrozenWords("0", "0"))]
        with pytest.raises(graphical.OrderViolationError, match="^layer0 and layer1 crossed in a lockstep step$"):
            batch_evolve(spec, (zeros, spec.env_boundary), layers, [2.0], replicas, seed=3)
    assert verdicts == [False, False]


# whole windows as words: a call whose sites and fields fit 16 bits, and whose
# transition tables hold no more entries than the rings it expects, takes one
# lookup per ring


def _word_paths(monkeypatch):
    """Record (fields, sites, entries) for each call that holds its windows
    as words (`_word_table`)."""
    real, shapes = graphical._word_table, []

    def recorded(*args):
        tables = real(*args)
        shapes.append((*args[-2:], len(tables[0])))
        return tables

    monkeypatch.setattr(graphical, "_word_table", recorded)
    return shapes


def _scheduled_counters(spec, grid, replicas, seed):
    """`steps`, `events` and `background_rings` of `_schedule` run alone on
    the clock and ranks of a lockstep call: it is never shown a state."""
    c = spec.constants()
    n, lam, halo = spec.size, c.b_bar + c.c_hat, max(1, spec.env.range)
    edges = graphical._joint_table(graphical._windows(spec, c), [0, 0], spec.env.range, c.b_bar, lam, halo)[0]
    starts, _, atom = graphical._site_atoms(edges, n)
    background = atom < np.searchsorted(edges, c.b_bar)
    steps = events = rings = 0
    schedule = graphical._schedule(np.random.default_rng(seed), grid, lam * n, replicas, starts,
                                   graphical._rank_lookup(starts))
    for counts, order, blocks in schedule:
        assert sorted(order.tolist()) == list(range(replicas))
        steps += int(counts.max(initial=0))
        events += int(counts.sum())
        drawn = 0
        for pieces, rank in blocks:
            assert sum(hi - lo for lo, hi in pieces) == len(rank) <= graphical.BLOCK_RINGS
            drawn += len(rank)
            rings += int(np.count_nonzero(background[rank]))
        assert drawn == counts.sum()
    return steps, events, rings


def test_schedule_alone_gives_the_ring_counters_of_either_path(monkeypatch):
    # the ring schedule draws without the state: run alone on a call's seed,
    # grid, clock and replicas, it counts the call's steps, events and
    # background rings, on the byte path (10 sites) and the word path
    # (exact-window's 3 sites), and calls from other starts count the same
    shapes = _word_paths(monkeypatch)
    rng = np.random.default_rng(45)
    for spec, replicas in ((cpree(sites=10, delta0=1.0, delta1=0.5, lam=3.0), 200), (_exact_window_spec(), 3000)):
        n, grid = spec.size, [0.5, 0.5, 1.25]
        alone = _scheduled_counters(spec, grid, replicas, 11)
        for k in range(3):
            beta = (rng.integers(0, 2, (replicas, n)), spec.env_boundary)
            layers = [(a, spec.spin_boundary) for a in ordered_stack(rng.integers(0, 4, (replicas, n)))][: 1 + k]
            counters = batch_evolve(spec, beta, layers, grid, replicas, seed=11).counters
            assert (counters["steps"], counters["events"], counters["background_rings"]) == alone
            assert alone[1] > alone[2] > 0
    # the 3-site calls of one and two layers held their windows as words; three
    # layers' word tables would outnumber the rings
    assert [fields for fields, *_ in shapes] == [2, 3]


def test_whole_window_words_are_chosen_by_size_and_rings(monkeypatch):
    shapes = _word_paths(monkeypatch)
    # the exact-window shapes: one layer, the envelope, the coalescence pair
    spec = _exact_window_spec()
    beta0, top = spec.env_config((0, 0, 0)), spec.spin_config((1, 1, 1))
    batch_evolve(spec, beta0, [top], [1.0], 100_000, seed=1)
    batch_envelope(spec, [0.5, 1.0], 100_000, 2)
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    batch_evolve(sc, sc.env_config((0, 1, 0)), _spin_stack(sc, 4)[::3], [1.0], 20_000, seed=3)
    assert shapes == [(2, 3, 30 << 6), (4, 3, 30 << 12), (3, 3, 18 << 9)]
    shapes.clear()
    # 64 sites; 5 sites of 4 fields; more entries than the 3 rings expected
    big = preset("cpree", sites=64, **PRESET_PARAMS["cpree"])
    batch_evolve(big, big.env_config((0,) * 64), _spin_stack(big, 3), [0.5], 50, seed=4)
    five = cpree(sites=5)
    batch_evolve(five, five.env_config((0,) * 5), _spin_stack(five, 3), [1.0], 20_000, seed=5)
    batch_evolve(spec, beta0, [top], [0.05], 4, seed=6)
    # over TABLE_CAP by one entry, at more rings than entries; at the cap
    monkeypatch.setattr(graphical, "TABLE_CAP", (30 << 12) - 1)
    batch_envelope(spec, [0.5, 1.0], 10_000, 7)
    assert shapes == []
    monkeypatch.setattr(graphical, "TABLE_CAP", 30 << 12)
    batch_envelope(spec, [0.5, 1.0], 10_000, 7)
    assert shapes == [(4, 3, 30 << 12)]


def test_whole_window_words_match_the_byte_path(monkeypatch):
    # each call again with words refused: both paths give the same bytes and
    # counters; at 3000 replicas, 3 sites fit at most 3 fields and only
    # 2-site envelopes fit the rings.  Odd cases force the per-ring crossing
    # check on, which keeps a call with an ordered pair on the byte path
    shapes = _word_paths(monkeypatch)
    holds_words, may_cross = graphical._holds_words, graphical._may_cross
    rng = np.random.default_rng(130)
    boundaries = (None, FrozenWords("10", "01"), PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")))
    for k in range(12):
        n, radius, boundary = 2 + k % 2, k % 3, boundaries[k // 4]
        pair = random_compatible_pair(rng, positive=bool(k % 2))
        env = random_attractive_env(rng, radius)
        spec = ModelSpec(pair, env, n, boundary) if boundary else ModelSpec(pair, env, n)
        beta = rng.integers(0, 2, (3000, n)).astype(np.int8)
        layers = list(ordered_stack(rng.integers(0, 4, (3000, n))))[: 1 + (k // 2) % (5 - n)]
        monkeypatch.setattr(graphical, "_may_cross", (lambda *args: True) if k % 2 else may_cross)

        def run():
            res = batch_evolve(
                spec, (beta, spec.env_boundary), [(a, spec.spin_boundary) for a in layers], [1.0, 2.0], 3000, k
            )
            out = [res.times, res.background, res.layers, res.counters]
            if n == 2:
                out.append(batch_envelope(spec, [1.0, 2.0], 3000, k))
            return out

        monkeypatch.setattr(graphical, "_holds_words", holds_words)
        shapes.clear()
        words = run()
        assert len(shapes) == (0 if k % 2 and len(layers) > 1 else 2 if n == 2 else 1), k
        monkeypatch.setattr(graphical, "_holds_words", lambda *args: False)
        shapes.clear()
        np.testing.assert_equal(run(), words)
        assert shapes == [], k


# neighbourhood words: a byte-path call whose 2*halo + 1 slots of fields fit
# 16 bits, and whose table holds no more entries than the rings it expects,
# keys each ring by one lookup of its atom and neighbourhood word


def _neighbourhood_keys(monkeypatch):
    """Record (fields, slots, entries) for each call that keys its rings by
    neighbourhood words (`_neighbourhood_table`)."""
    real, shapes = graphical._neighbourhood_table, []

    def recorded(table, lut, rows, n_fields):
        by_word = real(table, lut, rows, n_fields)
        shapes.append((n_fields, len(rows), len(by_word)))
        return by_word

    monkeypatch.setattr(graphical, "_neighbourhood_table", recorded)
    return shapes


def test_neighbourhood_words_are_chosen_by_size_and_rings(monkeypatch):
    shapes = _neighbourhood_keys(monkeypatch)
    big = preset("cpree", sites=64, **PRESET_PARAMS["cpree"])
    beta0 = big.env_config((0,) * 64)
    # large-window's shapes: three layers, the envelope; 7 atoms of 12 bits
    batch_evolve(big, beta0, _spin_stack(big, 3), [0.5], 300, seed=1)
    batch_envelope(big, [0.5], 300, 2)
    assert shapes == [(4, 3, 7 << 12)] * 2
    shapes.clear()
    # run-counts' shape: 300 replicas to t = 0.05 expect 7 680 rings
    batch_evolve(big, beta0, _spin_stack(big, 3), [0.05], 300, seed=3)
    assert shapes == []
    # five fields at halo 1 fit 15 bits; radius 2 puts four fields on 20
    batch_evolve(big, beta0, _spin_stack(big, 4), [1.0], 600, seed=4)
    assert shapes == [(5, 3, 7 << 15)]
    shapes.clear()
    wide = ModelSpec(big.spin, random_attractive_env(np.random.default_rng(133), 2), 64)
    batch_evolve(wide, wide.env_config((0,) * 64), _spin_stack(wide, 3), [1.0], 600, seed=5)
    assert shapes == []
    # over TABLE_CAP by one entry, at more rings than entries; at the cap
    monkeypatch.setattr(graphical, "TABLE_CAP", (7 << 12) - 1)
    batch_evolve(big, beta0, _spin_stack(big, 3), [0.5], 300, seed=1)
    assert shapes == []
    monkeypatch.setattr(graphical, "TABLE_CAP", 7 << 12)
    batch_evolve(big, beta0, _spin_stack(big, 3), [0.5], 300, seed=1)
    assert shapes == [(4, 3, 7 << 12)]


def test_neighbourhood_words_match_lut_keys(monkeypatch):
    # each call again with neighbourhood words refused: both keyings give the
    # same bytes and counters.  9 sites of at least 2 fields never fit one
    # word, so both runs are on the byte path; odd cases force the per-ring
    # crossing check on.  Four layers get more replicas, since their 15-bit
    # table outnumbers the rings of 3000
    shapes = _neighbourhood_keys(monkeypatch)
    holds_words, may_cross = graphical._holds_words, graphical._may_cross
    rng = np.random.default_rng(132)
    boundaries = (None, FrozenWords("10", "01"), PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")))
    n, taken = 9, []
    for k in range(12):
        boundary, radius = boundaries[k % 3], (k // 3) % 3
        n_layers = 1 + k % (2 if radius == 2 else 4)
        replicas = 12_000 if n_layers == 4 else 3000
        pair = random_compatible_pair(rng, positive=bool(k % 2))
        env = random_attractive_env(rng, radius)
        spec = ModelSpec(pair, env, n, boundary) if boundary else ModelSpec(pair, env, n)
        beta = rng.integers(0, 2, (replicas, n)).astype(np.int8)
        stack = list(ordered_stack(rng.integers(0, 4, (replicas, n))))
        layers = (stack + stack[-1:])[:n_layers]
        monkeypatch.setattr(graphical, "_may_cross", (lambda *args: True) if k % 2 else may_cross)

        def run():
            res = batch_evolve(
                spec, (beta, spec.env_boundary), [(a, spec.spin_boundary) for a in layers], [1.0, 2.0], replicas, k
            )
            out = [res.times, res.background, res.layers, res.counters]
            if radius < 2:
                out.append(batch_envelope(spec, [1.0, 2.0], replicas, k))
            return out

        monkeypatch.setattr(graphical, "_holds_words", holds_words)
        shapes.clear()
        words = run()
        taken.append([fields for fields, *_ in shapes])
        monkeypatch.setattr(graphical, "_holds_words", lambda *args: False)
        shapes.clear()
        np.testing.assert_equal(run(), words)
        assert shapes == [], k
    # every case but radius 2 with two layers (15 bits of 45 atoms) took the
    # new keying at least once; the envelope has four fields
    assert taken == [[2, 4], [3, 4], [4, 4], [5, 4], [2, 4], [3, 4], [2], [], [2], [3, 4], [4, 4], [5, 4]]

def test_pair_words_match_the_byte_path(monkeypatch):
    # each direct pair simulation again with words refused: both paths give
    # the same bytes; at 1100 replicas every window of at most 5 sites (10
    # bits) is held as words, the per-word slot sums laid out by
    # `_padded_words`
    real, calls = graphical._padded_words, []

    def recorded(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(graphical, "_padded_words", recorded)
    holds_words = graphical._holds_words
    rng = np.random.default_rng(131)
    boundaries = (None, FrozenWords("10", "01"), PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")))
    for k in range(18):
        n, radius, boundary, t = 1 + k % 5, k // 6, boundaries[k % 3], (0.0, 0.3, 2.0)[k // 3 % 3]
        pair = random_compatible_pair(rng, positive=bool(k % 2))
        env = random_attractive_env(rng, radius)
        spec = ModelSpec(pair, env, n, boundary) if boundary else ModelSpec(pair, env, n)
        beta = (rng.integers(0, 2, (1100, n)).astype(np.int8), spec.env_boundary)
        eta = (rng.integers(0, 2, (1100, n)).astype(np.int8), spec.spin_boundary)

        monkeypatch.setattr(graphical, "_holds_words", holds_words)
        calls.clear()
        words = batch_simulate_pair(spec, beta, eta, t, 1100, k)
        assert calls == [(2, n)], k
        monkeypatch.setattr(graphical, "_holds_words", lambda *args: False)
        calls.clear()
        out = batch_simulate_pair(spec, beta, eta, t, 1100, k)
        assert calls == [], k
        for a, b in zip(out, words):
            assert a.dtype == b.dtype == np.int8 and a.flags.c_contiguous and b.flags.c_contiguous, k
            np.testing.assert_array_equal(a, b)


def test_configuration_starts_match_tiled_starts_on_both_paths(monkeypatch):
    # a Configuration start is one padded row, broadcast over the replicas; the
    # same start tiled into per-replica bits, for every field or for the
    # spins alone, gives the same snapshots and counters, on the word path
    # and (words refused) on the byte path
    real, calls = graphical._padded_words, []

    def recorded(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(graphical, "_padded_words", recorded)
    holds_words = graphical._holds_words
    replicas = 10_000

    def tiled(config):
        return np.tile(np.array(config.bits, dtype=np.int8), (replicas, 1)), config.boundary

    def same(config):
        return config

    base = _exact_window_spec()
    for boundary in (None, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001"))):
        spec = ModelSpec(base.spin, base.env, base.size, boundary) if boundary else base
        n = spec.size
        beta0 = spec.env_config((0, 1, 0))
        layers = [spec.spin_config((0, 0, 1)), spec.spin_config((0, 1, 1))]
        envelope = [
            (spec.env_config((0,) * n), [spec.spin_config((0,) * n)]),
            (spec.env_config((1,) * n), [spec.spin_config((1,) * n)]),
        ]
        names = ("beta_lo", "eta_lo", "beta_hi", "eta_hi")

        def runs(bg, spin):
            res = batch_evolve(spec, bg(beta0), [spin(a) for a in layers], [0.5, 1.0], replicas, 5)
            groups = [(bg(b), [spin(e) for e in es]) for b, es in envelope]
            return [
                [res.times, res.background, res.layers, res.counters],
                graphical._lockstep(spec, groups, names, [0.5, 1.0], replicas, 6, True),
                batch_simulate_pair(spec, bg(beta0), spin(layers[0]), 1.0, replicas, 7),
            ]

        for words in (True, False):
            monkeypatch.setattr(graphical, "_holds_words", holds_words if words else (lambda *args: False))
            calls.clear()
            one_row = runs(same, same)
            # batch_evolve's and the envelope's word tables, the pair's slot sums
            assert calls == ([(3, n), (4, n), (2, n)] if words else []), boundary
            np.testing.assert_equal(runs(tiled, tiled), one_row)
            np.testing.assert_equal(runs(same, tiled), one_row)
            times, snaps, _ = one_row[1]
            np.testing.assert_equal(batch_envelope(spec, [0.5, 1.0], replicas, 6), (times, [tuple(s) for s in snaps], 0))


# the plan memo: what a lockstep shape determines is built once per shape and
# shared, read-only, by every call of that shape


def _plan_calls():
    """Short lockstep calls, each differing from the first in one of: the
    layer count or grouping (field owners), the boundary and its halo
    bytes, the size, the background range, one spin rate."""
    base = cpree(sites=6, delta0=1.0, delta1=0.5, lam=3.0)
    rates = list(base.spin.c0.values)
    rates[0b101] += 0.25  # the top up-rate: still attractive
    specs = [
        base,
        ModelSpec(base.spin, base.env, 6, FrozenWords("10", "01")),
        ModelSpec(base.spin, base.env, 6, FrozenWords("01", "11")),
        cpree(sites=7, delta0=1.0, delta1=0.5, lam=3.0),
        ModelSpec(base.spin, random_attractive_env(np.random.default_rng(134), 1), 6),
        ModelSpec(SpinRatePair(LocalSpinRates(tuple(rates)), base.spin.c1), base.env, 6),
    ]

    def evolve_call(spec, n_layers, seed):
        def run():
            beta0 = spec.env_config(tuple(x % 2 for x in range(spec.size)))
            res = batch_evolve(spec, beta0, _spin_stack(spec, n_layers), [0.3, 0.6], 40, seed)
            return [res.times, res.background, res.layers, res.counters]
        return run

    calls = [evolve_call(spec, 3, k) for k, spec in enumerate(specs)]
    calls += [evolve_call(base, 1, 10), evolve_call(base, 4, 11), lambda: batch_envelope(base, [0.3, 0.6], 40, 12)]
    return calls


def test_plans_are_shared_only_by_calls_of_one_shape():
    # interleaved twice, every call gives what it gives on an empty memo;
    # the 3-layer stack and the envelope both pack four fields, grouped
    # differently
    calls = _plan_calls()
    graphical._plan.cache_clear()
    first = [call() for call in calls]
    second = [call() for call in calls]
    info = graphical._plan.cache_info()
    # nine calls of seven shapes: the frozen starts are the periodic shape's
    assert info.misses == 7 and info.hits == 2 * len(calls) - 7, info
    for call, a, b in zip(calls, first, second):
        graphical._plan.cache_clear()
        np.testing.assert_equal(a, call())
        np.testing.assert_equal(b, a)


def test_plan_arrays_are_read_only():
    spec = cpree(sites=6, delta0=1.0, delta1=0.5, lam=3.0)
    for owner in ((0, 0), (0, 0, 0, 0), (0, 0, 2, 2)):
        edges, table, lut, key_rows, starts, site, atom, lookup, rows_of, spin_rank = graphical._plan(
            spec.spin, spec.env, 6, owner
        )
        arrays = [edges, table, lut, key_rows, starts, site, atom, rows_of, spin_rank, *lookup[1:]]
        for array in arrays + [graphical._CROSSING]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_plan_memo_is_bounded_and_keeps_no_refusal():
    graphical._plan.cache_clear()
    assert graphical._plan.cache_info().maxsize == graphical.PLANS
    for n in range(3, graphical.PLANS + 6):
        spec = cpree(sites=n)
        batch_evolve(spec, spec.env_config((0,) * n), _spin_stack(spec, 1), [0.1], 2, seed=n)
    info = graphical._plan.cache_info()
    assert info.misses == graphical.PLANS + 3 and info.currsize == graphical.PLANS, info
    # six layers' joint table exceeds TABLE_CAP: refused on every call, never kept
    spec = cpree(sites=5)
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds TABLE_CAP"):
            batch_evolve(spec, spec.env_config((0,) * 5), [spec.spin_config((1,) * 5)] * 6, [0.1], 2, seed=1)
    assert graphical._plan.cache_info().misses == info.misses + 2


def _proof_calls():
    """Short lockstep calls of one shape per boundary, each differing from
    another in one of: the start's census of packed bytes (another set of
    ordered pairs), its frozen edge bytes (the second crosses a pair, so its
    rings are checked), check_order; and one that differs from the first
    only in its seed and replicas, which shares its proof.  A call gives its
    outputs, or the message of the crossing it raised."""
    base = cpree(sites=6, delta0=1.0, delta1=0.5, lam=3.0)
    frozen = cpree(sites=6, delta0=1.0, delta1=0.5, lam=3.0, boundary=FrozenWords("1", "1"))
    alt = tuple(x % 2 for x in range(6))
    zeros = np.zeros((40, 6), dtype=np.int8)

    def evolve_call(spec, layers, seed, replicas=40, check_order=True):
        def run():
            try:
                res = batch_evolve(spec, spec.env_config(alt), layers, [0.3, 0.6], replicas, seed, check_order)
            except graphical.OrderViolationError as crossing:
                return str(crossing)
            return [res.times, res.background, res.layers, res.counters]
        return run

    zero, alternating, one = _spin_stack(base, 3)
    return [
        evolve_call(base, [zero, alternating, one], 1),
        evolve_call(base, [alternating, zero, one], 2),
        evolve_call(frozen, [(zeros, FrozenWords("0", "0"))] * 2, 3),
        evolve_call(frozen, [(zeros, FrozenWords("1", "1")), (zeros, FrozenWords("0", "0"))], 3),
        evolve_call(base, [zero, alternating, one], 4, check_order=False),
        evolve_call(base, [zero, alternating, one], 5, replicas=30),
    ]


def _counted_proofs(monkeypatch):
    """The calls of `_order_proof`, each the proof it made, on an empty memo."""
    made, real = [], graphical._order_proof
    monkeypatch.setattr(graphical, "_order_proof", lambda *args: made.append(real(*args)) or made[-1])
    graphical._PROOFS.clear()
    return made


def test_order_proofs_are_shared_only_by_calls_of_one_start(monkeypatch):
    # interleaved twice, every call gives what it gives on empty memos; a
    # start's census, its edge bytes and check_order each key its proof
    calls = _proof_calls()
    made = _counted_proofs(monkeypatch)
    first = [call() for call in calls]
    assert len(made) == 5 and len(graphical._PROOFS) == 5
    second = [call() for call in calls]
    assert len(made) == 5
    # no two starts have one proof: another would check other pairs, or none
    assert len({(pairs, check) for pairs, _, check in made}) == 5
    for call, a, b in zip(calls, first, second):
        graphical._PROOFS.clear()
        graphical._plan.cache_clear()
        np.testing.assert_equal(a, call())
        np.testing.assert_equal(b, a)


def test_order_proof_tables_are_read_only(monkeypatch):
    made = _counted_proofs(monkeypatch)
    for call in _proof_calls():
        call()
    for pairs, crossed, check in made:
        assert type(pairs) is tuple and type(check) is bool
        assert not crossed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            crossed[0] = 1


def test_order_proof_memo_is_bounded(monkeypatch):
    # PROOFS + 3 starts of one shape, each of another census: the memo keeps
    # the last PROOFS, and the first start's proof is made again
    made = _counted_proofs(monkeypatch)
    spec = cpree(sites=8)
    rng = np.random.default_rng(141)
    beta0 = spec.env_config((0,) * 8)
    censuses = set()
    for _ in range(graphical.PROOFS + 3):
        while True:
            layers = [spec.spin_config(tuple(int(v) for v in rng.integers(0, 2, 8))) for _ in range(3)]
            census = frozenset(zip(*(layer.bits for layer in layers)))
            if census not in censuses:
                break
        censuses.add(census)
        batch_evolve(spec, beta0, layers, [0.05], 2, seed=1)
        if len(made) == 1:
            first = layers
    assert len(made) == graphical.PROOFS + 3 and len(graphical._PROOFS) == graphical.PROOFS
    batch_evolve(spec, beta0, first, [0.05], 2, seed=1)
    assert len(made) == graphical.PROOFS + 4 and len(graphical._PROOFS) == graphical.PROOFS


def _horizon_calls(name, t):
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    beta0, top = sc.env_config((0, 0, 0)), sc.spin_config((1, 1, 1))
    if name == "envelope":
        return batch_envelope(sc, [t], 5, 1)
    if name == "evolve":
        return batch_evolve(sc, beta0, [top], [0.5, t], 5, seed=1)
    if name == "pair":
        return batch_simulate_pair(sc, beta0, top, t, 5, 1)
    if name == "coupled":
        return simulate_coupled(CoupledSpec(sc, 3), JointState(beta0, tuple(_spin_stack(sc, 3))), 1, t)
    return EventStream(sc, 1, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("name", ["envelope", "evolve", "pair", "coupled", "stream"])
def test_non_finite_or_negative_horizons_are_refused_before_any_draw(monkeypatch, name, t):
    # a NaN grid time once gave a run of no rings, +inf died inside numpy,
    # the direct simulators never returned at NaN or +inf, and a negative
    # horizon returned the start
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was made before the horizon was checked")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match="finite|nonnegative|>= 0"):
        _horizon_calls(name, t)


def _no_generator(*args, **kwargs):
    raise AssertionError("a generator was made before the budget was checked")


def _still_spec():
    """A 3-site spec whose rates are all 0: no horizon is over its budget."""
    zero = LocalSpinRates((0.0,) * 8)
    return ModelSpec(SpinRatePair(zero, zero), EnvRateSpec(0, (0.0, 0.0)), 3)


def _refused_within_a_mebibyte(name):
    # the batch engines once died allocating per-step ring counts (931 TiB at t = 1e12)
    tracemalloc.start()
    try:
        with pytest.raises(EventBudgetError, match="rings per replica by t=1e\\+300 exceed the event budget"):
            _horizon_calls(name, 1e300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, (name, peak)


def _just_over_the_budget():
    """A 3-site cpree spec and a horizon just above one replica's budget of
    expected lockstep rings."""
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    c = sc.constants()
    return sc, graphical.EVENT_BUDGET / (3 * (c.b_bar + c.c_hat)) * (1 + 1e-9)


def test_coupled_horizons_over_the_event_budget_are_refused_before_any_draw(monkeypatch):
    # the coupled simulator once ran on at any finite horizon, its event list
    # growing without bound; a start whose rates are all 0 still returns at once
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    with pytest.raises(EventBudgetError, match="exceed the event budget of 10000000"):
        _horizon_calls("coupled", 1e300)
    monkeypatch.undo()
    sc = preset("contact", sites=3, lam=2.0, delta=1.0)
    start = JointState(sc.env_config((0, 0, 0)), (sc.spin_config((0, 0, 0)),))
    assert simulate_coupled(CoupledSpec(sc, 1), start, 1, 1e300).events == []


def test_lockstep_horizons_over_the_event_budget_are_refused_before_any_draw(monkeypatch):
    # a spec whose rates are all 0 still returns at once
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    for name in ("envelope", "evolve"):
        _refused_within_a_mebibyte(name)
    sc, t = _just_over_the_budget()
    with pytest.raises(EventBudgetError, match="; lower the t_grid times$"):
        batch_envelope(sc, [t], 5, 1)
    monkeypatch.undo()
    still = _still_spec()
    top = still.spin_config((1, 0, 1))
    res = batch_evolve(still, still.env_config((0, 1, 0)), [top], [1e300], 5, seed=1)
    assert res.counters["events"] == 0 and np.all(res.layers[0][0] == (1, 0, 1))
    assert batch_envelope(still, [1e300], 5, 1)[0] == [1e300]


def test_pair_horizons_over_the_event_budget_are_refused_before_any_draw(monkeypatch):
    # a spec whose rates are all 0 still returns at once
    monkeypatch.setattr(np.random, "default_rng", _no_generator)
    _refused_within_a_mebibyte("pair")
    sc, t = _just_over_the_budget()
    with pytest.raises(EventBudgetError, match="; lower t$"):
        batch_simulate_pair(sc, sc.env_config((0, 0, 0)), sc.spin_config((1, 1, 1)), t, 5, 1)
    monkeypatch.undo()
    still = _still_spec()
    beta, eta = batch_simulate_pair(still, still.env_config((0, 1, 0)), still.spin_config((1, 0, 1)), 1e300, 5, 1)
    assert np.all(eta == (1, 0, 1)) and np.all(beta == (0, 1, 0))


BAD_REPLICAS = [0, -3, 2.5, True, "4"]


@pytest.mark.parametrize("replicas", BAD_REPLICAS, ids=repr)
@pytest.mark.parametrize("name", ["envelope", "evolve", "pair"])
def test_batch_engines_refuse_a_replica_count_that_is_not_a_positive_integer(monkeypatch, name, replicas):
    # 0 once gave empty stacks, -3 died in numpy's "negative dimensions are
    # not allowed" and 2.5 in a numpy TypeError
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    beta0, top = sc.env_config((0, 0, 0)), sc.spin_config((1, 1, 1))

    def no_work(*args, **kwargs):
        raise AssertionError("a table or a generator was made before the replica count was checked")

    monkeypatch.setattr(np.random, "default_rng", no_work)
    monkeypatch.setattr(graphical, "_joint_table", no_work)
    monkeypatch.setattr(graphical, "_field_rows", no_work)
    calls = {
        "envelope": lambda: batch_envelope(sc, [0.5], replicas, 1),
        "evolve": lambda: batch_evolve(sc, beta0, [top], [0.5], replicas, seed=1),
        "pair": lambda: batch_simulate_pair(sc, beta0, top, 0.5, replicas, 1),
    }
    with pytest.raises(ValueError, match=r"^replicas must be an integer >= 1, not %s$" % re.escape(repr(replicas))):
        calls[name]()


def test_batch_engines_take_a_numpy_integer_replica_count():
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    beta0, top = sc.env_config((0, 0, 0)), sc.spin_config((1, 1, 1))
    for replicas in (np.int64(4), np.int32(4)):
        a, b = batch_evolve(sc, beta0, [top], [0.5], replicas, seed=1), batch_evolve(sc, beta0, [top], [0.5], 4, seed=1)
        assert a.counters == b.counters and np.array_equal(a.layers[-1][0], b.layers[-1][0])
        pair = batch_simulate_pair(sc, beta0, top, 0.5, replicas, 1)
        assert all(np.array_equal(x, y) for x, y in zip(pair, batch_simulate_pair(sc, beta0, top, 0.5, 4, 1)))


@pytest.mark.parametrize("seed", [1.5, True, -1, "1"], ids=repr)
def test_event_stream_refuses_a_seed_that_is_not_an_integer_of_at_least_0(seed):
    # 1.5 once replayed seed 1's events, and True became seed 1
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, not %s$" % re.escape(repr(seed))):
        EventStream(sc, seed, 1.0)


@pytest.mark.parametrize("max_events", [1.5, True, -1, "10", 1e6], ids=repr)
def test_event_stream_refuses_a_max_events_that_is_not_an_integer_of_at_least_0(max_events):
    # 1.5 and True once gave a budget of one ring
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    message = r"^max_events must be an integer >= 0, not %s$" % re.escape(repr(max_events))
    with pytest.raises(ValueError, match=message):
        EventStream(sc, 1, 1.0, max_events=max_events)


def test_event_stream_takes_a_numpy_integer_seed():
    sc = preset("cpree", sites=3, **PRESET_PARAMS["cpree"])
    beta0, top = sc.env_config((0, 0, 0)), sc.spin_config((1, 1, 1))
    runs = [evolve(beta0, [top], EventStream(sc, seed, 2.0)) for seed in (np.int64(7), np.uint32(7), 7)]
    assert runs[0].events and all(run.events == runs[-1].events for run in runs)


def test_evolve_refuses_a_start_of_another_size():
    # the lockstep engine's wording, for the background and for each layer
    sc = preset("cpree", sites=4, **PRESET_PARAMS["cpree"])
    four, five = sc.spin_config((1,) * 4), sc.spin_config((1,) * 5)
    for beta0, layers, message in ((five, [four], "beta has 5 sites, not 4"),
                                   (four, [four, five], "xi has 5 sites, not 4")):
        with pytest.raises(ValueError, match="^%s$" % message):
            evolve(beta0, layers, EventStream(sc, 1, 1.0))
