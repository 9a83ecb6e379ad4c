import itertools
import math
import tracemalloc

import numpy as np
import pytest

from envspin import (
    EnvRateSpec,
    FrozenWords,
    JointState,
    LocalSpinRates,
    ModelSpec,
    PerLayerFrozen,
    SpinRatePair,
    build_coupled_generator,
    build_generator,
    limit_distributions,
    preset,
    semigroup_apply,
    stationary_set,
    total_variation,
)
from envspin import oracle
from envspin.coupling import coupled_event_rates
from envspin.graphical import EVENT_BUDGET, EventBudgetError
from envspin.lattice import word_index
from envspin.oracle import _certify_classes, _closed_classes, _strongly_connected_components

from _support import random_compatible_pair, random_env, random_positive_spec


def single_site_spec(u, d, p01, p10):
    vals = [0.0] * 8
    vals[0b000] = p01
    vals[0b111] = p10
    c = LocalSpinRates(vals)
    return ModelSpec(SpinRatePair(c, c), EnvRateSpec(0, (u, d)), 1)


def test_single_site_generator_transcription():
    u, d, p01, p10 = 0.7, 0.3, 1.1, 0.9
    G = build_generator(single_site_spec(u, d, p01, p10))
    Q = G.dense()
    # states: (background_bit << 1) | spin_bit
    expected = np.zeros((4, 4))
    expected[0b00, 0b10] = u
    expected[0b01, 0b11] = u
    expected[0b10, 0b00] = d
    expected[0b11, 0b01] = d
    expected[0b00, 0b01] = p01
    expected[0b10, 0b11] = p01
    expected[0b01, 0b00] = p10
    expected[0b11, 0b10] = p10
    for s in range(4):
        expected[s, s] = -expected[s].sum()
    assert np.allclose(Q, expected, atol=0)


def test_row_sums_vanish_for_random_specs():
    rng = np.random.default_rng(60)
    for _ in range(10):
        spec = ModelSpec(random_compatible_pair(rng), random_env(rng), int(rng.integers(1, 5)))
        G = build_generator(spec)
        assert G.max_row_sum_error() <= 1e-12


def test_all_zero_state_outflow():
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.25, sites=4)
    G = build_generator(spec)
    expected = 4 * (spec.env.table[0b0] + spec.spin.c0.values[0b000])
    assert G.out_rate(0) == pytest.approx(expected)


def test_oracle_size_cap():
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=7)
    with pytest.raises(ValueError):
        build_generator(spec)
    # three coupled layers on 5 sites span 2**20 states
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=5)
    with pytest.raises(ValueError):
        build_coupled_generator(spec, 3)


def test_unique_stationary_for_positive_rates():
    rng = np.random.default_rng(61)
    for _ in range(5):
        spec = random_positive_spec(rng)
        G = build_generator(spec)
        S = stationary_set(G)
        assert S.dimension == 1
        assert not S.flagged
        assert _certify_classes(G, S.closed_classes) == []
        pi = S.distributions[0]
        assert pi.min() >= 0 and abs(pi.sum() - 1) < 1e-12


def test_stationary_residuals_small():
    rng = np.random.default_rng(62)
    spec = random_positive_spec(rng, sites=3)
    G = build_generator(spec)
    for pi in stationary_set(G).distributions:
        assert np.abs(G.matvec_left(pi)).max() <= 1e-10


def test_stationary_set_flags_a_law_that_is_not_stationary(monkeypatch):
    # planted: the class search returns its one class, every state, with the
    # uniform law; the class certifies, so only the residual check can see it
    rng = np.random.default_rng(62)
    G = build_generator(random_positive_spec(rng, sites=3))
    S = stationary_set(G)
    assert S.dimension == 1 and not S.flagged
    real = oracle._closed_classes

    def uniform(G):
        classes, law, label = real(G)
        return classes, np.full(G.dim, 1.0 / G.dim), label

    monkeypatch.setattr(oracle, "_closed_classes", uniform)
    S = stationary_set(G)
    assert S.flagged
    assert [note.split(" ")[:2] for note in S.notes] == [["stationary", "residual"]]


def test_frozen_background_sector_product_structure():
    # a never-moving background freezes each sector; with strictly positive
    # spin tables every sector is irreducible, so one stationary law per
    # background word
    rng = np.random.default_rng(63)
    pair = random_compatible_pair(rng, positive=True)
    spec = ModelSpec(pair, EnvRateSpec(0, (0.0, 0.0)), 3)
    G = build_generator(spec)
    S = stationary_set(G)
    assert S.dimension == 2**3
    for comp in S.closed_classes:
        backgrounds = {G.decode(s)[0] for s in comp}
        assert len(backgrounds) == 1


def test_class_certificate_flags_planted_wrong_classes():
    # a frozen background makes one closed class per background word; each
    # wrong class list must be flagged, the true one must pass
    rng = np.random.default_rng(63)
    spec = ModelSpec(random_compatible_pair(rng, positive=True), EnvRateSpec(0, (0.0, 0.0)), 3)
    G = build_generator(spec)
    classes = stationary_set(G).closed_classes
    assert len(classes) == 8 and _certify_classes(G, classes) == []
    first = classes[0]
    wrong = {
        "dropped": classes[1:],
        "merged": [sorted(first + classes[1])] + classes[2:],
        "split": [first[: len(first) // 2], first[len(first) // 2:]] + classes[1:],
        # strongly connected, and every state reaches it, but not closed
        "open": [first[:1]] + classes[1:],
    }
    for label, planted in wrong.items():
        assert _certify_classes(G, planted), label


def _mutual_reach(dim, src, dst):
    """Brute force: reach[u, v] iff v is reachable from u (itself included)
    along the edges src -> dst, by squaring the boolean closure."""
    reach = np.eye(dim, dtype=np.float32)
    reach[src, dst] = 1.0
    while True:
        grown = (reach @ reach > 0).astype(np.float32)
        if np.array_equal(grown, reach):
            return reach > 0
        reach = grown


def _recursive_tarjan(adj):
    """Textbook recursive Tarjan, neighbors in list order: the components and
    the order they close in, for graphs small enough to recurse on."""
    index, low, stack, out = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in adj[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while not comp or comp[-1] != v:
                comp.append(stack.pop())
            out.append(comp)

    for v in range(len(adj)):
        if v not in index:
            visit(v)
    return out


def test_tarjan_matches_mutual_reachability_on_random_graphs():
    # sparse random graphs with self-loops and isolated states: the components
    # are the classes of mutual reachability, and they close in the order of
    # the recursive algorithm, each after every component it reaches
    rng = np.random.default_rng(141)
    for k in range(40):
        dim = int(rng.integers(1, 60))
        used = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False)
        m = int(rng.integers(0, 2 * len(used) + 1))
        src, dst = rng.choice(used, m), rng.choice(used, m)
        loops = rng.choice(dim, size=int(rng.integers(0, 3)))
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
        adj = [dst[src == v].tolist() for v in range(dim)]
        comps = _strongly_connected_components(dim, adj)

        assert comps == _recursive_tarjan(adj), k
        assert sorted(v for comp in comps for v in comp) == list(range(dim)), k
        reach = _mutual_reach(dim, src, dst)
        same = reach & reach.T
        comp_of = np.empty(dim, dtype=np.int64)
        for c, comp in enumerate(comps):
            comp_of[comp] = c
        assert np.array_equal(same, comp_of[:, None] == comp_of[None, :]), k
        # an edge between components points to one that closed earlier
        cross = comp_of[src] != comp_of[dst]
        assert (comp_of[dst][cross] < comp_of[src][cross]).all(), k


def test_tarjan_needs_no_recursion_on_long_paths():
    # a path and a cycle of 5 000 states, deeper than Python's recursion limit
    n = 5_000
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert _strongly_connected_components(n, path) == [[v] for v in range(n - 1, -1, -1)]
    cycle = [[(v + 1) % n] for v in range(n)]
    assert _strongly_connected_components(n, cycle) == [list(range(n - 1, -1, -1))]


def test_closed_classes_match_brute_force_reachability():
    # the closed classes are the mutual-reachability classes with no jump
    # out, each law is stationary on its class, and label[s] names the class
    # holding s; the class order is the one the search gave when this test
    # was written
    rng = np.random.default_rng(63)
    frozen = ModelSpec(random_compatible_pair(rng, positive=True), EnvRateSpec(0, (0.0, 0.0)), 3)
    for spec, expected in (
        (preset("remark_iv", sites=5), [[0], [992]]),
        (preset("remark_vi", sites=5), [[992], [993], [995], [999], [1007], [1023]]),
        (frozen, None),
    ):
        G = build_generator(spec)
        classes, law, label = _closed_classes(G)
        if expected is not None:
            assert classes == expected
        reach = _mutual_reach(G.dim, G.rows, G.cols)
        same = reach & reach.T
        closed = {tuple(np.flatnonzero(same[s])) for s in range(G.dim) if not (reach[s] & ~same[s]).any()}
        assert sorted(map(tuple, classes)) == sorted(closed)
        for k, comp in enumerate(classes):
            pi = np.where(label == k, law, 0)
            assert np.array_equal(np.flatnonzero(label == k), comp)
            assert np.array_equal(np.flatnonzero(pi), comp) and abs(pi.sum() - 1.0) <= 1e-12
            assert np.abs(G.matvec_left(pi)).max() <= 1e-12
        assert (label[np.setdiff1d(np.arange(G.dim), np.concatenate(classes))] == -1).all()


def _out_transitions(G, s):
    """State s's jumps grouped by site: {x: {local target: rate}}, a local
    target holding the new bit at x of every field, background first."""
    n = G.n_sites
    fields = G.decode(s)
    out = {}
    here = G.rows == s
    for t, rate in zip(G.cols[here].tolist(), G.vals[here].tolist()):
        new = G.decode(t)
        (x,) = {x for f, g in zip(fields, new) for x in range(n) if ((f ^ g) >> (n - 1 - x)) & 1}
        out.setdefault(x, {})[tuple((g >> (n - 1 - x)) & 1 for g in new)] = rate
    return out


def test_generator_matches_scalar_word_rule():
    # every ordered state's jumps at a site are `coupled_event_rates` there;
    # unordered states only flip their background
    iv = preset("remark_iv", sites=3)
    rng = np.random.default_rng(71)
    pair = random_compatible_pair(rng)
    frozen = ModelSpec(pair, iv.env, 2, FrozenWords("011", "10"))
    split = ModelSpec(pair, iv.env, 2, PerLayerFrozen(FrozenWords("10", "1"), FrozenWords("0", "01")))
    cases = [(iv, L) for L in (1, 2, 3)]
    cases += [(preset("remark_vi", sites=3), L) for L in (1, 2, 3)]
    cases += [(frozen, L) for L in (1, 2, 3, 4)]
    cases += [(split, L) for L in (1, 3)]
    cases += [(preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=2), 4)]
    for spec, n_layers in cases:
        G = build_coupled_generator(spec, n_layers) if n_layers > 1 else build_generator(spec)
        n = spec.size
        for s in range(G.dim):
            beta, *layers = [
                cfg(tuple((f >> (n - 1 - x)) & 1 for x in range(n)))
                for cfg, f in zip([spec.env_config] + [spec.spin_config] * n_layers, G.decode(s))
            ]
            jumps = _out_transitions(G, s)
            try:
                state = JointState(beta, tuple(layers))
            except ValueError:
                state = None
            for x in range(n):
                if state is not None:
                    want = {t: float(r) for t, r in coupled_event_rates(spec, state, x).items()}
                else:
                    b = spec.env.table[word_index(beta, x, spec.env.range)]
                    centers = tuple(l.bits[x] for l in layers)
                    want = {(1 - beta.bits[x],) + centers: b} if b > 0 else {}
                assert jumps.get(x, {}) == want, (spec, n_layers, s, x)


def test_remark_vi_staircases_absorbing():
    spec = preset("remark_vi", sites=5)
    G = build_generator(spec)
    n = spec.size
    beta_ones = (1 << n) - 1
    for a in range(n + 1):
        eta = G.bits_to_int([0] * a + [1] * (n - a))
        assert G.out_rate(G.encode([beta_ones, eta])) == 0.0
    S = stationary_set(G)
    assert S.dimension >= 2


def test_remark_vi_perturbation_unfreezes_staircase():
    spec = preset("remark_vi", sites=5)
    vals = list(spec.spin.c1.values)
    vals[0b001] = 0.05
    vals[0b000] = 0.0
    perturbed = LocalSpinRates(vals)
    spec2 = ModelSpec(SpinRatePair(perturbed, perturbed), spec.env, spec.size, spec.boundary)
    G = build_generator(spec2)
    n = spec2.size
    eta = G.bits_to_int([0, 0, 0, 1, 1])
    assert G.out_rate(G.encode([(1 << n) - 1, eta])) > 0.0


def test_semigroup_identity_and_closed_form():
    spec = single_site_spec(0.7, 0.3, 0.0, 0.0)
    G = build_generator(spec)
    p0 = G.point_mass(0)
    res = semigroup_apply(G, p0, 0.0)
    assert np.array_equal(res.dist, p0)
    for t in (0.2, 1.0, 5.0):
        res = semigroup_apply(G, p0, t)
        assert res.truncation_error < 1e-10
        p_up = (0.7 / 1.0) * (1.0 - math.exp(-1.0 * t))
        assert res.dist[0b10] == pytest.approx(p_up, abs=1e-9)
        assert res.dist[0b00] == pytest.approx(1 - p_up, abs=1e-9)


def test_semigroup_converges_to_stationary():
    rng = np.random.default_rng(64)
    spec = random_positive_spec(rng)
    G = build_generator(spec)
    pi = stationary_set(G).distributions[0]
    res = semigroup_apply(G, G.point_mass(3), 200.0)
    assert total_variation(res.dist, pi) < 1e-6


def _no_product(p):
    raise AssertionError("a product was taken before the horizon was checked")


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_semigroup_refuses_a_horizon_that_is_not_finite_and_nonnegative(t):
    G = build_generator(single_site_spec(0.7, 0.3, 0.0, 0.0))
    G.matvec_left = _no_product
    with pytest.raises(ValueError, match="^t must be finite and >= 0$"):
        semigroup_apply(G, G.point_mass(0), t)


def test_semigroup_refuses_a_horizon_over_the_event_budget_before_any_product():
    G = build_generator(single_site_spec(0.7, 0.3, 0.0, 0.0))
    lam = 1.0 - G.diag.min()  # the uniformization rate: the largest outflow plus one
    G.matvec_left = _no_product
    for t in (1e300, EVENT_BUDGET / lam * (1 + 1e-9)):
        with pytest.raises(EventBudgetError, match="exceed the event budget of %d; lower t$" % EVENT_BUDGET):
            semigroup_apply(G, G.point_mass(0), t)


def test_semigroup_refuses_a_distribution_of_the_wrong_length():
    G = build_generator(single_site_spec(0.7, 0.3, 0.0, 0.0))
    with pytest.raises(ValueError, match="^distribution must have length 4$"):
        semigroup_apply(G, np.full(3, 1 / 3), 1.0)


def _refused_under(limit_bytes, solve, G, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^%s$" % message):
            solve(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_bytes


def test_dense_blocks_over_the_cap_are_refused_before_they_are_allocated():
    # a positive spec on 7 sites is one closed class of all 16384 states,
    # whose dense block would take 2.1 GB
    G = build_coupled_generator(random_positive_spec(np.random.default_rng(70), sites=7), 1)
    for solve in (stationary_set, limit_distributions):
        _refused_under(64e6, solve, G, "closed class of 16384 states exceeds the dense cap of 4096 states")
    # a frozen background keeps each of its 128 words with all spins 0
    # absorbing; the other 16256 states are transient
    G = build_coupled_generator(preset("contact", lam=1.0, delta=1.0, sites=7), 1)
    with pytest.raises(ValueError, match="^transient set of 16256 states exceeds the dense cap of 4096 states$"):
        limit_distributions(G)


def test_many_closed_classes_share_one_law_vector():
    # a frozen background leaves 2816 closed classes on the 4096 states of
    # this stack, so a full-length law per class would take 92 MB
    G = build_coupled_generator(preset("contact", lam=1.0, delta=1.0, sites=4), 2)
    tracemalloc.start()
    try:
        L = limit_distributions(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.converged
    assert peak <= 40e6


def test_limits_match_unique_stationary():
    rng = np.random.default_rng(65)
    spec = random_positive_spec(rng)
    G = build_generator(spec)
    L = limit_distributions(G)
    assert L.converged
    assert L.tv_distance < 1e-6
    # the limits are themselves stationary
    for dist in (L.lower, L.upper):
        pushed = semigroup_apply(G, dist, 1.0).dist
        assert total_variation(pushed, dist) < 1e-8


def test_limits_stochastically_ordered_on_marginals():
    rng = np.random.default_rng(66)
    n = 3
    upsets = []
    for subset in range(1 << (1 << n)):
        members = [s for s in range(1 << n) if subset >> s & 1]
        mset = set(members)
        if all((s | t) in mset for s in members for t in range(1 << n) if (s | t) == t):
            upsets.append(members)
    assert len(upsets) == 20
    for _ in range(3):
        spec = random_positive_spec(rng, sites=n)
        G = build_generator(spec)
        L = limit_distributions(G)
        # the spin bits are the low n bits of a state index
        spin_index = np.arange(G.dim) & ((1 << n) - 1)
        lo = np.bincount(spin_index, weights=L.lower, minlength=1 << n)
        hi = np.bincount(spin_index, weights=L.upper, minlength=1 << n)
        for up in upsets:
            assert lo[up].sum() <= hi[up].sum() + 1e-9


def test_remark_vi_limits_stay_apart():
    spec = preset("remark_vi", sites=4)
    G = build_generator(spec)
    L = limit_distributions(G)
    assert L.converged
    assert L.tv_distance > 0.9


def _exact_limit_cases():
    rng = np.random.default_rng(68)
    cases = [(random_positive_spec(rng), 200.0) for _ in range(3)]
    cases.append((preset("remark_iv", sites=3), 200.0))
    cases.append((preset("remark_vi", sites=4), 200.0))
    # the spins die out only after a long survival on the supercritical ring
    cases.append((preset("cpree", gamma=1.0, delta0=1.0, delta1=0.5, p=0.5, lam=3.0, sites=3), 800.0))
    return cases


def test_limits_match_long_horizon_semigroup():
    for spec, horizon in _exact_limit_cases():
        G = build_generator(spec)
        L = limit_distributions(G)
        assert L.converged
        for start, dist in ((0, L.lower), (G.dim - 1, L.upper)):
            pushed = semigroup_apply(G, G.point_mass(start), horizon).dist
            assert total_variation(pushed, dist) <= 1e-9


def test_limits_are_mixtures_of_closed_class_laws():
    for spec, _ in _exact_limit_cases():
        G = build_generator(spec)
        S = stationary_set(G)
        L = limit_distributions(G)
        for dist in (L.lower, L.upper):
            weights = np.array([dist[comp].sum() for comp in S.closed_classes])
            assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-10
            mixture = sum(w * pi for w, pi in zip(weights, S.distributions))
            assert np.abs(dist - mixture).max() <= 1e-12


def test_limit_from_a_closed_class_is_its_law():
    # on the remark-vi window the all-ones state is a frozen staircase and on
    # the remark-iv window the all-zeros state never moves: a start inside a
    # closed class stays with that class's law
    for name, sites, start in (("remark_vi", 4, "upper"), ("remark_iv", 3, "lower")):
        G = build_generator(preset(name, sites=sites))
        S = stationary_set(G)
        s = G.dim - 1 if start == "upper" else 0
        (k,) = [k for k, comp in enumerate(S.closed_classes) if s in comp]
        assert np.array_equal(getattr(limit_distributions(G), start), S.distributions[k])


def test_coupled_generator_marginals_match_pair_generator():
    # summing the two-layer coupled chain over either layer reproduces the
    # plain pair semigroup
    rng = np.random.default_rng(67)
    spec = random_positive_spec(rng, sites=2)
    G2 = build_coupled_generator(spec, 2)
    G1 = build_generator(spec)
    n = spec.size
    start = G2.encode([0b01, 0b00, 0b11])
    res2 = semigroup_apply(G2, G2.point_mass(start), 0.9)
    for layer_pos, eta0 in ((1, 0b00), (2, 0b11)):
        res1 = semigroup_apply(G1, G1.point_mass(G1.encode([0b01, eta0])), 0.9)
        marg = np.zeros(G1.dim)
        for s, p in enumerate(res2.dist):
            fields = G2.decode(s)
            marg[G1.encode([fields[0], fields[layer_pos]])] += p
        assert total_variation(marg, res1.dist) < 1e-9


def test_generator_csv_dump():
    spec = single_site_spec(0.5, 0.5, 1.0, 1.0)
    G = build_generator(spec)
    text = G.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "from,to,rate"
    assert len(lines) == 1 + len(G.rows)
