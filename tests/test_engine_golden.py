"""Golden digests of seeded simulator output.

Each lockstep-engine run below is hashed (SHA-256 over the grid times, every
snapshot's dtype, shape and bytes, the order-violation count and the
counters); the per-site mark engine (`EventStream` + `evolve`) and the
generator-level simulators (`simulate_coupled`, `batch_simulate_pair`) are
hashed over their trajectories' CSV text or final states.  Each digest is
compared with the one the code gave when these tests were written.  A rewrite
that claims the same RNG use and the same floats must reproduce every digest
bit for bit.
"""

import hashlib
import json
import re
from unittest import mock

import numpy as np
import pytest

from envspin import (
    CoupledSpec,
    EnvRateSpec,
    EventStream,
    FrozenWords,
    JointState,
    ModelSpec,
    PerLayerFrozen,
    SpinRatePair,
    batch_envelope,
    batch_evolve,
    evolve,
    preset,
    simulate_coupled,
)
from envspin import graphical
from envspin.coupling import batch_simulate_pair
from envspin.graphical import BLOCK_RINGS, OrderViolationError
from envspin.rates import LocalSpinRates

from _support import (
    ordered_stack,
    random_attractive_env,
    random_compatible_pair,
    random_positive_spec,
    sample_ordered_quadruples,
)

SUPERCRITICAL = dict(gamma=1.0, delta0=1.0, delta1=0.5, p=0.5, lam=3.0)


def _digest(times, snaps, violations, counters=None):
    h = hashlib.sha256(repr([float(t) for t in times]).encode())
    for snap in snaps:
        for arr in snap:
            h.update(("%s%r" % (arr.dtype, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps([violations, counters], sort_keys=True).encode())
    return h.hexdigest()


def _evolve_digest(spec, beta, layers, grid, replicas, seed, **kw):
    res = batch_evolve(
        spec,
        (beta, spec.env_boundary),
        [(a, spec.spin_boundary) for a in layers],
        grid,
        replicas,
        seed,
        **kw,
    )
    snaps = [[b] + list(ls) for b, ls in zip(res.background, res.layers)]
    return _digest(res.times, snaps, res.order_violations, res.counters)


def _random_triple_start(rng, replicas, n):
    beta = rng.integers(0, 2, (replicas, n)).astype(np.int8)
    return beta, list(ordered_stack(rng.integers(0, 4, (replicas, n))))


def bench_cpree():
    # the benchmark's large-window shape: 64-site supercritical cpree, three layers
    spec = preset("cpree", sites=64, **SUPERCRITICAL)
    beta, layers = _random_triple_start(np.random.default_rng([1, 0]), 300, 64)
    return _evolve_digest(spec, beta, layers, [1.0, 2.0], 300, 11)


def envelope():
    spec = preset("cpree", sites=16, **SUPERCRITICAL)
    times, snaps, violations = batch_envelope(spec, [0.5, 1.0, 1.0], 500, 12)
    return _digest(times, snaps, violations)


def four_layers():
    # criterion 4's shape: a random positive spec on 8 sites, ordered quadruples
    rng = np.random.default_rng(404)
    spec = random_positive_spec(rng, sites=8)
    beta = rng.integers(0, 2, (500, 8)).astype(np.int8)
    layers = sample_ordered_quadruples(rng, 500, 8)
    return _evolve_digest(spec, beta, layers, [2.0], 500, 1000)


def _frozen_spec(radius, boundary, sites):
    rng = np.random.default_rng(70 + radius)
    return ModelSpec(random_compatible_pair(rng, positive=True), random_attractive_env(rng, radius), sites, boundary)


def range1_frozen():
    spec = _frozen_spec(1, FrozenWords("01", "10"), 6)
    beta, layers = _random_triple_start(np.random.default_rng(71), 400, 6)
    return _evolve_digest(spec, beta, layers, [0.5, 1.5], 400, 13)


def range2_frozen():
    spec = _frozen_spec(2, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")), 5)
    beta, layers = _random_triple_start(np.random.default_rng(72), 400, 5)
    return _evolve_digest(spec, beta, layers, [0.5, 1.5], 400, 14)


def range2_frozen_envelope():
    spec = _frozen_spec(2, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")), 5)
    times, snaps, violations = batch_envelope(spec, [1.0, 2.0], 400, 15)
    return _digest(times, snaps, violations)


def small_rings():
    # n = 1 and 2 on a ring, range 2 and 1: words that read one site twice
    out = []
    for n, radius in ((1, 2), (2, 1), (3, 2)):
        rng = np.random.default_rng(80 + n)
        spec = ModelSpec(random_compatible_pair(rng, positive=True), random_attractive_env(rng, radius), n)
        beta, layers = _random_triple_start(rng, 300, n)
        out.append(_evolve_digest(spec, beta, layers[::2], [0.7, 1.4], 300, 16 + n))
    return hashlib.sha256(" ".join(out).encode()).hexdigest()


def _fine_env(radius):
    # binary neighbor weights: nearly every word has its own rate, so the
    # window endpoints number in the hundreds
    width = 2 * radius + 1
    table = []
    for w in range(2 ** width):
        bits = [(w >> (width - 1 - k)) & 1 for k in range(width) if k != radius]
        m = sum(b << k for k, b in enumerate(bits))
        if (w >> radius) & 1:
            table.append(1 / 16 + (2 ** (width - 1) - 1 - m) / 128)
        else:
            table.append(1 / 8 + m / 64)
    return EnvRateSpec(radius, tuple(table))


def range4_many_edges():
    # more endpoints than a byte-sized row index: 388 distinct background rates
    env = _fine_env(4)
    rng = np.random.default_rng(95)
    h = hashlib.sha256()
    for n, boundary in ((6, None), (3, FrozenWords("1011", "0110"))):
        pair = random_compatible_pair(rng, positive=True)
        spec = ModelSpec(pair, env, n, boundary) if boundary else ModelSpec(pair, env, n)
        beta, layers = _random_triple_start(rng, 300, n)
        h.update(_evolve_digest(spec, beta, layers, [0.3, 0.6], 300, 23 + n).encode())
    return h.hexdigest()


def unchecked():
    spec = preset("cpree", sites=12, **SUPERCRITICAL)
    beta, layers = _random_triple_start(np.random.default_rng(73), 300, 12)
    return _evolve_digest(spec, beta, layers, [1.0], 300, 17, check_order=False)


def split_steps():
    # more replicas than a block of 4096 rings, the size these runs were
    # captured under: early steps apply their rings in pieces of 4096, the
    # last piece ragged
    replicas = 8229
    spec = preset("cpree", sites=3, **SUPERCRITICAL)
    beta, layers = _random_triple_start(np.random.default_rng(76), replicas, 3)
    frozen = _frozen_spec(1, FrozenWords("01", "10"), 4)
    with mock.patch.object(graphical, "BLOCK_RINGS", 4096):
        h = hashlib.sha256(_evolve_digest(spec, beta, layers, [0.4, 0.8], replicas, 20).encode())
        times, snaps, violations = batch_envelope(frozen, [0.3, 0.6], replicas, 21)
    h.update(_digest(times, snaps, violations).encode())
    return h.hexdigest()


def _exact_window_spec():
    # the benchmark's exact-window Monte Carlo spec: a 3-site contact process
    # with spontaneous births, its up-rates raised under background 1
    c0, c1 = [0.0] * 8, [0.0] * 8
    for word in range(8):
        left, center, right = word >> 2, (word >> 1) & 1, word & 1
        if center == 0:
            c0[word] = 0.25 + left + right
            c1[word] = c0[word] + 0.5
        else:
            c0[word], c1[word] = 1.5, 0.75
    return ModelSpec(SpinRatePair(LocalSpinRates(c0), LocalSpinRates(c1)), EnvRateSpec(0, (0.6, 0.4)), 3)


def exact_window_words():
    # exact-window's one-layer periodic run and its envelope, at replica
    # counts where a whole window's table costs less than the rings
    spec = _exact_window_spec()
    h = hashlib.sha256()
    top = spec.spin_config((1, 1, 1))
    res = batch_evolve(spec, spec.env_config((0, 0, 0)), [top], [1.0], 2000, 31)
    snaps = [[b] + list(ls) for b, ls in zip(res.background, res.layers)]
    h.update(_digest(res.times, snaps, res.order_violations, res.counters).encode())
    times, snaps, violations = batch_envelope(spec, [0.5, 1.0], 10_000, 32)
    h.update(_digest(times, snaps, violations).encode())
    return h.hexdigest()


def coalescence_words():
    # the coalescence shape: one background, all-zeros and all-ones layers
    spec = preset("cpree", sites=3, **SUPERCRITICAL)
    beta = np.random.default_rng(77).integers(0, 2, (2000, 3)).astype(np.int8)
    layers = [np.zeros((2000, 3), dtype=np.int8), np.ones((2000, 3), dtype=np.int8)]
    return _evolve_digest(spec, beta, layers, [0.5, 1.0], 2000, 33)


def frozen_envelope_words():
    # 4 sites of 4 fields: a whole window fills 16 bits, read next to frozen
    # boundary words
    spec = preset("contact", sites=4, boundary=FrozenWords("1", "0"), lam=2.0, delta=1.0)
    times, snaps, violations = batch_envelope(spec, [1.0, 2.0], 20_000, 34)
    return _digest(times, snaps, violations)


def range2_frozen_words():
    # range 2 on 3 sites: every ring reads the per-layer frozen words
    spec = _frozen_spec(2, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")), 3)
    beta, layers = _random_triple_start(np.random.default_rng(78), 3000, 3)
    return _evolve_digest(spec, beta, layers[::2], [0.5, 1.5], 3000, 35)


def _crossing_spec():
    # a spin table that falls with its neighbors at center 0 is not
    # attractive, so ordered layers cross
    c0 = LocalSpinRates((2.0, 1.0, 0.5, 0.25, 0.5, 0.5, 0.5, 0.5))
    c1 = LocalSpinRates((2.5, 1.5, 1.0, 0.75, 0.25, 0.25, 0.25, 0.25))
    return ModelSpec(SpinRatePair(c0, c1), random_attractive_env(np.random.default_rng(74), 0), 10)


def direct_pair_simulation():
    # not the lockstep engine: the generator-level pair simulator, whose
    # draws are full-length whatever the number of replicas still running
    h = hashlib.sha256()
    for spec in (
        preset("cpree", sites=3, **SUPERCRITICAL),
        _frozen_spec(1, FrozenWords("01", "10"), 4),
        _frozen_spec(2, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")), 3),
    ):
        n = spec.size
        for t in (0.3, 2.0):
            B, E = batch_simulate_pair(spec, spec.env_config((0,) * n), spec.spin_config((1,) * n), t, 2000, 19)
            h.update(B.tobytes() + E.tobytes())
    return h.hexdigest()


def direct_pair_bytes():
    # windows the pair simulator keeps as bytes: 9 sites at range 1 (18 bits)
    # next to frozen boundary words, and 4 sites (8 bits) on a ring with
    # fewer replicas than words
    rng = np.random.default_rng(98)
    h = hashlib.sha256()
    for spec, replicas in (
        (_frozen_spec(1, FrozenWords("01", "10"), 9), 1000),
        (preset("cpree", sites=4, **SUPERCRITICAL), 200),
    ):
        n = spec.size
        beta = rng.integers(0, 2, (replicas, n)).astype(np.int8)
        eta = rng.integers(0, 2, (replicas, n)).astype(np.int8)
        for t in (0.3, 2.0):
            B, E = batch_simulate_pair(spec, (beta, spec.env_boundary), (eta, spec.spin_boundary), t, replicas, 36)
            h.update(B.tobytes() + E.tobytes())
    return h.hexdigest()


def direct_pair_absorbed():
    # replicas that reach rate 0 mid-run: the background only flips 1 -> 0
    # and cpree spins have c(000) = 0, so the all-0 state absorbs (a few
    # replicas start there); 3 sites on words and, words refused, on bytes,
    # and 9 sites (18 bits) on bytes
    rng = np.random.default_rng(99)
    h = hashlib.sha256()
    for n, replicas, words in ((3, 2000, True), (3, 2000, False), (9, 1000, False)):
        spec = preset("cpree", sites=n, gamma=1.0, delta0=2.0, delta1=1.0, p=0.0)
        beta = rng.integers(0, 2, (replicas, n)).astype(np.int8)
        eta = rng.integers(0, 2, (replicas, n)).astype(np.int8)
        assert graphical._holds_words(2, n, 2 * n, 2 * n * replicas) == (n == 3)
        with mock.patch.object(graphical, "_holds_words", graphical._holds_words if words else lambda *args: False):
            for t in (0.3, 2.0):
                B, E = batch_simulate_pair(spec, (beta, spec.env_boundary), (eta, spec.spin_boundary), t, replicas, 41)
                h.update(B.tobytes() + E.tobytes())
    return h.hexdigest()


def _spin_stack(spec, n_layers):
    # ordered starts: 0 <= alternating (and its mirror) <= 1
    n = spec.size
    zero, one = spec.spin_config((0,) * n), spec.spin_config((1,) * n)
    alt = spec.spin_config(tuple(x % 2 for x in range(n)))
    tla = spec.spin_config(tuple(1 - x % 2 for x in range(n)))
    return {0: [], 1: [one], 3: [zero, alt, one], 4: [zero, alt, tla, one]}[n_layers]


def mark_engine():
    # the per-site EventStream construction, background alone and under 1 or
    # 3 spin layers, on periodic, frozen and per-layer-frozen windows
    rng = np.random.default_rng(90)
    h = hashlib.sha256()
    for spec in (
        preset("cpree", sites=12, **SUPERCRITICAL),
        preset("remark_iv", sites=5),
        preset("remark_vi", sites=5),
        _frozen_spec(2, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")), 5),
        ModelSpec(random_compatible_pair(rng, positive=True), random_attractive_env(rng, 2), 2),
    ):
        beta0 = spec.env_config(tuple(int(x % 3 == 0) for x in range(spec.size)))
        for seed in (0, 1, 2):
            stream = EventStream(spec, seed, 2.0)
            for n_layers in (0, 1, 3):
                h.update(evolve(beta0, _spin_stack(spec, n_layers), stream).to_csv_text().encode())
    return h.hexdigest()


def coupled_direct():
    # the generator-level coupled simulator, one trajectory per run
    h = hashlib.sha256()
    for spec in (preset("cpree", sites=4, **SUPERCRITICAL), _frozen_spec(1, FrozenWords("01", "10"), 4)):
        beta0 = spec.env_config((0, 1, 0, 0))
        for arity in (1, 3, 4):
            initial = JointState(beta0, tuple(_spin_stack(spec, arity)))
            for seed in (0, 1):
                traj = simulate_coupled(CoupledSpec(spec, arity), initial, seed, 1.5)
                h.update(traj.to_csv_text().encode())
    return h.hexdigest()


def coupled_direct_wide():
    # 9 sites at background range 2: totals summed over more than 8 sites, and
    # words read across the ring's seam and from frozen boundary words
    rng = np.random.default_rng(96)
    h = hashlib.sha256()
    for spec in (
        ModelSpec(random_compatible_pair(rng, positive=True), random_attractive_env(rng, 2), 9),
        _frozen_spec(2, PerLayerFrozen(FrozenWords("110", "01"), FrozenWords("01", "001")), 9),
    ):
        beta0 = spec.env_config(tuple(int(x % 4 == 1) for x in range(9)))
        for arity in (1, 3, 4):
            initial = JointState(beta0, tuple(_spin_stack(spec, arity)))
            for seed in (0, 1):
                traj = simulate_coupled(CoupledSpec(spec, arity), initial, seed, 3.0)
                h.update(traj.to_csv_text().encode())
    return h.hexdigest()


def coupled_direct_small_rings():
    # rings of 1 to 3 sites at background range 1 and 2: a word reads one
    # site two or more times, and a flip changes several bits of one word
    rng = np.random.default_rng(97)
    h = hashlib.sha256()
    for n, radius in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        spec = ModelSpec(random_compatible_pair(rng, positive=True), random_attractive_env(rng, radius), n)
        beta0 = spec.env_config(tuple(x % 2 for x in range(n)))
        for arity in (1, 3, 4):
            initial = JointState(beta0, tuple(_spin_stack(spec, arity)))
            for seed in (0, 1, 2):
                traj = simulate_coupled(CoupledSpec(spec, arity), initial, seed, 5.0)
                h.update(traj.to_csv_text().encode())
    return h.hexdigest()


GOLDEN = {
    bench_cpree: "4df0cfcbf7d4e46f61d8ab553883b89e8b7beb49eaad97d25ce536129a67f944",
    envelope: "46a9d34678d5b425ca88c7b8e2c90c3122f3287e2b45cbffd3625b1094aefc83",
    four_layers: "cfac74a1595eff424f065986fd2a4c8d660cbcb9f89bc61a87e4c5cfade60436",
    range1_frozen: "f66254ad6403e967fa32325fbf715a152f7b283f2a2150bb44be53a18cf64725",
    range2_frozen: "85c25b16c3982b6eab4c2d696ed18f4c604a2887d860c1d5a4348810c4fdce50",
    range2_frozen_envelope: "88c32fd03e2ccb679e6290f2e24dddab90d0ae018cdeb793305d66620a4a1a96",
    range4_many_edges: "1b7155f41e3abd220170313d92c1b5ce68f2a28c649906e9bfd4986e271b25f4",
    small_rings: "0ca9b040a4b67ae2a3e6c8d57cd7a062dca13951a85d676cb98b9af006bdb04e",
    unchecked: "e171eba6e718eca1d15b3f1e1377cbe621bbb679e2218c89f8745a1921207818",
    direct_pair_simulation: "cb0f04e07b0ed71ed465a13874400518af39dbe477696751d12a7f873af441af",
    direct_pair_bytes: "9216f96b911c2c27df61d7918dd8cd6800990db9da48ec5ed6862a812b6a2549",
    direct_pair_absorbed: "3ef980cc436dafe0b02b063b43d1d4410613a5938fd1e2839e1523700a90766d",
    mark_engine: "7d181352b2a5dadff2106ee634d50a4b65e63fa3d46af61458482a109118e659",
    coupled_direct: "a1bd8a63ec611aef3773186f64938e624c84687c3ef64f811cf3a9498ec796f9",
    split_steps: "0698fdf391053ec900f08993d78b295b35b3cc7107dc9a6946928837ff125283",
    coupled_direct_wide: "effde15f95cb4c9b16ea7a3c850861d780bcfbc386f2ad5388aa0eb6c765607d",
    coupled_direct_small_rings: "595196ee7f6a62f82065103db3f862e57522cb76755213f1727d24ea1e3111cd",
    exact_window_words: "a51bc3049f684535fe481367e481d6d78b05d9b07496571f5a3f5def1a139967",
    coalescence_words: "c06afefdab530ec3e4728b6952b01fd974043211b12f2e0bd76027bef8a7cc1f",
    frozen_envelope_words: "0bf48a8a9d5896cc8a112e56445b10a623af8b848ffdaf0934280b9ee5802bd7",
    range2_frozen_words: "b8b1d4ad5e7ec67a42646eac7f0d39b96362c79af5f8df0373beb980ea17eefe",
}


@pytest.mark.parametrize("run", list(GOLDEN), ids=lambda f: f.__name__)
def test_engine_output_matches_golden_digest(run):
    assert run() == GOLDEN[run]


def test_raised_crossing_names_the_first_crossed_pair(monkeypatch):
    # the first ring whose new byte crosses an ordered pair raises, naming the
    # first pair it crosses in pair order, however steps are cut into pieces
    # (at 16, every 40-ring step is); messages as the engine gave them when
    # this test was written
    base = _crossing_spec()
    # its 3-site twin, at enough replicas that a call the order proof cleared
    # would hold each whole window as one word; a checked call keeps to bytes
    twin = ModelSpec(base.spin, base.env, 3)
    for spec, replicas, envelope_replicas, expected in (
        (base, 40, 40, (2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1)),
        (twin, 5000, 10_000, (1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)),
    ):
        beta, layers = _random_triple_start(np.random.default_rng(75), replicas, spec.size)
        for block in (BLOCK_RINGS, 16):
            monkeypatch.setattr(graphical, "BLOCK_RINGS", block)
            first = []
            for seed in range(18, 34):
                with pytest.raises(OrderViolationError) as err:
                    _evolve_digest(spec, beta, layers, [1.0, 2.0], replicas, seed)
                first.append(str(err.value).split(" crossed")[0])
            assert first == ["layer0 and layer%d" % k for k in expected], (spec.size, block)
        monkeypatch.setattr(graphical, "BLOCK_RINGS", BLOCK_RINGS)
        with pytest.raises(OrderViolationError, match="^eta_lo and eta_hi crossed in a lockstep step$"):
            batch_envelope(spec, [1.0], envelope_replicas, 3)


def test_mark_engine_raises_on_the_first_crossed_pair():
    # ordered layers under a non-attractive table cross; the spin ring that
    # crosses them raises, naming the first crossed pair in pair order and the
    # site; messages as the mark engine gave them when this test was written
    spec = _crossing_spec()
    beta0 = spec.env_config((0,) * spec.size)
    zero, _, tla, one = _spin_stack(spec, 4)
    first = []
    for seed in range(8):
        with pytest.raises(OrderViolationError) as err:
            evolve(beta0, [zero, tla, one], EventStream(spec, seed, 5.0))
        first.append(str(err.value).split(", t=")[0])
    assert first == [
        "layers eta and %s crossed at site %d" % pair
        for pair in (("gamma", 3), ("xi", 4), ("gamma", 9), ("gamma", 9),
                     ("gamma", 7), ("gamma", 7), ("gamma", 5), ("gamma", 9))
    ]


def _crossing_message(layers, seed):
    """What `evolve` raises on the crossing spec by t=5 (None: no crossing)."""
    spec = _crossing_spec()
    try:
        evolve(spec.env_config((0,) * spec.size), layers, EventStream(spec, seed, 5.0))
    except OrderViolationError as err:
        return str(err)
    return None


def test_mark_engine_guards_a_reversed_stack():
    # the order guard follows the starts, not the listed order: swapping two
    # ordered layers raises at the same ring with the names swapped, and the
    # time reads as a plain float; 19 of the 20 seeds cross by t=5
    zero, alt = _spin_stack(_crossing_spec(), 4)[:2]
    raised = 0
    for seed in range(20):
        message = _crossing_message([zero, alt], seed)
        swapped = message and message.replace("eta and xi", "xi and eta")
        assert _crossing_message([alt, zero], seed) == swapped, seed
        if message:
            raised += 1
            assert re.fullmatch(r"layers eta and xi crossed at site \d+, t=\d+\.\d+(e-\d+)?", message), message
    assert raised == 19
