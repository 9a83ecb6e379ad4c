import numpy as np
import pytest

from envspin import (
    PERIODIC,
    Configuration,
    EnvRateSpec,
    FrozenWords,
    JointState,
    ModelSpec,
    PerLayerFrozen,
    leq,
)
from envspin.lattice import MutableWindow, _field_rows, _site_columns, initially_ordered_pairs, word_index

from _support import (
    WORKED_LOWER,
    WORKED_MIDDLE,
    WORKED_UPPER,
    random_compatible_pair,
)


def test_leq_examples():
    n = 5
    assert leq(Configuration.all_zero(n), Configuration.all_one(n))
    assert not leq(Configuration("010"), Configuration("001"))
    assert not leq(Configuration("001"), Configuration("010"))
    assert leq(Configuration(WORKED_LOWER), Configuration(WORKED_MIDDLE))
    assert leq(Configuration(WORKED_MIDDLE), Configuration(WORKED_UPPER))
    with pytest.raises(ValueError):
        leq(Configuration("01"), Configuration("011"))


def test_neighborhood_examples():
    assert word_index(Configuration("011"), 0, 1) == 0b101
    frozen = Configuration("010", FrozenWords("1", "1"))
    assert word_index(frozen, 0, 1) == 0b101
    assert word_index(Configuration.all_zero(6), 3, 1) == 0b000
    assert word_index(Configuration("0110", FrozenWords("10", "01")), 3, 2) == 0b11001


def test_neighborhood_reconstructs_configuration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        bits = tuple(int(v) for v in rng.integers(0, 2, n))
        c = Configuration(bits)
        centers = tuple((word_index(c, x, 1) >> 1) & 1 for x in range(n))
        assert centers == bits


def test_scalar_and_array_resolvers_agree():
    # the padded-row gather of the array code reads the same words as the
    # scalar resolver, for every configuration of n <= 6 sites, env radius
    # 0-2, on a ring and with frozen words longer than the halo
    rng = np.random.default_rng(3)
    pair = random_compatible_pair(rng)

    def words(length):
        return "".join(str(b) for b in rng.integers(0, 2, length))

    for radius in (0, 1, 2):
        halo = max(1, radius)
        env = EnvRateSpec(radius, (0.0,) * 2 ** (2 * radius + 1))
        for boundary in (
            PERIODIC,
            FrozenWords(words(halo + 2), words(halo + 1)),
            PerLayerFrozen(FrozenWords(words(halo + 1), words(halo + 2)), FrozenWords(words(halo + 2), words(halo))),
        ):
            for n in range(1, 7):
                spec = ModelSpec(pair, env, n, boundary)
                bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
                fields = ((spec.env_config, spec.env_boundary, radius), (spec.spin_config, spec.spin_boundary, 1))
                for config, bnd, r in fields:
                    rows, _ = _field_rows((bits, bnd), len(bits), halo)
                    gathered = rows[:, _site_columns(bnd, n, halo, r)] @ (1 << np.arange(2 * r, -1, -1))
                    for b, want in zip(bits, gathered.tolist()):
                        c = config(b)
                        w = MutableWindow(c)
                        assert [word_index(c, x, r) for x in range(n)] == want
                        assert [w.word_index(x, r) for x in range(n)] == want


def test_partial_order_properties():
    rng = np.random.default_rng(2)
    configs = [Configuration(tuple(int(v) for v in rng.integers(0, 2, 6))) for _ in range(40)]
    for a in configs:
        assert leq(a, a)
        for b in configs:
            if leq(a, b) and leq(b, a):
                assert a.bits == b.bits
            for c in configs:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_joint_state_order_enforced():
    with pytest.raises(ValueError):
        JointState(
            Configuration("000"),
            (Configuration("010"), Configuration("001"), Configuration("111")),
        )
    JointState(
        Configuration("000"),
        (Configuration("000"), Configuration("010"), Configuration("110"), Configuration("111")),
    )


def test_literals_round_trip():
    c = Configuration("0110", FrozenWords("10", "01"))
    assert c.to_literal() == "10|0110|01"


def test_initially_ordered_pairs():
    a = Configuration("000")
    b = Configuration("010")
    c = Configuration("101")
    assert initially_ordered_pairs([a, b, c], leq) == ((0, 1), (0, 2))
    # a reversed stack keeps its pairs; of two equal layers only the earlier is below
    assert initially_ordered_pairs([c, b, a], leq) == ((2, 0), (2, 1))
    assert initially_ordered_pairs([b, Configuration("010")], leq) == ((0, 1),)
