import numpy as np
import pytest

from envspin import (
    EnvRateSpec,
    LocalSpinRates,
    ModelSpec,
    PerLayerFrozen,
    SpinRatePair,
    check_attractive,
    check_compatible,
    dominating_rates,
    format_config,
    max_rate,
    min_boundary_pair_sum,
    parse_config,
    preset,
)
from envspin.lattice import FrozenWords
from envspin.rates import ConfigError, TRIPLES

from _support import random_attractive_table, random_compatible_pair

GRID = 64


def contact_table(lam, delta):
    return LocalSpinRates.from_dict(
        {(a, b, c): lam * (a + c) if b == 0 else delta for a, b, c in TRIPLES}
    )


def test_constant_table_is_attractive():
    ok, violations = check_attractive(LocalSpinRates.constant(3.5))
    assert ok and violations == []


def test_direct_attractivity_violation():
    vals = {t: 1.0 for t in TRIPLES}
    vals[(0, 0, 0)] = 1.0
    vals[(0, 0, 1)] = 0.0
    ok, violations = check_attractive(LocalSpinRates.from_dict(vals))
    assert not ok
    assert any("000" in v and "001" in v for v in violations)


def test_contact_rates_attractive_by_enumeration():
    table = contact_table(1.0, 0.7)
    ok, _ = check_attractive(table)
    assert ok
    # independent enumeration of the defining monotonicity over comparable words
    for a in (0, 1):
        for c in (0, 1):
            for a2 in (0, 1):
                for c2 in (0, 1):
                    if a <= a2 and c <= c2:
                        assert table.rate(a, 0, c) <= table.rate(a2, 0, c2)
                        assert table.rate(a, 1, c) >= table.rate(a2, 1, c2)


def test_compatibility_equal_tables():
    t = contact_table(1.0, 1.0)
    ok, violations = check_compatible(SpinRatePair(t, t))
    assert ok and not violations


def test_compatibility_cpree_death_ordering():
    ok, _ = check_compatible(SpinRatePair(contact_table(1, 2.0), contact_table(1, 1.0)))
    assert ok
    ok, violations = check_compatible(SpinRatePair(contact_table(1, 1.0), contact_table(1, 2.0)))
    assert not ok
    assert all("1" in v for v in violations) and len(violations) == 4


def test_min_boundary_pair_sum_examples():
    zero = LocalSpinRates.constant(0.0)
    assert min_boundary_pair_sum(SpinRatePair(zero, zero)) == 0.0

    spec = preset("remark_vi", sites=4)
    assert spec.spin.c1.rate(0, 0, 1) + spec.spin.c1.rate(0, 1, 1) == 0.0
    assert min_boundary_pair_sum(spec.spin) == 0.0

    pair = SpinRatePair(contact_table(1.0, 2.0), contact_table(1.0, 0.5))
    assert min_boundary_pair_sum(pair) == 1.0


def test_max_rate_examples():
    zero = LocalSpinRates.constant(0.0)
    assert max_rate(SpinRatePair(zero, zero)) == 0.0
    pair = SpinRatePair(contact_table(1.0, 2.0), contact_table(1.0, 0.5))
    assert max_rate(pair) == 2.0
    vals = {t: 0.0 for t in TRIPLES}
    vals[(0, 1, 0)] = 7.0
    single = LocalSpinRates.from_dict(vals)
    assert max_rate(SpinRatePair(single, zero)) == 7.0


def test_dominating_rates_background():
    env = EnvRateSpec(0, (0.8, 0.0))
    pair = SpinRatePair(contact_table(1, 2.0), contact_table(1, 0.5))
    consts = dominating_rates((pair, env))
    assert consts.b_bar == 0.8

    spec = preset("cpree", gamma=1.3, delta0=2.0, delta1=0.5, p=0.25, sites=4)
    consts = spec.constants()
    assert consts.b_bar == pytest.approx(1.3)
    assert consts.c_bar0 == 2 + 2.0
    assert consts.c_bar1 == 2 + 0.5
    assert consts.c_bar == consts.c_bar0 + consts.c_bar1
    # tight clock: largest up-rate plus largest down-rate over both tables
    assert consts.c_hat == 2 + 2.0


def test_preset_validation():
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0, sites=6)
    assert spec.validate() == []
    ok, _ = check_compatible(spec.spin)
    assert ok
    with pytest.raises(ValueError):
        preset("cpree", gamma=1.0, delta0=1.0, delta1=2.0, p=0.5, sites=6)
    with pytest.raises(ValueError):
        preset("cpree", gamma=1.0, delta0=2.0, delta1=-1.0, p=0.5, sites=6)
    with pytest.raises(ValueError):
        preset("nope")


def test_remark_vi_preset_has_zero_boundary_sum():
    spec = preset("remark_vi", sites=5)
    assert min_boundary_pair_sum(spec.spin) == 0.0
    assert "C=0" in " ".join(spec.warnings())
    assert isinstance(spec.boundary, PerLayerFrozen)


def test_remark_iv_preset_structure():
    spec = preset("remark_iv", sites=4)
    assert spec.env.range == 1
    assert spec.env.rate_word("000") == 0.0
    assert spec.env.rate_word("111") == 0.0
    assert spec.env.is_attractive
    # flip-pair positivity where the two neighbors disagree
    assert spec.env.rate_word("001") + spec.env.rate_word("011") > 0
    assert spec.env.rate_word("100") + spec.env.rate_word("110") > 0


def test_center_dominance_of_attractive_tables():
    rng = np.random.default_rng(10)
    for _ in range(200):
        t = random_attractive_table(rng)
        for i_table in (t,):
            assert i_table.rate(0, 1, 0) >= max(i_table.rate(0, 1, 1), i_table.rate(1, 1, 0))
            assert i_table.rate(1, 0, 1) >= max(i_table.rate(0, 0, 1), i_table.rate(1, 0, 0))


def test_symmetric_pair_positivity_equivalence():
    # for reflection-symmetric compatible pairs: the boundary-sum minimum is
    # positive iff c0(001) > 0 and c1(011) > 0
    rng = np.random.default_rng(11)
    seen_zero = seen_pos = 0
    for _ in range(300):
        u0, b0 = np.sort(rng.integers(0, 8, 2)) / 4
        v1, p1 = np.sort(rng.integers(0, 8, 2)) / 4
        if rng.random() < 0.3:
            u0 = 0.0
        if rng.random() < 0.3:
            v1 = 0.0
        u1 = u0 + rng.integers(0, 4) / 4
        b1 = max(b0, u1) + rng.integers(0, 4) / 4
        v0 = v1 + rng.integers(0, 4) / 4
        p0 = max(p1, v0) + rng.integers(0, 4) / 4
        c0 = LocalSpinRates.from_dict(
            {
                (0, 0, 0): 0.0, (0, 0, 1): u0, (1, 0, 0): u0, (1, 0, 1): b0 + u0,
                (0, 1, 0): p0 + v0, (0, 1, 1): v0, (1, 1, 0): v0, (1, 1, 1): 0.0,
            }
        )
        c1 = LocalSpinRates.from_dict(
            {
                (0, 0, 0): 0.0, (0, 0, 1): u1, (1, 0, 0): u1, (1, 0, 1): b1 + u1,
                (0, 1, 0): p1 + v1, (0, 1, 1): v1, (1, 1, 0): v1, (1, 1, 1): 0.0,
            }
        )
        pair = SpinRatePair(c0, c1)
        assert not pair.validate()
        positive = min_boundary_pair_sum(pair) > 0
        expected = c0.rate(0, 0, 1) > 0 and c1.rate(0, 1, 1) > 0
        assert positive == expected
        seen_zero += not positive
        seen_pos += positive
    assert seen_zero and seen_pos


def test_boundary_sum_at_most_twice_max_rate():
    rng = np.random.default_rng(12)
    for _ in range(200):
        pair = random_compatible_pair(rng)
        assert min_boundary_pair_sum(pair) <= 2.0 * max_rate(pair)


def _reflect(table):
    return LocalSpinRates.from_dict(
        {(a, b, c): table.rate(c, b, a) for a, b, c in TRIPLES}
    )


def test_checks_invariant_under_reflection():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pair = random_compatible_pair(rng)
        mirrored = SpinRatePair(_reflect(pair.c0), _reflect(pair.c1))
        assert check_attractive(pair.c0)[0] == check_attractive(mirrored.c0)[0]
        assert check_compatible(pair)[0] == check_compatible(mirrored)[0]


def test_env_attractivity_warning():
    pair = SpinRatePair(contact_table(1, 1.0), contact_table(1, 1.0))
    bad_env = EnvRateSpec.from_dict(
        1,
        {
            "000": 1.0, "001": 0.0, "010": 1.0, "011": 0.5,
            "100": 0.0, "101": 0.5, "110": 0.5, "111": 0.0,
        },
    )
    assert not bad_env.is_attractive
    spec = ModelSpec(pair, bad_env, 4)
    assert spec.validate() == []  # accepted
    assert any("not attractive" in w for w in spec.warnings())


def test_config_round_trip():
    for spec in (
        preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=12),
        preset("remark_iv", sites=5),
        preset("remark_vi", sites=5),
        ModelSpec(
            SpinRatePair(contact_table(1, 1.0), contact_table(1, 0.5)),
            EnvRateSpec(0, (0.25, 0.75)),
            7,
            FrozenWords("01", "10"),
        ),
    ):
        text = format_config(spec)
        back = parse_config(text)
        assert back == spec


def test_config_parse_errors_carry_line_numbers():
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=4)
    lines = format_config(spec).splitlines()
    broken = "\n".join(
        line.replace("= 2.0", "= two") if line.startswith("010") else line for line in lines
    )
    with pytest.raises(ConfigError) as err:
        parse_config(broken)
    assert err.value.line is not None

    with pytest.raises(ConfigError):
        parse_config("[spin.c0]\n000 = 1.0\n")  # missing keys and sections


def test_frozen_boundary_word_length_checked():
    pair = SpinRatePair(contact_table(1, 1.0), contact_table(1, 1.0))
    env = EnvRateSpec.from_dict(2, {format(i, "05b"): 0.5 for i in range(32)})
    with pytest.raises(ValueError):
        ModelSpec(pair, env, 4, FrozenWords("1", "1"))  # need length >= range
    ModelSpec(pair, env, 4, FrozenWords("11", "10"))
