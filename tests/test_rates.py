import time
import tracemalloc

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
from envspin.lattice import PERIODIC, FrozenWords
from envspin.rates import ConfigError, _monotone_violations

from _support import random_attractive_env, random_attractive_table, random_compatible_pair, random_env

GRID = 64


def contact_table(lam, delta):
    # word w = (a, b, c): births lam * (a + c) at b = 0, deaths delta at b = 1
    return LocalSpinRates(tuple(delta if w & 0b010 else lam * ((w >> 2) + (w & 1)) for w in range(8)))


def test_constant_table_is_attractive():
    ok, violations = check_attractive(LocalSpinRates((3.5,) * 8))
    assert ok and violations == []


def test_direct_attractivity_violation():
    vals = [1.0] * 8
    vals[0b001] = 0.0
    ok, violations = check_attractive(LocalSpinRates(vals))
    assert not ok
    assert any("000" in v and "001" in v for v in violations)


def test_center_one_attractivity_violation():
    # monotone at center 0, but c(010) < c(011), c(110), c(111) at center 1;
    # only the covering pairs (one neighbour bit apart) are listed
    vals = [1.0] * 8
    vals[0b010] = 0.5
    vals[0b011] = 2.0
    ok, violations = check_attractive(LocalSpinRates(vals))
    assert not ok
    assert violations == [
        "center 1: rate(010)=0.5 < rate(011)=2",
        "center 1: rate(010)=0.5 < rate(110)=1",
    ]


def _comparable_violations(values, radius):
    """Every pair lo < hi (bitwise, same center) where the rate falls at
    center 0 or rises at center 1, by brute force over all word pairs."""
    center = 1 << radius
    words = range(1 << (2 * radius + 1))
    return [
        (lo, hi) for lo in words for hi in words
        if lo != hi and not lo & ~hi and not (lo ^ hi) & center
        and (values[lo] < values[hi] if lo & center else values[lo] > values[hi])
    ]


def _moved(values, rng):
    """`values` with one entry moved up or down by a grid step or more."""
    vals = list(values)
    w = int(rng.integers(len(vals)))
    vals[w] = max(0.0, vals[w] + int(rng.choice([-1, 1])) * int(rng.integers(1, GRID)) / GRID)
    return tuple(vals)


def _random_tables(rng):
    """Attractive tables of range 0 to 3, each also with one entry moved."""
    for k in range(80):
        radius = k % 4
        if radius == 1 and k % 8 == 1:
            values = random_attractive_table(rng, positive=bool(k % 3)).values
        else:
            values = random_attractive_env(rng, radius, positive=bool(k % 3)).table
        yield radius, values
        yield radius, _moved(values, rng)


def test_covering_pair_scan_matches_all_comparable_pairs():
    rng = np.random.default_rng(25)
    seen = {True: 0, False: 0}
    for radius, values in _random_tables(rng):
        width, center = 2 * radius + 1, 1 << radius
        bits = [1 << k for k in range(width) if k != radius]
        reported = _monotone_violations(values, bits, center)
        brute = _comparable_violations(values, radius)
        attractive = not brute
        seen[attractive] += 1
        assert (not reported) == attractive
        assert EnvRateSpec(radius, values).is_attractive == attractive
        if radius == 1:
            ok, lines = check_attractive(LocalSpinRates(values))
            assert ok == attractive and len(lines) == len(reported)
        assert reported == sorted(set(reported))
        # each reported pair is a failing covering pair ...
        for lo, hi in reported:
            assert bin(lo ^ hi).count("1") == 1 and lo < hi and not (lo ^ hi) & center
            assert (lo, hi) in brute
        # ... and every failing comparable pair has one between its words
        for lo, hi in brute:
            assert any(lo & ~a == 0 and b & ~hi == 0 for a, b in reported)
    assert seen[True] >= 40 and seen[False] >= 20


def _four_up_word_violations(c0, c1):
    """The compatibility messages of a loop over the four center-0 words
    and the center-1 word above each."""
    out = []
    for up in (0b000, 0b001, 0b100, 0b101):
        down = up | 0b010
        if c0[up] > c1[up]:
            word = format(up, "03b")
            out.append("compatibility: c0(%s)=%g > c1(%s)=%g" % (word, c0[up], word, c1[up]))
        if c1[down] > c0[down]:
            word = format(down, "03b")
            out.append("compatibility: c1(%s)=%g > c0(%s)=%g" % (word, c1[down], word, c0[down]))
    return out


def test_compatibility_scan_matches_the_four_up_words():
    rng = np.random.default_rng(26)
    seen = {True: 0, False: 0}
    for k in range(200):
        pair = random_compatible_pair(rng, positive=bool(k % 2))
        c0, c1 = pair.c0.values, pair.c1.values
        if k % 4:
            moved = _moved(c0 + c1, rng)
            c0, c1 = moved[:8], moved[8:]
        ok, violations = check_compatible(SpinRatePair(LocalSpinRates(c0), LocalSpinRates(c1)))
        expected = _four_up_word_violations(c0, c1)
        assert ok == (not expected)
        assert sorted(violations) == sorted(expected)
        # listed by word
        assert violations == sorted(violations, key=lambda line: line.split("(")[1])
        seen[ok] += 1
    assert seen[True] >= 100 and seen[False] >= 15


def test_range_six_attractivity_is_decided_quickly():
    # covering pairs cost 12 * 2^13 comparisons here, all word pairs 4^13
    env = random_attractive_env(np.random.default_rng(27), 6)
    start = time.perf_counter()
    assert env.is_attractive
    assert time.perf_counter() - start < 2.0


def test_contact_rates_attractive_by_enumeration():
    table = contact_table(1.0, 0.7)
    ok, _ = check_attractive(table)
    assert ok
    # independent enumeration of the defining monotonicity over comparable words
    v = table.values
    for a in (0, 1):
        for c in (0, 1):
            for a2 in (0, 1):
                for c2 in (0, 1):
                    if a <= a2 and c <= c2:
                        assert v[a << 2 | c] <= v[a2 << 2 | c2]
                        assert v[a << 2 | 0b010 | c] >= v[a2 << 2 | 0b010 | c2]


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


def test_compatibility_center_zero_violation():
    # equal deaths, but c1 gives births at half c0's rate
    ok, violations = check_compatible(SpinRatePair(contact_table(1, 1.0), contact_table(0.5, 1.0)))
    assert not ok
    assert violations == [
        "compatibility: c0(001)=1 > c1(001)=0.5",
        "compatibility: c0(100)=1 > c1(100)=0.5",
        "compatibility: c0(101)=2 > c1(101)=1",
    ]


def test_min_boundary_pair_sum_examples():
    zero = LocalSpinRates((0.0,) * 8)
    assert min_boundary_pair_sum(SpinRatePair(zero, zero)) == 0.0

    spec = preset("remark_vi", sites=4)
    assert spec.spin.c1.values[0b001] + spec.spin.c1.values[0b011] == 0.0
    assert min_boundary_pair_sum(spec.spin) == 0.0

    pair = SpinRatePair(contact_table(1.0, 2.0), contact_table(1.0, 0.5))
    assert min_boundary_pair_sum(pair) == 1.0


def test_max_rate_examples():
    zero = LocalSpinRates((0.0,) * 8)
    assert max_rate(SpinRatePair(zero, zero)) == 0.0
    pair = SpinRatePair(contact_table(1.0, 2.0), contact_table(1.0, 0.5))
    assert max_rate(pair) == 2.0
    vals = [0.0] * 8
    vals[0b010] = 7.0
    single = LocalSpinRates(vals)
    assert max_rate(SpinRatePair(single, zero)) == 7.0


def test_dominating_rates_background():
    env = EnvRateSpec(0, (0.8, 0.0))
    pair = SpinRatePair(contact_table(1, 2.0), contact_table(1, 0.5))
    consts = dominating_rates(ModelSpec(pair, env, 1))
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
    b = spec.env.table
    assert b[0b000] == 0.0
    assert b[0b111] == 0.0
    assert spec.env.is_attractive
    # flip-pair positivity where the two neighbors disagree
    assert b[0b001] + b[0b011] > 0
    assert b[0b100] + b[0b110] > 0


def test_center_dominance_of_attractive_tables():
    rng = np.random.default_rng(10)
    for _ in range(200):
        t = random_attractive_table(rng)
        v = t.values
        assert v[0b010] >= max(v[0b011], v[0b110])
        assert v[0b101] >= max(v[0b001], v[0b100])


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
        # by word 000..111
        c0 = LocalSpinRates((0.0, u0, p0 + v0, v0, u0, b0 + u0, v0, 0.0))
        c1 = LocalSpinRates((0.0, u1, p1 + v1, v1, u1, b1 + u1, v1, 0.0))
        pair = SpinRatePair(c0, c1)
        assert not pair.validate()
        positive = min_boundary_pair_sum(pair) > 0
        expected = c0.values[0b001] > 0 and c1.values[0b011] > 0
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
    # word (a, b, c) reads the rate of (c, b, a)
    return LocalSpinRates(tuple(table.values[(w & 1) << 2 | w & 0b010 | w >> 2] for w in range(8)))


def test_checks_invariant_under_reflection():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pair = random_compatible_pair(rng)
        mirrored = SpinRatePair(_reflect(pair.c0), _reflect(pair.c1))
        assert check_attractive(pair.c0)[0] == check_attractive(mirrored.c0)[0]
        assert check_compatible(pair)[0] == check_compatible(mirrored)[0]


def test_env_attractivity_warning():
    pair = SpinRatePair(contact_table(1, 1.0), contact_table(1, 1.0))
    bad_env = EnvRateSpec(1, (1.0, 0.0, 1.0, 0.5, 0.0, 0.5, 0.5, 0.0))
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


def _random_spec(rng, k):
    """A compatible pair over a background of range 0 to 2 on 1 to 9 sites,
    on a ring, between frozen words, or between words per layer."""
    radius = k % 3
    env = random_env(rng) if radius == 0 else random_attractive_env(rng, radius, positive=bool(k % 2))
    need = max(1, radius)

    def words():
        return FrozenWords(*("".join(map(str, rng.integers(0, 2, need + k % 2))) for _ in range(2)))

    boundary = (PERIODIC, words(), PerLayerFrozen(env=words(), spin=words()))[k // 3 % 3]
    return ModelSpec(random_compatible_pair(rng, positive=bool(k % 2)), env, int(rng.integers(1, 10)), boundary)


def _shuffled(text, rng):
    """The config with the keys of each section in a random order."""
    out, keys = [], []
    for line in text.splitlines() + ["[end]"]:
        if line.startswith("["):
            out += [keys[i] for i in rng.permutation(len(keys))] + [line]
            keys = []
        elif line:
            keys.append(line)
    return "\n".join(out[:-1])


def test_every_preset_and_random_spec_round_trips_in_any_key_order():
    rng = np.random.default_rng(24)
    specs = [
        preset("cpree", gamma=1.5, delta0=2.0, delta1=0.5, p=0.25, lam=1.25, sites=9),
        preset("contact", lam=2.0, delta=1.0, sites=3),
        preset("remark_iv", sites=5),
        preset("remark_vi", sites=5),
        *(_random_spec(rng, k) for k in range(50)),
    ]
    assert {type(spec.boundary) for spec in specs} == {type(PERIODIC), FrozenWords, PerLayerFrozen}
    assert {spec.env.range for spec in specs} == {0, 1, 2}
    for spec in specs:
        text = format_config(spec)
        assert parse_config(text) == spec
        assert parse_config(_shuffled(text, rng)) == spec


# the config of `_error_in`: cpree on 4 sites, background range 0; [spin.c1]
# holds lines 12-19, [env] lines 22-24 and [lattice] lines 27-28
_CPREE = format_config(preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=4)).splitlines()


def _error_in(lineno, text):
    """The refusal of `_CPREE` with line `lineno` (from 1) replaced by
    `text`, or dropped when `text` is None."""
    lines = list(_CPREE)
    lines[lineno - 1:lineno] = [] if text is None else [text]
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines))
    return err.value.line, str(err.value)


def test_config_refusals_name_the_key_and_line():
    assert _CPREE[13] == "010 = 1.0" and _CPREE[21] == "range = 0" and _CPREE[26] == "size = 4"
    assert _error_in(15, None) == (None, "missing key '011' in [spin.c1]")
    assert _error_in(23, None) == (None, "missing key '0' in [env]")
    assert _error_in(14, "010 = two") == (14, "line 14: bad number 'two' for key '010'")
    assert _error_in(14, "010 = nan") == (14, "line 14: rate 'nan' for key '010' must be finite and >= 0")
    assert _error_in(14, "0100 = 2.0") == (14, "line 14: key '0100' in [spin.c1] is not a 3-bit word")
    assert _error_in(14, "range = 0") == (14, "line 14: key 'range' in [spin.c1] is not a 3-bit word")
    assert _error_in(24, "1b = 0.5") == (24, "line 24: key '1b' in [env] is not a 1-bit word")
    assert _error_in(22, "range = 1") == (23, "line 23: key '0' in [env] is not a 3-bit word")
    assert _error_in(11, "[spni.c1]") == (11, "line 11: unknown section [spni.c1]")
    assert _error_in(28, "boundry = frozen:1|1") == (28, "line 28: unknown key 'boundry' in [lattice]")
    # a key or section given twice is refused, not merged
    assert _error_in(14, "011 = 9.0") == (15, "line 15: duplicate key '011' in [spin.c1]")
    assert _error_in(25, "[spin.c0]") == (25, "line 25: duplicate section [spin.c0]")


def test_a_large_range_is_refused_from_the_keys_given():
    # listing every word of range 8 takes some 15 MB; the keys given take none
    for radius, peak in ((8, 1e6), (40, 1e6)):
        tracemalloc.start()
        try:
            line, message = _error_in(22, "range = %d" % radius)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (line, message) == (23, "line 23: key '0' in [env] is not a %d-bit word" % (2 * radius + 1))
        assert used < peak


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
    env = EnvRateSpec(2, (0.5,) * 32)
    with pytest.raises(ValueError):
        ModelSpec(pair, env, 4, FrozenWords("1", "1"))  # need length >= range
    ModelSpec(pair, env, 4, FrozenWords("11", "10"))
