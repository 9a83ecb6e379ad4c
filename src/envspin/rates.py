"""Flip-rate tables for a spin system whose rates are switched by a background layer.

The main spin layer flips at site x with rate c0(x, .) or c1(x, .) depending on
whether the background value at x is 0 or 1; both tables are indexed by the
3-site neighborhood (left, center, right) of the spin layer.  The background
itself flips at rate b(x, .), read from a finite-range translation-invariant
table over its own (2R+1)-site neighborhood.

Two structural conditions drive everything downstream:

* compatibility: c0 <= c1 at center 0 and c1 <= c0 at center 1, so raising the
  background can only push spins up;
* attractivity: each table is monotone in its neighborhood (increasing at
  center 0, decreasing at center 1), which makes order-preserving couplings
  possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import PERIODIC, FrozenWords, Periodic


class ModelViolationError(RuntimeError):
    """A structural assumption on the rate tables failed at runtime."""


TRIPLES = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))


def word_of(bits):
    return "".join(str(b) for b in bits)


def _check_table(values, n_entries, what):
    vals = tuple(float(v) for v in values)
    if len(vals) != n_entries:
        raise ValueError("%s needs exactly %d entries, got %d" % (what, n_entries, len(vals)))
    for v in vals:
        if not math.isfinite(v) or v < 0:
            raise ValueError("%s entries must be finite and >= 0, got %r" % (what, v))
    return vals


@dataclass(frozen=True)
class LocalSpinRates:
    """Eight nonnegative rates indexed by the neighborhood triple (a, b, c),
    stored at position 4a+2b+c."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _check_table(self.values, 8, "spin rate table"))

    @classmethod
    def from_dict(cls, mapping):
        """Build from a map keyed by triples like (0,1,0) or words like "010"."""
        table = [None] * 8
        for key, val in mapping.items():
            bits = tuple(int(ch) for ch in key) if isinstance(key, str) else tuple(key)
            table[4 * bits[0] + 2 * bits[1] + bits[2]] = val
        if any(v is None for v in table):
            raise ValueError("spin rate table must define all 8 neighborhoods")
        return cls(tuple(table))

    @classmethod
    def constant(cls, rate):
        return cls((float(rate),) * 8)

    def rate(self, a, b, c):
        return self.values[4 * a + 2 * b + c]

    def rate_word(self, word):
        return self.values[int(word, 2)]

    def rate_index(self, idx):
        return self.values[idx]

    def as_array(self):
        return np.array(self.values, dtype=float)

    def as_dict(self):
        return {word_of(t): self.rate(*t) for t in TRIPLES}


def _attractivity_violations(values, radius):
    """Pairs of comparable neighborhoods (equal center) where monotonicity fails.

    Comparisons are exact: the tables are user-given literals.
    """
    width = 2 * radius + 1
    center_pos = radius
    words = [tuple((w >> (width - 1 - k)) & 1 for k in range(width)) for w in range(2 ** width)]
    violations = []
    for lo in words:
        for hi in words:
            if lo == hi or lo[center_pos] != hi[center_pos]:
                continue
            if not all(a <= b for a, b in zip(lo, hi)):
                continue
            v_lo = values[int(word_of(lo), 2)]
            v_hi = values[int(word_of(hi), 2)]
            if lo[center_pos] == 0 and v_lo > v_hi:
                violations.append(
                    "center 0: rate(%s)=%g > rate(%s)=%g" % (word_of(lo), v_lo, word_of(hi), v_hi)
                )
            if lo[center_pos] == 1 and v_lo < v_hi:
                violations.append(
                    "center 1: rate(%s)=%g < rate(%s)=%g" % (word_of(lo), v_lo, word_of(hi), v_hi)
                )
    return violations


def check_attractive(rates: LocalSpinRates):
    """True iff the table is monotone increasing at center 0 and decreasing at
    center 1 over comparable neighborhoods; also returns the failing pairs."""
    violations = _attractivity_violations(rates.values, 1)
    return not violations, violations


@dataclass(frozen=True)
class SpinRatePair:
    """The two spin tables selected by the background bit."""

    c0: LocalSpinRates
    c1: LocalSpinRates

    def table(self, background_bit):
        return self.c1 if background_bit else self.c0

    def validate(self):
        """All compatibility and attractivity violations, as strings."""
        problems = []
        ok0, v0 = check_attractive(self.c0)
        ok1, v1 = check_attractive(self.c1)
        problems += ["c0 not attractive: " + v for v in v0]
        problems += ["c1 not attractive: " + v for v in v1]
        ok_comp, vc = check_compatible(self)
        problems += vc
        return problems

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise ValueError("invalid spin rate pair:\n  " + "\n  ".join(problems))


def check_compatible(pair: SpinRatePair):
    """True iff c0 <= c1 on center-0 triples and c1 <= c0 on center-1 triples."""
    violations = []
    for a in (0, 1):
        for c in (0, 1):
            lo, hi = pair.c0.rate(a, 0, c), pair.c1.rate(a, 0, c)
            if lo > hi:
                violations.append("compatibility: c0(%d0%d)=%g > c1(%d0%d)=%g" % (a, c, lo, a, c, hi))
            lo, hi = pair.c1.rate(a, 1, c), pair.c0.rate(a, 1, c)
            if lo > hi:
                violations.append("compatibility: c1(%d1%d)=%g > c0(%d1%d)=%g" % (a, c, lo, a, c, hi))
    return not violations, violations


@dataclass(frozen=True)
class EnvRateSpec:
    """Background flip rates as a table over the (2*range+1)-bit local word."""

    range: int
    table: tuple

    def __post_init__(self):
        if self.range < 0:
            raise ValueError("range must be >= 0")
        n = 2 ** (2 * self.range + 1)
        object.__setattr__(self, "table", _check_table(self.table, n, "background rate table"))

    @classmethod
    def from_dict(cls, radius, mapping):
        width = 2 * radius + 1
        table = [None] * (2 ** width)
        for key, val in mapping.items():
            word = key if isinstance(key, str) else word_of(key)
            if len(word) != width:
                raise ValueError("background word %r must have %d bits" % (word, width))
            table[int(word, 2)] = val
        if any(v is None for v in table):
            raise ValueError("background table must define all %d words" % 2 ** width)
        return cls(radius, tuple(table))

    def rate_word(self, word):
        return self.table[int(word, 2)]

    def rate_index(self, idx):
        return self.table[idx]

    def as_array(self):
        return np.array(self.table, dtype=float)

    def attractivity_violations(self):
        return _attractivity_violations(self.table, self.range)

    @property
    def is_attractive(self):
        return not self.attractivity_violations()


@dataclass(frozen=True)
class PerLayerFrozen:
    """Frozen boundary with separate words for the background and spin layers."""

    env: FrozenWords
    spin: FrozenWords


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computable from the tables by pure enumeration.

    C      minimum over the 16 cross-table sums of boundary-neighborhood rates
           {ci(100)+cj(110), ci(001)+cj(011), ci(011)+cj(110), ci(100)+cj(001)};
    K      maximum of all 16 spin-table entries;
    b_bar  sup of b over center-0 words plus sup over center-1 words (the
           dominating background clock rate, site-independent);
    c_bar0, c_bar1  same centered-sup sums for the two spin tables;
    c_bar  c_bar0 + c_bar1, the spin clock of the per-site event streams,
           which keep one mark per background state;
    c_hat  max over both tables of the center-0 sups plus max over both of
           the center-1 sups: the tight spin clock of the lockstep engine,
           whose single mark serves either background state (c_hat <= c_bar).
    """

    C: float
    K: float
    b_bar: float
    c_bar0: float
    c_bar1: float
    c_bar: float
    c_hat: float


def min_boundary_pair_sum(pair: SpinRatePair) -> float:
    """The constant C: minimum of the 16-element multiset of paired boundary rates."""
    tables = (pair.c0, pair.c1)
    sums = []
    for ci in tables:
        for cj in tables:
            sums.append(ci.rate(1, 0, 0) + cj.rate(1, 1, 0))
            sums.append(ci.rate(0, 0, 1) + cj.rate(0, 1, 1))
            sums.append(ci.rate(0, 1, 1) + cj.rate(1, 1, 0))
            sums.append(ci.rate(1, 0, 0) + cj.rate(0, 0, 1))
    return min(sums)


def max_rate(pair: SpinRatePair) -> float:
    """The constant K: largest entry across both spin tables."""
    return max(max(pair.c0.values), max(pair.c1.values))


def _centered_sups(values, radius):
    width = 2 * radius + 1
    center_bit = 1 << radius
    sup0 = max(v for i, v in enumerate(values) if not (i & center_bit))
    sup1 = max(v for i, v in enumerate(values) if i & center_bit)
    return sup0, sup1


def tight_clock(values0, values1):
    """The tight spin clock c_hat of two spin tables (numbers of any exact or
    float type): the largest up-rate plus the largest down-rate over both.
    It is the least clock on which an up-window of either table and a
    down-window of either table never overlap."""
    up0, down0 = _centered_sups(values0, 1)
    up1, down1 = _centered_sups(values1, 1)
    return max(up0, up1) + max(down0, down1)


def dominating_rates(spec) -> DerivedConstants:
    """All derived constants for a model (or for a (pair, env) tuple)."""
    pair, env = (spec.spin, spec.env) if isinstance(spec, ModelSpec) else spec
    b_bar = sum(_centered_sups(env.table, env.range))
    c_bar0 = sum(_centered_sups(pair.c0.values, 1))
    c_bar1 = sum(_centered_sups(pair.c1.values, 1))
    return DerivedConstants(
        C=min_boundary_pair_sum(pair),
        K=max_rate(pair),
        b_bar=b_bar,
        c_bar0=c_bar0,
        c_bar1=c_bar1,
        c_bar=c_bar0 + c_bar1,
        c_hat=tight_clock(pair.c0.values, pair.c1.values),
    )


@dataclass(frozen=True)
class ModelSpec:
    """A complete finite-window model: spin tables, background table, window
    size and boundary policy."""

    spin: SpinRatePair
    env: EnvRateSpec
    size: int
    boundary: object = PERIODIC

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("lattice size must be >= 1")
        if not isinstance(self.boundary, (Periodic, FrozenWords, PerLayerFrozen)):
            raise ValueError("boundary must be Periodic, FrozenWords or PerLayerFrozen")
        need = max(1, self.env.range)
        for words, what in ((self.env_boundary, "background"), (self.spin_boundary, "spin")):
            if isinstance(words, FrozenWords):
                if len(words.left) < need or len(words.right) < need:
                    raise ValueError(
                        "%s boundary words must have length >= %d" % (what, need)
                    )

    @property
    def env_boundary(self):
        return self.boundary.env if isinstance(self.boundary, PerLayerFrozen) else self.boundary

    @property
    def spin_boundary(self):
        return self.boundary.spin if isinstance(self.boundary, PerLayerFrozen) else self.boundary

    def validate(self):
        problems = list(self.spin.validate())
        return problems

    def warnings(self):
        notes = []
        if not self.env.is_attractive:
            notes.append(
                "background table is not attractive: monotone-coupling "
                "guarantees are withdrawn"
            )
        if min_boundary_pair_sum(self.spin) == 0.0:
            notes.append("C=0: the two-extremal-laws property may fail")
        return notes

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise ValueError("invalid model:\n  " + "\n  ".join(problems))
        return self

    def constants(self) -> DerivedConstants:
        return dominating_rates(self)

    def env_config(self, bits):
        from .lattice import Configuration

        return Configuration(bits, self.env_boundary)

    def spin_config(self, bits):
        from .lattice import Configuration

        return Configuration(bits, self.spin_boundary)


# ---------------------------------------------------------------------------
# presets


def _contact_tables(lam, delta0, delta1):
    c0 = {}
    c1 = {}
    for a, b, c in TRIPLES:
        if b == 0:
            c0[(a, b, c)] = lam * (a + c)
            c1[(a, b, c)] = lam * (a + c)
        else:
            c0[(a, b, c)] = delta0
            c1[(a, b, c)] = delta1
    return LocalSpinRates.from_dict(c0), LocalSpinRates.from_dict(c1)


# spin table for the frozen-staircase scenario: zero on the neighborhoods a
# one-step profile can show (000, 001, 011, 111), positive elsewhere.  The
# zeros at 000 and 111 are forced by attractivity once 001 and 011 vanish.
_STAIRCASE_SAFE = {
    (0, 0, 0): 0.0, (0, 0, 1): 0.0, (0, 1, 0): 1.0, (0, 1, 1): 0.0,
    (1, 0, 0): 1.0, (1, 0, 1): 1.0, (1, 1, 0): 1.0, (1, 1, 1): 0.0,
}


def preset(name, *, sites=16, boundary=None, **params):
    """Fully populated, validated model specs for the stock scenarios.

    cpree(gamma, delta0, delta1, p, lam=1):
        births at lam per occupied neighbor, deaths delta0/delta1 selected by
        the background bit, background flipping 0->1 at gamma*p and 1->0 at
        gamma*(1-p) independently per site.
    contact(lam, delta): both spin tables equal a contact process; background
        frozen (all rates 0).
    remark_iv(lam=2, delta=1, up=1, down=1): contact spins over a
        nearest-neighbor background with absorbing all-0 and all-1 words.
    remark_vi(up=1, flip=1): background driven to all ones; spin tables vanish
        on the neighborhoods a monotone step profile can show, so every
        staircase is frozen once the background fills up.
    """
    if name == "cpree":
        gamma = float(params.pop("gamma"))
        delta0 = float(params.pop("delta0"))
        delta1 = float(params.pop("delta1"))
        p = float(params.pop("p"))
        lam = float(params.pop("lam", 1.0))
        _no_extra(params)
        if gamma <= 0:
            raise ValueError("gamma must be > 0")
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        if lam < 0 or delta0 < 0 or delta1 < 0:
            raise ValueError("rates must be >= 0")
        if delta1 > delta0:
            raise ValueError(
                "delta1 > delta0 breaks compatibility (c1 must be <= c0 at center 1)"
            )
        spin = SpinRatePair(*_contact_tables(lam, delta0, delta1))
        env = EnvRateSpec(0, (gamma * p, gamma * (1.0 - p)))
    elif name == "contact":
        lam = float(params.pop("lam"))
        delta = float(params.pop("delta"))
        _no_extra(params)
        spin = SpinRatePair(*_contact_tables(lam, delta, delta))
        env = EnvRateSpec(0, (0.0, 0.0))
    elif name == "remark_iv":
        lam = float(params.pop("lam", 2.0))
        delta = float(params.pop("delta", 1.0))
        up = float(params.pop("up", 1.0))
        down = float(params.pop("down", 1.0))
        _no_extra(params)
        spin = SpinRatePair(*_contact_tables(lam, delta, delta))
        table = {}
        for l in (0, 1):
            for c in (0, 1):
                for r in (0, 1):
                    table[(l, c, r)] = up * (l + r) if c == 0 else down * (2 - l - r)
        env = EnvRateSpec.from_dict(1, table)
    elif name == "remark_vi":
        up = float(params.pop("up", 1.0))
        flip = float(params.pop("flip", 1.0))
        _no_extra(params)
        tab = LocalSpinRates.from_dict(
            {k: flip * v for k, v in _STAIRCASE_SAFE.items()}
        )
        spin = SpinRatePair(tab, tab)
        env = EnvRateSpec(0, (up, 0.0))
        if boundary is None:
            boundary = PerLayerFrozen(env=FrozenWords("1", "1"), spin=FrozenWords("0", "1"))
    else:
        raise ValueError("unknown preset %r" % name)
    spec = ModelSpec(spin, env, sites, boundary if boundary is not None else PERIODIC)
    spec.require_valid()
    return spec


def _no_extra(params):
    if params:
        raise ValueError("unexpected preset parameters: %s" % ", ".join(sorted(params)))


# ---------------------------------------------------------------------------
# config text format
#
# [spin.c0] / [spin.c1]: keys 000..111; [env]: key range plus one key per
# background word; [lattice]: keys size and boundary.  Boundary values are
# "periodic", "frozen:L|R" (both layers) or "frozen:eL|eR;sL|sR" (background
# and spin words separately).


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else "line %d: %s" % (line, message))


def parse_config(text) -> ModelSpec:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        if current is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        sections[current][key.strip()] = (value.strip(), lineno)

    def need(section):
        if section not in sections:
            raise ConfigError("missing section [%s]" % section)
        return sections[section]

    def table_from(section, keys):
        sec = need(section)
        out = {}
        for key in keys:
            if key not in sec:
                raise ConfigError("missing key %r in [%s]" % (key, section))
            value, lineno = sec[key]
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError("bad number %r for key %r" % (value, key), lineno) from None
        return out

    spin_keys = [word_of(t) for t in TRIPLES]
    c0 = LocalSpinRates.from_dict(table_from("spin.c0", spin_keys))
    c1 = LocalSpinRates.from_dict(table_from("spin.c1", spin_keys))

    env_sec = need("env")
    if "range" not in env_sec:
        raise ConfigError("missing key 'range' in [env]")
    value, lineno = env_sec["range"]
    try:
        radius = int(value)
    except ValueError:
        raise ConfigError("bad integer %r for 'range'" % value, lineno) from None
    width = 2 * radius + 1
    env_keys = [format(i, "0%db" % width) for i in range(2 ** width)]
    env = EnvRateSpec.from_dict(radius, table_from("env", env_keys))

    lat = need("lattice")
    if "size" not in lat:
        raise ConfigError("missing key 'size' in [lattice]")
    value, lineno = lat["size"]
    try:
        size = int(value)
    except ValueError:
        raise ConfigError("bad integer %r for 'size'" % value, lineno) from None
    bvalue, blineno = lat.get("boundary", ("periodic", None))
    boundary = parse_boundary(bvalue, blineno)
    return ModelSpec(SpinRatePair(c0, c1), env, size, boundary)


def parse_boundary(value, lineno=None):
    if value == "periodic":
        return PERIODIC
    if value.startswith("frozen:"):
        body = value[len("frozen:"):]
        try:
            if ";" in body:
                env_part, spin_part = body.split(";")
                el, er = env_part.split("|")
                sl, sr = spin_part.split("|")
                return PerLayerFrozen(env=FrozenWords(el, er), spin=FrozenWords(sl, sr))
            left, right = body.split("|")
            return FrozenWords(left, right)
        except ValueError:
            raise ConfigError("bad frozen boundary %r" % value, lineno) from None
    raise ConfigError("unknown boundary %r" % value, lineno)


def format_boundary(boundary):
    if isinstance(boundary, Periodic):
        return "periodic"
    if isinstance(boundary, FrozenWords):
        return "frozen:%s|%s" % (boundary.left, boundary.right)
    return "frozen:%s|%s;%s|%s" % (
        boundary.env.left, boundary.env.right, boundary.spin.left, boundary.spin.right
    )


def format_config(spec: ModelSpec) -> str:
    lines = []
    for name, table in (("spin.c0", spec.spin.c0), ("spin.c1", spec.spin.c1)):
        lines.append("[%s]" % name)
        for t in TRIPLES:
            lines.append("%s = %r" % (word_of(t), table.rate(*t)))
        lines.append("")
    lines.append("[env]")
    lines.append("range = %d" % spec.env.range)
    width = 2 * spec.env.range + 1
    for i, v in enumerate(spec.env.table):
        lines.append("%s = %r" % (format(i, "0%db" % width), v))
    lines.append("")
    lines.append("[lattice]")
    lines.append("size = %d" % spec.size)
    lines.append("boundary = %s" % format_boundary(spec.boundary))
    lines.append("")
    return "\n".join(lines)
