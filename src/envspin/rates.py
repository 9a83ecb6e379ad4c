"""Flip-rate tables for a spin system whose rates are switched by a background layer.

The main spin layer flips at site x with rate c0(x, .) or c1(x, .) depending on
whether the background value at x is 0 or 1; both tables are indexed by the
3-site neighborhood (left, center, right) of the spin layer.  The background
itself flips at rate b(x, .), read from a finite-range translation-invariant
table over its own (2R+1)-site neighborhood.

Every table is indexed by the integer word of its neighborhood, site x - R
the most significant bit, as `lattice.word_index` builds it: `values[w]` and
`table[w]`.  0/1 strings appear only in the config text and in messages.
`parse_config` reads the text `format_config` writes, one table per
section, and refuses with its line a section other than [spin.c0],
[spin.c1], [env] and [lattice], a [lattice] key other than size and
boundary, a table key that is not a word of the table's width, and a
section or key given twice.

Two structural conditions drive everything downstream:

* compatibility: c0 <= c1 at center 0 and c1 <= c0 at center 1, so raising the
  background can only push spins up;
* attractivity: each table is monotone in its neighborhood (increasing at
  center 0, decreasing at center 1), which makes order-preserving couplings
  possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import PERIODIC, Configuration, FrozenWords, Periodic, _finite_nonnegative


class ModelViolationError(RuntimeError):
    """A structural assumption on the rate tables failed at runtime."""


def _check_table(values, n_entries, what):
    vals = tuple(float(v) for v in values)
    if len(vals) != n_entries:
        raise ValueError("%s needs exactly %d entries, got %d" % (what, n_entries, len(vals)))
    return tuple(_finite_nonnegative("%s entry %r", v, what, v) for v in vals)


def _word_keys(width):
    """The text keys of a table over `width`-bit words, by integer word."""
    return [format(w, "0%db" % width) for w in range(1 << width)]


@dataclass(frozen=True)
class LocalSpinRates:
    """Eight nonnegative rates indexed by the neighborhood word of (a, b, c),
    stored at position 4a+2b+c."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _check_table(self.values, 8, "spin rate table"))

    def as_array(self):
        return np.array(self.values, dtype=float)


def _monotone_violations(values, bits, center):
    """The covering pairs (lo, hi), sorted, where hi is lo with one of the
    single-bit masks `bits` raised and the rate falls (lo's `center` bit
    clear) or rises (set) from lo to hi.  A chain of covering pairs joins
    any two comparable words, so an empty list means monotone over all of
    them.  Comparisons are exact: the tables are user-given literals."""
    return sorted(
        (lo, lo | bit)
        for bit in bits
        for lo in range(len(values))
        if not lo & bit
        and (values[lo] < values[lo | bit] if lo & center else values[lo] > values[lo | bit])
    )


def check_attractive(rates: LocalSpinRates):
    """True iff the table is monotone increasing at center 0 and decreasing at
    center 1; also returns the failing covering pairs (one neighbour bit apart)."""
    v = rates.values
    violations = []
    for lo, hi in _monotone_violations(v, (0b001, 0b100), 0b010):
        c = lo >> 1 & 1
        violations.append("center %d: rate(%s)=%g %s rate(%s)=%g"
                          % (c, format(lo, "03b"), v[lo], "><"[c], format(hi, "03b"), v[hi]))
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


def check_compatible(pair: SpinRatePair):
    """True iff c0 <= c1 on center-0 words and c1 <= c0 on center-1 words:
    the joint table c0 + c1, indexed by the background bit above the 3-bit
    word, is monotone in that bit.  Failures are listed by word."""
    tables = (pair.c0.values, pair.c1.values)
    violations = []
    for word, _ in _monotone_violations(tables[0] + tables[1], (0b1000,), 0b010):
        i, text = word >> 1 & 1, format(word, "03b")
        violations.append("compatibility: c%d(%s)=%g > c%d(%s)=%g"
                          % (i, text, tables[i][word], 1 - i, text, tables[1 - i][word]))
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

    def as_array(self):
        return np.array(self.table, dtype=float)

    @property
    def is_attractive(self):
        bits = [1 << k for k in range(2 * self.range + 1) if k != self.range]
        return not _monotone_violations(self.table, bits, 1 << self.range)


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
    tables = (pair.c0.values, pair.c1.values)
    sums = []
    for ci in tables:
        for cj in tables:
            sums.append(ci[0b100] + cj[0b110])
            sums.append(ci[0b001] + cj[0b011])
            sums.append(ci[0b011] + cj[0b110])
            sums.append(ci[0b100] + cj[0b001])
    return min(sums)


def max_rate(pair: SpinRatePair) -> float:
    """The constant K: largest entry across both spin tables."""
    return max(max(pair.c0.values), max(pair.c1.values))


def _centered_sups(values, radius):
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


def dominating_rates(spec: ModelSpec) -> DerivedConstants:
    """All derived constants for a model."""
    pair, env = spec.spin, spec.env
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
        return Configuration(bits, self.env_boundary)

    def spin_config(self, bits):
        return Configuration(bits, self.spin_boundary)


# ---------------------------------------------------------------------------
# presets


def _contact_tables(lam, delta0, delta1):
    """Births at lam per occupied neighbor, deaths delta0 and delta1."""
    births = [lam * ((w >> 2) + (w & 1)) for w in range(8)]
    return tuple(
        LocalSpinRates(tuple(delta if w & 0b010 else births[w] for w in range(8)))
        for delta in (delta0, delta1)
    )


# spin table for the frozen-staircase scenario, by word 000..111: zero on the
# neighborhoods a one-step profile can show (000, 001, 011, 111), positive
# elsewhere.  The zeros at 000 and 111 are forced by attractivity once 001
# and 011 vanish.
_STAIRCASE_SAFE = (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0)


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
        env = EnvRateSpec(1, tuple(
            down * (2 - (w >> 2) - (w & 1)) if w & 0b010 else up * ((w >> 2) + (w & 1)) for w in range(8)
        ))
    elif name == "remark_vi":
        up = float(params.pop("up", 1.0))
        flip = float(params.pop("flip", 1.0))
        _no_extra(params)
        tab = LocalSpinRates(tuple(flip * v for v in _STAIRCASE_SAFE))
        spin = SpinRatePair(tab, tab)
        env = EnvRateSpec(0, (up, 0.0))
        if boundary is None:
            boundary = PerLayerFrozen(env=FrozenWords("1", "1"), spin=FrozenWords("0", "1"))
    else:
        raise ConfigError("unknown preset %r" % name)
    spec = ModelSpec(spin, env, sites, boundary if boundary is not None else PERIODIC)
    spec.require_valid()
    return spec


def _no_extra(params):
    if params:
        raise ConfigError("unexpected preset parameters: %s" % ", ".join(sorted(params)))


# ---------------------------------------------------------------------------
# config text format
#
# [spin.c0] / [spin.c1]: keys 000..111; [env]: key range plus one key per
# background word; [lattice]: keys size and boundary.  Boundary values are
# "periodic", "frozen:L|R" (both layers) or "frozen:eL|eR;sL|sR" (background
# and spin words separately).  Any other section, any other [lattice] key, a
# table key that is not a word of the table's width, and a section or key
# given twice are refused with their line.


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
            if current not in ("spin.c0", "spin.c1", "env", "lattice"):
                raise ConfigError("unknown section [%s]" % current, lineno)
            if current in sections:
                raise ConfigError("duplicate section [%s]" % current, lineno)
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        if current is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if current == "lattice" and key not in ("size", "boundary"):
            raise ConfigError("unknown key %r in [lattice]" % key, lineno)
        if key in sections[current]:
            raise ConfigError("duplicate key %r in [%s]" % (key, current), lineno)
        sections[current][key] = (value.strip(), lineno)

    def need(section):
        if section not in sections:
            raise ConfigError("missing section [%s]" % section)
        return sections[section]

    def entry(section, key):
        sec = need(section)
        if key not in sec:
            raise ConfigError("missing key %r in [%s]" % (key, section))
        return sec[key]

    def integer(section, key, low):
        value, lineno = entry(section, key)
        try:
            number = int(value)
        except ValueError:
            raise ConfigError("bad integer %r for %r" % (value, key), lineno) from None
        if number < low:
            raise ConfigError("%r must be at least %d, got %d" % (key, low, number), lineno)
        return number

    def table(section, width):
        """The section's rates by integer word, in one pass over the word
        keys it holds; `range` is the one other key [env] holds."""
        rates = {}
        for key, (value, lineno) in need(section).items():
            if key == "range" and section == "env":
                continue
            if len(key) != width or set(key) - {"0", "1"}:
                raise ConfigError("key %r in [%s] is not a %d-bit word" % (key, section, width), lineno)
            try:
                rate = float(value)
            except ValueError:
                raise ConfigError("bad number %r for key %r" % (value, key), lineno) from None
            try:
                rates[int(key, 2)] = _finite_nonnegative("rate %r for key %r", rate, value, key)
            except ValueError as err:
                raise ConfigError(str(err), lineno) from None
        if len(rates) < 1 << width:
            missing = next(w for w in range(1 << width) if w not in rates)
            raise ConfigError("missing key %r in [%s]" % (format(missing, "0%db" % width), section))
        return tuple(rates[w] for w in range(1 << width))

    c0 = LocalSpinRates(table("spin.c0", 3))
    c1 = LocalSpinRates(table("spin.c1", 3))

    radius = integer("env", "range", 0)
    env = EnvRateSpec(radius, table("env", 2 * radius + 1))

    size = integer("lattice", "size", 1)
    bvalue, blineno = need("lattice").get("boundary", ("periodic", None))
    boundary = parse_boundary(bvalue, blineno)
    try:
        return ModelSpec(SpinRatePair(c0, c1), env, size, boundary)
    except ValueError as err:
        # boundary words shorter than the background range
        raise ConfigError(str(err), blineno) from None


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
        for key, v in zip(_word_keys(3), table.values):
            lines.append("%s = %r" % (key, v))
        lines.append("")
    lines.append("[env]")
    lines.append("range = %d" % spec.env.range)
    for key, v in zip(_word_keys(2 * spec.env.range + 1), spec.env.table):
        lines.append("%s = %r" % (key, v))
    lines.append("")
    lines.append("[lattice]")
    lines.append("size = %d" % spec.size)
    lines.append("boundary = %s" % format_boundary(spec.boundary))
    lines.append("")
    return "\n".join(lines)
