"""Finite 0/1 lattice windows standing in for bi-infinite spin configurations.

A window of N sites carries one of two boundary policies: periodic (a ring,
preserving translation invariance) or frozen words (fixed bits glued to the
left and right of the window, which never change during evolution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BoundaryError(ValueError):
    pass


@dataclass(frozen=True)
class Periodic:
    def __repr__(self):
        return "Periodic()"


@dataclass(frozen=True)
class FrozenWords:
    """Immutable bit words adjacent to the window: left[-1] sits at site -1,
    right[0] at site N."""

    left: str
    right: str

    def __post_init__(self):
        for word in (self.left, self.right):
            if not word or set(word) - {"0", "1"}:
                raise BoundaryError(
                    "boundary word must be a nonempty 0/1 string, got %r" % (word,)
                )


PERIODIC = Periodic()


def _normalize_bits(bits):
    if isinstance(bits, str):
        vals = tuple(int(ch) for ch in bits)
    else:
        vals = tuple(int(v) for v in bits)
    if any(v not in (0, 1) for v in vals):
        raise ValueError("configuration bits must be 0 or 1")
    return vals


@dataclass(frozen=True)
class Configuration:
    """A 0/1 state on sites 0..N-1 plus the boundary policy used to resolve
    neighborhoods that reach outside the window."""

    bits: tuple
    boundary: object = PERIODIC

    def __post_init__(self):
        object.__setattr__(self, "bits", _normalize_bits(self.bits))
        if not self.bits:
            raise ValueError("configuration must have at least one site")
        if not isinstance(self.boundary, (Periodic, FrozenWords)):
            raise BoundaryError("boundary must be Periodic or FrozenWords")

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, x):
        return self.bits[x]

    def as_array(self):
        return np.array(self.bits, dtype=np.int8)

    def to_literal(self):
        body = "".join(str(b) for b in self.bits)
        if isinstance(self.boundary, FrozenWords):
            return "%s|%s|%s" % (self.boundary.left, body, self.boundary.right)
        return body

    @classmethod
    def _of_bits(cls, bits, boundary):
        """A Configuration of `bits`, a nonempty tuple of ints 0 and 1 and a
        checked boundary, built without normalizing them again."""
        config = object.__new__(cls)
        object.__setattr__(config, "bits", bits)
        object.__setattr__(config, "boundary", boundary)
        return config

    @classmethod
    def all_zero(cls, n, boundary=PERIODIC):
        return cls((0,) * n, boundary)

    @classmethod
    def all_one(cls, n, boundary=PERIODIC):
        return cls((1,) * n, boundary)


def leq(a: Configuration, b: Configuration) -> bool:
    """Pointwise partial order on equal-length windows."""
    if len(a) != len(b):
        raise ValueError("cannot compare configurations of lengths %d and %d" % (len(a), len(b)))
    return all(x <= y for x, y in zip(a.bits, b.bits))


def site_value(a, pos: int) -> int:
    """Value of a Configuration or MutableWindow at a (possibly out-of-window)
    position, resolved by its boundary.  Every scalar read past a window edge
    goes through here; array code uses `_field_rows` and `_site_columns`."""
    bits = a.bits
    n = len(bits)
    if 0 <= pos < n:
        return bits[pos]
    if isinstance(a.boundary, Periodic):
        return bits[pos % n]
    words = a.boundary
    if pos < 0:
        if pos < -len(words.left):
            raise BoundaryError("position %d reaches past the left boundary word" % pos)
        return int(words.left[len(words.left) + pos])
    if pos >= n + len(words.right):
        raise BoundaryError("position %d reaches past the right boundary word" % pos)
    return int(words.right[pos - n])


def word_index(a, x: int, radius: int) -> int:
    """The (2*radius+1)-bit word centered at x as an integer, boundary-resolved;
    site x - radius is the most significant bit."""
    idx = 0
    for pos in range(x - radius, x + radius + 1):
        idx = (idx << 1) | site_value(a, pos)
    return idx


def _distinct(values):
    """`values` sorted, each once: deduplicated by hand, since np.unique
    imports numpy.ma, a megabyte."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


# the input rules of every engine and estimator: a ValueError naming the input
def _is_integer(value):
    """The count rule's type test: an integer, numpy's too, but not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _count(name, value, low):
    """`value` as an int: an integer (`_is_integer`) of at least `low`."""
    if not _is_integer(value) or value < low:
        raise ValueError("%s must be an integer >= %d, not %r" % (name, low, value))
    return int(value)


def _integers(low, **values):
    """The count rule's type test alone, for inputs whose range test has its
    own message and comes next: the first of `values` that is not an
    integer is refused as `_count` refuses it."""
    for name, value in values.items():
        if not _is_integer(value):
            _count(name, value, low)


def _finite_nonnegative(name, x, *args):
    """`x`, a horizon or a rate, when it is finite and at least 0; `name % args` names it."""
    if not 0 <= x < np.inf:
        raise ValueError("%s must be finite and >= 0" % (name % args))
    return x


def _start_size(name, sites, n):
    """A start, here of `sites` sites, must have the spec's n."""
    if sites != n:
        raise ValueError("%s has %d sites, not %d" % (name, sites, n))


def _field_rows(init, replicas, halo):
    """One field's padded rows, and its boundary.  `init` is a Configuration,
    the same start in every replica, which gives its one row (shape (1,
    n + 2*halo), broadcast over replicas by the caller), or a pair (bits of
    shape (replicas, n), boundary), which gives one row per replica.  The
    int8 rows are n + 2*halo wide: frozen boundary words fill the halo
    columns and never change; a ring wraps (`_site_columns`)."""
    if isinstance(init, Configuration):
        body = init.as_array()[None]
        boundary = init.boundary
    else:
        bits, boundary = init
        body = np.asarray(bits)
        if body.ndim != 2 or body.shape[0] != replicas:
            raise ValueError("per-replica bits must have shape (replicas, n)")
        if ((body != 0) & (body != 1)).any():
            raise ValueError("per-replica bits must be 0 or 1")
        body = body.astype(np.int8, copy=False)
    n = body.shape[1]
    rows = np.zeros((len(body), n + 2 * halo), dtype=np.int8)
    rows[:, halo:halo + n] = body
    if isinstance(boundary, FrozenWords):
        if len(boundary.left) < halo or len(boundary.right) < halo:
            raise ValueError("boundary words shorter than the needed halo %d" % halo)
        rows[:, :halo] = [int(ch) for ch in boundary.left[-halo:]]
        rows[:, halo + n:] = [int(ch) for ch in boundary.right[:halo]]
    return rows, boundary


def _site_columns(boundary, n, halo, radius):
    """Row columns of the offsets -radius..radius around every site, shape
    (n, 2*radius + 1): a ring wraps, frozen words are read from the halo."""
    cols = np.arange(n)[:, None] + np.arange(-radius, radius + 1)
    if isinstance(boundary, Periodic):
        cols %= n
    return cols + halo


_ORDER_PAIRS = {
    0: (),
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2)),
    # lower <= each middle <= upper; the two middles are unordered relative
    # to each other
    4: ((0, 1), (0, 2), (1, 3), (2, 3)),
}

_LAYER_NAMES = {
    0: (),
    1: ("eta",),
    2: ("eta", "xi"),
    3: ("eta", "gamma", "xi"),
    4: ("eta", "gamma1", "gamma2", "xi"),
}


def order_pairs(n_layers: int):
    """Index pairs (i, j) that must satisfy layer_i <= layer_j pointwise."""
    try:
        return _ORDER_PAIRS[n_layers]
    except KeyError:
        raise ValueError("unsupported layer count %d" % n_layers) from None


def layer_names(n_layers: int):
    try:
        return _LAYER_NAMES[n_layers]
    except KeyError:
        raise ValueError("unsupported layer count %d" % n_layers) from None


@dataclass(frozen=True)
class JointState:
    """Background layer plus zero or more spin layers of the same length.

    Spin layers are kept in increasing order: with three layers the chain
    eta <= gamma <= xi must hold pointwise, with four layers the two middle
    layers are each wedged between the outer two but not mutually ordered.
    """

    beta: Configuration
    layers: tuple = ()

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        for layer in layers:
            if len(layer) != len(self.beta):
                raise ValueError("all layers must match the background length")
        for i, j in order_pairs(len(layers)):
            if not leq(layers[i], layers[j]):
                raise ValueError(
                    "layers %s and %s are not ordered" % (self.names[i], self.names[j])
                )

    @property
    def names(self):
        return layer_names(len(self.layers))


def initially_ordered_pairs(fields, below):
    """The pairs (i, j), i != j, in (i, j) order, that the mark engines keep
    ordered: `below(fields[i], fields[j])` at the start, and of two equal
    fields (each below the other) only the earlier below the later."""
    at = range(len(fields))
    return tuple((i, j) for i in at for j in at
                 if i != j and below(fields[i], fields[j]) and not (i > j and below(fields[j], fields[i])))


class MutableWindow:
    """Mutable copy of a configuration's bits, read through `site_value`;
    used inside simulators, one replica at a time."""

    __slots__ = ("bits", "boundary")

    def __init__(self, config: Configuration):
        self.bits = list(config.bits)
        self.boundary = config.boundary

    def word_index(self, x, radius):
        return word_index(self, x, radius)

    def flip(self, x):
        self.bits[x] ^= 1

    def to_configuration(self):
        return Configuration(tuple(self.bits), self.boundary)
