"""Trajectories built from pre-generated event clocks and uniform marks.

The per-site event streams are the exact reference.  Every site carries a
background clock of rate b_bar and a spin clock of rate c_bar, and each ring
comes with uniform marks that a deterministic acceptance rule turns into flips:

* background, center 0: flip iff the mark lands in the top b(x, .) of [0, b_bar];
  center 1: flip iff it lands in the bottom b(x, .).
* spin, background bit i: use the mark drawn uniformly on [0, c_bar_i]; at
  center 0 flip iff it lands in the top (c_bar_i/c_bar)*c_i(x, .) of that
  interval, at center 1 iff it lands in the bottom (c_bar_i/c_bar)*c_i(x, .).

The lockstep engine (`batch_evolve`, `batch_envelope`) runs many replicas of
the same rules on a tighter clock: a site rings at rate b_bar + c_hat, where
c_hat is the largest up-rate plus the largest down-rate over both spin
tables, and each ring draws one mark U on [0, b_bar + c_hat).  U < b_bar is a
background ring with mark U; otherwise every spin layer reads U - b_bar with
the windows of `accept_window`: the top c_i(x, .) of [0, c_hat] for up-flips,
the bottom c_i(x, .) for down-flips.

Top-anchored up-windows and bottom-anchored down-windows nest across ordered
configurations, so several layers evolved from one stream flip together as
much as possible and never cross: this is the maximal monotone coupling.
`window_rates` computes the induced joint flip rates by exact interval
arithmetic on the engine's own windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (
    Configuration,
    FrozenWords,
    MutableWindow,
    Periodic,
    initially_ordered_pairs,
    layer_names,
)
from .rates import ModelSpec, SpinRatePair, dominating_rates, tight_clock


class EventBudgetError(RuntimeError):
    pass


class OrderViolationError(AssertionError):
    pass


_KIND_BG, _KIND_SPIN = 0, 1


def _site_rng(seed, kind, site):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(kind, site)))


def _clock_times(rng, rate, t_max):
    """Strictly increasing ring times in (0, t_max]; empty when rate is 0."""
    if rate <= 0.0 or t_max <= 0.0:
        return np.empty(0)
    chunk = max(16, int(rate * t_max + 6.0 * math.sqrt(rate * t_max)) + 16)
    pieces = []
    t = 0.0
    while t <= t_max:
        gaps = rng.exponential(1.0 / rate, chunk)
        cum = t + np.cumsum(gaps)
        pieces.append(cum)
        t = cum[-1]
    times = np.concatenate(pieces)
    return times[times <= t_max]


@dataclass
class SiteStream:
    bg_times: np.ndarray
    bg_marks: np.ndarray
    spin_times: np.ndarray
    spin_marks0: np.ndarray
    spin_marks1: np.ndarray


class EventStream:
    """All per-site randomness for one replica up to a horizon.

    Regeneration from the same seed is bit-identical, and each (site, kind)
    substream is derived independently from (seed, kind, site), so enlarging
    the lattice does not perturb existing sites.
    """

    def __init__(self, spec: ModelSpec, seed, t_max, max_events=10_000_000):
        if t_max < 0:
            raise ValueError("t_max must be >= 0")
        self.spec = spec
        self.seed = int(seed)
        self.t_max = float(t_max)
        self.max_events = int(max_events)
        self.consts = dominating_rates(spec)
        self._sites = {}
        self._events_used = 0

    def _charge(self, count):
        self._events_used += count
        if self._events_used > self.max_events:
            raise EventBudgetError(
                "event budget of %d exceeded; lower t_max or raise max_events"
                % self.max_events
            )

    def site(self, x) -> SiteStream:
        cached = self._sites.get(x)
        if cached is not None:
            return cached
        rng_bg = _site_rng(self.seed, _KIND_BG, x)
        bg_times = _clock_times(rng_bg, self.consts.b_bar, self.t_max)
        bg_marks = rng_bg.uniform(0.0, self.consts.b_bar, bg_times.size)
        rng_sp = _site_rng(self.seed, _KIND_SPIN, x)
        spin_times = _clock_times(rng_sp, self.consts.c_bar, self.t_max)
        u0 = rng_sp.uniform(0.0, self.consts.c_bar0, spin_times.size)
        u1 = rng_sp.uniform(0.0, self.consts.c_bar1, spin_times.size)
        self._charge(bg_times.size + spin_times.size)
        stream = SiteStream(bg_times, bg_marks, spin_times, u0, u1)
        self._sites[x] = stream
        return stream


def generate_streams(spec, seed, t_max, max_events=10_000_000) -> EventStream:
    return EventStream(spec, seed, t_max, max_events=max_events)


class Event(NamedTuple):
    time: float
    site: int
    layer: str
    old: int
    new: int


@dataclass
class Trajectory:
    """An initial state, the ordered log of flips, and the final state."""

    initial: dict
    events: list
    final: dict
    t_max: float

    def layer_events(self, layer):
        return [e for e in self.events if e.layer == layer]

    def verify_replay(self):
        """Re-apply the log to the initial state and compare with `final`."""
        work = {name: list(cfg.bits) for name, cfg in self.initial.items()}
        for e in self.events:
            if work[e.layer][e.site] != e.old:
                raise AssertionError("event %r does not match the replayed state" % (e,))
            work[e.layer][e.site] = e.new
        for name, cfg in self.final.items():
            if tuple(work[name]) != cfg.bits:
                raise AssertionError("replay of layer %s does not reach the final state" % name)
        return True

    def to_csv_text(self):
        lines = []
        for name, cfg in self.initial.items():
            lines.append("# initial %s=%s" % (name, cfg.to_literal()))
        for name, cfg in self.final.items():
            lines.append("# final %s=%s" % (name, cfg.to_literal()))
        lines.append("t,site,layer,from,to")
        for e in self.events:
            lines.append("%r,%d,%s,%d,%d" % (e.time, e.site, e.layer, e.old, e.new))
        return "\n".join(lines) + "\n"

    def to_records(self):
        return [
            {"t": e.time, "site": e.site, "layer": e.layer, "from": e.old, "to": e.new}
            for e in self.events
        ]


def _merge_site_events(parts):
    """parts: list of (times, site, payload columns...) -> rows sorted by
    (time, site, kind). Ties across kinds at one instant never occur for
    continuous clocks; an exact collision trips an assertion."""
    rows = []
    for times, site, kind, payload in parts:
        for k in range(times.size):
            rows.append((times[k], site, kind) + tuple(col[k] for col in payload))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0] and a[2] != b[2]:
            raise AssertionError("background and spin clocks collided at t=%r" % a[0])
    return rows


def evolve_background(beta0: Configuration, stream: EventStream) -> Trajectory:
    """Apply the background acceptance rule at every background ring."""
    spec = stream.spec
    if len(beta0) != spec.size:
        raise ValueError("initial background has %d sites, spec wants %d" % (len(beta0), spec.size))
    b_bar = stream.consts.b_bar
    radius = spec.env.range
    table = spec.env.table
    window = MutableWindow(beta0)
    parts = []
    for x in range(spec.size):
        s = stream.site(x)
        parts.append((s.bg_times, x, _KIND_BG, (s.bg_marks,)))
    events = []
    for t, x, _, mark in _merge_site_events(parts):
        rate = table[window.word_index(x, radius)]
        old = window.bits[x]
        if old == 0:
            flip = mark >= b_bar - rate
        else:
            flip = mark < rate
        if flip:
            window.flip(x)
            events.append(Event(float(t), int(x), "beta", old, 1 - old))
    return Trajectory(
        initial={"beta": beta0},
        events=events,
        final={"beta": window.to_configuration()},
        t_max=stream.t_max,
    )


def evolve_spins(beta_traj: Trajectory, spin_layers, stream: EventStream, names=None) -> Trajectory:
    """Evolve one or more spin layers over a fixed background trajectory.

    All layers share the spin clocks and marks, and each applies the
    acceptance rule with its own neighborhood rate.  Any pair of layers that
    starts pointwise ordered is asserted to stay ordered after every event.
    """
    spec = stream.spec
    layers = [MutableWindow(cfg) for cfg in spin_layers]
    if names is None:
        names = layer_names(len(layers))
    if any(len(cfg) != spec.size for cfg in spin_layers):
        raise ValueError("spin layers must have %d sites" % spec.size)
    ordered = initially_ordered_pairs(list(spin_layers))

    consts = stream.consts
    cb = (consts.c_bar0, consts.c_bar1)
    scale = tuple(v / consts.c_bar if consts.c_bar else 0.0 for v in cb)
    tables = (spec.spin.c0, spec.spin.c1)

    beta = MutableWindow(beta_traj.initial["beta"])
    merged = []
    for x in range(spec.size):
        s = stream.site(x)
        for k in range(s.spin_times.size):
            merged.append((s.spin_times[k], x, _KIND_SPIN, s.spin_marks0[k], s.spin_marks1[k]))
    for e in beta_traj.events:
        merged.append((e.time, e.site, _KIND_BG, e.old, e.new))
    merged.sort(key=lambda r: (r[0], r[1], r[2]))
    for a, b in zip(merged, merged[1:]):
        if a[0] == b[0] and a[2] != b[2]:
            raise AssertionError("background and spin events collided at t=%r" % a[0])

    events = []
    for row in merged:
        t, x, kind = row[0], row[1], row[2]
        if kind == _KIND_BG:
            beta.bits[x] = row[4]
            continue
        i = beta.bits[x]
        cbar_i = cb[i]
        if cbar_i == 0.0:
            continue
        s_i = scale[i]
        u = row[3] if i == 0 else row[4]
        table = tables[i]
        for layer, name in zip(layers, names):
            c = table.rate_index(layer.word_index(x, 1))
            old = layer.bits[x]
            if old == 0:
                flip = u >= cbar_i - s_i * c
            else:
                flip = u < s_i * c
            if flip:
                layer.flip(x)
                events.append(Event(float(t), int(x), name, old, 1 - old))
        for a, b in ordered:
            if layers[a].bits[x] > layers[b].bits[x]:
                raise OrderViolationError(
                    "layers %s and %s crossed at site %d, t=%r" % (names[a], names[b], x, t)
                )

    initial = {"beta": beta_traj.initial["beta"]}
    initial.update(zip(names, spin_layers))
    final = {"beta": beta_traj.final["beta"]}
    final.update({name: layer.to_configuration() for name, layer in zip(names, layers)})
    events = sorted(
        events + list(beta_traj.events), key=lambda e: (e.time, e.site, e.layer != "beta")
    )
    return Trajectory(initial=initial, events=events, final=final, t_max=stream.t_max)


# ---------------------------------------------------------------------------
# exact joint flip rates induced by the shared marks


@lru_cache(maxsize=1024)
def exact_table(values):
    """Rate table as exact Fractions (cached; tables are value tuples)."""
    return tuple(Fraction(v) for v in values)


@lru_cache(maxsize=1024)
def exact_clock(values0, values1):
    """The tight spin clock c_hat of two spin tables, as an exact Fraction."""
    return tight_clock(exact_table(values0), exact_table(values1))


def window_rates(pair: SpinRatePair, background_bit, windows):
    """Joint flip rates of layers sharing one spin clock, by interval arithmetic.

    `windows` holds one 3-bit neighborhood word per layer.  The result maps a
    target local state (background bit, new center per layer) to its rate, as
    an exact Fraction; targets with zero rate are omitted.  No randomness is
    involved: the lockstep engine's spin mark on [0, c_hat] is partitioned
    into acceptance atoms by the engine's own windows (`accept_window`),
    each atom's flip set read off, and its rate is its length.
    """
    table = exact_table(pair.table(background_bit).values)
    c_hat = exact_clock(pair.c0.values, pair.c1.values)
    n_layers = len(windows)
    centers = [int(w[1]) for w in windows]
    bit = int(background_bit)

    # sweep the mark from 0 to c_hat: an up-window opens at its lower end, a
    # down-window closes at its upper end, and each segment between
    # consecutive points is one atom
    events = []
    for k, ctr in enumerate(centers):
        lo, hi = accept_window(ctr, table[int(windows[k], 2)], c_hat)
        events.append((lo if ctr == 0 else hi, ctr, k))
    events.sort(key=lambda e: e[0])
    active = {k for k, ctr in enumerate(centers) if ctr == 1}

    out = {}
    pos = Fraction(0)
    idx = 0
    while pos < c_hat:
        while idx < len(events) and events[idx][0] == pos:
            _, ctr, k = events[idx]
            if ctr == 1:
                active.discard(k)
            else:
                active.add(k)
            idx += 1
        nxt = events[idx][0] if idx < len(events) else c_hat
        if nxt > c_hat:
            nxt = c_hat
        if active and nxt > pos:
            kinds = {centers[k] for k in active}
            assert len(kinds) == 1, "up and down acceptance windows overlap"
            target = (bit,) + tuple(
                1 - centers[k] if k in active else centers[k] for k in range(n_layers)
            )
            out[target] = out.get(target, Fraction(0)) + (nxt - pos)
        pos = nxt
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# vectorized lockstep replica engine (tight clock, one mark per event)


@dataclass
class BatchResult:
    """Snapshots at each grid time, the order violations counted, and
    `counters`: `steps` (lockstep steps), `events` (rings summed over
    replicas) split into `background_rings` and `spin_rings`, `null_rings`
    (rings that flipped nothing), `flips` (accepted flips per field: "beta",
    "layer0", "layer1", ...) and `order_checks` (two fields compared at a site).
    """

    times: list
    background: list
    layers: list
    order_violations: int
    counters: dict = field(default_factory=dict)


def _field_rows(init, replicas, halo):
    """One field stacked over replicas, and its boundary.  `init` is a
    Configuration tiled across replicas or a pair (bits of shape (replicas,
    n), boundary).  The int8 rows are n + 2*halo wide: frozen boundary words
    fill the halo columns and never change; a ring wraps (`_site_columns`)."""
    if isinstance(init, Configuration):
        body = np.tile(init.as_array(), (replicas, 1))
        boundary = init.boundary
    else:
        bits, boundary = init
        body = np.asarray(bits, dtype=np.int8)
        if body.ndim != 2 or body.shape[0] != replicas:
            raise ValueError("per-replica bits must have shape (replicas, n)")
    n = body.shape[1]
    rows = np.zeros((replicas, n + 2 * halo), dtype=np.int8)
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


def accept_window(center, rate, clock):
    """The mark interval [lo, hi) of [0, clock) on which a site flips: the top
    `rate` for center 0 (up), the bottom `rate` for center 1 (down).

    Up-windows of ordered configurations nest at the top and down-windows at
    the bottom; an up- and a down-window stay disjoint while the clock covers
    the largest up-rate plus the largest down-rate.  The lockstep engine uses
    it with floats, `window_rates` with Fractions.
    """
    if center == 0:
        return clock - rate, clock
    return 0, rate


class _Kind(NamedTuple):
    """What a ring reads and writes for one kind of field in `_lockstep`."""

    names: list  # of the fields of this kind
    cols: np.ndarray  # column of every read slot at each site, (slots, n)
    offsets: np.ndarray  # field offset of every slot and field, (slots, fields, 1)
    center: int  # slot of the field's own center
    weights: np.ndarray  # weight of every slot in the word read, (slots, 1, 1), int8 when it fits
    lo: np.ndarray  # acceptance window [lo, hi) on [0, b_bar + c_hat) of every word
    hi: np.ndarray
    pairs: list  # (lower, upper) fields compared after each ring
    flips: np.ndarray  # accepted flips per field


def _lockstep(spec, groups, names, t_grid, replicas, seed, check_order, on_violation):
    """Run `replicas` copies of G groups of (background, spin layers) in lockstep.

    `groups` holds (background start, [spin layer starts]) per group and
    `names` names every field, group by group, background first.  Per grid
    interval each replica gets a Poisson number of rings of its clock of rate
    N*(b_bar + c_hat), and each ring draws a site x and one mark U on
    [0, b_bar + c_hat): U < b_bar rings every background at x with mark U,
    otherwise every spin layer reads U - b_bar against its own group's
    background.  Every initially ordered pair of fields that the coupling
    keeps ordered is compared at x after each ring.  RNG use depends only on
    (seed, grid, Poisson counts), never on the state.

    Returns the grid times, per grid time the in-window bits of every field,
    the order violations counted and the counters of `BatchResult`.
    """
    grid = [float(t) for t in t_grid]
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("t_grid must be nondecreasing and nonnegative")
    consts = dominating_rates(spec)
    n, radius = spec.size, spec.env.range
    b_bar, c_hat = consts.b_bar, consts.c_hat
    lam = b_bar + c_hat
    halo = max(1, radius)
    width = n + 2 * halo

    starts, owner = [], []
    for beta0, layers in groups:
        owner += [len(starts)] * (1 + len(layers))
        starts += [beta0, *layers]
    n_fields = len(starts)
    state = np.empty((replicas, n_fields, width), dtype=np.int8)
    boundaries = []
    for f, start in enumerate(starts):
        rows, boundary = _field_rows(start, replicas, halo)
        if rows.shape[1] != width:
            raise ValueError("%s has %d sites, not %d" % (names[f], rows.shape[1] - 2 * halo, n))
        state[:, f] = rows
        boundaries.append(boundary)
    if len({isinstance(b, Periodic) for b in boundaries}) > 1:
        raise ValueError("fields mix periodic and frozen boundaries")
    flat = state.reshape(-1)
    body = state[:, :, halo:halo + n]

    def below(p, q):
        return bool((body[:, p] <= body[:, q]).all())

    def kind(fields, cols, offsets, center, windows):
        pairs = [
            (i, j)
            for i, p in enumerate(fields)
            for j, q in enumerate(fields)
            # equal fields need one orientation only
            if i != j and below(p, q) and not (i > j and below(q, p)) and below(owner[p], owner[q])
        ] if check_order else []
        weights = 1 << np.arange(len(cols) - 1, -1, -1)
        lo, hi = np.array(windows, dtype=float).T
        return _Kind(
            names=[names[f] for f in fields],
            cols=cols,
            offsets=np.array(offsets, dtype=np.intp)[:, :, None] * width,
            center=center,
            weights=weights.astype(np.int8 if len(cols) < 8 else np.int64)[:, None, None],
            lo=lo.copy(),
            hi=hi.copy(),
            pairs=pairs,
            flips=np.zeros(len(fields), dtype=np.int64),
        )

    # a background reads its window -radius..radius and flips on marks below
    # b_bar; a spin layer reads its group background's center and its own
    # window -1..1 and flips on marks in b_bar + [0, c_hat)
    btab = spec.env.as_array()
    ctabs = np.concatenate([spec.spin.c0.as_array(), spec.spin.c1.as_array()])
    bg = [f for f in range(n_fields) if owner[f] == f]
    spin = [f for f in range(n_fields) if owner[f] != f]
    kinds = (
        kind(
            bg,
            _site_columns(boundaries[0], n, halo, radius).T,
            [bg] * (2 * radius + 1),
            radius,
            [accept_window((w >> radius) & 1, b, b_bar) for w, b in enumerate(btab)],
        ),
        kind(
            spin,
            np.vstack([halo + np.arange(n), _site_columns(boundaries[0], n, halo, 1).T]),
            [[owner[f] for f in spin]] + [spin] * 3,
            2,
            [np.add(b_bar, accept_window((w >> 1) & 1, c, c_hat)) for w, c in enumerate(ctabs)],
        ),
    )

    rng = np.random.default_rng(seed)
    times, snaps = [], []
    violations = steps = events = bg_rings = null_rings = 0
    t_prev = 0.0
    for t in grid:
        dt, t_prev = t - t_prev, t
        if lam > 0 and dt > 0:
            counts = rng.poisson(lam * n * dt, replicas)
        else:
            counts = np.zeros(replicas, dtype=np.int64)
        # replicas by decreasing ring count: those still active at step j
        # are a prefix of `order`
        order = np.argsort(-counts, kind="stable")
        base = order * (n_fields * width)
        n_steps = int(counts.max()) if replicas else 0
        active = replicas - np.cumsum(np.bincount(counts, minlength=n_steps))[:n_steps]
        steps += n_steps
        events += int(counts.sum())
        for a in active.tolist():
            x = rng.integers(0, n, a)
            u = rng.uniform(0.0, lam, a)
            bg_rings += int(np.count_nonzero(u < b_bar))
            hit = np.zeros(a, dtype=bool)
            for k in kinds:
                idx = k.cols.take(x, axis=1)
                idx += base[:a]
                idx = idx[:, None] + k.offsets  # (slots, fields, active replicas)
                val = flat.take(idx)
                word = (val * k.weights).sum(axis=0, dtype=k.weights.dtype)
                flip = (u >= k.lo.take(word)) & (u < k.hi.take(word))
                new = val[k.center] ^ flip
                flat[idx[k.center]] = new
                k.flips[:] += flip.sum(axis=1)
                hit |= flip.any(axis=0)
                for i, j in k.pairs:
                    bad = new[i] > new[j]
                    if bad.any():
                        if on_violation == "raise":
                            raise OrderViolationError(
                                "%s and %s crossed in a lockstep step" % (k.names[i], k.names[j])
                            )
                        violations += int(bad.sum())
            null_rings += a - int(np.count_nonzero(hit))
        times.append(t)
        snaps.append([body[:, f].copy() for f in range(n_fields)])

    flips = {name: int(v) for k in kinds for name, v in zip(k.names, k.flips)}
    counters = {
        "steps": steps,
        "events": events,
        "background_rings": bg_rings,
        "spin_rings": events - bg_rings,
        "null_rings": null_rings,
        "flips": {name: flips[name] for name in names},
        "order_checks": sum(len(k.pairs) for k in kinds) * events,
    }
    return times, snaps, violations, counters


def batch_evolve(
    spec: ModelSpec,
    beta0: Configuration,
    spin_layers,
    t_grid,
    replicas,
    seed,
    check_order=True,
    on_violation="raise",
):
    """Run `replicas` copies of one background and its spin layers in
    lockstep, one group of `_lockstep`.

    `beta0` and each layer are a Configuration tiled over replicas or a pair
    (bits of shape (replicas, n), boundary).  The layers share the background
    and every mark: the maximal monotone coupling.  Returns in-window
    snapshots at each grid time.  With `check_order`, every pair of layers
    that starts ordered is compared at each ring; violations raise or count.
    """
    names = ["beta"] + ["layer%d" % k for k in range(len(spin_layers))]
    times, snaps, violations, counters = _lockstep(
        spec, [(beta0, list(spin_layers))], names, t_grid, replicas, seed, check_order, on_violation
    )
    return BatchResult(
        times=times,
        background=[s[0] for s in snaps],
        layers=[s[1:] for s in snaps],
        order_violations=violations,
        counters=counters,
    )


def batch_envelope(spec: ModelSpec, t_grid, replicas, seed, on_violation="raise"):
    """Coupled replicas of the two extreme joint starts (all zeros, all ones):
    two groups of `_lockstep`, each one (background, spin) pair.

    Compatibility and attractivity nest the acceptance windows across the two
    spin tables, so the pair order (background and spin alike) holds even
    while the backgrounds disagree; it is checked at every ring.  Each pair
    alone evolves with the exact model rates.  Returns (times, per grid time
    (beta_lo, eta_lo, beta_hi, eta_hi), violations).
    """
    n = spec.size
    groups = [
        (Configuration.all_zero(n, spec.env_boundary), [Configuration.all_zero(n, spec.spin_boundary)]),
        (Configuration.all_one(n, spec.env_boundary), [Configuration.all_one(n, spec.spin_boundary)]),
    ]
    names = ("beta_lo", "eta_lo", "beta_hi", "eta_hi")
    times, snaps, violations, _ = _lockstep(
        spec, groups, names, t_grid, replicas, seed, True, on_violation
    )
    return times, [tuple(s) for s in snaps], violations
