"""Trajectories built from pre-generated event clocks and uniform marks.

The per-site event streams (`EventStream`) are the exact reference.  Every
site carries a background clock of rate b_bar and a spin clock of rate c_bar,
each ring comes with uniform marks, and `evolve` applies the rings in time
order, turning each into a flip or not by a deterministic acceptance rule:

* background, center 0: flip iff the mark lands in the top b(x, .) of [0, b_bar];
  center 1: flip iff it lands in the bottom b(x, .).
* spin, background bit i: use the mark drawn uniformly on [0, c_bar_i]; at
  center 0 flip iff it lands in the top (c_bar_i/c_bar)*c_i(x, .) of that
  interval, at center 1 iff it lands in the bottom (c_bar_i/c_bar)*c_i(x, .).

The lockstep engine (`batch_evolve`, `batch_envelope`) runs many replicas of
the same rules on a tighter clock: a site rings at rate b_bar + c_hat, where
c_hat is the largest up-rate plus the largest down-rate over both spin
tables, and each ring has a uniform site x and one mark U on
[0, b_bar + c_hat).  U < b_bar is a background ring with mark U; otherwise
every spin layer reads U - b_bar with the windows of `accept_window`: the
top c_i(x, .) of [0, c_hat] for up-flips, the bottom c_i(x, .) for
down-flips.

Top-anchored up-windows and bottom-anchored down-windows nest across ordered
configurations, so several layers evolved from one stream flip together as
much as possible and never cross: this is the maximal monotone coupling.
`window_rates` computes the induced joint flip rates by exact interval
arithmetic on the engine's own windows.

The engine never compares U with a window.  All window endpoints, as the
floats a comparison would use, cut [0, b_bar + c_hat) into atoms, and every
U in one atom passes the same tests.  So one joint flip table, built once
per shape (`_plan`), maps (the bits a ring reads, the atom of U) to the XOR
mask of the fields that flip, and each replica-site keeps all its fields in
one byte: a ring is one gather of the bytes around its site, one lookup per
slot for its key (or one word of those bytes beside its atom, when they fit
16 bits and the rings pay for its table), and one table lookup.  The
table's atom lengths per flip set are `window_rates`' rates.  Nor does the
engine draw U: one uniform double per ring, ranked among the (site, atom)
starts of `_site_atoms`, picks the site and the atom together, and tables
indexed by that rank give the ring's key rows (per shape) and gather
columns (per call: they read the start's boundary).  A schedule that never
sees the state (`_schedule`) draws every ring's count, order and rank, and
one apply step per path (bytes, or the words below) applies them.

Both engines keep the pairs of `lattice.initially_ordered_pairs` ordered,
but the lockstep engine compares them at every ring only when its table
fails to prove the order: every site starts uncrossed, a ring writes only
its own site, and if no table entry with an uncrossed key crosses a pair
(nor do the frozen boundary words), no ring ever can (`_may_cross`).  The
proof and the per-ring check read one crossing table per call.

A small window on a call the proof clears is held whole.  When n sites of
F fields fit 16 bits and the tables below cost no more entries than the
rings the call expects (`_holds_words`), each replica's window is one word
and a ring is one lookup: a table built once per call from the joint
table, with the frozen boundary bytes folded in, maps (rank, word) to the
next word (`_word_table`).  Outputs are byte-identical on either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .lattice import (
    Configuration,
    MutableWindow,
    Periodic,
    _count,
    _field_rows,
    _finite_nonnegative,
    _site_columns,
    _start_size,
    initially_ordered_pairs,
    layer_names,
    leq,
)
from .rates import ModelSpec, SpinRatePair, dominating_rates, tight_clock


class EventBudgetError(RuntimeError):
    """A run refused because its events would exceed a budget.  `reason`
    says which budget; the message adds `advice` in the Python parameters'
    names, and the CLI gives its own."""

    def __init__(self, reason, advice="lower t_max"):
        super().__init__("%s; %s" % (reason, advice))
        self.reason = reason


# the most rings an EventStream draws by default, and the most events that a
# run, a batch replica or a uniformized chain may expect (`_expected_events`)
EVENT_BUDGET = 10_000_000


def _expected_events(rate, t, advice, what="rings per replica by t=%r"):
    """rate*t, a clock's expected events by t; over EVENT_BUDGET, EventBudgetError saying `what` % t and `advice`."""
    if rate * t > EVENT_BUDGET:
        raise EventBudgetError("about %.3g %s exceed the event budget of %d" % (rate * t, what % (t,), EVENT_BUDGET),
                               advice)
    return rate * t


class OrderViolationError(AssertionError):
    pass


_KIND_BG, _KIND_SPIN = 0, 1


def _site_rng(seed, kind, site):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(kind, site)))


def _clock_times(rng, rate, t_max, limit):
    """Strictly increasing ring times in (0, t_max]; empty when rate is 0, and
    None once they number more than `limit`.

    Gaps come in chunks of about rate*t_max + 6 sd, each summed from its start.
    A chunk is drawn in pieces of at most limit + 1 gaps, summed in place with
    the running sum carried from piece to piece: numpy draws the same
    exponentials, and cumsum adds them in the same order, in any pieces.  The
    draws stop as soon as the times number more than `limit`, and only times
    within the limit are ever joined: memory scales with the limit, not with
    rate*t_max, and a clock within the limit draws the same for any limit.
    """
    if rate <= 0.0 or t_max <= 0.0:
        return np.empty(0)
    chunk = max(16, int(rate * t_max + 6.0 * math.sqrt(rate * t_max)) + 16)
    step = max(1, min(chunk, limit + 1))
    pieces = []
    kept = 0
    t = 0.0
    while t <= t_max:
        head = 0.0
        for start in range(0, chunk, step):
            cum = rng.exponential(1.0 / rate, min(step, chunk - start))
            cum[0] += head
            np.cumsum(cum, out=cum)
            head = cum[-1]
            cum += t
            # the times do not decrease, so those up to t_max are a prefix
            kept_here = int(np.searchsorted(cum, t_max, "right"))
            if kept_here:
                pieces.append(cum[:kept_here])
                kept += kept_here
                if kept > limit:
                    return None
        t += head
    return np.concatenate(pieces) if pieces else np.empty(0)


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

    def __init__(self, spec: ModelSpec, seed, t_max, max_events=EVENT_BUDGET):
        self.spec = spec
        self.seed = _count("seed", seed, 0)
        self.t_max = float(_finite_nonnegative("t_max", t_max))
        self.max_events = int(max_events)
        self.consts = dominating_rates(spec)
        self._sites = {}
        self._events_used = 0

    def _clock(self, rng, rate):
        """One clock's ring times, charged to the event budget."""
        times = _clock_times(rng, rate, self.t_max, self.max_events - self._events_used)
        if times is None:
            raise EventBudgetError(
                "event budget of %d exceeded" % self.max_events, "lower t_max or raise max_events"
            )
        self._events_used += times.size
        return times

    def site(self, x) -> SiteStream:
        cached = self._sites.get(x)
        if cached is not None:
            return cached
        rng_bg = _site_rng(self.seed, _KIND_BG, x)
        bg_times = self._clock(rng_bg, self.consts.b_bar)
        bg_marks = rng_bg.uniform(0.0, self.consts.b_bar, bg_times.size)
        rng_sp = _site_rng(self.seed, _KIND_SPIN, x)
        spin_times = self._clock(rng_sp, self.consts.c_bar)
        u0 = rng_sp.uniform(0.0, self.consts.c_bar0, spin_times.size)
        u1 = rng_sp.uniform(0.0, self.consts.c_bar1, spin_times.size)
        stream = SiteStream(bg_times, bg_marks, spin_times, u0, u1)
        self._sites[x] = stream
        return stream


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


def _accepts(old, mark, top, rate):
    """The acceptance rule: at center 0 flip iff the mark lands in the top
    `rate` of [0, top], at center 1 iff it lands in the bottom `rate`."""
    return mark >= top - rate if old == 0 else mark < rate


def evolve(beta0: Configuration, spin_layers, stream: EventStream) -> Trajectory:
    """Apply every ring of the stream in time order to the background `beta0`
    and the spin layers (none: the background alone).

    A spin ring reads the background bit at its instant, and every layer
    applies the spin rule to the shared mark with its own neighborhood rate;
    each pair of `initially_ordered_pairs` must stay ordered after every spin
    ring.  Rings sort by (time, site, kind); a background and a spin ring at
    one instant (never, for continuous clocks) trip an assertion.
    """
    spec, consts = stream.spec, stream.consts
    names = layer_names(len(spin_layers))
    for name, cfg in zip(("beta", *names), (beta0, *spin_layers)):
        _start_size(name, len(cfg), spec.size)
    ordered = initially_ordered_pairs(spin_layers, leq)
    beta = MutableWindow(beta0)
    layers = [MutableWindow(cfg) for cfg in spin_layers]
    cb = (consts.c_bar0, consts.c_bar1)
    scale = tuple(v / consts.c_bar if consts.c_bar else 0.0 for v in cb)
    tables = (spec.spin.c0.values, spec.spin.c1.values)

    rows = []
    for x in range(spec.size):
        s = stream.site(x)
        rows += [(t, x, _KIND_BG, (u,)) for t, u in zip(s.bg_times, s.bg_marks)]
        rows += [(t, x, _KIND_SPIN, u) for t, u in zip(s.spin_times, zip(s.spin_marks0, s.spin_marks1))]
    rows.sort(key=lambda r: r[:3])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0] and a[2] != b[2]:
            raise AssertionError("background and spin clocks collided at t=%r" % a[0])

    events = []
    for t, x, kind, marks in rows:
        i = beta.bits[x]
        if kind == _KIND_BG:
            if _accepts(i, marks[0], consts.b_bar, spec.env.table[beta.word_index(x, spec.env.range)]):
                beta.flip(x)
                events.append(Event(float(t), int(x), "beta", i, 1 - i))
        elif cb[i] > 0.0:
            for layer, name in zip(layers, names):
                old = layer.bits[x]
                if _accepts(old, marks[i], cb[i], scale[i] * tables[i][layer.word_index(x, 1)]):
                    layer.flip(x)
                    events.append(Event(float(t), int(x), name, old, 1 - old))
            for a, b in ordered:
                if layers[a].bits[x] > layers[b].bits[x]:
                    raise OrderViolationError(
                        "layers %s and %s crossed at site %d, t=%r" % (names[a], names[b], x, float(t))
                    )

    initial = {"beta": beta0, **dict(zip(names, spin_layers))}
    final = {"beta": beta.to_configuration(), **{n: w.to_configuration() for n, w in zip(names, layers)}}
    return Trajectory(initial, events, final, stream.t_max)


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


def window_rates(pair: SpinRatePair, background_bit, words):
    """Joint flip rates of layers sharing one spin clock, by interval arithmetic.

    `words` holds one 3-bit neighborhood word per layer, as the integer that
    `lattice.word_index` builds (left site the most significant bit).  The
    result maps a target local state (background bit, new center per layer)
    to its rate, as an exact Fraction; targets with zero rate are omitted.
    No randomness is involved: the lockstep engine's spin mark on [0, c_hat]
    is partitioned into acceptance atoms by the engine's own windows
    (`accept_window`), each atom's flip set read off, and its rate is its
    length.
    """
    table = exact_table(pair.table(background_bit).values)
    c_hat = exact_clock(pair.c0.values, pair.c1.values)
    n_layers = len(words)
    centers = [(w >> 1) & 1 for w in words]
    bit = int(background_bit)

    # sweep the mark from 0 to c_hat: an up-window opens at its lower end, a
    # down-window closes at its upper end, and each segment between
    # consecutive points is one atom
    events = []
    for k, ctr in enumerate(centers):
        lo, hi = accept_window(ctr, table[words[k]], c_hat)
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
    """Snapshots at each grid time, `order_violations` (always 0: a crossing
    raises OrderViolationError) and `counters`: `steps` (lockstep steps),
    `events` (rings summed over replicas) split into `background_rings` and
    `spin_rings`, `null_rings` (rings that flipped nothing), `flips`
    (accepted flips per field: "beta", "layer0", "layer1", ...) and
    `order_checks` (ordered pairs times rings: each pair is kept ordered at
    every ring, by a comparison there or by the call's order proof).
    """

    times: list
    background: list
    layers: list
    order_violations: int
    counters: dict = field(default_factory=dict)


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


# the most rings drawn and applied at once (a step with more active replicas
# is cut into pieces of this many; sized to the cache, see `_lockstep`), and
# the most entries a joint flip table may hold
BLOCK_RINGS = 16384
TABLE_CAP = 1 << 20
# the finest binning of the mark ranks, and the most window endpoints one
# bin may hold
RANK_BINS = 1 << 16
RANK_ROWS = 2


def _windows(spec, consts):
    """The float acceptance windows [lo, hi) on [0, b_bar + c_hat) that the
    lockstep engine compares its marks against: per background word, then per
    (background bit, 3-bit spin word), as in `accept_window`."""
    b_bar, c_hat = consts.b_bar, consts.c_hat
    radius = spec.env.range
    btab = spec.env.as_array()
    ctabs = np.concatenate([spec.spin.c0.as_array(), spec.spin.c1.as_array()])
    bg = np.array([accept_window((w >> radius) & 1, b, b_bar) for w, b in enumerate(btab)], dtype=float)
    sp = np.array([np.add(b_bar, accept_window((w >> 1) & 1, c, c_hat)) for w, c in enumerate(ctabs)])
    return bg[:, 0], bg[:, 1], sp[:, 0], sp[:, 1]


@lru_cache(maxsize=64)
def _ring_kinds(owner, radius):
    """Per ring kind of `_lockstep` (background, spin), for fields with
    group background `owner[f]` (a tuple): the fields it flips, and the
    (field, site offset) bits of the key it reads, most significant first.
    A background ring reads every background's word, a spin ring its
    groups' backgrounds' centers, then every spin layer's 3-bit word."""
    bg = tuple(f for f, g in enumerate(owner) if g == f)
    spin = tuple(f for f, g in enumerate(owner) if g != f)
    return (
        (bg, tuple((f, d) for f in bg for d in range(-radius, radius + 1))),
        (spin, tuple((g, 0) for g in bg if g in {owner[f] for f in spin})
         + tuple((f, d) for f in spin for d in (-1, 0, 1))),
    )


def _joint_table(windows, owner, radius, b_bar, lam, halo):
    """The joint flip table of one `_lockstep` shape, for fields with group
    background `owner[f]`, built from the float windows of `_windows` and
    flattened for gathers of the bytes at x - halo..x + halo; refuses a table
    over TABLE_CAP.

    The mark U falls in one atom [edges[k], edges[k+1]) of the sorted window
    endpoints (rank k; the last atom starts at b_bar + c_hat and flips
    nothing).  Ranks below the rank of b_bar are background rings, the rest
    spin rings.  A ring of kind c reads the key of `_ring_kinds`.  The
    block of rank k in the flat table starts at offset[k], and its entry
    for key has bit f set iff field f flips: U >= lo and U < hi hold for
    every U in the atom.  So the background ranks' blocks come first.

    Returns (edges, table, lut, rows): the flat table; a lookup from (row,
    byte) to that byte's share of the flat index; and `rows[s, k]`, the
    first index of the row that slot s reads for a ring of rank k.  Rows
    0..2*slots-1 hold per kind and slot the bits of the fields that kind
    reads there; row 2*slots + k holds the center slot's bits for rank k's
    kind plus offset[k], so the shares of one ring's slots sum to its flat
    index.
    """
    bg_lo, bg_hi, sp_lo, sp_hi = windows
    (bg, bg_reads), (spin, spin_reads) = _ring_kinds(tuple(owner), radius)
    reads = (bg_reads, spin_reads)
    # sorted and deduplicated by hand: np.unique imports numpy.ma, a megabyte
    edges = np.sort(np.concatenate([[0.0, b_bar, lam], bg_lo, bg_hi, sp_lo, sp_hi]))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    kind = (np.arange(len(edges)) >= np.searchsorted(edges, b_bar)).astype(np.intp)
    sizes = np.array([1 << len(rd) for rd in reads])[kind]
    size = int(sizes.sum())
    if size > TABLE_CAP:
        raise ValueError("a joint flip table of %d entries exceeds TABLE_CAP=%d" % (size, TABLE_CAP))
    offset = np.cumsum(sizes) - sizes

    def word(f, bit):
        if owner[f] == f:
            return sum(bit[(f, d)] << (radius - d) for d in range(-radius, radius + 1))
        return (bit[(owner[f], 0)] << 3) | (bit[(f, -1)] << 2) | (bit[(f, 0)] << 1) | bit[(f, 1)]

    slots = 2 * halo + 1
    byte = np.arange(256)
    share = np.zeros((2, slots, 256), dtype=np.intp)
    stop = np.append(edges[1:], np.inf)
    table = []
    for c, (fields, lo, hi) in enumerate(((bg, bg_lo, bg_hi), (spin, sp_lo, sp_hi))):
        keys = np.arange(1 << len(reads[c]))
        bit = {}
        for j, (f, d) in enumerate(reads[c]):
            place = len(reads[c]) - 1 - j
            bit[(f, d)] = (keys >> place) & 1
            share[c, d + halo] += ((byte >> f) & 1) << place
        mine = kind == c
        masks = np.zeros((int(mine.sum()), len(keys)), dtype=np.uint8)
        for f in fields:
            w = word(f, bit)
            masks |= ((lo[w] <= edges[mine, None]) & (hi[w] >= stop[mine, None])).astype(np.uint8) << f
        table.append(masks.ravel())
    lut = np.concatenate([share.reshape(-1, 256), share[kind, halo] + offset[:, None]]).ravel()
    rows = (kind * slots + np.arange(slots)[:, None]) * 256
    rows[halo] = (2 * slots + np.arange(len(edges))) * 256
    return edges, np.concatenate(table), lut, rows


@lru_cache(maxsize=64)
def _uncrossed_keys(reads, pairs):
    """For rings that read `reads` (`_ring_kinds`): the keys whose bits
    cross none of the ordered `pairs` at any site offset, and per such key
    the byte of the fields it reads at the center, 0 in the others."""
    keys = np.arange(1 << len(reads))[:, None]
    place = {fd: len(reads) - 1 - j for j, fd in enumerate(reads)}
    p_at, q_at = np.array(
        [(j, place[(q, d)]) for p, q in pairs for (f, d), j in place.items() if f == p and (q, d) in place],
        dtype=np.intp,
    ).reshape(-1, 2).T
    fine = np.flatnonzero(~((keys >> p_at) & ~(keys >> q_at) & 1).any(axis=1))
    at, field = np.array([(j, f) for (f, d), j in place.items() if d == 0], dtype=np.intp).reshape(-1, 2).T
    center = (((keys[fine] >> at) & 1) << field).sum(axis=1).astype(np.uint8)
    return fine, center


def _may_cross(table, edges, b_bar, owner, radius, pairs, crossed):
    """Whether a ring of a `_lockstep` call could cross one of its ordered
    `pairs`, decided once over its joint table (`_joint_table`) by its
    crossing table `crossed` (nonzero at the bytes that cross a pair).

    Only keys whose read bits cross no pair at any offset count: while the
    state crosses no pair, a ring reads one of them.  The call may cross a
    pair iff for one of those keys and some atom of a kind, the mask XOR-ed
    into the key's center byte crosses a pair (a ring flips only its kind's
    fields, and reads every one of them at its center).
    """
    n_bg = int(np.searchsorted(edges, b_bar))
    start = 0
    for (_, reads), atoms in zip(_ring_kinds(tuple(owner), radius), (n_bg, len(edges) - n_bg)):
        masks = table[start:start + (atoms << len(reads))].reshape(atoms, 1 << len(reads))
        start += masks.size
        fine, center = _uncrossed_keys(reads, tuple(pairs))
        if crossed.take(masks[:, fine] ^ center).any():
            return True
    return False


def _rank_lookup(edges):
    """What `_ranks` needs to rank marks on [0, 1) among the sorted `edges`
    without a binary search: U lands in bin int(U * bins), a monotone map
    of U onto 0..bins; `before[bin]` is the number of edges in earlier bins,
    less one; the edges inside the bin (rows of `inside`, padded with inf)
    are compared exactly.  None when edges cluster so that some bin of the
    finest binning still holds more than RANK_ROWS of them: a binary search
    ranks those marks, and the lookup never exceeds RANK_ROWS + 1 rows of
    RANK_BINS + 1 entries."""
    bins = 1024
    while True:
        where = (edges * bins).astype(np.intp)
        per_bin = np.bincount(where, minlength=bins + 1)
        if per_bin.max() <= 1 or bins >= RANK_BINS:
            break
        bins *= 2
    if per_bin.max() > RANK_ROWS:
        return None
    first = np.cumsum(per_bin) - per_bin
    inside = np.full((per_bin.max(), bins + 1), np.inf)
    inside[np.arange(len(edges)) - first[where], where] = edges
    return bins, first - 1, inside


def _ranks(u, edges, lookup):
    """`searchsorted(edges, u, "right") - 1`, by the `_rank_lookup` of edges
    when there is one."""
    if lookup is None:
        return np.searchsorted(edges, u, "right") - 1
    scale, before, inside = lookup
    bins = (u * scale).astype(np.intp)
    rank = before.take(bins)
    for row in inside:
        rank += u >= row.take(bins)
    return rank


def _site_atoms(edges, n):
    """Split [0, 1) among the (site, atom) pairs of a ring on n sites whose
    atoms are cut by the sorted `edges` (the last at the clock rate lam > 0).

    Site x and atom k get [(x*lam + edges[k]) / (n*lam), the next start),
    one nth of a site's atoms shrunk into the site's nth of [0, 1), so one
    uniform V ranked among the starts picks a site uniformly and its atom
    with probability (edges[k+1] - edges[k]) / lam.  The starts are made
    nondecreasing (float rounding at a site's end could step back), and a
    start equal to the next one is dropped: an atom that collapses in floats
    goes to the later (x, k).  Returns (starts, site, atom), one entry per
    kept pair."""
    lam, n_atoms = edges[-1], len(edges) - 1
    site = np.repeat(np.arange(n), n_atoms)
    atom = np.tile(np.arange(n_atoms), n)
    starts = np.maximum.accumulate((site * lam + edges.take(atom)) / (n * lam))
    keep = np.append(starts[1:] != starts[:-1], True)
    return starts[keep], site[keep], atom[keep]


def _holds_words(n_fields, n, ranks, rings):
    """Whether a `_lockstep` call holds n sites of n_fields bits as one word
    (a replica's window for `_word_table`, a ring's slots for
    `_neighbourhood_table`): they fit 16 bits, and the tables, an entry per
    rank and word, hold no more than TABLE_CAP or the `rings` it expects.
    `coupling.batch_simulate_pair` asks with its 2n slots as ranks and 2n
    per replica as rings: at least as many replicas as words."""
    bits = n_fields * n
    return bits <= 16 and ranks << bits <= min(TABLE_CAP, rings)


def _to_words(body, n_fields):
    """Each replica's site bytes, a row of `body`, as one word: bits
    n_fields*x.. hold site x's byte."""
    words = np.zeros(len(body), dtype=np.uint16)
    for x in range(body.shape[1]):
        words |= body[:, x].astype(np.uint16) << n_fields * x
    return words


def _site_bytes(words, n_fields, n):
    """The site bytes of `_to_words` words, one row per word."""
    body = np.empty((len(words), n), dtype=np.uint8)
    for x in range(n):
        body[:, x] = (words >> n_fields * x) & ((1 << n_fields) - 1)
    return body


def _padded_words(edge, n_fields, n):
    """The padded rows of every word of n sites of n_fields bits, bits
    n_fields*x.. holding site x's byte: shape (n + len(edge), 2^(n_fields*n)),
    column w word w's site bytes with the halo bytes `edge` on either side."""
    word = np.arange(1 << n_fields * n, dtype=np.uint16)
    halo = len(edge) // 2
    padded = np.empty((n + len(edge), len(word)), dtype=np.uint8)
    padded[:halo] = edge[:halo, None]
    padded[halo + n:] = edge[halo:, None]
    padded[halo:halo + n] = _site_bytes(word, n_fields, n).T
    return padded


def _slot_masks(table, lut, rows, slot_bytes):
    """The joint-table masks of rings whose slot s reads `slot_bytes[s]` by
    the key rows `rows[s]` (`_joint_table`), a row per rank or atom."""
    shares = (lut.take(b + row[:, None]) for b, row in zip(slot_bytes, rows))
    key = next(shares)
    for share in shares:
        key += share
    return table.take(key)


def _neighbourhood_table(table, lut, rows, n_fields):
    """The joint flip table by neighbourhood words, for key rows `rows[s, atom]`:
    entry (atom << n_fields*slots) + word holds the mask of a ring whose mark
    is in that atom and whose slot s reads the byte at bits n_fields*s.."""
    word = np.arange(1 << n_fields * len(rows))
    return _slot_masks(table, lut, rows, _site_bytes(word, n_fields, len(rows)).T).ravel()


def _word_table(table, lut, rows_of, cols_of, site, edge, n_fields, n):
    """Transition tables of a `_lockstep` call whose whole window, n sites of
    n_fields bits, is one word: bits n_fields*x.. hold site x's byte.

    A ring of rank k (`_site_atoms`) reads its key from the padded row of
    the word, the frozen halo bytes `edge` on either side of the sites, as
    the byte path does: the bytes at gather columns `cols_of[:, k]` through
    `lut` and key rows `rows_of[:, k]`, then its mask from the joint table.
    Entry (k << n_fields*n) + word of the flat tables holds the word after
    the ring and its mask."""
    word = np.arange(1 << n_fields * n, dtype=np.uint16)
    padded = _padded_words(edge, n_fields, n)
    # flat indices stay below TABLE_CAP: 32 bits hold them, and take them faster
    lut, rows_of = lut.astype(np.int32), rows_of.astype(np.int32)
    mask = _slot_masks(table, lut, rows_of, (padded.take(cols, axis=0) for cols in cols_of))
    step = (mask.astype(np.uint16) << (n_fields * site).astype(np.uint16)[:, None]) ^ word
    return step.ravel(), mask.ravel()


def _schedule(rng, grid, rate, replicas, starts, lookup):
    """The rings of a `_lockstep` call, drawn without its state: per grid
    time, (counts, order, blocks).

    Per grid interval each replica gets a Poisson number `counts` of rings of
    its clock of rate `rate` (a rate of 0 draws nothing), and step j applies
    ring j of every replica with more than j rings; `order` lists the replicas
    by decreasing count, so those active at step j are a prefix of it.  A step
    of more than BLOCK_RINGS rings is cut into pieces of BLOCK_RINGS (its
    rings fall on distinct replicas, so the pieces apply independently), and
    consecutive pieces are packed into blocks of at most BLOCK_RINGS rings.
    `blocks` yields per block its pieces (lo, hi), rows lo..hi-1 in that
    order, and the ranks (`_ranks`) among `starts` of its rings' doubles V on
    [0, 1), one each (`rng.random`, in step order), which pick a ring's site
    and the atom of its mark (`_site_atoms`).  An interval's blocks are drawn
    as they are read, all before the next interval's counts, so RNG use
    depends only on (seed, grid, Poisson counts); `rng.random` draws the same
    doubles in any chunks.  BLOCK_RINGS = 16384 keeps a block's temporaries
    within a 2 MiB L2 cache while its dozen-odd numpy calls cost little per
    ring; 4096 paid them four times as often, and 32768 measured slower.
    """

    def blocks(active):
        pieces, size = [], 0
        for a in active.tolist():
            for lo in range(0, a, BLOCK_RINGS):
                hi = min(a, lo + BLOCK_RINGS)
                if size + hi - lo > BLOCK_RINGS:
                    yield pieces, _ranks(rng.random(size), starts, lookup)
                    pieces, size = [], 0
                pieces.append((lo, hi))
                size += hi - lo
        if pieces:
            yield pieces, _ranks(rng.random(size), starts, lookup)

    for t_prev, t in zip([0.0, *grid], grid):
        counts = rng.poisson(rate * (t - t_prev), replicas)
        n_steps = int(counts.max(initial=0))
        # in the smallest type that holds them: numpy radix-sorts keys of at most 16 bits
        order = np.argsort((n_steps - counts).astype(np.min_scalar_type(n_steps)), kind="stable")
        yield counts, order, blocks(replicas - np.cumsum(np.bincount(counts, minlength=n_steps))[:n_steps])


# _CROSSING[p, q]: per packed byte, bit p set and bit q clear
_CROSSING = (np.arange(256) >> np.arange(8)[:, None, None]) & ~(np.arange(256) >> np.arange(8)[:, None]) & 1 > 0
_CROSSING.flags.writeable = False

# the most `_lockstep` shapes whose tables `_plan` keeps
PLANS = 8


@lru_cache(maxsize=PLANS)
def _plan(pair, env, n, owner):
    """The read-only tables of a `_lockstep` shape: spin tables `pair`,
    background table `env`, size n, group backgrounds `owner` (a tuple).
    Returns (edges, table, lut, key_rows) of `_joint_table`, (starts, site,
    atom) of `_site_atoms`, the `_rank_lookup` of the starts, the key rows
    by rank and `spin_rank`, nonzero at spin rings' ranks; the last six are
    None on a clock of rate 0.  A TABLE_CAP refusal is not kept."""
    spec = ModelSpec(pair, env, n)
    consts = dominating_rates(spec)
    lam = consts.b_bar + consts.c_hat
    edges, table, lut, key_rows = _joint_table(
        _windows(spec, consts), owner, env.range, consts.b_bar, lam, max(1, env.range)
    )
    starts = site = atom = lookup = rows_of = spin_rank = None
    if lam > 0:  # a clock of rate 0 never rings
        starts, site, atom = _site_atoms(edges, n)
        lookup = _rank_lookup(starts)
        rows_of = key_rows.take(atom, axis=1)
        # slot 0 is not the center: its row is 0 exactly for background rings
        spin_rank = rows_of[0] != 0
    arrays = (edges, table, lut, key_rows, starts, site, atom, rows_of, spin_rank, *(lookup or ())[1:])
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return edges, table, lut, key_rows, starts, site, atom, lookup, rows_of, spin_rank


def _lockstep(spec, groups, names, t_grid, replicas, seed, check_order):
    """Run `replicas` copies of G groups of (background, spin layers) in lockstep.

    `groups` holds (background start, [spin layer starts]) per group and
    `names` names every field, group by group, background first.  A start
    is a Configuration, the same in every replica, or a pair (bits of shape
    (replicas, n), boundary); `_field_rows` gives the one padded row of a
    Configuration.  The fields' rows are packed by broadcasting into one
    row, or one per replica when some field is given per replica, and the
    start's census of packed bytes, its frozen halo bytes and its words are
    read from those rows: set-up scales with the distinct starts, not with
    the replicas.  The first interval's `take` makes a row per replica, and
    the output does not depend on which form a start is given in.  Its inputs
    are checked before anything is built or drawn.  The rings come from `_schedule`: a ring's
    rank gives its site x and the atom of its mark U on [0, b_bar + c_hat),
    and U < b_bar rings every background at x with mark U, otherwise every
    spin layer reads U - b_bar against its own group's background.  The pairs
    of `initially_ordered_pairs`, per kind, whose backgrounds start ordered
    are kept ordered: the call decides once, by its crossing table `crossed`,
    whether any ring can cross one (`_may_cross` on the joint table, and the
    frozen halo columns), and only then looks up every ring's new byte in
    `crossed`; the first that crosses a pair raises OrderViolationError,
    naming the first pair it crosses, as `evolve` does.

    One loop drives either path's apply step: per interval it moves the rows
    (one `take`) into the schedule's order, so every step reads and writes a
    prefix of the rows; per block the apply step returns per ring a flag,
    nonzero for a spin ring, and the XOR mask, by which the loop counts
    background rings and flips (field f's as nonzero `mask & (1 << f)`, null
    rings as the events less the nonzero masks).  On the byte path a
    replica-site holds its fields in one byte, bit f for field f; a ring
    gathers the bytes at x - halo..x + halo, turns them into its key by one
    lookup per slot (the center slot's row adds the offset of U's atom), and
    reads the mask of the fields that flip from the joint flip table of
    `_joint_table`, by key rows and gather columns laid out per (site, atom)
    pair of `_site_atoms`.  When `_holds_words` accepts its
    2*halo + 1 slots with the atoms as ranks, a ring instead packs its bytes
    below its atom into one word, slot s at bits n_fields*s.., and takes its
    mask from `_neighbourhood_table`; the keyings share all else.

    When no ring is checked and `_holds_words` accepts the call
    (n_fields*n <= 16 bits, and tables of at most TABLE_CAP entries and no
    more than the expected rings lam*n*t*replicas), each replica is instead
    one word, bits n_fields*x.. holding site x's byte, and a ring adds its
    word to its rank's offset and takes its next word and its mask from the
    tables of `_word_table`.  There is no gather and no scatter, and the
    schedule and counters are those of the byte path: outputs are
    byte-identical on either path.

    What the shape determines is built once and kept (`_plan`), keyed by the
    spin and background tables (which fix the halo), the size and the
    fields' owners: the joint table, its lut and key rows, the (site, atom)
    starts and their rank lookup, the key rows by rank and the spin ranks,
    read-only, for the last PLANS shapes.  A plan holds at most TABLE_CAP
    bytes of joint table, about 1.5 MiB of rank lookup, 2 KiB per lut row
    (2*slots + one per edge) and 8*slots + 25 bytes per (site, atom) pair;
    the benchmark's shapes hold about 60 KB each.  What a start determines
    stays per call: the field rows, their census, the ordered pairs and
    `crossed`, the gather columns (a ring wraps, or reads frozen words, by
    the start's boundary) and the frozen halo bytes.  So do the order
    proof, which reads the pairs and `crossed`, and the word and
    neighbourhood tables, which a call builds only when its expected rings
    outnumber their entries.

    Returns the grid times, per grid time the in-window bits of every field,
    and the counters of `BatchResult`.
    """
    replicas = _count("replicas", replicas, 1)
    grid = [_finite_nonnegative("t_grid times", float(t)) for t in t_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be nondecreasing and nonnegative")
    consts = dominating_rates(spec)
    n, radius = spec.size, spec.env.range
    b_bar, c_hat = consts.b_bar, consts.c_hat
    lam = b_bar + c_hat
    expected = _expected_events(lam * n, grid[-1] if grid else 0.0, "lower the t_grid times")
    halo = max(1, radius)
    width = n + 2 * halo

    inits, owner = [], []
    for beta0, layers in groups:
        owner += [len(inits)] * (1 + len(layers))
        inits += [beta0, *layers]
    n_fields = len(inits)
    if n_fields > 8:
        raise ValueError("%d fields do not fit the 8 bits of a packed site" % n_fields)
    edges, table, lut, key_rows, starts, site, atom, lookup, rows_of, spin_rank = _plan(
        spec.spin, spec.env, n, tuple(owner)
    )

    # one row while every field starts alike in all replicas, else one per replica
    state = np.zeros((1, width), dtype=np.uint8)
    boundaries = []
    for f, start in enumerate(inits):
        rows, boundary = _field_rows(start, replicas, halo)
        _start_size(names[f], rows.shape[1] - 2 * halo, n)
        state = state | rows.view(np.uint8) << f
        boundaries.append(boundary)
    if len({isinstance(b, Periodic) for b in boundaries}) > 1:
        raise ValueError("fields mix periodic and frozen boundaries")

    # which packed bytes some replica-site of the start holds (an indexed
    # store converts the indices in small buffers, so no replica-sized
    # temporary): field p starts below field q iff none of them crosses (p, q)
    present = np.zeros(256, dtype=bool)
    present[state[:, halo:halo + n]] = True

    def below(p, q):
        return not present[_CROSSING[p, q]].any()

    # background pairs, then spin pairs, of fields whose backgrounds start ordered
    kinds = ([f for f in range(n_fields) if owner[f] == f], [f for f in range(n_fields) if owner[f] != f])
    pairs = [
        (kind[i], kind[j]) for kind in kinds for i, j in initially_ordered_pairs(kind, below)
        if below(owner[kind[i]], owner[kind[j]])
    ] if check_order else []
    # per packed byte, 1 + the index of the first pair it crosses (0: none)
    crossed = np.zeros(256, dtype=np.uint8)
    for k, (p, q) in reversed(list(enumerate(pairs))):
        crossed[_CROSSING[p, q]] = k + 1
    # every body byte starts uncrossed and a ring writes only its center, so
    # rings need checking only if the table may cross a pair or the halo
    # columns (the same in every row, and never written) cross one
    edge = np.concatenate([state[:1, :halo], state[:1, halo + n:]], axis=1)
    check = bool(pairs) and (
        _may_cross(table, edges, b_bar, owner, radius, pairs, crossed) or bool(crossed.take(edge).any())
    )

    if lam > 0:  # a clock of rate 0 never rings
        # gather columns by the rank of a ring's V, through the start's boundary
        cols_of = _site_columns(boundaries[0], n, halo, halo).T.take(site, axis=1)
    # only the byte path checks rings, so a checked call keeps to it
    if lam > 0 and not check and _holds_words(n_fields, n, len(starts), expected * replicas):
        step_of, mask_of = _word_table(table, lut, rows_of, cols_of, site, edge[0], n_fields, n)
        state = _to_words(state[:, halo:halo + n], n_fields)
        window = partial(_site_bytes, n_fields=n_fields, n=n)

        def apply(words, pieces, rank):
            spin = spin_rank.take(rank)
            # each ring's flat table index, (rank << n_fields*n) + its word
            rank <<= n_fields * n
            i = 0
            for lo, hi in pieces:
                j = i + hi - lo
                rank[i:j] += words[lo:hi]
                step_of.take(rank[i:j], out=words[lo:hi], mode="clip")
                i = j
            return mask_of.take(rank), spin
    else:
        base = np.arange(replicas) * width
        slots = 2 * halo + 1

        def window(rows):
            return np.ascontiguousarray(rows[:, halo:halo + n])

        if lam > 0 and _holds_words(n_fields, slots, key_rows.shape[1], expected * replicas):
            by_word = _neighbourhood_table(table, lut, key_rows, n_fields)
            keys_of = (atom << n_fields).take

            def masks(b, key, out):
                # key: the ring's atom << n_fields; its slots' bytes go below, slot 0 lowest
                for s in range(slots - 1, 0, -1):
                    key |= b[s]
                    key <<= n_fields
                key |= b[0]
                by_word.take(key, out=out, mode="clip")
        else:
            def keys_of(rank):
                return rows_of.take(rank, axis=1)

            def masks(b, rows, out):
                # in-range keys: "clip" spares take's buffered bounds check
                table.take(np.add.reduce(lut.take(b + rows)), out=out, mode="clip")

        def apply(state, pieces, rank):
            flat = state.reshape(-1)
            gather = cols_of.take(rank, axis=1)
            gather += np.concatenate([base[lo:hi] for lo, hi in pieces])
            keys = keys_of(rank)
            mask = np.empty(len(rank), dtype=np.uint8)
            new = np.empty(len(rank), dtype=np.uint8)
            i = 0
            for lo, hi in pieces:
                j = i + hi - lo
                b = flat.take(gather[:, i:j])
                masks(b, keys[..., i:j], mask[i:j])
                np.bitwise_xor(b[halo], mask[i:j], out=new[i:j])
                flat[gather[halo, i:j]] = new[i:j]
                i = j
            if check:
                hit = crossed.take(new)
                if hit.any():
                    p, q = pairs[hit[hit > 0][0] - 1]
                    raise OrderViolationError("%s and %s crossed in a lockstep step" % (names[p], names[q]))
            return mask, spin_rank.take(rank)

    snaps = []
    # per field the rings that flip it, and the rings that flip something
    flips = [0] * n_fields
    steps = events = bg_rings = flipped = 0
    # replica r sits in row at[r] of `state`: all in row 0 of a one-row start
    # until the first interval's `take` makes a row per replica
    at = np.arange(replicas) % len(state)
    for counts, order, blocks in _schedule(np.random.default_rng(seed), grid, lam * n, replicas, starts, lookup):
        state = state.take(at.take(order), axis=0)
        at[order] = np.arange(replicas)
        steps += int(counts.max(initial=0))
        events += int(counts.sum())
        for pieces, rank in blocks:
            # per ring its XOR mask, and nonzero for a spin ring
            mask, spin = apply(state, pieces, rank)
            bg_rings += len(rank) - int(np.count_nonzero(spin))
            flipped += int(np.count_nonzero(mask))
            for f in range(n_fields):
                flips[f] += int(np.count_nonzero(mask & (1 << f)))
            del rank, mask, spin  # held into the next block's draw, they would raise peak RSS
        body = window(state.take(at, axis=0))
        snaps.append([((body >> f) & 1).view(np.int8) for f in range(n_fields)])

    counters = dict(steps=steps, events=events, background_rings=bg_rings, spin_rings=events - bg_rings,
                    null_rings=events - flipped, flips=dict(zip(names, flips)), order_checks=len(pairs) * events)
    return grid, snaps, counters


def batch_evolve(
    spec: ModelSpec,
    beta0: Configuration,
    spin_layers,
    t_grid,
    replicas,
    seed,
    check_order=True,
):
    """Run `replicas` copies of one background and its spin layers in
    lockstep, one group of `_lockstep`.

    `beta0` and each layer are a Configuration tiled over replicas or a pair
    (bits of shape (replicas, n), boundary).  The layers share the background
    and every mark: the maximal monotone coupling.  Returns in-window
    snapshots at each grid time.  With `check_order`, every pair of layers
    that starts ordered is kept ordered at each ring (checked there unless
    the call's order proof rules a crossing out), and a crossing raises
    OrderViolationError.
    """
    names = ["beta"] + ["layer%d" % k for k in range(len(spin_layers))]
    times, snaps, counters = _lockstep(
        spec, [(beta0, list(spin_layers))], names, t_grid, replicas, seed, check_order
    )
    return BatchResult(
        times=times,
        background=[s[0] for s in snaps],
        layers=[s[1:] for s in snaps],
        order_violations=0,
        counters=counters,
    )


def batch_envelope(spec: ModelSpec, t_grid, replicas, seed):
    """Coupled replicas of the two extreme joint starts (all zeros, all ones):
    two groups of `_lockstep`, each one (background, spin) pair.

    Compatibility and attractivity nest the acceptance windows across the two
    spin tables, so the pair order (background and spin alike) holds even
    while the backgrounds disagree; it is kept at every ring, and a
    crossing raises OrderViolationError.  Each pair alone evolves with the
    exact model rates.  Returns (times, per grid time (beta_lo, eta_lo,
    beta_hi, eta_hi), violations), the last always 0.
    """
    n = spec.size
    groups = [
        (Configuration.all_zero(n, spec.env_boundary), [Configuration.all_zero(n, spec.spin_boundary)]),
        (Configuration.all_one(n, spec.env_boundary), [Configuration.all_one(n, spec.spin_boundary)]),
    ]
    names = ("beta_lo", "eta_lo", "beta_hi", "eta_hi")
    times, snaps, _ = _lockstep(spec, groups, names, t_grid, replicas, seed, True)
    return times, [tuple(s) for s in snaps], 0
