"""Generator-level coupled dynamics for ordered stacks of spin layers.

Independently of the mark-based construction, the joint flip rates of ordered
layers sharing one clock can be written down directly: among the layers whose
center is 0, the top segment (by rate value) flips up together, with segment
boundaries at the successive rate values; the mirror rule applies to
downward flips.  For a single background state and an ordered triple this
yields twelve explicit off-diagonal rates per site; the same rule extends to
the four-layer stack used to compare two middle layers at once.

`simulate_coupled` runs the resulting continuous-time chain by direct
stochastic simulation (exponential holding times, categorical jumps), a code
path fully independent of the mark-driven simulator in `graphical`.

A site's local words travel as one packed key, the background's (2R+1)-bit
word and then each spin layer's 3-bit word, most significant bit first:
`_key_columns` and `_fold_keys` build the keys of the exact oracle and of
both direct simulators, and `_float_menu` alone decodes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress

import numpy as np

from .lattice import (
    Configuration,
    FrozenWords,
    JointState,
    _count,
    _field_rows,
    _finite_nonnegative,
    _site_columns,
    _start_size,
    layer_names,
    leq,
    order_pairs,
    site_value,
    word_index,
)
from . import graphical
from .graphical import Event, OrderViolationError, Trajectory, _expected_events, exact_table
from .rates import EnvRateSpec, ModelSpec, ModelViolationError, SpinRatePair


@dataclass(frozen=True)
class CoupledSpec:
    """A base model plus the number of spin layers evolved jointly (1 to 4)."""

    base: ModelSpec
    arity: int = 3

    def __post_init__(self):
        if self.arity not in (1, 2, 3, 4):
            raise ValueError("arity must be 1, 2, 3 or 4")


@lru_cache(maxsize=4096)
def site_menu(pair: SpinRatePair, env: EnvRateSpec, env_word, layer_words):
    """All transitions at one site, from its local words alone.

    `env_word` is the background's (2*range+1)-bit word around the site and
    `layer_words` holds each spin layer's 3-bit word, as the integers that
    `lattice.word_index` builds (site x - radius the most significant bit);
    the layers are ordered as `lattice.order_pairs` says.  Returns a tuple
    of (target, rate): joint spin flips, then the lone background flip; a
    target is the new local state (background bit first, then each layer's
    new center) and rates are exact Fractions, zero-rate targets omitted.

    Spin flips follow the segment rule: among the layers whose center is 0,
    sorted by rate, the layers at or above each successive rate value flip
    up together at the increment over the previous value; the same for
    center 1 and down-flips.  Ordered layers whose rates contradict
    monotonicity would make some increment negative; that raises
    ModelViolationError naming the failed inequality rather than silently
    re-sorting.  Results are cached; a ModelViolationError is not, so it is
    raised on every call.
    """
    bit = (env_word >> env.range) & 1
    table = exact_table(pair.table(bit).values)
    centers = tuple((w >> 1) & 1 for w in layer_words)
    cvals = [table[w] for w in layer_words]

    for i, j in order_pairs(len(layer_words)):
        if centers[i] == 0 and centers[j] == 0 and cvals[i] > cvals[j]:
            relation = ">"
        elif centers[i] == 1 and centers[j] == 1 and cvals[i] < cvals[j]:
            relation = "<"
        else:
            continue
        raise ModelViolationError(
            "attractivity failed: c%d(%s)=%s %s c%d(%s)=%s with ordered center-%d layers"
            % (bit, format(layer_words[i], "03b"), cvals[i], relation,
               bit, format(layer_words[j], "03b"), cvals[j], centers[i])
        )

    out = []
    for wanted in (0, 1):
        group = sorted(
            (k for k in range(len(layer_words)) if centers[k] == wanted),
            key=lambda k: (cvals[k], k),
        )
        prev = Fraction(0)
        while group:
            value = cvals[group[0]]
            if value > prev:
                out.append(((bit,) + tuple(1 - c if k in group else c for k, c in enumerate(centers)), value - prev))
                prev = value
            group = [k for k in group if cvals[k] > value]
    b = Fraction(env.table[env_word])
    if b > 0:
        out.append(((1 - bit,) + centers, b))
    return tuple(out)


def coupled_event_rates(spec: ModelSpec, state: JointState, x):
    """All transitions available at site x, as a dict from target local state
    (background bit first, then each layer's new center) to exact Fraction
    rate; see `site_menu`."""
    env_word = word_index(state.beta, x, spec.env.range)
    layer_words = tuple(word_index(layer, x, 1) for layer in state.layers)
    return dict(site_menu(spec.spin, spec.env, env_word, layer_words))


def _key_columns(boundaries, n, env_range):
    """The padded-row columns that every site's packed local key reads, one
    row per key bit, most significant first: shape (2R+1 + 3*arity, n).
    Field 0 is the background (its (2R+1)-bit word) and field 1 + k spin
    layer k (its 3-bit word), each with its boundary; the columns index the
    fields' `_field_rows` rows, halo max(1, R), laid end to end."""
    halo = max(1, env_range)
    return np.concatenate([f * (n + 2 * halo) + _site_columns(b, n, halo, 1 if f else env_range).T
                           for f, b in enumerate(boundaries)])


def _fold_keys(rows, columns):
    """The packed keys that `columns` (`_key_columns`) read from the fields'
    padded uint8 rows laid end to end along axis 0: shape (n,) + rows.shape[1:]."""
    key = rows[columns[0]].astype(np.min_scalar_type((1 << len(columns)) - 1))
    for col in columns[1:]:
        key <<= 1
        key |= rows[col]
    return key


def _float_menu(pair, env, arity, key):
    """`site_menu` at a packed local key (`_key_columns`), with float rates,
    and their total; the one place that splits a key into its words.

    Per target, in `site_menu`'s order: its rate; the flips it makes, as
    (field name, old bit, new bit) in field order; their field mask (bit 0
    the background, bit 1 + k layer k); and, for a spin target, the names of
    the first ordered pair of layers it leaves crossed (None: none).
    """
    env_word = key >> 3 * arity
    words = tuple((key >> 3 * (arity - 1 - k)) & 7 for k in range(arity))
    names = ("beta",) + layer_names(arity)
    old = ((env_word >> env.range) & 1,) + tuple((w >> 1) & 1 for w in words)
    menu = []
    for target, rate in site_menu(pair, env, env_word, words):
        changed = [f for f in range(1 + arity) if old[f] != target[f]]
        crossed = None
        if changed != [0]:
            crossed = next(
                ("layers %s and %s" % (names[1 + a], names[1 + b])
                 for a, b in order_pairs(arity) if target[1 + a] > target[1 + b]),
                None,
            )
        flips = tuple((names[f], old[f], target[f]) for f in changed)
        menu.append((float(rate), flips, sum(1 << f for f in changed), crossed))
    return tuple(menu), sum(entry[0] for entry in menu)


class _FloatMenus(dict):
    """The `_float_menu`s of one (pair, env, arity) by packed local key, each
    made on its first lookup: at most 2^(2R+1)*8^arity entries."""

    def __init__(self, *model):
        self.model = model

    def __missing__(self, key):
        menu = self[key] = _float_menu(*self.model, key)
        return menu


_float_menus = lru_cache(maxsize=16)(_FloatMenus)


@lru_cache(maxsize=256)
def _toggle_table(boundaries, n, env_range):
    """Which packed site keys (`_key_columns`) a flip at a site changes, for
    `simulate_coupled`; field 0 is the background, field 1 + k spin layer k.

    Returns (base, toggles): `base[y]` is site y's key with every field 0 in
    the window (the bits it reads from frozen boundary words), and
    `toggles[mask][x]` lists the pairs (y, key XOR base[y]) of the sites y
    whose keys change when the fields of `mask` (bit f for field f) are set
    at x alone, so flipping those fields at x is `key[y] ^= bits` for each
    pair.  The pairs run over x - radius..x + radius, radius = max(1, R), as
    the background reads them, so of two new keys that break attractivity
    the leftmost raises.
    """
    halo = max(1, env_range)
    columns = _key_columns(boundaries, n, env_range)
    one_site = np.eye(n, dtype=np.int8)

    def keys(mask):
        # row y, column x: site y's key with the fields of `mask` set at x
        rows = [_field_rows((one_site * (mask >> f & 1), b), n, halo)[0].T for f, b in enumerate(boundaries)]
        return _fold_keys(np.concatenate(rows).view(np.uint8), columns)

    base = keys(0)
    near = _site_columns(boundaries[0], n, halo, halo) - halo
    toggles = [None]
    for mask in range(1, 1 << len(boundaries)):
        # [x, i]: site near[x, i]'s key change, 0 past a frozen edge, where no key is
        changed = np.pad(keys(mask) ^ base, ((halo, halo), (0, 0)))[near + halo, np.arange(n)[:, None]]
        toggles.append([tuple({y: bits for y, bits in zip(*pairs) if bits}.items())
                        for pairs in zip(near.tolist(), changed.tolist())])
    return base[:, 0].tolist(), toggles


class _CoupledStart:
    """What a `simulate_coupled` start determines: the `_float_menus` memo,
    the `_toggle_table` toggles, the start's site keys, their menus and site
    totals, the start's total rate, the field names and, per field f and
    site x, the place of the bit of x's key that reads f at x.  Made once
    per distinct (cspec, initial) by `_coupled_start`; a start whose menus
    raise ModelViolationError is not cached, so it raises on every call.
    Hashed by identity, so it keys `_final_fields` cheaply."""

    __slots__ = ("menus_of", "toggles", "keys", "menus", "site_totals", "total", "names", "boundaries", "shifts")

    def __init__(self, cspec, initial):
        spec = cspec.base
        n = spec.size
        _start_size("beta", len(initial.beta), n)
        fields = (initial.beta, *initial.layers)
        self.menus_of = _float_menus(spec.spin, spec.env, cspec.arity)
        self.boundaries = tuple(cfg.boundary for cfg in fields)
        base, self.toggles = _toggle_table(self.boundaries, n, spec.env.range)
        keys = list(base)
        for f, cfg in enumerate(fields):
            for y, bits in chain.from_iterable(compress(self.toggles[1 << f], cfg.bits)):
                keys[y] |= bits
        self.keys = tuple(keys)
        self.menus, self.site_totals = zip(*map(self.menus_of.__getitem__, keys))
        self.total = sum(self.site_totals)
        self.names = ("beta", *initial.names)
        self.shifts = [[dict(self.toggles[1 << f][x])[x].bit_length() - 1 for x in range(n)]
                       for f in range(len(fields))]


_coupled_start = lru_cache(maxsize=64)(_CoupledStart)


@lru_cache(maxsize=1024)
def _final_fields(start, keys):
    """The fields' Configurations at the site keys `keys` (a tuple) of a run
    from `start`."""
    return tuple(Configuration._of_bits(tuple([(k >> s) & 1 for k, s in zip(keys, shifts)]), boundary)
                 for shifts, boundary in zip(start.shifts, start.boundaries))


# the last (cspec, initial, start) of `simulate_coupled`, matched by identity;
# it holds both objects, so their ids are not reused while it is kept
_last_start = None, None, None


def simulate_coupled(cspec: CoupledSpec, initial: JointState, seed, t_max) -> Trajectory:
    """Direct stochastic simulation of the coupled chain.

    `initial` must hold `cspec.arity` spin layers.  Holding times are
    exponential in the total rate over sites; the jump is drawn categorically
    among every site's transitions.  Each site keeps its packed local key
    (`_key_columns`) as an integer, and its float menu comes from the
    `_float_menus` memo by that key.  A flip XORs its bits into the keys of
    the sites that read it (`_toggle_table`), and only those get new menus.
    The draws are those of `exponential(1 / total)` and `uniform(0, total)`.
    The layer order is checked at every spin flip; a crossing raises
    OrderViolationError.  The inputs are checked before anything is drawn.

    What the start determines (its keys, menus and totals, the toggles) is
    made once per distinct (cspec, initial) and kept in a bounded cache
    (`_coupled_start`), and the final Configurations come from a bounded
    cache keyed by the final keys (`_final_fields`): a call costs its
    seeding and its events.  The last start is also kept by identity, since
    hashing (cspec, initial) costs about a fifth of a call at horizon 0.
    Equal starts give equal trajectories, and the trajectory's dicts are new
    on every call.
    """
    if len(initial.layers) != cspec.arity:
        raise ValueError("%d spin layers given for arity %d" % (len(initial.layers), cspec.arity))
    _finite_nonnegative("t_max", t_max)
    global _last_start
    last_cspec, last_initial, start = _last_start
    if cspec is not last_cspec or initial is not last_initial:
        start = _coupled_start(cspec, initial)
        _last_start = cspec, initial, start
    _expected_events(start.total, t_max, "lower t_max", "jumps by t=%r at the start's rate")
    n = cspec.base.size
    menus_of, toggles = start.menus_of, start.toggles
    keys, menus, site_totals = list(start.keys), list(start.menus), list(start.site_totals)

    rng = np.random.default_rng(seed)
    events = []
    t = 0.0
    exponential, uniform = rng.standard_exponential, rng.random
    while True:
        total = sum(site_totals)
        if total <= 0.0:
            break
        t += exponential() * (1.0 / total)
        if t > t_max:
            break
        u = uniform() * total
        acc = 0.0
        for x in range(n):
            acc += site_totals[x]
            if u < acc or x == n - 1:
                break
        u -= acc - site_totals[x]
        menu = menus[x]
        for entry in menu:
            if u < entry[0]:
                break
            u -= entry[0]
        else:
            entry = menu[-1]

        _, flips, mask, crossed = entry
        for name, old, new in flips:
            events.append(Event(t, x, name, old, new))
        if crossed is not None:
            raise OrderViolationError("%s crossed at site %d" % (crossed, x))
        for y, bits in toggles[mask][x]:
            key = keys[y] = keys[y] ^ bits
            menus[y], site_totals[y] = menus_of[key]

    names = start.names
    final = _final_fields(start, tuple(keys))
    return Trajectory(dict(zip(names, (initial.beta, *initial.layers))), events, dict(zip(names, final)), float(t_max))


# ---------------------------------------------------------------------------
# agreement classification


@dataclass(frozen=True)
class AgreementClass:
    """Where the middle layer agrees with the outer two: A1 (= lower
    everywhere), A2 (= upper everywhere), A3/A4 (single interface with
    lower-agreement on one side and upper-agreement on the other), or NONE.
    For A3/A4 `interface` is the last lattice position of the leading
    agreement block among disagreement sites."""

    kind: str
    interface: int = None


def _extended_positions(config: Configuration):
    if isinstance(config.boundary, FrozenWords):
        return range(-len(config.boundary.left), len(config) + len(config.boundary.right))
    return range(len(config))


def _agreement_scan(lower, middle, upper):
    """Disagreement positions (lower 0, upper 1) of an ordered triple, frozen
    boundary words included, the middle layer's values there, and the
    agreement classes those values put the triple in."""
    if not (leq(lower, middle) and leq(middle, upper)):
        raise ValueError("layers must satisfy lower <= middle <= upper")
    positions = [
        p for p in _extended_positions(lower) if site_value(lower, p) == 0 and site_value(upper, p) == 1
    ]
    seq = [site_value(middle, p) for p in positions]
    if not seq:
        kinds = {"A1", "A2"}
    elif all(v == 0 for v in seq):
        kinds = {"A1"}
    elif all(v == 1 for v in seq):
        kinds = {"A2"}
    elif all(a <= b for a, b in zip(seq, seq[1:])):
        kinds = {"A3"}
    elif all(a >= b for a, b in zip(seq, seq[1:])):
        kinds = {"A4"}
    else:
        kinds = {"NONE"}
    return positions, seq, frozenset(kinds)


def classify_agreement(lower, middle, upper) -> AgreementClass:
    """Classify an ordered triple by the middle layer's agreement pattern.

    Only disagreement sites (lower 0, upper 1) matter: elsewhere the middle
    layer is pinned.  Frozen boundary words take part in the scan; on a ring
    the window is read left to right, which makes A3/A4 a windowed notion.
    A state with no disagreement at all is reported as A1.
    """
    positions, seq, kinds = _agreement_scan(lower, middle, upper)
    if "A1" in kinds:
        return AgreementClass("A1")
    if "A2" in kinds:
        return AgreementClass("A2")
    if "A3" in kinds:
        return AgreementClass("A3", interface=max(p for p, v in zip(positions, seq) if v == 0))
    if "A4" in kinds:
        return AgreementClass("A4", interface=max(p for p, v in zip(positions, seq) if v == 1))
    return AgreementClass("NONE")


# ---------------------------------------------------------------------------
# vectorized direct simulation of the (background, spin) pair


def batch_simulate_pair(spec: ModelSpec, beta0, eta0, t, replicas, seed):
    """Many replicas of the plain two-layer chain by true direct simulation:
    per-replica exponential holding times from the summed rates and a
    categorical jump over the 2N per-site transitions.  Returns in-window
    (background, spin) arrays at time t.

    `beta0` and `eta0` are each a Configuration, the same in every replica,
    or a pair (bits of shape (replicas, n), boundary), as for `_lockstep`:
    their `_field_rows` rows are packed by broadcasting into one row, or one
    per replica when either is given per replica, the halo bytes and words
    are read from those rows, and the state gets a column per replica only
    when the run starts.  The output does not depend on the form.

    A site's background and spin flip rates come from `_float_menu` by its
    packed local key (`_key_columns`, `_fold_keys`).  The rates of a replica
    are added slot by slot, background slots first, and the jump is at the
    first slot whose sum reaches a uniform on [0, total).  Every iteration
    draws one exponential and one uniform for each of the `replicas`
    (`standard_exponential`, `random`), so the stream does not depend on how
    many still run; a replica leaves the live arrays once its clock passes t
    or its total rate is 0.

    When `graphical._holds_words` accepts the call (2N <= 16 bits, and at
    least as many replicas as words), each replica is one word, bits 2x and
    2x + 1 holding site x's background and spin, and the slot sums of every
    word are tabled once per call from the padded rows of
    `graphical._padded_words`: an iteration gathers its replicas' totals,
    counts the slots below the uniform one slot row at a time, so no (2N,
    replicas) array is gathered, and XORs in that slot's bit.
    Otherwise the state is one site-major byte array, the background's
    padded columns and then the spin's, by replica, whose keys and sums are
    rebuilt at every iteration.  The sums, and so the draws and the output,
    are bit-identical on either path.

    A replica's total rate is at most N*(b_bar + c_hat), the lockstep
    clock's, so the event budget holds its horizon to that clock's rings, as
    for `graphical._lockstep`; the inputs are checked before anything is drawn.
    """
    replicas = _count("replicas", replicas, 1)
    n = spec.size
    consts = spec.constants()
    _expected_events(n * (consts.b_bar + consts.c_hat), _finite_nonnegative("t", t), "lower t")
    radius = spec.env.range
    halo = max(1, radius)
    B, b_boundary = _field_rows(beta0, replicas, halo)
    E, e_boundary = _field_rows(eta0, replicas, halo)
    _start_size("beta", B.shape[1] - 2 * halo, n)
    _start_size("eta", E.shape[1] - 2 * halo, n)
    rng = np.random.default_rng(seed)
    # one row when both fields start alike in all replicas, else one per replica
    packed = B.view(np.uint8) | E.view(np.uint8) << 1
    width = packed.shape[1]
    columns = _key_columns((b_boundary, e_boundary), n, radius)
    # rate[kind, key]: kind 0 flips the background (field mask 1), kind 1 the spin (mask 2)
    menus = _float_menus(spec.spin, spec.env, 1)
    rate = np.zeros((2, 1 << len(columns)))
    for key in range(rate.shape[1]):
        for r, _, mask, _ in menus[key][0]:
            rate[mask >> 1, key] = r

    def slot_sums(rows):
        """Per slot (background sites, then spin sites), the rates up to it
        at the keys of `rows`, the fields' padded rows laid end to end."""
        key = _fold_keys(rows, columns)
        cum = np.empty((2,) + key.shape)
        for kind in (0, 1):
            rate[kind].take(key, out=cum[kind], mode="clip")
        cum = cum.reshape(2 * n, -1)
        for k in range(1, 2 * n):
            cum[k] += cum[k - 1]
        return cum

    if graphical._holds_words(2, n, 2 * n, 2 * n * replicas):
        padded = graphical._padded_words(np.concatenate([packed[0, :halo], packed[0, halo + n:]]), 2, n)
        table = slot_sums(np.concatenate([padded & 1, padded >> 1]))
        # the word bit each slot flips; slot 2n, past every sum, flips none
        flip = np.append(1 << np.add.outer([0, 1], 2 * np.arange(n)).ravel(), 0).astype(np.uint16)
        state = graphical._to_words(packed[:, halo:halo + n], 2)

        def total_rate(cur):
            return table[-1].take(cur)

        def jump(cur, u):
            # the slot of the jump: the number of slot sums below u, gathered
            # a slot at a time, so no (2n, live) table is made
            slot = np.zeros(len(cur), dtype=np.uint8)
            for sums in table:
                slot += sums.take(cur) < u
            cur ^= flip.take(slot)
    else:
        state = np.concatenate([packed.T & 1, packed.T >> 1])
        # the state row each slot flips: background sites, then spin sites
        slot_rows = np.add.outer([0, width], halo + np.arange(n)).ravel()
        cum = None

        def total_rate(cur):
            nonlocal cum
            cum = slot_sums(cur)
            return cum[-1]

        def jump(cur, u):
            cur[slot_rows] ^= np.diff(cum < u, axis=0, prepend=True)

    live = np.arange(replicas)
    # every replica's start, one column each
    state = state.take(live % len(packed), axis=-1)
    cur = state.copy()
    clock = np.zeros(replicas)
    while True:
        total = total_rate(cur)
        running = total > 0
        if not running.any():
            break
        draws = rng.standard_exponential(replicas)[live]
        clock = clock + draws / np.maximum(total, 1e-300)
        act = running & ~(clock > t)
        if not act.any():
            break
        # the jump is at the first slot whose cumulative rate reaches u; a
        # stopped replica's u = inf reaches none
        u = np.where(act, rng.random(replicas)[live] * total, np.inf)
        jump(cur, u)
        if not act.all():
            state[..., live[~act]] = cur[..., ~act]
            keep = np.flatnonzero(act)
            live, cur, clock = live[keep], cur.take(keep, axis=-1), clock[keep]
    state[..., live] = cur

    if state.ndim == 1:
        body = graphical._site_bytes(state, 2, n)
        return (body & 1).view(np.int8), (body >> 1 & 1).view(np.int8)
    return (
        np.ascontiguousarray(state[halo:halo + n].T).view(np.int8),
        np.ascontiguousarray(state[width + halo:width + halo + n].T).view(np.int8),
    )
