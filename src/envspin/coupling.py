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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import (
    Configuration,
    FrozenWords,
    JointState,
    MutableWindow,
    Periodic,
    _field_rows,
    _site_columns,
    leq,
    order_pairs,
    site_value,
    word_index,
)
from .graphical import Event, OrderViolationError, Trajectory, exact_table
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


@lru_cache(maxsize=4096)
def _float_menu(pair, env, env_word, layer_words):
    """`site_menu` with float rates, and their total, for `simulate_coupled`."""
    menu = tuple((target, float(rate)) for target, rate in site_menu(pair, env, env_word, layer_words))
    return menu, sum(r for _, r in menu)


def simulate_coupled(cspec: CoupledSpec, initial: JointState, seed, t_max) -> Trajectory:
    """Direct stochastic simulation of the coupled chain.

    `initial` must hold `cspec.arity` spin layers.  Holding times are
    exponential in the total rate over sites; the jump is drawn categorically
    among every site's transitions.  A flip at x only perturbs rates within
    one interaction radius, so only those sites are recomputed, each from its
    local words (`site_menu`).  The layer order is checked at every spin
    flip; a crossing raises OrderViolationError.
    """
    if len(initial.layers) != cspec.arity:
        raise ValueError("%d spin layers given for arity %d" % (len(initial.layers), cspec.arity))
    spec = cspec.base
    names = initial.names
    n = spec.size
    pair, env = spec.spin, spec.env
    radius = max(1, env.range)
    rng = np.random.default_rng(seed)

    beta = MutableWindow(initial.beta)
    layers = [MutableWindow(cfg) for cfg in initial.layers]
    pairs = order_pairs(len(layers))

    def menu_at(x):
        return _float_menu(
            pair, env, beta.word_index(x, env.range), tuple(l.word_index(x, 1) for l in layers)
        )

    menus, totals = zip(*(menu_at(x) for x in range(n)))
    menus = list(menus)
    totals = np.array(totals)

    events = []
    t = 0.0
    while True:
        total = float(totals.sum())
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > t_max:
            break
        u = rng.uniform(0.0, total)
        x = 0
        acc = 0.0
        for x in range(n):
            acc += totals[x]
            if u < acc or x == n - 1:
                break
        u -= acc - totals[x]
        target = None
        for tgt, rate in menus[x]:
            if u < rate:
                target = tgt
                break
            u -= rate
        if target is None:
            target = menus[x][-1][0]

        bit = beta.bits[x]
        if target[0] != bit:
            old = beta.bits[x]
            beta.flip(x)
            events.append(Event(float(t), int(x), "beta", old, 1 - old))
        else:
            for k, layer in enumerate(layers):
                new = target[1 + k]
                if layer.bits[x] != new:
                    events.append(Event(float(t), int(x), names[k], layer.bits[x], new))
                    layer.bits[x] = new
            for a, b in pairs:
                if layers[a].bits[x] > layers[b].bits[x]:
                    raise OrderViolationError(
                        "layers %s and %s crossed at site %d" % (names[a], names[b], x)
                    )
        for y in range(x - radius, x + radius + 1):
            if isinstance(beta.boundary, Periodic):
                y %= n
            elif not 0 <= y < n:
                continue
            menus[y], totals[y] = menu_at(y)

    initial_dict = {"beta": initial.beta}
    initial_dict.update(zip(names, initial.layers))
    final_dict = {"beta": beta.to_configuration()}
    final_dict.update(zip(names, (l.to_configuration() for l in layers)))
    return Trajectory(initial=initial_dict, events=events, final=final_dict, t_max=float(t_max))


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
    (background, spin) arrays at time t."""
    n = spec.size
    rng = np.random.default_rng(seed)
    radius = spec.env.range
    halo = max(1, radius)
    B, b_boundary = _field_rows(beta0, replicas, halo)
    E, e_boundary = _field_rows(eta0, replicas, halo)
    b_cols = _site_columns(b_boundary, n, halo, radius)
    e_cols = _site_columns(e_boundary, n, halo, 1)
    b_weights = 1 << np.arange(2 * radius, -1, -1)
    e_weights = 1 << np.arange(2, -1, -1)
    btab = spec.env.as_array()
    ctab2 = np.stack([spec.spin.c0.as_array(), spec.spin.c1.as_array()])

    clock = np.zeros(replicas)
    # replicas whose clock has not passed t and whose rates are not all 0;
    # the exponential and uniform draws stay full-length, so the RNG stream
    # does not depend on how many replicas are still running
    alive = np.arange(replicas)

    while True:
        Ba, Ea = B[alive], E[alive]
        bg_rates = btab[Ba[:, b_cols] @ b_weights]
        sp_rates = ctab2[Ba[:, halo:halo + n], Ea[:, e_cols] @ e_weights]
        rates = np.concatenate([bg_rates, sp_rates], axis=1)
        total = rates.sum(axis=1)
        live = total > 0
        if not live.any():
            break
        draws = rng.exponential(1.0, replicas)[alive]
        clock[alive] = np.where(live, clock[alive] + draws / np.maximum(total, 1e-300), clock[alive])
        passed = clock[alive] > t
        act = live & ~passed
        if not act.any():
            break
        u = rng.uniform(0.0, 1.0, replicas)[alive[act]] * total[act]
        slot = (np.cumsum(rates[act], axis=1) >= u[:, None]).argmax(axis=1)
        rows = alive[act]
        cols = halo + slot % n
        bg = slot < n
        B[rows[bg], cols[bg]] ^= 1
        E[rows[~bg], cols[~bg]] ^= 1
        alive = rows

    return B[:, halo:halo + n].copy(), E[:, halo:halo + n].copy()
