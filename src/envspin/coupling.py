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

import numpy as np

from .lattice import (
    Configuration,
    FrozenWords,
    JointState,
    MutableWindow,
    Periodic,
    layer_names,
    leq,
    neighborhood,
    order_pairs,
)
from .graphical import Event, OrderViolationError, Trajectory, _field_rows, _site_columns, exact_table
from .rates import ModelSpec, ModelViolationError


@dataclass(frozen=True)
class CoupledSpec:
    """A base model plus the number of spin layers evolved jointly (1, 3 or 4)."""

    base: ModelSpec
    arity: int = 3

    def __post_init__(self):
        if self.arity not in (1, 2, 3, 4):
            raise ValueError("arity must be 1, 2, 3 or 4")

    @property
    def names(self):
        return layer_names(self.arity)


def spin_flip_groups(pair, background_bit, windows, pairs, exact=True):
    """Joint spin transitions as (frozenset of layer indices, rate).

    `windows` holds each layer's 3-bit neighborhood word; `pairs` lists the
    (i, j) layer orderings that the caller guarantees (layer_i <= layer_j).
    Comparable layers whose rate values contradict monotonicity make some
    tabulated rate negative; that raises ModelViolationError naming the
    failed inequality rather than silently re-sorting.
    """
    ctab = pair.table(background_bit)
    centers = [int(w[1]) for w in windows]
    if exact:
        num = Fraction
        table = exact_table(ctab.values)
        cvals = [table[int(w, 2)] for w in windows]
    else:
        num = float
        cvals = [ctab.rate_word(w) for w in windows]

    for i, j in pairs:
        if centers[i] == 0 and centers[j] == 0 and cvals[i] > cvals[j]:
            raise ModelViolationError(
                "attractivity failed: c%d(%s)=%s > c%d(%s)=%s with ordered center-0 layers"
                % (background_bit, windows[i], cvals[i], background_bit, windows[j], cvals[j])
            )
        if centers[i] == 1 and centers[j] == 1 and cvals[i] < cvals[j]:
            raise ModelViolationError(
                "attractivity failed: c%d(%s)=%s < c%d(%s)=%s with ordered center-1 layers"
                % (background_bit, windows[i], cvals[i], background_bit, windows[j], cvals[j])
            )

    out = []
    for wanted in (0, 1):
        group = sorted(
            (k for k in range(len(windows)) if centers[k] == wanted),
            key=lambda k: (cvals[k], k),
        )
        prev = num(0)
        while group:
            value = cvals[group[0]]
            if value > prev:
                out.append((frozenset(group), value - prev))
                prev = value
            group = [k for k in group if cvals[k] > value]
    return out


def coupled_event_rates(spec: ModelSpec, state: JointState, x):
    """All transitions available at site x: joint spin flips per the coupling
    rule plus the lone background flip.  Keys are the target local states
    (background bit first, then each layer's new center); rates are exact
    Fractions and zero-rate targets are omitted."""
    n_layers = len(state.layers)
    windows = [neighborhood(layer, x, 1) for layer in state.layers]
    bit = state.beta[x]
    centers = tuple(int(w[1]) for w in windows)
    out = {}
    for flips, rate in spin_flip_groups(
        spec.spin, bit, windows, order_pairs(n_layers), exact=True
    ):
        target = (bit,) + tuple(
            1 - centers[k] if k in flips else centers[k] for k in range(n_layers)
        )
        out[target] = rate
    b = Fraction(spec.env.rate_word(neighborhood(state.beta, x, spec.env.range)))
    if b > 0:
        out[(1 - bit,) + centers] = b
    return out


def simulate_coupled(
    cspec,
    initial: JointState,
    seed,
    t_max,
    assert_order=True,
    watch_class=False,
) -> Trajectory:
    """Direct stochastic simulation of the coupled chain.

    Holding times are exponential in the total rate over sites; the jump is
    drawn categorically among every site's transitions.  A flip at x only
    perturbs rates within one interaction radius, so only those sites are
    recomputed.  With `watch_class`, the agreement memberships of an ordered
    triple are tracked after every event: full-agreement memberships must
    persist, an interface class may only collapse into full agreement, and
    leaving the union entirely raises.
    """
    spec = cspec.base if isinstance(cspec, CoupledSpec) else cspec
    names = initial.names
    n = spec.size
    radius = max(1, spec.env.range)
    rng = np.random.default_rng(seed)

    beta = MutableWindow(initial.beta)
    layers = [MutableWindow(cfg) for cfg in initial.layers]
    pairs = order_pairs(len(layers))

    def local_state():
        return JointState(
            beta.to_configuration(),
            tuple(l.to_configuration() for l in layers),
            names,
        )

    def site_menu(x):
        state = local_state()
        menu = coupled_event_rates(spec, state, x)
        return [(target, float(rate)) for target, rate in menu.items()]

    menus = [site_menu(x) for x in range(n)]
    totals = np.array([sum(r for _, r in menu) for menu in menus])
    current = agreement_memberships(*initial.layers) if watch_class else None

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
            if assert_order:
                for a, b in pairs:
                    if layers[a].bits[x] > layers[b].bits[x]:
                        raise OrderViolationError(
                            "layers %s and %s crossed at site %d" % (names[a], names[b], x)
                        )
        if watch_class:
            now = agreement_memberships(*(l.to_configuration() for l in layers))
            # full-agreement memberships are absorbing; an interface class may
            # only collapse into full agreement, never cross to the mirror
            # interface class or fall out of the union
            bad = (
                "NONE" in now
                or ("A1" in current and "A1" not in now)
                or ("A2" in current and "A2" not in now)
                or (current == {"A3"} and "A4" in now)
                or (current == {"A4"} and "A3" in now)
            )
            if bad:
                raise AssertionError(
                    "agreement classes moved %s -> %s at t=%r"
                    % (sorted(current), sorted(now), t)
                )
            current = now
        for y in range(x - radius, x + radius + 1):
            if isinstance(beta.boundary, Periodic):
                y %= n
            elif not 0 <= y < n:
                continue
            menus[y] = site_menu(y)
            totals[y] = sum(r for _, r in menus[y])

    final_state = local_state()
    initial_dict = {"beta": initial.beta}
    initial_dict.update(zip(names, initial.layers))
    final_dict = {"beta": final_state.beta}
    final_dict.update(zip(names, final_state.layers))
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


def agreement_memberships(lower, middle, upper) -> frozenset:
    """Which agreement classes the ordered triple belongs to.

    The result is a singleton except for the fully coalesced state (no
    disagreement sites at all), which lies in both full-agreement classes.
    """
    if not (leq(lower, middle) and leq(middle, upper)):
        raise ValueError("layers must satisfy lower <= middle <= upper")
    lo_w, mid_w, up_w = MutableWindow(lower), MutableWindow(middle), MutableWindow(upper)
    positions = [
        p for p in _extended_positions(lower) if lo_w.value(p) == 0 and up_w.value(p) == 1
    ]
    seq = [mid_w.value(p) for p in positions]
    if not seq:
        return frozenset({"A1", "A2"})
    if all(v == 0 for v in seq):
        return frozenset({"A1"})
    if all(v == 1 for v in seq):
        return frozenset({"A2"})
    if all(a <= b for a, b in zip(seq, seq[1:])):
        return frozenset({"A3"})
    if all(a >= b for a, b in zip(seq, seq[1:])):
        return frozenset({"A4"})
    return frozenset({"NONE"})


def classify_agreement(lower, middle, upper) -> AgreementClass:
    """Classify an ordered triple by the middle layer's agreement pattern.

    Only disagreement sites (lower 0, upper 1) matter: elsewhere the middle
    layer is pinned.  Frozen boundary words take part in the scan; on a ring
    the window is read left to right, which makes A3/A4 a windowed notion.
    A state with no disagreement at all is reported as A1.
    """
    kinds = agreement_memberships(lower, middle, upper)
    if "A1" in kinds:
        return AgreementClass("A1")
    if "A2" in kinds:
        return AgreementClass("A2")
    lo_w, mid_w, up_w = MutableWindow(lower), MutableWindow(middle), MutableWindow(upper)
    positions = [
        p for p in _extended_positions(lower) if lo_w.value(p) == 0 and up_w.value(p) == 1
    ]
    seq = [mid_w.value(p) for p in positions]
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
    frozen_done = np.zeros(replicas, dtype=bool)

    while True:
        bg_rates = btab[B[:, b_cols] @ b_weights]
        sp_rates = ctab2[B[:, halo:halo + n], E[:, e_cols] @ e_weights]
        rates = np.concatenate([bg_rates, sp_rates], axis=1)
        total = rates.sum(axis=1)
        live = (~frozen_done) & (total > 0)
        if not live.any():
            break
        draws = rng.exponential(1.0, replicas)
        clock = np.where(live, clock + draws / np.maximum(total, 1e-300), clock)
        passed = clock > t
        frozen_done |= passed | (total <= 0)
        act = live & ~passed
        if not act.any():
            break
        u = rng.uniform(0.0, 1.0, replicas) * total
        cum = np.cumsum(rates, axis=1)
        slot = (cum >= u[:, None]).argmax(axis=1)
        rows = np.nonzero(act)[0]
        cols = halo + slot[rows] % n
        bg = slot[rows] < n
        B[rows[bg], cols[bg]] ^= 1
        E[rows[~bg], cols[~bg]] ^= 1

    return B[:, halo:halo + n].copy(), E[:, halo:halo + n].copy()
