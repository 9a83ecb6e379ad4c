"""Exact finite-state analysis of the joint chain on tiny windows.

States pack the background bits above the spin bits: with N sites and one
spin layer, index = (background_bits << N) | spin_bits, where site 0 is the
most significant bit of each field (so the literal "011" reads as 0b011).
Coupled generators append further layer fields below, one N-bit block each.

Everything here is brute force on purpose: coordinate-format rate matrices
built from the local-word rule `coupling.site_menu` (spin flips come through
`coupling._float_menu`, at the packed local key), stationary laws from closed
communicating classes of the jump graph (found by three least-label
fixpoints over the jump arrays, ascending by least member, and certified by
reachability sweeps independent of that search), long-time limits as
absorption-weighted mixtures of those laws (one dense solve over the
transient states), and time-t laws by uniformization with explicit
truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import _float_menus, _fold_keys, _key_columns
from .graphical import _expected_events
from .lattice import _field_rows, _finite_nonnegative, order_pairs
from .rates import ModelSpec


@dataclass
class GeneratorMatrix:
    """Sparse rate matrix of a finite chain plus its state encoding.

    rows/cols/vals hold the off-diagonal rates (vals > 0); diag holds the
    negative outflows, so every row sums to zero by construction.
    """

    spec: ModelSpec
    n_sites: int
    n_layers: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray

    @property
    def n_fields(self):
        return self.n_layers + 1

    def encode(self, fields):
        """fields: iterable of per-field bit integers, background first."""
        s = 0
        for f in fields:
            s = (s << self.n_sites) | int(f)
        return s

    def decode(self, s):
        mask = (1 << self.n_sites) - 1
        out = []
        for _ in range(self.n_fields):
            out.append(s & mask)
            s >>= self.n_sites
        return tuple(reversed(out))

    def bits_to_int(self, bits):
        out = 0
        for b in bits:
            out = (out << 1) | int(b)
        return out

    def matvec_left(self, p):
        """p @ Q for a row vector p."""
        out = np.bincount(self.cols, weights=p[self.rows] * self.vals, minlength=self.dim)
        return out + p * self.diag

    def dense(self):
        _check_dense(self.dim, "generator")
        Q = np.zeros((self.dim, self.dim))
        np.add.at(Q, (self.rows, self.cols), self.vals)
        Q[np.arange(self.dim), np.arange(self.dim)] += self.diag
        return Q

    def max_row_sum_error(self):
        sums = np.bincount(self.rows, weights=self.vals, minlength=self.dim) + self.diag
        return float(np.abs(sums).max())

    def out_rate(self, s):
        return float(-self.diag[s])

    def point_mass(self, s):
        p = np.zeros(self.dim)
        p[s] = 1.0
        return p

    def to_csv_text(self):
        lines = ["from,to,rate"]
        order = np.lexsort((self.cols, self.rows))
        for k in order:
            lines.append("%d,%d,%r" % (self.rows[k], self.cols[k], self.vals[k]))
        return "\n".join(lines) + "\n"


DENSE_CAP = 4096  # most states of any dense block: a generator, a class, the transient states


def _check_dense(size, what):
    """Refuse a dense `size` x `size` block before it is allocated."""
    if size > DENSE_CAP:
        raise ValueError("%s of %d states exceeds the dense cap of %d states" % (what, size, DENSE_CAP))


def _build(spec: ModelSpec, n_layers) -> GeneratorMatrix:
    """Exact rate matrix of the background and `n_layers` spin layers over the
    full product of their windows.

    The fields' padded rows (`_field_rows`) give every site's packed local key
    for all states at once.  Background flips read the env table in every
    state.  Joint spin flips come from `coupling._float_menu`, once per
    distinct key, in ordered states only: states violating the layer order
    are never entered from ordered ones, so they carry background flips alone.
    """
    n, radius = spec.size, spec.env.range
    dim = 1 << (n * (n_layers + 1))
    idx = np.arange(dim, dtype=np.int64)
    # field values, background first, and their bits, site 0 most significant
    values = (idx[:, None] >> (n * np.arange(n_layers, -1, -1))) & ((1 << n) - 1)
    bits = ((values[:, :, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    boundaries = (spec.env_boundary,) + (spec.spin_boundary,) * n_layers
    padded = np.concatenate([_field_rows((bits[:, f], b), dim, max(1, radius))[0].T for f, b in enumerate(boundaries)])
    env_words = _fold_keys(padded.view(np.uint8), _key_columns(boundaries[:1], n, radius))  # the background alone
    keys = _fold_keys(padded.view(np.uint8), _key_columns(boundaries, n, radius))
    ordered = np.ones(dim, dtype=bool)
    for i, j in order_pairs(n_layers):
        ordered &= (values[:, 1 + i] & ~values[:, 1 + j]) == 0
    states = idx[ordered]
    btab = spec.env.as_array()
    menus = _float_menus(spec.spin, spec.env, n_layers)

    rows, cols, vals = [], [], []
    for x in range(n):
        # flip_of[fields]: the state bits at x of the fields set in `fields`
        flip_of = [0]
        for f in range(n_layers + 1):
            flip_of += [mask | 1 << (n * (n_layers - f) + n - 1 - x) for mask in flip_of]
        brate = btab[env_words[x]]
        keep = brate > 0
        rows.append(idx[keep])
        cols.append(idx[keep] ^ flip_of[1])
        vals.append(brate[keep])

        distinct, inverse = np.unique(keys[x, ordered], return_inverse=True)
        # each layer flips in at most one group, so a site has at most
        # n_layers spin transitions
        flip = np.zeros((distinct.size, n_layers), dtype=np.int64)
        rate = np.zeros((distinct.size, n_layers))
        for k, key in enumerate(distinct.tolist()):
            spins = [(r, fields) for r, _, fields, _ in menus[key][0] if not fields & 1]
            for m, (r, fields) in enumerate(spins):
                flip[k, m] = flip_of[fields]
                rate[k, m] = r
        flip, rate = flip[inverse], rate[inverse]
        keep = rate > 0
        rows.append(np.broadcast_to(states[:, None], keep.shape)[keep])
        cols.append((states[:, None] ^ flip)[keep])
        vals.append(rate[keep])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    diag = -np.bincount(rows, weights=vals, minlength=dim)
    return GeneratorMatrix(spec, n, n_layers, dim, rows, cols, vals, diag)


MAX_SITES = 6  # largest window of the (background, spin) generator
MAX_DIM = 100_000  # largest state space of a coupled generator


def build_generator(spec: ModelSpec) -> GeneratorMatrix:
    """Exact rate matrix of the (background, spin) chain on the window."""
    if spec.size > MAX_SITES:
        raise ValueError("window of %d sites exceeds the oracle cap %d" % (spec.size, MAX_SITES))
    return _build(spec, 1)


def build_coupled_generator(spec: ModelSpec, n_layers) -> GeneratorMatrix:
    """Exact rate matrix of the coupled chain with `n_layers` spin layers.

    The state space is the full product; states violating the layer order
    carry no spin transitions and are never entered from ordered ones, so
    semigroup computations from ordered starts are exact.  Stationary-set
    analysis should run on the plain pair generator instead: the unordered
    sectors are artifacts of the product embedding.  Intended for very small
    windows.
    """
    dim = 1 << (spec.size * (n_layers + 1))
    if dim > MAX_DIM:
        raise ValueError("coupled state space of %d states exceeds MAX_DIM=%d" % (dim, MAX_DIM))
    return _build(spec, n_layers)


# ---------------------------------------------------------------------------
# stationary distributions


@dataclass
class StationarySet:
    """Extreme points of the stationary polytope, one per closed class."""

    distributions: list
    closed_classes: list
    dimension: int
    flagged: bool
    notes: list = field(default_factory=list)


RESIDUAL_TOL = 1e-10  # largest |pi Q| entry accepted as stationary


def _least_reached(src, dst, label):
    """Per state, the least `label` over the states it reaches along the
    jumps src -> dst, its own included: the fixpoint of one minimum per jump."""
    label = label.copy()
    while True:
        before = label.copy()
        np.minimum.at(label, src, label[dst])
        if np.array_equal(label, before):
            return label


def _closed_class_search(dim, src, dst):
    """The closed classes of the jump graph src -> dst on `dim` states.

    Returns (members, bounds): class k is `members[bounds[k]:bounds[k + 1]]`,
    ascending, and the classes come ascending by least member.  Three
    fixpoints of `_least_reached` find them.  First m[s], the least state s
    reaches.  Then the untainted states, which reach no jump u -> v with
    m[u] != m[v], so that m is m[s] on all that s reaches and all of it
    reaches m[s].  A state is recurrent iff it is untainted and reached from
    m[s] (then all it reaches reaches it back).  The last fixpoint spreads
    reachability from the roots, the untainted states with m[s] == s: each
    is the least member of a closed class and reaches that class alone.
    """
    states = np.arange(dim)
    m = _least_reached(src, dst, states)
    clean = np.ones(dim, dtype=np.int8)
    clean[src[m[src] != m[dst]]] = 0
    untainted = _least_reached(src, dst, clean) == 1
    roots = untainted & (m == states)
    recurrent = _least_reached(dst, src, (~roots).view(np.int8)) == 0
    members = np.flatnonzero(recurrent)
    members = members[np.argsort(m[members], kind="stable")]
    least = m[members]
    bounds = np.flatnonzero(np.r_[True, least[1:] != least[:-1], True])
    return members, bounds


def _closed_classes(G: GeneratorMatrix):
    """Closed classes of the jump graph and their stationary laws.

    Returns (classes, law, label): each class as a sorted list of states,
    the classes ascending by least member (`_closed_class_search`), one
    full-length vector `law` holding each class's stationary law on that
    class's states (one dense solve on the class block of the generator) and
    0 on transient states, and `label[s]`, the index of the class holding s
    or -1 for a transient state.  Class k's own law is
    `np.where(label == k, law, 0)`.
    """
    dim = G.dim
    members, bounds = _closed_class_search(dim, G.rows, G.cols)
    sizes = np.diff(bounds)
    _check_dense(int(sizes.max()), "closed class")
    flat = members.tolist()
    classes = [flat[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]

    label = np.full(dim, -1, dtype=np.int64)
    label[members] = np.repeat(np.arange(len(classes)), sizes)
    pos = np.zeros(dim, dtype=np.int64)  # each member's place in its class
    pos[members] = np.arange(members.size) - np.repeat(bounds[:-1], sizes)
    # no jump leaves a closed class, so a jump from a member stays in its
    # class; the jumps are grouped by class in their own order
    owner = label[G.rows]
    inside = np.flatnonzero(owner >= 0)
    inside = inside[np.argsort(owner[inside], kind="stable")]
    ends = [0] + np.cumsum(np.bincount(owner[inside], minlength=len(classes))).tolist()
    law = np.zeros(dim)
    law[members[bounds[:-1][sizes == 1]]] = 1.0
    for k in np.flatnonzero(sizes > 1).tolist():
        m = int(sizes[k])
        jumps = inside[ends[k]:ends[k + 1]]
        Qc = np.zeros((m, m))
        np.add.at(Qc, (pos[G.rows[jumps]], pos[G.cols[jumps]]), G.vals[jumps])
        Qc[np.arange(m), np.arange(m)] = -Qc.sum(axis=1)
        M = Qc.T.copy()
        M[-1, :] = 1.0
        b = np.zeros(m)
        b[-1] = 1.0
        local = np.clip(np.linalg.solve(M, b), 0.0, None)
        law[classes[k]] = local / local.sum()
    return classes, law, label


def _residual(G: GeneratorMatrix, dist):
    return float(np.abs(G.matvec_left(dist)).max())


def _reach(dim, src, dst, seeds):
    """States reachable from `seeds` along the jumps src -> dst, one frontier
    sweep per step."""
    seen = np.zeros(dim, dtype=bool)
    seen[seeds] = True
    frontier = seen.copy()
    while frontier.any():
        step = np.zeros(dim, dtype=bool)
        step[dst[frontier[src]]] = True
        frontier = step & ~seen
        seen |= frontier
    return seen


def _certify_classes(G: GeneratorMatrix, classes):
    """Why `classes` are not exactly the closed classes of G's jump graph, as
    a list of notes (empty when certified).

    Independent of the class search: the classes must be disjoint, each must
    be closed (no jump leaves it) and strongly connected (forward and
    backward reach from its first member along its own jumps cover it), and
    every other state must reach some class.
    """
    label = np.full(G.dim, -1, dtype=np.int64)
    for k, comp in enumerate(classes):
        label[comp] = k
    listed = label >= 0
    notes = []
    if sum(len(comp) for comp in classes) != listed.sum():
        notes.append("closed classes overlap")
    src, dst = label[G.rows], label[G.cols]
    if ((src >= 0) & (src != dst)).any():
        notes.append("a closed class has a jump out of it")
    inside = (src >= 0) & (src == dst)
    roots = [comp[0] for comp in classes]
    for a, b in ((G.rows, G.cols), (G.cols, G.rows)):
        if (listed & ~_reach(G.dim, a[inside], b[inside], roots)).any():
            notes.append("a closed class is not strongly connected")
            break
    stuck = ~_reach(G.dim, G.cols, G.rows, np.flatnonzero(listed))
    if stuck.any():
        notes.append("%d states reach no closed class" % stuck.sum())
    return notes


def stationary_set(G: GeneratorMatrix) -> StationarySet:
    """All extreme stationary laws, via closed communicating classes.

    The extreme stationary laws of a finite chain are exactly the stationary
    laws of its closed classes, so extremality is decided by graph structure,
    not by numerical vertex hunting.  The classes are certified by
    reachability (`_certify_classes`) and the laws by the residual of their
    joint vector; a failure sets the `flagged` bit and a note instead of
    being silently resolved.
    """
    closed, law, label = _closed_classes(G)
    notes = _certify_classes(G, closed)
    # the classes are closed and disjoint, so the residual of their joint
    # law is the largest residual of one class's law
    resid = _residual(G, law)
    if resid > RESIDUAL_TOL:
        notes.append("stationary residual %.3e exceeds %.0e" % (resid, RESIDUAL_TOL))
    return StationarySet(
        distributions=[np.where(label == k, law, 0.0) for k in range(len(closed))],
        closed_classes=closed,
        dimension=len(closed),
        flagged=bool(notes),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# semigroup action and invariant limits


@dataclass
class SemigroupResult:
    dist: np.ndarray
    truncation_error: float
    uniformization_rate: float


SERIES_TAIL = 1e-12  # Poisson mass left out of each uniformization series
CHUNK = 256.0  # largest Poisson mean of one chunk, so exp(-mean) never underflows


def semigroup_apply(G: GeneratorMatrix, p0, t) -> SemigroupResult:
    """The distribution at time t by uniformization.

    The jump rate is the maximal outflow plus one; the Poisson series is cut
    once its mass reaches 1 - SERIES_TAIL, and long horizons are split into
    chunks of mean CHUNK so the leading Poisson weight never underflows.  The
    accumulated tail mass is reported as `truncation_error`.  The start must
    be finite (it may be any signed vector: the action is linear), and the
    horizon is held to the event budget at the jump rate, before any product.
    """
    _finite_nonnegative("t", t)
    p = np.array(p0, dtype=float)
    if p.shape != (G.dim,):
        raise ValueError("distribution must have length %d" % G.dim)
    if not np.isfinite(p).all():
        raise ValueError("distribution must be finite")
    lam = float(-G.diag.min()) + 1.0
    _expected_events(lam, t, "lower t", "jumps by t=%r at the uniformization rate")
    err = 0.0
    remaining = float(t)
    while remaining > 0:
        dt = min(remaining, CHUNK / lam)
        remaining -= dt
        mu = lam * dt
        weight = math.exp(-mu)
        cum = weight
        term = p
        out = weight * term
        k = 0
        max_terms = int(mu + 40.0 * math.sqrt(mu) + 100.0)
        while cum < 1.0 - SERIES_TAIL and k < max_terms:
            k += 1
            term = term + G.matvec_left(term) / lam
            weight *= mu / k
            cum += weight
            out = out + weight * term
        err += max(0.0, 1.0 - cum)
        p = out
    return SemigroupResult(dist=p, truncation_error=err, uniformization_rate=lam)


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass
class LimitDistributions:
    lower: np.ndarray
    upper: np.ndarray
    tv_distance: float
    converged: bool


def limit_distributions(G: GeneratorMatrix) -> LimitDistributions:
    """Long-time laws from the all-zeros and all-ones point masses, exactly.

    A finite chain started at s is absorbed in closed class C_k with some
    probability a_k and then follows that class's stationary law pi_k, so its
    limit is sum_k a_k pi_k.  A start inside a closed class returns that
    class's law.  From a transient start, the expected occupation times nu of
    the transient states T solve nu (-Q_TT) = e_s (one dense solve for both
    starts), and a_k is the total rate flow nu Q_{T,C_k} into C_k.
    `converged` states that each limit has mass within RESIDUAL_TOL of 1 and
    a stationarity residual of at most RESIDUAL_TOL; a failure is reported,
    not papered over.
    """
    classes, law, label = _closed_classes(G)
    starts = (0, G.dim - 1)
    limits = {s: np.where(label == label[s], law, 0.0) for s in starts if label[s] >= 0}
    pending = [s for s in starts if label[s] < 0]
    if pending:
        transient = np.flatnonzero(label < 0)
        _check_dense(transient.size, "transient set")
        pos = np.full(G.dim, -1, dtype=np.int64)
        pos[transient] = np.arange(transient.size)
        src, dst = pos[G.rows], pos[G.cols]
        within = (src >= 0) & (dst >= 0)
        # (-Q_TT)^T, so that a column solve gives the row vector nu
        A = np.zeros((transient.size, transient.size))
        np.add.at(A, (dst[within], src[within]), -G.vals[within])
        A[np.arange(transient.size), np.arange(transient.size)] -= G.diag[transient]
        rhs = np.zeros((transient.size, len(pending)))
        rhs[pos[pending], np.arange(len(pending))] = 1.0
        nu = np.linalg.solve(A, rhs)
        exits = (src >= 0) & (dst < 0)
        into = label[G.cols[exits]]
        closed = label >= 0
        stationary = law[closed]
        for j, s in enumerate(pending):
            flow = nu[src[exits], j] * G.vals[exits]
            weights = np.bincount(into, weights=flow, minlength=len(classes))
            dist = np.zeros(G.dim)
            dist[closed] = weights[label[closed]] * stationary
            limits[s] = dist
    lower, upper = limits[starts[0]], limits[starts[1]]
    converged = all(
        abs(dist.sum() - 1.0) <= RESIDUAL_TOL and _residual(G, dist) <= RESIDUAL_TOL
        for dist in (lower, upper)
    )
    return LimitDistributions(
        lower=lower,
        upper=upper,
        tv_distance=total_variation(lower, upper),
        converged=converged,
    )


def dump_distribution_csv(dist) -> str:
    lines = ["state_index,probability"]
    for s, p in enumerate(dist):
        lines.append("%d,%r" % (s, float(p)))
    return "\n".join(lines) + "\n"
