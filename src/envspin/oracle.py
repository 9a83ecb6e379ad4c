"""Exact finite-state analysis of the joint chain on tiny windows.

States pack the background bits above the spin bits: with N sites and one
spin layer, index = (background_bits << N) | spin_bits, where site 0 is the
most significant bit of each field (so the literal "011" reads as 0b011).
Coupled generators append further layer fields below, one N-bit block each.

Everything here is brute force on purpose: dense or coordinate-format rate
matrices, stationary laws from closed communicating classes of the jump
graph, long-time limits as absorption-weighted mixtures of those laws (one
dense solve over the transient states), and time-t laws by uniformization
with explicit truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import spin_flip_groups
from .lattice import Configuration, Periodic, order_pairs
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

    def encode_configs(self, configs):
        return self.encode(self.bits_to_int(c.bits if isinstance(c, Configuration) else c) for c in configs)

    def matvec_left(self, p):
        """p @ Q for a row vector p."""
        out = np.bincount(self.cols, weights=p[self.rows] * self.vals, minlength=self.dim)
        return out + p * self.diag

    def dense(self):
        if self.dim > 4096:
            raise ValueError("refusing to densify a %d-state generator" % self.dim)
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


def _boundary_bit(boundary, bits_int, n, pos):
    """Value at a possibly out-of-window position for a packed bit field."""
    if 0 <= pos < n:
        return (bits_int >> (n - 1 - pos)) & 1
    if isinstance(boundary, Periodic):
        return (bits_int >> (n - 1 - pos % n)) & 1
    if pos < 0:
        return int(boundary.left[len(boundary.left) + pos])
    return int(boundary.right[pos - n])


def _field_window_index(boundary, bits_int, n, x, radius):
    idx = 0
    for off in range(-radius, radius + 1):
        idx = (idx << 1) | _boundary_bit(boundary, bits_int, n, x + off)
    return idx


def build_generator(spec: ModelSpec, max_sites=6) -> GeneratorMatrix:
    """Exact rate matrix of the (background, spin) chain on the window."""
    n = spec.size
    if n > max_sites:
        raise ValueError("window of %d sites exceeds the oracle cap %d" % (n, max_sites))
    dim = 1 << (2 * n)
    idx = np.arange(dim, dtype=np.int64)
    beta_bits = idx >> n
    eta_bits = idx & ((1 << n) - 1)
    env_bnd = spec.env_boundary
    spin_bnd = spec.spin_boundary
    btab = spec.env.as_array()
    c0 = spec.spin.c0.as_array()
    c1 = spec.spin.c1.as_array()
    rows, cols, vals = [], [], []

    def field_col(bits, bnd, pos):
        if 0 <= pos < n:
            return (bits >> (n - 1 - pos)) & 1
        if isinstance(bnd, Periodic):
            return (bits >> (n - 1 - pos % n)) & 1
        if pos < 0:
            return np.full(dim, int(bnd.left[len(bnd.left) + pos]), dtype=np.int64)
        return np.full(dim, int(bnd.right[pos - n]), dtype=np.int64)

    for x in range(n):
        widx = np.zeros(dim, dtype=np.int64)
        for off in range(-spec.env.range, spec.env.range + 1):
            widx = (widx << 1) | field_col(beta_bits, env_bnd, x + off)
        brate = btab[widx]
        target = idx ^ (1 << (2 * n - 1 - x))
        keep = brate > 0
        rows.append(idx[keep])
        cols.append(target[keep])
        vals.append(brate[keep])

        sidx = np.zeros(dim, dtype=np.int64)
        for off in (-1, 0, 1):
            sidx = (sidx << 1) | field_col(eta_bits, spin_bnd, x + off)
        bit = field_col(beta_bits, env_bnd, x)
        srate = np.where(bit == 0, c0[sidx], c1[sidx])
        target = idx ^ (1 << (n - 1 - x))
        keep = srate > 0
        rows.append(idx[keep])
        cols.append(target[keep])
        vals.append(srate[keep])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    diag = -np.bincount(rows, weights=vals, minlength=dim)
    return GeneratorMatrix(spec, n, 1, dim, rows, cols, vals, diag)


def build_coupled_generator(spec: ModelSpec, n_layers, max_dim=100_000) -> GeneratorMatrix:
    """Exact rate matrix of the coupled chain with `n_layers` spin layers.

    The state space is the full product; states violating the layer order
    carry no spin transitions and are never entered from ordered ones, so
    semigroup computations from ordered starts are exact.  Stationary-set
    analysis should run on the plain pair generator instead: the unordered
    sectors are artifacts of the product embedding.  Intended for very small
    windows.
    """
    n = spec.size
    n_fields = n_layers + 1
    dim = 1 << (n * n_fields)
    if dim > max_dim:
        raise ValueError("coupled state space of %d states exceeds max_dim=%d" % (dim, max_dim))
    pairs = order_pairs(n_layers)
    env_bnd = spec.env_boundary
    spin_bnd = spec.spin_boundary
    mask = (1 << n) - 1
    rows, cols, vals = [], [], []

    for s in range(dim):
        fields = []
        tmp = s
        for _ in range(n_fields):
            fields.append(tmp & mask)
            tmp >>= n
        fields.reverse()
        beta_f = fields[0]
        layer_f = fields[1:]
        ordered = all(
            (layer_f[i] | layer_f[j]) == layer_f[j] for i, j in pairs
        )
        for x in range(n):
            brate = spec.env.rate_index(_field_window_index(env_bnd, beta_f, n, x, spec.env.range))
            if brate > 0:
                rows.append(s)
                cols.append(s ^ (1 << ((n_fields - 1) * n + n - 1 - x)))
                vals.append(brate)
            if not ordered:
                # unordered states are unreachable; leave their spin rates out
                continue
            bit = _boundary_bit(env_bnd, beta_f, n, x)
            windows = [
                format(_field_window_index(spin_bnd, lf, n, x, 1), "03b") for lf in layer_f
            ]
            for flips, rate in spin_flip_groups(spec.spin, bit, windows, pairs, exact=False):
                target = s
                for k in flips:
                    target ^= 1 << ((n_layers - 1 - k) * n + n - 1 - x)
                rows.append(s)
                cols.append(target)
                vals.append(rate)

    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    vals = np.array(vals, dtype=float)
    diag = -np.bincount(rows, weights=vals, minlength=dim)
    return GeneratorMatrix(spec, n, n_layers, dim, rows, cols, vals, diag)


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
    svd_null_dim: int = None


RESIDUAL_TOL = 1e-10  # largest |pi Q| entry accepted as stationary


def _strongly_connected_components(dim, adj):
    """Iterative Tarjan; returns a list of components (lists of states)."""
    index = np.full(dim, -1, dtype=np.int64)
    low = np.zeros(dim, dtype=np.int64)
    on_stack = np.zeros(dim, dtype=bool)
    stack = []
    components = []
    counter = 0
    for root in range(dim):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adj[v]
            while pi < len(neighbors):
                w = neighbors[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def _closed_classes(G: GeneratorMatrix):
    """Closed classes of the jump graph and their stationary laws.

    Returns (classes, laws, label): each class as a sorted list of states,
    its stationary law as a full-length vector (one dense solve on the class
    block of the generator), and `label[s]`, the index of the class holding
    s or -1 for a transient state.
    """
    dim = G.dim
    order = np.argsort(G.rows, kind="stable")
    bounds = np.cumsum(np.bincount(G.rows, minlength=dim))[:-1]
    adj = [targets.tolist() for targets in np.split(G.cols[order], bounds)]
    comps = _strongly_connected_components(dim, adj)
    comp_id = np.empty(dim, dtype=np.int64)
    for k, comp in enumerate(comps):
        comp_id[comp] = k
    has_exit = np.zeros(len(comps), dtype=bool)
    has_exit[comp_id[G.rows[comp_id[G.rows] != comp_id[G.cols]]]] = True
    classes = [sorted(comp) for k, comp in enumerate(comps) if not has_exit[k]]

    label = np.full(dim, -1, dtype=np.int64)
    laws = []
    for k, comp in enumerate(classes):
        label[comp] = k
        pi = np.zeros(dim)
        if len(comp) == 1:
            pi[comp[0]] = 1.0
        else:
            m = len(comp)
            pos = np.full(dim, -1, dtype=np.int64)
            pos[comp] = np.arange(m)
            inside = (pos[G.rows] >= 0) & (pos[G.cols] >= 0)
            Qc = np.zeros((m, m))
            np.add.at(Qc, (pos[G.rows[inside]], pos[G.cols[inside]]), G.vals[inside])
            Qc[np.arange(m), np.arange(m)] = -Qc.sum(axis=1)
            M = Qc.T.copy()
            M[-1, :] = 1.0
            b = np.zeros(m)
            b[-1] = 1.0
            local = np.clip(np.linalg.solve(M, b), 0.0, None)
            pi[comp] = local / local.sum()
        laws.append(pi)
    return classes, laws, label


def _residual(G: GeneratorMatrix, dist):
    return float(np.abs(G.matvec_left(dist)).max())


def stationary_set(G: GeneratorMatrix, svd_check="auto", residual_tol=RESIDUAL_TOL) -> StationarySet:
    """All extreme stationary laws, via closed communicating classes.

    The extreme stationary laws of a finite chain are exactly the stationary
    laws of its closed classes, so extremality is decided by graph structure,
    not by numerical vertex hunting.  A dense SVD of the transposed generator
    cross-checks the polytope dimension when the matrix is small enough;
    disagreement or singular values sitting within a decade of the rank
    tolerance set the `flagged` bit instead of being silently resolved.
    """
    dim = G.dim
    closed, distributions, _ = _closed_classes(G)
    notes = []
    flagged = False
    for pi in distributions:
        resid = _residual(G, pi)
        if resid > residual_tol:
            flagged = True
            notes.append("stationary residual %.3e exceeds %.0e" % (resid, residual_tol))

    svd_null_dim = None
    do_svd = svd_check is True or (svd_check == "auto" and dim <= 1024)
    if do_svd:
        QT = G.dense().T
        svals = np.linalg.svd(QT, compute_uv=False)
        tol = svals.max() * dim * np.finfo(float).eps if svals.size else 0.0
        svd_null_dim = int((svals < tol).sum())
        near = ((svals >= tol / 10) & (svals <= tol * 10)).sum()
        if near:
            flagged = True
            notes.append("%d singular values within a decade of the rank tolerance" % near)
        if svd_null_dim != len(closed):
            flagged = True
            notes.append(
                "SVD null dimension %d disagrees with %d closed classes"
                % (svd_null_dim, len(closed))
            )

    return StationarySet(
        distributions=distributions,
        closed_classes=closed,
        dimension=len(closed),
        flagged=flagged,
        notes=notes,
        svd_null_dim=svd_null_dim,
    )


# ---------------------------------------------------------------------------
# semigroup action and invariant limits


@dataclass
class SemigroupResult:
    dist: np.ndarray
    truncation_error: float
    uniformization_rate: float


def semigroup_apply(G: GeneratorMatrix, p0, t, tail=1e-12, chunk=256.0) -> SemigroupResult:
    """The distribution at time t by uniformization.

    The jump rate is the maximal outflow plus one; the Poisson series is cut
    once its mass reaches 1 - `tail`, and long horizons are split into chunks
    so the leading Poisson weight never underflows.  The accumulated tail
    mass is reported as `truncation_error`.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p = np.array(p0, dtype=float)
    if p.shape != (G.dim,):
        raise ValueError("distribution must have length %d" % G.dim)
    lam = float(-G.diag.min()) + 1.0
    err = 0.0
    remaining = float(t)
    while remaining > 0:
        dt = min(remaining, chunk / lam)
        remaining -= dt
        mu = lam * dt
        weight = math.exp(-mu)
        cum = weight
        term = p
        out = weight * term
        k = 0
        max_terms = int(mu + 40.0 * math.sqrt(mu) + 100.0)
        while cum < 1.0 - tail and k < max_terms:
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
    classes, laws, label = _closed_classes(G)
    starts = (0, G.dim - 1)
    limits = {s: laws[label[s]] for s in starts if label[s] >= 0}
    pending = [s for s in starts if label[s] < 0]
    if pending:
        transient = np.flatnonzero(label < 0)
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
        # the class laws have disjoint supports, so their sum holds each one
        closed = label >= 0
        stationary = np.sum(laws, axis=0)[closed]
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


def spin_marginal(G: GeneratorMatrix, dist):
    """Marginal law of the spin field(s): sums out the background bits."""
    width = G.n_layers * G.n_sites
    out = np.zeros(1 << width)
    mask = (1 << width) - 1
    for s, p in enumerate(dist):
        out[s & mask] += p
    return out


def dump_distribution_csv(dist) -> str:
    lines = ["state_index,probability"]
    for s, p in enumerate(dist):
        lines.append("%d,%r" % (s, float(p)))
    return "\n".join(lines) + "\n"
