"""Reference computations made apart from envspin, from the rate tables alone.

They follow the model's definition, not the package's code: a dense rate
matrix by a plain loop over states, time-t laws by scaling and squaring,
stationary laws by a dense linear solve, run counts by a vectorized scan over
replicas.  The state encoding is the one the oracle documents (background
bits above spin bits, site 0 the most significant bit of each field).
"""

from __future__ import annotations

import numpy as np


def _bit(field, n, pos):
    return (field >> (n - 1 - pos % n)) & 1


def _word(field, n, x, radius):
    idx = 0
    for off in range(-radius, radius + 1):
        idx = (idx << 1) | _bit(field, n, x + off)
    return idx


def pair_generator(c0, c1, env_table, env_range, n):
    """Dense rate matrix of the (background, spin) chain on a ring of n sites.

    c0, c1: the 8 spin rates by neighborhood word (left, center, right);
    env_table: background rates by (2*env_range+1)-bit word."""
    dim = 1 << (2 * n)
    mask = (1 << n) - 1
    Q = np.zeros((dim, dim))
    for s in range(dim):
        beta, eta = s >> n, s & mask
        for x in range(n):
            b = env_table[_word(beta, n, x, env_range)]
            if b > 0:
                Q[s, s ^ (1 << (2 * n - 1 - x))] += b
            table = c1 if _bit(beta, n, x) else c0
            c = table[_word(eta, n, x, 1)]
            if c > 0:
                Q[s, s ^ (1 << (n - 1 - x))] += c
    Q[np.arange(dim), np.arange(dim)] = -Q.sum(axis=1)
    return Q


def law_at(Q, p0, t):
    """p0 @ exp(t Q) by scaling and squaring of a degree-24 Taylor sum."""
    A = Q * float(t)
    norm = float(np.abs(A).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    A = A / (2.0 ** squarings)
    E = np.eye(Q.shape[0])
    term = np.eye(Q.shape[0])
    for k in range(1, 25):
        term = term @ A / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return np.asarray(p0, dtype=float) @ E


def stationary_law(Q):
    """The law pi with pi Q = 0 and sum 1, for an irreducible chain."""
    dim = Q.shape[0]
    M = np.vstack([Q.T, np.ones((1, dim))])
    rhs = np.zeros(dim + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return pi


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def state_index(beta_bits, eta_bits):
    """Joint-state index of each replica row: (background << n) | spin."""
    n = beta_bits.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1)
    return ((beta_bits.astype(np.int64) @ weights) << n) | (eta_bits.astype(np.int64) @ weights)


def frozen_out_rate(c_table, env_table, env_range, beta, eta, env_words, spin_words):
    """Total flip rate out of one (background, spin) state with frozen boundary
    words (left, right) glued to each layer; the same spin table applies at
    both background bits, as in the staircase scenario."""
    n = len(beta)

    def value(bits, words, pos):
        if 0 <= pos < n:
            return bits[pos]
        left, right = words
        return int(left[len(left) + pos]) if pos < 0 else int(right[pos - n])

    total = 0.0
    for x in range(n):
        w = 0
        for off in range(-env_range, env_range + 1):
            w = (w << 1) | value(beta, env_words, x + off)
        total += env_table[w]
        w = 0
        for off in (-1, 0, 1):
            w = (w << 1) | value(eta, spin_words, x + off)
        total += c_table[w]
    return total


def run_counts(lower, middle, upper, m, n):
    """Run-count functionals of every replica row on the window [m, n].

    Returns (runs, interior) where runs[r] is the number of maximal constant
    runs of the middle layer along the disagreement sites (lower 0, upper 1)
    of row r, and interior maps a length l to the total number, over all rows,
    of runs of exactly that length with disagreement sites of the other value
    on both sides.
    """
    replicas = lower.shape[0]
    prev = np.full(replicas, -1, dtype=np.int64)
    runs = np.zeros(replicas, dtype=np.int64)
    length = np.zeros(replicas, dtype=np.int64)
    has_left = np.zeros(replicas, dtype=bool)
    interior = np.zeros(n - m + 2, dtype=np.int64)
    for x in range(m, n + 1):
        dis = (lower[:, x] == 0) & (upper[:, x] == 1)
        v = middle[:, x].astype(np.int64)
        starts = dis & (v != prev)
        closes = starts & (prev >= 0) & has_left
        np.add.at(interior, length[closes], 1)
        has_left = np.where(starts, prev >= 0, has_left)
        length = np.where(starts, 1, length + (dis & ~starts))
        runs += starts
        prev = np.where(dis, v, prev)
    return runs, {l: int(c) for l, c in enumerate(interior) if c}
