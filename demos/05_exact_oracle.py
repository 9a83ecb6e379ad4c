"""Exact finite-state analysis at desk scale, and a simulator cross-check.

On a three-site ring the joint chain has 64 states: assemble its rate matrix,
find every extreme stationary law through closed communicating classes, push
the two extreme point masses to their long-time limits, and verify that a
hundred thousand simulated replicas land on the exact time-t law (a
standardized Pearson statistic of a few units or less).
"""

import numpy as np

from envspin import (
    build_generator,
    graphical,
    limit_distributions,
    preset,
    semigroup_apply,
    stationary_set,
)

spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0, sites=3)
G = build_generator(spec)
print("states:", G.dim, "| max row-sum error:", G.max_row_sum_error())

S = stationary_set(G)
print("stationary polytope dimension:", S.dimension, "| flagged:", S.flagged)

L = limit_distributions(G)
print("TV(lower limit, upper limit) = %.2e (converged: %s)" % (L.tv_distance, L.converged))

t = 1.0
start = G.encode([0b000, 0b111])
exact = semigroup_apply(G, G.point_mass(start), t)
print("time-%g law computed with truncation error %.1e" % (t, exact.truncation_error))

replicas = 100_000
res = graphical.batch_evolve(
    spec, spec.env_config((0, 0, 0)), [spec.spin_config((1, 1, 1))], [t], replicas, seed=1
)
weights = 1 << np.arange(2, -1, -1)
states = ((res.background[-1] * weights).sum(axis=1) << 3) | (res.layers[-1][0] * weights).sum(axis=1)
observed = np.bincount(states, minlength=64)
expected = exact.dist * replicas
# Pearson goodness of fit; states expected fewer than 5 times share one cell
big = expected >= 5.0
obs = np.append(observed[big], observed[~big].sum())
exp = np.append(expected[big], expected[~big].sum())
obs, exp = obs[exp > 0], exp[exp > 0]
stat = float(((obs - exp) ** 2 / exp).sum())
df = obs.size - 1
print("Pearson X^2 = %.1f on %d df over 64 states; (X^2 - df) / sqrt(2 df) = %.2f"
      % (stat, df, (stat - df) / np.sqrt(2 * df)))
