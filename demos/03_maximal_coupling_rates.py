"""Two derivations of the same maximal coupling, compared exactly.

Three ordered layers sharing one clock and one mark flip together as much as
possible.  `window_rates` reads the joint rates off the acceptance-interval
partition; `coupled_event_rates` writes them down from the transition-table
formulas.  Both return exact fractions and must agree identically.
"""

from envspin import Configuration, JointState, coupled_event_rates, preset, window_rates
from envspin.lattice import word_index

spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0, sites=3)

# layer neighborhoods at the middle site: lower 000, middle 001, upper 011,
# as the integer words that `window_rates` reads
layers = tuple(Configuration(w) for w in ("000", "001", "011"))
state = JointState(spec.env_config((0, 0, 0)), layers)
words = tuple(word_index(layer, 1, 1) for layer in layers)

for bit in (0, 1):
    via_intervals = window_rates(spec.spin, bit, words)
    print("background bit %d (table c%d):" % (bit, bit))
    for target, rate in sorted(via_intervals.items()):
        print("   -> new centers %s  at rate %s" % (target[1:], rate))

via_coupling = coupled_event_rates(spec, state, 1)
print("\ngenerator-level menu at the middle site (includes the background flip):")
for target, rate in sorted(via_coupling.items()):
    print("   -> (beta, eta, gamma, xi) = %s  at rate %s" % (target, rate))

spin_only = {k: v for k, v in via_coupling.items() if k[0] == 0}
assert spin_only == window_rates(spec.spin, 0, words)
print("\ninterval partition and table formulas agree exactly")
