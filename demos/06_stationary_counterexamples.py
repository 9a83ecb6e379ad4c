"""Two scenarios where the two-extremal-law picture breaks, made concrete.

First, a background with frozen all-zeros and all-ones words: each frozen
background phase carries its own closed class, so the joint chain has more
than two extreme stationary laws.  Second, a background driven to all ones
with spin rates vanishing on every one-step profile: each staircase freezes
solid, one extreme point per step position.
"""

from envspin import scenario_remarks

iv = scenario_remarks("iv", sites=3)
print("frozen background words:", iv["frozen_background_words"])
print("closed classes of the joint chain:", iv["n_closed_classes"])
for comp in iv["closed_classes_decoded"]:
    print("   class containing (background, spin) =", comp[0])

print()
vi = scenario_remarks("vi", sites=5)
print("staircase profiles and their outflow rates:")
for st in vi["staircases"]:
    print("   %s  out-rate %g  absorbing=%s" % (st["profile"], st["out_rate"], st["absorbing"]))
print("closed classes (extreme stationary laws):", vi["n_closed_classes"])
print("caveats:", "; ".join(vi["caveats"]))
