"""Build one replica's randomness up front and evolve a trajectory from it.

Every site owns a background clock and a spin clock plus uniform marks
(`EventStream`).  `evolve` applies every ring in time order: the flip rules
turn each ring into an accepted or rejected flip deterministically, and a spin
ring reads the background bit at that instant, so the same seed always
reproduces the same trajectory, byte for byte.  The background evolves on its
own: evolving it alone from the same stream gives the same background path.
"""

from envspin import EventStream, evolve, preset

spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, lam=1.0, sites=24)
stream = EventStream(spec, seed=42, t_max=6.0)

beta0 = spec.env_config((0,) * 24)
eta0 = spec.spin_config((1,) * 24)

background = evolve(beta0, [], stream)
print("background flips, background alone:", len(background.events))

traj = evolve(beta0, [eta0], stream)
traj.verify_replay()
same = [e for e in traj.events if e.layer == "beta"] == background.events
print("same background path under the spins:", same)
spins = [e for e in traj.events if e.layer == "eta"]
print("spin flips:", len(spins))
print("final background:", traj.final["beta"].to_literal())
print("final spins:     ", traj.final["eta"].to_literal())

print("\nfirst event-log lines:")
for line in traj.to_csv_text().splitlines()[:10]:
    print(" ", line)
