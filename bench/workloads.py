"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the set-up
that `setup_s` times), runs one round of program calls through `call` (the
calls whose wall time is `time_to_verdict_s`), and checks a round's outputs
against computations made apart from the program or against properties the
method must have.  Every round of a run makes the same calls on the same
inputs, so later rounds are checked by comparing their output digest with the
first round's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from envspin import cli, coupling, experiments, graphical, oracle
from envspin.coupling import CoupledSpec
from envspin.lattice import JointState
from envspin.rates import EnvRateSpec, LocalSpinRates, ModelSpec, SpinRatePair, preset

import reference as ref
import stats

# Supercritical contact process in a randomly evolving environment: births
# at rate lam per occupied neighbour, deaths delta0 / delta1 by background
# bit, background flipping 0->1 at gamma*p and 1->0 at gamma*(1-p).  Both
# extremal laws exist here; with lam=1, delta0=2, delta1=1 the system dies
# out before any late-time functional is measured.
SUPERCRITICAL = dict(gamma=1.0, delta0=1.0, delta1=0.5, p=0.5, lam=3.0)
SUPERCRITICAL_FLAGS = [
    "--preset", "cpree", "--gamma", "1", "--delta0", "1", "--delta1", "0.5",
    "--p", "0.5", "--lambda", "3",
]


def _seeds(seed, stream, count):
    """`count` program seeds drawn from the workload seed and a stream tag."""
    rng = np.random.default_rng([int(seed), stream])
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def _random_triples(rng, replicas, n):
    """Per-site uniform ordered columns: (background, [lower, middle, upper])."""
    beta = rng.integers(0, 2, size=(replicas, n)).astype(np.int8)
    col = rng.integers(0, 4, size=(replicas, n))
    layers = [(col == 3).astype(np.int8), (col >= 2).astype(np.int8), (col >= 1).astype(np.int8)]
    return beta, layers


def contact_tables(lam, delta0, delta1, birth=0.0):
    """The 8-entry spin tables of a contact process with spontaneous birth
    rate `birth`, as plain tuples indexed by the word (left, center, right)."""
    c0, c1 = [0.0] * 8, [0.0] * 8
    for word in range(8):
        left, center, right = word >> 2, (word >> 1) & 1, word & 1
        if center == 0:
            c0[word] = c1[word] = birth + lam * (left + right)
        else:
            c0[word], c1[word] = delta0, delta1
    return tuple(c0), tuple(c1)


def _spec(c0, c1, env, sites):
    spec = ModelSpec(SpinRatePair(LocalSpinRates(c0), LocalSpinRates(c1)), EnvRateSpec(0, env), sites)
    return spec.require_valid()


def positive_spec(rng, sites):
    """A random attractive, compatible spec with every rate positive, on a
    1/8 grid in [1/8, 2]."""

    def draw(k):
        return np.sort(rng.integers(1, 17, size=k) / 8.0)

    c0, c1 = [0.0] * 8, [0.0] * 8
    up, bump, down = draw(4), draw(4), draw(4)[::-1]
    scale = rng.integers(1, 9) / 8.0
    for k, word in enumerate((0b000, 0b001, 0b100, 0b101)):
        c0[word], c1[word] = up[k], up[k] + bump[k]
    for k, word in enumerate((0b010, 0b011, 0b110, 0b111)):
        c0[word], c1[word] = down[k], down[k] * scale
    env = tuple(rng.integers(1, 17, size=2) / 8.0)
    return _spec(tuple(c0), tuple(c1), env, sites)


def tables(spec):
    return spec.spin.c0.values, spec.spin.c1.values, spec.env.table, spec.env.range


def _identical(a, b, scale):
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-12 * max(1.0, scale)))


def digest(obj):
    """Hash of a round's outputs; wall-clock fields (runtime_ms) are left out."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            if key != "runtime_ms":
                h.update(repr(key).encode())
                _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        h.update(repr(obj).encode())


class Round:
    """Calls program operations, timing each and counting failures.  A
    failed call (any exception) returns None, so every round attempts the
    same operations whatever fails."""

    def __init__(self):
        self.elapsed = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        start, cpu = perf_counter(), process_time()
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append("%s: %s: %s" % (name, type(err).__name__, err))
            return None
        finally:
            self.elapsed += perf_counter() - start
            self.cpu += process_time() - cpu


class Checks:
    """Failures of exact checks, plus the p-values of the run's statistical
    tests, judged at the family-wise level stats.FAMILY_LEVEL by Bonferroni:
    each of the `family_size` tests rejects below level / family_size."""

    def __init__(self, family_size):
        self.failures = []
        self.tests = []  # (name, p-value, detail)
        self.per_test_level = stats.FAMILY_LEVEL / max(1, family_size)

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def add_test(self, name, pvalue, detail):
        self.tests.append((name, float(pvalue), detail))

    def gof(self, name, counts, probs):
        stat, df, p = stats.chi2_gof(counts, probs)
        self.add_test(name + " chi2", p, "chi2=%.1f df=%d" % (stat, df))

    def mean(self, name, samples, exact):
        z, p = stats.mean_z_test(samples, exact)
        self.add_test(name + " mean", p, "z=%.2f" % z)

    def all_failures(self):
        rejected = [
            "%s rejected at family level %g (p=%.3g, %s)" % (n, stats.FAMILY_LEVEL, p, d)
            for n, p, d in self.tests
            if p < self.per_test_level
        ]
        return self.failures + rejected


# ---------------------------------------------------------------------------


class LargeWindow:
    """Three-layer lockstep runs and two-start envelopes on a 64-site ring."""

    name = "large-window"
    sites = 64
    replicas = 1_500
    direct_replicas = 300
    horizon = 2.0
    grid = (0.5, 1.0, 1.5, 2.0)
    window = (24, 40)
    # one one-sided test per consecutive pair of grid times
    family_size = len(grid) - 1

    def __init__(self, seed, spec=None):
        self.spec = spec if spec is not None else preset("cpree", sites=self.sites, **SUPERCRITICAL)
        rng = np.random.default_rng([int(seed), 0])
        self.beta, self.layers = _random_triples(rng, self.direct_replicas, self.sites)
        self.seeds = _seeds(seed, 1, 3)
        c0, c1 = self.spec.spin.c0.values, self.spec.spin.c1.values
        # C: least paired boundary rate over both tables; K: largest rate
        self.C = min(
            min(ci[0b100] + cj[0b110], ci[0b001] + cj[0b011], ci[0b011] + cj[0b110], ci[0b100] + cj[0b001])
            for ci in (c0, c1)
            for cj in (c0, c1)
        )
        self.K = max(max(c0), max(c1))

    def run(self, call, workdir, check_order=True):
        spec = self.spec
        m, n = self.window
        return {
            "evolve": call(
                "batch_evolve",
                graphical.batch_evolve,
                spec,
                (self.beta, spec.env_boundary),
                [(layer, spec.spin_boundary) for layer in self.layers],
                [self.horizon],
                self.direct_replicas,
                self.seeds[0],
                check_order=check_order,
            ),
            "inequality": call(
                "interval_inequality_check",
                experiments.interval_inequality_check,
                spec, self.horizon, self.replicas, self.seeds[1], m, n, l=1,
            ),
            "density": call(
                "density_curves", experiments.density_curves, spec, list(self.grid), self.replicas, self.seeds[2]
            ),
        }

    def check(self, out):
        ck = Checks(self.family_size)
        ev = out["evolve"]
        if ck.require(ev is not None, "batch_evolve gave no result"):
            lo, mid, up = ev.layers[-1]
            ck.require(ev.order_violations == 0, "batch_evolve counted order violations")
            ck.require(
                bool((lo <= mid).all() and (mid <= up).all()),
                "lower <= middle <= upper fails on %d samples"
                % int(((lo > mid) | (mid > up)).any(axis=1).sum()),
            )
        rep = out["inequality"]
        if ck.require(rep is not None, "interval_inequality_check gave no result"):
            e = rep.extra
            m, n = self.window
            width = n - m + 1
            C, K = self.C, self.K
            ck.require(rep.params["C"] == C and rep.params["K"] == K, "C, K differ from the tables")
            ck.require(0.0 <= e["mean_curvature"] <= 2.0, "mean curvature outside [0, 2]")
            ck.require(
                0.0 <= e["mean_interior_singletons"] <= width - 2,
                "mean interior singletons outside [0, window-2]",
            )
            ck.require(e["lhs_d"] == C * e["mean_interior_singletons"], "lhs_d != C * mean singletons")
            ck.require(e["rhs_d"] == K * e["mean_curvature"], "rhs_d != K * mean curvature")
            scale = max(1.0, abs(e["lhs_d"]), abs(e["rhs_d"]))
            ck.require(
                abs(e["slack_d_mean"] - (e["rhs_d"] - e["lhs_d"])) <= 1e-9 * scale,
                "slack_d mean != rhs_d - lhs_d",
            )
            ck.require(
                -C * width / 2.0 <= e["slack_e_mean"] <= 12.0 * K * (width - 2),
                "slack_e mean outside its pathwise range",
            )
            ck.require(
                all(math.isfinite(e[k]) and e[k] >= 0 for k in ("slack_d_se", "slack_e_se")),
                "standard errors not finite and >= 0",
            )
        dens = out["density"]
        if ck.require(dens is not None, "density_curves gave no result"):
            e = dens.extra
            ck.require(e["t"] == list(self.grid), "density grid differs from the request")
            ck.require(all(v == 0.0 for v in e["density_from_zero"]), "density from the all-zero start left 0")
            ck.require(all(0.0 <= v <= 1.0 for v in e["density_from_one"]), "density outside [0, 1]")
            ck.require(
                all(g == b - a for g, a, b in zip(e["gap"], e["density_from_zero"], e["density_from_one"])),
                "gap != upper - lower density",
            )
            # the all-ones start is the top of an attractive system, so its
            # density is nonincreasing in t
            # one one-sided z test per consecutive grid pair that the curve
            # does not rise; Var(X - Y) <= (sd X + sd Y)^2 makes each test
            # conservative for the correlated points of one run
            curve, se = e["density_from_one"], e["se_from_one"]
            for k in range(len(curve) - 1):
                rise = curve[k + 1] - curve[k]
                spread = se[k] + se[k + 1]
                p = stats.normal_sf(rise / spread) if spread > 0 else (0.0 if rise > 0 else 1.0)
                ck.add_test("density from ones t=%g->%g" % (self.grid[k], self.grid[k + 1]), p, "rise=%.3g" % rise)
        return ck


class RunCounts:
    """Run-count functionals over nested windows of coupled 64-site triples."""

    name = "run-counts"
    sites = 64
    replicas = 300
    horizon = 0.05
    windows = tuple((32 - k, 32 + k) for k in range(1, 31))
    family_size = 0

    def __init__(self, seed):
        self.spec = preset("cpree", sites=self.sites, **SUPERCRITICAL)
        rng = np.random.default_rng([int(seed), 2])
        self.beta, self.layers = _random_triples(rng, self.replicas, self.sites)
        self.seed = _seeds(seed, 3, 1)[0]

    def _initial(self):
        spec = self.spec
        return (self.beta, spec.env_boundary), [(layer, spec.spin_boundary) for layer in self.layers]

    def run(self, call, workdir):
        return {
            "decay": call(
                "run_length_decay",
                experiments.run_length_decay,
                self.spec, list(self.windows), self.horizon, self.replicas, self.seed,
                initial=self._initial(),
            )
        }

    def final_samples(self):
        """The same engine call run_length_decay makes, so the same samples."""
        beta0, layers = self._initial()
        res = graphical.batch_evolve(self.spec, beta0, layers, [float(self.horizon)], self.replicas, self.seed)
        return res.layers[-1]

    def check(self, out, shift=0):
        """`shift` moves every window of the benchmark's own computation by
        that many sites (a planted defect when nonzero)."""
        ck = Checks(self.family_size)
        rep = out["decay"]
        if not ck.require(rep is not None, "run_length_decay gave no result"):
            return ck
        rows = rep.extra["rows"]
        if not ck.require(len(rows) == len(self.windows), "one row per window expected"):
            return ck
        lo, mid, up = self.final_samples()
        R = self.replicas
        for row, (m, n) in zip(rows, self.windows):
            runs, interior = ref.run_counts(lo, mid, up, m + shift, n + shift)
            ck.require((row["m"], row["n"]) == (m, n), "row for window (%d, %d) out of order" % (m, n))
            mean = runs.sum() / R
            ck.require(
                abs(row["mean_runs"] - mean) <= 1e-12 * max(1.0, mean),
                "window [%d, %d]: mean runs %r, own count %r" % (m, n, row["mean_runs"], mean),
            )
            got = row["mean_interior_runs"]
            want = {l: c / R for l, c in interior.items()}
            ck.require(
                set(got) == set(want) and all(abs(got[l] - want[l]) <= 1e-12 * max(1.0, want[l]) for l in want),
                "window [%d, %d]: interior-run means differ from own count" % (m, n),
            )
        for small, big in zip(rows, rows[1:]):
            ck.require(big["mean_runs"] >= small["mean_runs"], "mean runs decrease from window %r" % ((small["m"], small["n"]),))
            ck.require(
                all(big["mean_interior_runs"].get(l, 0.0) >= v for l, v in small["mean_interior_runs"].items()),
                "interior-run means decrease from window %r" % ((small["m"], small["n"]),),
            )
        return ck


class ExactWindow:
    """Model verification on windows of at most 6 sites: exact oracle solves,
    the counterexample scenarios, the coupled generator, Monte Carlo laws
    against exact laws, and CLI runs replayed from their manifests."""

    name = "exact-window"
    sites = 3
    mc_replicas = 100_000
    coupled_runs = 1_000
    horizon = 1.0
    # chi-square and mean tests for each of: batch_evolve, both envelope
    # starts, batch_simulate_pair, simulate_coupled
    family_size = 10

    def __init__(self, seed, mc_spec=None):
        rng = np.random.default_rng([int(seed), 4])
        self.positive = [positive_spec(rng, self.sites) for _ in range(2)]
        self.supercritical = preset("cpree", sites=4, **SUPERCRITICAL)
        # Monte Carlo spec: contact process with spontaneous births at rate
        # 1/4, so every state is reachable and the law at t=1 is spread out
        c0, c1 = contact_tables(1.0, 1.5, 0.75, birth=0.25)
        c1 = tuple(v + 0.5 if (w >> 1) & 1 == 0 else v for w, v in enumerate(c1))
        self.exact_spec = _spec(c0, c1, (0.6, 0.4), self.sites)
        self.mc_spec = mc_spec if mc_spec is not None else self.exact_spec
        n = self.sites
        self.start_beta = (0,) * n
        self.start_layers = ((0,) * n, (0, 1, 0), (1,) * n)
        self.seeds = _seeds(seed, 5, 5)

    # -- one round -----------------------------------------------------------

    def run(self, call, workdir):
        out = {}
        for k, spec in enumerate(self.positive + [self.supercritical]):
            G = call("build_generator", oracle.build_generator, spec)
            out["gen%d" % k] = G
            out["stat%d" % k] = call("stationary_set", oracle.stationary_set, G)
            out["limit%d" % k] = call("limit_distributions", oracle.limit_distributions, G)
        out["iv"] = call("scenario_remarks iv", experiments.scenario_remarks, "iv", sites=5)
        out["vi"] = call("scenario_remarks vi", experiments.scenario_remarks, "vi", sites=5)

        spec, T = self.exact_spec, self.horizon
        G = call("build_generator", oracle.build_generator, spec)
        GC = call("build_coupled_generator", oracle.build_coupled_generator, spec, 3)
        fields = [G.bits_to_int(self.start_beta)] + [G.bits_to_int(l) for l in self.start_layers] if G else None
        out["coupled_law"] = call(
            "semigroup_apply", lambda: oracle.semigroup_apply(GC, GC.point_mass(GC.encode(fields)), T)
        )
        starts = [(fields[0], f) for f in fields[1:]] if G else [None] * 3
        out["pair_laws"] = [
            call("semigroup_apply", lambda s=s: oracle.semigroup_apply(G, G.point_mass(G.encode(s)), T))
            for s in starts
        ]
        out["top_law"] = call("semigroup_apply", lambda: oracle.semigroup_apply(G, G.point_mass(G.dim - 1), T))
        out["pair_gen"] = G

        mc = self.mc_spec
        beta0 = mc.env_config(self.start_beta)
        top = mc.spin_config(self.start_layers[-1])
        out["evolve"] = call(
            "batch_evolve", graphical.batch_evolve, mc, beta0, [top], [T], self.mc_replicas, self.seeds[0]
        )
        out["envelope"] = call(
            "batch_envelope", graphical.batch_envelope, mc, [T / 2, T], self.mc_replicas, self.seeds[1]
        )
        out["pair_sim"] = call(
            "batch_simulate_pair", coupling.batch_simulate_pair, mc, beta0, top, T, self.mc_replicas, self.seeds[2]
        )
        triple = JointState(beta0, tuple(mc.spin_config(l) for l in self.start_layers))
        cspec = CoupledSpec(mc, 3)
        finals = []
        for k in range(self.coupled_runs):
            traj = call("simulate_coupled", coupling.simulate_coupled, cspec, triple, self.seeds[3] + k, T)
            finals.append(None if traj is None else tuple(cfg.bits for cfg in traj.final.values()))
        out["coupled_finals"] = finals

        out["cli"] = self._cli_round(call, Path(workdir))
        return out

    def _cli_round(self, call, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = {
            "orc": ["oracle", *SUPERCRITICAL_FLAGS, "--sites", "3"],
            "sco": [
                "scenario", "coalescence", *SUPERCRITICAL_FLAGS, "--sites", "3", "--window", "1",
                "--tmax", "1", "--replicas", "20000", "--seed", str(self.seeds[4] % 2**31),
            ],
        }
        for name, argv in jobs.items():
            first, again = workdir / name, workdir / (name + "-replay")
            call("cli " + argv[0], _cli, [*argv, "--out", str(first)])
            call("cli replay", _cli, ["replay", str(first) + ".manifest.json", "--out", str(again)])
        return {name: _cli_outputs(workdir / name) for name in jobs} | {
            name + "-replay": _cli_outputs(workdir / (name + "-replay")) for name in jobs
        }

    # -- checks --------------------------------------------------------------

    def check(self, out):
        ck = Checks(self.family_size)
        self._check_solves(ck, out)
        self._check_remarks(ck, out)
        self._check_coupled(ck, out)
        self._check_monte_carlo(ck, out)
        self._check_cli(ck, out["cli"])
        return ck

    def _check_generator(self, ck, label, G, spec):
        Q = ref.pair_generator(*tables(spec), spec.size)
        if not ck.require(G is not None, label + ": no generator"):
            return None
        D = G.dense()
        off = ~np.eye(G.dim, dtype=bool)
        ck.require(bool(np.array_equal(D[off], Q[off])), label + ": off-diagonal rates differ from the tables")
        ck.require(_identical(np.diag(D), np.diag(Q), float(np.abs(Q).max())), label + ": diagonal differs")
        row_sums = np.bincount(G.rows, weights=G.vals, minlength=G.dim) + G.diag
        ck.require(float(np.abs(row_sums).max()) <= 1e-12 * max(1.0, float(np.abs(G.diag).max())),
                   label + ": generator rows do not sum to 0")
        return Q

    def _check_solves(self, ck, out):
        specs = self.positive + [self.supercritical]
        for k, spec in enumerate(specs):
            label = "spec %d (%d sites)" % (k, spec.size)
            Q = self._check_generator(ck, label, out["gen%d" % k], spec)
            S, L = out["stat%d" % k], out["limit%d" % k]
            if Q is None or not ck.require(S is not None and L is not None, label + ": no stationary set or limits"):
                continue
            if not ck.require(S.dimension == 1 and not S.flagged, label + ": expected one unflagged stationary law"):
                continue
            pi = S.distributions[0]
            ck.require(float(np.abs(pi @ Q).max()) <= 1e-10, label + ": stationary residual above 1e-10")
            if spec is self.supercritical:
                # the spins die out on a finite ring; the background is then
                # i.i.d. Bernoulli(p) per site
                n, p = spec.size, SUPERCRITICAL["p"]
                ones = np.array([bin(b).count("1") for b in range(1 << n)])
                want = np.zeros(1 << (2 * n))
                want[np.arange(1 << n) << n] = p**ones * (1 - p) ** (n - ones)
            else:
                want = ref.stationary_law(Q)
            ck.require(ref.tv(pi, want) <= 1e-9, label + ": stationary law differs from the reference")
            ck.require(L.converged, label + ": long-time limits did not converge")
            ck.require(ref.tv(L.lower, pi) <= 1e-6 and ref.tv(L.upper, pi) <= 1e-6,
                       label + ": long-time limits differ from the stationary law")

    def _check_remarks(self, ck, out):
        iv, vi = out["iv"], out["vi"]
        if ck.require(iv is not None, "remark iv: no report"):
            ck.require(iv["n_closed_classes"] >= 2, "remark iv: fewer than 2 closed classes")
        if ck.require(vi is not None, "remark vi: no report"):
            ck.require(vi["n_closed_classes"] >= 2, "remark vi: fewer than 2 closed classes")
            spec = preset("remark_vi", sites=vi["sites"])
            env_words = (spec.env_boundary.left, spec.env_boundary.right)
            spin_words = (spec.spin_boundary.left, spec.spin_boundary.right)
            for st in vi["staircases"]:
                eta = tuple(int(ch) for ch in st["profile"])
                own = ref.frozen_out_rate(
                    spec.spin.c0.values, spec.env.table, spec.env.range, (1,) * len(eta), eta, env_words, spin_words
                )
                ck.require(st["out_rate"] == 0.0 and st["absorbing"] and own == 0.0,
                           "remark vi: staircase %s is not an exact zero row" % st["profile"])

    def _check_coupled(self, ck, out):
        G, law = out["pair_gen"], out["coupled_law"]
        if not ck.require(G is not None and law is not None and None not in out["pair_laws"] + [out["top_law"]],
                          "coupled: missing generator or laws"):
            return
        n, T = self.sites, self.horizon
        Q = ref.pair_generator(*tables(self.exact_spec), n)
        coupled = law.dist
        idx = np.arange(coupled.size)
        mask = (1 << n) - 1
        beta = idx >> (3 * n)
        lo, mid, up = (idx >> (2 * n)) & mask, (idx >> n) & mask, idx & mask
        unordered = ((lo & ~mid) | (mid & ~up)) != 0
        ck.require(float(coupled[unordered].sum()) <= 1e-12, "coupled law puts mass on unordered states")
        for k, (field, pair) in enumerate(zip((lo, mid, up), out["pair_laws"])):
            marginal = np.bincount((beta << n) | field, weights=coupled, minlength=1 << (2 * n))
            start = G.point_mass(G.encode([G.bits_to_int(self.start_beta), G.bits_to_int(self.start_layers[k])]))
            own = ref.law_at(Q, start, T)
            ck.require(ref.tv(marginal, pair.dist) <= 1e-9, "coupled: layer %d marginal differs from the pair chain" % k)
            ck.require(ref.tv(pair.dist, own) <= 1e-9, "coupled: pair law %d differs from the reference" % k)
        top = ref.law_at(Q, G.point_mass(G.dim - 1), T)
        ck.require(ref.tv(out["top_law"].dist, top) <= 1e-9, "law from the all-ones start differs from the reference")

    def exact_laws(self):
        """Reference laws at the horizon of the Monte Carlo starts, from the
        benchmark's own generator."""
        n, T = self.sites, self.horizon
        Q = ref.pair_generator(*tables(self.exact_spec), n)
        dim = 1 << (2 * n)

        def law(s):
            p0 = np.zeros(dim)
            p0[s] = 1.0
            return ref.law_at(Q, p0, T)

        top_spin = (1 << n) - 1
        return {"from_top_spins": law(top_spin), "from_zero": law(0), "from_top": law(dim - 1), "Q": Q}

    def _check_monte_carlo(self, ck, out):
        n = self.sites
        laws = self.exact_laws()
        spin_density = _spin_density_law(n)

        def compare(name, B, E, law):
            states = ref.state_index(B, E)
            ck.gof(name, np.bincount(states, minlength=law.size), law)
            ck.mean(name + " spin density", E.mean(axis=1), float(law @ spin_density))

        ev = out["evolve"]
        if ck.require(ev is not None, "batch_evolve gave no result"):
            compare("batch_evolve", ev.background[-1], ev.layers[-1][0], laws["from_top_spins"])
        env = out["envelope"]
        if ck.require(env is not None, "batch_envelope gave no result"):
            times, snaps, violations = env
            b_lo, e_lo, b_hi, e_hi = snaps[-1]
            ck.require(violations == 0 and bool((b_lo <= b_hi).all() and (e_lo <= e_hi).all()),
                       "batch_envelope pairs out of order")
            compare("batch_envelope lower", b_lo, e_lo, laws["from_zero"])
            compare("batch_envelope upper", b_hi, e_hi, laws["from_top"])
        ps = out["pair_sim"]
        if ck.require(ps is not None, "batch_simulate_pair gave no result"):
            compare("batch_simulate_pair", ps[0], ps[1], laws["from_top_spins"])
        finals = out["coupled_finals"]
        law = out["coupled_law"]
        if ck.require(None not in finals and law is not None, "simulate_coupled or its exact law missing"):
            arr = np.array(finals, dtype=np.int64)  # (runs, 4 fields, n sites)
            ck.require(bool((arr[:, 1] <= arr[:, 2]).all() and (arr[:, 2] <= arr[:, 3]).all()),
                       "simulate_coupled layers out of order")
            weights = 1 << np.arange(n - 1, -1, -1)
            words = arr @ weights  # (runs, 4)
            states = (((words[:, 0] << n | words[:, 1]) << n | words[:, 2]) << n) | words[:, 3]
            ck.gof("simulate_coupled", np.bincount(states, minlength=law.dist.size), law.dist)
            idx = np.arange(law.dist.size)
            ones = np.array([bin(v).count("1") for v in range(1 << (3 * n))])
            spin_density = ones[idx & ((1 << (3 * n)) - 1)] / (3 * n)
            ck.mean("simulate_coupled spin density", arr[:, 1:].mean(axis=(1, 2)), float(law.dist @ spin_density))

    def _check_cli(self, ck, files):
        for name in ("orc", "sco"):
            first, again = files[name], files[name + "-replay"]
            ck.require(bool(first) and set(first) <= set(again), "cli %s: replay lacks outputs" % name)
            for suffix, data in first.items():
                ck.require(again.get(suffix) == data, "cli %s: replayed %s differs" % (name, suffix))
        summary = json.loads(files["orc"].get(".summary.json", "{}"))
        ck.require(summary.get("stationary_dimension") == 1 and summary.get("limits_converged") is True,
                   "cli oracle: summary is not one converged stationary law")


def _spin_density_law(n):
    """Spin density of each joint state index (background << n | spin)."""
    spin = np.arange(1 << (2 * n)) & ((1 << n) - 1)
    return np.array([bin(v).count("1") for v in range(1 << n)])[spin] / n


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("envspin %s exited with %r" % (argv[0], code))
    return code


def _cli_outputs(prefix):
    """Data files a CLI run wrote, by suffix; manifests and replay configs are
    left out, and report files lose their wall-clock runtime_ms field."""
    out = {}
    for path in sorted(prefix.parent.glob(prefix.name + ".*")):
        suffix = path.name[len(prefix.name):]
        if suffix in (".manifest.json", ".replay.config"):
            continue
        text = path.read_text()
        if suffix == ".report.json":
            data = json.loads(text)
            data.pop("runtime_ms", None)
            text = json.dumps(data, sort_keys=True)
        out[suffix] = text
    return out


WORKLOADS = {w.name: w for w in (LargeWindow, RunCounts, ExactWindow)}
