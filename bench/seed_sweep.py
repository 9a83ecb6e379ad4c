"""False-alarm sweep and planted defects for the benchmark's checks.

    python3 bench/seed_sweep.py --seeds 40        # one round per seed and workload
    python3 bench/seed_sweep.py --planted --seeds 5

The sweep runs one round of each workload per seed and its full checks, and
reports, for every statistical test, on how many seeds it rejected at its
per-test level, its smallest p-value, and the share of p-values below 0.05
and 0.01 (about 5 % and 1 % for a calibrated test).  Exact checks must pass
on every seed.

`--planted` runs each planted defect (`_planted_runs`) on every seed and
requires each one to fail the checks it names.  Seeds start at FIRST_SEED.
Results are also written as JSON to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time

import run

FIRST_SEED = 1000
WORKLOADS = ("large-window", "run-counts", "exact-window")


def _defective_spec(spec, death_factor=1.0, birth=0.0, top_death=None):
    """A copy of `spec` with its death rates (center-1 entries) scaled, a
    spontaneous birth rate added at the empty neighbourhood 000, or the death
    rate at 111 replaced.  No validation: some defects break attractivity."""
    from envspin.rates import LocalSpinRates, ModelSpec, SpinRatePair

    def table(values):
        out = [v * death_factor if (w >> 1) & 1 else v for w, v in enumerate(values)]
        out[0b000] += birth
        if top_death is not None:
            out[0b111] = top_death
        return LocalSpinRates(tuple(out))

    pair = SpinRatePair(table(spec.spin.c0.values), table(spec.spin.c1.values))
    return ModelSpec(pair, spec.env, spec.size, spec.boundary)


def _exact_mc(seed, factor):
    import workloads

    base = workloads.ExactWindow(seed)
    return workloads.ExactWindow(seed, mc_spec=_defective_spec(base.exact_spec, death_factor=factor))


@contextlib.contextmanager
def _snapshots_reversed():
    """`graphical.batch_envelope` returning its snapshots in reverse time
    order, so density curves are reported back to front."""
    from envspin import graphical

    original = graphical.batch_envelope

    def reversed_snapshots(*args, **kwargs):
        times, snaps, violations = original(*args, **kwargs)
        return times, snaps[::-1], violations

    graphical.batch_envelope = reversed_snapshots
    try:
        yield
    finally:
        graphical.batch_envelope = original


def _planted_runs():
    """(name, workload factory, program patch, run kwargs, check kwargs,
    check names that must fail)."""
    import workloads

    lw = workloads.LargeWindow
    none = contextlib.nullcontext
    return [
        (
            "exact-window: death rates 10% high in the 1e5-replica simulators",
            lambda seed: _exact_mc(seed, 1.10), none, {}, {},
            ["batch_evolve", "batch_envelope lower", "batch_envelope upper", "batch_simulate_pair"],
        ),
        (
            "exact-window: death rates 30% high in simulate_coupled (1e3 runs)",
            lambda seed: _exact_mc(seed, 1.30), none, {}, {},
            ["simulate_coupled"],
        ),
        (
            "large-window: spontaneous birth 0.5 at 000",
            lambda seed: lw(seed, spec=_defective_spec(lw(seed).spec, birth=0.5)), none, {}, {},
            ["density from the all-zero start left 0"],
        ),
        (
            "large-window: batch_envelope snapshots in reverse time order",
            lw, _snapshots_reversed, {}, {},
            ["density from ones"],
        ),
        (
            "large-window: death rate 8 at 111 breaks attractivity, engine order checks off",
            lambda seed: lw(seed, spec=_defective_spec(lw(seed).spec, top_death=8.0)), none,
            {"check_order": False}, {},
            ["lower <= middle <= upper"],
        ),
        (
            "run-counts: own run counts on windows shifted by one site",
            workloads.RunCounts, none, {}, {"shift": 1},
            ["window ["],
        ),
    ]


def _one_round(workload, workdir, patch=contextlib.nullcontext, run_kwargs=None, check_kwargs=None):
    from workloads import Round

    call = Round()
    start = time.perf_counter()
    with patch():
        out = workload.run(call, workdir, **(run_kwargs or {}))
    elapsed = time.perf_counter() - start
    ck = workload.check(out, **(check_kwargs or {}))
    return call, ck, elapsed


def sweep(seeds, workdir):
    import workloads

    report = {}
    for name in WORKLOADS:
        tests, exact_failures, op_failures = {}, [], 0
        level = None
        for seed in seeds:
            call, ck, elapsed = _one_round(workloads.WORKLOADS[name](seed), workdir)
            op_failures += call.failed
            exact_failures += ["seed %d: %s" % (seed, f) for f in ck.failures]
            level = ck.per_test_level
            for test, p, _ in ck.tests:
                tests.setdefault(test, []).append(p)
            print("%s seed %d: %.1f s, %d exact failures, min p %.3g" % (
                name, seed, elapsed, len(ck.failures), min((p for _, p, _ in ck.tests), default=1.0)))
        report[name] = {
            "seeds": len(seeds),
            "family_level": workloads.stats.FAMILY_LEVEL,
            "per_test_level": level,
            "failed_operations": op_failures,
            "exact_check_failures": exact_failures,
            "tests": {
                test: {
                    "rejected": sum(p < level for p in ps),
                    "min_p": min(ps),
                    "share_below_0.05": sum(p < 0.05 for p in ps) / len(ps),
                    "share_below_0.01": sum(p < 0.01 for p in ps) / len(ps),
                }
                for test, ps in tests.items()
            },
        }
        runs_rejected = sum(
            any(p < level for p in ps_seed)
            for ps_seed in zip(*tests.values())
        ) if tests else 0
        report[name]["runs_with_a_false_alarm"] = runs_rejected
    return report


def planted(seeds, workdir):
    report = []
    for label, factory, patch, run_kwargs, check_kwargs, must_fail in _planted_runs():
        caught = 0
        for seed in seeds:
            workload = factory(seed)
            call, ck, _ = _one_round(workload, workdir, patch, run_kwargs, check_kwargs)
            failures = ck.all_failures()
            missed = [m for m in must_fail if not any(f.startswith(m) for f in failures)]
            caught += not missed
            print("%s, seed %d: %s" % (label, seed, "caught" if not missed else "MISSED %s" % missed))
        report.append({"defect": label, "seeds": len(seeds), "caught": caught, "checks": must_fail})
    return report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=40)
    p.add_argument("--planted", action="store_true")
    args = p.parse_args(argv)
    run.load_package()
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.seeds))
    workdir = run.OUT_DIR / ("sweep-%d" % os.getpid())
    try:
        if args.planted:
            result = {"planted": planted(seeds, workdir)}
            ok = all(r["caught"] == r["seeds"] for r in result["planted"])
            name = "planted.json"
        else:
            result = sweep(seeds, workdir)
            ok = all(not r["exact_check_failures"] and not r["failed_operations"] for r in result.values())
            name = "seed_sweep.json"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.OUT_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
