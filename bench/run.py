"""Benchmark of envspin: one workload per run, with correctness checks.

    python3 bench/run.py --workload large-window --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's `src/`, never from an installed copy.  The run

1. runs rounds of the workload's program calls until `--seconds` of wall
   time have passed; every round makes the same calls on the same inputs,
   and the pace probe (`pace.py`) runs between consecutive rounds;
2. checks the first round's outputs (`workloads.py`), and every later round
   by its output digest;
3. with `--trace 0`, times set-up (`setup_s`) in seven fresh processes that
   start Python, import envspin and build the workload's inputs from the
   seed, one after each of the first rounds, each between two pace probes;
4. prints one JSON object as its last line of output: `correct`, operations
   `attempted` and `failed`, and the metrics.

Times are paced: a round's (or set-up process's) wall time times
`pace.REFERENCE_S` over the mean of the probes right before and after it, so
that the machine's slow and fast spells cancel.  With `--trace 0` the metrics
are end to end: `time_to_verdict_s` (the program calls' wall time summed over
rounds, times `pace.REFERENCE_S` over the rounds' summed pace: a paced mean
round time), `setup_s` (median paced set-up time) and `peak_rss_mb`.  With
`--trace 1`, rounds alternate between traced and untraced, and the metrics
are per layer (see README.md); spans are written to
`bench/out/<workload>-seed<seed>.spans.csv`.

BLAS is pinned to one thread, so the oracle's dense solves run
single-threaded like the rest of the program and their timing does not depend
on how many cores are idle.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = "1"
SETUP_PROBES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    """Import envspin from this checkout's src/ with BLAS pinned; exits with
    code 2 when the checkout holds no source."""
    if not (SRC / "envspin" / "__init__.py").is_file():
        print("bench: no envspin source under %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import envspin

    if Path(envspin.__file__).resolve().parent != (SRC / "envspin").resolve():
        print("bench: imported envspin from %s, not from %s" % (envspin.__file__, SRC), file=sys.stderr)
        raise SystemExit(2)


def setup_probe(args):
    """Wall time of one fresh process that only sets up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    start = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Pacer:
    """Runs the pace probe between measured steps and paces their times.

    Every step runs between two probes; a step's pace is the mean of the two,
    and its paced time is its wall time times REFERENCE_S over that pace."""

    def __init__(self):
        import pace

        self.probe = pace.probe
        self.reference = pace.REFERENCE_S
        self.last = self.probe()
        self.probes = [self.last]

    def __call__(self, fn, *args):
        """fn(*args) and the pace of the step: (result, pace)."""
        before = self.last
        result = fn(*args)
        self.last = self.probe()
        self.probes.append(self.last)
        return result, (before + self.last) / 2.0

    def paced(self, seconds, pace):
        return seconds * self.reference / pace


def peak_rss_mb():
    """Peak resident set of this process and of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def run_round(workload, workdir, tracer=None):
    from workloads import Round

    call = Round()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        outputs = workload.run(call, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return call, outputs


# per-layer metrics read straight from the tracer's summaries
TRACED_METRICS = (
    ("graphical.batch_evolve.busy_s", "s"),
    ("graphical.batch_envelope.busy_s", "s"),
    ("graphical.replica_site_time", "replica_site_t"),
    ("functionals.busy_s", "s"),
    ("functionals.calls", "count"),
    ("oracle.build_generator.busy_s", "s"),
    ("oracle.build_coupled_generator.busy_s", "s"),
    ("oracle.stationary_set.busy_s", "s"),
    ("oracle.limit_distributions.busy_s", "s"),
    ("oracle.semigroup_apply.busy_s", "s"),
    ("oracle.semigroup_apply.calls", "count"),
    ("oracle.states", "count"),
    ("coupling.simulate_coupled.busy_s", "s"),
    ("coupling.simulate_coupled.flips", "count"),
    ("coupling.batch_simulate_pair.busy_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.bytes_written", "B"),
)


def per_layer_metrics(traced, untraced, peak_alloc, paced_verdict, probes):
    """Medians over traced rounds of the tracer's summaries, with rates,
    layer shares, the tracing overhead (paced) and the pace probe's time."""
    from spans import LAYERS

    summaries = [s for _, s in traced]
    keys = {k for s in summaries for k in s}
    med = defaultdict(float, {k: statistics.median(s.get(k, 0) for s in summaries) for k in keys})
    traced_verdict = paced_verdict([c for c, _ in traced])
    untraced_verdict = paced_verdict(untraced)
    traced_wall = statistics.median(c.elapsed for c, _ in traced)

    def rate(count, busy):
        return count / busy if busy > 0 else 0.0

    engine_busy = med["graphical.batch_evolve.busy_s"] + med["graphical.batch_envelope.busy_s"]
    metrics = {name: (med[name], unit) for name, unit in TRACED_METRICS}
    metrics.update({
        "graphical.replica_site_time_per_s": (rate(med["graphical.replica_site_time"], engine_busy),
                                              "replica_site_t/s"),
        "graphical.peak_alloc_mb": (peak_alloc / 1e6, "MB"),
        "functionals.calls_per_s": (rate(med["functionals.calls"], med["functionals.busy_s"]), "1/s"),
        "coupling.simulate_coupled.flips_per_s": (
            rate(med["coupling.simulate_coupled.flips"], med["coupling.simulate_coupled.busy_s"]), "1/s"),
        "trace.overhead_s": (traced_verdict - untraced_verdict, "s"),
        "trace.time_to_verdict_s": (traced_verdict, "s"),
        "trace.untraced_time_to_verdict_s": (untraced_verdict, "s"),
        "pace.probe_s": (statistics.median(probes), "s"),
    })
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (med[layer + ".self_s"], "s")
        metrics[layer + ".share"] = (med[layer + ".self_s"] / traced_wall, "fraction")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads
    from spans import Tracer, write_spans

    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    workdir = OUT_DIR / ("%s-%d" % (args.workload, os.getpid()))
    failures = []
    setup = []  # (wall, pace) of each set-up process
    try:
        pacer = Pacer()
        deadline = time.perf_counter() + args.seconds

        def paced_round(tracer=None):
            (call, outputs), pace = pacer(run_round, workload, workdir, tracer)
            call.pace = pace
            if not args.trace and len(setup) < SETUP_PROBES:
                setup.append(pacer(setup_probe, args))
            return call, outputs

        first, outputs = paced_round()
        failures += workload.check(outputs).all_failures()
        reference_digest = workloads.digest(outputs)
        rounds = [first]
        untraced, traced = [first], []
        tracer = Tracer() if args.trace else None
        peak_alloc = 0
        if tracer is not None:
            # engine allocation is measured in a round of its own, whose
            # timings are discarded: tracemalloc slows the engine down
            tracer.track_alloc = True
            call, outputs = paced_round(tracer)
            tracer.track_alloc = False
            peak_alloc = tracer.peak_alloc
            rounds.append(call)
        span_rounds = []
        while time.perf_counter() < deadline or (tracer is not None and not traced):
            # a run too short for a traced round still makes one
            use_trace = tracer is not None and len(traced) <= len(untraced) - 1
            call, outputs = paced_round(tracer if use_trace else None)
            rounds.append(call)
            if use_trace:
                traced.append((call, tracer.summary()))
                span_rounds.append((len(rounds) - 1, list(tracer.spans)))
            else:
                untraced.append(call)
            if workloads.digest(outputs) != reference_digest:
                failures.append("round %d outputs differ from round 0" % (len(rounds) - 1))
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(pacer(setup_probe, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def paced_verdict(calls):
        # a ratio of totals: the median of a run's 4 to 25 paced rounds
        # spread twice as much from run to run (bench/README.md)
        return pacer.paced(sum(c.elapsed for c in calls), sum(c.pace for c in calls))

    if args.trace:
        write_spans(OUT_DIR / ("%s-seed%d.spans.csv" % (args.workload, args.seed)), span_rounds)
        metrics = per_layer_metrics(traced, untraced, peak_alloc, paced_verdict, pacer.probes)
    else:
        metrics = {
            "time_to_verdict_s": (paced_verdict(untraced), "s"),
            "setup_s": (statistics.median(pacer.paced(wall, pace) for wall, pace in setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    for line in dict.fromkeys(e for c in rounds for e in c.errors):
        print("FAILED OPERATION: %s" % line)
    for line in dict.fromkeys(failures):
        print("FAILED CHECK: %s" % line)
    print("rounds: %d (%d traced); BLAS threads: %s; program wall/CPU/pace seconds per round: %s"
          % (len(rounds), len(traced), BLAS_THREADS,
             " ".join("%.3f/%.3f/%.3f" % (c.elapsed, c.cpu, c.pace) for c in rounds)))
    if setup:
        print("set-up wall/pace seconds: %s" % " ".join("%.3f/%.3f" % step for step in setup))
    result = {
        "correct": not failures,
        "attempted": sum(c.attempted for c in rounds),
        "failed": sum(c.failed for c in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
