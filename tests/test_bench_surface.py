"""The envspin names and call shapes that the benchmark harness relies on.

`bench/spans.py` wraps every function named in its `TRACED` table by
`getattr` on the envspin module, so a removed or renamed function breaks
every traced benchmark run; `bench/workloads.py` also passes some arguments
by keyword, reads attributes and return shapes of tables, specs, engine
results and generators, and drives `envspin` command lines through
`cli.main`.  All are checked here without running the harness.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"

# (module, function, positional argument count, keyword names) of each call
# that bench/workloads.py makes
BENCH_CALLS = [
    ("graphical", "batch_evolve", 6, ("check_order",)),
    ("graphical", "batch_envelope", 4, ()),
    ("experiments", "run_length_decay", 5, ("initial",)),
    ("experiments", "scenario_remarks", 1, ("sites",)),
    ("experiments", "interval_inequality_check", 6, ("l",)),
    ("experiments", "density_curves", 4, ()),
    ("oracle", "build_generator", 1, ()),
    ("oracle", "build_coupled_generator", 2, ()),
    ("oracle", "stationary_set", 1, ()),
    ("oracle", "limit_distributions", 1, ()),
    ("oracle", "semigroup_apply", 3, ()),
    ("coupling", "batch_simulate_pair", 6, ()),
    ("coupling", "simulate_coupled", 4, ()),
    ("cli", "main", 1, ()),
]


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_exists():
    missing = [
        "%s.%s" % (layer, name)
        for layer, calls in _traced().items()
        for name in calls
        if not callable(getattr(importlib.import_module("envspin." + layer), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize("module, name, n_args, keywords", BENCH_CALLS)
def test_bench_call_binds(module, name, n_args, keywords):
    fn = getattr(importlib.import_module("envspin." + module), name)
    inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))


def _supercritical_flags():
    """`SUPERCRITICAL_FLAGS` of bench/workloads.py, read without importing the
    harness."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SUPERCRITICAL_FLAGS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py defines no SUPERCRITICAL_FLAGS")


def test_bench_cli_command_lines_parse():
    # the command lines of the exact-window workload's CLI round
    from envspin import cli

    flags = _supercritical_flags()
    parser = cli.build_parser()
    args = parser.parse_args(["oracle", *flags, "--sites", "3", "--out", "w/orc"])
    assert (args.command, args.preset, args.lam, args.sites, args.out) == ("oracle", "cpree", 3.0, 3, "w/orc")
    args = parser.parse_args([
        "scenario", "coalescence", *flags, "--sites", "3", "--window", "1",
        "--tmax", "1", "--replicas", "20000", "--seed", "123", "--out", "w/sco",
    ])
    assert (args.name, args.sites, args.window, args.tmax, args.replicas, args.seed, args.out) == (
        "coalescence", 3, 1, 1.0, 20000, 123, "w/sco"
    )
    args = parser.parse_args(["replay", "w/orc.manifest.json", "--out", "w/orc-replay"])
    assert (args.command, args.manifest, args.out) == ("replay", "w/orc.manifest.json", "w/orc-replay")


def test_bench_attributes_and_return_shapes():
    # the attributes and return shapes that bench/workloads.py and
    # bench/seed_sweep.py read, on a 3-site contact-like spec
    from envspin import coupling, graphical, oracle
    from envspin.rates import EnvRateSpec, LocalSpinRates, ModelSpec, SpinRatePair

    c0 = (0.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0)
    c1 = (0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0)
    pair = SpinRatePair(LocalSpinRates(c0), LocalSpinRates(c1))
    assert (pair.c0.values, pair.c1.values) == (c0, c1)
    env = EnvRateSpec(0, (0.5, 0.25))
    assert (env.table, env.range) == ((0.5, 0.25), 0)
    spec = ModelSpec(pair, env, 3)
    assert spec.require_valid() is spec
    assert (spec.size, spec.env, spec.spin) == (3, env, pair)

    beta0, eta0 = spec.env_config((0, 0, 0)), spec.spin_config((1, 1, 1))
    ev = graphical.batch_evolve(spec, beta0, [eta0], [0.5], 10, 1)
    assert ev.order_violations == 0
    assert ev.background[-1].shape == ev.layers[-1][0].shape == (10, 3)
    out = graphical.batch_envelope(spec, [0.5], 10, 2)
    assert isinstance(out, tuple) and len(out) == 3
    times, snaps, _ = out
    assert times == [0.5] and len(snaps[-1]) == 4

    G = oracle.build_generator(spec)
    assert G.dim == 64 and G.dense().shape == (64, 64)
    s = G.encode([G.bits_to_int((0, 0, 0)), G.bits_to_int((1, 1, 1))])
    assert s == 0b000111 and G.point_mass(s)[s] == 1.0
    assert len(G.rows) == len(G.cols) == len(G.vals) and len(G.diag) == G.dim
    assert coupling.CoupledSpec(spec, 3).arity == 3
