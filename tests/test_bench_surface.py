"""The envspin names and call shapes that the benchmark harness relies on.

`bench/spans.py` wraps every function named in its `TRACED` table by
`getattr` on the envspin module, so a removed or renamed function breaks
every traced benchmark run; `bench/workloads.py` also passes some arguments
by keyword.  Both are checked here without running the harness.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

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
