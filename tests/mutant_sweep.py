"""Planted defects in the engines, the functionals and their checks, and whether the tests kill them (not part of tier 1).

    python tests/mutant_sweep.py [NAME ...]

Each mutant is one exact substitution (file under src/, old text, new text)
and the tests that must fail once it is made.  The sweep first runs every
named test on an unchanged copy of the tree, then, per mutant (or per mutant
named on the command line), copies `src/`, `tests/` and `pyproject.toml` to
a temporary directory, makes the substitution there and runs the mutant's
tests with pytest.  A mutant is killed when a test fails (pytest exit 1);
any other exit, such as a test that is not found, is an error.  A mutant
marked equivalent cannot change behaviour and is expected to survive.
Prints one line per mutant and exits 1 when a mutant that is not marked
equivalent survives or errs, or when an old text does not occur exactly
once under `src/`.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    equivalent: bool = False


GRAPHICAL = "envspin/graphical.py"
LATTICE = "envspin/lattice.py"
RATES = "envspin/rates.py"
ORACLE = "envspin/oracle.py"
FUNCTIONALS = "envspin/functionals.py"
GOLDEN = "tests/test_engine_golden.py::test_engine_output_matches_golden_digest"
KEYINGS = "tests/test_graphical.py::test_neighbourhood_words_match_lut_keys"
BRUTE_RUNS = "tests/test_functionals.py::test_window_run_counts_matches_brute_force"
CORNER = "tests/test_experiments.py::test_run_length_decay_interior_totals_equal_window_run_counts_summed"
PROOFS_SHARED = "tests/test_graphical.py::test_order_proofs_are_shared_only_by_calls_of_one_start"

MUTANTS = (
    Mutant(
        "joint-table key rows without the atom offset", GRAPHICAL,
        "share[kind, halo] + offset[:, None]]", "share[kind, halo]]",
        (GOLDEN,),
    ),
    Mutant(
        "strict comparison in _ranks", GRAPHICAL,
        "rank += u >= row.take(bins)", "rank += u > row.take(bins)",
        ("tests/test_graphical.py::test_rank_lookup_matches_binary_search",),
    ),
    Mutant(
        "flip count reads the next bit", GRAPHICAL,
        "flips[f] += int(np.count_nonzero(mask & (1 << f)))", "flips[f] += int(np.count_nonzero(mask & (2 << f)))",
        ("tests/test_graphical.py::test_batch_counters_add_up",),
    ),
    Mutant(
        "spin attractivity scanned on one neighbour bit", RATES,
        "_monotone_violations(v, (0b001, 0b100), 0b010)", "_monotone_violations(v, (0b001,), 0b010)",
        ("tests/test_rates.py::test_covering_pair_scan_matches_all_comparable_pairs",),
    ),
    Mutant(
        "background attractivity scanned on the center bit too", RATES,
        "bits = [1 << k for k in range(2 * self.range + 1) if k != self.range]",
        "bits = [1 << k for k in range(2 * self.range + 1)]",
        ("tests/test_rates.py::test_covering_pair_scan_matches_all_comparable_pairs",),
    ),
    Mutant(
        "byte apply drops the XOR", GRAPHICAL,
        "np.bitwise_xor(b[halo], mask[i:j], out=new[i:j])", "np.bitwise_xor(b[halo], 0, out=new[i:j])",
        (GOLDEN,),
    ),
    Mutant(
        "byte apply skips the crossing check", GRAPHICAL,
        "            if check:\n", "            if False:\n",
        ("tests/test_engine_golden.py::test_raised_crossing_names_the_first_crossed_pair",
         "tests/test_graphical.py::test_order_proof_fails_for_a_non_attractive_table"),
    ),
    Mutant(
        "byte apply flags every ring as a spin ring", GRAPHICAL,
        "            return mask, spin_rank.take(rank)\n", "            return mask, rank >= 0\n",
        ("tests/test_graphical.py::test_schedule_alone_gives_the_ring_counters_of_either_path",),
    ),
    Mutant(
        "word apply skips the write", GRAPHICAL,
        'step_of.take(rank[i:j], out=words[lo:hi], mode="clip")', 'step_of.take(rank[i:j], mode="clip")',
        ("tests/test_graphical.py::test_whole_window_words_match_the_byte_path",),
    ),
    Mutant(
        "_may_cross always False", GRAPHICAL,
        "        if crossed.take(masks[:, fine] ^ center).any():\n            return True",
        "        if crossed.take(masks[:, fine] ^ center).any():\n            return False",
        ("tests/test_graphical.py::test_order_proof_fails_for_a_non_attractive_table",),
    ),
    Mutant(
        "expected events without the event budget", GRAPHICAL,
        "    if rate * t > EVENT_BUDGET:\n", "    if False:\n",
        ("tests/test_graphical.py::test_lockstep_horizons_over_the_event_budget_are_refused_before_any_draw",
         "tests/test_graphical.py::test_pair_horizons_over_the_event_budget_are_refused_before_any_draw",
         "tests/test_graphical.py::test_coupled_horizons_over_the_event_budget_are_refused_before_any_draw",
         "tests/test_oracle.py::test_semigroup_refuses_a_horizon_over_the_event_budget_before_any_product"),
    ),
    Mutant(
        "horizon rule accepts +inf", LATTICE,
        "    if not 0 <= x < np.inf:\n", "    if not 0 <= x <= np.inf:\n",
        ("tests/test_graphical.py::test_non_finite_or_negative_horizons_are_refused_before_any_draw",
         "tests/test_oracle.py::test_semigroup_refuses_a_horizon_that_is_not_finite_and_nonnegative"),
    ),
    Mutant(
        "count rule accepts a bool", LATTICE,
        "not isinstance(value, bool) and isinstance(value, (int, np.integer))",
        "isinstance(value, (int, np.integer))",
        ("tests/test_graphical.py::test_batch_engines_refuse_a_replica_count_that_is_not_a_positive_integer",
         "tests/test_graphical.py::test_event_stream_refuses_a_seed_that_is_not_an_integer_of_at_least_0",
         "tests/test_experiments.py::test_interval_inequality_check_refuses_a_run_length_that_is_not_a_positive_integer"),
    ),
    Mutant(
        "start-size rule accepts any size", LATTICE,
        "    if sites != n:\n", "    if False:\n",
        ("tests/test_coupling.py::test_simulate_coupled_refuses_a_start_of_another_size",
         "tests/test_coupling.py::test_pair_byte_path_refuses_a_start_of_another_size",
         "tests/test_coupling.py::test_pair_word_path_refuses_a_start_of_another_size",
         "tests/test_graphical.py::test_evolve_refuses_a_start_of_another_size"),
    ),
    Mutant(
        "neighbourhood words combine the slots in reversed order", GRAPHICAL,
        "for s in range(slots - 1, 0, -1):\n                    key |= b[s]\n"
        "                    key <<= n_fields\n                key |= b[0]\n",
        "for s in range(slots - 1):\n                    key |= b[s]\n"
        "                    key <<= n_fields\n                key |= b[slots - 1]\n",
        (GOLDEN, KEYINGS),
    ),
    Mutant(
        "neighbourhood words without the ring's atom", GRAPHICAL,
        "keys_of = (atom << n_fields).take", "keys_of = (0 * atom).take",
        (GOLDEN, KEYINGS),
    ),
    Mutant(
        # owners that hash alike and compare equal: a plan is found by the
        # tables and size alone, whatever fields and groups it was built for
        "lockstep plan keyed without the field owners", GRAPHICAL,
        "spec.spin, spec.env, n, tuple(owner)",
        'spec.spin, spec.env, n, type("Unkeyed", (tuple,), {"__hash__": lambda s: 0, "__eq__": lambda s, o: True})(owner)',
        ("tests/test_graphical.py::test_plans_are_shared_only_by_calls_of_one_shape",),
    ),
    Mutant(
        "lockstep plan arrays left writeable", GRAPHICAL,
        "            array.flags.writeable = False\n", "            array.flags.writeable = True\n",
        ("tests/test_graphical.py::test_plan_arrays_are_read_only",),
    ),
    Mutant(
        "order proof memo keyed without the census", GRAPHICAL,
        "key = (shape, present.tobytes(), edge.tobytes(), check_order)",
        "key = (shape, edge.tobytes(), check_order)",
        (PROOFS_SHARED,),
    ),
    Mutant(
        "order proof memo keyed without check_order", GRAPHICAL,
        "key = (shape, present.tobytes(), edge.tobytes(), check_order)",
        "key = (shape, present.tobytes(), edge.tobytes())",
        (PROOFS_SHARED,),
    ),
    Mutant(
        "class certificate without its jump-out check", ORACLE,
        "    if ((src >= 0) & (src != dst)).any():\n", "    if False:\n",
        ("tests/test_oracle.py::test_class_certificate_flags_planted_wrong_classes",),
    ),
    Mutant(
        "stationary_set without its residual check", ORACLE,
        "    if resid > RESIDUAL_TOL:\n", "    if False:\n",
        ("tests/test_oracle.py::test_stationary_set_flags_a_law_that_is_not_stationary",),
    ),
    Mutant(
        "replay without its old-value check", GRAPHICAL,
        "            if work[e.layer][e.site] != e.old:\n", "            if False:\n",
        ("tests/test_graphical.py::test_replay_refuses_an_event_whose_old_value_does_not_match",),
    ),
    Mutant(
        "run counts read the upper stretch bound one site short", FUNCTIONALS,
        "before[base + bounds[:, 1:] + 1]", "before[base + bounds[:, 1:]]",
        (BRUTE_RUNS,),
    ),
    Mutant(
        "non-strict interior test: a run's own first site stands for the site before it", FUNCTIONALS,
        "lead, trail = at[starts] + shift", "lead, trail = at[starts + 1] + shift",
        (BRUTE_RUNS,),
    ),
    Mutant(
        # a run whose lead is a window's start is then not interior to it
        "corner count ranks leads among the starts below them", FUNCTIONALS,
        'np.searchsorted(starts, columns, "right")', 'np.searchsorted(starts, columns, "left")',
        (CORNER,),
    ),
    Mutant(
        # a run whose trail is a window's end is then not interior to it
        "corner count ranks trails among the ends at or below them", FUNCTIONALS,
        'np.searchsorted(ends, columns, "left")', 'np.searchsorted(ends, columns, "right")',
        (CORNER,),
    ),
    Mutant(
        "corner count sums the lead ranks forward", FUNCTIONALS,
        "np.cumsum(table[::-1], axis=0, out=table[::-1])", "np.cumsum(table, axis=0, out=table)",
        (CORNER,),
    ),
    Mutant(
        "window_rates opens an up-window at its upper end", GRAPHICAL,
        "events.append((lo if ctr == 0 else hi, ctr, k))", "events.append((hi if ctr == 0 else lo, ctr, k))",
        ("tests/test_acceptance.py::test_criterion_2_coupling_table_identity",),
    ),
    Mutant(
        "generator diagonal summed over the incoming rates", ORACLE,
        "diag = -np.bincount(rows, weights=vals, minlength=dim)", "diag = -np.bincount(cols, weights=vals, minlength=dim)",
        ("tests/test_oracle.py::test_remark_vi_staircases_absorbing",),
    ),
)


def occurrences(text):
    """Per file under src/ (relative to it) that holds `text`, how often."""
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        n = path.read_text().count(text)
        if n:
            counts[path.relative_to(SRC).as_posix()] = n
    return counts


def run_tests(tree, tests):
    """pytest's exit code for `tests` run in the copied tree, and its seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - start


def copy_tree(into):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into)
    return into


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    stale = [m.name for m in chosen if occurrences(m.old) != {m.path: 1}]
    if stale:
        print("old text not found exactly once under src/: %s" % "; ".join(stale))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(Path(tmp) / "clean")
        code, seconds = run_tests(tree, sorted({t for m in chosen for t in m.tests}))
        print("unchanged tree: named tests %s (%.1f s)" % ("pass" if code == 0 else "FAIL", seconds))
        if code != 0:
            return 1
        survivors = []
        for k, m in enumerate(chosen):
            tree = copy_tree(Path(tmp) / ("mutant%d" % k))
            target = tree / "src" / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            code, seconds = run_tests(tree, list(m.tests))
            if code == 0:
                verdict = "equivalent" if m.equivalent else "SURVIVED"
            else:
                verdict = "killed" if code == 1 else "ERROR"
            print("%-10s %s (pytest exit %d, %.1f s)" % (verdict, m.name, code, seconds))
            if verdict in ("SURVIVED", "ERROR"):
                survivors.append(m.name)
            shutil.rmtree(tree)
    print("%d mutants, %d survived unmarked or erred" % (len(chosen), len(survivors)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
