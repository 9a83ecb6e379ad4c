"""False-alarm and planted-defect rates of the chi-square gates (not part of tier 1).

    python tests/gate_sweep.py

Runs the simulators behind criterion 3, the three-layer batch law test, the
`simulate_coupled` pair law test and the lockstep pair law on range-1 and
range-2 backgrounds on SEEDS simulator seeds outside the tests' own and
counts the runs each gate rejects at its level; then hands
them the spec with every death rate too high (10 %, or 30 % for the
3000-replica `simulate_coupled` gate) on PLANTED_SEEDS other seeds and counts
the runs caught.  A calibrated gate rejects a correct simulator on about
GATE_LEVEL of the seeds and catches the planted defect on all of them.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import test_acceptance  # noqa: E402
import test_coupling  # noqa: E402
import test_graphical  # noqa: E402
from _support import GATE_LEVEL  # noqa: E402

SEEDS = 40
PLANTED_SEEDS = 5


def criterion_3(seed, factor):
    return test_acceptance._criterion_3_pvalues(factor, seeds=(5000 + seed, 6000 + seed))


def three_layer_law(seed, factor):
    return [test_coupling._three_layer_law_pvalue(factor, seed=7000 + seed)]


def simulate_coupled_law(seed, factor):
    # replica r of sweep seed s runs on simulator seed 10**6 + 10**4 * s + r
    return [test_coupling._simulate_coupled_marginal_pvalue(factor, seed=10**6 + 10**4 * seed)]


def wider_background_law(seed, factor):
    # case k of `_range_law_pvalues` in sweep seed s runs on engine seed 8000 + 10 s + k
    return test_graphical._range_law_pvalues(factor, seed=8000 + 10 * seed)


def main():
    # each gate splits GATE_LEVEL evenly over its tests
    gates = (
        (criterion_3, GATE_LEVEL / 2, 1.1),
        (three_layer_law, GATE_LEVEL, 1.1),
        (simulate_coupled_law, GATE_LEVEL, 1.3),
        (wider_background_law, GATE_LEVEL / 4, 1.1),
    )
    for gate, level, defect in gates:
        correct = [gate(s, 1.0) for s in range(SEEDS)]
        planted = [gate(1000 + s, defect) for s in range(PLANTED_SEEDS)]
        print(
            "%s: false alarms %d/%d (smallest p %.3g); planted defect caught %d/%d (largest p %.3g)"
            % (
                gate.__name__,
                sum(min(ps) < level for ps in correct),
                SEEDS,
                min(min(ps) for ps in correct),
                sum(max(ps) < level for ps in planted),
                PLANTED_SEEDS,
                max(max(ps) for ps in planted),
            )
        )


if __name__ == "__main__":
    main()
