"""False-alarm and planted-defect rates of the chi-square gates (not part of tier 1).

    python tests/gate_sweep.py

Runs the simulators behind criterion 3 and the three-layer batch law test on
SEEDS simulator seeds outside the tests' own and counts the runs each gate
rejects at its level; then hands them the spec with every death rate 10 %
high on PLANTED_SEEDS other seeds and counts the runs caught.  A calibrated
gate rejects a correct simulator on about GATE_LEVEL of the seeds and catches
the planted defect on all of them.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import test_acceptance  # noqa: E402
import test_coupling  # noqa: E402
from _support import GATE_LEVEL  # noqa: E402

SEEDS = 40
PLANTED_SEEDS = 5


def criterion_3(seed, factor):
    return test_acceptance._criterion_3_pvalues(factor, seeds=(5000 + seed, 6000 + seed))


def three_layer_law(seed, factor):
    return [test_coupling._three_layer_law_pvalue(factor, seed=7000 + seed)]


def main():
    # each gate splits GATE_LEVEL evenly over its tests
    for gate, level in ((criterion_3, GATE_LEVEL / 2), (three_layer_law, GATE_LEVEL)):
        correct = [gate(s, 1.0) for s in range(SEEDS)]
        planted = [gate(1000 + s, 1.1) for s in range(PLANTED_SEEDS)]
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
