"""Spin systems on a finite 1D window whose flip rates are switched by a
randomly evolving background layer: simulators, maximal couplings, run-count
functionals and an exact finite-state oracle."""

from .lattice import (
    PERIODIC,
    Configuration,
    FrozenWords,
    JointState,
    Periodic,
    leq,
)
from .rates import (
    DerivedConstants,
    EnvRateSpec,
    LocalSpinRates,
    ModelSpec,
    ModelViolationError,
    PerLayerFrozen,
    SpinRatePair,
    check_attractive,
    check_compatible,
    dominating_rates,
    format_config,
    max_rate,
    min_boundary_pair_sum,
    parse_config,
    preset,
)
from .functionals import (
    IntervalStats,
    check_window_monotone,
    interior_run_histogram,
    interval_run_count,
    interval_stats,
    run_counts,
    window_run_counts,
)
from .graphical import (
    EventStream,
    Trajectory,
    batch_envelope,
    batch_evolve,
    evolve,
    window_rates,
)
from .coupling import (
    AgreementClass,
    CoupledSpec,
    batch_simulate_pair,
    classify_agreement,
    coupled_event_rates,
    simulate_coupled,
)
from .oracle import (
    GeneratorMatrix,
    StationarySet,
    build_coupled_generator,
    build_generator,
    limit_distributions,
    semigroup_apply,
    stationary_set,
    total_variation,
)
from .experiments import (
    EstimateReport,
    calibrate_burn_in,
    density_curves,
    estimate_coalescence,
    interval_inequality_check,
    run_length_decay,
    scenario_remarks,
)

__version__ = "0.1.0"
