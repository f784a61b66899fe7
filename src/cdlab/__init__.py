"""Consensus detection laboratory.

Running-consensus detection over deterministically time-varying networks
with correlated Gaussian observations: exact moment/error analysis,
contraction diagnostics, and seeded Monte Carlo cross-validation on
CDL_THREADS workers, its only parallelism (OPENBLAS_NUM_THREADS defaults to 1).
"""

__version__ = "0.1.0"

import os
# Set before numpy loads.  cdlab's products are N x N, N in the hundreds, where a second OpenBLAS thread gains
# no time and spins a core ~0.13 s after each call (2-vCPU host): exact-ring256's cpu_s falls by 44%.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from .analysis import (
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    mixing_residual_curves,
    propagate_moments,
)
from .config import ScenarioConfig, scenario_from_dict, scenario_from_file
from .experiment import (
    ExperimentPlan,
    MonteCarloResult,
    Thresholds,
    check_simulation,
    compare_detectors,
    run_monte_carlo,
)
from .model import (
    GaussianHypothesisPair,
    Hypothesis,
    build_model,
    innovation_stats,
)
from .network import (
    ScheduleSpec,
    WeightSchedule,
    build_schedule,
    check_geometric_decay,
    validate_assumption,
)

__all__ = [
    "ExperimentPlan",
    "GaussianHypothesisPair",
    "Hypothesis",
    "MonteCarloResult",
    "ScenarioConfig",
    "ScheduleSpec",
    "Thresholds",
    "WeightSchedule",
    "__version__",
    "build_model",
    "build_schedule",
    "centralized_error_curve",
    "check_geometric_decay",
    "check_simulation",
    "chernoff_information",
    "compare_detectors",
    "exact_error_curves",
    "innovation_stats",
    "mixing_residual_curves",
    "propagate_moments",
    "run_monte_carlo",
    "scenario_from_dict",
    "scenario_from_file",
    "validate_assumption",
]
