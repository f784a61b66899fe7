"""Consensus detection laboratory.

Running-consensus detection over deterministically time-varying networks
with correlated Gaussian observations: exact moment/error analysis,
contraction diagnostics, and seeded Monte Carlo cross-validation.
"""

__version__ = "0.1.0"

from .analysis import (
    centralized_error_curve,
    chernoff_information,
    exact_error_curves,
    fenchel_legendre,
    fixed_threshold_rates,
    log_mgf,
    mixing_residual_curves,
    propagate_moments,
    rate_function,
    scaled_cumulant,
)
from .config import ScenarioConfig, scenario_from_dict, scenario_from_file
from .detectors import (
    centralized_init,
    centralized_step,
    decide,
    distributed_closed_form,
    distributed_init,
    distributed_step,
)
from .experiment import (
    ExperimentPlan,
    MonteCarloResult,
    Thresholds,
    check_simulation,
    compare_detectors,
    fit_exponent,
    run_monte_carlo,
    subexponential_factor,
)
from .model import (
    GaussianHypothesisPair,
    Hypothesis,
    build_model,
    innovation_stats,
    llr,
    local_innovations,
    sample_observations,
)
from .network import (
    GraphSnapshot,
    ScheduleSpec,
    WeightSchedule,
    build_schedule,
    check_geometric_decay,
    contraction_bound,
    metropolis_weights,
    validate_assumption,
)
from .scenarios import CORPUS, build_scenario, scenario_config, scenario_dict

__all__ = [
    "CORPUS",
    "ExperimentPlan",
    "GaussianHypothesisPair",
    "GraphSnapshot",
    "Hypothesis",
    "MonteCarloResult",
    "ScenarioConfig",
    "ScheduleSpec",
    "Thresholds",
    "WeightSchedule",
    "__version__",
    "build_model",
    "build_scenario",
    "build_schedule",
    "centralized_error_curve",
    "centralized_init",
    "centralized_step",
    "check_geometric_decay",
    "check_simulation",
    "chernoff_information",
    "compare_detectors",
    "contraction_bound",
    "decide",
    "distributed_closed_form",
    "distributed_init",
    "distributed_step",
    "exact_error_curves",
    "fenchel_legendre",
    "fit_exponent",
    "fixed_threshold_rates",
    "innovation_stats",
    "llr",
    "local_innovations",
    "log_mgf",
    "metropolis_weights",
    "mixing_residual_curves",
    "propagate_moments",
    "rate_function",
    "run_monte_carlo",
    "sample_observations",
    "scaled_cumulant",
    "scenario_config",
    "scenario_dict",
    "scenario_from_dict",
    "scenario_from_file",
    "subexponential_factor",
    "validate_assumption",
]
