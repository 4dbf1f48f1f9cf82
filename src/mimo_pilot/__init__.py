"""Multi-cell massive-MIMO uplink simulator with pilot power allocation.

Pilot reuse across cells contaminates channel estimates.  This package
models the hexagonal multi-cell uplink, quantifies the resulting
estimation error and SINR in closed form and by Monte-Carlo, and
allocates pilot powers in the target cell to minimize the average
relative channel estimation error under a total budget and per-user
bounds.
"""

from .airlink import complex_normal, matched_filter_sinr, sample_channels
from .estimators import LS, MMSE, METHODS, check_method
from .harness import (CDF_COLUMNS, EXPERIMENTS, GRID_COLUMNS, ExperimentPlan,
                      MetricReport, bench_allocators, default_config, drop_gains,
                      plan_for, run_experiment, seed_schedule)
from .metrics import (achievable_rate, exp_rcee_bound_mmse, exp_rcee_closed,
                      exp_rcee_eppa_limit, exp_rcee_limit, sinr_closed, sinr_limit)
from .ppa import (InterferenceProfile, PilotAllocation, eppa_profile,
                  exp_rcee_asymptotic, make_objective, objective_value,
                  ppa_allocate, unconstrained_optimum)
from .refsolver import SolveResult, project_bounded_simplex, solve
from .scenario import (ALPHA, ConfigurationError, FixtureFormatError, SystemConfig,
                       attenuation, build_layout, db_to_linear, drop_users,
                       large_scale, load_beta_fixture, sample_shadowing,
                       save_beta_fixture)

__version__ = "0.1.0"

__all__ = [
    "ALPHA", "CDF_COLUMNS", "EXPERIMENTS", "GRID_COLUMNS", "LS", "METHODS",
    "MMSE", "ConfigurationError", "ExperimentPlan",
    "FixtureFormatError", "InterferenceProfile", "MetricReport",
    "PilotAllocation", "SolveResult",
    "SystemConfig",
    "achievable_rate", "attenuation", "bench_allocators", "build_layout",
    "check_method", "complex_normal",
    "db_to_linear", "default_config", "drop_gains", "drop_users", "eppa_profile",
    "exp_rcee_asymptotic", "exp_rcee_bound_mmse", "exp_rcee_closed",
    "exp_rcee_eppa_limit", "exp_rcee_limit",
    "large_scale", "load_beta_fixture", "make_objective", "matched_filter_sinr",
    "objective_value", "plan_for",
    "ppa_allocate", "project_bounded_simplex",
    "run_experiment",
    "sample_channels", "sample_shadowing",
    "save_beta_fixture", "seed_schedule", "sinr_closed", "sinr_limit",
    "solve", "unconstrained_optimum",
]
