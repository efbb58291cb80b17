"""Mean-field equilibrium caching for ultra-dense edge networks.

Solves the coupled backward-value / forward-density system of the caching
game on a (popularity, storage) state space, exposes the resulting
water-filling policy next to popularity-based and random baselines, and
evaluates all three in a stochastic-geometry network simulation driven by
Chinese-restaurant / mean-reverting popularity dynamics.
"""

__version__ = "0.1.0"

from .costs import CostParams
from .demand import CrpState, IpiModel
from .errors import ConfigurationError, PolicyError, SolverError
from .geometry import GeometryConfig, RateModel
from .policies import BaselinePolicy, MfPolicy, PolicyContext, RandomPolicy
from .scenario import ScenarioConfig, load_scenario, serialize_scenario
from .solver import (
    Grid,
    MfeSolution,
    MfgProblem,
    SolverConfig,
    solve_mfe,
)

__all__ = [
    "__version__",
    "BaselinePolicy",
    "ConfigurationError",
    "CostParams",
    "CrpState",
    "GeometryConfig",
    "Grid",
    "IpiModel",
    "MfPolicy",
    "MfeSolution",
    "MfgProblem",
    "PolicyContext",
    "PolicyError",
    "RandomPolicy",
    "RateModel",
    "ScenarioConfig",
    "SolverConfig",
    "SolverError",
    "load_scenario",
    "serialize_scenario",
    "solve_mfe",
]
