"""Mean-field linear-quadratic stochastic control.

Solves the coupled Riccati system of a linear SDE whose coefficients see
the state's expectation, assesses closed-loop solvability, synthesizes the
optimal feedback-plus-offset strategy with its value, and cross-checks the
results by simulation and independent oracles.
"""

from .errors import FiniteEscapeError, ValidationError
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    TimeGrid,
    make_problem,
    sample_path,
    strip_inhomogeneous,
    validate,
)
from .riccati import (
    ConditionVerdict,
    GreSolution,
    MidpointData,
    RegularityReport,
    assess_regularity,
    dense_midpoints,
    integrate_gre,
)
from .affine import AffineSolution, CorrectionSet, solve_affine
from .synthesis import ClosedLoopSolution, closed_loop, synthesize, value
from .moments import (
    MomentPath,
    batch_cost,
    homogeneous_cost,
    propagate_moments,
    stationarity_residual,
)
from .sim import SimulationReport, estimate_cost, mean_ode, sample_stderr, simulate
from .verify import (
    CheckResult,
    CompletionResult,
    QpOracleResult,
    VerificationReport,
    classical_degeneration,
    completion_check,
    lower_bound_battery,
    qp_oracle,
)
from .presets import (
    PRESET_NAMES,
    example31,
    example31_null_control,
    get_preset,
    random_spd,
    scalar_classic,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSolution",
    "CheckResult",
    "ClosedLoopSolution",
    "CompletionResult",
    "ConditionVerdict",
    "ControlSpec",
    "CorrectionSet",
    "FiniteEscapeError",
    "GreSolution",
    "InitialLaw",
    "MatrixPath",
    "MidpointData",
    "MomentPath",
    "NoiseAffinePath",
    "PRESET_NAMES",
    "ProblemData",
    "QpOracleResult",
    "RegularityReport",
    "SimulationReport",
    "TimeGrid",
    "ValidationError",
    "VerificationReport",
    "assess_regularity",
    "batch_cost",
    "classical_degeneration",
    "closed_loop",
    "completion_check",
    "dense_midpoints",
    "estimate_cost",
    "example31",
    "example31_null_control",
    "get_preset",
    "homogeneous_cost",
    "integrate_gre",
    "lower_bound_battery",
    "make_problem",
    "mean_ode",
    "propagate_moments",
    "qp_oracle",
    "random_spd",
    "sample_path",
    "sample_stderr",
    "scalar_classic",
    "simulate",
    "solve_affine",
    "stationarity_residual",
    "strip_inhomogeneous",
    "synthesize",
    "validate",
    "value",
]
