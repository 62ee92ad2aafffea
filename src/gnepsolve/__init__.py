"""Solver library and benchmark CLI for generalized Nash equilibrium problems."""

from .core import (
    AdmissibilityError,
    BlockLayout,
    GameInstance,
    IterateState,
    OracleFailure,
    PlayerDualState,
    PlayerProblem,
    SimpleSet,
    ValidationReport,
    initial_state,
    validate_instance,
)
from .lagrangian import (
    PenaltyParams,
    evaluate_point,
    lagrangian_value,
)
from .solver import (
    GammaPolicy,
    LipschitzEstimates,
    LipschitzEstimator,
    SigmaSchedule,
    SolveResult,
    SolveTrace,
    SolverConfig,
    choose_gamma,
    solve,
    verify_run_bounds,
)
from .diagnostics import (
    DiagnosticsReport,
    best_response_gap,
    diagnose,
    kkt_residual,
    saddle_check,
)
from . import library

__version__ = "0.1.0"
