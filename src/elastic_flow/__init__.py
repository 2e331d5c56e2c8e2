"""Numerical lab for the regularized curvature flow of pinned plane curves."""

import os

# No BLAS call of the lab is large enough to split across threads, yet each
# OpenBLAS copy (numpy's at import, SciPy's at the first solve) starts a
# worker per further core that spins on load. So BLAS loads with one thread,
# unless the caller has chosen a thread count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .convergence import (
    ConvergenceReport,
    SweepConfig,
    ck_distance,
    run_sweep,
)
from .errors import (
    BadExponent,
    BadParams,
    ConfigError,
    CurveError,
    DegenerateCurve,
    IoError,
    OutOfDomain,
    ReparamFailure,
    SingularityDetected,
    SolverFailure,
    WindowMismatch,
)
from .estimates import (
    DIAGNOSTICS,
    boundary_residuals,
    comparison_check,
    dissipation_residual,
    energy,
    gn_check,
)
from .flow import (
    FlowConfig,
    FlowState,
    Terminated,
    Trajectory,
    curvature_evolution_rhs,
    run,
    step,
)
from .geometry import (
    DiscreteCurve,
    GeometryCache,
    compute_geometry,
    make_initial_curve,
    reparametrize_constant_speed,
)
from .gronwall import GronwallSetup, GronwallSolution, doubling_time, gronwall_solve

__all__ = [
    "BadExponent",
    "BadParams",
    "ConfigError",
    "ConvergenceReport",
    "CurveError",
    "DIAGNOSTICS",
    "DegenerateCurve",
    "DiscreteCurve",
    "FlowConfig",
    "FlowState",
    "GeometryCache",
    "GronwallSetup",
    "GronwallSolution",
    "IoError",
    "OutOfDomain",
    "ReparamFailure",
    "SingularityDetected",
    "SolverFailure",
    "SweepConfig",
    "Terminated",
    "Trajectory",
    "WindowMismatch",
    "boundary_residuals",
    "ck_distance",
    "comparison_check",
    "compute_geometry",
    "curvature_evolution_rhs",
    "dissipation_residual",
    "doubling_time",
    "energy",
    "gn_check",
    "gronwall_solve",
    "make_initial_curve",
    "reparametrize_constant_speed",
    "run",
    "run_sweep",
    "step",
]
