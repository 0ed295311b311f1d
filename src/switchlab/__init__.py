"""Simulator and analytics toolkit for n x n input-queued switches under
cost-weighted MaxWeight scheduling."""

from .analytics import (
    LowerBoundResult,
    SscCurve,
    ZetaReport,
    ZetaResult,
    cross_validated_zeta,
    ht_limit,
    n2_closed_form,
    ssc_curve,
    universal_lower_bound,
    zeta_gmatrix,
    zeta_projection,
)
from .scheduling import (
    Schedule,
    enumerate_argmax,
    max_weight_schedule,
    schedule_weight,
)
from .simulator import (
    DriftDiagnostics,
    QueueState,
    RunConfig,
    RunStats,
    SlotRecord,
    drift_diagnostics,
    run,
    step,
)
from .traffic import ArrivalModel, MomentVector, face_check, uniform_nu
from .wlinalg import (
    ConeProjection,
    CostMatrix,
    SingularMatrixError,
    cdot,
    cnorm2,
    project_cone,
    project_space,
    solve_dense,
)

__version__ = "0.1.0"
