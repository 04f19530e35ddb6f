"""Extended projected dynamical systems.

Partial projection of vector fields onto tangent cones along a restricted
subspace of correction directions, for finitely generated constraint sets
and for the sector sets of projection-based control; with a regularization
verifier, a closed-loop simulator, and a brute-force oracle certifying
every projection claim.
"""

from . import errors
from .errors import (
    CqViolated,
    DegenerateKKT,
    DegenerateSector,
    EpdsError,
    Infeasible,
    InitialStateOutsideSet,
    NoFeasiblePoint,
    NotInSet,
    RankDeficient,
    ScenarioError,
    StateExploded,
    ZeroOutputRow,
)
from .geometry import (
    ConstraintSet,
    CqReport,
    PolyhedralCone,
    ScalarConstraint,
    Sector,
    active_set,
    affine_constraint,
    check_cq,
    cone_union,
    lifted_tangent_cone,
    quadratic_constraint,
    sector_tangent_cone,
    tangent_cone,
)
from .krasovskii import (
    KrasovskiiHull,
    VerificationReport,
    krasovskii_vertices,
    sector_krasovskii_vertices,
    verify_equality,
)
from .oracle import oracle_project, oracle_tangent_membership
from .pbc import (
    ClosedLoopSystem,
    Controller,
    GrowthReport,
    Plant,
    RhsEval,
    build_closed_loop,
    closed_loop_rhs,
    growth_check,
    higs_preset,
)
from .projection import (
    ProjectionResult,
    ProjectionSubspace,
    feasible,
    project_partial,
    sector_project,
    sector_subspace,
    vstar_selector,
)
from .scenario import Scenario, build_runtime, scenario_from_json
from .sim import (
    ConvergenceReport,
    InputSignal,
    TimeEmbedded,
    Trace,
    convergence_study,
    drift_correct,
    eval_input,
    integrate,
)

__version__ = "0.1.0"
