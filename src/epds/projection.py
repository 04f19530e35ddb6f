"""Partial projection of a vector into a polyhedral cone along a subspace.

The operator solves

    min |E eta|   subject to   A (v + E eta) >= 0

and returns w = v + E eta*, the minimal-norm correction of v into the cone
with the correction restricted to Im E.  Candidate active subsets of the
cone rows are enumerated exhaustively (instances are tiny, so exactness and
determinism beat asymptotics): for each subset the equality-constrained
least-squares KKT system is solved, and the subset is accepted when the
remaining rows are primal feasible and the multipliers have the right sign.
Under row independence and feasibility the optimum is unique, so the first
passing subset is returned; all passing subsets are still collected so
callers can check uniqueness.

The sector path has a closed form at the origin: per branch, the admissible
vertical velocities form the interval with endpoints k1*edot and k2*edot
(appropriately oriented), and the projection clamps the candidate into it.
When both branches are feasible their optima must coincide; disagreement
raises instead of being merged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import BranchContradiction, Infeasible, DegenerateKKT, NotInSet, RankDeficient
from .geometry import PolyhedralCone, Sector, _as_vector, _readonly, sector_tangent_cone

# Sign tolerance for KKT multipliers.
EPS_DUAL = 1e-10
# Distinct-optima clustering tolerance (duplicates closer than this are one).
EPS_DUP = 1e-9


@dataclass(frozen=True)
class ProjectionSubspace:
    """Subspace of admissible correction directions, Im E.

    ``basis`` is an (ambient_dim x n_E) matrix with linearly independent
    columns, checked by singular values at construction.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if E.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must match the ambient dimension")
        if E.shape[1] < 1:
            raise ValueError("the projection subspace must have n_E >= 1")
        sv = np.linalg.svd(E, compute_uv=False)
        if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
            raise RankDeficient("projection subspace basis is column rank deficient")
        object.__setattr__(self, "basis", _readonly(E))

    @classmethod
    def full(cls, dim: int) -> "ProjectionSubspace":
        return cls(ambient_dim=dim, basis=np.eye(dim))

    @classmethod
    def from_columns(cls, columns) -> "ProjectionSubspace":
        E = np.column_stack([np.asarray(c, dtype=float).reshape(-1) for c in columns])
        return cls(ambient_dim=E.shape[0], basis=E)

    @property
    def n_e(self) -> int:
        return self.basis.shape[1]


def sector_subspace() -> ProjectionSubspace:
    """The vertical correction direction span{(0,1)} of the (e,u)-plane."""
    return ProjectionSubspace(ambient_dim=2, basis=np.array([[0.0], [1.0]]))


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a partial projection.

    w = v + E eta, with ``active_indices`` the cone rows tight at w,
    ``branch`` one of 'none' / 'K' / 'minusK' (sector paths only) and
    ``n_distinct_optima`` the number of distinct optima found among passing
    subsets (must be 1; exposed for the uniqueness suite).
    """

    w: np.ndarray
    eta: np.ndarray
    active_indices: tuple[int, ...]
    correction_norm: float
    branch: str = "none"
    n_distinct_optima: int = 1

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(np.asarray(self.w, dtype=float).reshape(-1)))
        object.__setattr__(self, "eta", _readonly(np.asarray(self.eta, dtype=float).reshape(-1)))


def _cone_matrices(cone: PolyhedralCone, E: ProjectionSubspace, v: np.ndarray):
    """Reduced constraint data G eta >= g in correction coordinates."""
    G = cone.rows @ E.basis
    g = -(cone.rows @ v)
    return G, g


def _phase1_rows(cone: PolyhedralCone, E: ProjectionSubspace, v: np.ndarray):
    """Rows Gn eta >= gn of the cone along v + Im E, each (Gn_i, gn_i)
    scaled to unit norm so the slack threshold is scale-free."""
    G, g = _cone_matrices(cone, E, v)
    norms = np.maximum(np.linalg.norm(np.column_stack([G, g]), axis=1), 1e-30)
    return G / norms[:, None], g / norms


def _phase1_lp(Gn: np.ndarray, gn: np.ndarray) -> float:
    """Least slack t >= 0 with Gn eta + t >= gn, by HiGHS; inf on failure."""
    n_e = Gn.shape[1]
    c = np.zeros(n_e + 1)
    c[-1] = 1.0
    res = scipy.optimize.linprog(
        c,
        A_ub=np.column_stack([-Gn, -np.ones(len(gn))]),
        b_ub=-gn,
        bounds=[(None, None)] * n_e + [(0, None)],
        method="highs",
    )
    return float(res.x[-1]) if res.success else np.inf


def _phase1_scalar(a: list[float], c: list[float]) -> float:
    """Exact least slack t >= 0 with a_i eta + t >= c_i for a scalar eta.

    A row with a_i = 0 needs t >= c_i.  Otherwise t >= max_i (c_i - a_i eta)
    is a maximum of lines in eta; its minimum is unbounded below unless
    slopes of both signs occur, and then it sits where a falling line
    (a_i > 0) meets a rising one (a_j < 0), at the largest such crossing
    value (c_i |a_j| + c_j a_i) / (a_i + |a_j|).
    """
    t = 0.0
    for ai, ci in zip(a, c):
        if ai == 0.0:
            t = max(t, ci)
        elif ai > 0.0:
            for aj, cj in zip(a, c):
                if aj < 0.0:
                    t = max(t, (ci * -aj + cj * ai) / (ai - aj))
    return t


def feasible(cone: PolyhedralCone, E: ProjectionSubspace, v) -> bool:
    """Whether the cone meets v + Im E, by a phase-1 feasibility problem.

    Minimizes a single slack t with A(v + E eta) + t >= 0, t >= 0; the
    intersection is nonempty exactly when the optimal t is (numerically)
    zero.  For n_E = 1 the optimum has a closed form; larger subspaces
    solve the LP.  Union cones are out of contract here; the sector path
    handles them branch by branch.
    """
    if not cone.convex:
        raise ValueError("feasible() expects a convex cone")
    v = _as_vector(v, cone.dim)
    if cone.n_rows == 0:
        return True
    Gn, gn = _phase1_rows(cone, E, v)
    if E.n_e == 1:
        t = _phase1_scalar(Gn[:, 0].tolist(), gn.tolist())
    else:
        t = _phase1_lp(Gn, gn)
    return bool(t <= 1e-9)


def _enumerate_kkt(G: np.ndarray, g: np.ndarray, Q2: np.ndarray):
    """Yield (subset, eta, lam) for every consistent candidate subset."""
    k, n_e = G.shape
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            W = list(subset)
            GW = G[W]
            kkt = np.block(
                [
                    [Q2, -GW.T],
                    [GW, np.zeros((size, size))],
                ]
            )
            rhs = np.concatenate([np.zeros(n_e), g[W]])
            # QR with column pivoting via gelsy; tolerant of dependent rows.
            sol, *_ = scipy.linalg.lstsq(kkt, rhs, lapack_driver="gelsy")
            if not np.all(np.isfinite(sol)):
                continue
            # One step of iterative refinement: recovers digits lost to
            # ill-conditioned active subsets at negligible cost.
            corr, *_ = scipy.linalg.lstsq(kkt, rhs - kkt @ sol, lapack_driver="gelsy")
            if np.all(np.isfinite(corr)):
                sol = sol + corr
            if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
                continue  # inconsistent equality system for this subset
            yield subset, sol[:n_e], sol[n_e:]


def project_partial(
    cone: PolyhedralCone, E: ProjectionSubspace, v
) -> ProjectionResult:
    """Minimal-norm correction of v into a convex cone along Im E.

    Raises Infeasible when the cone misses v + Im E, and DegenerateKKT when
    no subset passes the checks despite feasibility (numerical breakdown,
    never expected under the preconditions).
    """
    if not cone.convex:
        raise ValueError("project_partial expects a convex cone; use sector_project")
    v = _as_vector(v, cone.dim)
    if E.ambient_dim != cone.dim:
        raise ValueError("subspace and cone dimensions differ")
    n_e = E.n_e
    if cone.n_rows == 0:
        return ProjectionResult(
            w=v, eta=np.zeros(n_e), active_indices=(), correction_norm=0.0
        )

    G, g = _cone_matrices(cone, E, v)
    Q2 = 2.0 * (E.basis.T @ E.basis)
    row_scale = 1.0 + np.abs(g) + np.linalg.norm(G, axis=1)

    passing: list[tuple[tuple[int, ...], np.ndarray]] = []
    for subset, eta, lam in _enumerate_kkt(G, g, Q2):
        slack = G @ eta - g
        if np.any(slack < -1e-9 * row_scale):
            continue
        if lam.size and np.min(lam) < -EPS_DUAL * max(1.0, float(np.max(np.abs(lam)))):
            continue
        passing.append((subset, eta))

    if not passing:
        if not feasible(cone, E, v):
            raise Infeasible("the cone does not meet v + Im E")
        raise DegenerateKKT("no active subset passed the KKT checks")

    # Distinct optima among passing subsets (unique under the preconditions).
    ws = [v + E.basis @ eta for _, eta in passing]
    distinct: list[np.ndarray] = []
    for w in ws:
        if all(np.linalg.norm(w - d) > EPS_DUP * (1.0 + np.linalg.norm(w)) for d in distinct):
            distinct.append(w)

    subset, eta = passing[0]
    w = ws[0]
    slack = G @ eta - g
    act = tuple(int(i) for i in np.flatnonzero(np.abs(slack) <= 1e-8 * row_scale))
    return ProjectionResult(
        w=w,
        eta=eta,
        active_indices=act,
        correction_norm=float(np.linalg.norm(E.basis @ eta)),
        n_distinct_optima=len(distinct),
    )


# ---------------------------------------------------------------------------
# sector path
# ---------------------------------------------------------------------------


def _corner_branch_clamp(sec: Sector, edot: float, udot: float, branch: str):
    """Closed-form branch solve at the origin.

    Returns (feasible, clamped udot).  The K branch admits vertical
    velocities in [k1*edot, k2*edot], which is an interval only when
    edot >= 0; -K mirrors it for edot <= 0.
    """
    tol = 1e-12 * (1.0 + abs(edot))
    lo, hi = sec.k1 * edot, sec.k2 * edot
    if branch == "K":
        if edot < -tol:
            return False, 0.0
    else:
        if edot > tol:
            return False, 0.0
        lo, hi = hi, lo
    lo, hi = min(lo, hi), max(lo, hi)
    return True, min(max(udot, lo), hi)


def sector_project(sec: Sector, s, w) -> ProjectionResult:
    """Projection of (edot, udot-candidate) into the sector tangent cone.

    On convex strata this delegates to project_partial on the local branch
    cone; that KKT path is the reference for the closed-form field of
    ``pbc.closed_loop_rhs``.  At the origin both branch intervals are solved
    in closed form; empty branches are discarded, and when both survive
    their optima are asserted equal before returning.
    """
    s = _as_vector(s, 2)
    w = _as_vector(w, 2)
    pos = sec.classify(*s.tolist())
    if pos.label == "outside":
        raise NotInSet(f"{s.tolist()} is outside the sector")

    if pos.label != "corner":
        res = project_partial(sector_tangent_cone(sec, s), sector_subspace(), w)
        return replace(res, branch="K" if pos.in_k else "minusK")

    edot, udot = float(w[0]), float(w[1])
    ok_k, u_k = _corner_branch_clamp(sec, edot, udot, "K")
    ok_m, u_m = _corner_branch_clamp(sec, edot, udot, "minusK")
    if ok_k and ok_m:
        if abs(u_k - u_m) > 1e-9 * (1.0 + abs(udot)):
            raise BranchContradiction(
                f"K gives {u_k}, -K gives {u_m} for w={w.tolist()} at the origin"
            )
    if not (ok_k or ok_m):  # cannot happen: one of edot>=0, edot<=0 holds
        raise Infeasible("no sector branch admits the correction")

    branch = "K" if ok_k else "minusK"
    ustar = u_k if ok_k else u_m
    eta = np.array([ustar - udot])
    w_out = np.array([edot, ustar])
    cone = sec.cone_k() if branch == "K" else sec.cone_minus_k()
    slack = cone.rows @ w_out
    scale = 1.0 + np.abs(slack) + np.linalg.norm(cone.rows, axis=1) * np.linalg.norm(w_out)
    act = tuple(int(i) for i in np.flatnonzero(np.abs(slack) <= 1e-8 * scale))
    return ProjectionResult(
        w=w_out,
        eta=eta,
        active_indices=act,
        correction_norm=abs(float(eta[0])),
        branch=branch,
    )


def vstar_selector(
    sec: Sector, edot: float, fc1: float, active: str, branch: str = "K"
) -> float:
    """Piecewise selection of the projected vertical velocity.

    ``active`` says which sector lines are tight at the underlying point:
    'none', 'lower' (u = k1 e), 'upper' (u = k2 e) or 'both' (the origin).
    On the K branch the tight lines bound the velocity from below by
    k1*edot and above by k2*edot; on -K the inequalities flip.  The result
    is the clamp of fc1 into that interval, hence always one of
    {fc1, k1*edot, k2*edot}.
    """
    if active not in ("none", "lower", "upper", "both"):
        raise ValueError(f"unknown active spec {active!r}")
    if branch not in ("K", "minusK"):
        raise ValueError(f"unknown branch {branch!r}")
    lo, hi = -np.inf, np.inf
    if branch == "K":
        if active in ("lower", "both"):
            lo = sec.k1 * edot
        if active in ("upper", "both"):
            hi = sec.k2 * edot
    else:
        if active in ("lower", "both"):
            hi = sec.k1 * edot
        if active in ("upper", "both"):
            lo = sec.k2 * edot
    if lo > hi:
        # Only possible at the origin when the branch opposes edot's sign;
        # a valid (point, branch) pair never produces it beyond roundoff.
        if lo - hi > 1e-9 * (1.0 + abs(edot)):
            raise ValueError("active bounds are inconsistent with the branch")
        lo = hi = 0.5 * (lo + hi)
    return float(min(max(fc1, lo), hi))
