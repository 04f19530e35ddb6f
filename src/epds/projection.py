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

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import BranchContradiction, Infeasible, DegenerateKKT, NotInSet, RankDeficient
from .geometry import (
    PolyhedralCone,
    Sector,
    SectorPosition,
    _as_vector,
    _readonly,
    sector_tangent_cone,
)

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


@functools.lru_cache(maxsize=64)
def _supports(m: int, size: int) -> np.ndarray:
    """All size-element subsets of range(m), one per row, in a read-only array."""
    S = np.array(list(itertools.combinations(range(m), size)), dtype=np.intp)
    S.flags.writeable = False
    return S


def _phase1(Gn: np.ndarray, gn: np.ndarray) -> float:
    """Exact least slack t >= 0 with Gn eta + t >= gn, for any n_E.

    By LP duality t* = max(0, max gn.lam) over the vertices of
    Lambda = {lam >= 0, sum lam = 1, Gn^T lam = 0}.  A vertex has at most
    n_E + 1 nonzeros and solves [Gn_S^T; 1^T] lam_S = e_last on its support
    S, so every support of that size or less is solved by pseudo-inverse.  A
    solution with residual <= 1e-12 and lam_S >= -1e-12 lies in Lambda,
    hence gn.lam is a lower bound on t* (weak duality); the vertices are
    among the kept solutions, so the maximum is t* itself.  For n_E = 1 the
    vertices are the rows with Gn_i = 0 and the pairs of rows of opposite
    sign.
    """
    m, n_e = Gn.shape
    e_last = np.eye(n_e + 1)[-1]
    t = 0.0
    for size in range(1, min(m, n_e + 1) + 1):
        S = _supports(m, size)
        M = np.concatenate([np.swapaxes(Gn[S], 1, 2), np.ones((len(S), 1, size))], axis=1)
        lam = np.linalg.pinv(M)[:, :, -1]
        resid = np.linalg.norm(np.einsum("cij,cj->ci", M, lam) - e_last, axis=1)
        kept = (resid <= 1e-12) & (lam.min(axis=1) >= -1e-12)
        t = max(t, float(np.max(np.where(kept, np.sum(gn[S] * lam, axis=1), 0.0))))
    return t


def feasible(cone: PolyhedralCone, E: ProjectionSubspace, v) -> bool:
    """Whether the cone meets v + Im E, by a phase-1 feasibility problem.

    Minimizes a single slack t with A(v + E eta) + t >= 0, t >= 0; the
    intersection is nonempty exactly when the optimal t (``_phase1``, exact
    for every n_E) is at most 1e-9 on the unit-normalized rows.  Union cones
    are out of contract here; the sector path handles them branch by branch.
    """
    if not cone.convex:
        raise ValueError("feasible() expects a convex cone")
    v = _as_vector(v, cone.dim)
    if cone.n_rows == 0:
        return True
    Gn, gn = _phase1_rows(cone, E, v)
    return bool(_phase1(Gn, gn) <= 1e-9)


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
    G_norms = np.linalg.norm(G, axis=1)
    row_scale = 1.0 + np.abs(g) + G_norms

    passing: list[tuple[tuple[int, ...], np.ndarray]] = []
    for subset, eta, lam in _enumerate_kkt(G, g, Q2):
        slack = G @ eta - g
        # Relative to the terms of each row only, so that no violation is
        # too small to be corrected.
        if np.any(slack < -1e-9 * (np.abs(g) + G_norms * np.linalg.norm(eta))):
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


def vstar_selector(sec: Sector, pos: SectorPosition, edot: float, fc1: float) -> float:
    """Piecewise selection of the projected vertical velocity.

    ``pos`` is ``sec.classify`` of the underlying point, which must lie in
    the sector.  Off the corner at most one line is tight: on K the lower
    line u = k1 e bounds the velocity from below by k1*edot and the upper
    line u = k2 e from above by k2*edot; on -K the inequalities flip.  At
    the corner the admissible interval is that of whichever branch admits
    edot, [min(k1*edot, k2*edot), max(k1*edot, k2*edot)].  The result is
    the clamp of fc1 into the interval, hence always one of
    {fc1, k1*edot, k2*edot}.
    """
    k1e, k2e = sec.k1 * edot, sec.k2 * edot
    if pos.label == "corner":
        lo, hi = min(k1e, k2e), max(k1e, k2e)
    elif pos.in_k:
        lo = k1e if pos.lower else -np.inf
        hi = k2e if pos.upper else np.inf
    else:
        lo = k2e if pos.upper else -np.inf
        hi = k1e if pos.lower else np.inf
    return float(min(max(fc1, lo), hi))
