"""Partial projection of a vector into a polyhedral cone along a subspace.

The operator solves

    min |E eta|   subject to   A (v + E eta) >= 0

and returns w = v + E eta*, the minimal-norm correction of v into the cone
with the correction restricted to Im E.  It is solved in the orthonormal
basis U of Im E that ``ProjectionSubspace`` keeps, where the metric is the
identity whatever the conditioning of E.  Candidate active supports of the
cone rows are enumerated exhaustively (instances are tiny, so exactness and
determinism beat asymptotics): each support S is solved as the least-norm
solution of its rows, by one stacked LU inverse per support size
(``_support_inverse``) of G_S itself when S has n_E rows and of the Gram
matrix G_S G_S^T when it has fewer.  A support with dependent rows is
skipped: its optimum, if any, is also reached on independent rows.  Under
row independence and feasibility the optimum is unique, so the first
passing support is returned; all passing supports are still collected so
callers can check uniqueness.  The supports and the phase-1 feasibility
test read the same unit-normalized rows with one vanishing-row cutoff, so
they agree on which cones meet v + Im E.

The sector path has a closed form on every stratum: only the vertical
coordinate is corrected, so ``sector_project`` clamps the candidate into the
interval that the tight lines admit, at the origin that of the branch which
admits edot (``vstar_selector``).  The KKT solve is its reference in the
tests, and the verification suite solves each origin branch on its own.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, DegenerateKKT, NotInSet, RankDeficient
from .geometry import (
    PolyhedralCone,
    Sector,
    SectorPosition,
    _as_vector,
    _readonly,
)

# Sign tolerance for KKT multipliers, relative to the support's largest.
EPS_DUAL = 1e-10
# A unit row whose part along Im E is at most this long vanishes on Im E.
EPS_VANISH = 1e-12
# The cone meets v + Im E when the phase-1 slack on unit rows is at most this.
EPS_PHASE1 = 1e-9
# Distinct-optima clustering tolerance (duplicates closer than this are one).
EPS_DUP = 1e-9


@dataclass(frozen=True)
class ProjectionSubspace:
    """Subspace of admissible correction directions, Im E.

    ``basis`` is an (ambient_dim x n_E) matrix E with linearly independent
    columns, checked by singular values at construction.  That SVD,
    E = U S V^T, also gives the solver's coordinates: ``_u`` is U, an
    orthonormal basis of Im E, and ``_to_e`` = V S^-1 maps coordinates
    eta' in U to eta in E, so that U eta' = E eta.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if E.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must match the ambient dimension")
        if E.shape[1] < 1:
            raise ValueError("the projection subspace must have n_E >= 1")
        U, sv, Vt = np.linalg.svd(E, full_matrices=False)
        if sv.size < E.shape[1] or sv[-1] <= 1e-12 * sv[0]:
            raise RankDeficient("projection subspace basis is column rank deficient")
        object.__setattr__(self, "basis", _readonly(E))
        object.__setattr__(self, "_u", _readonly(U))
        object.__setattr__(self, "_to_e", _readonly(Vt.T / sv))

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

    w = v + E eta, with ``eta`` in the coordinates of the caller's basis E,
    ``correction_norm`` = |w - v|, ``active_indices`` the cone rows tight
    at w (for ``sector_project``: 0 for u = k1 e, 1 for u = k2 e, each when
    it bounds the tangent cone at s and w lies on it exactly, w_u = k_i
    w_e, as the clamp leaves it when the line binds), ``branch`` one of
    'none' / 'K' / 'minusK' (sector paths only) and ``n_distinct_optima``
    the number of distinct optima found among passing supports (must be 1;
    exposed for the uniqueness suite).
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


def _phase1_rows(cone: PolyhedralCone, E: ProjectionSubspace, v: np.ndarray):
    """Rows Gn eta' >= gn of the cone along v + Im E, in the orthonormal
    coordinates eta' of Im E, each (Gn_i, gn_i) scaled to unit norm so that
    every threshold is scale-free.  A unit row with |Gn_i| <= EPS_VANISH
    vanishes on Im E and is set to zero there, so phase-1 and the KKT solves
    see the same row that no correction can move."""
    G, g = cone.rows @ E._u, -(cone.rows @ v)
    norms = np.maximum(np.linalg.norm(np.column_stack([G, g]), axis=1), 1e-30)
    Gn, gn = G / norms[:, None], g / norms
    Gn[np.linalg.norm(Gn, axis=1) <= EPS_VANISH] = 0.0
    return Gn, gn


@functools.lru_cache(maxsize=64)
def _supports(m: int, size: int) -> np.ndarray:
    """All size-element subsets of range(m), one per row, in a read-only array."""
    S = np.array(list(itertools.combinations(range(m), size)), dtype=np.intp)
    S.flags.writeable = False
    return S


def _support_inverse(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the stacked square matrices A by LU, and the mask ``ok``
    of those with a nonzero determinant.  The determinant is taken of the
    very matrices that are inverted, so no singular one reaches the
    inversion; the others get zeros."""
    ok = np.linalg.det(A) != 0.0
    inv = np.zeros_like(A)
    inv[ok] = np.linalg.inv(A[ok])
    return inv, ok


def _phase1(Gn: np.ndarray, gn: np.ndarray) -> float:
    """Exact least slack t >= 0 with Gn eta + t >= gn, for any n_E.

    It is 0 at once when eta = 0 or the foot (gn_i / |Gn_i|^2) Gn_i of a
    violated row with |Gn_i| > EPS_VANISH meets every row, tested exactly.
    Otherwise, by LP duality, t* = max(0, max gn.lam) over the vertices of
    Lambda = {lam >= 0, sum lam = 1, Gn^T lam = 0}.  A vertex has at most
    n_E + 1 nonzeros, independent columns of M = [Gn_S^T; 1^T] on its
    support S, and solves M lam_S = e_last.  So every support of that size
    or less is solved: lam_S = M^-1 e_last when M is square, else
    R^-1 Q^T e_last from M = QR, which unlike the normal equations keeps
    the rows of Gn_S that are small beside the row of ones; a support whose
    inverted matrix is singular holds no vertex.  A solution with residual
    <= 1e-12 and lam_S >= -1e-12 lies in Lambda, hence gn.lam is a lower
    bound on t* (weak duality); the vertices are among the kept solutions,
    so the maximum is t* itself.  For n_E = 1 the vertices are the rows
    with Gn_i = 0 and the pairs of rows of opposite sign.
    """
    m, n_e = Gn.shape
    norms = np.linalg.norm(Gn, axis=1)
    at = (gn > 0.0) & (norms > EPS_VANISH)
    feet = (gn[at] / norms[at] ** 2)[:, None] * Gn[at]
    if np.all(gn <= 0.0) or np.any(np.all(feet @ Gn.T >= gn, axis=1)):
        return 0.0
    e_last = np.eye(n_e + 1)[-1]
    t = 0.0
    for size in range(1, min(m, n_e + 1) + 1):
        S = _supports(m, size)
        M = np.concatenate([np.swapaxes(Gn[S], 1, 2), np.ones((len(S), 1, size))], axis=1)
        if size == n_e + 1:
            inv, ok = _support_inverse(M)
            lam = inv[:, :, -1]
        else:
            Q, R = np.linalg.qr(M)
            inv, ok = _support_inverse(R)
            lam = np.einsum("cij,cj->ci", inv, Q[:, -1, :])
        resid = np.linalg.norm(np.einsum("cij,cj->ci", M, lam) - e_last, axis=1)
        kept = ok & (resid <= 1e-12) & (lam.min(axis=1) >= -1e-12)
        t = max(t, float(np.max(np.where(kept, np.sum(gn[S] * lam, axis=1), 0.0))))
    return t


def feasible(cone: PolyhedralCone, E: ProjectionSubspace, v) -> bool:
    """Whether the cone meets v + Im E, by a phase-1 feasibility problem.

    Minimizes a single slack t with A(v + U eta') + t >= 0, t >= 0; the
    intersection is nonempty exactly when the optimal t (``_phase1``, exact
    for every n_E) is at most EPS_PHASE1 on the unit rows of ``_phase1_rows``,
    the rows that ``project_partial`` solves on.  Union cones are out of
    contract here; the sector path handles them branch by branch.
    """
    if not cone.convex:
        raise ValueError("feasible() expects a convex cone")
    v = _as_vector(v, cone.dim)
    return bool(_phase1(*_phase1_rows(cone, E, v)) <= EPS_PHASE1)


def _kkt_optima(Gn: np.ndarray, gn: np.ndarray) -> np.ndarray:
    """Minimizers eta' of |eta'| over Gn eta' >= gn, one row per passing
    support, the supports in size-then-lexicographic order.

    On a support S the candidate is the least-norm solution eta' = P gn_S
    of its rows taken as equalities, with P = Gn_S^-1 when S has n_E rows
    and P = Gn_S^T (Gn_S Gn_S^T)^-1 when it has fewer, and the multipliers
    of 2 eta' = Gn_S^T lam given by lam = 2 P^T eta'; all supports of one
    size share one stacked ``_support_inverse``.  S passes when that
    matrix is nonsingular, its rows hold with equality, every row holds up
    to its own terms (so that no violation is too small to be corrected)
    and the multipliers are nonnegative up to EPS_DUAL times the largest of
    them (with no absolute floor, so that a small instance cannot pass a
    wrong-signed support).  The rows are the unit rows of ``_phase1_rows``,
    so a row that vanishes on Im E is zero here and is never inverted.
    Supports stop at n_E rows and need independent rows: by Caratheodory's
    theorem for cones the optimum is reached on at most n_E independent
    active rows, so a larger or dependent support only repeats it.
    """
    m, n_e = Gn.shape
    Gn_norms = np.linalg.norm(Gn, axis=1)
    # The empty support's solution is eta' = 0, which passes iff A v >= 0.
    optima = [np.zeros((int(np.all(gn <= 0.0)), n_e))]
    for size in range(1, min(m, n_e) + 1):
        S = _supports(m, size)
        GS, gS = Gn[S], gn[S]
        if size == n_e:
            P, ok = _support_inverse(GS)
        else:
            inv, ok = _support_inverse(GS @ np.swapaxes(GS, 1, 2))
            P = np.swapaxes(GS, 1, 2) @ inv
        eta = np.einsum("cij,cj->ci", P, gS)
        lam = 2.0 * np.einsum("cji,cj->ci", P, eta)
        resid = np.linalg.norm(np.einsum("cij,cj->ci", GS, eta) - gS, axis=1)
        floor = np.abs(gn) + np.outer(np.linalg.norm(eta, axis=1), Gn_norms)
        ok &= (
            (resid <= 1e-8 * (1.0 + np.linalg.norm(gS, axis=1)))
            & np.all(eta @ Gn.T - gn >= -1e-9 * floor, axis=1)
            & (lam.min(axis=1) >= -EPS_DUAL * np.abs(lam).max(axis=1))
        )
        optima.append(eta[ok])
    return np.concatenate(optima)


def project_partial(
    cone: PolyhedralCone, E: ProjectionSubspace, v
) -> ProjectionResult:
    """Minimal-norm correction of v into a convex cone along Im E.

    Raises Infeasible when the cone misses v + Im E (the verdict of
    ``feasible``, on the same rows), and DegenerateKKT when no support passes
    the checks despite feasibility (numerical breakdown, never expected under
    the preconditions).
    """
    if not cone.convex:
        raise ValueError("project_partial expects a convex cone; use sector_project")
    v = _as_vector(v, cone.dim)
    if E.ambient_dim != cone.dim:
        raise ValueError("subspace and cone dimensions differ")
    Gn, gn = _phase1_rows(cone, E, v)
    optima = _kkt_optima(Gn, gn)
    if not len(optima):
        if _phase1(Gn, gn) > EPS_PHASE1:
            raise Infeasible("the cone does not meet v + Im E")
        raise DegenerateKKT("no active subset passed the KKT checks")

    # Distinct optima among passing subsets (unique under the preconditions).
    ws = v + optima @ E._u.T
    distinct: list[np.ndarray] = []
    for w in ws:
        if all(np.linalg.norm(w - d) > EPS_DUP * (1.0 + np.linalg.norm(w)) for d in distinct):
            distinct.append(w)

    eta = optima[0]
    slack = Gn @ eta - gn
    floor = np.abs(gn) + np.linalg.norm(eta) * np.linalg.norm(Gn, axis=1)
    act = tuple(int(i) for i in np.flatnonzero(np.abs(slack) <= 1e-8 * (1.0 + floor)))
    return ProjectionResult(
        w=ws[0],
        eta=E._to_e @ eta,
        active_indices=act,
        correction_norm=float(np.linalg.norm(eta)),
        n_distinct_optima=len(distinct),
    )


# ---------------------------------------------------------------------------
# sector path
# ---------------------------------------------------------------------------


def sector_project(sec: Sector, s, w) -> ProjectionResult:
    """Projection of (edot, udot-candidate) into the sector tangent cone.

    On every stratum the result is (edot, v*) with v* the clamp of
    ``vstar_selector``; at the origin T_S(0) = S and the branch that admits
    edot bounds it (K when edot >= 0, -K otherwise).  ``project_partial`` on
    ``sector_tangent_cone`` is its reference in the tests.
    """
    s = _as_vector(s, 2)
    w = _as_vector(w, 2)
    pos = sec.classify(*s.tolist())
    if pos.label == "outside":
        raise NotInSet(f"{s.tolist()} is outside the sector")

    edot, udot = w.tolist()
    ustar = vstar_selector(sec, pos, edot, udot)
    corner = pos.label == "corner"
    # Line i is active when it bounds the tangent cone at s and the clamp
    # returned k_i edot itself, which it does exactly when the line binds.
    lines = (pos.lower or corner, sec.k1), (pos.upper or corner, sec.k2)
    active = tuple(i for i, (bounds, k) in enumerate(lines) if bounds and ustar == k * edot)
    return ProjectionResult(
        w=(edot, ustar),
        eta=(ustar - udot,),
        active_indices=active,
        correction_norm=abs(ustar - udot),
        branch="K" if (edot >= 0.0 if corner else pos.in_k) else "minusK",
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
