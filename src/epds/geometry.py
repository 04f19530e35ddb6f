"""Constraint-set geometry: finitely generated sets, sectors, tangent cones.

A finitely generated set is an intersection of sublevel sets
``{x : h_i(x) >= 0}``.  Under the linear-independence constraint
qualification the tangent cone at a point is polyhedral, with one halfspace
row per active-constraint gradient; interior points yield the full space.

Sectors are the irregular two-dimensional sets
``(u - k1*e)(u - k2*e) <= 0`` used to confine a controller's input-output
pair.  Written as a single quadratic inequality the gradient vanishes at the
origin, so the explicit tangent-cone formula does not apply there; instead a
sector decomposes into two polyhedral cones ``K`` and ``-K`` whose union is
the tangent cone at the origin.  That non-convex union is kept explicit (two
convex cones plus a tag) because every downstream consumer branches on it.

All types are immutable after construction; operations are pure functions.
Constraint indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CqViolated, DegenerateSector, NotInSet, RankDeficient

# Activation and membership tolerances are relative, scaled by (1 + |x|);
# exact-zero tests are meaningless in floating point.  The cone tolerance is
# one order looser than machine-level residuals of the small dense solves
# used downstream.
EPS_ACT = 1e-9
EPS_MEM = 1e-9
EPS_CONE = 1e-10
# Rank cut: singular values below SV_RTOL * sigma_max count as zero.
SV_RTOL = 1e-10


_F64 = np.dtype(float)


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    """x as a 1-D float array; a 1-D float64 ndarray comes back as itself."""
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _F64:
        v = x
    else:
        v = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def _readonly(a) -> np.ndarray:
    """a as a read-only float64 array that later writes to the caller's
    array do not reach: a itself when a and the array it views, if any,
    are read-only float64 (as ``integrate``'s buffer views are), else a
    frozen copy."""
    if (type(a) is np.ndarray and a.dtype is _F64 and not a.flags.writeable
            and not (isinstance(a.base, np.ndarray) and a.base.flags.writeable)):
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# scalar constraints and finitely generated sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarConstraint:
    """One inequality ``h(x) >= 0`` with its gradient map."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


def affine_constraint(a, b: float) -> ScalarConstraint:
    """h(x) = a.x + b"""
    a = _readonly(np.asarray(a, dtype=float).reshape(-1))
    b = float(b)
    return ScalarConstraint(
        value=lambda x, a=a, b=b: float(a @ x + b),
        gradient=lambda x, a=a: a.copy(),
    )


def quadratic_constraint(Q, c, d: float) -> ScalarConstraint:
    """h(x) = x.Q x + c.x + d, gradient (Q + Q^T) x + c"""
    Q = _readonly(np.atleast_2d(np.asarray(Q, dtype=float)))
    c = _readonly(np.asarray(c, dtype=float).reshape(-1))
    if Q.shape[0] != Q.shape[1] or Q.shape[0] != c.shape[0]:
        raise ValueError("inconsistent quadratic constraint dimensions")
    d = float(d)
    QS = _readonly(Q + Q.T)
    return ScalarConstraint(
        value=lambda x, Q=Q, c=c, d=d: float(x @ Q @ x + c @ x + d),
        gradient=lambda x, QS=QS, c=c: QS @ x + c,
    )


@dataclass(frozen=True)
class ConstraintSet:
    """Finitely generated set {x in R^n : h_i(x) >= 0 for all i}."""

    dim: int
    constraints: tuple[ScalarConstraint, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def values(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return np.array([c.value(x) for c in self.constraints], dtype=float)

    def gradients(self, x, indices: Sequence[int]) -> np.ndarray:
        """Gradient rows at x of the constraints with the given indices."""
        x = _as_vector(x, self.dim)
        rows = [self.constraints[i].gradient(x) for i in indices]
        if not rows:
            return np.zeros((0, self.dim))
        return np.vstack([np.asarray(r, dtype=float).reshape(-1) for r in rows])

    def contains(self, x) -> bool:
        """Membership up to EPS_MEM * (1 + |x|) in every constraint."""
        x = _as_vector(x, self.dim)
        if not self.constraints:
            return True
        tol = EPS_MEM * (1.0 + float(np.linalg.norm(x)))
        return bool(np.min(self.values(x)) >= -tol)


# ---------------------------------------------------------------------------
# active sets and constraint qualification
# ---------------------------------------------------------------------------


def active_set(cset: ConstraintSet, x) -> tuple[int, ...]:
    """Indices i with |h_i(x)| <= EPS_ACT * (1 + |x|).

    Raises NotInSet when x is not a member of the set.
    """
    x = _as_vector(x, cset.dim)
    if not cset.contains(x):
        raise NotInSet(f"point {x.tolist()} violates the constraint set")
    tol = EPS_ACT * (1.0 + float(np.linalg.norm(x)))
    return tuple(int(i) for i in np.flatnonzero(np.abs(cset.values(x)) <= tol))


def _rank(M: np.ndarray) -> int:
    """Numerical rank of M: its singular values above SV_RTOL * sigma_max.

    A zero matrix has rank 0, and a matrix with more rows than columns
    never has full row rank.
    """
    sv = np.linalg.svd(M, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    return int(np.sum(sv > SV_RTOL * smax)) if smax > 0 else 0


@dataclass(frozen=True)
class CqReport:
    """Rank report for the active-constraint gradients at a point."""

    satisfied: bool
    active_indices: tuple[int, ...]
    rank: int


def check_cq(cset: ConstraintSet, x) -> CqReport:
    """Linear independence of active gradients, decided by ``_rank``.

    It holds when the rank equals the number of active constraints; a zero
    gradient matrix therefore fails for any nonempty active set.
    """
    act = active_set(cset, x)
    if not act:
        return CqReport(True, act, 0)
    rank = _rank(cset.gradients(x, act))
    return CqReport(rank == len(act), act, rank)


# ---------------------------------------------------------------------------
# polyhedral cones
# ---------------------------------------------------------------------------


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X, its squares summed column by column.

    A reduction along an axis only 2-4 wide is slow in numpy; a loop over
    the columns is not.  Up to 7 columns numpy's ``norm(X, axis=1)`` adds
    the squares in this same order, so the two agree bit for bit; from 8
    columns numpy sums pairwise, and the last bits may differ there.
    """
    acc = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        acc += X[:, j] * X[:, j]
    return np.sqrt(acc)


def _contains_many(
    T: PolyhedralCone, P: np.ndarray, tol: float = EPS_CONE, pn: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise membership of the points P in T: every row i of each convex
    part must have slack_i >= -tol (1 + |row_i| |p|).

    The rows' tests are ANDed one at a time, and the point norms ``pn``
    are computed once and shared by both parts of a union cone.
    """
    if pn is None:
        pn = _row_norms(P)
    if not T.convex:
        return _contains_many(T.parts[0], P, tol, pn) | _contains_many(T.parts[1], P, tol, pn)
    slack = P @ T.rows.T
    ok = np.ones(P.shape[0], dtype=bool)
    for i, rn_i in enumerate(_row_norms(T.rows)):
        ok &= slack[:, i] >= -tol * (1.0 + rn_i * pn)
    return ok


@dataclass(frozen=True)
class PolyhedralCone:
    """Cone {v : A v >= 0} in halfspace form.

    ``rows`` holds A, one row per active-constraint gradient; zero rows mean
    the full space.  A non-convex sector-origin cone is represented as the
    union of two convex cones: ``convex`` is False and ``parts`` holds them,
    while ``rows`` is empty and unused.
    """

    dim: int
    rows: np.ndarray
    convex: bool = True
    parts: tuple["PolyhedralCone", "PolyhedralCone"] | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, self.dim)
        rows = np.atleast_2d(rows)
        if rows.shape[1] != self.dim:
            raise ValueError("cone rows do not match the ambient dimension")
        object.__setattr__(self, "rows", _readonly(rows))
        if not self.convex and (self.parts is None or len(self.parts) != 2):
            raise ValueError("a union cone needs exactly two convex parts")

    @classmethod
    def full_space(cls, dim: int) -> "PolyhedralCone":
        return cls(dim=dim, rows=np.zeros((0, dim)))

    @property
    def is_full_space(self) -> bool:
        return self.convex and self.rows.shape[0] == 0

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def residual(self, v) -> float:
        """Smallest row slack; >= 0 means membership (max over union parts)."""
        v = _as_vector(v, self.dim)
        if not self.convex:
            return max(p.residual(v) for p in self.parts)
        if self.n_rows == 0:
            return math.inf
        return float(np.min(self.rows @ v))

    def contains(self, v, tol: float = EPS_CONE) -> bool:
        """Membership test ``A v >= -tol``, row-scaled: ``_contains_many``
        on the single point v.

        The tolerance is applied per row as ``tol * (1 + |a_i| * |v|)`` so
        the test is meaningful regardless of gradient scaling.
        """
        return bool(_contains_many(self, _as_vector(v, self.dim)[None, :], tol)[0])


def cone_union(a: PolyhedralCone, b: PolyhedralCone) -> PolyhedralCone:
    if a.dim != b.dim:
        raise ValueError("union parts must share the ambient dimension")
    return PolyhedralCone(
        dim=a.dim, rows=np.zeros((0, a.dim)), convex=False, parts=(a, b)
    )


def tangent_cone(cset: ConstraintSet, x) -> PolyhedralCone:
    """Tangent cone {v : <grad h_i(x), v> >= 0, i active} under (CQ).

    Raises CqViolated when the active gradients are dependent; the explicit
    formula is only valid under the constraint qualification.
    """
    rep = check_cq(cset, x)
    if not rep.satisfied:
        raise CqViolated(
            f"active gradients have rank {rep.rank} < {len(rep.active_indices)} at {list(map(float, _as_vector(x)))}"
        )
    rows = cset.gradients(x, rep.active_indices)
    return PolyhedralCone(dim=cset.dim, rows=rows)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------


class SectorPosition(NamedTuple):
    """Where a point (e, u) lies relative to a sector; see Sector.classify."""

    in_k: bool
    in_minus_k: bool
    label: str  # 'interior', 'K', 'minusK', 'corner' or 'outside'
    lower: bool  # u = k1 e tight under the row-scaled activation test
    upper: bool  # u = k2 e tight under the row-scaled activation test


@dataclass(frozen=True)
class Sector:
    """The set {(e,u) : (u - k1 e)(u - k2 e) <= 0} with k1 < k2.

    Equals K union -K with K = {u >= k1 e, u <= k2 e}.  The vertical line
    span{(0,1)} meets the sector only at the origin and the sector plus that
    line covers the plane; both structural facts hold for every k1 < k2
    (a property test states them).
    """

    k1: float
    k2: float

    def __post_init__(self):
        object.__setattr__(self, "k1", float(self.k1))
        object.__setattr__(self, "k2", float(self.k2))
        if not self.k1 < self.k2:
            raise DegenerateSector(f"need k1 < k2, got k1={self.k1}, k2={self.k2}")

    def residual(self, s) -> float:
        e, u = _as_vector(s, 2).tolist()
        return (u - self.k1 * e) * (u - self.k2 * e)

    def cone_k(self) -> PolyhedralCone:
        """K as a cone: rows (u - k1 e >= 0) and (k2 e - u >= 0)."""
        return PolyhedralCone(dim=2, rows=np.array([[-self.k1, 1.0], [self.k2, -1.0]]))

    def cone_minus_k(self) -> PolyhedralCone:
        return PolyhedralCone(dim=2, rows=np.array([[self.k1, -1.0], [-self.k2, 1.0]]))

    def classify(self, e: float, u: float) -> SectorPosition:
        """Classify the point (e, u) in plain floats.

        The line slacks a = u - k1 e and b = k2 e - u are both >= 0 on K and
        both <= 0 on -K.  Branch membership and the label test them against
        the membership tolerance EPS_MEM (1 + |s|)(1 + max|k|), which is
        linear in the point and hence better conditioned far from the origin
        than the product inequality.  The tight-line flags use the
        row-scaled activation test of the tangent cone, |slack_i| <=
        EPS_ACT (1 + |row_i| |s|) with row_i = +-(-k_i, 1); it is never
        looser than the membership test, so two tight lines imply the corner.
        """
        k1, k2 = self.k1, self.k2
        a = u - k1 * e
        b = k2 * e - u
        norm = math.hypot(e, u)
        tol = EPS_MEM * (1.0 + norm) * (1.0 + max(abs(k1), abs(k2)))
        in_k = a >= -tol and b >= -tol
        in_minus_k = a <= tol and b <= tol
        if in_k and in_minus_k:
            label = "corner"  # K and -K meet only at the origin
        elif not (in_k or in_minus_k):
            label = "outside"
        elif abs(a) > tol and abs(b) > tol:
            label = "interior"
        else:
            label = "K" if in_k else "minusK"
        lower = abs(a) <= EPS_ACT * (1.0 + math.hypot(k1, 1.0) * norm)
        upper = abs(b) <= EPS_ACT * (1.0 + math.hypot(k2, 1.0) * norm)
        return SectorPosition(in_k, in_minus_k, label, lower, upper)

    def _classify(self, s) -> SectorPosition:
        return self.classify(*_as_vector(s, 2).tolist())

    def in_k(self, s) -> bool:
        return self._classify(s).in_k

    def in_minus_k(self, s) -> bool:
        return self._classify(s).in_minus_k

    def contains(self, s) -> bool:
        return self._classify(s).label != "outside"

    def is_corner(self, s) -> bool:
        return self._classify(s).label == "corner"

    def active_lines(self, s) -> tuple[bool, bool]:
        """(lower tight, upper tight): which of u = k1 e, u = k2 e hold at s."""
        pos = self._classify(s)
        return pos.lower, pos.upper

    def branch_label(self, s) -> str:
        """One of 'interior', 'K', 'minusK', 'corner' (position-based)."""
        label = self._classify(s).label
        if label == "outside":
            raise NotInSet(f"{_as_vector(s, 2).tolist()} is outside the sector")
        return label


def sector_tangent_cone(sec: Sector, s) -> PolyhedralCone:
    """Tangent cone of the sector at s.

    T_K(s) on K minus -K, the mirrored cone on -K minus K, and the full
    non-convex union K u -K (tagged, convex=False) at the origin.  The rows
    kept are the lines that Sector.classify flags as tight.
    """
    s = _as_vector(s, 2)
    pos = sec.classify(*s.tolist())
    if pos.label == "outside":
        raise NotInSet(f"{s.tolist()} is outside the sector")
    if pos.label == "corner":
        return cone_union(sec.cone_k(), sec.cone_minus_k())
    branch = sec.cone_k() if pos.in_k else sec.cone_minus_k()
    return PolyhedralCone(dim=2, rows=branch.rows[[pos.lower, pos.upper]])


# ---------------------------------------------------------------------------
# pullback of cones by linear maps
# ---------------------------------------------------------------------------


def lifted_tangent_cone(H, low_cone: PolyhedralCone) -> PolyhedralCone:
    """Pullback cone {v : H v in low_cone} for H with full row rank.

    In halfspace form the pullback composes each row of the low cone with H.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    rank = _rank(H)
    if rank != H.shape[0]:
        raise RankDeficient(f"H has row rank {rank} < {H.shape[0]}")
    if low_cone.dim != H.shape[0]:
        raise ValueError("low cone dimension does not match H's row count")
    if not low_cone.convex:
        return cone_union(
            lifted_tangent_cone(H, low_cone.parts[0]),
            lifted_tangent_cone(H, low_cone.parts[1]),
        )
    return PolyhedralCone(dim=H.shape[1], rows=low_cone.rows @ H)
