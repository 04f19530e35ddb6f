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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# scalar constraints and finitely generated sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarConstraint:
    """One inequality ``h(x) >= 0`` with its gradient map.

    ``kind`` is one of ``affine``, ``quadratic`` or ``user``; only the first
    two are serializable.  ``params`` carries the serializable payload.
    """

    kind: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    params: dict | None = None


def affine_constraint(a, b: float) -> ScalarConstraint:
    """h(x) = a.x + b"""
    a = _readonly(np.asarray(a, dtype=float).reshape(-1))
    b = float(b)
    return ScalarConstraint(
        kind="affine",
        value=lambda x, a=a, b=b: float(a @ x + b),
        gradient=lambda x, a=a: a.copy(),
        params={"a": a.tolist(), "b": b},
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
        kind="quadratic",
        value=lambda x, Q=Q, c=c, d=d: float(x @ Q @ x + c @ x + d),
        gradient=lambda x, QS=QS, c=c: QS @ x + c,
        params={"Q": Q.tolist(), "c": c.tolist(), "d": d},
    )


def user_constraint(value, gradient) -> ScalarConstraint:
    """A code-only constraint from value and gradient callbacks."""
    return ScalarConstraint(kind="user", value=value, gradient=gradient)


@dataclass(frozen=True)
class ConstraintSet:
    """Finitely generated set {x in R^n : h_i(x) >= 0 for all i}."""

    dim: int
    constraints: tuple[ScalarConstraint, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def values(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return np.array([c.value(x) for c in self.constraints], dtype=float)

    def gradients(self, x, indices: Sequence[int] | None = None) -> np.ndarray:
        """Gradient rows at x (all constraints, or the given indices)."""
        x = _as_vector(x, self.dim)
        idx = range(self.n_constraints) if indices is None else indices
        rows = [self.constraints[i].gradient(x) for i in idx]
        if not rows:
            return np.zeros((0, self.dim))
        return np.vstack([np.asarray(r, dtype=float).reshape(-1) for r in rows])

    def contains(self, x, tol: float | None = None) -> bool:
        x = _as_vector(x, self.dim)
        if tol is None:
            tol = EPS_MEM * (1.0 + float(np.linalg.norm(x)))
        if self.n_constraints == 0:
            return True
        return bool(np.min(self.values(x)) >= -tol)


def constraint_set_to_json(cset: ConstraintSet) -> dict:
    """Serialize to the documented JSON shape; user constraints are code-only."""
    out = []
    for c in cset.constraints:
        if c.kind not in ("affine", "quadratic") or c.params is None:
            raise ValueError(f"constraint kind {c.kind!r} is not serializable")
        out.append({"kind": c.kind, **c.params})
    return {"dim": cset.dim, "constraints": out}


def constraint_set_from_json(doc: dict) -> ConstraintSet:
    dim = int(doc["dim"])
    cons = []
    for entry in doc["constraints"]:
        kind = entry["kind"]
        if kind == "affine":
            cons.append(affine_constraint(entry["a"], entry["b"]))
        elif kind == "quadratic":
            cons.append(quadratic_constraint(entry["Q"], entry["c"], entry["d"]))
        else:
            raise ValueError(f"unknown constraint kind {kind!r}")
    return ConstraintSet(dim=dim, constraints=tuple(cons))


# ---------------------------------------------------------------------------
# active sets and constraint qualification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActiveSet:
    """Indices of constraints tight at a point, with the tolerance used."""

    indices: tuple[int, ...]
    tolerance_used: float

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)


def active_set(cset: ConstraintSet, x, scale: float = EPS_ACT) -> ActiveSet:
    """Indices i with |h_i(x)| <= scale * (1 + |x|).

    Raises NotInSet when x is not a member of the set.
    """
    x = _as_vector(x, cset.dim)
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if not cset.contains(x):
        raise NotInSet(f"point {x.tolist()} violates the constraint set")
    tol = scale * (1.0 + float(np.linalg.norm(x)))
    vals = cset.values(x)
    idx = tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= tol))
    return ActiveSet(indices=idx, tolerance_used=tol)


@dataclass(frozen=True)
class CqReport:
    """Rank report for the active-constraint gradients at a point."""

    satisfied: bool
    active_indices: tuple[int, ...]
    rank: int
    singular_values: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.satisfied


def check_cq(cset: ConstraintSet, x) -> CqReport:
    """Linear independence of active gradients, decided by singular values.

    Full rank is declared when the number of singular values above
    ``SV_RTOL * sigma_max`` equals the number of active constraints; a zero
    gradient matrix therefore fails for any nonempty active set.
    """
    act = active_set(cset, x)
    if len(act) == 0:
        return CqReport(True, act.indices, 0, ())
    G = cset.gradients(x, act.indices)
    sv = np.linalg.svd(G, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > SV_RTOL * smax)) if smax > 0 else 0
    return CqReport(rank == len(act), act.indices, rank, tuple(float(s) for s in sv))


# ---------------------------------------------------------------------------
# polyhedral cones
# ---------------------------------------------------------------------------


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
        """Membership test ``A v >= -tol``, row-scaled.

        The tolerance is applied per row as ``tol * (1 + |a_i| * |v|)`` so
        the test is meaningful regardless of gradient scaling.
        """
        v = _as_vector(v, self.dim)
        if not self.convex:
            return any(p.contains(v, tol) for p in self.parts)
        if self.n_rows == 0:
            return True
        slack = self.rows @ v
        scale = 1.0 + np.linalg.norm(self.rows, axis=1) * float(np.linalg.norm(v))
        return bool(np.all(slack >= -tol * scale))


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
    if H.shape[0] > H.shape[1]:
        raise RankDeficient("H has more rows than columns")
    sv = np.linalg.svd(H, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > SV_RTOL * smax)) if smax > 0 else 0
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
