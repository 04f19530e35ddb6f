"""Krasovskii regularization as a finite vertex set, plus the equality check.

For a finitely generated set under the constraint qualification the
regularized velocity set at x is the convex hull of one projected field
value per subset J of the active constraints, each projected onto the
relaxed cone that keeps only the rows in J (the Krasovskii regularization
of Hauswirth, Bolognani, Hug and Dorfler, SIAM J. Control Optim. 59(1),
2021).  Regular hulls project by the KKT solver ``project_partial``.
For sectors the same subsets are taken of the rows of each convex part of
the tangent cone: at the origin the subsets of K's two lines and of -K's
two lines give the tangent cones of all strata meeting every neighborhood
of 0 (the full plane, the four boundary halfplanes, K and -K).  Each is
bounded by sector lines and projected along span{(0, 1)}, so its
projection is a closed-form interval clamp.

``verify_equality`` then checks, on a barycentric grid over the hull,
whether every hull point lying in the tangent cone coincides with the
partial projection: true for regular sets, and false exactly at sector
corners approached with nonzero e-velocity.  The grid's integer lattice is
built once per resolution and vertex count, in the smallest unsigned dtype,
and is evaluated in fixed blocks; no array ever holds the grid's points.
Row norms and cone rows are taken column by column and row by row, never
by a numpy reduction over an axis only 2-4 wide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CqViolated, Infeasible
from .geometry import (
    EPS_CONE,
    PolyhedralCone,
    Sector,
    _as_vector,
    _readonly,
    check_cq,
    sector_tangent_cone,
)
from .oracle import _branch_vstar
from .projection import (
    ProjectionResult,
    ProjectionSubspace,
    feasible,
    project_partial,
)

# Vertices closer than this are one vertex (absolute, per design).
DEDUP_TOL = 1e-10
# Largest barycentric grid verify_equality checks, refused before its
# lattice is built; shipped hulls have at most 4 vertices, 176,851 points
# at resolution 0.01 (a 0.7 MB uint8 lattice).
_GRID_LIMIT = 500_000
# Lattice rows verify_equality evaluates at once.
_BLOCK = 4_096


@dataclass(frozen=True)
class KrasovskiiHull:
    """Finite generating set of the regularized velocity hull at a point.

    ``vertices`` are sorted lexicographically; ``subset_labels[i]`` lists the
    generating subsets, as tuples of row labels, whose projections landed on
    vertex i.
    """

    vertices: np.ndarray
    subset_labels: tuple[tuple, ...]
    point: np.ndarray
    field_value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _readonly(np.atleast_2d(self.vertices)))
        object.__setattr__(self, "point", _readonly(_as_vector(self.point)))
        object.__setattr__(self, "field_value", _readonly(_as_vector(self.field_value)))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


def _dedup_sort(
    raw: list[tuple[tuple, np.ndarray]],
) -> tuple[np.ndarray, tuple[tuple, ...]]:
    groups: list[tuple[np.ndarray, list]] = []
    for label, w in raw:
        for vert, labels in groups:
            if np.linalg.norm(w - vert) <= DEDUP_TOL:
                labels.append(label)
                break
        else:
            groups.append((w, [label]))
    order = np.lexsort(
        np.array([vert for vert, _ in groups]).T[::-1]
    )
    verts = np.array([groups[i][0] for i in order])
    labels = tuple(tuple(groups[i][1]) for i in order)
    return verts, labels


def _check_nesting(corrections: dict[tuple, float]) -> None:
    """Projections onto relaxed cones move at most as far as onto nested ones."""
    items = list(corrections.items())
    for ja, ca in items:
        for jb, cb in items:
            if set(ja) <= set(jb) and ca > cb + 1e-9 * (1.0 + cb):
                raise AssertionError(
                    f"vertex nesting violated: |P_{ja} - f| = {ca} > |P_{jb} - f| = {cb}"
                )


def _subsets(n: int):
    """Every subset of range(n), by size, then lexicographically."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n + 1)
    )


def _subset_vertices(
    rows: np.ndarray, names, E: ProjectionSubspace, f: np.ndarray
) -> list[tuple[tuple, np.ndarray]]:
    """Projections of f onto the relaxed cone of every subset J of ``rows``,
    each by the KKT solver ``project_partial``; regular hulls only, since a
    sector's cones have the closed form of ``sector_krasovskii_vertices``.

    Each projection is labelled by the names of the rows in J.  A relaxed
    cone that misses f + Im E is skipped; the corrections of the others are
    checked for nesting.
    """
    raw: list[tuple[tuple, np.ndarray]] = []
    corrections: dict[tuple, float] = {}
    for subset in _subsets(len(rows)):
        label = tuple(names[i] for i in subset)
        cone = PolyhedralCone(dim=rows.shape[1], rows=rows[list(subset)])
        try:
            res = project_partial(cone, E, f)
        except Infeasible:
            continue
        raw.append((label, res.w))
        corrections[label] = res.correction_norm
    _check_nesting(corrections)
    return raw


def krasovskii_vertices(
    cset, E: ProjectionSubspace, x, f_at_x
) -> KrasovskiiHull:
    """One vertex per subset of the active constraints at x.

    Requires (CQ) at x and feasibility of the full tangent cone along Im E;
    every relaxed cone contains the full one, so its projection exists too.
    """
    x = _as_vector(x, cset.dim)
    f = _as_vector(f_at_x, cset.dim)
    rep = check_cq(cset, x)
    if not rep.satisfied:
        raise CqViolated(f"(CQ) fails at {x.tolist()}")
    act = rep.active_indices
    grads = cset.gradients(x, act)
    if not feasible(PolyhedralCone(dim=cset.dim, rows=grads), E, f):
        raise Infeasible("the tangent cone does not meet f + Im E")
    verts, labels = _dedup_sort(_subset_vertices(grads, act, E, f))
    return KrasovskiiHull(vertices=verts, subset_labels=labels, point=x, field_value=f)


def sector_krasovskii_vertices(sec: Sector, s, w) -> KrasovskiiHull:
    """One vertex per subset of the rows of each convex part of the sector
    tangent cone at s, projected along the vertical direction.

    Away from the origin the tangent cone is one branch cone with its tight
    rows.  At the origin it is K u -K, and the subsets of K's two lines and
    of -K's two lines give the strata meeting every neighborhood of 0: the
    full plane, the four boundary halfplanes, K and -K.  Labels number the
    rows of K, then those of -K.  Every such cone is bounded by sector lines
    and Im E' = span{(0, 1)}, so its projection of w = (e, u) is the
    interval clamp ``oracle._branch_vstar``, (e, v*), with no KKT solve;
    a cone whose interval is empty misses w + Im E' and is skipped.
    """
    s = _as_vector(s, 2)
    w = _as_vector(w, 2)
    cone = sector_tangent_cone(sec, s)
    e, u = w.tolist()
    raw: list[tuple[tuple, np.ndarray]] = []
    offset = 0
    for part in cone.parts or (cone,):
        rows = part.rows.tolist()
        corrections: dict[tuple, float] = {}
        for subset in _subsets(len(rows)):
            vstar = _branch_vstar([rows[i] for i in subset], (e, u))
            if vstar is None:
                continue
            label = tuple(offset + i for i in subset)
            raw.append((label, np.array([e, vstar])))
            corrections[label] = abs(vstar - u)
        _check_nesting(corrections)
        offset += len(rows)
    verts, labels = _dedup_sort(raw)
    return KrasovskiiHull(vertices=verts, subset_labels=labels, point=s, field_value=w)


# ---------------------------------------------------------------------------
# equality verification on a barycentric grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Result of the hull-versus-projection equality check.

    ``holds`` is true when every enumerated hull point inside the tangent
    cone sits within ``witness_tol`` of the projection; ``witnesses`` lists
    in-cone combinations that do not (capped for readability, with the full
    count in ``n_witnesses``).  The check samples a barycentric grid of
    ``resolution`` rather than intersecting polytopes exactly.
    """

    holds: bool
    point: np.ndarray
    field: np.ndarray
    vertices: np.ndarray
    witnesses: np.ndarray
    n_witnesses: int
    resolution: float
    witness_tol: float

    def to_json(self) -> dict:
        return {
            "holds": bool(self.holds),
            "point": [float(v) for v in self.point],
            "field": [float(v) for v in self.field],
            "vertices": [[float(v) for v in row] for row in np.atleast_2d(self.vertices)],
            "witnesses": [[float(v) for v in row] for row in np.atleast_2d(self.witnesses)]
            if self.n_witnesses
            else [],
        }


@lru_cache(maxsize=64)
def _compositions(total: int, k: int) -> np.ndarray:
    """All k-tuples of nonnegative integers summing to total, in
    lexicographic order, as a read-only array of the smallest unsigned
    dtype that holds total (uint8 up to 255).

    The lattice grows one part at a time: each partial row, with ``left``
    still to distribute, is repeated left + 1 times and extended by
    0, 1, ..., left; after k - 1 rounds the remainder closes every row.
    Ascending extensions of lexicographic rows stay lexicographic.  Nothing
    recurses into the cache, so it holds one lattice per (total, k) pair in
    use: 0.7 MB for the 176,851 rows of (100, 4).
    """
    dtype = np.min_scalar_type(total)
    parts = np.zeros((1, 0), dtype=dtype)
    left = np.array([total], dtype=dtype)
    for _ in range(k - 1):
        counts = left.astype(np.intp) + 1
        ends = np.cumsum(counts)
        first = np.arange(ends[-1])
        first -= np.repeat(ends - counts, counts)
        first = first.astype(dtype)
        left = np.repeat(left, counts) - first
        parts = np.column_stack([np.repeat(parts, counts, axis=0), first])
    out = np.column_stack([parts, left])
    out.flags.writeable = False
    return out


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


def verify_equality(
    hull: KrasovskiiHull,
    T: PolyhedralCone,
    pi: ProjectionResult,
    simplex_resolution: float = 0.02,
    witness_tol: float = 1e-6,
) -> VerificationReport:
    """Check that hull points inside T collapse onto the projection.

    Enumerates convex combinations of the hull vertices with barycentric
    coordinates on a grid of the given resolution.  Raises ValueError,
    before building it, when the grid would exceed _GRID_LIMIT points.

    The cached lattice of ``_compositions`` is evaluated in blocks of
    _BLOCK rows, and only failing rows are kept, so the working memory
    beyond the lattice does not grow with the grid.  Distances to the
    projection and membership scales use ``_row_norms``, bit for bit the
    values of ``np.linalg.norm(axis=1)`` at these widths.
    """
    if not (0.0 < simplex_resolution <= 1.0):
        raise ValueError("simplex_resolution must lie in (0, 1]")
    V = np.atleast_2d(hull.vertices)
    n_steps = max(1, int(round(1.0 / simplex_resolution)))
    k = V.shape[0]
    n_points = math.comb(n_steps + k - 1, k - 1)
    if n_points > _GRID_LIMIT:
        raise ValueError(f"{k} vertices need {n_points} grid points, over {_GRID_LIMIT}")
    grid = _compositions(n_steps, k)
    bad_points, bad_dists = [np.zeros((0, V.shape[1]))], [np.zeros(0)]
    for start in range(0, n_points, _BLOCK):
        P = (grid[start : start + _BLOCK].astype(float) / float(n_steps)) @ V
        dists = _row_norms(P - pi.w)
        bad = _contains_many(T, P) & (dists > witness_tol)
        bad_points.append(P[bad])
        bad_dists.append(dists[bad])

    witnesses = np.concatenate(bad_points)
    n_witnesses = int(witnesses.shape[0])
    if n_witnesses > 32:
        order = np.argsort(-np.concatenate(bad_dists))
        witnesses = witnesses[order[:32]]
    return VerificationReport(
        holds=n_witnesses == 0,
        point=hull.point,
        field=hull.field_value,
        vertices=hull.vertices,
        witnesses=witnesses,
        n_witnesses=n_witnesses,
        resolution=simplex_resolution,
        witness_tol=witness_tol,
    )
