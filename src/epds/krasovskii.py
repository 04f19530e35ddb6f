"""Krasovskii regularization as a finite vertex set, plus the equality check.

For a finitely generated set under the constraint qualification the
regularized velocity set at x is the convex hull of one projected field
value per subset J of the active constraints, each projected onto the
relaxed cone that keeps only the rows in J (the Krasovskii regularization
of Hauswirth, Bolognani, Hug and Dorfler, SIAM J. Control Optim. 59(1),
2021).  For sectors the same builder runs on the rows of each convex part
of the tangent cone: at the origin the subsets of K's two lines and of
-K's two lines give the tangent cones of all strata meeting every
neighborhood of 0 (the full plane, the four boundary halfplanes, K and -K).

``verify_equality`` then checks, on a barycentric grid over the hull,
whether every hull point lying in the tangent cone coincides with the
partial projection: true for regular sets, and false exactly at sector
corners approached with nonzero e-velocity.  The grid's integer lattice is
built once per resolution and vertex count, in the smallest unsigned dtype,
and is evaluated in fixed blocks; no array ever holds the grid's points.
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
from .projection import (
    ProjectionResult,
    ProjectionSubspace,
    feasible,
    project_partial,
    sector_subspace,
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


def _subset_vertices(
    rows: np.ndarray, names, E: ProjectionSubspace, f: np.ndarray
) -> list[tuple[tuple, np.ndarray]]:
    """Projections of f onto the relaxed cone of every subset J of ``rows``.

    Each projection is labelled by the names of the rows in J.  A relaxed
    cone that misses f + Im E is skipped; the corrections of the others are
    checked for nesting.
    """
    raw: list[tuple[tuple, np.ndarray]] = []
    corrections: dict[tuple, float] = {}
    for size in range(len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
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
    rows of K, then those of -K; cones missed by w + Im E' are skipped.
    """
    s = _as_vector(s, 2)
    w = _as_vector(w, 2)
    cone = sector_tangent_cone(sec, s)
    E2 = sector_subspace()
    raw: list[tuple[tuple, np.ndarray]] = []
    offset = 0
    for part in cone.parts or (cone,):
        raw += _subset_vertices(part.rows, range(offset, offset + part.n_rows), E2, w)
        offset += part.n_rows
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


def _contains_many(T: PolyhedralCone, P: np.ndarray, tol: float = EPS_CONE) -> np.ndarray:
    if not T.convex:
        return _contains_many(T.parts[0], P, tol) | _contains_many(T.parts[1], P, tol)
    if T.n_rows == 0:
        return np.ones(P.shape[0], dtype=bool)
    slack = P @ T.rows.T
    scale = 1.0 + np.linalg.norm(T.rows, axis=1)[None, :] * np.linalg.norm(P, axis=1)[:, None]
    return np.all(slack >= -tol * scale, axis=1)


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
    beyond the lattice does not grow with the grid.
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
        dists = np.linalg.norm(P - pi.w[None, :], axis=1)
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
