"""Krasovskii regularization as a finite vertex set, plus the equality check.

For a finitely generated set under the constraint qualification the
regularized velocity set at x is the convex hull of one projected field
value per subset J of the active constraints, each projected onto the
relaxed cone that keeps only the rows in J.  For sectors the same role is
played by the tangent cones of all strata meeting every neighborhood of the
point; at the origin that list is the eight cones generated by the two
boundary lines of K and -K, hard-coded from the geometry of K u -K.

``verify_equality`` then checks, on a barycentric grid over the hull,
whether every hull point lying in the tangent cone coincides with the
partial projection: true for regular sets, and false exactly at sector
corners approached with nonzero e-velocity.
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
    sector_project,
    sector_subspace,
)

# Vertices closer than this are one vertex (absolute, per design).
DEDUP_TOL = 1e-10
# Barycentric enumeration switches to extreme-point reduction above this
# many grid combinations; the hull itself is unchanged by the reduction.
_GRID_LIMIT = 500_000


@dataclass(frozen=True)
class KrasovskiiHull:
    """Finite generating set of the regularized velocity hull at a point.

    ``vertices`` are sorted lexicographically; ``subset_labels[i]`` lists the
    generating subsets (or sector stratum names) whose projections landed on
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
    full_cone = PolyhedralCone(dim=cset.dim, rows=grads)
    if not feasible(full_cone, E, f):
        raise Infeasible("the tangent cone does not meet f + Im E")

    raw: list[tuple[tuple, np.ndarray]] = []
    corrections: dict[tuple, float] = {}
    for size in range(len(act) + 1):
        for subset in itertools.combinations(range(len(act)), size):
            label = tuple(act[i] for i in subset)
            cone = PolyhedralCone(dim=cset.dim, rows=grads[list(subset)])
            res = project_partial(cone, E, f)
            raw.append((label, res.w))
            corrections[label] = res.correction_norm
    _check_nesting(corrections)
    verts, labels = _dedup_sort(raw)
    return KrasovskiiHull(vertices=verts, subset_labels=labels, point=x, field_value=f)


def _corner_strata(sec: Sector) -> list[tuple[str, PolyhedralCone]]:
    """Tangent cones of all sector strata meeting every neighborhood of 0."""
    k1, k2 = sec.k1, sec.k2
    half = lambda row: PolyhedralCone(dim=2, rows=np.array([row]))
    return [
        ("full", PolyhedralCone.full_space(2)),
        ("le_k2", half([k2, -1.0])),  # boundary u = k2 e on the K side
        ("ge_k1", half([-k1, 1.0])),  # boundary u = k1 e on the K side
        ("ge_k2", half([-k2, 1.0])),  # boundary u = k2 e on the -K side
        ("le_k1", half([k1, -1.0])),  # boundary u = k1 e on the -K side
        ("K", sec.cone_k()),
        ("-K", sec.cone_minus_k()),
    ]


def sector_krasovskii_vertices(sec: Sector, s, w) -> KrasovskiiHull:
    """Stratum-by-stratum projections generating the sector hull at s.

    At the origin the strata are the eight cones of the corner geometry
    (full plane, four boundary halfplanes, K, -K and their union); away
    from it, the subsets of the local branch's active rows.  Cones missed by
    w + Im E' are skipped.
    """
    s = _as_vector(s, 2)
    w = _as_vector(w, 2)
    E2 = sector_subspace()
    raw: list[tuple[str, np.ndarray]] = []
    chains: dict[str, float] = {}

    if sec.is_corner(s):
        for label, cone in _corner_strata(sec):
            if not feasible(cone, E2, w):
                continue
            res = project_partial(cone, E2, w)
            raw.append((label, res.w))
            chains[label] = res.correction_norm
        union_res = sector_project(sec, s, w)
        raw.append(("K|-K", union_res.w))
        # Nesting along each branch chain: full > halfplane > branch cone.
        for top, mid_lo, mid_hi in (("K", "ge_k1", "le_k2"), ("-K", "ge_k2", "le_k1")):
            if top in chains:
                for mid in (mid_lo, mid_hi):
                    if mid in chains and chains[mid] > chains[top] + 1e-9:
                        raise AssertionError("sector stratum nesting violated")
    else:
        branch = sector_tangent_cone(sec, s)
        rows = branch.rows
        corrections: dict[tuple, float] = {}
        for size in range(rows.shape[0] + 1):
            for subset in itertools.combinations(range(rows.shape[0]), size):
                cone = PolyhedralCone(dim=2, rows=rows[list(subset)])
                res = project_partial(cone, E2, w)
                raw.append((subset, res.w))
                corrections[subset] = res.correction_norm
        _check_nesting(corrections)

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
    count in ``n_witnesses``).  The check samples a barycentric grid rather
    than intersecting polytopes exactly; ``note`` records that caveat.
    """

    holds: bool
    point: np.ndarray
    field: np.ndarray
    vertices: np.ndarray
    witnesses: np.ndarray
    n_witnesses: int
    resolution: float
    witness_tol: float
    note: str

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
    lexicographic order.

    Stars and bars: the k - 1 bars sit at increasing positions among
    total + k - 1 slots, and each part is the gap between neighbouring bars
    (with bars at -1 and total + k - 1 closing the ends).  Lexicographic bar
    positions give lexicographic parts.  Nothing recurses into the cache,
    so it holds one grid per (total, k) pair in use.
    """
    slots = total + k - 1
    n_rows = math.comb(slots, k - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), k - 1)),
        dtype=np.int64,
        count=n_rows * (k - 1),
    ).reshape(n_rows, k - 1)
    out = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    out.flags.writeable = False
    return out


def _extreme_points(V: np.ndarray) -> np.ndarray:
    """Drop generators lying in the hull of the others (hull unchanged)."""
    import scipy.optimize

    k = V.shape[0]
    if k <= 2:
        return V
    keep = []
    for i in range(k):
        others = np.delete(V, i, axis=0)
        A_eq = np.vstack([np.ones((1, others.shape[0])), others.T])
        b_eq = np.concatenate([[1.0], V[i]])
        res = scipy.optimize.linprog(
            np.zeros(others.shape[0]),
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * others.shape[0],
            method="highs",
        )
        if not res.success:
            keep.append(i)
    if not keep:  # all generators coincide numerically
        return V[:1]
    return V[keep]


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
    coordinates on a grid of the given resolution.  When the combination
    count would be excessive the generator list is first reduced to its
    extreme points, which leaves the hull (and hence ``holds``) unchanged
    but may thin the reported witnesses.
    """
    if not (0.0 < simplex_resolution <= 1.0):
        raise ValueError("simplex_resolution must lie in (0, 1]")
    V = np.atleast_2d(hull.vertices)
    n_steps = max(1, int(round(1.0 / simplex_resolution)))
    note = "barycentric grid check, not an exact polytope intersection"

    k = V.shape[0]
    if k > 1 and math.comb(n_steps + k - 1, k - 1) > _GRID_LIMIT:
        V = _extreme_points(V)
        k = V.shape[0]
        note += "; generators reduced to extreme points before enumeration"

    if k == 1:
        P = V.copy()
    else:
        lam = _compositions(n_steps, k).astype(float) / float(n_steps)
        P = lam @ V

    in_cone = _contains_many(T, P)
    dists = np.linalg.norm(P - pi.w[None, :], axis=1)
    bad = in_cone & (dists > witness_tol)
    witnesses = P[bad]
    n_witnesses = int(witnesses.shape[0])
    if n_witnesses > 32:
        order = np.argsort(-dists[bad])
        witnesses = witnesses[order[:32]]
    return VerificationReport(
        holds=not bool(np.any(bad)),
        point=hull.point,
        field=hull.field_value,
        vertices=hull.vertices,
        witnesses=witnesses if n_witnesses else np.zeros((0, V.shape[1])),
        n_witnesses=n_witnesses,
        resolution=simplex_resolution,
        witness_tol=witness_tol,
        note=note,
    )
