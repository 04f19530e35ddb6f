"""Brute-force reference evaluation of partial projections and tangent cones.

This module certifies the closed-form solvers and is deliberately built on
different mathematics: no KKT systems, no active-set enumeration.  The
projection oracle scores a dense grid over the correction coefficients,
filtered by raw cone membership; the grid is evaluated on its separable
axes, one constraint row at a time, and never materialized as a point
array.  It then refines the best feasible point with bisection-style
geometric passes (shrinking along the ray to the feasibility boundary,
alternating halfspace projections, and exact one-dimensional minimization
along the edges and facets active at the point, then along a fixed
direction set, each line solved by interval arithmetic on the
constraints).  The tangent-cone oracle tests the sequential definition
directly with difference quotients.

It may be orders of magnitude slower than the main solvers; that is fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, sub

import numpy as np

from .errors import NoFeasiblePoint
from .geometry import ConstraintSet, PolyhedralCone, Sector, _as_vector
from .projection import ProjectionSubspace

_GRID_DEFAULTS = {1: 2001, 2: 201, 3: 51}


@dataclass(frozen=True)
class OracleConfig:
    """Grid geometry for the projection oracle.

    ``eta_box_halfwidth`` defaults to 10 * (1 + |v|); grid points per
    dimension default to 2001 / 201 / 51 for n_E = 1 / 2 / 3.
    """

    eta_box_halfwidth: float | None = None
    grid_points_per_dim: int | None = None
    refine_iters: int = 60

    def __post_init__(self):
        if self.grid_points_per_dim is not None and self.grid_points_per_dim < 3:
            raise ValueError("grid_points_per_dim must be at least 3")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be at least 1")

    def resolve(self, n_e: int, v_norm: float) -> tuple[float, int]:
        hw = self.eta_box_halfwidth
        if hw is None:
            hw = 10.0 * (1.0 + v_norm)
        pts = self.grid_points_per_dim
        if pts is None:
            pts = _GRID_DEFAULTS[n_e]
        return float(hw), int(pts)


def _basis_of(E) -> np.ndarray:
    if isinstance(E, ProjectionSubspace):
        return E.basis
    return np.atleast_2d(np.asarray(E, dtype=float))


def _is_feasible(eta: np.ndarray, G: np.ndarray, g: np.ndarray, slack: float) -> bool:
    if G.shape[0] == 0:
        return True
    return bool(np.all(G @ eta >= g - slack))


def _grid_incumbent(G, g, Q, n_e, halfwidth, pts, slack):
    """Best feasible point of the pts**n_E grid on [-halfwidth, halfwidth]**n_E.

    The grid is scored on separable axes and never materialized: row i of
    G @ eta is a broadcast sum of one scaled axis per coordinate, so the
    feasibility mask is built row by row over the index box, and only the
    feasible points are formed (in C order, so argmin breaks ties as a
    ravelled ``meshgrid(indexing="ij")`` would).
    """
    lin = np.linspace(-halfwidth, halfwidth, pts)
    axes = [lin.reshape([pts if d == k else 1 for k in range(n_e)]) for d in range(n_e)]
    mask = np.ones((pts,) * n_e, dtype=bool)
    for row, bound in zip(G, g - slack):
        mask &= sum(ax * c for ax, c in zip(axes, row)) >= bound
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    cand = lin[np.column_stack(np.unravel_index(idx, mask.shape))]
    obj = np.einsum("ij,ij->i", cand @ Q, cand)
    return cand[int(np.argmin(obj))]


def _ray_shrink(eta, G, g, slack, iters):
    """Smallest t in [0,1] with t*eta feasible; valid because the feasible
    set is convex, so {t : t*eta feasible} is an interval containing 1."""
    if _is_feasible(np.zeros_like(eta), G, g, slack):
        return np.zeros_like(eta)
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _is_feasible(mid * eta, G, g, slack):
            hi = mid
        else:
            lo = mid
    return hi * eta


def _lp_feasible_seed(G, g):
    """Deep feasible seed by maximizing the row-scaled margin (capped at 1).

    Used only when both the grid and the alternating projections miss the
    feasible set (wedges with very small opening angles); the seed merely
    starts the geometric refinement, which owns optimality.
    """
    import scipy.optimize

    k, n_e = G.shape
    rn = np.linalg.norm(G, axis=1)
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(n_e), [-1.0]]),
        A_ub=np.column_stack([-G, rn]),
        b_ub=-g,
        bounds=[(None, None)] * n_e + [(None, 1.0)],
        method="highs",
    )
    if not res.success:
        return None
    eta, margin = res.x[:-1], res.x[-1]
    if margin < -1e-9:
        return None
    return eta


def _pocs_feasible(G, g, Q, max_iters=3_000):
    """Feasible point by alternating halfspace projections in the Q-metric.

    Rescues feasible sets too narrow or too far out for the grid to hit:
    projections onto the most violated halfspace converge to the polyhedron
    whenever it is nonempty.  Returns None when the iteration stalls
    infeasible, which is the genuine-infeasibility signal.
    """
    k, n_e = G.shape
    if k == 0:
        return np.zeros(n_e)
    Qinv = np.linalg.inv(Q)
    aQ = (Qinv @ G.T).T
    denom = np.maximum(np.einsum("ij,ij->i", G, aQ), 1e-30)
    rownorm = np.linalg.norm(G, axis=1)
    x = np.zeros(n_e)
    for _ in range(max_iters):
        viol = g - G @ x
        # Row-scaled tolerance: large iterates carry proportional roundoff.
        tol = 1e-12 * (1.0 + np.abs(g) + rownorm * np.linalg.norm(x))
        j = int(np.argmax(viol - tol))
        if viol[j] <= tol[j]:
            return x
        x = x + (viol[j] / denom[j]) * aQ[j]
    tol = 1e-11 * (1.0 + np.abs(g) + rownorm * np.linalg.norm(x))
    return x if np.all(G @ x >= g - tol) else None


def _dykstra(G, g, Q, max_sweeps=6000):
    """Projection of the origin onto {G eta >= g} in the |E .|-metric.

    Classical alternating projections with Dykstra's corrections; each
    halfspace projection is closed form in the Q-inner product.  Returns the
    iterate after convergence or the sweep cap.  The sweeps run on plain
    floats: with n_E <= 3 a row step is a handful of multiply-adds, which
    small-array numpy would spend on allocation.
    """
    k, n_e = G.shape
    if k == 0:
        return np.zeros(n_e)
    Qinv = np.linalg.inv(Q)
    aQ = (Qinv @ G.T).T  # rows: Qinv a_j
    denom = np.einsum("ij,ij->i", G, aQ)
    denom = np.maximum(denom, 1e-30)
    rows = list(zip(G.tolist(), g.tolist(), aQ.tolist(), denom.tolist()))
    x = [0.0] * n_e
    p = [[0.0] * n_e for _ in range(k)]
    for _ in range(max_sweeps):
        x_prev = x
        for j, (a, gj, aq, dj) in enumerate(rows):
            y = list(map(add, x, p[j]))
            viol = gj - sum(map(mul, a, y))
            if viol > 0.0:
                s = viol / dj
                x = [yi + s * qi for yi, qi in zip(y, aq)]
                p[j] = list(map(sub, y, x))
            else:
                x = y
                p[j] = [0.0] * n_e
        if math.dist(x, x_prev) <= 1e-15 * (1.0 + math.hypot(*x)):
            break
    x = np.array(x)
    # Dykstra approaches the set from outside; a few plain projection
    # passes restore strict feasibility without moving the optimum.
    for _ in range(100):
        viol = g - G @ x
        j = int(np.argmax(viol))
        if viol[j] <= 0.0:
            break
        x = x + (viol[j] / denom[j]) * aQ[j]
    return x


def _null_directions(rows: np.ndarray, n_e: int) -> list[np.ndarray]:
    """Tangent directions of active facets, built by elementary geometry:
    in 3-D the edges of active row pairs first, since a facet tangent taken
    on an edge steps off it, then nullspace vectors of single rows."""
    dirs: list[np.ndarray] = []
    if n_e == 3:
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                t = np.cross(rows[i], rows[j])
                if np.linalg.norm(t) > 1e-12:
                    dirs.append(t / np.linalg.norm(t))
    for a in rows:
        na = np.linalg.norm(a)
        if na < 1e-14:
            continue
        u = a / na
        if n_e == 2:
            dirs.append(np.array([-u[1], u[0]]))
        elif n_e == 3:
            for e in np.eye(3):
                t = e - (e @ u) * u
                if np.linalg.norm(t) > 1e-8:
                    dirs.append(t / np.linalg.norm(t))
    return dirs


def _direction_set(n_e: int) -> np.ndarray:
    """Axes plus all +-1 diagonal patterns (one representative per line)."""
    dirs = list(np.eye(n_e))
    if n_e >= 2:
        grids = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * n_e), indexing="ij")
        pats = np.column_stack([m.ravel() for m in grids])
        for p in pats:
            nz = np.flatnonzero(p)
            if len(nz) < 2:
                continue
            if p[nz[0]] < 0:  # antipodal representative
                continue
            dirs.append(p / np.linalg.norm(p))
    return np.array(dirs)


def _line_min(eta, d, G, g, Q):
    """Exact constrained minimizer of |E(eta + t d)| along the line.

    The feasible t-interval comes from interval arithmetic on the rows; the
    objective is a one-dimensional quadratic, so the constrained minimizer
    is its vertex clamped to the interval.
    """
    Gd = G @ d if G.shape[0] else np.zeros(0)
    r = g - G @ eta if G.shape[0] else np.zeros(0)
    scale = 1.0 + np.abs(g) if g.size else np.zeros(0)
    tmin, tmax = -math.inf, math.inf
    for c, rj, sj in zip(Gd, r, scale):
        if c > 1e-14:
            tmin = max(tmin, rj / c)
        elif c < -1e-14:
            tmax = min(tmax, rj / c)
        elif rj > 1e-11 * sj:
            return None
    if tmin > tmax:
        return None
    qd = float(d @ Q @ d)
    if qd <= 0.0:
        return None
    topt = -float(d @ Q @ eta) / qd
    return min(max(topt, tmin), tmax)


def _gradient_directions(eta, G, active, Q, n_e) -> list[np.ndarray]:
    """Steepest descent and its projections onto active-facet tangent spaces.

    Adapting directions to the objective avoids the zigzag stalls that a
    fixed axis set suffers on tilted facets.
    """
    grad = Q @ eta
    ng = np.linalg.norm(grad)
    if ng < 1e-16:
        return []
    dirs = [-grad / ng]
    rows = G[active]
    for a in rows:
        na = np.linalg.norm(a)
        if na < 1e-14:
            continue
        u = a / na
        d = -grad + (grad @ u) * u
        nd = np.linalg.norm(d)
        if nd > 1e-12 * ng:
            dirs.append(d / nd)
    if n_e == 3 and rows.shape[0] >= 2:
        for i in range(rows.shape[0]):
            for j in range(i + 1, rows.shape[0]):
                t = np.cross(rows[i], rows[j])
                nt = np.linalg.norm(t)
                if nt > 1e-12:
                    t = t / nt
                    if float(t @ grad) > 0:
                        t = -t
                    dirs.append(t)
    return dirs


def _local_directions(eta, G, g, Q, n_e) -> list[np.ndarray]:
    """Directions that belong to the point: tangents of its nearly active
    facets, steepest descent and its facet projections, and the ray."""
    if G.shape[0]:
        # Loose activity cut: tangents of nearly-active rows are cheap
        # and rescue points parked just inside a facet.
        scale = 1.0 + np.abs(g) + np.linalg.norm(G, axis=1) * np.linalg.norm(eta)
        active = np.abs(G @ eta - g) <= 1e-6 * scale
    else:
        active = np.zeros(0, bool)
    dirs = _null_directions(G[active], n_e) + _gradient_directions(eta, G, active, Q, n_e)
    nrm = np.linalg.norm(eta)
    if nrm > 1e-14:
        dirs.append(eta / nrm)
    return dirs


def _line_pass(eta, obj, dirs, G, g, Q):
    """Exact line minimization along each direction in turn."""
    improved = False
    for d in dirs:
        t = _line_min(eta, d, G, g, Q)
        if t is None or abs(t) < 1e-16:
            continue
        cand = eta + t * d
        cand_obj = float(cand @ Q @ cand)
        if cand_obj < obj - 1e-18 * (1.0 + obj):
            eta, obj = cand, cand_obj
            improved = True
    return eta, obj, improved


def _refine(eta, G, g, Q, n_e, iters):
    """Exact line searches until no direction improves the objective.

    Local directions are retaken after every pass that moved the point, so
    the search walks from a facet to an edge to a vertex; the fixed set
    runs only when they stall.  Local directions of a point the search has
    already left zigzag down a thin wedge and stop short of its apex.
    """
    base_dirs = _direction_set(n_e)
    obj = float(eta @ Q @ eta)
    for _ in range(iters):
        eta, obj, slid = _line_pass(eta, obj, _local_directions(eta, G, g, Q, n_e), G, g, Q)
        if slid:
            continue
        eta, obj, moved = _line_pass(eta, obj, base_dirs, G, g, Q)
        if not moved:
            break
    return eta


def _solve_convex(G, g, Q, n_e, halfwidth, pts, refine_iters):
    """Grid search plus refinement for one convex branch.

    When the grid (after one box doubling, handled by the caller via two
    half-widths) misses a narrow feasible wedge, a projection-based
    feasibility fallback seeds the refinement instead; None means the
    branch is genuinely infeasible.
    """
    slack = 1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
    eta = None
    for hw in (halfwidth, 2.0 * halfwidth):
        eta = _grid_incumbent(G, g, Q, n_e, hw, pts, slack)
        if eta is not None:
            break
    if eta is None:
        eta = _pocs_feasible(G, g, Q)
    if eta is None:
        eta = _lp_feasible_seed(G, g)
        if eta is None:
            return None
    eta = _ray_shrink(eta, G, g, 0.0, refine_iters)
    if n_e >= 2 and G.shape[0] > 0:
        cand = _dykstra(G, g, Q)
        if _is_feasible(cand, G, g, 1e-12 * (1.0 + np.max(np.abs(g), initial=1.0))):
            if float(cand @ Q @ cand) < float(eta @ Q @ eta):
                eta = cand
    eta = _refine(eta, G, g, Q, n_e, refine_iters)
    return eta


def oracle_project(cone: PolyhedralCone, E, v, cfg: OracleConfig | None = None) -> np.ndarray:
    """Reference partial projection by dense grid plus geometric refinement.

    Accepts convex cones and union-tagged sector tangents; for a union the
    branches are solved separately and the smaller correction wins.  Raises
    NoFeasiblePoint when neither the grid (after one box doubling) nor the
    projection/LP feasibility fallbacks reach the feasible set, which
    distinguishes genuine infeasibility from a too-small box.
    """
    cfg = cfg or OracleConfig()
    Eb = _basis_of(E)
    v = _as_vector(v, Eb.shape[0])
    n_e = Eb.shape[1]
    if n_e > 3:
        raise ValueError("the oracle supports n_E <= 3")
    halfwidth, pts = cfg.resolve(n_e, float(np.linalg.norm(v)))
    Q = Eb.T @ Eb

    branches = [cone] if cone.convex else list(cone.parts)
    best = None
    best_obj = math.inf
    for branch in branches:
        G = branch.rows @ Eb
        g = -(branch.rows @ v)
        eta = _solve_convex(G, g, Q, n_e, halfwidth, pts, cfg.refine_iters)
        if eta is None:
            continue
        obj = float(eta @ Q @ eta)
        if obj < best_obj:
            best, best_obj = eta, obj
    if best is None:
        raise NoFeasiblePoint(
            "no feasible correction found by the grid (after doubling the box) "
            "or the feasibility fallback"
        )
    return v + Eb @ best


# ---------------------------------------------------------------------------
# sequential tangent-cone membership
# ---------------------------------------------------------------------------


def _nearest_point_constraint_set(cset: ConstraintSet, p: np.ndarray) -> np.ndarray:
    """Local constraint correction: Gauss-Newton steps onto violated rows."""
    y = p.copy()
    for _ in range(60):
        vals = cset.values(y)
        viol = np.flatnonzero(vals < -1e-14 * (1.0 + np.abs(vals)))
        if viol.size == 0:
            return y
        J = cset.gradients(y, viol)
        target = -vals[viol]
        delta, *_ = np.linalg.lstsq(J, target, rcond=None)
        y = y + delta
    return y


def _nearest_point_sector(sec: Sector, p: np.ndarray) -> np.ndarray:
    """Exact nearest point of the sector: the point itself, or the closest
    projection onto one of the four boundary rays."""
    if sec.contains(p):
        return p.copy()
    cands = []
    for d in (
        np.array([1.0, sec.k1]),
        np.array([1.0, sec.k2]),
        np.array([-1.0, -sec.k1]),
        np.array([-1.0, -sec.k2]),
    ):
        t = max(0.0, float(p @ d) / float(d @ d))
        cands.append(t * d)
    dists = [np.linalg.norm(p - c) for c in cands]
    return cands[int(np.argmin(dists))]


def oracle_tangent_membership(set_obj, x, v) -> bool:
    """Sequential tangent-cone test: difference quotients of corrected points.

    For step sizes tau_j = 2**-j, j = 4..24, the point x + tau_j v is pulled
    back to the set by local constraint correction and the quotient
    (y_j - x) / tau_j is compared to v; membership requires the trailing
    quotients to stay within 1e-4 (scaled by 1 + |v|) of v.
    """
    x = _as_vector(x)
    v = _as_vector(v, x.shape[0])
    if isinstance(set_obj, Sector):
        nearest = lambda p: _nearest_point_sector(set_obj, p)
    elif isinstance(set_obj, ConstraintSet):
        nearest = lambda p: _nearest_point_constraint_set(set_obj, p)
    else:
        raise TypeError("set_obj must be a ConstraintSet or Sector")

    tol = 1e-4 * (1.0 + float(np.linalg.norm(v)))
    errs = []
    for j in range(4, 25):
        tau = 2.0 ** (-j)
        y = nearest(x + tau * v)
        q = (y - x) / tau
        errs.append(float(np.linalg.norm(q - v)))
    return all(e <= tol for e in errs[-3:])
