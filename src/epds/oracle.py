"""Brute-force reference evaluation of partial projections and tangent cones.

This module certifies the closed-form solvers and is deliberately built on
different mathematics: no KKT systems, no active-set enumeration.  The
projection oracle seeds each convex branch with a feasible point from a
chain of independent methods: Dykstra's alternating halfspace projections
in the correction metric; where their sweeps stall, a dense grid over the
correction coefficients, scored on its separable axes one constraint row at
a time and never materialized; and, where the grid misses too, a
max-margin LP.  It then refines the seed by exact one-dimensional
minimization along the ray, along the Newton step projected onto each
facet active at the point and along the edges where they meet, each line
solved by interval arithmetic on the constraints.  The tangent-cone oracle
tests the sequential definition directly with difference quotients.

It may be orders of magnitude slower than the main solvers; that is fine.
"""

from __future__ import annotations

import math
from operator import add, mul, sub

import numpy as np

from .errors import NoFeasiblePoint
from .geometry import ConstraintSet, PolyhedralCone, Sector, _as_vector
from .projection import ProjectionSubspace

# Grid points per axis for n_E = 1 / 2 / 3, and exact-line-search passes.
_GRID_POINTS = {1: 2001, 2: 201, 3: 51}
_REFINE_ITERS = 60


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


def _lp_feasible_seed(G, g):
    """Deep feasible seed by maximizing the row-scaled margin (capped at 1).

    The last rung of the seed chain, used only when Dykstra stalls outside
    the feasible set and the grid misses it at both box sizes (wedges with
    very small opening angles, far from the origin).  The seed merely
    starts the geometric refinement, which owns optimality; None means the
    branch is infeasible.  scipy.optimize is imported here, so a pass that
    never reaches this rung never loads it.
    """
    import scipy.optimize

    n_e = G.shape[1]
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


def _edge_directions(rows: np.ndarray) -> list[np.ndarray]:
    """Directions of the edges where two of the given 3-D facets meet."""
    dirs: list[np.ndarray] = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            t = np.cross(rows[i], rows[j])
            if np.linalg.norm(t) > 1e-12:
                dirs.append(t / np.linalg.norm(t))
    return dirs


def _t_interval(Gd, r, scale):
    """Interval (tmin, tmax) of the t with Gd_j t >= r_j for all j, or None
    if empty, on plain floats; a row with |Gd_j| <= 1e-14 must hold alone."""
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
    return tmin, tmax


def _line_min(eta, d, G, g, Q):
    """Exact constrained minimizer of |E(eta + t d)| along the line.

    The feasible t-interval comes from ``_t_interval`` on the rows; the
    objective is a one-dimensional quadratic, so the constrained minimizer
    is its vertex clamped to the interval.
    """
    interval = _t_interval((G @ d).tolist(), (g - G @ eta).tolist(), (1.0 + np.abs(g)).tolist())
    if interval is None:
        return None
    tmin, tmax = interval
    qd = float(d @ Q @ d)
    if qd <= 0.0:
        return None
    topt = -float(d @ Q @ eta) / qd
    return min(max(topt, tmin), tmax)


def _local_directions(eta, G, g, Q) -> list[np.ndarray]:
    """Line directions that belong to the point.

    The ray first, along which the Newton step -eta runs; then -eta
    projected in the Q-metric onto each nearly active facet, so that one
    exact line search reaches the facet's own minimizer however
    ill-conditioned Q is, where Euclidean descent zigzags; then, in 3-D,
    the edges where two of those facets meet.
    """
    # Loose activity cut: directions of nearly-active rows are cheap and
    # rescue points parked just inside a facet.  A zero row bounds no facet.
    rn = np.linalg.norm(G, axis=1)
    scale = 1.0 + np.abs(g) + rn * np.linalg.norm(eta)
    rows = G[(np.abs(G @ eta - g) <= 1e-6 * scale) & (rn > 1e-14)]
    dirs = []
    nrm = np.linalg.norm(eta)
    if nrm > 1e-14:
        dirs.append(eta / nrm)
    for a in rows:
        qa = np.linalg.solve(Q, a)
        d = -eta + (a @ eta) / (a @ qa) * qa
        # Cancellation tilts d off the facet, which _line_min would read
        # as crossing it and block the step.
        d -= (a @ d) / (a @ a) * a
        nd = np.linalg.norm(d)
        if nd > 1e-14 * (1.0 + nrm):
            dirs.append(d / nd)
    return dirs + (_edge_directions(rows) if G.shape[1] == 3 else [])


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


def _refine(eta, G, g, Q):
    """Exact line searches until no local direction improves the objective.

    The directions are retaken after every pass, so the search walks from
    the interior to a facet, an edge and a vertex.  Directions of a point
    the search has already left zigzag down a thin wedge and stop short of
    its apex.
    """
    obj = float(eta @ Q @ eta)
    for _ in range(_REFINE_ITERS):
        eta, obj, moved = _line_pass(eta, obj, _local_directions(eta, G, g, Q), G, g, Q)
        if not moved:
            break
    return eta


def _solve_convex(G, g, Q, n_e, halfwidth):
    """One convex branch: the first feasible seed of the chain Dykstra,
    grid, LP, refined by exact line searches; None if the branch is
    infeasible.

    Dykstra's iterate is taken when it meets every row to within
    1e-12 (1 + max|g|).  Otherwise its sweeps stalled, and the grid seeds
    the branch, on the default box and then on one twice as wide; the LP
    seeds it only when the grid misses both.
    """
    eta = _dykstra(G, g, Q)
    if not _is_feasible(eta, G, g, 1e-12 * (1.0 + np.max(np.abs(g), initial=1.0))):
        slack = 1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
        eta = _grid_incumbent(G, g, Q, n_e, halfwidth, _GRID_POINTS[n_e], slack)
        if eta is None:
            eta = _grid_incumbent(G, g, Q, n_e, 2.0 * halfwidth, _GRID_POINTS[n_e], slack)
        if eta is None:
            eta = _lp_feasible_seed(G, g)
        if eta is None:
            return None
    return _refine(eta, G, g, Q)


def oracle_project(cone: PolyhedralCone, E: ProjectionSubspace, v) -> np.ndarray:
    """Reference partial projection: a feasible seed, then exact line searches.

    Each convex branch is seeded by Dykstra's alternating projections, or,
    where they stall, by a dense grid on the box |eta_i| <= 10 (1 + |v|)
    (doubled once if it misses) or a max-margin LP; see ``_solve_convex``.
    For a union-tagged sector tangent the branches are solved separately
    and the smaller correction wins.  Raises NoFeasiblePoint when no
    branch yields a seed, which means the problem is infeasible.
    """
    Eb = E.basis
    v = _as_vector(v, Eb.shape[0])
    n_e = Eb.shape[1]
    if n_e > 3:
        raise ValueError("the oracle supports n_E <= 3")
    halfwidth = 10.0 * (1.0 + float(np.linalg.norm(v)))
    Q = Eb.T @ Eb

    branches = [cone] if cone.convex else list(cone.parts)
    best = None
    best_obj = math.inf
    for branch in branches:
        G = branch.rows @ Eb
        g = -(branch.rows @ v)
        eta = _solve_convex(G, g, Q, n_e, halfwidth)
        if eta is None:
            continue
        obj = float(eta @ Q @ eta)
        if obj < best_obj:
            best, best_obj = eta, obj
    if best is None:
        raise NoFeasiblePoint(
            "no feasible correction found by Dykstra's projections, the grid "
            "(after doubling the box) or the LP seed"
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
