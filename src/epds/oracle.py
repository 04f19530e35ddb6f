"""Brute-force reference evaluation of partial projections and tangent cones.

This module certifies the closed-form solvers and is deliberately built on
different mathematics: no KKT systems, no active-set enumeration.  The
projection oracle seeds each convex branch with one exact method,
Fourier-Motzkin elimination of the correction coefficients (at most three
eliminations for n_E <= 3), which returns a point of the branch or proves
it empty.  It then refines the seed by exact one-dimensional
minimization along the ray, along the Newton step projected onto each
facet active at the point and along the edges where they meet, each line
solved by interval arithmetic on the constraints.  The tangent-cone oracle
tests the sequential definition directly with difference quotients.
``_branch_vstar``, the exact interval projection along (0, 1) onto a cone
of sector lines, is criterion 5's reference and also builds the sector
Krasovskii hulls.

It may be orders of magnitude slower than the main solvers; that is fine.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoFeasiblePoint
from .geometry import ConstraintSet, PolyhedralCone, Sector, _as_vector
from .projection import ProjectionSubspace

# Exact-line-search passes.
_REFINE_ITERS = 60


def _fm_seed(G, g):
    """A point of {G eta >= g}, or None when that set is empty.

    Fourier-Motzkin elimination of the last coordinate, recursively.  Each
    row (G_i, g_i) is scaled to unit length and exactly zero rows are
    dropped; with no coordinates left the set is nonempty iff every g_i <= 0.
    A row with last coefficient c > 1e-12 bounds that coordinate from below,
    c < -1e-12 from above, and any other row passes through.  Each
    lower/upper pair, each divided by its |c|, sums to one row free of the
    coordinate; a sum no longer than 1e-9 (1/|c_p| + 1/|c_n|), the summed
    length of its parts, is roundoff of 0 >= 0 and is dropped.  Back
    substitution takes the value nearest 0 in the interval [lo, hi] that the
    bounds leave, or its midpoint when lo > hi by roundoff.  One elimination
    leaves at most max(m^2/4, m) of m rows, which n_E <= 3 keeps small.
    """
    eta = _fm_eliminate(list(zip(G.tolist(), g.tolist())), G.shape[1])
    return None if eta is None else np.array(eta)


def _fm_eliminate(rows, n):
    """``_fm_seed`` on plain floats: rows is a list of (row, rhs) pairs in n
    coordinates, and the point is returned as a list."""
    unit = [([a / r for a in row], b / r) for row, b in rows if (r := math.hypot(*row, b)) > 0.0]
    if n == 0:
        return [] if all(b <= 0.0 for _, b in unit) else None
    lower, upper, rest = [], [], []
    for row, b in unit:
        c = row[-1]
        if c > 1e-12:
            lower.append((row[:-1], b, c))
        elif c < -1e-12:
            upper.append((row[:-1], b, c))
        else:
            rest.append((row[:-1], b))
    for rp, bp, cp in lower:
        for rn, bn, cn in upper:
            row = [x / cp - y / cn for x, y in zip(rp, rn)]
            b = bp / cp - bn / cn
            if math.hypot(*row, b) > 1e-9 * (1.0 / cp - 1.0 / cn):
                rest.append((row, b))
    eta = _fm_eliminate(rest, n - 1)
    if eta is None:
        return None
    lo = max((_residual(row, b, eta) / c for row, b, c in lower), default=-math.inf)
    hi = min((_residual(row, b, eta) / c for row, b, c in upper), default=math.inf)
    return eta + [0.5 * (lo + hi) if lo > hi else min(max(0.0, lo), hi)]


def _residual(row, b, eta):
    """b - row . eta on plain floats."""
    return b - sum(a * x for a, x in zip(row, eta))


def _edge_directions(rows: np.ndarray) -> list[np.ndarray]:
    """Directions of the edges where two of the given 3-D facets meet.

    The cross product picks the pairs and the sign; the direction itself is
    the null vector of the pair's SVD.  For nearly opposite rows the cross
    product cancels and leaves the direction tilted off both facets by far
    more than roundoff, which ``_line_min`` reads as crossing them.
    """
    dirs: list[np.ndarray] = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            t = np.cross(rows[i], rows[j])
            if np.linalg.norm(t) > 1e-12:
                d = np.linalg.svd(rows[[i, j]])[2][-1]
                dirs.append(d if d @ t >= 0.0 else -d)
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


def _branch_vstar(rows, w) -> float | None:
    """u of the projection of w = (e, u) along (0, 1) into the convex cone
    of the sector line rows (a, b), as floats, or None if the cone misses
    w + span{(0, 1)}: the least |t| with b_i t >= -(a_i e + b_i u), by
    intervals.  One sector branch is its two lines; with no rows it is u."""
    e, u = w
    r = [-(a * e + b * u) for a, b in rows]
    interval = _t_interval([b for _, b in rows], r, [1.0 + abs(x) for x in r])
    if interval is None:
        return None
    tmin, tmax = interval
    return u + min(max(0.0, tmin), tmax)


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


def _solve_convex(G, g, Q):
    """One convex branch: the Fourier-Motzkin seed refined by exact line
    searches; None if the branch is infeasible."""
    eta = _fm_seed(G, g)
    return None if eta is None else _refine(eta, G, g, Q)


def oracle_project(cone: PolyhedralCone, E: ProjectionSubspace, v) -> np.ndarray:
    """Reference partial projection: an exact feasible seed, then exact line
    searches.

    Each convex branch is seeded by Fourier-Motzkin elimination, which finds
    a point of the branch or proves it empty, and refined by ``_refine``;
    see ``_solve_convex``.  For a union-tagged sector tangent the branches
    are solved separately and the smaller correction wins.  Raises
    NoFeasiblePoint when every branch is empty, which means the problem is
    infeasible.
    """
    Eb = E.basis
    v = _as_vector(v, Eb.shape[0])
    if Eb.shape[1] > 3:
        raise ValueError("the oracle supports n_E <= 3")
    Q = Eb.T @ Eb

    branches = [cone] if cone.convex else list(cone.parts)
    best = None
    best_obj = math.inf
    for branch in branches:
        G = branch.rows @ Eb
        g = -(branch.rows @ v)
        eta = _solve_convex(G, g, Q)
        if eta is None:
            continue
        obj = float(eta @ Q @ eta)
        if obj < best_obj:
            best, best_obj = eta, obj
    if best is None:
        raise NoFeasiblePoint("Fourier-Motzkin elimination proves every branch empty")
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
