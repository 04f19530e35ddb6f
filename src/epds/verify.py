"""Randomized verification suites: solver versus oracle, hull versus theory.

These suites back the CLI verification commands and the acceptance tests.
Instance generators are deterministic in the seed; reports are plain dicts
ready for JSON serialization.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import NoFeasiblePoint
from .geometry import (
    ConstraintSet,
    PolyhedralCone,
    Sector,
    affine_constraint,
    quadratic_constraint,
    sector_tangent_cone,
    tangent_cone,
)
from .krasovskii import krasovskii_vertices, sector_krasovskii_vertices, verify_equality
from .oracle import _branch_vstar, oracle_project
from .projection import (
    EPS_PHASE1,
    ProjectionSubspace,
    _phase1,
    _supports,
    feasible,
    project_partial,
    sector_project,
)

# Largest |w_solver - w_oracle| that counts as agreement.
_MISMATCH_TOL = 1e-6
# Random sector-origin projections checked branch by branch; every third
# has edot = 0, where both branches are feasible.
_SECTOR_ORIGIN_COUNT = 1_000
# Well-posed instances are feasible with |eta_i| <= _BOUND_FACTOR (1 + |v|).
_BOUND_FACTOR = 30.0
# Grid resolutions of the Krasovskii equality check (the first also serves
# the sector sweep) and its witness distance.
_RESOLUTIONS = (0.02, 0.01)
_WITNESS_TOL = 1e-6


def random_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k independent unit rows in R^n (resampled until well conditioned)."""
    while True:
        rows = rng.standard_normal((k, n))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        if k == 0:
            return rows
        sv = np.linalg.svd(rows, compute_uv=False)
        if sv[-1] > 1e-3:
            return rows


def random_subspace(rng: np.random.Generator, n: int, n_e: int) -> ProjectionSubspace:
    while True:
        E = rng.standard_normal((n, n_e))
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            return ProjectionSubspace(ambient_dim=n, basis=E)


def random_projection_instance(
    rng: np.random.Generator, max_dim: int = 6
) -> tuple[PolyhedralCone, ProjectionSubspace, np.ndarray]:
    n = int(rng.integers(2, max_dim + 1))
    m = int(rng.integers(1, min(4, n) + 1))
    n_e = int(rng.integers(1, min(3, n) + 1))
    cone = PolyhedralCone(dim=n, rows=random_rows(rng, m, n))
    E = random_subspace(rng, n, n_e)
    v = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
    return cone, E, v


def well_posed_instance(cone: PolyhedralCone, E: ProjectionSubspace, v: np.ndarray) -> bool:
    """Numerical well-posedness screen for the equivalence suite.

    Rejects instances whose candidate active subsets are nearly singular in
    the correction coordinates of E, or that are feasible only with
    corrections far beyond the problem scale: there the comparison's
    absolute tolerance is below the attainable precision of any
    double-precision method.  Both tests stay in E's coordinates, where the
    correction box is defined.
    """
    G = cone.rows @ E.basis
    rn = np.linalg.norm(G, axis=1)
    if np.any(rn < 1e-12):
        return False
    Gn = G / rn[:, None]
    k, n_e = G.shape
    for size in range(2, min(k, n_e) + 1):
        if np.linalg.svd(Gn[_supports(k, size)], compute_uv=False)[:, -1].min() < 1e-2:
            return False
    # Feasibility within the correction box |eta_i| <= bound, whose faces
    # are 2 n_E more rows of the same phase-1 problem.
    g = -(cone.rows @ v)
    bound = _BOUND_FACTOR * (1.0 + float(np.linalg.norm(v)))
    eye = np.eye(n_e)
    rows = np.vstack([Gn, eye, -eye])
    rhs = np.concatenate([g / rn, np.full(2 * n_e, -bound)])
    return bool(_phase1(rows, rhs) <= EPS_PHASE1)


def verify_projection(count: int = 10_000, seed: int = 0, max_dim: int = 6) -> dict:
    """Solver-versus-oracle equivalence plus the uniqueness properties.

    Feasible random instances are compared in |w|; infeasible draws are
    skipped and counted.  Each instance must also produce exactly one
    distinct optimum among passing KKT subsets.  At the sector origin each
    branch of K u -K is solved on its own, and a branch contradiction is a
    case where none is feasible or a feasible one's optimum is more than
    1e-9 (1 + |w|) from ``sector_project``'s v*.  ``elapsed_s`` and
    ``instances_per_s`` time the whole suite, both parts counted.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    skipped = 0
    skipped_ill_posed = 0
    cases = 0
    mismatches = 0
    singleton_violations = 0
    max_disc = 0.0
    worst: dict | None = None
    while cases < count:
        cone, E, v = random_projection_instance(rng, max_dim)
        if not feasible(cone, E, v):
            skipped += 1
            continue
        if not well_posed_instance(cone, E, v):
            skipped_ill_posed += 1
            continue
        cases += 1
        res = project_partial(cone, E, v)
        try:
            w_oracle = oracle_project(cone, E, v)
        except NoFeasiblePoint:
            mismatches += 1
            continue
        disc = float(np.linalg.norm(res.w - w_oracle))
        if disc > max_disc:
            max_disc = disc
            worst = {
                "discrepancy": disc,
                "dim": cone.dim,
                "rows": cone.rows.tolist(),
                "basis": E.basis.tolist(),
                "v": v.tolist(),
            }
        if disc > _MISMATCH_TOL:
            mismatches += 1
        if res.n_distinct_optima != 1:
            singleton_violations += 1

    branch_contradictions = 0
    sec_rng = np.random.default_rng(seed + 1)
    for i in range(_SECTOR_ORIGIN_COUNT):
        k1 = float(sec_rng.uniform(-2.0, 2.0))
        k2 = k1 + float(sec_rng.uniform(0.1, 3.0))
        sec = Sector(k1, k2)
        w = sec_rng.standard_normal(2) * 2.0
        if i % 3 == 0:
            w[0] = 0.0
        vstar = float(sector_project(sec, (0.0, 0.0), w).w[1])
        w = w.tolist()
        tol = 1e-9 * (1.0 + math.hypot(*w))
        K = ((-k1, 1.0), (k2, -1.0))  # the rows of sec.cone_k(); -K negates them
        optima = [_branch_vstar(rows, w) for rows in (K, [(-a, -b) for a, b in K])]
        optima = [u for u in optima if u is not None]
        if not optima or any(abs(u - vstar) > tol for u in optima):
            branch_contradictions += 1

    elapsed = time.perf_counter() - t0
    return {
        "cases": cases,
        "skipped_infeasible": skipped,
        "skipped_ill_posed": skipped_ill_posed,
        "mismatches": mismatches,
        "max_discrepancy": max_disc,
        "tolerance": _MISMATCH_TOL,
        "singleton_violations": singleton_violations,
        "sector_origin_cases": _SECTOR_ORIGIN_COUNT,
        "branch_contradictions": branch_contradictions,
        "worst_case": worst,
        "seed": seed,
        "elapsed_s": elapsed,
        "instances_per_s": (cases + _SECTOR_ORIGIN_COUNT) / elapsed,
    }


# ---------------------------------------------------------------------------
# Krasovskii equality sweeps
# ---------------------------------------------------------------------------


def random_boundary_instance(rng: np.random.Generator):
    """Finitely generated set with 1-2 active constraints at a boundary
    point satisfying (CQ), plus inactive padding constraints."""
    n = int(rng.integers(2, 5))
    n_active = int(rng.integers(1, 3))
    normals = random_rows(rng, n_active, n)
    x = rng.standard_normal(n)
    # Make the chosen point sit exactly on the active hyperplanes.
    cons = []
    for a in normals:
        cons.append(affine_constraint(a, -float(a @ x)))
    n_pad = int(rng.integers(0, 3))
    for _ in range(n_pad):
        if rng.uniform() < 0.5:
            a = rng.standard_normal(n)
            b = float(rng.uniform(0.5, 2.0)) - float(a @ x)
            cons.append(affine_constraint(a, b))
        else:
            # Ball constraint r^2 - |x - c|^2 >= 0 centered near x.
            center = x + rng.standard_normal(n) * 0.1
            r2 = float(rng.uniform(2.0, 5.0)) ** 2
            cons.append(
                quadratic_constraint(-np.eye(n), 2.0 * center, r2 - float(center @ center))
            )
    cset = ConstraintSet(dim=n, constraints=tuple(cons))
    n_e = int(rng.integers(1, min(3, n) + 1))
    E = random_subspace(rng, n, n_e)
    f = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
    return cset, x, E, f


def verify_krasovskii(count: int = 1_000, seed: int = 0) -> dict:
    """Equality sweep over regular sets and the sector failure pattern.

    Regular finitely generated instances under (CQ) and feasibility must
    verify the equality at both grid resolutions.  Their hulls must also
    have a vertex within the witness tolerance of f (the empty subset) and
    one of the projection (all active rows): a hull of the projection alone
    passes the grid check, so ``missing_vertices`` counts the cases where
    either is absent.  Sector sweeps expect equality at every non-corner
    boundary point and at the corner with zero e-velocity, and failure at
    the corner whenever the e-velocity is nonzero (the hull then covers a
    whole admissible-velocity segment).

    Regular instances are drawn until ``count`` are feasible or 50 * count
    draws are spent; a sweep cut short by that cap reports fewer
    ``finite_cases`` than ``count``, which the CLI treats as a failure.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    finite_cases = 0
    finite_failures = 0
    grid_disagreements = 0
    missing_vertices = 0
    attempts = 0
    while finite_cases < count and attempts < 50 * count:
        attempts += 1
        cset, x, E, f = random_boundary_instance(rng)
        cone = tangent_cone(cset, x)
        if not feasible(cone, E, f):
            continue
        finite_cases += 1
        hull = krasovskii_vertices(cset, E, x, f)
        pi = project_partial(cone, E, f)
        if any(
            np.linalg.norm(hull.vertices - v, axis=1).min() > _WITNESS_TOL for v in (f, pi.w)
        ):
            missing_vertices += 1
        holds = []
        for res in _RESOLUTIONS:
            rep = verify_equality(hull, cone, pi, res, _WITNESS_TOL)
            holds.append(rep.holds)
        if not all(holds):
            finite_failures += 1
        if len(set(holds)) > 1:
            grid_disagreements += 1

    sec_rng = np.random.default_rng(seed + 1)
    sector_cases = 0
    pattern_mismatches = 0
    corner_nonzero = 0
    corner_zero = 0
    boundary_pts = 0
    for i in range(count):
        k1 = float(sec_rng.uniform(-2.0, 2.0))
        k2 = k1 + float(sec_rng.uniform(0.2, 3.0))
        sec = Sector(k1, k2)
        mode = i % 3
        if mode == 0:
            s = np.zeros(2)
            w = sec_rng.standard_normal(2) * 2.0
            expected = not abs(w[0]) > 1e-9  # holds only with zero e-velocity
            corner_nonzero += int(abs(w[0]) > 1e-9)
            corner_zero += int(abs(w[0]) <= 1e-9)
        elif mode == 1:
            s = np.zeros(2)
            w = np.array([0.0, float(sec_rng.standard_normal() * 2.0)])
            expected = True
            corner_zero += 1
        else:
            e = float(sec_rng.uniform(0.2, 3.0)) * (1.0 if sec_rng.uniform() < 0.5 else -1.0)
            k_line = k1 if sec_rng.uniform() < 0.5 else k2
            s = np.array([e, k_line * e])
            if sec.is_corner(s):
                continue
            w = sec_rng.standard_normal(2) * 2.0
            expected = True
            boundary_pts += 1
        sector_cases += 1
        hull = sector_krasovskii_vertices(sec, s, w)
        pi = sector_project(sec, s, w)
        T = sector_tangent_cone(sec, s)
        rep = verify_equality(hull, T, pi, _RESOLUTIONS[0], _WITNESS_TOL)
        if rep.holds != expected:
            pattern_mismatches += 1

    elapsed = time.perf_counter() - t0
    return {
        "finite_cases": finite_cases,
        "finite_failures": finite_failures,
        "grid_disagreements": grid_disagreements,
        "missing_vertices": missing_vertices,
        "resolutions": list(_RESOLUTIONS),
        "sector_cases": sector_cases,
        "sector_corner_nonzero_edot": corner_nonzero,
        "sector_corner_zero_edot": corner_zero,
        "sector_boundary_points": boundary_pts,
        "sector_pattern_mismatches": pattern_mismatches,
        "seed": seed,
        "elapsed_s": elapsed,
        "instances_per_s": (finite_cases + sector_cases) / elapsed,
    }
