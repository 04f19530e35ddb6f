import json
import math
from functools import lru_cache

import numpy as np
import pytest

from epds import (
    ConstraintSet,
    ProjectionSubspace,
    Sector,
    affine_constraint,
    krasovskii_vertices,
    oracle_project,
    project_partial,
    sector_krasovskii_vertices,
    sector_project,
    sector_tangent_cone,
    tangent_cone,
    verify_equality,
)
from epds.krasovskii import _compositions
from epds.projection import sector_subspace
from conftest import orthant


def _has_vertex(hull, v, tol=1e-9):
    return any(np.linalg.norm(row - np.asarray(v)) <= tol for row in hull.vertices)


def test_interior_point_single_vertex(rng):
    cset = orthant()
    hull = krasovskii_vertices(cset, ProjectionSubspace.full(2), (1.0, 2.0), (0.3, -0.4))
    assert hull.n_vertices == 1
    assert _has_vertex(hull, (0.3, -0.4))


def test_orthant_corner_four_vertices(rng):
    cset = orthant()
    f = np.array([-1.0, -1.0])
    hull = krasovskii_vertices(cset, ProjectionSubspace.full(2), (0.0, 0.0), f)
    assert hull.n_vertices == 4
    for v in [(-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0)]:
        assert _has_vertex(hull, v)
        # each vertex is the orthant-relaxation clamp; cross-check vs oracle
    E = ProjectionSubspace.full(2)
    import itertools

    rows = np.eye(2)
    for subset in itertools.chain([()], [(0,), (1,)], [(0, 1)]):
        from epds import PolyhedralCone

        cone = PolyhedralCone(dim=2, rows=rows[list(subset)])
        w = oracle_project(cone, E, f)
        assert _has_vertex(hull, w, tol=1e-6)


def test_halfspace_boundary_dedup():
    half = ConstraintSet(2, (affine_constraint([1.0, 0.0], 0.0),))
    E = ProjectionSubspace.from_columns([[0.0, 1.0]])
    hull = krasovskii_vertices(half, E, (0.0, 3.0), (1.0, 3.0))
    assert hull.n_vertices == 1
    assert _has_vertex(hull, (1.0, 3.0))
    # both generating subsets recorded on the single vertex
    assert set(hull.subset_labels[0]) == {(), (0,)}


def test_vertices_live_in_field_plus_subspace(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        x = rng.standard_normal(n)
        cset = ConstraintSet(n, (affine_constraint(a, -float(a @ x)),))
        E = ProjectionSubspace.from_columns([rng.standard_normal(n) for _ in range(2)])
        f = rng.standard_normal(n)
        from epds.projection import feasible

        if not feasible(tangent_cone(cset, x), E, f):
            continue
        hull = krasovskii_vertices(cset, E, x, f)
        for v in hull.vertices:
            eta, *_ = np.linalg.lstsq(E.basis, v - f, rcond=None)
            assert np.linalg.norm(E.basis @ eta - (v - f)) <= 1e-10 * (1 + np.linalg.norm(f))


def test_sector_hull_origin_zero_edot():
    sec = Sector(0.0, 1.0)
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), (0.0, 1.0))
    assert hull.n_vertices == 2
    assert _has_vertex(hull, (0.0, 1.0)) and _has_vertex(hull, (0.0, 0.0))


def test_sector_hull_origin_positive_edot():
    sec = Sector(0.0, 1.0)
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), (1.0, 2.0))
    assert hull.n_vertices == 3
    for v in [(1.0, 2.0), (1.0, 1.0), (1.0, 0.0)]:
        assert _has_vertex(hull, v)
    # stratum-by-stratum clamp confirmed by the oracle per convex stratum
    from epds.krasovskii import _corner_strata
    from epds.projection import feasible

    E2 = sector_subspace()
    for _, cone in _corner_strata(sec):
        if not feasible(cone, E2, np.array([1.0, 2.0])):
            continue  # the -K stratum is infeasible for positive edot
        w = oracle_project(cone, E2, [1.0, 2.0])
        assert _has_vertex(hull, w, tol=1e-6)


def test_sector_hull_regular_boundary_point():
    sec = Sector(0.0, 1.0)
    hull = sector_krasovskii_vertices(sec, (1.0, 1.0), (0.0, 1.0))
    assert hull.n_vertices == 2
    assert _has_vertex(hull, (0.0, 1.0)) and _has_vertex(hull, (0.0, 0.0))


def test_equality_holds_for_finitely_generated(rng):
    from epds.verify import random_boundary_instance
    from epds.projection import feasible

    done = 0
    while done < 25:
        cset, x, E, f = random_boundary_instance(rng)
        cone = tangent_cone(cset, x)
        if not feasible(cone, E, f):
            continue
        done += 1
        hull = krasovskii_vertices(cset, E, x, f)
        pi = project_partial(cone, E, f)
        rep = verify_equality(hull, cone, pi, 0.02)
        rep2 = verify_equality(hull, cone, pi, 0.01)
        assert rep.holds and rep2.holds


def test_counterexample_at_sector_corner():
    sec = Sector(0.0, 1.0)
    w = np.array([1.0, 2.0])
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    pi = sector_project(sec, (0.0, 0.0), w)
    T = sector_tangent_cone(sec, (0.0, 0.0))
    rep = verify_equality(hull, T, pi, 0.02)
    assert not rep.holds
    assert rep.n_witnesses > 0
    saw = {tuple(np.round(v, 6)) for v in rep.witnesses}
    assert (1.0, 0.0) in saw
    # (1, 0.5) is a grid combination of the three generators at r = 0.02
    all_bad_dists = np.linalg.norm(rep.witnesses - pi.w, axis=1)
    assert np.all(all_bad_dists > 1e-6)


def test_corner_with_zero_edot_holds():
    sec = Sector(0.0, 1.0)
    w = np.array([0.0, 1.0])
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    pi = sector_project(sec, (0.0, 0.0), w)
    rep = verify_equality(hull, sector_tangent_cone(sec, (0.0, 0.0)), pi, 0.02)
    assert rep.holds
    assert np.allclose(pi.w, [0.0, 0.0])


def test_grid_independence(rng):
    sec = Sector(-0.5, 0.8)
    cases = []
    for _ in range(10):
        w = rng.standard_normal(2)
        cases.append(((0.0, 0.0), w))
        e = float(rng.uniform(0.3, 2.0))
        cases.append(((e, sec.k2 * e), w))
    for s, w in cases:
        hull = sector_krasovskii_vertices(sec, s, w)
        pi = sector_project(sec, s, w)
        T = sector_tangent_cone(sec, s)
        r1 = verify_equality(hull, T, pi, 0.02)
        r2 = verify_equality(hull, T, pi, 0.01)
        assert r1.holds == r2.holds


def test_report_json_shape():
    sec = Sector(0.0, 1.0)
    w = np.array([1.0, 2.0])
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    pi = sector_project(sec, (0.0, 0.0), w)
    rep = verify_equality(hull, sector_tangent_cone(sec, (0.0, 0.0)), pi, 0.02)
    doc = rep.to_json()
    assert set(doc) == {"holds", "point", "field", "vertices", "witnesses"}
    json.dumps(doc)
    assert doc["holds"] is False
    assert doc["point"] == [0.0, 0.0]
    assert len(doc["witnesses"]) > 0


@lru_cache(maxsize=None)
def _compositions_recursive(total, k):
    """Reference grid: the first part ascending, the rest recursively."""
    if k == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions_recursive(total - first, k - 1)
    )


@pytest.mark.parametrize(
    "total,k", [(t, k) for k in range(1, 6) for t in (0, 1, 2, 7, 50)] + [(100, 4)]
)
def test_compositions_closed_form_matches_recursion(total, k):
    grid = _compositions(total, k)
    assert grid.dtype == np.int64 and not grid.flags.writeable
    assert grid.shape == (math.comb(total + k - 1, k - 1), k)
    assert np.all(grid.sum(axis=1) == total)
    assert np.array_equal(grid, np.array(_compositions_recursive(total, k), dtype=np.int64))
    assert _compositions.cache_info().currsize >= 1
