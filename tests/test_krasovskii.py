import itertools
import json
import math
import tracemalloc
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epds import (
    ConstraintSet,
    KrasovskiiHull,
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
import epds.krasovskii
import epds.verify
from epds.geometry import EPS_CONE
from epds.krasovskii import DEDUP_TOL, _compositions, _contains_many, _row_norms
from epds.projection import sector_subspace
from conftest import (
    corner_cones,
    orthant,
    reference_contains_many,
    reference_sector_krasovskii_vertices,
    reference_verify_equality,
    stars_and_bars,
)

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "krasovskii_pool.json"


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
    from epds.projection import feasible

    E2 = sector_subspace()
    for cone in corner_cones(sec.k1, sec.k2):
        if not feasible(cone, E2, np.array([1.0, 2.0])):
            continue  # the -K stratum is infeasible for positive edot
        w = oracle_project(cone, E2, [1.0, 2.0])
        assert _has_vertex(hull, w, tol=1e-6)


def test_sector_hull_regular_boundary_point():
    sec = Sector(0.0, 1.0)
    hull = sector_krasovskii_vertices(sec, (1.0, 1.0), (0.0, 1.0))
    assert hull.n_vertices == 2
    assert _has_vertex(hull, (0.0, 1.0)) and _has_vertex(hull, (0.0, 0.0))


# Points on every stratum of a sector, as (e, u) for e > 0: the origin, each
# line on K and on -K, and the interior of K and of -K.
_STRATA = ("origin", "k1 on K", "k2 on K", "k1 on -K", "k2 on -K", "inside K", "inside -K")


def _stratum_point(sec, stratum, e):
    if stratum == "origin":
        return np.zeros(2)
    slope = {"k1": sec.k1, "k2": sec.k2, "inside": 0.5 * (sec.k1 + sec.k2)}[stratum.split()[0]]
    e = -e if stratum.endswith("-K") else e
    return np.array([e, slope * e])


@given(
    k1=st.floats(-5.0, 5.0),
    width=st.floats(1e-3, 10.0),
    stratum=st.sampled_from(_STRATA),
    log_e=st.floats(-3.0, 3.0),
    log_w=st.floats(-6.0, 6.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    zero_edot=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sector_hull_closed_form_matches_kkt_reference(
    k1, width, stratum, log_e, log_w, angle, zero_edot
):
    # The interval clamp and the KKT builder agree wherever edot is 0 or
    # clear of project_partial's phase-1 tolerance; the band below that is
    # pinned by test_sector_hull_in_the_kkt_tolerance_band.
    sec = Sector(k1, k1 + width)
    s = _stratum_point(sec, stratum, 10.0**log_e)
    r = 10.0**log_w
    if zero_edot:
        w = np.array([0.0, math.copysign(r, math.sin(angle))])
    else:
        w = np.array([r * math.cos(angle), r * math.sin(angle)])
        assume(abs(w[0]) >= 1e-6 * (1.0 + r))
    hull = sector_krasovskii_vertices(sec, s, w)
    ref = reference_sector_krasovskii_vertices(sec, s, w)
    assert hull.subset_labels == ref.subset_labels
    assert hull.n_vertices == ref.n_vertices
    assert np.abs(hull.vertices - ref.vertices).max() <= 1e-12 * (1.0 + r)


def test_sector_hulls_never_call_the_kkt_solver(monkeypatch):
    # Every sector cone has the closed form, so no stratum may fall back on
    # project_partial; the regular builder keeps it.
    def no_kkt(*args):
        raise AssertionError("a sector hull called project_partial")

    monkeypatch.setattr(epds.krasovskii, "project_partial", no_kkt)
    sec = Sector(-0.5, 0.8)
    labels = set()
    for stratum in _STRATA:
        s = _stratum_point(sec, stratum, 1.5)
        labels.add(sec.classify(*s).label)
        for w in [(1.0, 2.0), (-1.0, 0.3), (0.0, -1.0), (0.0, 0.0)]:
            assert sector_krasovskii_vertices(sec, s, w).n_vertices >= 1
    assert labels == {"corner", "K", "minusK", "interior"}


@pytest.mark.parametrize("w", [(1e-14, 0.0), (-1e-14, 0.0), (-1e-300, 0.0)])
def test_sector_hull_at_a_vanishing_edot_has_one_vertex(w):
    # The KKT builder raised DegenerateKKT on these three: no support of
    # the nearly empty branch cone passed its checks.  The clamp gives the
    # single vertex (w_e, 0), and the corner check holds.
    sec = Sector(0.0, 1.0)
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    assert hull.vertices.tolist() == [[w[0], 0.0]]
    pi = sector_project(sec, (0.0, 0.0), w)
    assert verify_equality(hull, sector_tangent_cone(sec, (0.0, 0.0)), pi, 0.02).holds


@pytest.mark.parametrize(
    "edot,empty",
    [(1e-12, (2, 3)), (-1e-12, (0, 1)), (1e-9, (2, 3)), (-1e-9, (0, 1))],
)
def test_sector_hull_in_the_kkt_tolerance_band(edot, empty):
    # On Sector(0, 1) at the origin the branch that edot leaves, -K for
    # edot > 0 and K for edot < 0, misses w + span{(0, 1)} by |edot|.  The
    # interval test skips it; project_partial admits it within EPS_PHASE1,
    # so the KKT reference also lists its label.  The vertex sets agree.
    sec = Sector(0.0, 1.0)
    w = (edot, 0.7)
    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    ref = reference_sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    assert hull.n_vertices == ref.n_vertices
    assert np.abs(hull.vertices - ref.vertices).max() <= DEDUP_TOL
    for labels, ref_labels in zip(hull.subset_labels, ref.subset_labels):
        assert set(labels) <= set(ref_labels)
    flat = Counter(itertools.chain(*hull.subset_labels))
    assert empty not in flat
    assert set(Counter(itertools.chain(*ref.subset_labels)) - flat) <= {empty}


def test_sector_sweep_fires_on_a_hull_of_w_alone(monkeypatch):
    # A builder whose every vertex is w misses the corner's admissible
    # segment, so the sector sweep must report mismatches.
    assert epds.verify.verify_krasovskii(30, seed=1)["sector_pattern_mismatches"] == 0
    monkeypatch.setattr(epds.krasovskii, "_branch_vstar", lambda rows, w: w[1])
    assert epds.verify.verify_krasovskii(30, seed=1)["sector_pattern_mismatches"] > 0


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


def _orthant_corner_case():
    """The 4-vertex orthant hull at the corner, its tangent cone and its
    projection: 176,851 grid points at resolution 0.01."""
    cset, f = orthant(), np.array([-1.0, -1.0])
    E = ProjectionSubspace.full(2)
    cone = tangent_cone(cset, np.zeros(2))
    return krasovskii_vertices(cset, E, (0.0, 0.0), f), cone, project_partial(cone, E, f)


def test_grid_guard_rejects_oversized_hulls_before_building(monkeypatch):
    # Shipped hulls have at most 4 vertices: 176,851 grid points at
    # resolution 0.01.  Six vertices would need C(105, 5) ~ 9.6e7, which
    # verify_equality refuses before it builds anything.
    hull, cone, pi = _orthant_corner_case()
    assert hull.n_vertices == 4 and math.comb(100 + 3, 3) == 176_851
    assert verify_equality(hull, cone, pi, 0.01).holds

    extra = np.array([[-0.5, -1.0], [-1.0, -0.5]])
    six = KrasovskiiHull(
        vertices=np.vstack([hull.vertices, extra]),
        subset_labels=hull.subset_labels + ((), ()),
        point=hull.point,
        field_value=hull.field_value,
    )

    def no_grid(total, k):
        raise AssertionError(f"built a grid for {k} vertices")

    monkeypatch.setattr(epds.krasovskii, "_compositions", no_grid)
    with pytest.raises(ValueError, match="grid points"):
        verify_equality(six, cone, pi, 0.01)


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
    "total,k",
    [(t, k) for k in range(1, 6) for t in (0, 1, 2, 7, 50)]
    + [(100, 4)]
    + [(t, 2) for t in (255, 256, 70_000)],
)
def test_compositions_closed_form_matches_recursion(total, k):
    grid = _compositions(total, k)
    assert grid.dtype == np.min_scalar_type(total) and not grid.flags.writeable
    assert grid.shape == (math.comb(total + k - 1, k - 1), k)
    assert np.all(grid.sum(axis=1) == total)
    assert np.array_equal(grid, np.array(_compositions_recursive(total, k), dtype=np.int64))
    assert np.array_equal(grid, stars_and_bars(total, k))
    assert _compositions.cache_info().currsize >= 1


def test_streamed_check_matches_full_grid_reference(monkeypatch):
    import epds.verify

    cases = []

    def record(hull, T, pi, res, tol):
        cases.append((hull, T, pi, res))
        return verify_equality(hull, T, pi, res, tol)

    # Pool sweeps: regular hulls at both resolutions, sector hulls at 0.02.
    monkeypatch.setattr(epds.verify, "verify_equality", record)
    pool = json.loads(POOL.read_text())
    for row in pool["pool"][:2]:
        epds.verify.verify_krasovskii(pool["count"], row["seed"])
    monkeypatch.undo()
    assert {0.02, 0.01} <= {res for *_, res in cases}

    sec = Sector(0.0, 1.0)
    corner = sector_krasovskii_vertices(sec, (0.0, 0.0), (1.0, 2.0))
    T0 = sector_tangent_cone(sec, (0.0, 0.0))
    cases.append((corner, T0, sector_project(sec, (0.0, 0.0), (1.0, 2.0)), 0.01))
    E, x, f = ProjectionSubspace.full(2), (1.0, 2.0), (0.3, -0.4)
    single = krasovskii_vertices(orthant(), E, x, f)
    assert single.n_vertices == 1
    T1 = tangent_cone(orthant(), x)
    cases.append((single, T1, project_partial(T1, E, f), 0.02))
    cases.append(_orthant_corner_case() + (0.01,))

    n_witnesses = []
    for hull, T, pi, res in cases:
        rep = verify_equality(hull, T, pi, res, 1e-6)
        holds, n, witnesses = reference_verify_equality(hull, T, pi, res, 1e-6)
        assert (rep.holds, rep.n_witnesses) == (holds, n)
        assert rep.witnesses.shape == witnesses.shape
        assert rep.witnesses.tobytes() == witnesses.tobytes()
        n_witnesses.append(n)
    assert n_witnesses[-3] > 32 and n_witnesses[-1] == 0


@pytest.mark.parametrize("n_cols", range(1, 8))
def test_row_norms_match_numpy_bit_for_bit(n_cols):
    # Rows spread over many magnitudes, so any other summation order would
    # round differently; zeros and -0.0 included, at scales that underflow
    # and overflow the squares.
    rng = np.random.default_rng(n_cols)
    X = rng.standard_normal((2_000, n_cols)) * np.exp(3.0 * rng.standard_normal((2_000, n_cols)))
    X[::5] = 0.0
    X[1::5, 0] = -0.0
    X[2::5, -1] = -0.0
    with np.errstate(over="ignore", under="ignore"):
        for scale in (1e-160, 1.0, 1e160):
            Y = X * scale
            assert _row_norms(Y).tobytes() == np.linalg.norm(Y, axis=1).tobytes(), scale


def test_membership_kernel_matches_reference_at_the_tolerance():
    # Grid points seldom fall within EPS_CONE of a facet, so place some
    # there: on each row's plane, then 0.9 and 1.1 tolerances outside it.
    # The row-by-row kernel must decide exactly as the reference, and the
    # tolerance must decide some points.
    rng = np.random.default_rng(11)
    sec = Sector(-0.5, 0.8)
    cones = [
        sector_tangent_cone(sec, (0.0, 0.0)),
        sector_tangent_cone(sec, (1.0, 0.8)),
        sector_tangent_cone(sec, (1.0, 0.1)),
        tangent_cone(orthant(3), np.zeros(3)),
    ]
    decided = 0
    for T in cones:
        for part in T.parts or (T,):
            for row in part.rows:
                Q = rng.standard_normal((400, T.dim)) * 10.0 ** rng.uniform(-2, 2, (400, 1))
                on = Q - np.outer(Q @ row, row) / (row @ row)
                push = EPS_CONE * (1.0 + np.linalg.norm(row) * np.linalg.norm(on, axis=1))
                inside = []
                for c in (0.9, 1.1):
                    P = on - np.outer(c * push / (row @ row), row)
                    got = _contains_many(T, P)
                    assert np.array_equal(got, reference_contains_many(T, P))
                    inside.append(got)
                decided += int(np.sum(inside[0] & ~inside[1]))
    assert decided > 0


def test_grid_check_memory_does_not_grow_with_the_grid():
    # The lattice is uint8 (0.7 MB for 176,851 rows) and is evaluated in
    # blocks, so neither a cold nor a warm check holds the whole grid in
    # floats, which would take about 17 MB.
    hull, cone, pi = _orthant_corner_case()
    _compositions.cache_clear()
    for limit_mb in (6.0, 1.0):
        tracemalloc.start()
        try:
            assert verify_equality(hull, cone, pi, 0.01).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6, (limit_mb, peak)


def test_sector_project_at_origin_is_a_hull_vertex():
    # At the origin the projection onto K u -K is the projection onto K or
    # onto -K, so it is already a vertex of the hull built from the subsets
    # of each branch's lines; edot = 0 admits both branches.
    rng = np.random.default_rng(2024)
    for i in range(200):
        k1 = float(rng.uniform(-2.0, 2.0))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3.0)))
        w = rng.standard_normal(2) * 2.0
        if i % 3 == 0:
            w[0] = 0.0
        pi = sector_project(sec, (0.0, 0.0), w)
        hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
        assert _has_vertex(hull, pi.w, tol=DEDUP_TOL)


def test_hull_vertex_counts_match_benchmark_pool(monkeypatch):
    # The verify-krasovskii benchmark draws its sweeps from seeds screened by
    # hull size, so every pool seed must still give the recorded finite and
    # sector hull sizes.  Recording replaces the grid check, which draws no
    # random numbers, so each sweep's instance stream is unchanged.
    import epds.verify

    pool = json.loads(POOL.read_text())
    sizes = []

    class _Holds:
        holds = True

    def record(hull, *args):
        sizes.append(hull.n_vertices)
        return _Holds

    monkeypatch.setattr(epds.verify, "verify_equality", record)
    for row in pool["pool"]:
        sizes.clear()
        n_fin = epds.verify.verify_krasovskii(pool["count"], row["seed"])["finite_cases"]
        # Finite hulls are checked at two resolutions: take every other.
        finite = Counter(str(n) for n in sizes[: 2 * n_fin : 2])
        sector = Counter(str(n) for n in sizes[2 * n_fin :])
        assert (finite, sector) == (row["finite"], row["sector"]), row["seed"]
