import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from epds import (
    Infeasible,
    NotInSet,
    PolyhedralCone,
    ProjectionSubspace,
    RankDeficient,
    Sector,
    feasible,
    oracle_project,
    project_partial,
    sector_project,
    sector_subspace,
    sector_tangent_cone,
    vstar_selector,
)
from epds.projection import _phase1_rows, _phase1_scalar
from epds.verify import random_projection_instance


def vertical_subspace():
    return ProjectionSubspace.from_columns([[0.0, 1.0]])


def test_subspace_requires_full_column_rank():
    with pytest.raises(RankDeficient):
        ProjectionSubspace(ambient_dim=2, basis=np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_feasible_examples():
    full = PolyhedralCone.full_space(3)
    assert feasible(full, ProjectionSubspace.full(3), np.array([9.0, -1.0, 0.0]))
    halfplane = PolyhedralCone(dim=2, rows=np.array([[1.0, 0.0]]))
    # E = span{(0,1)} cannot fix a violated first coordinate
    assert not feasible(halfplane, vertical_subspace(), np.array([-1.0, 0.0]))
    assert feasible(halfplane, vertical_subspace(), np.array([0.5, -3.0]))
    # the sector tangent cone always meets w + span{(0,1)}
    sec = Sector(-0.3, 1.7)
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = float(rng.standard_normal())
        s = np.array([e, sec.k1 * e])
        cone = sector_tangent_cone(sec, s)
        if not cone.convex:
            continue
        assert feasible(cone, sector_subspace(), rng.standard_normal(2) * 3)


def test_project_partial_unconstrained():
    cone = PolyhedralCone.full_space(4)
    E = ProjectionSubspace.full(4)
    v = np.array([1.0, -2.0, 3.0, 0.0])
    res = project_partial(cone, E, v)
    assert np.allclose(res.w, v)
    assert res.correction_norm == 0.0
    assert np.allclose(res.eta, 0.0)


def test_project_partial_vertical_clamp_matches_oracle():
    cone = PolyhedralCone(dim=2, rows=np.eye(2))
    E = vertical_subspace()
    v = np.array([1.0, -1.0])
    res = project_partial(cone, E, v)
    w_oracle = oracle_project(cone, E, v)
    assert np.allclose(res.w, [1.0, 0.0], atol=1e-10)
    assert np.allclose(res.w, w_oracle, atol=1e-8)
    assert res.eta == pytest.approx(np.array([1.0]))


def test_project_partial_classical_orthant_clamp():
    cone = PolyhedralCone(dim=2, rows=np.eye(2))
    res = project_partial(cone, ProjectionSubspace.full(2), np.array([-1.0, -2.0]))
    assert np.allclose(res.w, [0.0, 0.0], atol=1e-12)


def test_project_partial_infeasible_raises():
    halfplane = PolyhedralCone(dim=2, rows=np.array([[1.0, 0.0]]))
    with pytest.raises(Infeasible):
        project_partial(halfplane, vertical_subspace(), np.array([-1.0, 0.0]))


def test_projection_result_invariants(rng):
    for _ in range(100):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not feasible(cone, E, v):
            continue
        res = project_partial(cone, E, v)
        # correction lies in Im E (least-squares residual)
        eta_fit, *_ = np.linalg.lstsq(E.basis, res.w - v, rcond=None)
        resid = np.linalg.norm(E.basis @ eta_fit - (res.w - v))
        assert resid <= 1e-10 * (1 + np.linalg.norm(v))
        assert cone.contains(res.w, tol=1e-8)
        assert res.correction_norm == pytest.approx(np.linalg.norm(res.w - v), abs=1e-12)


def test_minimality_against_random_competitors(rng):
    for _ in range(30):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not feasible(cone, E, v):
            continue
        res = project_partial(cone, E, v)
        found = 0
        for _ in range(200):
            eta = res.eta + rng.standard_normal(E.n_e) * rng.uniform(0.01, 2.0)
            w_prime = v + E.basis @ eta
            if not cone.contains(w_prime, tol=1e-12):
                continue
            found += 1
            assert np.linalg.norm(w_prime - v) >= res.correction_norm - 1e-9
        if found >= 100:
            break


def test_idempotence_when_already_in_cone(rng):
    for _ in range(50):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not cone.contains(v):
            continue
        res = project_partial(cone, E, v)
        assert res.correction_norm <= 1e-10
        assert np.allclose(res.w, v, atol=1e-9)
        # projecting the output again is a no-op
        res2 = project_partial(cone, E, res.w)
        assert np.allclose(res2.w, res.w, atol=1e-9)


def test_sector_project_examples():
    sec = Sector(0.0, 1.0)
    # interior: unchanged
    res = sector_project(sec, (2.0, 1.0), (0.3, -0.7))
    assert np.allclose(res.w, [0.3, -0.7]) and res.correction_norm == 0.0
    # upper boundary, candidate pushes out
    res = sector_project(sec, (1.0, 1.0), (0.0, 1.0))
    assert np.allclose(res.w, [0.0, 0.0], atol=1e-12)
    assert res.branch == "K"
    # corner, positive edot
    res = sector_project(sec, (0.0, 0.0), (1.0, 2.0))
    assert np.allclose(res.w, [1.0, 1.0]) and res.branch == "K"
    # corner, negative edot
    res = sector_project(sec, (0.0, 0.0), (-2.0, 1.0))
    assert np.allclose(res.w, [-2.0, 0.0]) and res.branch == "minusK"
    with pytest.raises(NotInSet):
        sector_project(sec, (0.0, 1.0), (0.0, 0.0))


def test_sector_project_matches_grid_oracle(rng):
    E2 = sector_subspace()
    for _ in range(60):
        k1 = float(rng.uniform(-2, 2))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3)))
        mode = rng.integers(0, 3)
        if mode == 0:
            s = np.zeros(2)
        else:
            e = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            k_line = sec.k1 if mode == 1 else sec.k2
            s = np.array([e, k_line * e])
        w = rng.standard_normal(2) * 2
        res = sector_project(sec, s, w)
        w_oracle = oracle_project(sector_tangent_cone(sec, s), E2, w)
        assert np.linalg.norm(res.w - w_oracle) <= 1e-6


def test_sector_branch_containment(rng):
    # output always equals the projection onto K or onto -K, whichever is feasible
    E2 = sector_subspace()
    for _ in range(80):
        k1 = float(rng.uniform(-2, 2))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3)))
        w = rng.standard_normal(2) * 2
        res = sector_project(sec, (0.0, 0.0), w)
        candidates = []
        for cone in (sec.cone_k(), sec.cone_minus_k()):
            if feasible(cone, E2, w):
                candidates.append(project_partial(cone, E2, w).w)
        assert any(np.allclose(res.w, c, atol=1e-9) for c in candidates)


def test_vstar_selector_examples():
    sec = Sector(0.0, 1.0)
    inside, upper, corner = sec.classify(2.0, 1.0), sec.classify(1.0, 1.0), sec.classify(0.0, 0.0)
    assert vstar_selector(sec, inside, 0.7, -0.4) == -0.4
    assert vstar_selector(sec, upper, 0.0, 1.0) == 0.0  # k2 * edot
    assert vstar_selector(sec, upper, 0.5, -1.0) == -1.0  # only bounded above
    minus_upper = sec.classify(-1.0, -1.0)  # on -K the upper line bounds from below
    assert vstar_selector(sec, minus_upper, 2.0, 0.5) == 2.0  # k2 * edot
    assert vstar_selector(sec, corner, 1.0, 2.0) == 1.0  # k2 * edot, K admits edot > 0
    assert vstar_selector(sec, corner, 1.0, -1.0) == 0.0  # k1 * edot
    assert vstar_selector(sec, corner, -1.0, 5.0) == 0.0  # -K admits edot < 0
    assert vstar_selector(sec, corner, -1.0, -5.0) == -1.0  # k2 * edot


def test_vstar_selector_agrees_with_sector_project(rng):
    for _ in range(300):
        k1 = float(rng.uniform(-2, 2))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3)))
        mode = rng.integers(0, 4)
        if mode == 0:
            s = np.zeros(2)
        elif mode == 3:
            e = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            u = float(rng.uniform(min(sec.k1 * e, sec.k2 * e), max(sec.k1 * e, sec.k2 * e)))
            s = np.array([e, u])
        else:
            e = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            k_line = sec.k1 if mode == 1 else sec.k2
            s = np.array([e, k_line * e])
        w = rng.standard_normal(2) * 2
        res = sector_project(sec, s, w)
        v = vstar_selector(sec, sec.classify(*s.tolist()), float(w[0]), float(w[1]))
        assert v == pytest.approx(float(res.w[1]), abs=1e-9)
        assert min(
            abs(v - w[1]), abs(v - sec.k1 * w[0]), abs(v - sec.k2 * w[0])
        ) <= 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_singleton_property_random_instances(seed):
    rng = np.random.default_rng(seed)
    cone, E, v = random_projection_instance(rng, max_dim=4)
    if not feasible(cone, E, v):
        return
    res = project_partial(cone, E, v)
    assert res.n_distinct_optima == 1


@st.composite
def scalar_phase1_instances(draw):
    """Cones of 1-4 rows in R^2..R^4 with E = span{scale * e_n}, so a_i has
    the sign of the last row entry.  That entry is exactly 0 (row orthogonal
    to E) or at least 0.05 in magnitude, of one shared sign or of mixed
    signs; |v| lies in [1e-6, 1e6]."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    shared_sign = draw(st.sampled_from([None, 1.0, -1.0]))
    rows = []
    for _ in range(m):
        head = draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))
        sign = shared_sign or draw(st.sampled_from([1.0, -1.0]))
        rows.append(head + [sign * draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0)))])
    direction = np.array(
        draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
                lambda d: np.linalg.norm(d) > 1e-3
            )
        )
    )
    v = direction / np.linalg.norm(direction) * 10.0 ** draw(st.floats(-6.0, 6.0))
    basis = np.zeros((n, 1))
    basis[-1, 0] = draw(st.floats(0.1, 10.0))
    return PolyhedralCone(dim=n, rows=np.array(rows)), ProjectionSubspace(n, basis), v


def _phase1_lp_reference(Gn, gn):
    """Least slack t >= 0 with Gn eta + t >= gn, by HiGHS at feasibility
    tolerance 1e-9.  At its default 1e-7 HiGHS is no reference for the
    1e-9 threshold of ``feasible``."""
    n_e = Gn.shape[1]
    res = scipy.optimize.linprog(
        np.eye(n_e + 1)[-1],
        A_ub=np.column_stack([-Gn, -np.ones(len(gn))]),
        b_ub=-gn,
        bounds=[(None, None)] * n_e + [(0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.success
    return float(res.x[-1])


@given(scalar_phase1_instances())
@settings(max_examples=500, deadline=None)
def test_scalar_feasibility_matches_phase1_lp(instance):
    # The closed-form phase-1 optimum (n_E = 1) against HiGHS on the same
    # unit-normalized rows.  Rows with 0 < |a_i| <= 1e-9 stay out: HiGHS
    # drops such matrix entries.
    cone, E, v = instance
    Gn, gn = _phase1_rows(cone, E, v)
    t_exact = _phase1_scalar(Gn[:, 0].tolist(), gn.tolist())
    t_lp = _phase1_lp_reference(Gn, gn)
    assert abs(t_exact - t_lp) <= 1e-9
    if not 5e-10 <= t_exact <= 2e-9:
        assert feasible(cone, E, v) == (t_lp <= 1e-9)
