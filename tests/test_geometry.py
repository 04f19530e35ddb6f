import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epds import (
    ConstraintSet,
    CqViolated,
    DegenerateSector,
    NotInSet,
    PolyhedralCone,
    RankDeficient,
    Sector,
    active_set,
    affine_constraint,
    check_cq,
    constraint_set_from_json,
    constraint_set_to_json,
    lifted_tangent_cone,
    oracle_tangent_membership,
    quadratic_constraint,
    sector_tangent_cone,
    tangent_cone,
    user_constraint,
)
from epds.geometry import EPS_MEM, _as_vector
from conftest import orthant, unit_disk


def central_difference(h, x, eps=1e-6):
    n = len(x)
    g = np.zeros(n)
    for i in range(n):
        d = np.zeros(n)
        d[i] = eps
        g[i] = (h(x + d) - h(x - d)) / (2 * eps)
    return g


def test_gradients_match_finite_differences(rng):
    a = rng.standard_normal(4)
    c1 = affine_constraint(a, 0.7)
    Q = rng.standard_normal((4, 4))
    c = rng.standard_normal(4)
    c2 = quadratic_constraint(Q, c, -1.2)
    for constraint in (c1, c2):
        for _ in range(10):
            x = rng.standard_normal(4)
            g_exact = constraint.gradient(x)
            g_fd = central_difference(constraint.value, x)
            assert np.linalg.norm(g_exact - g_fd) <= 1e-6 * (1 + np.linalg.norm(g_exact))


def test_membership_and_active_set_examples():
    s = orthant()
    assert active_set(s, (0.0, 2.0)).indices == (0,)
    assert active_set(s, (1.0, 1.0)).indices == ()
    assert active_set(s, (0.0, 0.0)).indices == (0, 1)
    with pytest.raises(NotInSet):
        active_set(s, (-1.0, 0.0))


def test_active_set_tolerance_scales_with_point():
    s = orthant()
    big = 1e6
    # activation within the relative tolerance at large coordinates
    act = active_set(s, (big * 1e-9 * 0.5, big))
    assert 0 in act
    assert act.tolerance_used == pytest.approx(1e-9 * (1 + np.hypot(big * 1e-9 * 0.5, big)))


def test_check_cq_cases():
    assert check_cq(orthant(), (0.0, 0.0)).satisfied
    # the sector written as one quadratic has a vanishing gradient at 0
    k1, k2 = 0.0, 1.0
    Q = np.array([[k1 * k2, -(k1 + k2) / 2.0], [-(k1 + k2) / 2.0, 1.0]])
    sec_quad = ConstraintSet(2, (quadratic_constraint(-Q, np.zeros(2), 0.0),))
    rep = check_cq(sec_quad, (0.0, 0.0))
    assert not rep.satisfied and rep.rank == 0
    # parallel gradients
    dup = ConstraintSet(
        1, (affine_constraint([1.0], 0.0), affine_constraint([2.0], 0.0))
    )
    assert not check_cq(dup, (0.0,)).satisfied


def test_tangent_cone_examples():
    c = tangent_cone(orthant(), (0.0, 0.0))
    assert c.contains((1.0, 1.0)) and not c.contains((-1.0, 0.5))
    half = ConstraintSet(2, (affine_constraint([1.0, 0.0], 0.0),))
    c2 = tangent_cone(half, (0.0, 5.0))
    assert c2.n_rows == 1
    assert c2.contains((1.0, -3.0)) and not c2.contains((-1e-3, 0.0))
    # interior points give the full space
    assert tangent_cone(orthant(), (1.0, 1.0)).is_full_space


def test_tangent_cone_disk_boundary():
    # gradient at (1, 0) is (-2, 0): cone is {v : v1 <= 0}
    c = tangent_cone(unit_disk(), (1.0, 0.0))
    assert np.allclose(c.rows, [[-2.0, 0.0]])
    assert c.contains((-1.0, 4.0)) and not c.contains((0.1, 0.0))


def test_tangent_cone_requires_cq():
    dup = ConstraintSet(
        1, (affine_constraint([1.0], 0.0), affine_constraint([2.0], 0.0))
    )
    with pytest.raises(CqViolated):
        tangent_cone(dup, (0.0,))


def test_tangent_cone_members_satisfy_sequential_definition(rng):
    sets = [orthant(), unit_disk()]
    points = [(0.0, 1.3), (np.cos(0.4), np.sin(0.4))]
    for cset, x in zip(sets, points):
        cone = tangent_cone(cset, x)
        for _ in range(12):
            v = rng.standard_normal(2)
            margin = cone.residual(v)
            if abs(margin) < 1e-2:  # skip razor-edge directions
                continue
            assert cone.contains(v) == oracle_tangent_membership(cset, x, v)


def test_sector_construction_and_membership():
    with pytest.raises(DegenerateSector):
        Sector(1.0, 1.0)
    sec = Sector(0.0, 1.0)
    assert sec.contains((1.0, 0.5)) and sec.contains((-1.0, -0.5))
    assert not sec.contains((1.0, 2.0)) and not sec.contains((0.0, 0.3))
    assert sec.is_corner((0.0, 0.0))
    assert sec.branch_label((2.0, 1.0)) == "interior"
    assert sec.branch_label((1.0, 1.0)) == "K"
    assert sec.branch_label((-1.0, -1.0)) == "minusK"
    assert sec.branch_label((0.0, 0.0)) == "corner"


def test_sector_decomposition_sampling(rng):
    # product inequality agrees with K-or-minusK membership on bulk samples
    sec = Sector(-0.5, 2.0)
    pts = rng.standard_normal((100_000, 2)) * 3.0
    prod = (pts[:, 1] - sec.k1 * pts[:, 0]) * (pts[:, 1] - sec.k2 * pts[:, 0])
    rows_k = sec.cone_k().rows
    rows_m = sec.cone_minus_k().rows
    in_k = np.all(pts @ rows_k.T >= -1e-9, axis=1)
    in_m = np.all(pts @ rows_m.T >= -1e-9, axis=1)
    clear = np.abs(prod) > 1e-9  # leave the razor boundary to tolerance tests
    assert np.array_equal((prod <= 0)[clear], (in_k | in_m)[clear])


@given(st.floats(-3, 3), st.floats(0.1, 3))
@settings(max_examples=50, deadline=None)
def test_sector_structural_invariants_hold_for_all_slopes(k1, width):
    sec = Sector(k1, k1 + width)
    # span{(0,1)} meets the sector only at the origin: the residual is u^2.
    for u in (1.0, -1.0):
        assert sec.residual((0.0, u)) > 0.0
    # The sector plus span{(0,1)} is the plane: (e, k1 e) lies in it for any e.
    for e in (-1.0, 0.0, 1.0, 7.5):
        assert sec.contains((e, sec.k1 * e))


@given(
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 4.0),
    st.floats(-1e4, 1e4),
    st.floats(-20.0, 20.0),
)
@settings(max_examples=300, deadline=None)
def test_classify_membership_matches_product_test(k1, width, e, slope):
    sec = Sector(k1, k1 + width)
    u = slope * e
    pos = sec.classify(e, u)
    a, b = u - sec.k1 * e, sec.k2 * e - u
    band = EPS_MEM * (1.0 + np.hypot(e, u)) * (1.0 + max(abs(sec.k1), abs(sec.k2)))
    if min(abs(a), abs(b)) > band:
        member = (u - sec.k1 * e) * (u - sec.k2 * e) <= 0.0
        assert pos.label == ("interior" if member else "outside")


def test_sector_tangent_cone_cases():
    sec = Sector(0.0, 1.0)
    c = sector_tangent_cone(sec, (1.0, 1.0))
    # active constraint k2 e - u = 0, gradient (1, -1): {v_u <= v_e}
    assert c.convex and c.n_rows == 1
    assert c.contains((1.0, 0.5)) and not c.contains((0.0, 0.5))
    assert sector_tangent_cone(sec, (2.0, 1.0)).is_full_space
    union = sector_tangent_cone(sec, (0.0, 0.0))
    assert not union.convex and len(union.parts) == 2
    assert union.contains((1.0, 0.5)) and union.contains((-1.0, -0.5))
    assert not union.contains((0.0, 1.0))
    with pytest.raises(NotInSet):
        sector_tangent_cone(sec, (0.0, 1.0))


def test_lifted_tangent_cone_examples():
    low = PolyhedralCone(dim=2, rows=np.array([[0.0, 1.0]]))
    same = lifted_tangent_cone(np.eye(2), low)
    assert np.allclose(same.rows, low.rows)
    # coordinate selection R^3 -> R^2
    H = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    lifted = lifted_tangent_cone(H, PolyhedralCone(dim=2, rows=np.array([[0.0, 1.0]])))
    assert lifted.contains((5.0, -7.0, 0.1)) and not lifted.contains((5.0, 7.0, -0.1))
    # sum functional
    lifted2 = lifted_tangent_cone(np.array([[1.0, 1.0]]), PolyhedralCone(dim=1, rows=np.array([[1.0]])))
    assert lifted2.contains((2.0, -1.0)) and not lifted2.contains((-2.0, 1.0))
    with pytest.raises(RankDeficient):
        lifted_tangent_cone(np.array([[1.0, 0.0], [2.0, 0.0]]), low)


def test_lifted_cone_membership_matches_low_cone(rng):
    # 10^3 random (H, cone, v) triples with full-row-rank H
    checked = 0
    while checked < 1000:
        n_d = int(rng.integers(1, 3))
        n_c = int(rng.integers(n_d, 5))
        H = rng.standard_normal((n_d, n_c))
        if np.linalg.svd(H, compute_uv=False)[-1] < 1e-6:
            continue
        rows = rng.standard_normal((int(rng.integers(1, 3)), n_d))
        low = PolyhedralCone(dim=n_d, rows=rows)
        lifted = lifted_tangent_cone(H, low)
        v = rng.standard_normal(n_c)
        if abs(low.residual(H @ v)) < 1e-9:
            continue
        checked += 1
        assert lifted.contains(v) == low.contains(H @ v)


def test_lifted_cone_matches_sequential_oracle(rng):
    # the lifted set {c : Hc in D} is itself finitely generated; its tangent
    # cone must agree with the sequential membership test on random triples
    checked = 0
    while checked < 100:
        n_d = int(rng.integers(1, 3))
        n_c = int(rng.integers(n_d + 1, 5))
        H = rng.standard_normal((n_d, n_c))
        if np.linalg.svd(H, compute_uv=False)[-1] < 1e-1:
            continue
        rows = rng.standard_normal((int(rng.integers(1, n_d + 1)), n_d))
        lifted = lifted_tangent_cone(H, PolyhedralCone(dim=n_d, rows=rows))
        lifted_set = ConstraintSet(
            n_c, tuple(affine_constraint(r @ H, 0.0) for r in rows)
        )
        v = rng.standard_normal(n_c)
        if abs(lifted.residual(v)) < 1e-1:
            continue
        checked += 1
        assert lifted.contains(v) == oracle_tangent_membership(
            lifted_set, np.zeros(n_c), v
        )


def test_constraint_set_json_round_trip(rng):
    cset = ConstraintSet(
        2,
        (
            affine_constraint([1.0, -2.0], 0.5),
            quadratic_constraint([[1.0, 0.0], [0.0, -1.0]], [0.0, 1.0], 2.0),
        ),
    )
    doc = constraint_set_to_json(cset)
    json.dumps(doc)  # serializable
    back = constraint_set_from_json(doc)
    for _ in range(10):
        x = rng.standard_normal(2)
        assert np.allclose(back.values(x), cset.values(x))
        assert np.allclose(back.gradients(x), cset.gradients(x))


def test_user_constraints_not_serializable():
    cset = ConstraintSet(
        1, (user_constraint(lambda x: float(x[0]), lambda x: np.array([1.0])),)
    )
    with pytest.raises(ValueError):
        constraint_set_to_json(cset)


def test_as_vector_converts_other_inputs_and_passes_float64_vectors_through():
    for x in ([1, 2, 3], (1.0, 2.0, 3.0), np.array([1, 2, 3]),
              np.array([1, 2, 3], dtype=np.float32), np.array([[1.0], [2.0], [3.0]]),
              np.array([1.0, 2.0, 3.0], dtype=">f8")):
        v = _as_vector(x, 3)
        assert v.dtype == np.float64 and v.shape == (3,)
        assert v.tolist() == [1.0, 2.0, 3.0]
    for x in ([1.0, 2.0], (1.0, 2.0, 3.0, 4.0), np.zeros(4), np.zeros((2, 1))):
        with pytest.raises(ValueError):
            _as_vector(x, 3)
    # A 1-D float64 array is returned as itself: no copy, not even a view.
    x = np.array([1.0, -2.5, 3.0])
    assert _as_vector(x, 3) is x
    assert _as_vector(x) is x
    assert x.tolist() == [1.0, -2.5, 3.0]
