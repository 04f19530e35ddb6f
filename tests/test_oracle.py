import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epds import (
    ConstraintSet,
    NoFeasiblePoint,
    OracleConfig,
    PolyhedralCone,
    ProjectionSubspace,
    Sector,
    affine_constraint,
    oracle_project,
    oracle_tangent_membership,
    sector_tangent_cone,
)
from epds.oracle import _GRID_DEFAULTS, _dykstra, _grid_incumbent
from epds.verify import random_projection_instance
from conftest import unit_disk


def vertical():
    return ProjectionSubspace.from_columns([[0.0, 1.0]])


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_points_per_dim=2)
    with pytest.raises(ValueError):
        OracleConfig(refine_iters=0)


def test_oracle_zero_correction():
    w = oracle_project(PolyhedralCone.full_space(2), vertical(), [3.0, 7.0])
    assert np.allclose(w, [3.0, 7.0])


def test_oracle_one_dimensional_clamp():
    cone = PolyhedralCone(dim=2, rows=np.eye(2))
    w = oracle_project(cone, vertical(), [1.0, -1.0])
    assert np.linalg.norm(w - [1.0, 0.0]) <= 1e-6


def test_oracle_sector_origin_union():
    sec = Sector(0.0, 1.0)
    union = sector_tangent_cone(sec, (0.0, 0.0))
    w = oracle_project(union, vertical(), [1.0, 2.0])
    assert np.linalg.norm(w - [1.0, 1.0]) <= 1e-6
    w2 = oracle_project(union, vertical(), [-2.0, 1.0])
    assert np.linalg.norm(w2 - [-2.0, 0.0]) <= 1e-6


def test_oracle_never_returns_infeasible(rng):
    from epds.verify import random_projection_instance
    from epds.projection import feasible

    for _ in range(60):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not feasible(cone, E, v):
            continue
        w = oracle_project(cone, E, v)
        assert cone.contains(w, tol=1e-8)


def test_oracle_reports_genuine_infeasibility():
    halfplane = PolyhedralCone(dim=2, rows=np.array([[1.0, 0.0]]))
    with pytest.raises(NoFeasiblePoint):
        oracle_project(halfplane, vertical(), [-1.0, 0.0])


def test_oracle_grid_halving_is_consistent():
    # doubling the resolution moves the answer by less than the coarse spacing
    cone = PolyhedralCone(dim=3, rows=np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.4]]))
    E = ProjectionSubspace.from_columns([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])
    v = np.array([-1.0, -2.0, 0.5])
    hw = 10.0 * (1 + np.linalg.norm(v))
    coarse = oracle_project(cone, E, v, OracleConfig(grid_points_per_dim=51))
    fine = oracle_project(cone, E, v, OracleConfig(grid_points_per_dim=101))
    spacing = 2 * hw / 50
    assert np.linalg.norm(coarse - fine) <= 2 * spacing * np.linalg.norm(E.basis, 2)


def test_oracle_box_doubling_reaches_far_optima():
    # optimum far outside the default box: correction must travel ~40 units
    cone = PolyhedralCone(dim=2, rows=np.array([[0.0, 1.0]]))
    E = vertical()
    v = np.array([1.0, -40.0])
    w = oracle_project(cone, E, v, OracleConfig(eta_box_halfwidth=25.0))
    assert np.linalg.norm(w - [1.0, 0.0]) <= 1e-6


# Verification draws whose optimum is a vertex the line refinement must walk
# to: (rows, basis, v, rows tight at the optimum).
WALK_TO_VERTEX = {
    # Rows 0 and 1 meet at 0.84 degrees in correction coordinates.  The
    # search used to zigzag down the wedge and stop 7.5e-5 short of its
    # apex, a 6.7e-3 false mismatch in verify-projection at seed 33816972.
    "thin-wedge-apex": (
        [
            [-0.25550932774729224, -0.5422749121465114, -0.24637504219569897, 0.7615459550635717],
            [0.20216503088281135, 0.5802655122570602, 0.22869851183466056, -0.7550617367194653],
            [0.9714511295612398, -0.213536532274735, 0.03758585600923108, -0.09629203334817268],
        ],
        [
            [0.8882426320980501, 0.041928320458349135],
            [1.3088953013433389, -0.032421691949578654],
            [-1.8516564742106856, 0.7444583913251589],
            [-0.3918889529895496, 1.2122812613346203],
        ],
        [0.9659827265652882, 1.0520182296746547, 1.1523306133333409, 0.5869839963179623],
        [0, 1],
    ),
    # Far outside the grid box (|eta| ~ 220, seeded by the LP): the search
    # goes from a facet to an edge to the vertex, so the edge direction must
    # be taken at the point that reached the edge.
    "far-vertex": (
        [
            [-0.12311040171394058, -0.22514167881867544, -0.8982855593457718,
             -0.021424964494972772, 0.21332705249867065, 0.2850800710116595],
            [-0.4041154311851489, -0.8396940155413245, 0.2531355926099435,
             0.10538544413878356, 0.2331350798084297, 0.04548618496343714],
            [0.0006927402536957727, 0.2916932276805915, 0.1599799566073156,
             -0.5935576609139387, -0.6095510254021023, -0.4067650982099623],
            [0.6782605468123524, -0.6067144259690349, 0.1846904285954426,
             -0.039369733016493956, -0.11319157560430675, 0.35126538810211533],
        ],
        [
            [-0.6629457310879802, 0.45968893412507955, -0.4672162247886459],
            [-0.8717961771184622, -0.07838548853774982, -0.06209198155807731],
            [0.553026827539395, 0.9163533038800802, -3.3891558500405745],
            [0.06505668449144686, -1.221063512331756, 0.7817395963526397],
            [0.01936984542951451, 1.39264893428033, -0.6110008324504779],
            [0.5370665746579872, -0.3525471147706008, 0.597532381143125],
        ],
        [0.9144706747844304, 6.305441392944761, -0.7305064713525754,
         2.8974106999805547, 2.911154737880543, 4.39621149667369],
        [0, 1, 2],
    ),
    # A cone whose rows span only thinly (smallest singular value of G is
    # 0.018): facet tangents taken on the edge before the edge direction
    # step off it, and the search zigzags between the edge and a facet.  It
    # read a 4.5e-3 false mismatch in verify-projection at seed 4093171177.
    "thin-cone-vertex": (
        [
            [-0.9380475822920016, -0.32757648830530295, 0.11296184163555473],
            [0.8184927752365841, -0.5735439307075183, -0.033420598948612615],
            [-0.19050504412396774, 0.9809117940599924, -0.038985643990220205],
        ],
        [
            [0.9995935787130663, -1.3691732693667538, -1.571720268656919],
            [0.24848199369667626, -0.6661182665507713, -0.46807870749798663],
            [-1.3439643373301073, 0.10095177075658571, -1.344197047691227],
        ],
        [-0.22660217225259943, -0.842188543418526, -0.5298709516556573],
        [0, 1, 2],
    ),
}


@pytest.mark.parametrize("name", sorted(WALK_TO_VERTEX))
def test_oracle_walks_to_vertex(name):
    rows, basis, v, tight = (np.array(a) for a in WALK_TO_VERTEX[name])
    G, g = rows @ basis, -(rows @ v)
    vertex = np.linalg.solve(G[tight], g[tight])
    # The vertex is feasible, and optimal: its multipliers are positive.
    assert np.all(np.delete(G @ vertex - g, tight) > 0.0)
    assert np.all(np.linalg.solve(G[tight].T, basis.T @ basis @ vertex) > 0.0)
    dim = rows.shape[1]
    w = oracle_project(PolyhedralCone(dim=dim, rows=rows), ProjectionSubspace(dim, basis), v)
    assert np.linalg.norm(w - (v + basis @ vertex)) <= 1e-6


def _grid_incumbent_reference(G, g, Q, n_e, halfwidth, pts, slack):
    """The materialized grid: every point, one dense mask and one einsum."""
    axes = [np.linspace(-halfwidth, halfwidth, pts)] * n_e
    mesh = np.meshgrid(*axes, indexing="ij")
    etas = np.column_stack([m.ravel() for m in mesh])
    if G.shape[0] == 0:
        mask = np.ones(etas.shape[0], dtype=bool)
    else:
        mask = np.all(etas @ G.T >= g[None, :] - slack, axis=1)
    if not np.any(mask):
        return None
    cand = etas[mask]
    obj = np.einsum("ij,jk,ik->i", cand, Q, cand)
    return cand[int(np.argmin(obj))]


@given(
    st.sampled_from([1, 2, 3]),
    st.integers(0, 4),
    st.integers(1, 3),
    st.sampled_from([1.0, 30.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_incumbent_matches_meshgrid_reference(n_e, m, rank, g_scale, seed):
    # Offsets up to 30 against a box of half-width <= 20 make many draws
    # infeasible; a rank below n_E makes Q singular, with ties in the score.
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n_e))
    g = g_scale * rng.standard_normal(m)
    A = rng.standard_normal((min(rank, n_e), n_e))
    Q = A.T @ A
    hw = float(rng.uniform(1.0, 20.0))
    slack = 1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
    pts = _GRID_DEFAULTS[n_e]
    ref = _grid_incumbent_reference(G, g, Q, n_e, hw, pts, slack)
    eta = _grid_incumbent(G, g, Q, n_e, hw, pts, slack)
    assert (ref is None) == (eta is None)
    if eta is None:
        return
    ref_obj, obj = float(ref @ Q @ ref), float(eta @ Q @ eta)
    assert abs(obj - ref_obj) <= 1e-12 * (1.0 + ref_obj)
    assert np.all(G @ eta >= g - slack)


def _dykstra_reference(G, g, Q, max_sweeps=6000):
    """Numpy Dykstra sweeps; returns the result and the sweeps it took."""
    k, n_e = G.shape
    Qinv = np.linalg.inv(Q)
    aQ = (Qinv @ G.T).T
    denom = np.maximum(np.einsum("ij,ij->i", G, aQ), 1e-30)
    x = np.zeros(n_e)
    p = np.zeros((k, n_e))
    for sweeps in range(1, max_sweeps + 1):
        x_prev = x.copy()
        for j in range(k):
            y = x + p[j]
            viol = g[j] - float(G[j] @ y)
            if viol > 0.0:
                x = y + (viol / denom[j]) * aQ[j]
            else:
                x = y
            p[j] = y - x
        if np.linalg.norm(x - x_prev) <= 1e-15 * (1.0 + np.linalg.norm(x)):
            break
    for _ in range(100):
        viol = g - G @ x
        j = int(np.argmax(viol))
        if viol[j] <= 0.0:
            break
        x = x + (viol[j] / denom[j]) * aQ[j]
    return x, sweeps


def test_dykstra_float_sweep_matches_reference():
    """The float sweeps agree with numpy ones to roundoff.

    Instances are the oracle's own inputs (G = rows E, g = -rows v,
    Q = E^T E) from the verification generator.  Both loops stop on the
    same 1e-15 step rule; on a slowly converging instance roundoff can make
    them stop a sweep apart, which moves the result by less than this
    tolerance on all of these.
    """
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 150:
        cone, E, v = random_projection_instance(rng)
        if E.n_e < 2:
            continue
        G, g, Q = cone.rows @ E.basis, -(cone.rows @ v), E.basis.T @ E.basis
        ref, _ = _dykstra_reference(G, g, Q)
        x = _dykstra(G, g, Q)
        assert np.linalg.norm(x - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
        checked += 1
    # Wedge of half-angle 0.05 rad with its apex at (5, 0), where the
    # projection of the origin lands: the reference needs 2963 sweeps.
    t = math.tan(0.05)
    G, g = np.array([[t, -1.0], [t, 1.0]]), np.array([5.0 * t, 5.0 * t])
    ref, sweeps = _dykstra_reference(G, g, np.eye(2))
    assert sweeps >= 1000
    x = _dykstra(G, g, np.eye(2))
    assert np.linalg.norm(x - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
    assert np.linalg.norm(x - [5.0, 0.0]) <= 1e-9


def test_tangent_membership_examples():
    half = ConstraintSet(2, (affine_constraint([1.0, 0.0], 0.0),))
    assert oracle_tangent_membership(half, (2.0, 0.0), (-5.0, 1.0))  # interior
    assert not oracle_tangent_membership(half, (0.0, 0.0), (-1.0, 0.0))
    assert oracle_tangent_membership(half, (0.0, 0.0), (1.0, -2.0))
    sec = Sector(0.0, 1.0)
    assert oracle_tangent_membership(sec, (0.0, 0.0), (-1.0, -0.5))  # inside -K
    assert not oracle_tangent_membership(sec, (0.0, 0.0), (0.0, 1.0))


def test_tangent_membership_on_curved_boundary():
    disk = unit_disk()
    x = (1.0, 0.0)
    assert oracle_tangent_membership(disk, x, (-1.0, 0.3))
    assert oracle_tangent_membership(disk, x, (0.0, 1.0))  # tangent direction
    assert not oracle_tangent_membership(disk, x, (0.5, 0.0))
