import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epds import (
    ConstraintSet,
    NoFeasiblePoint,
    PolyhedralCone,
    ProjectionSubspace,
    Sector,
    affine_constraint,
    oracle_project,
    oracle_tangent_membership,
    project_partial,
    sector_tangent_cone,
)
from epds import oracle
from epds.oracle import _GRID_POINTS, _dykstra, _grid_incumbent
from epds.projection import feasible
from epds.verify import random_projection_instance, well_posed_instance
from conftest import unit_disk


def vertical():
    return ProjectionSubspace.from_columns([[0.0, 1.0]])


def test_oracle_zero_correction():
    w = oracle_project(PolyhedralCone.full_space(2), vertical(), [3.0, 7.0])
    assert np.allclose(w, [3.0, 7.0])


def test_oracle_one_dimensional_clamp():
    cone = PolyhedralCone(dim=2, rows=np.eye(2))
    w = oracle_project(cone, vertical(), [1.0, -1.0])
    assert np.linalg.norm(w - [1.0, 0.0]) <= 1e-6
    # Row 0 is orthogonal to E and tight at v: a zero row in correction
    # coordinates, which bounds no facet.
    with np.errstate(all="raise"):
        w = oracle_project(cone, vertical(), [0.0, -1.0])
    assert np.linalg.norm(w) <= 1e-6


def test_oracle_sector_origin_union():
    sec = Sector(0.0, 1.0)
    union = sector_tangent_cone(sec, (0.0, 0.0))
    w = oracle_project(union, vertical(), [1.0, 2.0])
    assert np.linalg.norm(w - [1.0, 1.0]) <= 1e-6
    w2 = oracle_project(union, vertical(), [-2.0, 1.0])
    assert np.linalg.norm(w2 - [-2.0, 0.0]) <= 1e-6


def test_oracle_never_returns_infeasible(rng):
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


class _RungForbidden(Exception):
    pass


def _stall_dykstra(monkeypatch):
    monkeypatch.setattr(oracle, "_dykstra", lambda G, g, Q: np.full(G.shape[1], np.nan))


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise _RungForbidden(name)

    monkeypatch.setattr(oracle, name, forbidden)


def test_oracle_box_doubling_reaches_far_optima(monkeypatch):
    # The correction must travel 30 units; the default box has half-width
    # 10 (1 + |v|) = 20, so only the doubled box holds a feasible grid point.
    _stall_dykstra(monkeypatch)
    _forbid(monkeypatch, "_lp_feasible_seed")
    cone = PolyhedralCone(dim=2, rows=np.array([[1.0, 1.0 / 30.0]]))
    v = np.array([-1.0, 0.0])
    G, g = cone.rows @ vertical().basis, -(cone.rows @ v)
    assert _grid_incumbent(G, g, np.eye(1), 1, 20.0, _GRID_POINTS[1], 0.0) is None
    w = oracle_project(cone, vertical(), v)
    assert np.linalg.norm(w - [-1.0, 30.0]) <= 1e-6


# Verification draws (n_E = 2) on which -eta projected onto a facet came out
# tilted off it by roundoff, so that the walk stopped 0.055 (grid seed) and
# 0.058 (LP seed) short of the optimum: (rows, basis, v).
TILTED_FACET = [
    (
        [[-0.998702618763859, -0.05092228661607679]],
        [[-0.6199416886147591, 1.4311299868320657], [-1.1556662251716754, 0.2729932872639915]],
        [2.791443918015038, 2.2517478035086422],
    ),
    (
        [
            [-0.38372224061244814, -0.07497467232379305, -0.9085840965420536, 0.147006734812261],
            [0.49534958860497447, -0.6317614092102076, 0.5958654807226892, 0.021228183736103173],
            [-0.5980791626729732, 0.24098496917138398, -0.4480590848024605, -0.6192500434685846],
            [0.7497321065351086, -0.6460072237623011, 0.12811366176078834, 0.06452383240009214],
        ],
        [
            [0.20905117419337965, -0.15515666997102415],
            [1.3481270419872464, 0.8338936784498697],
            [-0.05149615219323181, 0.9398001194128122],
            [-0.585772691462154, 0.5060138197171782],
        ],
        [-4.0734022553576805, 1.746294402635628, -0.5725463453960613, -3.804620688709823],
    ),
]


@pytest.mark.parametrize("rung", ["grid", "lp"])
def test_oracle_fallback_seed_matches_solver(monkeypatch, rung):
    """Each fallback rung, seeding alone, gives the solver's projection.

    Dykstra is made to stall on every branch.  The grid rung runs with the
    LP forbidden; a draw whose feasible set lies outside both grid boxes
    belongs to the LP rung and is skipped.  The LP rung runs with the grid
    made to miss.
    """
    _stall_dykstra(monkeypatch)
    if rung == "grid":
        _forbid(monkeypatch, "_lp_feasible_seed")
    else:
        monkeypatch.setattr(oracle, "_grid_incumbent", lambda *args: None)
    fixed = [
        (PolyhedralCone(len(v), np.array(A)), ProjectionSubspace(len(v), np.array(E)), np.array(v))
        for A, E, v in TILTED_FACET
    ]
    rng = np.random.default_rng(7)
    draws = [random_projection_instance(rng) for _ in range(80)]
    checked = {1: 0, 2: 0, 3: 0}
    for cone, E, v in fixed + draws:
        if not (feasible(cone, E, v) and well_posed_instance(cone, E, v)):
            continue
        try:
            w = oracle_project(cone, E, v)
        except _RungForbidden:
            continue
        assert np.linalg.norm(w - project_partial(cone, E, v).w) <= 1e-6
        checked[E.n_e] += 1
    assert min(checked.values()) >= 10, checked


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
    # Dykstra stalls here, and the optimum (|eta| ~ 77) lies outside the
    # default grid box of half-width 68.5: the doubled box seeds the walk.
    # One of the branches in verify-projection at seeds 0..59 that the
    # doubled box seeds (seed 51).
    "doubled-box-vertex": (
        [
            [-0.2969088837417139, 0.9290178282824356, 0.22084154837492972],
            [-0.5953961790004542, -0.665023116438802, 0.4508299509057521],
            [0.6327543661830928, -0.751677528300123, 0.18601829352203536],
        ],
        [
            [-1.2769628620867852, -0.16407821421051208],
            [-0.18836919678074368, 0.7845558904999278],
            [1.1235997967880262, -0.35280376733036534],
        ],
        [-3.8722211220122826, 1.4704009672474754, -4.128657819149254],
        [0, 2],
    ),
}
# Entries whose feasible set lies outside both grid boxes; every other
# entry is walked from a grid seed with the LP forbidden.
LP_SEEDED = {"far-vertex"}


@pytest.mark.parametrize("name", sorted(WALK_TO_VERTEX))
def test_oracle_walks_to_vertex(monkeypatch, name):
    if name not in LP_SEEDED:
        _forbid(monkeypatch, "_lp_feasible_seed")
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
    pts = _GRID_POINTS[n_e]
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
    checked = {1: 0, 2: 0, 3: 0}
    while sum(checked.values()) < 150:
        cone, E, v = random_projection_instance(rng)
        G, g, Q = cone.rows @ E.basis, -(cone.rows @ v), E.basis.T @ E.basis
        ref, _ = _dykstra_reference(G, g, Q)
        x = _dykstra(G, g, Q)
        assert np.linalg.norm(x - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
        checked[E.n_e] += 1
    assert min(checked.values()) >= 30
    # Wedge of half-angle 0.05 rad with its apex at (5, 0), where the
    # projection of the origin lands: the reference needs 2963 sweeps.
    t = math.tan(0.05)
    G, g = np.array([[t, -1.0], [t, 1.0]]), np.array([5.0 * t, 5.0 * t])
    ref, sweeps = _dykstra_reference(G, g, np.eye(2))
    assert sweeps >= 1000
    x = _dykstra(G, g, np.eye(2))
    assert np.linalg.norm(x - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
    assert np.linalg.norm(x - [5.0, 0.0]) <= 1e-9


def test_verify_passes_do_not_load_scipy():
    # At seed 9 every oracle branch is seeded by Dykstra or the grid, so the
    # pass never imports scipy.optimize for the LP seed, and the solver path
    # and the Krasovskii pass import no scipy at all.  Importing scipy would
    # add to a pass's time and memory.
    code = (
        "import sys\n"
        "from epds.verify import verify_krasovskii, verify_projection\n"
        "assert verify_projection(150, seed=9)['mismatches'] == 0\n"
        "assert verify_krasovskii(22, seed=3)['finite_failures'] == 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_only_the_oracle_imports_scipy():
    # The oracle's LP seed is the package's last scipy call; moving scipy to
    # the test extra needs that to stay so.
    pkg = Path(oracle.__file__).parent
    importers = [
        str(p.relative_to(pkg))
        for p in sorted(pkg.rglob("*.py"))
        if re.search(r"^\s*(import|from)\s+scipy\b", p.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == ["oracle.py"]


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
