import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

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
from epds.errors import EpdsError
from epds.oracle import _fm_seed
from epds.projection import feasible
from epds.verify import random_projection_instance, well_posed_instance
from conftest import unit_disk
from test_projection import kkt_instances


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


def test_oracle_reaches_far_optima():
    # The correction must travel 30 units, twenty times |v|.
    cone = PolyhedralCone(dim=2, rows=np.array([[1.0, 1.0 / 30.0]]))
    w = oracle_project(cone, vertical(), [-1.0, 0.0])
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

# Grid points per axis for n_E = 1 / 2 / 3.
_GRID_POINTS = {1: 2001, 2: 201, 3: 51}


class _GridMissed(Exception):
    pass


def _grid_seed(G, g, Q, halfwidth):
    """Best feasible point of a grid on [-h, h]**n_E, for h = halfwidth and
    then 2 halfwidth; _GridMissed when both miss a nonempty set."""
    n_e = G.shape[1]
    slack = 1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
    for h in (halfwidth, 2.0 * halfwidth):
        lin = np.linspace(-h, h, _GRID_POINTS[n_e])
        cand = np.stack(np.meshgrid(*([lin] * n_e), indexing="ij"), axis=-1).reshape(-1, n_e)
        cand = cand[np.all(cand @ G.T >= g - slack, axis=1)]
        if len(cand):
            return cand[int(np.argmin(np.einsum("ij,ij->i", cand @ Q, cand)))]
    if _fm_seed(G, g) is None:
        return None
    raise _GridMissed


def _lp_seed(G, g):
    """Deep feasible point by maximizing the row-scaled margin (capped at 1),
    or None when the set is empty."""
    import scipy.optimize

    n_e = G.shape[1]
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(n_e), [-1.0]]),
        A_ub=np.column_stack([-G, np.linalg.norm(G, axis=1)]),
        b_ub=-g,
        bounds=[(None, None)] * n_e + [(None, 1.0)],
        method="highs",
    )
    if not res.success or res.x[-1] < -1e-9:
        return None
    return res.x[:-1]


@pytest.mark.parametrize("rung", ["fm", "grid", "lp"])
def test_oracle_fallback_seed_matches_solver(monkeypatch, rung):
    """The refinement reaches the solver's projection from the oracle's own
    Fourier-Motzkin seed (fm) and from the seeds it used to fall back on:
    the best point of a coarse grid (grid) and a max-margin LP point (lp).
    A draw whose feasible set lies outside both grid boxes is skipped in
    the grid case.
    """
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
        if rung == "grid":
            Q, halfwidth = E.basis.T @ E.basis, 10.0 * (1.0 + np.linalg.norm(v))
            monkeypatch.setattr(oracle, "_fm_seed", lambda G, g: _grid_seed(G, g, Q, halfwidth))
        elif rung == "lp":
            monkeypatch.setattr(oracle, "_fm_seed", _lp_seed)
        try:
            w = oracle_project(cone, E, v)
        except _GridMissed:
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
    # Far from v (|eta| ~ 220): the search goes from a facet to an edge to
    # the vertex, so the edge direction must be taken at the point that
    # reached the edge.
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
    # A vertex at |eta| ~ 77, 11 times |v|, from a branch of
    # verify-projection at seed 51.
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
    # A wedge of half-angle 0.05 rad whose apex, eta = (5, 0), is the
    # optimum; alternating projections need about 3,000 sweeps to reach it.
    "slow-wedge-apex": (
        [[math.tan(0.05), -1.0], [math.tan(0.05), 1.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        [-5.0, 0.0],
        [0, 1],
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


def test_fm_seed_exists_exactly_when_feasible():
    # Fourier-Motzkin decides emptiness exactly, so its verdict is the
    # phase-1 test's, and its point meets every unit row.
    rng = np.random.default_rng(3)
    seeded = {True: 0, False: 0}
    for _ in range(1500):
        cone, E, v = random_projection_instance(rng)
        G, g = cone.rows @ E.basis, -(cone.rows @ v)
        eta = _fm_seed(G, g)
        assert (eta is not None) == feasible(cone, E, v)
        seeded[eta is not None] += 1
        if eta is not None:
            norms = np.linalg.norm(np.column_stack([G, g]), axis=1)
            assert np.all((G @ eta - g) / norms >= -1e-9)
    assert min(seeded.values()) >= 150, seeded


def test_fm_seed_on_empty_and_free_systems():
    assert np.array_equal(_fm_seed(np.zeros((0, 2)), np.zeros(0)), np.zeros(2))
    # A row orthogonal to Im E is zero here: it holds iff its g is <= 0.
    assert _fm_seed(np.zeros((1, 1)), np.array([1.0])) is None
    assert np.array_equal(_fm_seed(np.zeros((1, 1)), np.array([-1.0])), np.zeros(1))
    # Opposite rows: the slab 1 <= eta_0 <= 2, and the line eta_0 = 1.
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert np.allclose(_fm_seed(G, np.array([1.0, -2.0])), [1.0, 0.0])
    assert np.allclose(_fm_seed(G, np.array([1.0, -1.0])), [1.0, 0.0])
    assert _fm_seed(G, np.array([2.0, -1.0])) is None


@given(kkt_instances())
# Rows 0 and 1 are nearly opposite in E's coordinates (cosine -0.9999995):
# their cross product tilted the edge direction 4e-14 off both facets, the
# edge search read that as crossing them, and the oracle stopped 0.26 short.
@example(
    instance=(
        PolyhedralCone(
            dim=3,
            rows=np.array(
                [
                    [-0.03033561, 0.32330268, 0.94580925],
                    [-0.38517387, -0.06338538, -0.92066464],
                    [-0.38517387, -0.06338538, -0.92066464],
                    [0.08794903, -0.96995422, -0.22683424],
                ]
            ),
        ),
        ProjectionSubspace(
            3,
            np.array(
                [
                    [0.15419163, 0.11978817, 0.22666965],
                    [0.12766077, 0.11170677, 0.21684379],
                    [0.53385311, 0.34373646, 0.65827597],
                ]
            ),
        ),
        np.array([1.79563621, -1.1303421, 1.16631547]),
    )
)
@settings(max_examples=300, deadline=None)
def test_oracle_matches_solver_on_degenerate_cones(instance):
    # Duplicate, scaled, dependent and orthogonal rows: the exact seed must
    # exist wherever the solver finds the projection, and refine to it.
    cone, E, v = instance
    try:
        res = project_partial(cone, E, v)
    except EpdsError:
        return
    assert np.linalg.norm(oracle_project(cone, E, v) - res.w) <= 1e-6


def test_verify_passes_do_not_load_scipy():
    # scipy is a test dependency only; importing it would add to a pass's
    # time and memory.  Seeds 17 and 46 are passes whose oracle once fell
    # back to an LP seed.
    code = (
        "import sys\n"
        "from epds.verify import verify_krasovskii, verify_projection\n"
        "for s in (9, 17, 46):\n"
        "    assert verify_projection(150, seed=s)['mismatches'] == 0\n"
        "assert verify_krasovskii(22, seed=3)['finite_failures'] == 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    # scipy is in the test extra only, so the package must run without it.
    pkg = Path(oracle.__file__).parent
    importers = [
        str(p.relative_to(pkg))
        for p in sorted(pkg.rglob("*.py"))
        if re.search(r"^\s*(import|from)\s+scipy\b", p.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == []


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
