"""Acceptance suite: one test per criterion, at the stated sizes/tolerances.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on success).  The randomized suites reuse the library's verification
module so the CLI commands and this gate exercise identical code.
"""

import time

import numpy as np
import pytest

from epds import (
    InputSignal,
    KrasovskiiHull,
    Plant,
    Controller,
    Sector,
    TimeEmbedded,
    build_closed_loop,
    closed_loop_rhs,
    growth_check,
    integrate,
    lifted_tangent_cone,
    oracle_project,
    sector_krasovskii_vertices,
    sector_project,
    sector_subspace,
    sector_tangent_cone,
    tangent_cone,
    verify_equality,
)
import epds.projection
import epds.verify
from epds.oracle import _branch_vstar
from epds.projection import feasible, project_partial
from epds.sim import SinusoidSegment
from epds.verify import verify_projection, verify_krasovskii
from conftest import corner_cones, euler_time_embedded, make_higs_benchmark


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)


@pytest.fixture(scope="module")
def projection_suite():
    return verify_projection(count=10_000, seed=42, max_dim=6)


@pytest.fixture(scope="module")
def higs():
    return make_higs_benchmark()


def higs_benchmark_signal():
    return InputSignal(breakpoints=(0.0,), segments=(SinusoidSegment(2.0, 1.0),))


def test_criterion_1_projection_oracle_equivalence(projection_suite):
    rep = projection_suite
    ok = (
        rep["cases"] >= 10_000
        and rep["mismatches"] == 0
        and rep["max_discrepancy"] <= 1e-6
        and rep["elapsed_s"] <= 300.0
    )
    report(
        1,
        "projection-oracle equivalence",
        ok,
        f"{rep['cases']} cases, max |dw| = {rep['max_discrepancy']:.2e}, "
        f"{rep['elapsed_s']:.0f}s",
    )
    assert ok


def test_criterion_2_singleton_uniqueness(projection_suite):
    rep = projection_suite
    ok = (
        rep["singleton_violations"] == 0
        and rep["sector_origin_cases"] >= 1_000
        and rep["branch_contradictions"] == 0
    )
    report(
        2,
        "singleton and branch uniqueness",
        ok,
        f"{rep['cases']} KKT singleton checks, "
        f"{rep['sector_origin_cases']} origin projections, "
        f"{rep['branch_contradictions']} contradictions",
    )
    assert ok


def test_criterion_3_krasovskii_equality_regular_sets():
    rep = verify_krasovskii(count=1_000, seed=42)
    ok = (
        rep["finite_cases"] >= 1_000
        and rep["finite_failures"] == 0
        and rep["grid_disagreements"] == 0
        and rep["missing_vertices"] == 0
    )
    report(
        3,
        "Krasovskii equality on regular sets",
        ok,
        f"{rep['finite_cases']} instances at resolutions 0.02/0.01, "
        f"{rep['finite_failures']} failures, "
        f"{rep['missing_vertices']} hulls missing f or the projection",
    )
    assert ok


def test_criterion_3_fires_on_a_hull_of_the_projection_alone(monkeypatch):
    # A hull that is the projection alone meets the tangent cone only at the
    # projection, so the grid check holds on it; the vertex check must not.
    def projection_only(cset, E, x, f):
        pi = project_partial(tangent_cone(cset, x), E, f)
        return KrasovskiiHull(vertices=pi.w, subset_labels=((),), point=x, field_value=f)

    monkeypatch.setattr(epds.verify, "krasovskii_vertices", projection_only)
    rep = verify_krasovskii(count=50, seed=42)
    assert rep["finite_failures"] == 0 and rep["missing_vertices"] > 0


def test_criterion_4_counterexample_reproduction():
    sec = Sector(0.0, 1.0)
    w = np.array([1.0, 2.0])
    # Re-derive the expected vertices with the oracle, stratum by stratum.
    E2 = sector_subspace()
    derived = []
    for cone in corner_cones(sec.k1, sec.k2):
        if feasible(cone, E2, w):
            derived.append(oracle_project(cone, E2, w))
    derived = np.unique(np.round(np.array(derived), 12), axis=0)
    expected = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    derive_ok = all(
        min(np.linalg.norm(d - e) for d in derived) <= 1e-9 for e in expected
    )

    hull = sector_krasovskii_vertices(sec, (0.0, 0.0), w)
    hull_ok = hull.n_vertices == 3 and all(
        min(np.linalg.norm(vtx - e) for vtx in hull.vertices) <= 1e-9
        for e in expected
    )
    pi = sector_project(sec, (0.0, 0.0), w)
    pi_ok = np.linalg.norm(pi.w - [1.0, 1.0]) <= 1e-9
    rep = verify_equality(hull, sector_tangent_cone(sec, (0.0, 0.0)), pi, 0.02)
    witness_ok = (not rep.holds) and any(
        np.linalg.norm(v - [1.0, 0.0]) <= 1e-9 for v in rep.witnesses
    )

    # Conversely: zero e-velocity cases always verify.
    zero_ok = True
    rng = np.random.default_rng(4)
    for _ in range(50):
        w0 = np.array([0.0, float(rng.standard_normal() * 3)])
        h0 = sector_krasovskii_vertices(sec, (0.0, 0.0), w0)
        p0 = sector_project(sec, (0.0, 0.0), w0)
        r0 = verify_equality(h0, sector_tangent_cone(sec, (0.0, 0.0)), p0, 0.02)
        zero_ok = zero_ok and r0.holds

    ok = derive_ok and hull_ok and pi_ok and witness_ok and zero_ok
    report(
        4,
        "corner counterexample",
        ok,
        f"vertices {np.round(hull.vertices, 9).tolist()}, holds={rep.holds}, "
        f"zero-edot cases all hold={zero_ok}",
    )
    assert ok


def criterion_5_counts(n: int, seed: int) -> tuple[int, int]:
    """(in_menu, agree) over n sector projections: v* in {fc1, k1*edot,
    k2*edot}, and v* within 1e-9 of the KKT projection into the tangent cone
    off the corner, of every branch that admits w at the corner (solved on
    its own, at least one)."""
    rng = np.random.default_rng(seed)
    agree = 0
    in_menu = 0
    for i in range(n):
        k1 = float(rng.uniform(-2.0, 2.0))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3.0)))
        mode = i % 3
        if mode == 0:
            s = np.zeros(2)
        else:
            e = float(rng.uniform(0.2, 2.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            k_line = sec.k1 if mode == 1 else sec.k2
            s = np.array([e, k_line * e])
        w = rng.standard_normal(2) * 2.0
        res = sector_project(sec, s, w)
        vs = float(res.w[1])
        menu = (float(w[1]), sec.k1 * float(w[0]), sec.k2 * float(w[0]))
        if min(abs(vs - m) for m in menu) <= 1e-9:
            in_menu += 1
        if mode == 0:
            K = ((-sec.k1, 1.0), (sec.k2, -1.0))
            refs = [_branch_vstar(rows, w.tolist()) for rows in (K, [(-a, -b) for a, b in K])]
            refs = [u for u in refs if u is not None]
        else:
            refs = [float(project_partial(sector_tangent_cone(sec, s), sector_subspace(), w).w[1])]
        if refs and all(abs(u - vs) <= 1e-9 for u in refs):
            agree += 1
    return in_menu, agree


def test_criterion_5_piecewise_vstar_selection():
    n = 10_000
    in_menu, agree = criterion_5_counts(n, seed=55)
    ok = in_menu == n and agree == n
    report(
        5,
        "piecewise v* selection",
        ok,
        f"{in_menu}/{n} in {{fc1, k1*edot, k2*edot}}, {agree}/{n} KKT agreement",
    )
    assert ok


def test_criterion_5_fires_on_a_wrong_corner_clamp(monkeypatch):
    # The agreement reference solves each branch at the corner on its own,
    # so a corner clamp that always takes the lower end must disagree.
    clamp = epds.projection.vstar_selector

    def lower_end(sec, pos, edot, fc1):
        if pos.label != "corner":
            return clamp(sec, pos, edot, fc1)
        return min(sec.k1 * edot, sec.k2 * edot)

    monkeypatch.setattr(epds.projection, "vstar_selector", lower_end)
    in_menu, agree = criterion_5_counts(300, seed=55)
    assert in_menu == 300 and agree < 300


def test_criterion_6_linear_growth_bound(higs):
    A_cl = np.array([[0.0, 1.0, 0.0], [-1.0, -1.0, 1.0], [-1.0, 0.0, 0.0]])
    M = float(np.linalg.svd(A_cl, compute_uv=False)[0])
    rep = growth_check(higs, M, samples=10_000, seed=6)
    kappa = max(1.0, abs(higs.sector.k1), abs(higs.sector.k2))
    ok = len(rep.violations) == 0 and rep.c_observed <= kappa + 1e-6
    report(
        6,
        "linear growth bound",
        ok,
        f"c_observed = {rep.c_observed:.6f} <= {kappa + 1e-6:.6f}, "
        f"{len(rep.violations)} precondition violations, M = {M:.4f}",
    )
    assert ok


def test_criterion_7_forward_invariance_residual_decay(higs):
    xi0 = np.array([1.0, 0.0, -0.5])
    sig = higs_benchmark_signal()
    per_run = []
    vios = []
    for h in (1e-2, 5e-3, 2.5e-3):
        t0 = time.time()
        tr = integrate(higs, xi0, sig, T=20.0, h=h)
        per_run.append(time.time() - t0)
        vios.append(tr.max_violation)
    ratios = [vios[0] / vios[1], vios[1] / vios[2]]
    ok = all(r >= 1.8 for r in ratios) and max(per_run) <= 10.0
    report(
        7,
        "forward invariance and residual decay",
        ok,
        f"max residuals {[f'{v:.2e}' for v in vios]}, ratios "
        f"{[f'{r:.2f}' for r in ratios]}, slowest run {max(per_run):.1f}s",
    )
    assert ok


def test_criterion_8_closed_form_tracking():
    plant = Plant(n=1, f_p=lambda x, u, w: np.array([1.0]), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e: np.array([2.0]))
    sys = build_closed_loop(plant, ctrl, Sector(0.0, 1.0))
    h = 1e-2
    tr = integrate(sys, np.zeros(2), InputSignal.constant(0.0), T=2.0, h=h)
    err = float(np.max(np.abs(tr.u - tr.t)))
    # corner departure is immediate: only the initial row sits at the corner
    corner_rows = sum(1 for b in tr.branch if b == "corner")
    ok = err <= 2 * h and corner_rows == 1
    report(
        8,
        "closed-form tracking benchmark",
        ok,
        f"max |u - t| = {err:.2e} <= {2 * h:.0e}, corner rows = {corner_rows}",
    )
    assert ok


def test_criterion_9_reduction_equivalence(higs):
    rng = np.random.default_rng(99)
    worst = 0.0
    n = 1_000
    for i in range(n):
        x = rng.standard_normal(2) * 2.0
        if i % 3 == 2:
            gp = higs.plant.gp
            x = x - (gp @ x) / (gp @ gp) * gp
            u = 0.0
        else:
            e = float(higs.plant.gp @ x)
            u = (higs.sector.k1 if i % 3 == 0 else higs.sector.k2) * e
        xi = np.array([x[0], x[1], u])
        r = closed_loop_rhs(higs, xi, 0.0)
        low = sector_tangent_cone(higs.sector, higs.output_pair(xi))
        lifted = lifted_tangent_cone(higs.H, low)
        w_oracle = oracle_project(lifted, higs.E, higs.unprojected_field(xi, 0.0))
        worst = max(worst, float(np.linalg.norm(r.field - w_oracle)))
    ok = worst <= 1e-6
    report(9, "2-D reduction equivalence", ok, f"{n} boundary states, worst {worst:.2e}")
    assert ok


def test_criterion_10_pc_input_segmentation(higs):
    xi0 = np.array([1.0, 0.0, -0.5])
    sig = InputSignal.steps((0.0, 0.7, 1.3, 2.9), (0.0, 2.0, -1.0, 0.5))
    direct = integrate(higs, xi0, sig, T=4.0, h=1e-2)
    t, xi, vstar, branch = euler_time_embedded(TimeEmbedded(higs, sig), xi0, T=4.0, h=1e-2)
    bitwise = (
        direct.t.tobytes() == t.tobytes()
        and direct.xi.tobytes() == xi.tobytes()
        and direct.vstar.tobytes() == vstar.tobytes()
        and direct.branch == branch
    )
    landing = all(bp in direct.t for bp in (0.7, 1.3, 2.9))
    ok = bitwise and landing
    report(
        10,
        "PC-input segmentation",
        ok,
        f"bitwise identical = {bitwise}, breakpoints landed exactly = {landing}",
    )
    assert ok
