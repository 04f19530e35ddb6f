import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epds import (
    Controller,
    DegenerateSector,
    NotInSet,
    Plant,
    Sector,
    StateExploded,
    ZeroOutputRow,
    build_closed_loop,
    closed_loop_rhs,
    drift_correct,
    feasible,
    growth_check,
    higs_preset,
    integrate,
    lifted_tangent_cone,
    oracle_project,
    project_partial,
    sector_project,
    sector_subspace,
    sector_tangent_cone,
)
from epds.geometry import EPS_MEM
from epds.scenario import build_runtime, scenario_from_json
from conftest import make_higs_benchmark


def double_integrator():
    return Plant(n=2, f_p=lambda x, u, w: np.array([x[1], u + w]), gp=np.array([-1.0, 0.0]))


def one_state_integrator(omega=1.0):
    return Controller(m=1, f_c=lambda z, e: np.array([omega * e]))


def test_build_assembles_h_and_e():
    sys = build_closed_loop(double_integrator(), one_state_integrator(), Sector(0.0, 1.0))
    assert np.allclose(sys.H, [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(sys.E.basis, [[0.0], [0.0], [1.0]])
    xi = np.array([2.0, -1.0, 0.5])
    assert np.allclose(sys.output_pair(xi), [-2.0, 0.5])
    # lifted membership is sector membership of H xi
    assert sys.in_set(np.array([-2.0, 0.0, 1.0]))
    assert not sys.in_set(np.array([-2.0, 0.0, 3.0]))


def test_build_error_cases():
    with pytest.raises(ZeroOutputRow):
        Plant(n=2, f_p=lambda x, u, w: np.zeros(2), gp=np.array([0.0, 0.0]))
    with pytest.raises(DegenerateSector):
        build_closed_loop(double_integrator(), one_state_integrator(), (1.0, 1.0))
    with pytest.raises(ValueError):
        Controller(m=0, f_c=lambda z, e: np.zeros(0))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", range(-14, 15))
def test_rank_check_matches_the_svd_verdict(k, n):
    # H = [gp 0; 0 e1] with |gp| = 10^k: the closed-form test decides as the
    # SVD test it replaced, on both sides of 1e-12 and of 1e12.
    gp = np.zeros(n)
    gp[0] = 10.0**k
    H = np.zeros((2, n + 1))
    H[0, :n] = gp
    H[1, n] = 1.0
    sv = np.linalg.svd(H, compute_uv=False)
    plant = Plant(n=n, f_p=lambda x, u, w: np.zeros(n), gp=gp)
    if sv[-1] <= 1e-12 * sv[0]:
        assert abs(k) >= 12
        with pytest.raises(ZeroOutputRow, match="output map H lost full row rank"):
            build_closed_loop(plant, one_state_integrator(), Sector(0.0, 1.0))
    else:
        assert abs(k) < 12
        sys = build_closed_loop(plant, one_state_integrator(), Sector(0.0, 1.0))
        assert sys.H.tobytes() == H.tobytes()


def test_build_and_run_take_no_lapack_call(monkeypatch):
    # Parsing, building and integrating the shipped scenarios must not reach
    # LAPACK: the rank test is closed-form, and E is built only on use.
    def forbidden(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for name in ("svd", "qr", "solve", "lstsq", "inv", "pinv", "eig", "eigh", "det"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    root = Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("higs_benchmark", "tracking_benchmark", "blowup"):
        b = build_runtime(scenario_from_json(json.loads((root / f"{name}.json").read_text())))
        try:
            integrate(b.system, b.xi0, b.signal, b.horizon, b.step)
        except StateExploded:
            assert name == "blowup"
        else:
            assert name != "blowup"


def test_rhs_interior_unprojected(higs_system):
    xi = np.array([1.0, 0.0, -0.5])  # (e, u) = (-1, -0.5), strict interior
    r = closed_loop_rhs(higs_system, xi, 0.0)
    assert r.branch == "interior"
    assert r.correction_norm == 0.0
    assert np.allclose(r.field, higs_system.unprojected_field(xi, 0.0))


def test_rhs_boundary_example(higs_system):
    # e = 1, u = 1 on the upper line; edot = -x2 = 0, fc1 = e = 1 -> vstar = 0
    xi = np.array([-1.0, 0.0, 1.0])
    r = closed_loop_rhs(higs_system, xi, 0.0)
    assert r.edot == 0.0
    assert r.vstar == pytest.approx(0.0, abs=1e-12)
    assert r.branch == "K"
    # x components unchanged
    assert np.allclose(r.field[:2], higs_system.unprojected_field(xi, 0.0)[:2])


def test_rhs_corner_zero_edot(higs_system):
    # (e, u) = (0, 0) and edot = 0 with fc1 = 0.5 via a doctored controller
    ctrl = Controller(m=1, f_c=lambda z, e: np.array([0.5]))
    sys = build_closed_loop(higs_system.plant, ctrl, higs_system.sector)
    xi = np.array([0.0, 0.0, 0.0])
    r = closed_loop_rhs(sys, xi, 0.0)
    assert r.edot == 0.0
    assert r.vstar == pytest.approx(0.0, abs=1e-12)
    assert r.branch == "corner"


def test_rhs_requires_membership(higs_system):
    with pytest.raises(NotInSet):
        closed_loop_rhs(higs_system, np.array([1.0, 0.0, 0.5]), 0.0)  # e=-1, u=0.5


def test_higs_preset():
    ctrl, sec = higs_preset(2.0, 5.0)
    assert (sec.k1, sec.k2) == (0.0, 2.0)
    assert np.allclose(ctrl.f_c(np.array([0.3]), 1.5), [7.5])
    with pytest.raises(ValueError):
        higs_preset(0.0, 1.0)
    with pytest.raises(ValueError):
        higs_preset(1.0, -1.0)


def test_projection_locality_and_edot_preservation(rng, higs_system):
    sys = make_higs_benchmark()
    for _ in range(200):
        x = rng.standard_normal(2) * 2
        e = float(sys.plant.gp @ x)
        u = float(rng.uniform(min(0.0, e), max(0.0, e)))
        xi = np.array([x[0], x[1], u])
        w = float(rng.standard_normal())
        r = closed_loop_rhs(sys, xi, w)
        f = sys.unprojected_field(xi, w)
        # first n components pass through exactly; e-dynamics untouched
        assert np.array_equal(r.field[:2], f[:2])
        assert float(sys.plant.gp @ r.field[:2]) == r.edot


def test_reduction_matches_lifted_oracle(rng, higs_system):
    sys = higs_system
    worst = 0.0
    for i in range(60):
        x = rng.standard_normal(2) * 2
        if i % 3 == 2:
            gp = sys.plant.gp
            x = x - (gp @ x) / (gp @ gp) * gp
            u = 0.0
        else:
            e = float(sys.plant.gp @ x)
            u = (sys.sector.k1 if i % 3 == 0 else sys.sector.k2) * e
        xi = np.array([x[0], x[1], u])
        r = closed_loop_rhs(sys, xi, 0.0)
        low = sector_tangent_cone(sys.sector, sys.output_pair(xi))
        lifted = lifted_tangent_cone(sys.H, low)
        w_oracle = oracle_project(lifted, sys.E, sys.unprojected_field(xi, 0.0))
        worst = max(worst, float(np.linalg.norm(r.field - w_oracle)))
    assert worst <= 1e-6


def test_growth_check_zero_field():
    plant = Plant(n=1, f_p=lambda x, u, w: np.zeros(1), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e: np.zeros(1))
    sys = build_closed_loop(plant, ctrl, Sector(0.0, 1.0))
    rep = growth_check(sys, M=1.0, samples=500, seed=1)
    assert rep.c_observed == 0.0
    assert rep.m_prime_observed == 0.0
    assert not rep.violations


def test_growth_check_superlinear_negative_control():
    plant = Plant(
        n=1, f_p=lambda x, u, w: np.array([np.dot(x, x)]), gp=np.array([1.0])
    )
    ctrl = Controller(m=1, f_c=lambda z, e: np.zeros(1))
    sys = build_closed_loop(plant, ctrl, Sector(0.0, 1.0))
    rep = growth_check(sys, M=0.5, samples=300, seed=1)
    assert len(rep.violations) > 0
    assert rep.violations[0]["f_norm"] > rep.violations[0]["bound"]


@given(
    k1=st.floats(-3.0, 3.0),
    width=st.floats(1e-3, 4.0),
    log_e=st.floats(-6.0, 4.0),
    negative=st.booleans(),
    place=st.sampled_from(["lower", "upper", "near_lower", "near_upper", "inside", "origin"]),
    frac=st.floats(-2.0, 2.0),
    edot=st.floats(-1e3, 1e3),
    fc1=st.floats(-1e3, 1e3),
)
# A violation of 1.86e-9 on the upper line: the reference must correct it
# to v* = k2 * edot like the clamp, not return v uncorrected.
@example(k1=0.0, width=0.03125, log_e=0.0, negative=True, place="upper", frac=0.0, edot=5.96e-8, fc1=0.0)
# At this scale a wrong-signed multiplier of -4e-11 used to pass the KKT
# sign test, so the lower line's support won over the optimum v* = 0.
@example(k1=-1.0, width=1.0, log_e=0.0, negative=False, place="origin", frac=0.0, edot=1e-11, fc1=1e-11)
# Near the origin of a thin sector a point on a line is labelled corner, where
# the tangent cone is the union that project_partial does not take.
@example(k1=0.0, width=0.001, log_e=-6.0, negative=False, place="lower", frac=0.0, edot=0.0, fc1=0.0)
@settings(max_examples=400, deadline=None)
def test_closed_form_rhs_matches_kkt_projection(k1, width, log_e, negative, place, frac, edot, fc1):
    # Fast path (closed_loop_rhs) against the reference (the KKT systems of
    # the sector tangent cone off the corner; at the corner, those of one
    # branch cone) through a 1-state plant x' = edot, e = x, and a 1-state
    # controller z' = fc1, u = z.
    sec = Sector(k1, k1 + width)
    e = (-1.0 if negative else 1.0) * 10.0**log_e
    slope = {"lower": sec.k1, "near_lower": sec.k1, "upper": sec.k2, "near_upper": sec.k2}
    if place == "origin":
        e = u = 0.0
    elif place == "inside":
        u = (sec.k1 + (0.05 + 0.9 * abs(frac) / 2.0) * width) * e
    else:
        u = slope[place] * e
        if place.startswith("near"):
            tol = EPS_MEM * (1.0 + np.hypot(e, u)) * (1.0 + max(abs(sec.k1), abs(sec.k2)))
            u += frac * tol
    plant = Plant(n=1, f_p=lambda x, u_, w: np.array([edot]), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e_: np.array([fc1]))
    sys = build_closed_loop(plant, ctrl, sec)
    if not sec.contains((e, u)):
        with pytest.raises(NotInSet):
            closed_loop_rhs(sys, np.array([e, u]))
        with pytest.raises(NotInSet):
            sector_project(sec, (e, u), (edot, fc1))
        return
    fast = closed_loop_rhs(sys, np.array([e, u]))
    if sec.classify(e, u).label == "corner":
        # The tangent cone is the non-convex union K u -K (at the origin, or
        # near it on a thin sector), so the reference solves the KKT systems
        # of the branch cone that admits edot.  In exact arithmetic that is
        # the one branch `feasible` admits (both at edot = 0); below its
        # tolerance `feasible` admits the other branch too, whose KKT solve
        # may then raise DegenerateKKT.
        branch = sec.cone_k() if edot >= 0.0 else sec.cone_minus_k()
        assert feasible(branch, sector_subspace(), (edot, fc1))
        ref = project_partial(branch, sector_subspace(), (edot, fc1))
    else:
        ref = project_partial(sector_tangent_cone(sec, (e, u)), sector_subspace(), (edot, fc1))
    tol = 1e-12 * (1.0 + abs(fc1) + max(abs(sec.k1), abs(sec.k2)) * abs(edot))
    assert abs(fast.vstar - float(ref.w[1])) <= tol
    assert abs(fast.correction_norm - ref.correction_norm) <= tol
    assert fast.field[0] == edot and fast.field[1] == fast.vstar


@pytest.mark.parametrize(
    "xi, branch",
    [
        ([1.0, 0.0, -0.5], "interior"),  # (e, u) = (-1, -0.5)
        ([-1.0, 0.0, 1.0], "K"),  # (1, 1), on u = k2 e
        ([1.0, 0.0, -1.0], "minusK"),  # (-1, -1), on u = k2 e
        ([0.0, 0.3, 0.0], "corner"),
    ],
)
def test_rhs_field_is_read_only_and_the_state_untouched(higs_system, xi, branch):
    xi = np.array(xi)
    before = xi.tobytes()
    r = closed_loop_rhs(higs_system, xi, 0.7)
    assert r.branch == branch
    assert not r.field.flags.writeable
    with pytest.raises(ValueError):
        r.field[0] = 1.0
    assert xi.tobytes() == before


@given(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3), st.floats(-5.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_drift_correct_and_rhs_never_write_the_callers_state(coords, w):
    # The state is passed without a copy, so neither function may write it;
    # a correction is returned as a new array.
    sys = make_higs_benchmark()
    xi = np.array(coords)
    before = xi.tobytes()
    out, fired = drift_correct(sys, xi)
    assert xi.tobytes() == before
    if fired:
        assert not np.shares_memory(out, xi)
    corrected = out.tobytes()
    closed_loop_rhs(sys, out, w)
    assert out.tobytes() == corrected
    assert xi.tobytes() == before
