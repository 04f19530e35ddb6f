import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epds import (
    Controller,
    InitialStateOutsideSet,
    InputSignal,
    Plant,
    Sector,
    StateExploded,
    TimeEmbedded,
    build_closed_loop,
    convergence_study,
    drift_correct,
    eval_input,
    integrate,
)
import epds.projection
from epds.scenario import build_runtime, scenario_from_json
from epds.sim import BLOWUP_BOUND, ConstantSegment, PolynomialSegment, RampSegment, SinusoidSegment
from conftest import euler_time_embedded, make_higs_benchmark


def zero_system():
    plant = Plant(n=1, f_p=lambda x, u, w: np.zeros(1), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e: np.zeros(1))
    return build_closed_loop(plant, ctrl, Sector(0.0, 1.0))


def tracking_system():
    plant = Plant(n=1, f_p=lambda x, u, w: np.array([1.0]), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e: np.array([2.0]))
    return build_closed_loop(plant, ctrl, Sector(0.0, 1.0))


def test_eval_input_examples():
    assert eval_input(InputSignal.constant(1.0), 5.0) == 1.0
    step = InputSignal.steps((0.0, 1.0), (0.0, 2.0))
    assert eval_input(step, 1.0) == 2.0  # right-continuity at the breakpoint
    assert eval_input(step, 0.999999) == 0.0
    ramp = InputSignal(breakpoints=(0.0,), segments=(RampSegment(0.0, 3.0),))
    assert eval_input(ramp, 1.5) == 4.5
    bounded = InputSignal(
        breakpoints=(0.0,), segments=(ConstantSegment(1.0),), end=2.0
    )
    assert eval_input(bounded, 2.0) == 1.0
    with pytest.raises(ValueError):
        eval_input(bounded, 2.5)
    with pytest.raises(ValueError):
        eval_input(step, -0.1)


def test_input_signal_validation():
    with pytest.raises(ValueError):
        InputSignal(breakpoints=(1.0,), segments=(ConstantSegment(0.0),))
    with pytest.raises(ValueError):
        InputSignal.steps((0.0, 2.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        InputSignal(breakpoints=(0.0, 1.0), segments=(ConstantSegment(0.0),))


def test_segment_forms():
    assert PolynomialSegment((1.0, 0.0, 2.0))(3.0) == 19.0
    s = SinusoidSegment(amplitude=2.0, omega=np.pi, phase=0.0, offset=1.0)
    assert s(0.5) == pytest.approx(3.0)


@given(st.floats(0, 10), st.floats(1e-6, 1.0))
@settings(max_examples=40, deadline=None)
def test_right_continuity_property(t_bp, eps):
    sig = InputSignal.steps((0.0, 1.0 + t_bp), (0.0, 5.0))
    t = 1.0 + t_bp
    assert eval_input(sig, t) == 5.0
    assert eval_input(sig, max(0.0, t - eps)) in (0.0, 5.0)


def test_zero_field_constant_trace():
    sys = zero_system()
    xi0 = np.array([1.0, 0.5])
    tr = integrate(sys, xi0, InputSignal.constant(0.0), T=1.0, h=0.1)
    assert tr.n_rows == 11
    assert np.allclose(tr.xi, xi0)
    assert tr.max_violation == 0.0
    assert not tr.drift_corrected.any()


def test_tracking_benchmark_closed_form():
    # constant edot = 1 from the origin: u rides k2 e = t; corner departure
    # is immediate (the first step already leaves the corner)
    sys = tracking_system()
    tr = integrate(sys, np.zeros(2), InputSignal.constant(0.0), T=2.0, h=0.01)
    assert np.max(np.abs(tr.u - tr.t)) <= 2 * 0.01
    assert tr.branch[0] == "corner"
    assert all(b == "K" for b in tr.branch[1:])
    assert np.all(tr.e[1:] >= 1.0 * tr.t[1:] - 2 * 0.01)  # e grows at its rate


def test_initial_state_validation(higs_system):
    with pytest.raises(InitialStateOutsideSet):
        integrate(higs_system, np.array([1.0, 0.0, 0.5]), InputSignal.constant(0.0), 1.0, 0.01)


def test_drift_correct_examples(higs_system):
    sys = make_higs_benchmark()
    # inside: unchanged
    xi = np.array([1.0, 0.0, -0.5])
    out, changed = drift_correct(sys, xi)
    assert not changed and np.array_equal(out, xi)
    # e=1, u=1.3 -> clamp u to 1 (xi1 = -1 so e = 1)
    out, changed = drift_correct(sys, np.array([-1.0, 0.0, 1.3]))
    assert changed and out[2] == pytest.approx(1.0)
    # e=-2, u=0.5 -> interval [-2, 0] clamps to 0
    out, changed = drift_correct(sys, np.array([2.0, 0.0, 0.5]))
    assert changed and out[2] == pytest.approx(0.0)
    # plant states never touched
    assert np.array_equal(out[:2], np.array([2.0, 0.0]))


def test_higs_run_budget_and_edot_consistency(higs_system):
    sys = higs_system
    xi0 = np.array([1.0, 0.0, -0.5])
    h = 5e-3
    tr = integrate(sys, xi0, InputSignal.constant(0.0), T=5.0, h=h)
    tr2 = integrate(sys, xi0, InputSignal.constant(0.0), T=5.0, h=h / 2)
    assert tr.max_violation <= 10.0 * h  # budget C*h with a generous C
    assert tr2.max_violation <= 0.55 * tr.max_violation  # first-order decay
    # recorded edot matches the forward difference of e
    de = np.diff(tr.t) * tr.edot[:-1]
    assert np.max(np.abs(np.diff(tr.e) - de)) <= 5 * h
    # strict-interior rows carry zero correction
    interior = tr.sector_residual < -1e-6
    assert np.all(tr.correction_norm[interior] == 0.0)


def test_time_embedding_bitwise_equivalence(higs_system):
    sys = higs_system
    xi0 = np.array([1.0, 0.0, -0.5])
    sig = InputSignal.steps((0.0, 0.7, 1.3), (0.0, 2.0, -1.0))
    a = integrate(sys, xi0, sig, T=2.0, h=0.01)
    t, xi, vstar, branch = euler_time_embedded(TimeEmbedded(sys, sig), xi0, T=2.0, h=0.01)
    assert a.t.tobytes() == t.tobytes()
    assert a.xi.tobytes() == xi.tobytes()
    assert a.vstar.tobytes() == vstar.tobytes()
    assert a.branch == branch
    # breakpoints are hit exactly
    for bp in (0.7, 1.3):
        assert bp in a.t


def test_time_embedded_field_last_component(higs_system):
    emb = TimeEmbedded(higs_system, InputSignal.constant(0.0))
    chi = np.array([1.0, 0.0, -0.5, 0.3])
    assert emb.contains(chi)
    f = emb.rhs(chi)
    assert f[-1] == 1.0


def test_state_exploded():
    plant = Plant(n=1, f_p=lambda x, u, w: np.array([40.0 * x[0]]), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e: np.array([40.0 * z[0]]))
    sys = build_closed_loop(plant, ctrl, Sector(0.0, 1.0))
    with pytest.raises(StateExploded) as exc:
        integrate(sys, np.array([1.0, 0.5]), InputSignal.constant(0.0), T=5.0, h=0.01)
    assert exc.value.norm > exc.value.bound == BLOWUP_BOUND


def test_convergence_study_zero_field():
    rep = convergence_study(
        zero_system(), np.array([1.0, 0.5]), InputSignal.constant(0.0), 1.0, [0.1, 0.05]
    )
    assert all(e["max_violation"] == 0.0 for e in rep.entries)
    assert rep.terminal_deltas == (0.0,)


def test_convergence_study_blowup_surfaced_per_h():
    plant = Plant(n=1, f_p=lambda x, u, w: np.array([40.0 * x[0]]), gp=np.array([1.0]))
    ctrl = Controller(m=1, f_c=lambda z, e: np.array([40.0 * z[0]]))
    sys = build_closed_loop(plant, ctrl, Sector(0.0, 1.0))
    rep = convergence_study(
        sys, np.array([1.0, 0.5]), InputSignal.constant(0.0), 5.0, [0.02, 0.01]
    )
    assert all(e["status"] == "StateExploded" for e in rep.entries)
    with pytest.raises(ValueError):
        convergence_study(sys, np.array([1.0, 0.5]), InputSignal.constant(0.0), 5.0, [0.01, 0.02])


def test_trace_csv_format(tmp_path, higs_system):
    tr = integrate(
        higs_system, np.array([1.0, 0.0, -0.5]), InputSignal.constant(0.0), T=0.1, h=0.01
    )
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "t,xi_0,xi_1,xi_2,e,u,edot,vstar,branch,correction_norm,sector_residual,drift_corrected"
    )
    assert len(lines) == tr.n_rows + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[8] in ("interior", "K", "minusK", "corner")
    # every numeric column round-trips bitwise (17 significant digits)
    cells = [line.split(",") for line in lines[1:]]
    cols = list(zip(*cells))
    numeric = {0: tr.t, 4: tr.e, 5: tr.u, 6: tr.edot, 7: tr.vstar, 9: tr.correction_norm,
               10: tr.sector_residual}
    numeric.update({1 + i: tr.xi[:, i] for i in range(3)})
    for col, want in numeric.items():
        got = np.array([float(v) for v in cols[col]])
        assert got.tobytes() == want.tobytes(), col
    assert cols[8] == tr.branch
    assert cols[11] == tuple("1" if d else "0" for d in tr.drift_corrected)


def test_simulator_stays_off_the_kkt_and_lp_paths(monkeypatch):
    # The shipped scenarios must run on the closed-form field alone: with
    # the general projection, the sector projection and the LP disabled in
    # every module that binds them, they complete unchanged.
    # tracking_benchmark starts at the corner, so the corner clamp is covered.
    root = Path(__file__).resolve().parent.parent / "scenarios"
    bundles = [
        build_runtime(scenario_from_json(json.loads((root / f"{name}.json").read_text())))
        for name in ("higs_benchmark", "tracking_benchmark")
    ]

    def run(b):
        return integrate(b.system, b.xi0, b.signal, b.horizon, b.step)

    reference = [run(b) for b in bundles]

    def forbidden(*args, **kwargs):
        raise AssertionError("the simulator reached the KKT/LP/sector projection path")

    for name in ("project_partial", "feasible", "sector_project"):
        original = getattr(epds.projection, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "epds" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)
    for b, ref in zip(bundles, reference):
        tr = run(b)
        for name in ("t", "xi", "vstar", "correction_norm", "drift_corrected"):
            assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name
        assert tr.branch == ref.branch
