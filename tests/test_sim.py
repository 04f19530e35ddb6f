import functools
import json
import math
import random
import sys
import tracemalloc
import weakref
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
import epds.sim
from epds.sim import (
    BLOWUP_BOUND,
    CSV_BLOCK_ROWS,
    TRACE_BRANCHES,
    ConstantSegment,
    PolynomialSegment,
    RampSegment,
    SinusoidSegment,
    Trace,
)
from conftest import euler_time_embedded, make_higs_benchmark, reference_integrate, reference_to_csv


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


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TRACE_ARRAYS = ("t", "xi", "e", "u", "edot", "vstar", "correction_norm", "sector_residual",
                "drift_corrected")


def _shipped(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _higs_variant(rng, k):
    """Shipped HIGS loop with plant, slope, gain, input and start redrawn."""
    doc = _shipped("higs_benchmark")
    doc["name"] = f"higs_variant_{k}"
    for key in ("mass", "stiffness", "damping"):
        doc["plant"][key] *= rng.uniform(0.5, 2.0)
    k_h = doc["controller"]["k_h"] * rng.uniform(0.5, 2.0)
    doc["controller"].update(k_h=k_h, omega_h=doc["controller"]["omega_h"] * rng.uniform(0.5, 2.0))
    doc["sector"] = {"k1": 0.0, "k2": k_h}
    seg = doc["input"]["segments"][0]
    seg.update(amplitude=seg["amplitude"] * rng.uniform(0.5, 2.0),
               omega=seg["omega"] * rng.uniform(0.5, 2.0), phase=rng.uniform(0.0, 6.3))
    x0 = [rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)]
    doc["initial_state"] = x0 + [rng.uniform(0.1, 0.9) * k_h * -x0[0]]  # gp = (-1, 0)
    return doc


def _tracking_variant(rng, k):
    """Constant rates from the corner; the controller rate may or may not be clamped."""
    doc = _shipped("tracking_benchmark")
    doc["name"] = f"tracking_variant_{k}"
    k1 = rng.uniform(-1.0, 0.5)
    doc["sector"] = {"k1": k1, "k2": k1 + rng.uniform(0.3, 2.0)}
    doc["plant"]["c"] = [rng.uniform(0.5, 2.0) * rng.choice((1.0, -1.0))]
    doc["controller"]["c"] = [rng.uniform(-4.0, 4.0)]
    return doc


def _linear_variant(rng, k):
    """Random stable linear plant and controller, with a general output row
    gp (so that the summation order of H xi shows) and up to two controller
    states (so that the field carries controller rates past z1)."""
    n, m = rng.randint(1, 3), rng.randint(1, 2)

    def stable(d):
        return [[(-rng.uniform(1.0, 2.0) if i == j else rng.uniform(-0.4, 0.4))
                 for j in range(d)] for i in range(d)]

    def vec(d, lo=-1.5, hi=1.5):
        return [rng.uniform(lo, hi) for _ in range(d)]

    gp = [rng.uniform(0.2, 3.0) * rng.choice((1.0, -1.0)) for _ in range(n)]
    k1 = rng.uniform(-1.0, 0.5)
    k2 = k1 + rng.uniform(0.3, 2.0)
    x0 = vec(n)
    e0 = sum(g * x for g, x in zip(gp, x0))
    lo, hi = sorted((k1 * e0, k2 * e0))
    return {
        "name": f"linear_variant_{k}",
        "plant": {"kind": "linear", "A": stable(n), "B": vec(n), "Bw": vec(n),
                  "c": vec(n, -0.3, 0.3), "gp": gp},
        "controller": {"kind": "linear", "A": stable(m), "B": vec(m), "c": vec(m, -0.3, 0.3)},
        "sector": {"k1": k1, "k2": k2},
        "initial_state": x0 + [lo + rng.uniform(0.1, 0.9) * (hi - lo)] + vec(m - 1),
        "input": InputSignal.steps((0.0, rng.uniform(0.5, 2.5)), vec(2)).to_json(),
        "horizon": 3.0,
        "step": 0.01,
    }


def _loop_scenarios():
    rng = random.Random(20261019)
    docs = [_shipped(name) for name in ("higs_benchmark", "tracking_benchmark", "blowup")]
    for k in range(16):
        docs += [_higs_variant(rng, k), _tracking_variant(rng, k), _linear_variant(rng, k)]
    return docs


@pytest.mark.parametrize("doc", _loop_scenarios(), ids=lambda d: d["name"])
def test_integrate_matches_reference_loop(doc, tmp_path):
    # integrate's fast path against the loop it replaced: every column,
    # the branch labels and the CSV bytes are equal, and a blow-up stops
    # at the same step with the same norm.
    b = build_runtime(scenario_from_json(doc))
    args = (b.system, b.xi0, b.signal, b.horizon, b.step)
    try:
        want = reference_integrate(*args)
    except StateExploded as exc:
        with pytest.raises(StateExploded) as got:
            integrate(*args)
        assert (got.value.t, got.value.norm, got.value.bound) == (exc.t, exc.norm, exc.bound)
        return
    assert doc["name"] != "blowup", "the blow-up scenario ran to its horizon"
    got = integrate(*args)
    for name in TRACE_ARRAYS:
        a, w = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (w.dtype, w.shape, w.tobytes()), name
    assert got.branch == want.branch
    assert got.h == want.h
    got.to_csv(tmp_path / "got.csv")
    want.to_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_reference_loop_scenarios_cover_every_branch_and_correction():
    # The equality above means something only if the drawn runs visit all
    # four branches and fire drift corrections.
    seen, corrections = set(), 0
    for doc in _loop_scenarios():
        if doc["name"] == "blowup":
            continue
        b = build_runtime(scenario_from_json(doc))
        tr = integrate(b.system, b.xi0, b.signal, b.horizon, b.step)
        seen.update(tr.branch)
        corrections += int(np.sum(tr.drift_corrected))
    assert seen == {"interior", "K", "minusK", "corner"}
    assert corrections > 0


@functools.lru_cache(maxsize=None)
def _shipped_trace(name):
    b = build_runtime(scenario_from_json(_shipped(name)))
    return integrate(b.system, b.xi0, b.signal, b.horizon, b.step)


def _head(trace, n):
    """The first n rows of a trace, as a trace."""
    assert trace.n_rows >= n
    return Trace(**{name: getattr(trace, name)[:n] for name in TRACE_ARRAYS},
                 branch=trace.branch[:n], h=trace.h)


def _special_values_trace():
    """Six rows whose float cells hold 0, -0.0, nan, +-inf and a subnormal."""
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]

    def col(shift):
        return np.array(special[shift:] + special[:shift])

    return Trace(
        t=np.array([-0.0, 5e-324, 1e-300, 1.0, 2.5, 1e300]),
        xi=np.column_stack([col(1), col(2)]), e=col(3), u=col(4), edot=col(5), vstar=col(0),
        branch=TRACE_BRANCHES + TRACE_BRANCHES[:2], correction_norm=col(1),
        sector_residual=col(2), drift_corrected=np.array([1, 0, 0, 1, 1, 0], dtype=bool), h=0.5,
    )


def _csv_cases():
    B = CSV_BLOCK_ROWS
    head = [(f"higs_head_{n}", lambda n=n: _head(_shipped_trace("higs_benchmark"), n))
            for n in (1, B - 1, B, B + 1, 2 * B + 1)]
    shipped = [(name, lambda name=name: _shipped_trace(name))
               for name in ("higs_benchmark", "tracking_benchmark")]
    return head + shipped + [("special_values", _special_values_trace)]


@pytest.mark.parametrize("make", [m for _, m in _csv_cases()], ids=[n for n, _ in _csv_cases()])
def test_block_writer_matches_reference_csv(make, tmp_path):
    # The streamed writer against the one-shot writer it replaced, on row
    # counts around the block size, the shipped traces and non-finite,
    # signed-zero and subnormal cells.
    trace = make()
    trace.to_csv(tmp_path / "got.csv")
    reference_to_csv(trace, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\n") == trace.n_rows + 1


def test_integrate_and_to_csv_memory_per_row(tmp_path):
    # Peak Python-heap bytes per row over the 20,002 rows of higs_benchmark
    # at T = 200.  The loop fills flat buffers and the writer holds one block
    # at a time, so both stay far below the per-row tuples (625 B/row) and
    # whole-file strings (952 B/row) they replaced.
    b = build_runtime(scenario_from_json(_shipped("higs_benchmark")))
    tracemalloc.start()
    try:
        trace = integrate(b.system, b.xi0, b.signal, 200.0, b.step)
        integrate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        trace.to_csv(tmp_path / "trace.csv")
        csv_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert trace.n_rows >= 20_001
    assert integrate_peak / trace.n_rows <= 256
    assert csv_peak / trace.n_rows <= 128


def test_convergence_study_drops_each_trace_before_the_next_run(monkeypatch):
    made = []

    def recording_integrate(*args):
        assert all(ref() is None for ref in made), "an earlier trace is still alive"
        trace = integrate(*args)
        made.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(epds.sim, "integrate", recording_integrate)
    b = build_runtime(scenario_from_json(_shipped("higs_benchmark")))
    rep = convergence_study(b.system, b.xi0, b.signal, 2.0, [0.02, 0.01, 0.005])
    assert len(made) == 3 and all(e["status"] == "ok" for e in rep.entries)


def test_sweep_prints_the_report_of_the_kept_traces(monkeypatch, capsys):
    # ``epds sweep`` on the shipped HIGS loop prints what the study printed
    # when it kept every trace: entries, orders and terminal deltas are
    # recomputed here from the traces themselves.
    from epds.cli import main

    traces = []

    def recording_integrate(*args):
        traces.append(integrate(*args))
        return traces[-1]

    monkeypatch.setattr(epds.sim, "integrate", recording_integrate)
    hs = [1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4]
    scenario = str(SCENARIOS / "higs_benchmark.json")
    assert main(["sweep", scenario, "--h-list", ",".join(map(str, hs))]) == 0
    entries = [{"h": h, "status": "ok", "max_violation": tr.max_violation,
                "terminal_state": [float(v) for v in tr.xi[-1]]} for h, tr in zip(hs, traces)]
    pairs = list(zip(zip(hs, traces), zip(hs[1:], traces[1:])))
    want = {
        "scenario": "higs_benchmark",
        "entries": entries,
        "observed_orders": [
            float(math.log(t1.max_violation / t2.max_violation) / math.log(h1 / h2))
            for (h1, t1), (h2, t2) in pairs
        ],
        "terminal_deltas": [float(np.linalg.norm(t1.xi[-1] - t2.xi[-1]))
                            for (_, t1), (_, t2) in pairs],
    }
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
