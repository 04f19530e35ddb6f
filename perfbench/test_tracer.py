"""Self-tests of the layer tracer: exact call-count identities.

    python3 -m pytest -q perfbench/test_tracer.py

The identity tests run a small traced pass in a fresh process, as the
benchmark does.  A wrapper that misses one binding of a function reads
fewer calls than the CLI outputs imply, so these identities fail instead
of reporting zero.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


def small_plan(workload: str, tmp_path) -> dict:
    plan = workloads.make_plan(workload, 3, 1, str(tmp_path))
    if workload == "sim-scenarios":
        # The 2000-step HIGS runs add time, not coverage.
        plan["calls"] = [c for c in plan["calls"] if not c["doc"]["name"].startswith("higs")]
    elif workload == "verify-projection":
        plan["calls"][0]["argv"][2] = "6"
        plan["calls"][0]["count"] = 6
    else:
        call = plan["calls"][0]
        call["argv"][2] = "4"
        call["argv"][4] = "1"
        call["count"] = 4
    return plan


def traced_pass(workload: str, tmp_path, name: str = "pass") -> dict:
    outdir = tmp_path / name
    outdir.mkdir()
    plan = small_plan(workload, outdir)
    res = run.run_pass(plan, str(outdir), True, run.child_env(ROOT), 120)
    assert "crashed" not in res, res.get("crashed")
    assert res["problems"] == []
    return res


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_call_count_identities(workload, tmp_path):
    res = traced_pass(workload, tmp_path)
    assert run.identity_errors(workload, res) == []
    calls = {n: s["calls"] for n, s in tracer.span_stats(res["spans"]).items()}
    if workload == "sim-scenarios":
        steps = sum(o["steps"] for o in res["outputs"])
        finished = sum(not o["exploded"] for o in res["outputs"])
        assert calls["pbc.closed_loop_rhs"] == steps + finished
        assert calls["sim.drift_correct"] == steps + finished
        assert calls["oracle.oracle_project"] == 0
    elif workload == "verify-projection":
        assert calls["oracle.oracle_project"] == res["outputs"][0]["cases"] == 6
    else:
        rep = res["outputs"][0]
        assert calls["krasovskii.verify_equality"] == 2 * rep["finite_cases"] + rep["sector_cases"]


def test_counts_repeat_exactly(tmp_path):
    first, second = (traced_pass("verify-projection", tmp_path, name) for name in "ab")
    calls = [{n: s["calls"] for n, s in tracer.span_stats(r["spans"]).items()}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert first["observed"] == second["observed"]


def test_missed_binding_is_reported():
    def integrate_span(children):
        n = len(children)
        return {
            "names": ["sim.integrate", "pbc.closed_loop_rhs", "sim.drift_correct"],
            "name_id": [0] + children,
            "parent": [-1] + [0] * n,
            "start": [0.0] + [0.1 * (i + 1) for i in range(n)],
            "end": [1.0] + [0.1 * (i + 1) + 0.05 for i in range(n)],
        }

    outputs = [{"steps": 1, "exploded": False}]
    res = {"spans": integrate_span([2, 1, 2, 1]), "outputs": outputs}
    assert run.identity_errors("sim-scenarios", res) == []
    # The same run with the field evaluations not traced.
    res = {"spans": integrate_span([2, 2]), "outputs": outputs}
    errors = run.identity_errors("sim-scenarios", res)
    assert len(errors) == 1 and "closed_loop_rhs" in errors[0]


def test_self_time_subtracts_children():
    spans = {
        "names": ["outer", "inner"],
        "name_id": [0, 1, 1],
        "parent": [-1, 0, 0],
        "start": [0.0, 1.0, 3.0],
        "end": [10.0, 2.0, 5.0],
    }
    stats = tracer.span_stats(spans)
    assert stats["outer"]["self_s"] == pytest.approx(7.0)
    assert stats["inner"]["self_s"] == pytest.approx(3.0)
    assert stats["inner"]["calls"] == 2


def test_rebinds_every_module_and_skips_missing(monkeypatch, tmp_path):
    import types

    defining, importing = types.ModuleType("epds.fake"), types.ModuleType("epds.user")

    def f(x):
        return x + 1

    defining.f = importing.f = f
    monkeypatch.setitem(sys.modules, "epds.fake", defining)
    monkeypatch.setitem(sys.modules, "epds.user", importing)
    monkeypatch.setattr(tracer, "FUNCTIONS", {
        "fake.f": [("epds.fake", "f")], "fake.gone": [("epds.fake", "gone")],
    })
    monkeypatch.setattr(tracer, "METHODS", {})
    tr = tracer.Tracer()
    tr.install({})
    assert defining.f(1) == importing.f(2) - 1 == 2
    assert tr.missing == ["epds.fake.gone"]
    tr.dump(str(tmp_path / "spans.bin"), run_id="t")
    stats = tracer.span_stats(tracer.load(str(tmp_path / "spans.bin")))
    assert stats["fake.f"]["calls"] == 2
    assert stats["fake.gone"]["calls"] == 0
