import copy
import json
import os

import numpy as np
import pytest

from epds import ScenarioError, scenario_from_json
from epds.cli import main
from epds.scenario import build_runtime

HIGS_DOC = {
    "name": "higs_benchmark",
    "plant": {
        "kind": "mass_spring_damper",
        "mass": 1.0,
        "stiffness": 1.0,
        "damping": 1.0,
        "gp": [-1.0, 0.0],
    },
    "controller": {"kind": "higs", "k_h": 1.0, "omega_h": 1.0},
    "sector": {"k1": 0.0, "k2": 1.0},
    "initial_state": [1.0, 0.0, -0.5],
    "input": {
        "breakpoints": [0.0],
        "segments": [{"kind": "constant", "value": 0.0}],
        "end": None,
    },
    "horizon": 0.5,
    "step": 0.01,
    "seed": 0,
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_round_trip_value_identity():
    sc = scenario_from_json(HIGS_DOC)
    doc2 = sc.to_json()
    sc2 = scenario_from_json(doc2)
    assert sc == sc2
    assert sc2.to_json() == doc2


def test_defaults_are_normalized():
    doc = copy.deepcopy(HIGS_DOC)
    del doc["input"]
    del doc["seed"]
    del doc["sector"]  # implied by the higs preset
    sc = scenario_from_json(doc)
    assert sc.sector == (0.0, 1.0)
    assert sc.seed == 0
    assert sc.input["segments"][0] == {"kind": "constant", "value": 0.0}


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("plant"), "plant"),
        (lambda d: d["plant"].update(kind="warp_drive"), "plant.kind"),
        (lambda d: d["plant"].update(gp=[0.0, 0.0]), "plant.gp"),
        (lambda d: d["plant"].update(gp=[1.0]), "plant.gp"),
        (lambda d: d.update(sector={"k1": 1.0, "k2": 1.0}), "sector"),
        (lambda d: d.update(initial_state=[0.0, 0.0, 0.7]), "initial_state"),
        (lambda d: d.update(initial_state=[0.0, 0.0]), "initial_state"),
        (lambda d: d.update(horizon=-1.0), "horizon"),
        (lambda d: d.update(step=0.0), "step"),
        (lambda d: d.update(seed="zero"), "seed"),
        (lambda d: d["controller"].update(k_h=-2.0), "controller"),
    ],
)
def test_validation_errors_carry_field(mutate, field):
    doc = copy.deepcopy(HIGS_DOC)
    mutate(doc)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_json(doc)
    assert exc.value.field == field


def test_higs_sector_conflict_detected():
    doc = copy.deepcopy(HIGS_DOC)
    doc["sector"] = {"k1": 0.0, "k2": 2.0}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_json(doc)
    assert exc.value.field == "sector"


def test_build_runtime_roundtrips_dynamics():
    bundle = build_runtime(scenario_from_json(HIGS_DOC))
    assert bundle.system.dim == 3
    assert bundle.xi0.tolist() == [1.0, 0.0, -0.5]
    f = bundle.system.unprojected_field(np.array([1.0, 0.0, -0.5]), 0.0)
    assert np.allclose(f, [0.0, -1.5, -1.0])


def test_linear_plant_and_controller():
    doc = {
        "name": "tracking",
        "plant": {"kind": "linear", "A": [[0.0]], "B": [0.0], "c": [1.0], "gp": [1.0]},
        "controller": {"kind": "linear", "A": [[0.0]], "B": [0.0], "c": [2.0]},
        "sector": {"k1": 0.0, "k2": 1.0},
        "initial_state": [0.0, 0.0],
        "horizon": 1.0,
        "step": 0.01,
    }
    bundle = build_runtime(scenario_from_json(doc))
    f = bundle.system.unprojected_field(np.zeros(2), 0.0)
    assert np.allclose(f, [1.0, 2.0])


def test_cmd_run_success(tmp_path, capsys):
    path = write_scenario(tmp_path, HIGS_DOC)
    out = str(tmp_path / "out")
    rc = main(["run", path, "--out", out])
    assert rc == 0
    captured = json.loads(capsys.readouterr().out)
    assert captured["steps"] == 50  # T/h rows + 1
    lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 52  # header + T/h + 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary) >= {
        "max_sector_residual",
        "steps",
        "drift_corrections",
        "time_in_branch",
        "terminal_state",
    }
    assert len(summary["terminal_state"]) == 3


def test_cmd_run_validation_failure(tmp_path, capsys):
    doc = copy.deepcopy(HIGS_DOC)
    doc["initial_state"] = [0.0, 0.0, 0.7]
    path = write_scenario(tmp_path, doc)
    rc = main(["run", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "validation"
    assert err["error"]["field"] == "initial_state"


def test_cmd_run_blowup(tmp_path, capsys):
    doc = {
        "name": "blowup",
        "plant": {"kind": "linear", "A": [[40.0]], "B": [0.0], "gp": [1.0]},
        "controller": {"kind": "linear", "A": [[40.0]], "B": [0.0]},
        "sector": {"k1": 0.0, "k2": 1.0},
        "initial_state": [1.0, 0.5],
        "horizon": 5.0,
        "step": 0.01,
    }
    path = write_scenario(tmp_path, doc)
    rc = main(["run", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "state_exploded"


def test_cmd_run_override_flags(tmp_path, capsys):
    path = write_scenario(tmp_path, HIGS_DOC)
    rc = main(["run", path, "--out", str(tmp_path / "o"), "--T", "0.2", "--h", "0.02"])
    assert rc == 0
    captured = json.loads(capsys.readouterr().out)
    assert captured["steps"] == 10


def assert_throughput(out, instances):
    assert out["elapsed_s"] > 0.0
    assert out["instances_per_s"] == pytest.approx(instances / out["elapsed_s"])


def test_cmd_verify_projection_small(capsys):
    rc = main(["verify-projection", "--count", "60", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["mismatches"] == 0
    assert out["max_discrepancy"] < 1e-6
    assert_throughput(out, out["cases"] + out["sector_origin_cases"])


def test_cmd_verify_projection_deterministic(capsys):
    # Everything but the wall-clock timing repeats exactly.
    main(["verify-projection", "--count", "40", "--seed", "9"])
    first = json.loads(capsys.readouterr().out)
    main(["verify-projection", "--count", "40", "--seed", "9"])
    second = json.loads(capsys.readouterr().out)
    for report in (first, second):
        for key in ("elapsed_s", "instances_per_s"):
            del report[key]
    assert first == second


def test_cmd_verify_krasovskii_small(capsys):
    rc = main(["verify-krasovskii", "--count", "40", "--seed", "4"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["finite_cases"] == 40
    assert out["finite_failures"] == 0
    assert out["sector_pattern_mismatches"] == 0
    assert_throughput(out, out["finite_cases"] + out["sector_cases"])


def test_cmd_verify_krasovskii_short_sweep_fails(monkeypatch, capsys):
    # Every draw is infeasible (e1 >= 0 at the origin, f = -e1, corrections
    # along e2 only), so the sweep hits its attempt cap with no finite case.
    import epds.verify
    from epds import ConstraintSet, ProjectionSubspace, affine_constraint

    half = ConstraintSet(2, (affine_constraint([1.0, 0.0], 0.0),))
    E = ProjectionSubspace.from_columns([[0.0, 1.0]])

    def infeasible_instance(rng):
        return half, np.zeros(2), E, np.array([-1.0, 0.0])

    monkeypatch.setattr(epds.verify, "random_boundary_instance", infeasible_instance)
    rc = main(["verify-krasovskii", "--count", "3", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert out["finite_cases"] == 0
    assert out["finite_failures"] == out["grid_disagreements"] == 0
    assert out["sector_pattern_mismatches"] == 0
    assert rc == 1


def test_cmd_sweep(tmp_path, capsys):
    doc = copy.deepcopy(HIGS_DOC)
    doc["horizon"] = 1.0
    path = write_scenario(tmp_path, doc)
    report_path = str(tmp_path / "sweep.json")
    rc = main(["sweep", path, "--h-list", "0.02,0.01", "--out", report_path])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert [e["h"] for e in out["entries"]] == [0.02, 0.01]
    assert os.path.exists(report_path)
    rc = main(["sweep", path, "--h-list", "0.01,0.02"])
    assert rc == 1


def test_cmd_run_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not valid json")
    rc = main(["run", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "line 1" in err["error"]["message"]


def test_shipped_scenarios_parse():
    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    for name in os.listdir(root):
        with open(os.path.join(root, name)) as fh:
            scenario_from_json(json.load(fh))


def test_double_integrator_builtin():
    doc = {
        "name": "di",
        "plant": {"kind": "double_integrator", "gp": [-1.0, 0.0]},
        "controller": {"kind": "higs", "k_h": 1.0, "omega_h": 1.0},
        "initial_state": [1.0, 0.0, -0.5],
        "horizon": 1.0,
        "step": 0.01,
    }
    bundle = build_runtime(scenario_from_json(doc))
    f = bundle.system.unprojected_field(np.array([1.0, 2.0, -0.5]), 0.3)
    assert np.allclose(f, [2.0, -0.2, -1.0])  # (x2, u + w, omega*e)


def test_epds_log_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EPDS_LOG", "debug")
    assert main(["verify-projection", "--count", "5", "--seed", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("EPDS_LOG", "bogus")  # falls back to error, still runs
    assert main(["verify-projection", "--count", "5", "--seed", "1"]) == 0


def test_no_stray_temp_files_after_run(tmp_path):
    path = write_scenario(tmp_path, HIGS_DOC)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    leftovers = [f for f in os.listdir(out) if f.startswith(".epds-")]
    assert leftovers == []
    assert sorted(os.listdir(out)) == ["summary.json", "trace.csv"]
