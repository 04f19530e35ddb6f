"""Scenario documents: JSON descriptions of runnable closed-loop setups.

A scenario names a plant, a controller, a sector, an initial state, an
input signal and the integration horizon/step.  Plant and controller
dynamics come from a registry of named builtin models (linear state space
with matrices in the JSON, double integrator, mass-spring-damper, and the
hybrid-integrator preset); user-code dynamics are API-only and not
serializable.  Validation errors carry the dotted field path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DegenerateSector, ScenarioError, ZeroOutputRow
from .geometry import Sector
from .pbc import ClosedLoopSystem, Controller, Plant, build_closed_loop, higs_preset
from .sim import InputSignal


def _need(doc: dict, key: str, field: str) -> Any:
    if key not in doc:
        raise ScenarioError(field, "missing required entry")
    return doc[key]


def _as_float(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(field, f"expected a number, got {value!r}") from None


def _as_matrix(value, field: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(field, "expected a numeric matrix") from None
    if arr.ndim != 2:
        raise ScenarioError(field, "expected a matrix (list of rows)")
    return arr


def _as_vec(value, field: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise ScenarioError(field, "expected a numeric vector") from None
    return arr


# ---------------------------------------------------------------------------
# builtin plant / controller registry
# ---------------------------------------------------------------------------


def _plant_linear(spec: dict) -> Plant:
    A = _as_matrix(_need(spec, "A", "plant.A"), "plant.A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ScenarioError("plant.A", "A must be square")
    B = _as_vec(_need(spec, "B", "plant.B"), "plant.B")
    Bw = _as_vec(spec.get("Bw", np.zeros(n)), "plant.Bw")
    c = _as_vec(spec.get("c", np.zeros(n)), "plant.c")
    gp = _as_vec(_need(spec, "gp", "plant.gp"), "plant.gp")
    for name, v in (("plant.B", B), ("plant.Bw", Bw), ("plant.c", c), ("plant.gp", gp)):
        if v.shape[0] != n:
            raise ScenarioError(name, f"expected length {n}, got {v.shape[0]}")

    def f_p(x, u, w, A=A, B=B, Bw=Bw, c=c):
        return A @ x + B * u + Bw * w + c

    return Plant(n=n, f_p=f_p, gp=gp)


def _plant_double_integrator(spec: dict) -> Plant:
    gp = _as_vec(_need(spec, "gp", "plant.gp"), "plant.gp")
    if gp.shape[0] != 2:
        raise ScenarioError("plant.gp", "double integrator has 2 states")

    def f_p(x, u, w):
        return np.array([x[1], u + w])

    return Plant(n=2, f_p=f_p, gp=gp)


def _plant_mass_spring_damper(spec: dict) -> Plant:
    mass = _as_float(spec.get("mass", 1.0), "plant.mass")
    stiffness = _as_float(spec.get("stiffness", 1.0), "plant.stiffness")
    damping = _as_float(spec.get("damping", 1.0), "plant.damping")
    if mass <= 0:
        raise ScenarioError("plant.mass", "mass must be positive")
    gp = _as_vec(_need(spec, "gp", "plant.gp"), "plant.gp")
    if gp.shape[0] != 2:
        raise ScenarioError("plant.gp", "mass-spring-damper has 2 states")

    def f_p(x, u, w, m=mass, k=stiffness, c=damping):
        x0, x1 = x.tolist()  # the same arithmetic as on numpy scalars, faster
        return np.array([x1, (-k * x0 - c * x1 + u + w) / m])

    return Plant(n=2, f_p=f_p, gp=gp)


PLANT_BUILDERS = {
    "linear": _plant_linear,
    "double_integrator": _plant_double_integrator,
    "mass_spring_damper": _plant_mass_spring_damper,
}


def _controller_linear(spec: dict) -> tuple[Controller, Sector | None]:
    A = _as_matrix(_need(spec, "A", "controller.A"), "controller.A")
    m = A.shape[0]
    if A.shape[1] != m:
        raise ScenarioError("controller.A", "A must be square")
    B = _as_vec(_need(spec, "B", "controller.B"), "controller.B")
    c = _as_vec(spec.get("c", np.zeros(m)), "controller.c")
    for name, v in (("controller.B", B), ("controller.c", c)):
        if v.shape[0] != m:
            raise ScenarioError(name, f"expected length {m}, got {v.shape[0]}")

    def f_c(z, e, A=A, B=B, c=c):
        return A @ z + B * e + c

    return Controller(m=m, f_c=f_c), None


def _controller_higs(spec: dict) -> tuple[Controller, Sector | None]:
    k_h = _as_float(_need(spec, "k_h", "controller.k_h"), "controller.k_h")
    omega_h = _as_float(_need(spec, "omega_h", "controller.omega_h"), "controller.omega_h")
    try:
        return higs_preset(k_h, omega_h)
    except ValueError as exc:
        raise ScenarioError("controller", str(exc)) from None


CONTROLLER_BUILDERS = {
    "linear": _controller_linear,
    "higs": _controller_higs,
}


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Normalized scenario; ``to_json`` returns the canonical document."""

    name: str
    plant: dict
    controller: dict
    sector: tuple[float, float]
    initial_state: tuple[float, ...]
    input: dict
    horizon: float
    step: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "plant": dict(self.plant),
            "controller": dict(self.controller),
            "sector": {"k1": self.sector[0], "k2": self.sector[1]},
            "initial_state": list(self.initial_state),
            "input": dict(self.input),
            "horizon": self.horizon,
            "step": self.step,
        }


@dataclass(frozen=True)
class RuntimeBundle:
    system: ClosedLoopSystem
    signal: InputSignal
    xi0: np.ndarray
    horizon: float
    step: float


def scenario_from_json(doc: dict) -> Scenario:
    """Parse and validate a scenario document into its normalized form."""
    if not isinstance(doc, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    name = str(doc.get("name", "unnamed"))

    plant_spec = _need(doc, "plant", "plant")
    if not isinstance(plant_spec, dict) or "kind" not in plant_spec:
        raise ScenarioError("plant", "expected an object with a 'kind'")
    if plant_spec["kind"] not in PLANT_BUILDERS:
        raise ScenarioError("plant.kind", f"unknown plant kind {plant_spec['kind']!r}")

    ctrl_spec = _need(doc, "controller", "controller")
    if not isinstance(ctrl_spec, dict) or "kind" not in ctrl_spec:
        raise ScenarioError("controller", "expected an object with a 'kind'")
    if ctrl_spec["kind"] not in CONTROLLER_BUILDERS:
        raise ScenarioError(
            "controller.kind", f"unknown controller kind {ctrl_spec['kind']!r}"
        )

    # Build once during validation so dimension errors surface with fields.
    try:
        plant = PLANT_BUILDERS[plant_spec["kind"]](plant_spec)
    except ZeroOutputRow as exc:
        raise ScenarioError("plant.gp", str(exc)) from None
    controller, preset_sector = CONTROLLER_BUILDERS[ctrl_spec["kind"]](ctrl_spec)

    sector_doc = doc.get("sector")
    if sector_doc is None:
        if preset_sector is None:
            raise ScenarioError("sector", "missing (only the higs preset implies one)")
        k1, k2 = preset_sector.k1, preset_sector.k2
    else:
        k1 = _as_float(_need(sector_doc, "k1", "sector.k1"), "sector.k1")
        k2 = _as_float(_need(sector_doc, "k2", "sector.k2"), "sector.k2")
        if preset_sector is not None and (k1, k2) != (preset_sector.k1, preset_sector.k2):
            raise ScenarioError("sector", "conflicts with the higs preset's sector")
    try:
        Sector(k1, k2)
    except DegenerateSector as exc:
        raise ScenarioError("sector", str(exc)) from None

    xi0 = _as_vec(_need(doc, "initial_state", "initial_state"), "initial_state")
    if xi0.shape[0] != plant.n + controller.m:
        raise ScenarioError(
            "initial_state",
            f"expected length {plant.n + controller.m}, got {xi0.shape[0]}",
        )

    input_doc = doc.get("input")
    if input_doc is None:
        signal = InputSignal.constant(0.0)
    else:
        try:
            signal = InputSignal.from_json(input_doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise ScenarioError("input", str(exc)) from None

    horizon = _as_float(_need(doc, "horizon", "horizon"), "horizon")
    if horizon <= 0:
        raise ScenarioError("horizon", "must be positive")
    step = _as_float(doc.get("step", 1e-3), "step")
    if step <= 0:
        raise ScenarioError("step", "must be positive")
    if signal.end is not None and horizon > signal.end:
        raise ScenarioError("horizon", "exceeds the input signal's domain")

    # Membership of the initial state in the lifted set.
    try:
        sys = build_closed_loop(plant, controller, Sector(k1, k2))
    except (ZeroOutputRow, DegenerateSector) as exc:
        raise ScenarioError("plant.gp", str(exc)) from None
    if not sys.in_set(xi0):
        eu = sys.output_pair(xi0)
        raise ScenarioError(
            "initial_state", f"output pair {eu.tolist()} is outside the sector"
        )

    return Scenario(
        name=name,
        plant=dict(plant_spec),
        controller=dict(ctrl_spec),
        sector=(k1, k2),
        initial_state=tuple(float(v) for v in xi0),
        input=signal.to_json(),
        horizon=horizon,
        step=step,
    )


def build_runtime(scenario: Scenario) -> RuntimeBundle:
    """Instantiate the system, signal and initial state of a scenario."""
    plant = PLANT_BUILDERS[scenario.plant["kind"]](scenario.plant)
    controller, _ = CONTROLLER_BUILDERS[scenario.controller["kind"]](scenario.controller)
    sys = build_closed_loop(plant, controller, Sector(*scenario.sector))
    signal = InputSignal.from_json(scenario.input)
    return RuntimeBundle(
        system=sys,
        signal=signal,
        xi0=np.array(scenario.initial_state),
        horizon=scenario.horizon,
        step=scenario.step,
    )
