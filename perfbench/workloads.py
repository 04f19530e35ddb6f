"""Workload inputs, made from the workload seed with the standard library only.

A plan lists the ``epds`` CLI calls of one pass.  Pass k of a run with
seed s gets its inputs from (s, k), so a run covers a fixed sequence of
inputs and the median over its passes averages over inputs as well as over
machine noise.

- ``sim-scenarios``: the three shipped scenarios in ``scenarios/``, run
  verbatim, plus one seeded variant each of ``higs_benchmark`` and
  ``tracking_benchmark``, through ``epds run``.
- ``verify-projection``: ``epds verify-projection`` on a drawn suite seed.
- ``verify-krasovskii``: ``epds verify-krasovskii`` on a sweep seed drawn
  from ``krasovskii_pool.json`` (see make_pool.py).
"""

from __future__ import annotations

import copy
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(os.path.dirname(HERE), "scenarios")
WORKLOADS = ("sim-scenarios", "verify-projection", "verify-krasovskii")

PROJECTION_COUNT = 150


def _shipped(name: str) -> str:
    return os.path.join(SCENARIOS, name + ".json")


def _load(name: str) -> dict:
    with open(_shipped(name), encoding="utf-8") as fh:
        return json.load(fh)


def _scale(rng: random.Random) -> float:
    return rng.uniform(0.8, 1.25)


def higs_variant(rng: random.Random, base: dict, name: str) -> dict:
    """Perturbed plant, HIGS slope and gain, input and initial state.

    The initial controller output is placed strictly inside the sector,
    between 0 and k_h * e.
    """
    doc = copy.deepcopy(base)
    doc["name"] = name
    plant = doc["plant"]
    for key in ("mass", "stiffness", "damping"):
        plant[key] *= _scale(rng)
    ctrl = doc["controller"]
    ctrl["k_h"] *= _scale(rng)
    ctrl["omega_h"] *= _scale(rng)
    doc["sector"] = {"k1": 0.0, "k2": ctrl["k_h"]}
    seg = doc["input"]["segments"][0]
    seg["amplitude"] *= _scale(rng)
    seg["omega"] *= _scale(rng)
    x0 = [v * _scale(rng) for v in doc["initial_state"][:2]]
    e0 = -x0[0]  # gp = (-1, 0)
    doc["initial_state"] = x0 + [rng.uniform(0.2, 0.8) * ctrl["k_h"] * e0]
    return doc


def tracking_variant(rng: random.Random, base: dict, name: str) -> dict:
    """Constant plant rate a and controller rate b from the sector corner.

    b lies outside the admissible interval of rates, so the output rides
    one sector line: u(t) = clamp(b, k1 a, k2 a) * t in closed form.
    """
    doc = copy.deepcopy(base)
    doc["name"] = name
    a = rng.uniform(0.5, 2.0) * rng.choice((1.0, -1.0))
    k1 = rng.uniform(-0.5, 0.5)
    k2 = k1 + rng.uniform(0.5, 2.0)
    lo, hi = sorted((k1 * a, k2 * a))
    gap = rng.uniform(0.2, 2.0) * abs(a)
    b = hi + gap if rng.random() < 0.5 else lo - gap
    doc["plant"]["c"] = [a]
    doc["controller"]["c"] = [b]
    doc["sector"] = {"k1": k1, "k2": k2}
    return doc


def _write(workdir: str, doc: dict) -> str:
    path = os.path.join(workdir, doc["name"] + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def krasovskii_pool() -> dict:
    with open(os.path.join(HERE, "krasovskii_pool.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_plan(workload: str, seed: int, index: int, workdir: str) -> dict:
    """The CLI calls of pass ``index``; scenario files are written to workdir."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sim-scenarios":
        higs, tracking = _load("higs_benchmark"), _load("tracking_benchmark")
        runs = [
            ("higs_benchmark", higs, "higs_reference"),
            ("tracking_benchmark", tracking, "tracking"),
            ("blowup", _load("blowup"), "blowup"),
            ("", higs_variant(rng, higs, "higs_variant"), "finite"),
            ("", tracking_variant(rng, tracking, "tracking_variant"), "tracking"),
        ]
        calls = []
        for name, doc, check in runs:
            path = _shipped(name) if name else _write(workdir, doc)
            calls.append({"argv": ["run", path], "check": check, "doc": doc})
        return {"workload": workload, "calls": calls}
    if workload == "verify-projection":
        argv = ["verify-projection", "--count", str(PROJECTION_COUNT),
                "--seed", str(rng.randrange(2**32))]
        return {"workload": workload,
                "calls": [{"argv": argv, "check": "projection", "count": PROJECTION_COUNT}]}
    if workload == "verify-krasovskii":
        pool = krasovskii_pool()
        count, entry = pool["count"], rng.choice(pool["pool"])
        argv = ["verify-krasovskii", "--count", str(count), "--seed", str(entry["seed"])]
        return {"workload": workload,
                "calls": [{"argv": argv, "check": "krasovskii", "count": count, "hulls": entry}]}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
