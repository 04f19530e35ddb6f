"""Command-line entry point: run scenarios, verification suites, sweeps.

Exit codes: 0 success, 1 validation failure, 2 state blow-up.  Validation
and blow-up errors also emit a machine-readable JSON object on stderr so CI
can gate on the suites.  Output files are written atomically (temp file
plus rename).  Set EPDS_LOG to error, info or debug to control logging.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import tempfile

from .errors import EpdsError, ScenarioError, StateExploded
from .scenario import build_runtime, scenario_from_json
from .sim import convergence_study, integrate
from .verify import verify_krasovskii, verify_projection

log = logging.getLogger("epds")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_EXPLODED = 2


def _configure_logging() -> None:
    level = os.environ.get("EPDS_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(message)s")
    if level not in levels:
        log.error("unknown EPDS_LOG value %r (use error|info|debug)", level)


def _atomic_write(path: str, write) -> None:
    """Have ``write`` fill a temp file beside ``path``, then rename it to
    ``path``.  If anything fails, the temp file is removed and the error
    propagates."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".epds-", suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _error_json(kind: str, **extra) -> None:
    print(json.dumps({"error": {"kind": kind, **extra}}), file=sys.stderr)


def _load_scenario(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError("<file>", f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "<file>", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    return scenario_from_json(doc)


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except ScenarioError as exc:
        _error_json("validation", field=exc.field, message=exc.message)
        return EXIT_VALIDATION
    bundle = build_runtime(scenario)
    T = args.T if args.T is not None else bundle.horizon
    h = args.h if args.h is not None else bundle.step
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    summary_path = os.path.join(args.out, "summary.json")
    log.info("running scenario %s for T=%g at h=%g", scenario.name, T, h)
    try:
        trace = integrate(bundle.system, bundle.xi0, bundle.signal, T, h)
    except StateExploded as exc:
        _error_json("state_exploded", t=exc.t, norm=exc.norm, bound=exc.bound)
        return EXIT_EXPLODED
    except EpdsError as exc:
        _error_json("validation", field="initial_state", message=str(exc))
        return EXIT_VALIDATION
    _atomic_write(trace_path, trace.to_csv)
    summary = {"scenario": scenario.name, "h": h, "horizon": T, **trace.summary()}
    _atomic_write_json(summary_path, summary)
    print(json.dumps(summary))
    return EXIT_OK


def cmd_verify_projection(args) -> int:
    report = verify_projection(count=args.count, seed=args.seed, max_dim=args.max_dim)
    print(json.dumps(report, indent=2))
    clean = (
        report["mismatches"] == 0
        and report["singleton_violations"] == 0
        and report["branch_contradictions"] == 0
    )
    return EXIT_OK if clean else EXIT_VALIDATION


def cmd_verify_krasovskii(args) -> int:
    report = verify_krasovskii(count=args.count, seed=args.seed)
    print(json.dumps(report, indent=2))
    clean = (
        report["finite_cases"] == args.count
        and report["finite_failures"] == 0
        and report["grid_disagreements"] == 0
        and report["missing_vertices"] == 0
        and report["sector_pattern_mismatches"] == 0
    )
    return EXIT_OK if clean else EXIT_VALIDATION


def cmd_sweep(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except ScenarioError as exc:
        _error_json("validation", field=exc.field, message=exc.message)
        return EXIT_VALIDATION
    try:
        h_list = [float(tok) for tok in args.h_list.split(",") if tok]
    except ValueError:
        _error_json("validation", field="--h-list", message="expected comma-separated numbers")
        return EXIT_VALIDATION
    bundle = build_runtime(scenario)
    try:
        report = convergence_study(
            bundle.system, bundle.xi0, bundle.signal, bundle.horizon, h_list
        )
    except ValueError as exc:
        _error_json("validation", field="--h-list", message=str(exc))
        return EXIT_VALIDATION
    payload = {"scenario": scenario.name, **report.to_json()}
    print(json.dumps(payload, indent=2))
    if args.out:
        _atomic_write_json(args.out, payload)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by ``main``."""
    parser = argparse.ArgumentParser(
        prog="epds",
        description="Partially projected dynamical systems: simulate and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and write trace + summary")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--h", type=float, default=None, help="override step size")
    p_run.add_argument("--T", type=float, default=None, help="override horizon")

    p_vp = sub.add_parser("verify-projection", help="solver-versus-oracle random suite")
    p_vp.add_argument("--count", type=int, default=10_000)
    p_vp.add_argument("--seed", type=int, default=0)
    p_vp.add_argument("--max-dim", type=int, default=6)

    p_vk = sub.add_parser("verify-krasovskii", help="hull equality / failure pattern sweep")
    p_vk.add_argument("--count", type=int, default=1_000)
    p_vk.add_argument("--seed", type=int, default=0)

    p_sw = sub.add_parser("sweep", help="convergence study over step sizes")
    p_sw.add_argument("scenario", help="scenario JSON file")
    p_sw.add_argument("--h-list", required=True, help="comma-separated decreasing steps")
    p_sw.add_argument("--out", default=None, help="optional report JSON path")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    # Looked up per call, not stored in the cached parser, so that a later
    # rebinding of a cmd_* function (as span tracing does) takes effect.
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
