"""Benchmark of the epds CLI: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sim-scenarios --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats passes of the workload, each in a fresh process (cold caches,
as for a CLI user), until ``--seconds`` have gone by.  Pass k takes its
inputs from the seed and k (see workloads.py).  With ``--trace 0`` every
pass is untraced and the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, each traced pass on
the inputs of the untraced pass before it, and the line carries the
per-layer metrics.  The first traced pass thus always sees the inputs of
k = 0, and its call counts repeat exactly for a given seed.  Every pass
checks its outputs; a failed check makes the run exit 1.  So does a traced
function or cache the package no longer has: the layers that read it
would otherwise report 0.

End-to-end metrics (medians over the passes of a run):
- setup_s: importing epds (numpy and scipy included) and, for
  sim-scenarios, parsing the scenarios and building their runtimes.
- wall_s: wall time of one untraced pass.
- work_per_s: Euler steps (sim-scenarios) or accepted verify instances
  (regular plus sector cases) per second of a pass.
- peak_rss_mb: peak resident set size of a pass process.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# A run, build included, must end within 180 s; a pass that hangs is killed.
RUN_LIMIT_S = 170.0
PASS_TIMEOUT_S = 150.0
# Span name -> statistics reported for it.
LAYER_STATS = {
    "pbc.closed_loop_rhs": ("calls", "self_s", "p50_us", "p99_us"),
    "geometry.sector_predicate": ("calls", "self_s"),
    "geometry.sector_tangent_cone": ("calls", "self_s"),
    "geometry.tangent_cone": ("self_s",),
    "geometry.check_cq": ("self_s",),
    "projection.sector_project": ("calls", "self_s"),
    "projection.project_partial": ("calls", "self_s", "p50_us", "p99_us"),
    "projection.feasible": ("calls", "self_s"),
    "oracle.oracle_project": ("calls", "self_s", "p50_ms", "p99_ms"),
    "krasovskii.verify_equality": ("calls", "self_s", "p50_ms", "p99_ms"),
    "krasovskii.krasovskii_vertices": ("self_s",),
    "krasovskii.sector_krasovskii_vertices": ("self_s",),
    "sim.integrate": ("self_s",),
    "sim.drift_correct": ("calls", "self_s"),
    "sim.to_csv": ("self_s",),
    "scenario.build": ("self_s",),
    "cli.run": ("self_s",),
    "verify.well_posed_instance": ("calls", "self_s"),
    tracer.ROOT: ("self_s",),
}
BRANCHES = ("interior", "K", "minusK", "corner")
SHAPES = [(n, k) for n in range(2, 7) for k in range(1, min(3, n) + 1)]
HULL_SIZES = range(1, 9)


def layer_metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    unit = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
            "p50_ms": "ms", "p99_ms": "ms"}
    out = {f"{name}.{stat}": unit[stat] for name, stats in LAYER_STATS.items()
           for stat in stats}
    out.update({
        "sim.drift_correct.fire_ratio": "fraction",
        "sim.to_csv.mb": "MB",
        "krasovskii.grid_points_computed": "count",
        "krasovskii.compositions_cache.hits": "count",
        "krasovskii.compositions_cache.misses": "count",
        "krasovskii.compositions_cache.hit_ratio": "fraction",
        "verify.accept_ratio": "fraction",
        "trace.overhead_frac": "fraction",
    })
    out.update({f"input.branch_share.{b}": "fraction" for b in BRANCHES})
    out.update({f"input.projection_shape.n{n}_ne{k}": "count" for n, k in SHAPES})
    out.update({f"input.hull_vertices.{v}": "count" for v in HULL_SIZES})
    return out


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Matrices are at most 10x10: extra BLAS threads only add scheduler noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["EPDS_LOG"] = "error"
    return env


def run_pass(plan: dict, outdir: str, traced: bool, env: dict, timeout: float) -> dict:
    """Run one pass in a fresh process and return its result (spans loaded)."""
    plan_path = os.path.join(outdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, outdir]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"pass exceeded {timeout:.0f} s"}
    path = os.path.join(outdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"traced": traced, "crashed": proc.stderr.strip()[-2000:]}
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["plan"] = plan
    if traced:
        result["spans"] = tracer.load(os.path.join(outdir, "spans.bin"))
    return result


def identity_errors(workload: str, result: dict) -> list[str]:
    """Exact call-count identities between traced spans and CLI outputs."""
    spans, outputs = result["spans"], result["outputs"]
    stats = tracer.span_stats(spans)
    calls = {name: rec["calls"] for name, rec in stats.items()}
    errors = []
    if workload == "sim-scenarios":
        # One field evaluation and one drift check per step plus the final row;
        # a run that blows up stops after the step that exploded.
        for child in ("pbc.closed_loop_rhs", "sim.drift_correct"):
            got = tracer.children_of(spans, "sim.integrate", child)
            want = [o["steps"] + (0 if o["exploded"] else 1) for o in outputs]
            if got != want:
                errors.append(f"{child} calls per integrate {got} != steps + 1 {want}")
    elif workload == "verify-projection":
        want = sum(o["cases"] for o in outputs)
        if calls.get("oracle.oracle_project", 0) != want:
            errors.append(f"oracle_project calls {calls.get('oracle.oracle_project', 0)} != cases {want}")
    else:
        want = sum(2 * o["finite_cases"] + o["sector_cases"] for o in outputs)
        got = calls.get("krasovskii.verify_equality", 0)
        if got != want:
            errors.append(f"verify_equality calls {got} != 2 finite + sector cases {want}")
    return errors


def hull_errors(result: dict) -> list[str]:
    """The traced hull sizes must match those recorded in the seed pool."""
    want: dict[str, int] = {}
    for call in result["plan"]["calls"]:
        for part in ("finite", "sector"):
            for size, n in call["hulls"][part].items():
                key = f"hull_vertices.{size}"
                want[key] = want.get(key, 0) + n
    got = {k: v for k, v in result["observed"].items() if k.startswith("hull_vertices.")}
    return [] if got == want else [f"hull vertex counts {got} differ from the pool's {want}"]


def layer_metrics(workload: str, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the traced passes of a run."""
    per_pass = [tracer.span_stats(r["spans"]) for r in traced]
    first = traced[0]
    out = {}
    for name, stats in LAYER_STATS.items():
        recs = [p.get(name, {"calls": 0, "self_s": 0.0, "durations": []}) for p in per_pass]
        durations = [d for rec in recs for d in rec["durations"]]
        for stat in stats:
            if stat == "calls":
                value = recs[0]["calls"]
            elif stat == "self_s":
                value = statistics.median(rec["self_s"] for rec in recs)
            else:
                scale = 1e6 if stat.endswith("_us") else 1e3
                value = tracer.percentile(durations, float(stat[1:3])) * scale
            out[f"{name}.{stat}"] = value
    obs = first["observed"]
    n_drift = out["sim.drift_correct.calls"]
    out["sim.drift_correct.fire_ratio"] = obs.get("drift_fired", 0) / n_drift if n_drift else 0.0
    out["sim.to_csv.mb"] = first["csv_bytes"] / 1e6
    out["krasovskii.grid_points_computed"] = obs.get("grid_points", 0)
    cache = first["compositions_cache"]
    looked_up = cache["hits"] + cache["misses"]
    out["krasovskii.compositions_cache.hits"] = cache["hits"]
    out["krasovskii.compositions_cache.misses"] = cache["misses"]
    out["krasovskii.compositions_cache.hit_ratio"] = cache["hits"] / looked_up if looked_up else 0.0
    accept = 0.0
    if workload == "verify-projection":
        reps = first["outputs"]
        drawn = sum(r["cases"] + r["skipped_infeasible"] + r["skipped_ill_posed"] for r in reps)
        accept = sum(r["cases"] for r in reps) / drawn
    out["verify.accept_ratio"] = accept
    # Each traced pass repeats the inputs of the untraced pass before it;
    # the median over these pairs leaves out an unpaired last pass.
    out["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)
    ) - 1.0
    n_rhs = out["pbc.closed_loop_rhs.calls"]
    for b in BRANCHES:
        out[f"input.branch_share.{b}"] = obs.get("branch." + b, 0) / n_rhs if n_rhs else 0.0
    for n, k in SHAPES:
        out[f"input.projection_shape.n{n}_ne{k}"] = obs.get(f"shape.n{n}_ne{k}", 0)
    for v in HULL_SIZES:
        out[f"input.hull_vertices.{v}"] = obs.get(f"hull_vertices.{v}", 0)
    return out


def crosscheck(workload: str, traced: list[dict]) -> dict:
    """Single-call figures comparable with earlier one-off measurements:
    the first pass's shipped higs_benchmark run (2000 steps, 2001 trace
    rows) and the mean oracle_project time per correction dimension n_E."""
    out = {}
    if workload == "sim-scenarios":
        stats = tracer.span_stats(traced[0]["spans"])
        for key, name, scale in (("integrate_us_per_step", "sim.integrate", 1e6 / 2000),
                                 ("to_csv_ms", "sim.to_csv", 1e3)):
            if stats[name]["durations"]:
                out[f"higs_benchmark.{key}"] = stats[name]["durations"][0] * scale
    elif workload == "verify-projection":
        for key, secs in sorted(traced[0]["timings"].items()):
            out[f"{key}.mean_ms"] = statistics.fmean(secs) * 1e3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="epds benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_begin = time.perf_counter()
    root = os.path.dirname(HERE)
    src = os.path.join(root, "src", "epds")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"perfbench: no epds package at {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    env = child_env(root)
    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} load1_start {os.getloadavg()[0]:.2f}")

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        passes: list[dict] = []
        deadline = t_begin + args.seconds
        while True:
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            passdir = os.path.join(workdir, f"pass-{index}")
            os.makedirs(passdir)
            # Traced and untraced passes alternate in pairs on the same inputs,
            # so trace.overhead_frac compares like with like.
            plan_index = index // 2 if args.trace else index
            plan = workloads.make_plan(args.workload, args.seed, plan_index, passdir)
            budget = min(PASS_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - t_begin))
            res = run_pass(plan, passdir, traced, env, budget)
            passes.append(res)
            print(f"pass {index} traced={int(traced)} "
                  + ("CRASHED " + res["crashed"].splitlines()[-1] if "crashed" in res else
                     f"setup_s={res['setup_s']:.4f} wall_s={res['wall_s']:.4f} "
                     f"work={res['work']} failed={res['failed']}"))
            if "crashed" in res or time.perf_counter() >= deadline and len(passes) >= 2:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    problems = [p for r in passes for p in r.get("problems", [])]
    problems += [r["crashed"] for r in passes if "crashed" in r]
    done = [r for r in passes if "crashed" not in r]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    for r in traced:
        problems += identity_errors(args.workload, r)
        if args.workload == "verify-krasovskii":
            problems += hull_errors(r)
    for name in traced[0]["missing"] if traced else []:
        problems.append(f"traced function or cache not in epds: {name}")
    attempted = sum(r["attempted"] for r in done) or 1
    failed = sum(r["failed"] for r in done) + len(passes) - len(done)
    if problems and not failed:
        failed = 1
    for p in problems:
        print(f"CHECK FAILED: {p}")

    metrics = {}
    if untraced and (traced or not args.trace):
        wall = statistics.median(r["wall_s"] for r in untraced)
        rate = statistics.median(r["work"] / r["wall_s"] for r in untraced)
        work = statistics.median(r["work"] for r in untraced)
        end_to_end = {
            "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
            "wall_s": (wall, "s"),
            "work_per_s": (rate, "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        walls = sorted(r["wall_s"] for r in untraced)
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        throughput = "steps_per_s" if args.workload == "sim-scenarios" else "instances_per_s"
        print(f"wall_s median {wall:.4f} s, quartiles {q[0]:.4f}..{q[2]:.4f}, n={len(walls)}")
        print(f"{throughput} {rate:.2f} 1/s (median {work:g} per pass)")
        print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
        if args.trace:
            units = layer_metric_units()
            values = layer_metrics(args.workload, traced, untraced)
            metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
            for k, v in crosscheck(args.workload, traced).items():
                print(f"crosscheck {k} = {v:.4g}")
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        for k, m in metrics.items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(f"load1_end {os.getloadavg()[0]:.2f} elapsed_s {time.perf_counter() - t_begin:.1f}")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
