"""One pass of a workload in a fresh process, with its output checks.

    python3 perfbench/worker.py PLAN.json OUTDIR [--trace]

Set-up is everything before the first timed call: importing ``epds``
(numpy and scipy included) and, for scenario workloads, parsing every
scenario and building its runtime.  The pass then makes the plan's CLI calls
through ``epds.cli.main`` in this process.  With ``--trace`` the layer
wrappers are installed after set-up and the spans are written to
OUTDIR/spans.bin.  The result goes to OUTDIR/result.json; checks run after
the timed region.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# higs_benchmark must match its recorded reference to these tolerances; a
# different branch on any step moves time_in_branch by a whole step.
TERMINAL_RTOL = 1e-9
BRANCH_TIME_ATOL = 1e-9


def call_cli(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:
        return {"rc": None, "stdout": out.getvalue(), "stderr": traceback.format_exc()}
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def read_trace(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cols = {k: [float(r[k]) for r in rows] for k in ("t", "e", "u", "edot", "vstar")}
    cols["branch"] = [r["branch"] for r in rows]
    return cols


def residual_bound(doc: dict, h: float, tr: dict) -> float:
    """First-order bound on the positive sector residual of a raw row.

    A step of length dt <= h from a point of the sector moves each line
    slack a = u - k1 e and b = k2 e - u by at most h V, V = max(|vstar| +
    max|k| |edot|).  The residual -a b is positive only when one slack has
    crossed zero, by at most h V + tau, while a + b = (k2 - k1) e bounds
    the other one.  tau is the membership tolerance of the corrected state.
    """
    k1, k2 = doc["sector"]["k1"], doc["sector"]["k2"]
    kmax = max(abs(k1), abs(k2))
    big_e = max(abs(v) for v in tr["e"])
    big_u = max(abs(v) for v in tr["u"])
    speed = max(abs(v) + kmax * abs(d) for v, d in zip(tr["vstar"], tr["edot"]))
    tau = 1e-9 * (1.0 + big_e + big_u) * (1.0 + kmax)
    step = h * speed + tau
    return step * ((k2 - k1) * big_e + step) + 1e-12


def check_run(call: dict, res: dict, out: str, reference: dict) -> tuple[int, list[str]]:
    """(Euler steps completed, problems) for one ``epds run`` call."""
    doc, kind = call["doc"], call["check"]
    name = doc["name"]
    if res["rc"] is None:
        return 0, [f"{name}: raised {res['stderr'].strip().splitlines()[-1]}"]
    if kind == "blowup":
        try:
            err = json.loads(res["stderr"].strip().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError):
            return 0, [f"{name}: no error object on stderr"]
        if res["rc"] != 2 or err.get("kind") != "state_exploded":
            return 0, [f"{name}: expected exit 2 state_exploded, got {res['rc']} {err}"]
        return round(err["t"] / doc["step"]), []
    if res["rc"] != 0:
        return 0, [f"{name}: exit {res['rc']}: {res['stderr'].strip()[:200]}"]
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    problems = []
    h = summary["h"]
    term = summary["terminal_state"]
    if not all(math.isfinite(v) for v in term):
        problems.append(f"{name}: terminal state not finite: {term}")
    tr = read_trace(os.path.join(out, "trace.csv"))
    if len(tr["t"]) != summary["steps"] + 1:
        problems.append(f"{name}: {len(tr['t'])} trace rows for {summary['steps']} steps")
    bound = residual_bound(doc, h, tr)
    if not summary["max_sector_residual"] <= bound:
        problems.append(f"{name}: residual {summary['max_sector_residual']} > bound {bound}")
    if kind == "higs_reference":
        ref = reference["higs_benchmark"]
        for got, want in zip(term, ref["terminal_state"]):
            if abs(got - want) > TERMINAL_RTOL * (1.0 + abs(want)):
                problems.append(f"{name}: terminal state {term} != {ref['terminal_state']}")
                break
        for branch, want in ref["time_in_branch"].items():
            if abs(summary["time_in_branch"][branch] - want) > BRANCH_TIME_ATOL:
                problems.append(f"{name}: time_in_branch {summary['time_in_branch']}")
                break
    elif kind == "tracking":
        # x' = a, z' = b from the corner: u(t) = clamp(b, k1 a, k2 a) t.
        a, b = doc["plant"]["c"][0], doc["controller"]["c"][0]
        k1, k2 = doc["sector"]["k1"], doc["sector"]["k2"]
        lo, hi = sorted((k1 * a, k2 * a))
        rate = min(max(b, lo), hi)
        err = max(abs(u - rate * t) for u, t in zip(tr["u"], tr["t"]))
        if err > 2.0 * h * max(1.0, abs(rate)):
            problems.append(f"{name}: max|u - {rate} t| = {err} > 2h")
        corners = tr["branch"].count("corner")
        if corners != 1:
            problems.append(f"{name}: {corners} corner rows, expected 1")
    return summary["steps"], problems


def check_report(call: dict, res: dict) -> tuple[int, int, list[str], dict]:
    """(instances, failed instances, problems, report) for a verify call.

    A call that raises or reports the wrong case count fails as a whole.
    """
    if res["rc"] is None:
        return call["count"], call["count"], [f"{call['argv']}: raised"], {}
    report = json.loads(res["stdout"])
    if call["check"] == "projection":
        cases = report["cases"]
        instances = cases + report["sector_origin_cases"]
        failed = (
            report["mismatches"] + report["singleton_violations"]
            + report["branch_contradictions"]
        )
    else:
        cases = report["finite_cases"]
        instances = cases + report["sector_cases"]
        failed = report["finite_failures"] + report["sector_pattern_mismatches"]
    problems = []
    if res["rc"] != 0 or failed:
        problems.append(f"{call['argv']}: exit {res['rc']}, {failed} failed instances")
    if cases != call["count"]:
        problems.append(f"{call['argv']}: {cases} cases for count {call['count']}")
        failed = instances
    return instances, min(failed, instances), problems, report


def run_calls(main, plan: dict, outdir: str) -> list[dict]:
    results = []
    for i, call in enumerate(plan["calls"]):
        argv = list(call["argv"])
        if argv[0] == "run":
            argv += ["--out", os.path.join(outdir, f"run-{i}")]
        results.append(call_cli(main, argv))
    return results


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    plan_path, outdir, traced = args[0], args[1], "--trace" in args[2:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import epds.cli
    import epds.scenario

    for call in plan["calls"]:
        if call["argv"][0] == "run":
            epds.scenario.build_runtime(epds.scenario.scenario_from_json(call["doc"]))
    setup_s = time.perf_counter() - T_START

    tracer = None
    if traced:
        sys.path.insert(0, HERE)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.OBSERVERS)
    t0 = time.perf_counter()
    if tracer is None:
        results = run_calls(epds.cli.main, plan, outdir)
    else:
        results = tracer.span(tracing.ROOT, run_calls, epds.cli.main, plan, outdir)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    work = attempted = failed = 0
    problems: list[str] = []
    outputs = []
    for i, (call, res) in enumerate(zip(plan["calls"], results)):
        if call["argv"][0] == "run":
            steps, probs = check_run(call, res, os.path.join(outdir, f"run-{i}"), reference)
            work += steps
            attempted += 1
            failed += bool(probs)
            outputs.append({"steps": steps, "exploded": call["check"] == "blowup"})
        else:
            instances, bad, probs, report = check_report(call, res)
            work += instances if not probs else 0
            attempted += instances
            failed += bad
            outputs.append(report)
        problems += probs

    result = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "outputs": outputs,
    }
    if tracer is not None:
        import epds.krasovskii

        cache_info = getattr(getattr(epds.krasovskii, "_compositions", None), "cache_info", None)
        info = cache_info() if cache_info else None
        if info is None:
            tracer.missing.append("epds.krasovskii._compositions.cache_info")
        result["observed"] = tracer.observed
        result["timings"] = tracer.timings
        result["missing"] = tracer.missing
        result["compositions_cache"] = {
            "hits": info.hits if info else 0, "misses": info.misses if info else 0,
        }
        result["csv_bytes"] = sum(
            os.path.getsize(os.path.join(outdir, f"run-{i}", "trace.csv"))
            for i, call in enumerate(plan["calls"])
            if call["argv"][0] == "run" and call["check"] != "blowup"
        )
        tracer.dump(os.path.join(outdir, "spans.bin"), run_id=os.path.basename(outdir))
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
