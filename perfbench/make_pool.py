"""Build the seed pool of the verify-krasovskii workload.

One hull with four vertices costs about 1.3 s in ``verify_equality`` (its
0.01 grid has 176,851 points and thrashes the ``_compositions`` cache),
while all other hulls of a 22-instance sweep cost about 0.4 s together.
Such hulls make 4.5% of finite cases (1 in 22), so their number in a
sweep, not the machine, would decide a run's time.  The pool keeps the
sweep seeds of 22 instances whose finite cases hold exactly one
four-vertex hull, the natural rate, and the most common number of
three-vertex hulls; the benchmark draws its sweeps from it with the
workload seed.

The screen replaces ``verify_equality`` by a recorder of vertex counts.  It
draws no random numbers, so the instance stream of each sweep is unchanged.

    PYTHONPATH=src python3 perfbench/make_pool.py > perfbench/krasovskii_pool.json
"""

from __future__ import annotations

import collections
import json
import sys

COUNT = 22
SEEDS = range(600)


def screen(count: int, seeds: range) -> list[dict]:
    import epds.verify

    seen: list[int] = []

    class _Holds:
        holds = True

    def record(hull, T, pi, resolution, witness_tol):
        seen.append(int(hull.vertices.shape[0]))
        return _Holds

    epds.verify.verify_equality = record
    rows = []
    for seed in seeds:
        seen.clear()
        report = epds.verify.verify_krasovskii(count=count, seed=seed)
        n_fin = report["finite_cases"]
        rows.append(
            {
                "seed": seed,
                # Finite hulls are checked at two resolutions: take every other.
                "finite": dict(collections.Counter(seen[: 2 * n_fin : 2])),
                "sector": dict(collections.Counter(seen[2 * n_fin :])),
            }
        )
    return rows


def main() -> int:
    rows = screen(COUNT, SEEDS)
    n4 = [r["finite"].get(4, 0) for r in rows]
    one = [r for r in rows if r["finite"].get(4, 0) == 1]
    n3_mode = collections.Counter(r["finite"].get(3, 0) for r in one).most_common(1)[0][0]
    pool = [r for r in one if r["finite"].get(3, 0) == n3_mode]
    json.dump(
        {
            "count": COUNT,
            "screened_seeds": [SEEDS.start, SEEDS.stop],
            "four_vertex_rate": sum(n4) / (COUNT * len(rows)),
            "criterion": {"finite_4_vertex_hulls": 1, "finite_3_vertex_hulls": n3_mode},
            "pool": pool,
        },
        sys.stdout,
        indent=1,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
