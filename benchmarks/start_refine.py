"""Sweep the starting procedure's refinement over tables 1, 3 and 4.

    python3 benchmarks/start_refine.py

For each refinement factor in ``REFINES``, reruns the canned table sweeps with
``start_refine`` set to it and records every error and the time spent in
the fractional-Adams start (``solver.start_s``, from the same spans as
``run.py --trace 1``).  Prints one line per (table, refine) and, last, one
JSON object with all of it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import layers
import workloads

REFINES = (8, 16, 32, 64)
TABLES = (1, 3, 4)


def main() -> int:
    if not (workloads.SRC / "tfode" / "__init__.py").is_file():
        print(f"error: no tfode sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    mods = workloads.load_tfode()

    results = []
    for which in TABLES:
        for refine in REFINES:
            sweep = dataclasses.replace(mods.harness.table_sweep(which), start_refine=refine)
            tracer = layers.Tracer()
            t0 = time.perf_counter()
            with layers.traced(mods, tracer):
                reports = mods.harness.run_sweep(sweep)
            wall = time.perf_counter() - t0
            start_s = layers.layer_metrics(tracer.spans)["solver.start_s"]
            columns = [
                {"alpha": r.alpha, "lambda": r.lam, "errors": r.errors} for r in reports
            ]
            results.append({"table": which, "start_refine": refine,
                            "solver.start_s": start_s, "wall_s": wall, "columns": columns})
            coarse = ", ".join(f"{c['errors'][0]:.3e}" for c in columns)
            fine = ", ".join(f"{c['errors'][-1]:.3e}" for c in columns)
            print(f"table {which} refine {refine:3d}: start {start_s:.3f} s of {wall:.3f} s; "
                  f"errors, coarsest row {coarse}; finest row {fine}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
