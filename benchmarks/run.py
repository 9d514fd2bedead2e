"""End-to-end and per-layer benchmark of tfode.

    python3 benchmarks/run.py --workload {tables,long-solve,relax-cli} \
        --seed N --seconds S --trace {0,1}

One run, in one process:

1. set-up, several times: import tfode afresh from ``src`` (next to this
   directory) and build the workload's first Lobatto rules, plus the CLI
   parser where the workload uses the CLI;
2. a check pass: every operation once, under tracemalloc with ``--trace 0``
   for the peak allocation; then each output is checked against the
   references of ``reference.py``;
3. whole passes for ``S`` seconds, each output compared byte for byte with
   the check pass.  With ``--trace 1`` untraced and traced passes alternate
   and the traced ones give the per-layer metrics (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2, printing
no result, when the tfode sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import shutil
import statistics
import sys
import time
import tracemalloc

import numpy as np

import layers
import workloads
from workloads import ROOT, SRC

SETUP_REPEATS = 15
WORK = ROOT / ".bench_work"

#: About the median time of :func:`calibrate` on the 2-CPU box the README's
#: figures come from, when it is quiet; scaled times are seconds at that speed.
CAL_NOMINAL_S = 0.0065

_GRID = np.linspace(0.0, 1.0, 4096)
_WEIGHTS = np.linspace(0.1, 1.0, 21)
_STENCIL = np.array([(-1.0) ** i * math.comb(6, i) for i in range(7)])
_BIG = np.linspace(0.0, 1.0, 100_000)


def calibrate() -> float:
    """Time a fixed kernel that shares no code with tfode.

    Its parts stand for the kinds of work in the workloads: a Python loop
    over floats and a dict (RHS calls, expression evaluation, CSV), 7-point
    stencil interpolation at 21 points with many small numpy calls (the JPC
    step), and a few passes over a 100000-long array (the Adams start).
    """
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(20000):
        acc += i * 0.5
        seen[i % 97] = acc
    for n in range(60):
        r = np.linspace(100.3 + n, 160.3 + n, 21)
        i0 = np.clip(np.ceil(r - 3.5).astype(int), 0, _GRID.size - 7)
        cols = i0[:, None] + np.arange(7)[None, :]
        wd = _STENCIL / (r[:, None] - cols)
        acc += math.exp(-1e-3 * n) * float(_WEIGHTS @ ((wd * _GRID[cols]).sum(axis=1) / wd.sum(axis=1)))
    b = _BIG
    for _ in range(8):
        b = np.sqrt(b + 1.0)
    return time.perf_counter() - t0


class Clock:
    """Times calls in seconds at a fixed machine speed.

    The speed of a shared machine drifts by 20-30% within tens of seconds.
    :func:`calibrate` runs before and after each timed call, and the call's
    time is scaled by ``CAL_NOMINAL_S`` over the mean of the two: a change
    in machine speed moves both alike, a change in tfode only the call.
    """

    def __init__(self):
        self._last = calibrate()

    def time(self, fn):
        """Return (scaled seconds, measured seconds, fn's result)."""
        before = self._last
        t0 = time.perf_counter()
        result = fn()
        measured = time.perf_counter() - t0
        self._last = calibrate()
        return measured * CAL_NOMINAL_S / (0.5 * (before + self._last)), measured, result


def set_up(workload):
    mods = workloads.load_tfode()
    for rule in workload.rules:
        mods.quadrature.gauss_lobatto(*rule)
    if workload.uses_cli:
        mods.cli._build_parser()
    return mods


def call(op, mods):
    """Run one operation; an exception it raises is its result."""
    try:
        return op.run(mods)
    except Exception as exc:  # an operation that raises counts as failed; the run goes on
        return exc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfode" / "__init__.py").is_file():
        print(f"error: no tfode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def bench(args, workdir) -> dict:
    wl = workloads.make_workload(args.workload, args.seed, workdir)
    workloads.load_tfode()  # the first import also loads numpy and scipy; not timed
    clock = Clock()
    setups = [clock.time(lambda: set_up(wl))[0] for _ in range(SETUP_REPEATS)]
    mods = set_up(wl)

    # check pass, under tracemalloc unless tracing; it also fills every cache
    # a timed pass uses.  Its outputs are checked once tracemalloc is off.
    outputs, peak = [], 0
    if not args.trace:
        tracemalloc.start()
    for op in wl.ops:
        gc.collect()  # start each operation from the same heap, so the peak repeats
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        raw = call(op, mods)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - held)
        outputs.append(op.collect(raw))
    tracemalloc.stop()

    expected, verdicts, anchored, correct = [], [], [], True
    for op, out in zip(wl.ops, outputs):
        outcome = op.check(out, mods)
        expected.append(out.digest)
        verdicts.append(outcome.ok)
        state = "ok" if outcome.ok else ("FAILS (known fault)" if op.fault else "FAILS")
        print(f"check {op.name}: {state}"
              + (f", error {outcome.error:.3e}" if not math.isnan(outcome.error) else "")
              + (f"; {outcome.note}" if outcome.note else "")
              + (f" [{op.fault}]" if op.fault else ""))
        if not outcome.ok and not op.fault:
            correct = False
        if op.anchor and not op.fault:
            anchored.append(outcome.error)
    max_abs_error = max([workloads.ROUNDOFF_FLOOR] + anchored)
    steps_per_pass = sum(op.steps for op in wl.ops)

    walls, measured_walls, traced_walls, per_layer = [], [], [], []
    attempted = failed = mismatches = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = bool(args.trace) and len(walls) > len(traced_walls)
        if args.trace:
            mods.quadrature.gauss_lobatto.cache_clear()  # each traced pass builds its rules
        tracer = layers.Tracer()
        wall = measured_wall = 0.0
        with layers.traced(mods, tracer) if trace_this else contextlib.nullcontext():
            for i, op in enumerate(wl.ops):
                scaled, measured, raw = clock.time(lambda: call(op, mods))
                out = op.collect(raw)
                wall += scaled
                measured_wall += measured
                attempted += 1
                if out.digest != expected[i]:
                    mismatches += 1
                    failed += 1
                elif not verdicts[i]:
                    failed += 1
        if trace_this:
            traced_walls.append(wall)
            per_layer.append(layers.layer_metrics(tracer.spans))
            last_tracer = tracer
        else:
            walls.append(wall)
            measured_walls.append(measured_wall)
        if time.perf_counter() >= deadline and (not args.trace or traced_walls):
            break
    if mismatches:
        print(f"{mismatches} outputs differed from the check pass", file=sys.stderr)
        correct = False

    if args.trace:
        last_tracer.write(WORK / f"spans-{args.workload}-{args.seed}.csv")
        metrics = {}
        for name, unit in layers.METRICS.items():
            values = [m[name] for m in per_layer]
            if name in layers.COUNTS and len(set(values)) > 1:
                print(f"{name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = (values, unit)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = ([overhead], "s")
    else:
        print("measured (unscaled) pass wall: %.4g s" % statistics.median(measured_walls))
        metrics = {
            "setup_s": (setups, "s"),
            "wall_s": (walls, "s"),
            "steps_per_s": ([steps_per_pass / w for w in walls], "1/s"),
            "peak_alloc_mb": ([peak / 1e6], "MB"),
            "max_abs_error": ([max_abs_error], "1"),
        }
    report = {}
    for name, (values, unit) in metrics.items():
        q1, med, q3 = quartiles(values)
        print(f"{name}: {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        report[name] = {"value": med, "unit": unit}
    print(f"attempted {attempted}, failed {failed}, passes {len(walls) + len(traced_walls)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}


if __name__ == "__main__":
    sys.exit(main())
