"""Spans around the calls into each tfode module, and the per-layer metrics.

:func:`traced` swaps the module attributes through which tfode's layers
call each other for wrappers that record a span per call, and puts the
originals back on exit.  Nothing in tfode is edited.  A span is
``(name, start, end, parent, value)``: ``parent`` is the index of the
enclosing span (-1 for none) and ``value`` a per-call amount (mesh points,
rules built, CSV bytes).  Spans are kept in memory and written out once.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: per-layer metric -> unit; the order in which they are reported
METRICS = {
    "solver.start_s": "s",
    "solver.start_mesh_points": "count",
    "solver.step_s": "s",
    "solver.steps": "count",
    "solver.history_s": "s",
    "solver.solve_self_s": "s",
    "quadrature.rule_builds": "count",
    "quadrature.rule_s": "s",
    "problems.rhs_calls": "count",
    "problems.rhs_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_s": "s",
    "specfun.ml_calls": "count",
    "specfun.ml_s": "s",
    "harness.errors_s": "s",
    "harness.csv_s": "s",
    "harness.csv_bytes": "bytes",
}

COUNTS = tuple(name for name, unit in METRICS.items() if unit != "s")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def wrap(self, name, fn, *, before=None, after=None, outermost=False):
        """A stand-in for ``fn`` that records one span per call.

        ``before(args)`` runs ahead of the call and its result is handed to
        ``after(args, result, state)``, which gives the span's value.  With
        ``outermost``, calls made inside a span of the same name (recursion,
        or one entry point calling another) record nothing.
        """
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[name] += 1
            state = before(args) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, t0, t1, parent, 0)
            if after:
                spans[idx] = (name, t0, t1, parent, after(args, result, state))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent", "value"])
            for i, (name, t0, t1, parent, value) in enumerate(self.spans):
                out.writerow([i, name, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}", parent, value])


@contextlib.contextmanager
def traced(mods, tracer: Tracer):
    """Route tfode's inter-module calls through ``tracer`` for the duration."""
    saved = []

    def patch(owner, attr, name, **kw):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **kw))

    solver, quadrature, problems = mods.solver, mods.quadrature, mods.problems
    expr, harness, cli = mods.expr, mods.harness, mods.cli

    patch(cli, "main", "cli.main", outermost=True)
    for owner in (harness, cli):
        patch(owner, "run_sweep", "harness.sweep", outermost=True)
    for owner in (solver, harness, cli):
        patch(owner, "solve", "solver.solve", outermost=True)
    patch(solver, "solve_split", "solver.solve", outermost=True)
    patch(solver, "_adams_pece_scaled", "solver.start", after=lambda a, r, s: len(a[1]))
    patch(solver._Stepper, "step", "solver.step")
    patch(solver._Stepper, "_history_part", "solver.history")
    patch(solver.SolutionTrace, "errors", "harness.errors")

    rules = quadrature.gauss_lobatto  # cached: a build is a cache miss
    for owner in (solver, quadrature):
        patch(owner, "gauss_lobatto", "quadrature.rule",
              before=lambda a: rules.cache_info().misses,
              after=lambda a, r, s: rules.cache_info().misses - s)

    def traced_rhs(factory):
        def make(*args, **kwargs):
            problem = factory(*args, **kwargs)
            return dataclasses.replace(problem, rhs=tracer.wrap("problems.rhs", problem.rhs))
        return make

    for key in list(problems.BUILTIN_PROBLEMS):
        saved.append((problems.BUILTIN_PROBLEMS, key, problems.BUILTIN_PROBLEMS[key]))
        problems.BUILTIN_PROBLEMS[key] = traced_rhs(problems.BUILTIN_PROBLEMS[key])
    for attr in ("example2", "example3"):
        saved.append((problems, attr, vars(problems)[attr]))
        setattr(problems, attr, traced_rhs(vars(problems)[attr]))

    patch(expr, "evaluate", "expr.eval", outermost=True)
    patch(expr, "_ml", "specfun.ml")
    patch(problems, "mittag_leffler", "specfun.ml")

    for owner in (harness, cli):
        patch(owner, "report_csv_text", "harness.csv", after=lambda a, r, s: len(r.encode()))
        patch(owner, "write_trace_csv", "harness.csv",
              before=lambda a: a[0].tell(), after=lambda a, r, s: a[0].tell() - s)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals over the given spans (one pass)."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    amount: dict[str, float] = defaultdict(float)
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, value in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        amount[name] += value
        if parent >= 0:
            covered[parent] += t1 - t0
    solve_self = sum(
        t1 - t0 - covered[i]
        for i, (name, t0, t1, _, _) in enumerate(spans)
        if name == "solver.solve"
    )
    return {
        "solver.start_s": busy["solver.start"],
        "solver.start_mesh_points": amount["solver.start"],
        "solver.step_s": busy["solver.step"],
        "solver.steps": calls["solver.step"],
        "solver.history_s": busy["solver.history"],
        "solver.solve_self_s": solve_self,
        "quadrature.rule_builds": amount["quadrature.rule"],
        "quadrature.rule_s": busy["quadrature.rule"],
        "problems.rhs_calls": calls["problems.rhs"],
        "problems.rhs_s": busy["problems.rhs"],
        "expr.eval_calls": calls["expr.eval"],
        "expr.eval_s": busy["expr.eval"],
        "specfun.ml_calls": calls["specfun.ml"],
        "specfun.ml_s": busy["specfun.ml"],
        "harness.errors_s": busy["harness.errors"],
        "harness.csv_s": busy["harness.csv"],
        "harness.csv_bytes": amount["harness.csv"],
    }
