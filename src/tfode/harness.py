"""Convergence-study harness: step-halving sweeps, error/order reports, CSV.

A :class:`Sweep` holds a problem specification and solver options, lists
of ``alpha`` and ``lambda`` values, and a strictly decreasing list of step
sizes.  :func:`run_sweep` produces one :class:`ConvergenceReport` per
(alpha, lambda) pair with the max-norm error for every step size and the
observed order between consecutive ones.  The five canned table
configurations reproduce the reference error tables exactly as printed
(same T, quadrature degree, stencil size and step lists).

Everything is deterministic: no randomness, fixed iteration order, fixed
CSV formatting.  The per-row wall-clock column is kept out of the table
CSVs so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import inspect
import math
import time
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .problems import problem_from_spec
from .solver import BlowUpError, Problem, SolutionTrace, SolverConfig, solve

__all__ = [
    "Sweep",
    "ReportRow",
    "ConvergenceReport",
    "estimate_order",
    "run_sweep",
    "table_sweep",
    "report_csv_text",
    "load_report_csv",
    "write_trace_csv",
    "TABLES",
]


#: The keywords a sweep passes to :func:`problems.problem_from_spec`, but
#: alpha and lambda, and to :class:`SolverConfig`, but steps.
SPEC_KEYS = frozenset(inspect.signature(problem_from_spec).parameters) - {"alpha", "lam"}
OPTION_KEYS = frozenset(f.name for f in fields(SolverConfig)) - {"steps"}


@dataclass(frozen=True, init=False)
class Sweep:
    """One convergence study: a problem family x step sizes.

    ``spec`` holds the keywords for :func:`problems.problem_from_spec` and
    ``options`` those for :class:`SolverConfig`, read-only; every other
    keyword goes to the one that takes it, also in ``dataclasses.replace``.
    ``spec`` needs ``rhs``, ``builtin:NAME`` or an expression in t, u,
    alpha, lambda, and has ``b`` = 1.0 unless given; ``options`` needs
    ``n_interp``.  ``taus`` must be strictly decreasing and divide ``b - a``.
    """

    alphas: tuple[float, ...]
    lambdas: tuple[float, ...]
    taus: tuple[float, ...]
    spec: Mapping[str, object]
    options: Mapping[str, object]

    def __init__(self, alphas, lambdas, taus, spec=(), options=(), **given):
        spec, options = {"b": 1.0, **dict(spec)}, dict(options)
        for key, value in given.items():
            if key not in SPEC_KEYS | OPTION_KEYS:
                raise TypeError(f"Sweep got an unexpected keyword argument {key!r}")
            (spec if key in SPEC_KEYS else options)[key] = value
        if "rhs" not in spec or "n_interp" not in options:
            raise ValueError("a sweep needs rhs= (an expression or builtin:NAME) and n_interp=")
        taus = tuple(map(float, taus))
        if not taus or any(t2 >= t1 for t1, t2 in zip(taus, taus[1:])):
            raise ValueError("taus must be non-empty and strictly decreasing")
        values = (tuple(map(float, alphas)), tuple(map(float, lambdas)), taus,
                  MappingProxyType(spec), MappingProxyType(options))
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

    def make_problem(self, alpha: float, lam: float) -> Problem:
        return problem_from_spec(alpha, lam, **self.spec)

    def make_config(self, problem: Problem, tau: float) -> SolverConfig:
        """The solver configuration for steps of ``tau`` over ``problem``'s interval."""
        m = (problem.b - problem.a) / tau
        steps = round(m)
        if abs(m - steps) > 1e-9 * max(1.0, steps):
            raise ValueError(f"tau={tau} does not divide the interval [{problem.a}, {problem.b}]")
        return SolverConfig(steps=steps, **self.options)


@dataclass
class ReportRow:
    tau: float
    max_error: float
    order: float | None
    wall_ms: float


@dataclass
class ConvergenceReport:
    alpha: float
    lam: float
    rows: list[ReportRow]
    meta: dict = field(default_factory=dict)

    @property
    def errors(self) -> list[float]:
        return [r.max_error for r in self.rows]

    @property
    def orders(self) -> list[float | None]:
        return [r.order for r in self.rows[1:]]

    def fitted_order(self) -> float:
        """Order estimate at the finest refinement pair."""
        for r in reversed(self.rows):
            if r.order is not None:
                return r.order
        raise ValueError("report has no computable order entries")


def estimate_order(errors: Sequence[float], taus: Sequence[float]) -> list[float | None]:
    """Observed orders log(e_prev / e) / log(tau_prev / tau) between the
    errors of consecutive step sizes ``taus``.

    Entries where either error is non-positive or non-finite, or where the
    step does not decrease, are flagged as ``None`` instead of being
    computed.
    """
    out: list[float | None] = []
    for prev, cur, tau_prev, tau in zip(errors, errors[1:], taus, taus[1:]):
        ok = (
            math.isfinite(prev) and math.isfinite(cur) and prev > 0.0 and cur > 0.0
            and tau_prev > tau
        )
        out.append(math.log2(prev / cur) / math.log2(tau_prev / tau) if ok else None)
    return out


def _max_gap(values: np.ndarray, baseline: np.ndarray) -> float:
    """Max abs difference over the grid nodes t_1..t_M (t_0 excluded)."""
    return float(np.abs(values[1:] - baseline[1:]).max())


def _max_error_vs_reference(trace: SolutionTrace, reference: SolutionTrace) -> float:
    stride = round(reference.config.steps / trace.config.steps)
    if stride * trace.config.steps != reference.config.steps:
        raise ValueError("reference grid does not refine the trace grid")
    return _max_gap(trace.values, reference.values[::stride])


def _strided(times: np.ndarray, finer: tuple[np.ndarray, np.ndarray]) -> np.ndarray | None:
    """The exact values of a finer grid at ``times``, when ``times`` are that
    grid's times taken with a stride, bit for bit; else None."""
    fine_times, fine_exact = finer
    stride = (len(fine_times) - 1) // (len(times) - 1)
    if stride and np.array_equal(fine_times[::stride], times):
        return fine_exact[::stride]
    return None


def _row_error(trace: SolutionTrace, reference: SolutionTrace | None, finer):
    """A row's max error over t_1..t_M, and the (times, exact values) that
    coarser rows may take with a stride, or None.

    The error is against ``reference`` where given, else against ``finer``'s
    exact values where this grid nests in it, else against the exact values
    the trace evaluates.  Those serve coarser rows unless they came from the
    node-by-node fallback, where a coarser grid's own array pass may not fall
    back and so may give other values.
    """
    if reference is not None:
        return _max_error_vs_reference(trace, reference), None
    exact = None if finer is None else _strided(trace.times, finer)
    if exact is not None:
        return _max_gap(trace.values, exact), None
    err = trace.max_error()
    return err, None if trace.exact_by_node else (trace.times, trace.exact_values())


def run_sweep(sweep: Sweep) -> list[ConvergenceReport]:
    """Run every (alpha, lambda) column of the sweep.

    Columns are solved in the given order, and each column's step sizes
    from fine to coarse; rows are reported in the sweep's order, so output
    is deterministic.  The exact solution is evaluated once per column, by
    its finest row that does not blow up, whose ``wall_ms`` includes that
    evaluation; each coarser row whose grid times are those times taken
    with a stride, bit for bit, takes those values, and any other row
    evaluates its own (see :func:`_row_error`).  An exact solution that
    fails to evaluate therefore fails on the finest grid first.  A solver
    blow-up is recorded as an infinite error for that row and the sweep
    continues.  Problems without an exact solution are measured against a
    reference solve at ``min(taus) / 4``; a blow-up there ends the sweep
    with a ``BlowUpError`` whose message names that solve's step size, its
    step count and the column.  Orders are taken between
    consecutive step sizes, whatever their ratio (see
    :func:`estimate_order`).
    """
    reports = []
    for alpha in sweep.alphas:
        for lam in sweep.lambdas:
            problem = sweep.make_problem(alpha, lam)
            reference = None
            if problem.exact is None:
                ref_tau = min(sweep.taus) / 4.0
                ref_config = sweep.make_config(problem, ref_tau)
                try:
                    reference = solve(problem, ref_config)
                except BlowUpError as exc:
                    # the config never names this grid, so the message does
                    exc.args = (f"the reference solve at tau = min(taus)/4 = {ref_tau:.6g} "
                                f"({ref_config.steps} steps) of the column alpha = {alpha:g}, "
                                f"lambda = {lam:g}: {exc}",)
                    raise
            rows, finer = [], None
            for tau in reversed(sweep.taus):
                config = sweep.make_config(problem, tau)
                start = time.perf_counter()
                try:
                    err, values = _row_error(solve(problem, config), reference, finer)
                    finer = finer or values
                except BlowUpError:
                    err = math.inf
                wall_ms = 1e3 * (time.perf_counter() - start)
                rows.append(ReportRow(tau=tau, max_error=err, order=None, wall_ms=wall_ms))
            rows.reverse()
            orders = estimate_order([r.max_error for r in rows], sweep.taus)
            for row, order in zip(rows[1:], orders):
                row.order = order
            meta = {"error_baseline": "exact" if reference is None else "reference"}
            reports.append(ConvergenceReport(alpha=alpha, lam=lam, rows=rows, meta=meta))
    return reports


# ---------------------------------------------------------------------------
# Canned table configurations (T, degrees and step lists as printed)

_T123_TAUS = (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160)
_T45_TAUS = (1 / 20, 1 / 40, 1 / 80, 1 / 160)

#: The paper's parameters in full, defaults included, so that a change of
#: default leaves the tables alone
TABLES: dict[int, Sweep] = {
    1: Sweep(rhs="builtin:example2", alphas=(0.5,), lambdas=(0.0, 2.0, 6.0),
             taus=_T123_TAUS, n_interp=7, n_quad=20, b=1.0),
    2: Sweep(rhs="builtin:example2", alphas=(1.0,), lambdas=(0.0, 2.0, 6.0),
             taus=_T123_TAUS, n_interp=6, n_quad=20, b=1.0),
    3: Sweep(rhs="builtin:example2", alphas=(1.5,), lambdas=(0.0, 2.0, 6.0),
             taus=_T123_TAUS, n_interp=6, n_quad=20, b=1.0),
    4: Sweep(rhs="builtin:example3", alphas=(0.2, 0.9, 1.8), lambdas=(5.0,),
             taus=_T45_TAUS, n_interp=2, n_quad=20, b=1.1, mu=1.0,
             split_t0=0.1, n_tilde=40),
    5: Sweep(rhs="builtin:example3", alphas=(0.2, 0.9, 1.8), lambdas=(10.0,),
             taus=_T45_TAUS, n_interp=2, n_quad=20, b=1.1, mu=1.0,
             split_t0=0.1, n_tilde=40),
}


def table_sweep(which: int) -> Sweep:
    """The canned sweep reproducing reference table 1-5."""
    try:
        return TABLES[which]
    except KeyError:
        raise ValueError(f"no table {which}; choose from 1-5") from None


# ---------------------------------------------------------------------------
# CSV input/output


def report_csv_text(reports: Sequence[ConvergenceReport], *, wall_ms: bool = True) -> str:
    """Sweep reports as CSV text; fixed formats keep output reproducible.

    The fields are formatted numbers, which CSV never quotes, so the rows
    are joined directly.
    """
    lines = ["alpha,lambda,tau,max_error,order" + (",wall_ms" if wall_ms else "")]
    for rep in reports:
        for row in rep.rows:
            order = "" if row.order is None else f"{row.order:.4f}"
            line = f"{rep.alpha:.10g},{rep.lam:.10g},{row.tau:.10g},{row.max_error:.6e},{order}"
            lines.append(line + (f",{row.wall_ms:.3f}" if wall_ms else ""))
    return "\n".join(lines) + "\n"


def load_report_csv(stream) -> list[ConvergenceReport]:
    """Read a report CSV back, re-deriving and checking the order column.

    Raises ``ValueError`` if a stored order disagrees with the one
    recomputed from the error column by more than the print precision.
    """
    reader = csv.DictReader(stream)
    grouped: dict[tuple[float, float], list[ReportRow]] = {}
    for rec in reader:
        key = (float(rec["alpha"]), float(rec["lambda"]))
        order = float(rec["order"]) if rec["order"] else None
        grouped.setdefault(key, []).append(
            ReportRow(
                tau=float(rec["tau"]),
                max_error=float(rec["max_error"]),
                order=order,
                wall_ms=float(rec.get("wall_ms") or 0.0),
            )
        )
    reports = []
    for (alpha, lam), rows in grouped.items():
        recomputed = estimate_order([r.max_error for r in rows], [r.tau for r in rows])
        for row, expect in zip(rows[1:], recomputed):
            stored = row.order
            if (stored is None) != (expect is None):
                raise ValueError(f"order column inconsistent for alpha={alpha}, lam={lam}")
            if stored is not None and abs(stored - expect) > 5e-4:
                raise ValueError(
                    f"order {stored} disagrees with recomputed {expect:.4f} "
                    f"for alpha={alpha}, lam={lam}"
                )
        reports.append(ConvergenceReport(alpha=alpha, lam=lam, rows=rows))
    return reports


def write_trace_csv(stream, trace: SolutionTrace) -> None:
    """Write a solution trace as ``t,u[,u_exact,abs_error]``, in one write.

    The fields are formatted numbers, which CSV never quotes, so the rows
    are joined directly.
    """
    times, values = trace.times.tolist(), trace.values.tolist()
    if trace.problem.exact is not None:
        rows = [
            f"{t:.16e},{u:.16e},{ue:.16e},{abs(u - ue):.6e}\n"
            for t, u, ue in zip(times, values, trace.exact_values().tolist())
        ]
        header = "t,u,u_exact,abs_error\n"
    else:
        rows = [f"{t:.16e},{u:.16e}\n" for t, u in zip(times, values)]
        header = "t,u\n"
    stream.write(header + "".join(rows))
