"""The benchmark's workloads: the operations one pass runs, and their checks.

Every operation calls a public tfode entry point, the library's ``solve`` or
the CLI's ``main``, with inputs made here.  ``run`` is the timed call;
``collect`` turns its raw result into an :class:`Output` (reading any file
the CLI wrote); ``check`` compares that output with ``reference.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("specfun", "quadrature", "solver", "problems", "expr", "harness", "cli")

#: Absolute errors at or below this are round-off for solutions of size ~1.
#: ``max_abs_error`` does not resolve below it, so reordering a sum cannot
#: move the metric, and orders are only taken between errors above it.
ROUNDOFF_FLOOR = 1e-12

RELAX_B = 1.1
RELAX_T0 = 0.1


def load_tfode() -> SimpleNamespace:
    """Import tfode afresh from the checkout's ``src``; return its modules."""
    for name in [m for m in sys.modules if m == "tfode" or m.startswith("tfode.")]:
        del sys.modules[name]
    importlib.import_module("tfode")
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"tfode.{m}") for m in MODULES}
    )
    if not Path(mods.solver.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tfode was imported from {mods.solver.__file__}, not {SRC}")
    return mods


@dataclass
class Output:
    """What an operation produced, with a digest to compare passes by."""

    digest: str
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    error: float = math.nan  # worst absolute error against the reference
    note: str = ""


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _failure(raw: BaseException) -> Output:
    text = f"{type(raw).__name__}: {raw}"
    return Output(_digest(text), {"exception": text})


class Op:
    """One operation of a pass.

    ``anchor`` operations have inputs that never depend on the seed; only
    they feed ``max_abs_error``, so the metric compares across seeds.
    ``fault`` names a known fault of the program that makes the operation
    fail on every run until it is mended.
    """

    name: str
    steps: int
    anchor: bool = False
    fault: str | None = None

    def run(self, mods):
        raise NotImplementedError

    def collect(self, raw) -> Output:
        raise NotImplementedError

    def check(self, out: Output, mods) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# long-solve: library solves of example2


class LongSolve(Op):
    TOL = 1e-11

    def __init__(self, alpha, lam, steps, n_interp=7, anchor=False, fault=None):
        self.alpha, self.lam, self.steps, self.n_interp = alpha, lam, steps, n_interp
        self.anchor, self.fault = anchor, fault
        self.name = f"example2(alpha={alpha}, lam={lam}) NI={n_interp} M={steps}"

    def run(self, mods):
        problem = mods.problems.example2(self.alpha, self.lam)
        config = mods.solver.SolverConfig(steps=self.steps, n_interp=self.n_interp)
        return mods.solver.solve(problem, config)

    def collect(self, raw):
        if isinstance(raw, BaseException):
            return _failure(raw)
        return Output(
            _digest(raw.times.tobytes(), raw.values.tobytes()),
            {"t": raw.times, "u": raw.values},
        )

    def check(self, out, mods):
        if "exception" in out.data:
            return Outcome(False, note=out.data["exception"])
        t, u = out.data["t"], out.data["u"]
        if not np.allclose(t, np.arange(self.steps + 1) / self.steps, rtol=0, atol=1e-12):
            return Outcome(False, note="grid is not t_j = j/M")
        err = float(np.abs(u[1:] - reference.example2(self.alpha, self.lam, t[1:])).max())
        ok = err <= self.TOL
        return Outcome(ok, err, "" if ok else f"max error {err:.3e} > {self.TOL:.0e}")


def long_solve_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [LongSolve(0.5, 2.0, m, anchor=True) for m in (160, 1280, 2560, 10240)]
    ops.append(LongSolve(0.5, round(rng.uniform(1.0, 3.0), 3), 20480))
    # exp(lam (t - a)) overflows for lam (b - a) > ~709: spurious BlowUpError
    ops.append(LongSolve(0.5, 800.0, 160, anchor=True, fault="c: spurious BlowUpError, exp overflow at lam=800"))
    return ops


# ---------------------------------------------------------------------------
# CLI output handling


def _call_cli(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mods.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _collect_cli(raw, path: Path) -> Output:
    if isinstance(raw, BaseException):
        return _failure(raw)
    rc, stdout, stderr = raw
    text = path.read_text() if path.exists() else ""
    path.unlink(missing_ok=True)
    return Output(
        _digest(rc, "\0", stdout, "\0", stderr, "\0", text),
        {"rc": rc, "stdout": stdout, "stderr": stderr, "text": text},
    )


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


# ---------------------------------------------------------------------------
# relax-cli: `tfode solve` on the relaxation equation, split scheme


class RelaxCli(Op):
    """``tfode solve`` with the RHS and exact solution given as expressions,
    or with ``builtin``, as the ``relax`` built-in problem.  With
    ``blowup_ok``, exiting on a reported blow-up also passes."""

    def __init__(self, alpha, lam, mu, steps, tol, workdir, anchor=False, fault=None,
                 builtin=False, blowup_ok=False):
        self.alpha, self.lam, self.mu, self.steps, self.tol = alpha, lam, mu, steps, tol
        self.anchor, self.fault, self.blowup_ok = anchor, fault, blowup_ok
        self.name = f"relax{' builtin' if builtin else ''}(alpha={alpha}, lam={lam}, mu={mu}) M={steps}"
        self.path = workdir / f"relax-{builtin}-{alpha}-{lam}-{mu}-{steps}.csv"
        if builtin:
            problem = ["--rhs", "builtin:relax", "--mu", repr(mu)]
        else:
            problem = [f"--rhs=-{mu!r}*u", "--init", "1",
                       "--exact", f"exp(-lambda*t)*ml(alpha,1,-{mu!r}*t^alpha)"]
        self.argv = [
            "solve", "--alpha", repr(alpha), "--lambda", repr(lam), *problem,
            "--b", repr(RELAX_B), "--steps", str(steps), "--NI", "2",
            "--split-t0", repr(RELAX_T0), "--ntilde", "40", "--out", str(self.path),
        ]

    def run(self, mods):
        return _call_cli(mods, self.argv)

    def collect(self, raw):
        return _collect_cli(raw, self.path)

    def check(self, out, mods):
        d = out.data
        if "exception" in d:
            return Outcome(False, note=d["exception"])
        if d["rc"] == 3 and self.blowup_ok:
            return Outcome(True, note="blow-up reported")
        if d["rc"] != 0:
            return Outcome(False, note=f"exit code {d['rc']}: {d['stderr'].strip()}")
        header, rows = _read_csv(d["text"])
        if header != ["t", "u", "u_exact", "abs_error"] or len(rows) != self.steps + 1:
            return Outcome(False, note="trace CSV has the wrong shape")
        t, u, ue, ae = np.array(rows, dtype=float).T
        if not np.allclose(t, RELAX_B * np.arange(self.steps + 1) / self.steps, rtol=0, atol=1e-12):
            return Outcome(False, note="grid is not t_j = b j/M")
        ref = reference.relaxation(self.alpha, self.lam, self.mu, t)
        err = float(np.abs(u[1:] - ref[1:]).max())
        notes = []
        if not err <= self.tol:
            notes.append(f"u is {err:.3e} off the reference (tolerance {self.tol:.0e})")
        exact_dev = float(np.abs(ue - ref).max())
        if not exact_dev <= 1e-9:
            notes.append(f"u_exact column is {exact_dev:.3e} off the reference")
        if not np.allclose(ae, np.abs(u - ue), rtol=1e-5, atol=1e-15):
            notes.append("abs_error column disagrees with |u - u_exact|")
        m = re.search(r"max error over t_1\.\.t_M = (\S+)", d["stdout"])
        reported = float(m.group(1)) if m else math.nan
        if not abs(reported - err) <= 1e-3 * err + ROUNDOFF_FLOOR:
            notes.append(f"reported max error {reported:.3e}, reference gives {err:.3e}")
        return Outcome(not notes, err, "; ".join(notes))


def relax_cli_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)

    def seeded():
        return round(rng.uniform(3.0, 7.0), 3), round(rng.uniform(0.5, 2.0), 3)

    ops = [
        RelaxCli(0.5, 5.0, 1.0, 176, 1e-4, workdir, anchor=True),
        RelaxCli(0.8, 5.0, 1.0, 176, 1e-4, workdir, anchor=True),
        RelaxCli(0.9, 5.0, 1.0, 176, 1e-4, workdir, anchor=True, builtin=True),
    ]
    for alpha, steps in ((0.5, 704), (0.5, 1760), (0.8, 704)):
        lam, mu = seeded()
        ops.append(RelaxCli(alpha, lam, mu, steps, 2e-5, workdir))
    ops += [
        # the Mittag-Leffler series cancels at z ~ -21: u is right, u_exact is not
        RelaxCli(0.5, 5.0, 20.0, 440, 5e-4, workdir, anchor=True,
                 fault="a: Mittag-Leffler series cancels, u_exact/abs_error wrong"),
        # the tail diverges to |u| ~ 5e10, below the absolute 1e12 blow-up limit
        RelaxCli(0.5, 5.0, 20.0, 880, 5e-4, workdir, anchor=True, blowup_ok=True,
                 fault="b: silent divergence below the 1e12 blow-up limit"),
    ]
    return ops


# ---------------------------------------------------------------------------
# tables: `tfode tables --which 1..5`

#: table -> (problem, alphas, lambdas, steps per column, NI, b, split_t0), as
#: published; all use N = 20, and the split ones n_tilde = 40 and mu = 1
TABLE_SPECS = {
    1: ("example2", (0.5,), (0.0, 2.0, 6.0), (10, 20, 40, 80, 160), 7, 1.0, None),
    2: ("example2", (1.0,), (0.0, 2.0, 6.0), (10, 20, 40, 80, 160), 6, 1.0, None),
    3: ("example2", (1.5,), (0.0, 2.0, 6.0), (10, 20, 40, 80, 160), 6, 1.0, None),
    4: ("example3", (0.2, 0.9, 1.8), (5.0,), (22, 44, 88, 176), 2, 1.1, 0.1),
    5: ("example3", (0.2, 0.9, 1.8), (10.0,), (22, 44, 88, 176), 2, 1.1, 0.1),
}


class TableCli(Op):
    """``tfode tables --which k``.  The check solves each row's problem again
    through the library, with the published parameters, and measures it
    against the references: the report must give the same error."""

    anchor = True

    def __init__(self, which, workdir):
        self.which = which
        spec = TABLE_SPECS[which]
        self.problem, self.alphas, self.lambdas, self.ms, self.ni, self.b, self.split_t0 = spec
        self.steps = len(self.alphas) * len(self.lambdas) * sum(self.ms)
        self.name = f"tables --which {which}"
        self.path = workdir / f"table{which}.csv"
        self.argv = ["tables", "--which", str(which), "--out", str(self.path)]
        # observed orders: near the design order NI on the smooth example2,
        # about 2 on the relaxation equation whatever NI is
        self.orders = (self.ni - 2.0, self.ni + 1.5) if self.problem == "example2" else (1.5, 2.5)

    def run(self, mods):
        return _call_cli(mods, self.argv)

    def collect(self, raw):
        return _collect_cli(raw, self.path)

    def _error(self, mods, alpha, lam, m):
        """Max error over t_1..t_M of the row's solve against the references."""
        config = mods.solver.SolverConfig(steps=m, n_interp=self.ni, n_quad=20,
                                          split_t0=self.split_t0, n_tilde=40)
        if self.problem == "example2":
            trace = mods.solver.solve(mods.problems.example2(alpha, lam, b=self.b), config)
            exact = reference.example2(alpha, lam, trace.times)
        else:
            trace = mods.solver.solve(mods.problems.example3(alpha, lam, mu=1.0, b=self.b), config)
            exact = reference.relaxation(alpha, lam, 1.0, trace.times)
        return float(np.abs(trace.values[1:] - exact[1:]).max())

    def check(self, out, mods):
        d = out.data
        if "exception" in d:
            return Outcome(False, note=d["exception"])
        if d["rc"] != 0:
            return Outcome(False, note=f"exit code {d['rc']}: {d['stderr'].strip()}")
        header, rows = _read_csv(d["text"])
        expected = [(a, l, m) for a in self.alphas for l in self.lambdas for m in self.ms]
        if header != ["alpha", "lambda", "tau", "max_error", "order"] or len(rows) != len(expected):
            return Outcome(False, note="report CSV has the wrong shape")
        notes, worst = [], 0.0
        for col in range(len(expected) // len(self.ms)):
            errs = []
            for i in range(len(self.ms)):
                k = col * len(self.ms) + i
                alpha, lam, m = expected[k]
                row = rows[k]
                if not (float(row[0]) == alpha and float(row[1]) == lam
                        and math.isclose(float(row[2]), self.b / m, rel_tol=1e-9)):
                    return Outcome(False, note=f"row {k} is not alpha={alpha} lambda={lam} M={m}")
                err = self._error(mods, alpha, lam, m)
                reported = float(row[3])
                if not abs(reported - err) <= 1e-5 * err + 1e-13:
                    notes.append(f"alpha={alpha} lambda={lam} M={m}: reported {reported:.6e}, reference {err:.6e}")
                errs.append(err)
                worst = max(worst, err)
            lo, hi = self.orders
            for i, (coarse, fine) in enumerate(zip(errs, errs[1:])):
                if fine > ROUNDOFF_FLOOR:
                    order = math.log2(coarse / fine)
                    if not lo <= order <= hi:
                        notes.append(f"column {col} row {i + 1}: order {order:.2f} outside [{lo}, {hi}]")
        return Outcome(not notes, worst, "; ".join(notes))


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    ops: list[Op]
    rules: list[tuple[float, float, int]]  # the Lobatto rules its solves build
    uses_cli: bool


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name == "tables":
        alphas = sorted({a for spec in TABLE_SPECS.values() for a in spec[1]})
        return Workload([TableCli(k, workdir) for k in TABLE_SPECS], _rules(alphas, split=True), True)
    if name == "long-solve":
        return Workload(long_solve_ops(seed, workdir), _rules([0.5], split=False), False)
    if name == "relax-cli":
        return Workload(relax_cli_ops(seed, workdir), _rules([0.5, 0.8, 0.9], split=True), True)
    raise ValueError(f"unknown workload {name!r}")


def _rules(alphas, split):
    rules = [(alpha - 1.0, 0.0, 20) for alpha in alphas]
    return rules + [(0.0, 0.0, 40)] if split else rules


WORKLOADS = ("tables", "long-solve", "relax-cli")
