"""Command-line interface: single solves, config-driven sweeps, canned tables.

Exit codes: 0 success, 2 configuration error, 3 solver blow-up,
4 expression error: a parse error, or an expression right-hand side or
exact solution that fails to evaluate (division by zero, overflow, a
domain error or a complex value).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import expr as exprmod
from .harness import (
    OPTION_KEYS,
    SPEC_KEYS,
    Sweep,
    report_csv_text,
    run_sweep,
    table_sweep,
    write_trace_csv,
)
from .problems import BUILTIN_PREFIX, problem_from_spec
from .solver import BlowUpError, Problem, SolverConfig, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_PARSE = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="tfode",
        description="Jacobi predictor-corrector solver for tempered fractional ODEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is left to problem_from_spec and SolverConfig
    ps = sub.add_parser("solve", help="solve one problem and write the trace CSV",
                        argument_default=argparse.SUPPRESS)
    ps.add_argument("--kind", choices=["caputo", "rl"])
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ps.add_argument("--init", type=str, help="comma-separated initial data c0[,c1]")
    ps.add_argument("--rhs", type=str, required=True,
                    help="expression in t,u,alpha,lambda or 'builtin:NAME'")
    ps.add_argument("--a", type=float)
    ps.add_argument("--b", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--N", dest="n_quad", type=int)
    ps.add_argument("--NI", dest="n_interp", type=int, required=True)
    ps.add_argument("--split-t0", dest="split_t0", type=float)
    ps.add_argument("--ntilde", dest="n_tilde", type=int)
    ps.add_argument("--exact", type=str,
                    help="expression in t,alpha,lambda or 'builtin:NAME'")
    ps.add_argument("--mu", type=float, help="decay rate of builtin relax")
    ps.add_argument("--start-refine", dest="start_refine", type=int)
    ps.add_argument("--corrector-iters", dest="corrector_iters", type=int)
    ps.add_argument("--exact-start", dest="exact_start", action="store_true")
    ps.add_argument("--out", type=str, default="trace.csv")

    # each is a key of _SWEEP_KEYS, which it overrides in the config file
    pw = sub.add_parser("sweep", help="run a convergence sweep from a JSON config",
                        argument_default=argparse.SUPPRESS)
    pw.add_argument("--config", type=str, required=True)
    pw.add_argument("--out", type=str)
    pw.add_argument("--N", type=int)
    pw.add_argument("--NI", type=int)
    pw.add_argument("--start-refine", dest="start_refine", type=int)

    pt = sub.add_parser("tables", help="reproduce one of the reference tables 1-5")
    pt.add_argument("--which", type=int, choices=[1, 2, 3, 4, 5], required=True)
    pt.add_argument("--out", type=str, default=None)
    return parser


def _parse_init(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse --init {text!r}") from None


def _problem_from_args(args) -> Problem:
    spec = {key: value for key, value in vars(args).items() if key in SPEC_KEYS}
    if "init" in spec:
        spec["init"] = _parse_init(spec["init"])
    return problem_from_spec(args.alpha, args.lam, **spec)


def _cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    options = {key: value for key, value in vars(args).items() if key in OPTION_KEYS}
    trace = solve(problem, SolverConfig(steps=args.steps, **options))
    # the exact column is evaluated before the CSV is opened, so an exact
    # solution that fails to evaluate leaves no truncated file behind
    max_error = None if problem.exact is None else trace.max_error()
    with open(args.out, "w", newline="") as fh:
        write_trace_csv(fh, trace)
    if max_error is not None:
        print(f"wrote {args.out}; max error over t_1..t_M = {max_error:.6e}")
    else:
        print(f"wrote {args.out}")
    return EXIT_OK


def _json(kind: type, *, null: bool = False):
    """The check of a config value of ``kind``: an int passes for a float,
    a list of numbers gives a tuple, and null passes where ``null`` is set."""
    def check(value):
        if kind is tuple and type(value) is list:
            return tuple(map(_json(float), value))
        if type(value) is kind or (value is None and null):
            return value
        if kind is float and type(value) is int:
            return float(value)
        wanted = "a list of numbers" if kind is tuple else kind.__name__
        raise TypeError(f"expected {wanted}, got {json.dumps(value)}")
    return check


#: Each key of a sweep config, and each flag of ``tfode sweep`` but
#: --config: the Sweep keyword it gives and the check of its value.
_SWEEP_KEYS = {
    "problem": ("rhs", lambda name: BUILTIN_PREFIX + _json(str)(name)),
    "rhs": ("rhs", _json(str)), "exact": ("exact", _json(str, null=True)),
    "kind": ("kind", _json(str)), "init": ("init", _json(tuple, null=True)),
    "a": ("a", _json(float)), "b": ("b", _json(float)), "T": ("b", _json(float)),
    "mu": ("mu", _json(float)), "alphas": ("alphas", _json(tuple)),
    "lambdas": ("lambdas", _json(tuple)), "taus": ("taus", _json(tuple)),
    "N": ("n_quad", _json(int)), "NI": ("n_interp", _json(int)),
    "split_t0": ("split_t0", _json(float, null=True)), "ntilde": ("n_tilde", _json(int)),
    "start_refine": ("start_refine", _json(int)),
    "corrector_iters": ("corrector_iters", _json(int)),
    "exact_start": ("exact_start", _json(bool)), "out": ("out", _json(str)),
}


def _sweep_from_config(args) -> tuple[Sweep, str]:
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("sweep config must be a JSON object")
    flags = {key: value for key, value in vars(args).items() if key in _SWEEP_KEYS}
    kwargs = {}
    for key, value in {**raw, **flags}.items():
        if key not in _SWEEP_KEYS:
            raise ValueError(f"unknown sweep config key {key!r}")
        name, convert = _SWEEP_KEYS[key]
        if name in kwargs:
            raise ValueError(f"sweep config key {key!r} gives {name} a second time")
        try:
            kwargs[name] = convert(value)
        except TypeError as exc:
            raise ValueError(f"sweep config key {key!r}: {exc}") from None
    out = kwargs.pop("out", "report.csv")
    return Sweep(**kwargs), out


def _cmd_report(args) -> int:
    """``tfode sweep`` and ``tfode tables``: run the sweep, write its report."""
    if args.command == "tables":
        sweep, out = table_sweep(args.which), args.out or f"table{args.which}.csv"
    else:
        sweep, out = _sweep_from_config(args)
    wall_ms = args.command == "sweep"
    reports = run_sweep(sweep)
    text = report_csv_text(reports, wall_ms=wall_ms)
    with open(out, "w", newline="") as fh:
        fh.write(text)
    rows = f" ({sum(len(r.rows) for r in reports)} rows)" if wall_ms else ""
    print(f"wrote {out}{rows}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _cmd_solve(args) if args.command == "solve" else _cmd_report(args)
    except exprmod.ExprError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BlowUpError as exc:
        print(f"solver blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
