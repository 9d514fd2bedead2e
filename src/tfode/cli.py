"""Command-line interface: single solves, config-driven sweeps, canned tables.

Exit codes: 0 success, 2 configuration error, 3 solver blow-up,
4 expression error: a parse error, or an expression right-hand side that
fails to evaluate (division by zero, overflow, a domain error or a complex
value).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import expr as exprmod
from .harness import (
    Sweep,
    report_csv_text,
    run_sweep,
    table_sweep,
    write_trace_csv,
)
from .problems import problem_from_spec
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

    ps = sub.add_parser("solve", help="solve one problem and write the trace CSV")
    ps.add_argument("--kind", choices=["caputo", "rl"], default="caputo")
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ps.add_argument("--init", type=str, default=None,
                    help="comma-separated initial data c0[,c1]")
    ps.add_argument("--rhs", type=str, required=True,
                    help="expression in t,u,alpha,lambda or 'builtin:NAME'")
    ps.add_argument("--a", type=float, default=0.0)
    ps.add_argument("--b", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--N", dest="n_quad", type=int, default=20)
    ps.add_argument("--NI", dest="n_interp", type=int, required=True)
    ps.add_argument("--split-t0", dest="split_t0", type=float, default=None)
    ps.add_argument("--ntilde", dest="n_tilde", type=int, default=40)
    ps.add_argument("--exact", type=str, default=None,
                    help="expression in t,alpha,lambda or 'builtin:NAME'")
    ps.add_argument("--mu", type=float, default=1.0, help="decay rate of builtin relax")
    ps.add_argument("--start-refine", dest="start_refine", type=int, default=64)
    ps.add_argument("--corrector-iters", dest="corrector_iters", type=int, default=1)
    ps.add_argument("--exact-start", dest="exact_start", action="store_true")
    ps.add_argument("--out", type=str, default="trace.csv")

    pw = sub.add_parser("sweep", help="run a convergence sweep from a JSON config")
    pw.add_argument("--config", type=str, required=True)
    pw.add_argument("--out", type=str, default=None)
    pw.add_argument("--N", dest="n_quad", type=int, default=None)
    pw.add_argument("--NI", dest="n_interp", type=int, default=None)
    pw.add_argument("--start-refine", dest="start_refine", type=int, default=None)

    pt = sub.add_parser("tables", help="reproduce one of the reference tables 1-5")
    pt.add_argument("--which", type=int, choices=[1, 2, 3, 4, 5], required=True)
    pt.add_argument("--out", type=str, default=None)
    return parser


def _parse_init(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse --init {text!r}") from None


def _problem_from_args(args) -> Problem:
    return problem_from_spec(
        args.alpha, args.lam, args.rhs, b=args.b, exact=args.exact, kind=args.kind,
        init=_parse_init(args.init), a=args.a, mu=args.mu,
    )


def _cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    config = SolverConfig(
        steps=args.steps,
        n_interp=args.n_interp,
        n_quad=args.n_quad,
        start_refine=args.start_refine,
        split_t0=args.split_t0,
        n_tilde=args.n_tilde,
        corrector_iters=args.corrector_iters,
        exact_start=args.exact_start,
    )
    trace = solve(problem, config)
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


_SWEEP_KEYS = {
    "problem": "problem", "rhs": "rhs", "exact": "exact", "kind": "kind",
    "init": "init", "a": "a", "b": "b", "T": "b", "mu": "mu",
    "alphas": "alphas", "lambdas": "lambdas", "taus": "taus",
    "N": "n_quad", "NI": "n_interp", "split_t0": "split_t0",
    "ntilde": "n_tilde", "start_refine": "start_refine",
    "corrector_iters": "corrector_iters", "exact_start": "exact_start",
}


def _sweep_from_config(path: str, args) -> tuple[Sweep, str]:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("sweep config must be a JSON object")
    out = raw.pop("out", "report.csv")
    kwargs = {}
    for key, value in raw.items():
        if key not in _SWEEP_KEYS:
            raise ValueError(f"unknown sweep config key {key!r}")
        kwargs[_SWEEP_KEYS[key]] = value
    for name in ("n_quad", "n_interp", "start_refine"):
        override = getattr(args, name, None)
        if override is not None:
            kwargs[name] = override
    if "init" in kwargs and kwargs["init"] is not None:
        kwargs["init"] = tuple(kwargs["init"])
    sweep = Sweep(**kwargs)
    return sweep, (args.out or out)


def _cmd_sweep(args) -> int:
    sweep, out = _sweep_from_config(args.config, args)
    reports = run_sweep(sweep)
    text = report_csv_text(reports, wall_ms=True)
    with open(out, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {out} ({sum(len(r.rows) for r in reports)} rows)")
    return EXIT_OK


def _cmd_tables(args) -> int:
    sweep = table_sweep(args.which)
    reports = run_sweep(sweep)
    out = args.out or f"table{args.which}.csv"
    text = report_csv_text(reports, wall_ms=False)
    with open(out, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_tables(args)
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
