"""Built-in benchmark problems with closed-form solutions.

``example2`` is a Caputo problem manufactured so that the exact solution is
``e^{-lam t} (t^8 + 9/4 t^alpha)``; its RHS is smooth along the solution, so
the stepper attains its full design order.  ``example3`` is the tempered
relaxation equation ``D^(alpha,lam) u = -mu u`` whose solution
``e^{-lam t} E_{alpha,1}(-mu t^alpha)`` has unbounded low-order derivatives
at t = 0 and is the standard target for the split-interval scheme.

:func:`problem_from_spec` builds a :class:`Problem` from the fields the
command line and the sweep configurations give: a built-in name or
expressions, initial data, interval and decay rate.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from . import expr
from .solver import CAPUTO, Problem
from .specfun import gamma, mittag_leffler

__all__ = [
    "exact_example2",
    "exact_example3",
    "example2",
    "example3",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
    "BUILTIN_PREFIX",
    "problem_from_spec",
]


def exact_example2(alpha: float, lam: float, t):
    """Closed-form solution of ``example2``: e^{-lam t} (t^8 + 9/4 t^alpha),
    at a time or a numpy array of times."""
    if np.any(np.less(t, 0.0)):
        raise ValueError("t must be nonnegative")
    return np.exp(-lam * t) * (t**8 + 2.25 * t**alpha)


def exact_example3(alpha: float, lam: float, mu: float, t):
    """Closed-form solution of ``example3``: e^{-lam t} E_{alpha,1}(-mu t^alpha),
    at a time or a numpy array of times."""
    if np.any(np.less(t, 0.0)):
        raise ValueError("t must be nonnegative")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    return np.exp(-lam * t) * mittag_leffler(alpha, 1.0, -mu * t**alpha)


def example2(alpha: float, lam: float, b: float = 1.0) -> Problem:
    """Caputo problem with the manufactured solution of :func:`exact_example2`.

    RHS: ``e^{-lam t} (G(9)/G(9-alpha) t^(8-alpha) + t^8 + 9/4 t^alpha
    + 9/4 G(alpha+1)) - u`` with zero initial data.
    """
    c1 = gamma(9.0) / gamma(9.0 - alpha)
    c2 = 2.25 * gamma(alpha + 1.0)

    def rhs(t: float, u: float) -> float:
        return (
            math.exp(-lam * t) * (c1 * t ** (8.0 - alpha) + t**8 + 2.25 * t**alpha + c2)
            - u
        )

    def forcing(t):
        return np.exp(-lam * t) * (c1 * t ** (8.0 - alpha) + t**8 + 2.25 * t**alpha + c2)

    n = max(1, math.ceil(alpha))
    return Problem(
        kind=CAPUTO,
        alpha=alpha,
        lam=lam,
        a=0.0,
        b=b,
        init=(0.0,) * n,
        rhs=rhs,
        exact=lambda t: exact_example2(alpha, lam, t),
        affine=(forcing, lambda t: -1.0),
    )


def example3(alpha: float, lam: float, mu: float = 1.0, b: float = 1.1) -> Problem:
    """Tempered relaxation equation ``D^(alpha,lam) u = -mu u``.

    Initial data ``e^{lam t} u|_0 = 1`` (and zero first derivative for
    ``alpha`` in (1, 2)).
    """
    def rhs(t: float, u: float) -> float:
        return -mu * u

    n = max(1, math.ceil(alpha))
    init = (1.0,) if n == 1 else (1.0, 0.0)
    return Problem(
        kind=CAPUTO,
        alpha=alpha,
        lam=lam,
        a=0.0,
        b=b,
        init=init,
        rhs=rhs,
        exact=lambda t: exact_example3(alpha, lam, mu, t),
        affine=(lambda t: 0.0, lambda t: -mu),
    )


BUILTIN_PROBLEMS = {
    "example2": example2,
    "example3": example3,
    "relax": example3,  # alias with configurable mu
}


def builtin_problem(name: str, alpha: float, lam: float, **kwargs) -> Problem:
    """Instantiate a built-in problem by registry name."""
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin problem {name!r}; available: "
            f"{', '.join(sorted(BUILTIN_PROBLEMS))}"
        ) from None
    return factory(alpha, lam, **kwargs)


#: Marks a right-hand side or exact solution given by built-in name.
BUILTIN_PREFIX = "builtin:"


#: The built-ins that take a decay rate ``mu``.
_MU_BUILTINS = frozenset({"example3", "relax"})


def _builtin(name: str, alpha: float, lam: float, b: float, mu: float | None) -> Problem:
    kwargs = {"b": b}
    if mu is not None and name in _MU_BUILTINS:
        kwargs["mu"] = mu
    return builtin_problem(name, alpha, lam, **kwargs)


def _builtin_name(text: str) -> str | None:
    return text[len(BUILTIN_PREFIX):] if text.startswith(BUILTIN_PREFIX) else None


#: What evaluating a compiled expression, and float() of its value, raises
#: when the value is not a real number: division by zero, overflow, a math
#: domain error, or a complex value.
_EVAL_FAILURES = (ArithmeticError, TypeError, ValueError)


def _exact_from_spec(exact: str, alpha: float, lam: float, b: float, mu: float | None):
    """The exact solution ``exact`` names: a built-in's, or an expression in
    t, alpha, lambda, which also takes a numpy array of times."""
    name = _builtin_name(exact)
    if name is not None:
        return _builtin(name, alpha, lam, b, mu).exact
    tree = expr.parse(exact)
    g = expr.compile(tree, ("t", "alpha", "lambda"))
    g_array = expr.compile(tree, ("t", "alpha", "lambda"), array=True)

    def exact_fn(t):
        if isinstance(t, np.ndarray):
            return g_array(t, alpha, lam)
        try:
            return float(g(t, alpha, lam))
        except _EVAL_FAILURES as exc:
            raise expr.EvalError(f"exact solution {exact!r} at t = {t:.6g}: {exc}") from None

    return exact_fn


def problem_from_spec(
    alpha: float,
    lam: float,
    rhs: str,
    *,
    b: float,
    exact: str | None = None,
    kind: str = CAPUTO,
    init: tuple[float, ...] | None = None,
    a: float = 0.0,
    mu: float | None = None,
) -> Problem:
    """A problem from its specification as the CLI and sweeps give it.

    ``rhs`` is ``builtin:NAME`` or an expression in t, u, alpha, lambda;
    ``mu`` is the decay rate of the built-in ``example3``/``relax``, which
    has its default, and raises ``ValueError`` unless ``rhs`` or ``exact``
    names one of them.  ``exact`` is ``builtin:NAME`` (that problem's
    solution) or an expression in t, alpha, lambda; given, it replaces a
    built-in's own.  An ``a``, ``init`` or ``kind`` that differs from a
    built-in's replaces it and drops the built-in's exact solution, with a
    note on stderr.  For an expression ``rhs``, ``init`` defaults to zeros.
    Expressions are parsed and compiled here, once; an expression whose
    value is not a real number raises :class:`expr.EvalError` when called.
    A right-hand side that is affine in u (:func:`expr.affine_split`) also
    gives the problem's ``affine`` parts, evaluated with numpy; a built-in
    keeps its own, also when its data are overridden.
    An exact-solution expression also takes a numpy array of times, which
    it evaluates by numpy's rules (see :mod:`tfode.expr`).
    """
    names = {_builtin_name(text) for text in (rhs, exact) if text is not None}
    if mu is not None and not names & _MU_BUILTINS:
        raise ValueError(
            f"mu is read only by builtin {' and '.join(sorted(_MU_BUILTINS))}, and "
            f"neither rhs {rhs!r} nor exact {exact!r} names one of them"
        )
    name = _builtin_name(rhs)
    if name is not None:
        problem = _builtin(name, alpha, lam, b, mu)
        changed = dataclasses.replace(
            problem, kind=kind, a=a, init=problem.init if init is None else init,
            exact=None if exact is None else _exact_from_spec(exact, alpha, lam, b, mu),
        )
        overrides = [
            f for f in ("a", "init", "kind") if getattr(changed, f) != getattr(problem, f)
        ]
        if exact is not None:
            return changed
        if not overrides:
            return problem
        # changed data mean the bundled closed-form solution no longer
        # applies; drop it rather than report errors against the wrong one
        print(
            f"note: overriding {', '.join(overrides)} of builtin "
            f"{name!r}; its exact solution is discarded",
            file=sys.stderr,
        )
        return changed

    rhs_tree = expr.parse(rhs)
    f = expr.compile(rhs_tree, ("t", "u", "alpha", "lambda"))
    parts = expr.affine_split(rhs_tree)
    affine = None
    if parts is not None:
        p, q = (expr.compile(part, ("t", "alpha", "lambda"), array=True) for part in parts)
        affine = (lambda t: p(t, alpha, lam)), (lambda t: q(t, alpha, lam))

    def rhs_fn(t: float, u: float) -> float:
        # float() rejects a complex value, e.g. a negative base to a
        # fractional power, here rather than deep inside the solver
        try:
            return float(f(t, u, alpha, lam))
        except _EVAL_FAILURES as exc:
            raise expr.EvalError(
                f"right-hand side {rhs!r} at t = {t:.6g}, u = {u:.6g}: {exc}"
            ) from None

    exact_fn = None if exact is None else _exact_from_spec(exact, alpha, lam, b, mu)
    if init is None:
        init = (0.0,) * max(1, math.ceil(alpha))
    return Problem(
        kind=kind, alpha=alpha, lam=lam, a=a, b=b, init=init, rhs=rhs_fn, exact=exact_fn,
        affine=affine,
    )
