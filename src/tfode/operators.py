"""Numerical tempered fractional calculus operators.

All operators act on scalar callables ``u(t)`` with a lower terminal ``a``
and tempering rate ``lam >= 0``:

* ``tempered_integral``     -- (1/Gamma(s)) int_a^t e^{-lam (t-s)} (t-s)^{s-1} u ds
* ``caputo_derivative``     -- tempered derivative with differentiation inside
  the singular integral
* ``rl_derivative``         -- Riemann-Liouville flavour: the Caputo value
  plus the n lower-terminal terms, each tempered from ``a``,
  e^{-lam (t-a)} (t-a)^{k-alpha} / Gamma(k-alpha+1) [(d/dt + lam)^k u](a)
* ``variant_rl_derivative`` -- RL flavour minus the zero-frequency terms

Both derivatives, with ``n = ceil(alpha)``, are built on the tempered
derivatives (d/dt + lam)^k u = sum_j C(k, j) lam^(k-j) u^(j), evaluated in
one place from ``u`` and the caller's ``derivs = [u', ..., u^(n)]``, which
are required.

Integrals are mapped to [-1, 1] and evaluated with a Gauss-Lobatto rule
whose Jacobi weight absorbs the kernel singularity, so accuracy is spectral
in ``n_quad`` for smooth integrands.  All functions are pure.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .quadrature import gauss_lobatto
from .specfun import gamma, rgamma

__all__ = [
    "tempered_integral",
    "caputo_derivative",
    "rl_derivative",
    "variant_rl_derivative",
    "tempered_power_rule",
    "laplace_symbol_integral",
    "laplace_symbol_caputo",
]

Func = Callable[[float], float]


def _at(u: Func, s: float) -> float:
    """``u(s)`` at a quadrature node ``s``, or a ``ValueError`` naming the node
    where ``u`` raises an arithmetic or domain error there or is not finite."""
    try:
        val = u(s)
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"integrand raises at the quadrature node s = {s:.17g}: {exc!r}") from exc
    if not np.isfinite(val):
        raise ValueError(f"integrand is not finite at the quadrature node s = {s:.17g}: {val}")
    return val


def tempered_integral(
    u: Func,
    t: float,
    *,
    order: float,
    lam: float = 0.0,
    a: float = 0.0,
    n_quad: int = 40,
) -> float:
    """Tempered fractional integral of ``u`` of order ``order > 0`` at ``t > a``.

    Raises ``ValueError`` where ``order``, ``t`` or ``a`` is not finite or
    ``lam`` is not finite and nonnegative, and, naming the quadrature node,
    where ``u`` is not finite at one or raises an ``ArithmeticError`` or
    ``ValueError`` there; the rule has a node at ``a``.
    """
    if not 0.0 < order < math.inf:
        raise ValueError(f"integral order must be positive and finite, got {order}")
    for name, x in (("evaluation point t", t), ("lower terminal a", a)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"tempering rate must be finite and nonnegative, got {lam}")
    if t <= a:
        raise ValueError(f"evaluation point t={t} must exceed the lower terminal a={a}")
    if n_quad < 2:
        raise ValueError("n_quad must be at least 2")
    rule = gauss_lobatto(order - 1.0, 0.0, n_quad)
    half = 0.5 * (t - a)
    s = half * (rule.nodes + 1.0) + a
    damp = np.exp(lam * half * (rule.nodes - 1.0))
    # the nodes are numpy floats, whose overflow or pole gives inf or nan here
    with np.errstate(all="ignore"):
        vals = np.array([_at(u, si) for si in s])
    return half**order * rgamma(order) * float(rule.weights @ (damp * vals))


def _derivatives(u: Func, alpha: float, derivs: Sequence[Func] | None) -> list[Func]:
    """Check the order ``alpha`` and return ``[u, u', ..., u^(n)]`` with
    ``n = ceil(alpha)`` from the caller's ``derivs``."""
    if not (math.isfinite(alpha) and alpha > 0.0) or alpha == math.ceil(alpha):
        raise ValueError(f"derivative order must be non-integer and positive, got {alpha}")
    n = math.ceil(alpha)
    got = 0 if derivs is None else len(derivs)
    if got < n:
        raise ValueError(f"need derivatives up to order {n}, got {got}")
    return [u, *derivs[:n]]


def _tempered(ds: Sequence[Func], k: int, lam: float, s: float) -> float:
    """``((d/ds + lam)^k u)(s) = sum_j C(k, j) lam^(k-j) u^(j)(s)`` from
    ``ds = [u, u', ...]``."""
    return sum(math.comb(k, j) * lam ** (k - j) * ds[j](s) for j in range(k + 1))


def _caputo(
    ds: Sequence[Func], t: float, alpha: float, lam: float, a: float, n_quad: int
) -> float:
    """The Caputo derivative from ``ds = [u, ..., u^(n)]``: the tempered
    integral of order ``n - alpha`` of ``(d/ds + lam)^n u``."""
    n = len(ds) - 1
    integrand = lambda s: _tempered(ds, n, lam, s)
    return tempered_integral(integrand, t, order=n - alpha, lam=lam, a=a, n_quad=n_quad)


def caputo_derivative(
    u: Func,
    t: float,
    *,
    alpha: float,
    lam: float = 0.0,
    a: float = 0.0,
    derivs: Sequence[Func] | None = None,
    n_quad: int = 40,
) -> float:
    """Caputo tempered fractional derivative of order ``alpha`` at ``t > a``.

    With ``n = ceil(alpha)`` this is the tempered integral of order
    ``n - alpha`` applied to ``(d/dt + lam)^n u``, expanded by the Leibniz
    rule over ``derivs = [u', ..., u^(n)]``, which the caller must supply:
    a missing or short ``derivs`` raises ``ValueError``.  So does an
    integrand that is not finite or raises at a node of the rule, as where
    a supplied derivative of ``u`` is infinite at ``a``; the error names
    the node.
    """
    return _caputo(_derivatives(u, alpha, derivs), t, alpha, lam, a, n_quad)


def rl_derivative(
    u: Func,
    t: float,
    *,
    alpha: float,
    lam: float = 0.0,
    a: float = 0.0,
    derivs: Sequence[Func] | None = None,
    n_quad: int = 40,
) -> float:
    """Riemann-Liouville tempered fractional derivative at ``t > a``.

    Equals the Caputo value plus the lower-terminal terms

        sum_{k<n} e^{-lam (t-a)} (t-a)^{k-alpha} / Gamma(k-alpha+1)
                  * [(d/dt + lam)^k u](a),

    which avoids differentiating a singular integral numerically.  Requires
    ``e^{lam t} u`` to be n-fold absolutely continuous near ``a``.
    """
    ds = _derivatives(u, alpha, derivs)
    return _caputo(ds, t, alpha, lam, a, n_quad) + sum(
        math.exp(-lam * (t - a)) * (t - a) ** (k - alpha) * rgamma(k - alpha + 1)
        * _tempered(ds, k, lam, a)
        for k in range(len(ds) - 1)
    )


def variant_rl_derivative(
    u: Func,
    t: float,
    *,
    alpha: float,
    lam: float = 0.0,
    a: float = 0.0,
    derivs: Sequence[Func] | None = None,
    n_quad: int = 40,
) -> float:
    """Variant of the RL tempered derivative with the zero-mode removed.

    For ``0 < alpha < 1`` returns ``rl - lam^alpha u(t)``; for
    ``1 < alpha < 2`` returns ``rl - alpha lam^(alpha-1) u'(t) - lam^alpha u(t)``.
    """
    # integer, non-positive and non-finite orders, and a short derivs,
    # fail in rl_derivative's checks
    if 2.0 < alpha < math.inf and alpha != math.ceil(alpha):
        raise ValueError("variant derivative is defined for orders in (0,1) or (1,2)")
    out = rl_derivative(u, t, alpha=alpha, lam=lam, a=a, derivs=derivs,
                        n_quad=n_quad) - lam**alpha * u(t)
    if alpha > 1.0:
        out -= alpha * lam ** (alpha - 1.0) * derivs[0](t)
    return out


def tempered_power_rule(alpha: float, lam: float, mu: float, t: float) -> float:
    """Exact tempered RL derivative of ``e^{-lam t} t^mu`` on the terminal a=0.

    Returns ``Gamma(mu+1)/Gamma(mu-alpha+1) e^{-lam t} t^(mu-alpha)``; the
    reciprocal gamma makes the value 0 when ``mu - alpha`` is a negative
    integer.
    """
    if mu <= -1.0:
        raise ValueError(f"power exponent must exceed -1, got {mu}")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return gamma(mu + 1.0) * rgamma(mu - alpha + 1.0) * math.exp(-lam * t) * t ** (mu - alpha)


def laplace_symbol_integral(sigma: float, lam: float, s: float) -> float:
    """Laplace multiplier ``(lam + s)^-sigma`` of the tempered integral."""
    if s + lam <= 0.0:
        raise ValueError(f"need s + lam > 0, got {s + lam}")
    return (lam + s) ** (-sigma)


def laplace_symbol_caputo(
    alpha: float, lam: float, s: float, init: Sequence[float]
) -> tuple[float, float]:
    """Laplace symbol of the Caputo tempered derivative, split into parts.

    Returns ``(multiplier, subtraction)`` so the transform of the derivative
    of a function with transform ``u~(s)`` is ``multiplier * u~(s) - subtraction``.
    ``init[k]`` holds ``[d^k/dt^k (e^{lam t} u)]`` at 0.
    """
    if s + lam <= 0.0:
        raise ValueError(f"need s + lam > 0, got {s + lam}")
    mult = (s + lam) ** alpha
    sub = sum(
        (s + lam) ** (alpha - k - 1) * ck for k, ck in enumerate(init)
    )
    return mult, float(sub)
