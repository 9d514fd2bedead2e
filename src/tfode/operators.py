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
one place from ``[u, u', ..., u^(n)]``: the caller's ``derivs``, or, up to
order 2, second-order differences.

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

#: Step of the numerical-derivative fallback's differences.  Second order,
#: so the fallback caps operator accuracy near 1e-7.
FD_STEP = 1e-5

Func = Callable[[float], float]


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

    Raises ``ValueError``, naming the quadrature node, where ``u`` is not
    finite at one; the rule has a node at ``a``.
    """
    if order <= 0.0:
        raise ValueError(f"integral order must be positive, got {order}")
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
        vals = np.array([u(si) for si in s])
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise ValueError(
            f"integrand is not finite at the quadrature node s = {s[bad[0]]:.17g}: "
            f"{float(vals[bad[0]])!r}"
        )
    return half**order * rgamma(order) * float(rule.weights @ (damp * vals))


def _fd_derivatives(u: Func, order: int, a: float, h: float = FD_STEP) -> list[Func]:
    """Second-order difference derivative callables of ``u`` up to ``order``
    (1 or 2), which never evaluate ``u`` below the lower terminal ``a``.

    Central differences, or one-sided forward ones at points within ``h``
    of ``a``.
    """

    def d1(s: float) -> float:
        if s - h < a:
            return (-3.0 * u(s) + 4.0 * u(s + h) - u(s + 2.0 * h)) / (2.0 * h)
        return (u(s + h) - u(s - h)) / (2.0 * h)

    def d2(s: float) -> float:
        if s - h < a:
            return (2.0 * u(s) - 5.0 * u(s + h) + 4.0 * u(s + 2.0 * h) - u(s + 3.0 * h)) / (h * h)
        return (u(s + h) - 2.0 * u(s) + u(s - h)) / (h * h)

    return [d1, d2][:order]


def _derivatives(
    u: Func, alpha: float, a: float, derivs: Sequence[Func] | None, fd_fallback: bool
) -> list[Func]:
    """Check the order ``alpha`` and return ``[u, u', ..., u^(n)]`` with
    ``n = ceil(alpha)``: the given ``derivs``, or the difference fallback's."""
    n = math.ceil(alpha)
    if alpha <= 0.0 or alpha == n:
        raise ValueError(f"derivative order must be non-integer and positive, got {alpha}")
    if derivs is not None:
        if len(derivs) < n:
            raise ValueError(f"need derivatives up to order {n}, got {len(derivs)}")
        return [u, *derivs[:n]]
    if not fd_fallback:
        raise ValueError("derivatives of u are required; pass derivs= or enable fd_fallback")
    if n > 2:
        raise ValueError(f"the difference fallback gives derivatives up to order 2 only; "
                         f"alpha={alpha} needs order {n}, so pass derivs=")
    return [u, *_fd_derivatives(u, n, a)]


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
    fd_fallback: bool = True,
) -> float:
    """Caputo tempered fractional derivative of order ``alpha`` at ``t > a``.

    With ``n = ceil(alpha)`` this is the tempered integral of order
    ``n - alpha`` applied to ``(d/dt + lam)^n u``, expanded by the Leibniz
    rule over the supplied derivatives of ``u``, or, when ``fd_fallback``
    is enabled, over difference approximations (one-sided near ``a``, up to
    order 2, so ``alpha < 2``).  Raises ``ValueError`` where that integrand
    is not finite at a node of the rule, as where a supplied derivative of
    ``u`` is infinite at ``a``.  The fallback cannot see such a derivative:
    its one-sided difference at ``a`` is finite, so for ``u = sqrt`` the
    value is silently wrong (14% at ``alpha = 0.5``); pass ``derivs`` for
    such ``u``.
    """
    return _caputo(_derivatives(u, alpha, a, derivs, fd_fallback), t, alpha, lam, a, n_quad)


def rl_derivative(
    u: Func,
    t: float,
    *,
    alpha: float,
    lam: float = 0.0,
    a: float = 0.0,
    derivs: Sequence[Func] | None = None,
    n_quad: int = 40,
    fd_fallback: bool = True,
) -> float:
    """Riemann-Liouville tempered fractional derivative at ``t > a``.

    Equals the Caputo value plus the lower-terminal terms

        sum_{k<n} e^{-lam (t-a)} (t-a)^{k-alpha} / Gamma(k-alpha+1)
                  * [(d/dt + lam)^k u](a),

    which avoids differentiating a singular integral numerically.  Requires
    ``e^{lam t} u`` to be n-fold absolutely continuous near ``a``.
    """
    ds = _derivatives(u, alpha, a, derivs, fd_fallback)
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
    fd_fallback: bool = True,
) -> float:
    """Variant of the RL tempered derivative with the zero-mode removed.

    For ``0 < alpha < 1`` returns ``rl - lam^alpha u(t)``; for
    ``1 < alpha < 2`` returns ``rl - alpha lam^(alpha-1) u'(t) - lam^alpha u(t)``.
    The (1, 2) branch needs the analytic first derivative of ``u``.
    """
    # integer and non-positive orders fail in rl_derivative's check
    if alpha > 2.0 and alpha != math.ceil(alpha):
        raise ValueError("variant derivative is defined for orders in (0,1) or (1,2)")
    if 1.0 < alpha < 2.0 and (derivs is None or len(derivs) < 1):
        raise ValueError("orders in (1,2) require the analytic first derivative")
    out = rl_derivative(u, t, alpha=alpha, lam=lam, a=a, derivs=derivs, n_quad=n_quad,
                        fd_fallback=fd_fallback) - lam**alpha * u(t)
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
