"""Shared property-check helpers used by the operator and acceptance tests."""

import math
import os
from pathlib import Path

from tfode.operators import rl_derivative, tempered_integral
from tfode.quadrature import gauss_lobatto
from tfode.specfun import rgamma

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m tfode.cli`` child process.

    The child runs in a temporary directory, so a relative ``PYTHONPATH``
    entry such as ``src`` would not resolve there; put the absolute source
    directory first.
    """
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def laplace_transform_of_integral(u, u0, s, sigma, lam, *, horizon=40.0,
                                  panel=0.5, n_panel=12, n_inner=30):
    """Truncated numerical Laplace transform of the tempered integral of u.

    Composite Gauss panels of width ``panel`` up to ``horizon``; the first
    panel absorbs the t^sigma behaviour of the integral at the origin with
    a Jacobi-weighted rule (a plain rule would stall at ~1e-4 there).
    ``u0`` is u(0), fixing the limit of the scaled integrand.
    """
    first = gauss_lobatto(0.0, sigma, n_panel)
    leg = gauss_lobatto(0.0, 0.0, n_panel)
    half = 0.5 * panel
    total = 0.0
    for z, w in zip(first.nodes, first.weights):
        t = half * (z + 1.0)
        if t <= 0.0:
            g = u0 * rgamma(sigma + 1.0)
        else:
            val = tempered_integral(u, t, order=sigma, lam=lam, n_quad=n_inner)
            g = math.exp(-s * t) * val / t**sigma
        total += half ** (sigma + 1.0) * w * g
    x = panel
    while x < horizon - 1e-12:
        hi = min(x + panel, horizon)
        h2 = 0.5 * (hi - x)
        for z, w in zip(leg.nodes, leg.weights):
            t = h2 * (z + 1.0) + x
            val = tempered_integral(u, t, order=sigma, lam=lam, n_quad=n_inner)
            total += h2 * w * math.exp(-s * t) * val
        x = hi
    return total


def composition_residual(alpha, lam, t, n_quad=160):
    """|D^(alpha,lam) I^(alpha,lam) sin - sin| at ``t``.

    The derivatives of the composite that the outer operator needs are
    supplied analytically through integral identities (d/dt I^a w = I^(a-1) w
    for a > 1, and I^a w' when w(0) = 0), each evaluated by quadrature.
    """
    n = math.ceil(alpha)

    def I(x):
        if x <= 0.0:
            return 0.0
        return tempered_integral(math.sin, x, order=alpha, lam=lam, n_quad=n_quad)

    def wprime(srec):
        return lam * math.sin(srec) + math.cos(srec)

    if n == 1:
        def d1(x):
            if x <= 0.0:
                return 0.0
            return -lam * I(x) + tempered_integral(
                wprime, x, order=alpha, lam=lam, n_quad=n_quad
            )
        derivs = [d1]
    else:
        def Im1(x):
            if x <= 0.0:
                return 0.0
            return tempered_integral(math.sin, x, order=alpha - 1.0, lam=lam, n_quad=n_quad)

        def d1(x):
            return -lam * I(x) + Im1(x)

        def d2(x):
            if x <= 0.0:
                return 0.0
            return (
                lam * lam * I(x)
                - 2.0 * lam * Im1(x)
                + tempered_integral(wprime, x, order=alpha - 1.0, lam=lam, n_quad=n_quad)
            )
        derivs = [d1, d2]
    got = rl_derivative(I, t, alpha=alpha, lam=lam, derivs=derivs, n_quad=n_quad)
    return abs(got - math.sin(t))
