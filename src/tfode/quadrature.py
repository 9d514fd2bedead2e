"""Gauss-Lobatto quadrature on [-1, 1] for Jacobi weights (1-z)^a (1+z)^b.

The solver uses the weight ``a = alpha - 1, b = 0`` so the kernel
singularity ``(t-s)^(alpha-1)`` is absorbed into the quadrature weight;
``a = b = 0`` gives the Legendre-Lobatto rule used on split intervals.

Construction follows the classical modified-Jacobi-matrix approach: the
three-term recurrence coefficients of the weight are known in closed form,
the last diagonal/off-diagonal pair is adjusted so that -1 and +1 become
eigenvalues, and nodes/weights come out of a symmetric tridiagonal
eigenproblem.  Rules are cached per (a, b, n) and immutable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = ["GaussLobattoRule", "jacobi_recurrence", "gauss_lobatto", "exp_sum"]


def jacobi_recurrence(a: float, b: float, k: int) -> tuple[float, float]:
    """Monic three-term recurrence coefficients for the weight (1-x)^a (1+x)^b.

    Returns ``(a_k, b_k)`` with ``pi_{k+1}(x) = (x - a_k) pi_k(x) - b_k pi_{k-1}(x)``;
    ``b_0`` is the zeroth moment of the weight.
    """
    if a <= -1.0 or b <= -1.0:
        raise ValueError(f"weight exponents must exceed -1, got ({a}, {b})")
    if k < 0:
        raise ValueError("recurrence index must be nonnegative")
    if k == 0:
        m0 = 2.0 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
        return (b - a) / (a + b + 2), m0
    s = 2 * k + a + b
    ak = (b * b - a * a) / (s * (s + 2))
    if k == 1:
        bk = 4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3))
    else:
        bk = 4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1))
    return ak, bk


@dataclass(frozen=True)
class GaussLobattoRule:
    """An (n+1)-point Gauss-Lobatto rule for the weight (1-z)^a (1+z)^b.

    ``nodes`` are strictly increasing with ``nodes[0] == -1`` and
    ``nodes[-1] == +1``; all ``weights`` are positive.  The rule integrates
    polynomials up to degree ``2n - 1`` exactly against its weight.
    """

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def apply(self, g: Callable[[float], float]) -> float:
        """Apply the rule to a scalar function on [-1, 1]."""
        vals = np.array([g(z) for z in self.nodes])
        return float(self.weights @ vals)


@lru_cache(maxsize=None)
def gauss_lobatto(a: float, b: float, n: int) -> GaussLobattoRule:
    """Build (and cache) the (n+1)-point Gauss-Lobatto rule for (1-z)^a (1+z)^b.

    Requires ``n >= 1``.  Both endpoints are nodes; the interior nodes are
    the zeros of the degree-(n-1) Jacobi polynomial with parameters
    ``(a+1, b+1)``, obtained from the modified Jacobi matrix.
    """
    if n < 1:
        raise ValueError(f"need at least a 2-point rule, got n={n}")
    ak = np.empty(n + 1)
    bk = np.empty(n + 1)
    for k in range(n + 1):
        ak[k], bk[k] = jacobi_recurrence(a, b, k)

    # Monic pi_n, pi_{n-1} at the prescribed endpoints.
    pl0, pl1 = 0.0, 1.0
    pr0, pr1 = 0.0, 1.0
    for k in range(n):
        pl0, pl1 = pl1, (-1.0 - ak[k]) * pl1 - bk[k] * pl0
        pr0, pr1 = pr1, (1.0 - ak[k]) * pr1 - bk[k] * pr0
    # the products below have opposite signs, so det is no smaller than
    # either; from n ~ 500 they underflow, and the ratios
    # rho = pi_n / pi_{n-1} at -1 and +1 (G. H. Golub, SIAM Rev. 15(2),
    # 1973) give the same pair, with det / (pl0 pr0) = rho_l - rho_r
    if min(abs(pl1 * pr0), abs(pr1 * pl0)) >= sys.float_info.min:
        det = pl1 * pr0 - pr1 * pl0
        a_star = (-pl1 * pr0 - pr1 * pl0) / det
        b_star = 2.0 * pl1 * pr1 / det
    else:
        rl, rr = -1.0 - ak[0], 1.0 - ak[0]
        for k in range(1, n):
            rl = (-1.0 - ak[k]) - bk[k] / rl
            rr = (1.0 - ak[k]) - bk[k] / rr
        a_star = (rl + rr) / (rr - rl)
        b_star = 2.0 * rl * rr / (rl - rr)

    diag = np.concatenate([ak[:n], [a_star]])
    off = np.sqrt(np.concatenate([bk[1:n], [b_star]]))
    nodes, vecs = eigh_tridiagonal(diag, off)
    weights = bk[0] * vecs[0, :] ** 2

    if not (abs(nodes[0] + 1.0) < 1e-10 and abs(nodes[-1] - 1.0) < 1e-10):
        raise ArithmeticError(f"Lobatto node solve failed for (a={a}, b={b}, n={n})")
    nodes[0] = -1.0
    nodes[-1] = 1.0
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return GaussLobattoRule(a=a, b=b, nodes=nodes, weights=weights)


def exp_sum(alpha: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponents ``s`` and weights ``w`` with ``sum(w * exp(-s y))`` equal to
    ``y^(alpha-1)`` within about 3e-15 relative over ``lo <= y <= hi``,
    for 0 < alpha < 1: about 145 terms at hi / lo = 512.

    They are a quadrature of ``y^(alpha-1) = int_0^inf s^-alpha e^{-s y} ds
    / Gamma(1-alpha)``: on [0, 1/hi] the 9-point Lobatto rule for the
    weight ``s^-alpha``, and beyond it panels four times as long as the
    last, each a 17-point Legendre-Lobatto rule, until e^{-s lo} < e^{-40}.
    """
    s0 = 1.0 / hi
    jac, leg = gauss_lobatto(0.0, -alpha, 8), gauss_lobatto(0.0, 0.0, 16)
    start = s0 * 4.0 ** np.arange(max(1, math.ceil(math.log(40.0 * hi / lo, 4.0))))
    half = 1.5 * start  # half of each panel [start, 4 start]
    s = np.concatenate([0.5 * s0 * (jac.nodes + 1.0),
                        (np.multiply.outer(half, leg.nodes) + (start + half)[:, None]).ravel()])
    w = np.concatenate([(0.5 * s0) ** (1.0 - alpha) * jac.weights,
                        np.multiply.outer(half, leg.weights).ravel()])
    w[len(jac.nodes):] *= s[len(jac.nodes):] ** -alpha
    return s, w / math.gamma(1.0 - alpha)
