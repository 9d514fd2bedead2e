"""Special functions: gamma, reciprocal gamma, and the two-parameter
Mittag-Leffler function.

Everything here is a pure function of its arguments and safe to call
concurrently.  :func:`mittag_leffler` takes a float or a numpy array of
real ``z`` and covers two regions with two methods:

* ``0 < alpha <= 1`` and ``z < -ML_SERIES_RADIUS``: Garrappa's trapezoidal
  rule on an optimal parabolic contour for the inverse Laplace transform
  (R. Garrappa, "Numerical evaluation of two and three parameter
  Mittag-Leffler functions", SIAM J. Numer. Anal. 53(3), 2015).  No pole of
  the transform lies on the principal sheet there, so one set of nodes per
  (alpha, beta) serves every such ``z``: 28 of them for
  ``beta <= alpha + 1``, more as beta grows past that.  The rule's error is
  about 1e-16 of the terms it sums, which fall off like the function itself
  wherever that decays like 1/z.  Against mpmath, for ``0.5 <= beta <= 3``
  and ``-50 <= z < -0.1``, the relative error is at most 3e-14.  Where the
  1/z part vanishes or nearly does (``beta = alpha``, or ``beta = 0`` with
  alpha near 1) the function falls like z^-2, and the error grows to about
  1e-12 at ``z = -50``.  At ``alpha = 1``, ``E_{1,1-m}(z) = z^m e^z``
  (m = 0, 1, ...) decays exponentially and is computed so.
* Everywhere else (``|z| <= ML_SERIES_RADIUS``, ``z > 0``, ``alpha > 1``):
  the power series.  It has no cancellation for ``z >= 0`` and little near
  0, and is as exact as its sum there.  Where it does cancel, for
  ``1 < alpha < 2`` and large negative ``z``, it raises
  :class:`MittagLefflerError` once the cancellation costs more than 8 of
  the 16 digits; where its terms overflow, ``OverflowError``.

The series reads its first coefficients 1/Gamma(alpha k + beta) from a
table of packed doubles kept per (alpha, beta); terms past the table, and
log|Gamma| for the terms whose power z^k or whose Gamma alone would
overflow, are computed per term.  The table is short to keep memory low:
the series of the reference tables and relaxation solves take about 20
terms at most.  The contour nodes are likewise built on first use per (alpha,
beta).  Both caches are ``functools.lru_cache``, with as many keys each.
"""

from __future__ import annotations

import cmath
import functools
import math
from array import array

import numpy as np

__all__ = ["gamma", "rgamma", "mittag_leffler", "MittagLefflerError"]

#: Largest argument for which Gamma(x) fits in a double.
GAMMA_OVERFLOW = 171.62437695630272

#: Bound on |z| for the Mittag-Leffler function, whichever method serves z.
#: On the positive axis the series' terms outgrow a double well before it
#: for small alpha (E_0.5(30) = 2 e^900); on the negative axis the contour
#: rule would reach further, and is checked up to this bound.
ML_ZMAX = 50.0

#: Radius about 0 inside which the series serves every alpha.  Within it the
#: series costs a few dozen terms and loses under one digit; the contour
#: rule, whose parameters do not see how close z is to 0, loses up to 7e-13
#: relative there for beta = 2 and alpha near 1.
ML_SERIES_RADIUS = 0.1


class MittagLefflerError(ValueError):
    """Raised when a Mittag-Leffler evaluation is outside the supported domain."""


def gamma(x: float) -> float:
    """Gamma function for real ``x``.

    Raises ``ValueError`` at the poles (0, -1, -2, ...) and
    ``OverflowError`` for ``x`` larger than about 171.6.
    """
    return math.gamma(x)


def rgamma(x: float) -> float:
    """Reciprocal gamma function ``1/Gamma(x)``, total on the reals.

    Returns exactly 0.0 at the poles of the gamma function (0, -1, -2, ...)
    and for arguments large enough that ``Gamma(x)`` overflows.
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    if g == 0.0:  # |Gamma| underflowed (very negative non-integer x)
        return math.copysign(math.inf, g)
    return 1.0 / g


#: Bounds on the Mittag-Leffler caches: the number of (alpha, beta) keys
#: each keeps, and the length of a coefficient table, several times the
#: longest series the reference tables and relaxation solves sum (about 20
#: terms); 128 packed doubles take 1 KB a key.
_ML_TABLE_KEYS = 16
_ML_TABLE_LEN = 128


@functools.lru_cache(maxsize=_ML_TABLE_KEYS)
def _rgamma_table(alpha: float, beta: float) -> array:
    """1/Gamma(alpha j + beta) for j < ``_ML_TABLE_LEN``, as packed doubles,
    which are never written after this."""
    return array("d", (rgamma(alpha * j + beta) for j in range(_ML_TABLE_LEN)))


def _lgamma(x: float) -> float:
    """log|Gamma(x)|, and inf at the poles, whose series terms are 0 anyway."""
    if x <= 0.0 and x == math.floor(x):
        return math.inf
    return math.lgamma(x)


def mittag_leffler(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function ``E_{alpha,beta}(z)``.

    ``z`` is a real float or a numpy array of them; an array gives an array
    of the same shape, each element from the method that serves it as a
    float (see the module docstring).  The series is summed with Neumaier
    compensation and stops once the term magnitude stays below
    ``1e-16 * |partial sum|`` for three consecutive terms, a relative test,
    so a sum whose leading terms are all tiny is summed in full.

    Parameters
    ----------
    alpha:
        Series exponent step, must be positive.
    beta:
        Series offset, any real.
    z:
        Real argument(s) with ``|z| <= ML_ZMAX``.

    Raises
    ------
    MittagLefflerError
        If ``alpha <= 0``, if ``|z| > ML_ZMAX`` (or ``z`` is NaN), or if the
        series cancels: eps times the sum of its terms' magnitudes passes
        1e-8 times the result.
    OverflowError
        If the series' terms overflow a double (small ``alpha`` together
        with large positive ``z``).
    ArithmeticError
        If the series fails to settle within the iteration budget.
    TypeError
        If ``z`` is a complex array.
    """
    if alpha <= 0.0:
        raise MittagLefflerError(f"alpha must be positive, got {alpha}")
    if not math.isfinite(beta):
        raise MittagLefflerError(f"beta must be finite, got {beta}")
    if isinstance(z, np.ndarray):
        return _mittag_leffler_array(alpha, beta, z)
    if not abs(z) <= ML_ZMAX:
        raise MittagLefflerError(f"|z| = {abs(z)} exceeds the supported bound {ML_ZMAX}")
    if _contour_serves(alpha, beta) and z < -ML_SERIES_RADIUS:
        return float(_contour(alpha, beta, z))
    return _series(alpha, beta, z)


def _mittag_leffler_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """The array form of :func:`mittag_leffler`: the contour region in one
    pass, every other element by the scalar call, which raises its errors."""
    if z.dtype.kind == "c":
        raise TypeError("Mittag-Leffler argument must be real, got a complex array")
    flat = z.astype(float, copy=False).reshape(-1)
    out = np.empty(flat.shape)
    fast = (flat < -ML_SERIES_RADIUS) & (flat >= -ML_ZMAX) & _contour_serves(alpha, beta)
    if fast.any():
        out[fast] = _contour(alpha, beta, flat[fast])
    for i in np.flatnonzero(~fast):
        out[i] = mittag_leffler(alpha, beta, float(flat[i]))
    return out.reshape(z.shape)


def _contour_serves(alpha: float, beta: float) -> bool:
    """Whether the contour rule serves (alpha, beta).  Its parameter search
    takes time linear in beta; past Gamma's overflow, where 1/Gamma(beta)
    is 0.0, the series serves instead, its terms from log-Gamma."""
    return alpha <= 1.0 and beta <= GAMMA_OVERFLOW


def _contour(alpha: float, beta: float, z):
    """Garrappa's contour rule at real ``z < 0`` (a float or an array), for
    ``0 < alpha <= 1``: one pass over the nodes, accumulating into one value
    per element of ``z``.  Each node contributes Re w / (s^alpha - z), in
    real arithmetic."""
    if alpha == 1.0 and beta <= 1.0 and beta == math.floor(beta):
        # E_{1,1-m}(z) = z^m e^z decays exponentially, below the rule's
        # absolute error of about 1e-16 from z ~ -37 on
        return z ** (1.0 - beta) * np.exp(z)
    acc = 0.0
    for wr, wi, ar, ai in zip(*_contour_nodes(alpha, beta)):
        d = ar - z
        acc = acc + (wr * d + wi * ai) / (d * d + ai * ai)
    return acc


#: Garrappa's accuracy target for the contour rule; his parameter choice
#: relaxes it a decade at a time until 2N + 1 <= 401 nodes suffice.
_CONTOUR_TOL = 1e-15
_EPS = float(np.finfo(float).eps)
_LOG_EPS = math.log(_EPS)


def _contour_parameters(p: float) -> tuple[float, float, int]:
    """Garrappa's (mu, h, N) for the parabola s(u) = mu (1 + iu)^2 and nodes
    u = kh, |k| <= N, when the transform's only singularity in the region
    is at the origin, of strength ``p``: Garrappa's ``OptimalParam_RU`` with
    phi(s*) = 0 and t = 1."""
    log_tol = math.log(_CONTOUR_TOL)
    while True:
        phibar = 0.01
        while True:
            le = log_tol / phibar
            n = math.ceil(phibar / math.pi * (1.0 - 1.5 * le + math.sqrt(1.0 - 2.0 * le)))
            a = math.pi * n / phibar
            sq_mu = math.sqrt(phibar) * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
            # Garrappa's fbar = (sqrt(phibar) / sqrt(mu))^-p, compared in logs
            if p < 1e-14 or 0.0 < -p * math.log(math.sqrt(phibar) / sq_mu) < math.log(10.0):
                break
            phibar = (5.0 ** (-1.0 / p) * sq_mu) ** 2
        mu = sq_mu * sq_mu
        h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
        # round-off grows like eps e^mu: cap mu where it meets the target
        threshold = log_tol - _LOG_EPS
        if mu > threshold:
            q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
            phibar = q * q
            n = math.inf
            if phibar < threshold:
                w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
                u = math.sqrt(-phibar / _LOG_EPS)
                mu = threshold
                n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
                h = w / n
        if n <= 200:
            return mu, h, n
        log_tol += math.log(10.0)


@functools.lru_cache(maxsize=_ML_TABLE_KEYS)
def _contour_nodes(alpha: float, beta: float) -> tuple[array, array, array, array]:
    """Re and Im of the weights w_k and of s_k^alpha, for nodes k = 0..N.

    E = sum over |k| <= N of h/(2 pi i) e^s s^(alpha-beta) s'(u) / (s^alpha - z);
    the nodes at -k are the conjugates of those at k, so for real z the
    k > 0 weights count twice and only real parts are kept.  Packed
    doubles take a quarter of the memory of float tuples; they are never
    written after this.
    """
    mu, h, n = _contour_parameters(max(0.0, -2.0 * (alpha - beta + 1.0)))
    nodes = []
    for k in range(n + 1):
        u = h * k
        s = mu * complex(1.0, u) ** 2
        w = h / (2j * math.pi) * cmath.exp(s) * s ** (alpha - beta) * 2.0 * mu * complex(-u, 1.0)
        if k:
            w *= 2.0
        sa = s**alpha
        nodes.append((w.real, w.imag, sa.real, sa.imag))
    wr, wi, ar, ai = (array("d", column) for column in zip(*nodes))
    return wr, wi, ar, ai


def _series(alpha: float, beta: float, z: float) -> float:
    """The power series at real ``z``, its first coefficients from the table."""
    rg = _rgamma_table(alpha, beta)
    zero = z == 0.0
    lz = 0.0 if zero else math.log(abs(z))
    total = 0.0
    comp = 0.0  # Neumaier correction
    mag = 0.0  # sum of |term|, against which the cancellation is measured
    small_streak = 0
    for k in range(100_000):
        x = alpha * k + beta
        r = rg[k] if k < _ML_TABLE_LEN else rgamma(x)
        if (zero and k) or (r == 0.0 and x <= 0.0):
            term = 0.0  # a power of 0, or a pole of Gamma
        else:
            lk = k * lz
            if lk < 690.0 and r != 0.0:
                term = z**k * r
            else:
                # z**k alone would overflow, or Gamma(alpha k + beta) does
                # (1/Gamma is 0.0 from 171.6 on, where z**k may still be large)
                m = math.exp(lk - _lgamma(x))
                term = -m if (z < 0.0 and k % 2 == 1) else m
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        mag += abs(term)
        if abs(term) <= 1e-16 * abs(total):
            small_streak += 1
            if small_streak >= 3:
                total += comp
                if mag == math.inf:
                    raise OverflowError(
                        f"Mittag-Leffler series for alpha={alpha}, beta={beta}, z={z} "
                        f"overflows"
                    )
                if _EPS * mag > 1e-8 * abs(total):
                    raise MittagLefflerError(
                        f"Mittag-Leffler series for alpha={alpha}, beta={beta}, z={z} "
                        f"cancels: its terms sum to {mag:.3g} in magnitude, its value is "
                        f"{total:.3g}"
                    )
                return total
        else:
            small_streak = 0
    raise ArithmeticError(
        f"Mittag-Leffler series did not settle for alpha={alpha}, beta={beta}, z={z}"
    )
