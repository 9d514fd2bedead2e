"""Special functions: gamma, reciprocal gamma, and the two-parameter
Mittag-Leffler function.

Everything here is a pure function of its arguments and safe to call
concurrently.  :func:`mittag_leffler` reads its series coefficients
1/Gamma(alpha k + beta), and log|Gamma| for the terms whose power z^k alone
would overflow, from tables kept per (alpha, beta).  A table grows lazily
to the largest k a call has needed.  It is an immutable tuple: a call that
needs more builds a longer one and replaces the stored one under a lock, and
never changes a table in place, so readers need no lock.  The number of
keys and each table's length are bounded; terms past the length bound are
computed directly.
"""

from __future__ import annotations

import math
import threading

__all__ = ["gamma", "rgamma", "mittag_leffler", "MittagLefflerError"]

#: Largest argument for which Gamma(x) fits in a double.
GAMMA_OVERFLOW = 171.62437695630272

#: Default bound on |z| for the Mittag-Leffler series.  The direct series
#: is reliable in double precision well inside this radius; beyond it the
#: terms can grow too large before the gamma in the denominator takes over.
ML_ZMAX = 50.0


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


#: Bounds on the Mittag-Leffler coefficient tables: the number of (alpha,
#: beta) keys kept, the oldest dropped first, and the length of each table.
#: 1/Gamma(alpha k + beta) vanishes once alpha k + beta passes ~171.6, so
#: 1024 entries cover every series with alpha >= 0.17 and beta >= 0.
_ML_TABLE_KEYS = 16
_ML_TABLE_LEN = 1024

_RGAMMA_TABLES: dict[tuple[float, float], tuple[float, ...]] = {}
_LGAMMA_TABLES: dict[tuple[float, float], tuple[float, ...]] = {}
_TABLE_LOCK = threading.Lock()


def _lgamma(x: float) -> float:
    """log|Gamma(x)|, and inf at the poles, whose series terms are 0 anyway."""
    if x <= 0.0 and x == math.floor(x):
        return math.inf
    return math.lgamma(x)


def _table(store: dict, fn, key: tuple[float, float], k: int) -> tuple[float, ...]:
    """``fn(alpha j + beta)`` for j = 0, 1, ..., from ``store``, grown past
    j = ``k`` unless the table is at its length bound.

    A growing call builds a new tuple of the next power-of-two length and
    replaces the stored one; concurrent growers build equal values, so a
    lost replacement only costs time.
    """
    old = store.get(key, ())
    if k < len(old) or len(old) >= _ML_TABLE_LEN:
        return old
    size = min(_ML_TABLE_LEN, max(16, 1 << k.bit_length()))
    alpha, beta = key
    new = old + tuple(fn(alpha * j + beta) for j in range(len(old), size))
    with _TABLE_LOCK:
        if key not in store and len(store) >= _ML_TABLE_KEYS:
            del store[next(iter(store))]
        if len(store.get(key, ())) < size:
            store[key] = new
    return new


def mittag_leffler(alpha: float, beta: float, z: float, *, zmax: float = ML_ZMAX) -> float:
    """Two-parameter Mittag-Leffler function ``E_{alpha,beta}(z)``.

    Evaluates the power series ``sum_k z^k / Gamma(alpha*k + beta)`` with
    Neumaier-compensated summation, stopping once the term magnitude stays
    below ``1e-16 * (1 + |partial sum|)`` for three consecutive terms.

    Parameters
    ----------
    alpha:
        Series exponent step, must be positive.
    beta:
        Series offset, any real.
    z:
        Real argument with ``|z| <= zmax``.

    Raises
    ------
    MittagLefflerError
        If ``alpha <= 0`` or ``|z| > zmax``.
    ArithmeticError
        If the series fails to settle within the iteration budget
        (small ``alpha`` together with large ``|z|``).
    """
    if alpha <= 0.0:
        raise MittagLefflerError(f"alpha must be positive, got {alpha}")
    if abs(z) > zmax:
        raise MittagLefflerError(
            f"|z| = {abs(z)} exceeds the series-reliability bound {zmax}"
        )

    key = (alpha, beta)
    rg, lg = _RGAMMA_TABLES.get(key, ()), _LGAMMA_TABLES.get(key, ())
    nr, nl = len(rg), len(lg)
    zero = z == 0.0
    lz = 0.0 if zero else math.log(abs(z))
    total = 0.0
    comp = 0.0  # Neumaier correction
    small_streak = 0
    for k in range(100_000):
        if k >= nr:
            rg = _table(_RGAMMA_TABLES, rgamma, key, k)
            nr = len(rg)
        r = rg[k] if k < nr else rgamma(alpha * k + beta)
        if r == 0.0 or (zero and k):
            term = 0.0
        else:
            lk = k * lz
            if lk < 690.0:
                term = z**k * r
            else:
                # z**k alone would overflow; alpha k + beta is large by now
                if k >= nl:
                    lg = _table(_LGAMMA_TABLES, _lgamma, key, k)
                    nl = len(lg)
                mag = math.exp(lk - (lg[k] if k < nl else _lgamma(alpha * k + beta)))
                term = -mag if (z < 0.0 and k % 2 == 1) else mag
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if abs(term) <= 1e-16 * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 3:
                return total + comp
        else:
            small_streak = 0
    raise ArithmeticError(
        f"Mittag-Leffler series did not settle for alpha={alpha}, beta={beta}, z={z}"
    )
