"""Reference solutions computed apart from tfode.

* ``example2``: its closed form ``e^(-lam t) (t^8 + 9/4 t^alpha)``.
* Relaxation ``D^(alpha,lam) u = -mu u``, ``u = e^(-lam t) E_alpha(-mu t^alpha)``:
  at ``alpha = 1/2`` through ``E_(1/2)(-x) = erfcx(x)`` (scipy), otherwise
  through the Mittag-Leffler power series summed in mpmath with enough
  digits to absorb its cancellation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import erfcx

#: Digits kept beyond those the series' cancellation eats.
_SPARE_DIGITS = 30


def example2(alpha: float, lam: float, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.exp(-lam * t) * (t**8 + 2.25 * t**alpha)


def mittag_leffler(alpha: float, z: np.ndarray) -> np.ndarray:
    """``E_(alpha,1)(z)`` for real ``z`` by the mpmath power series."""
    z = np.asarray(z, dtype=float)
    radius = float(np.abs(z).max(initial=0.0))
    # the largest term is about exp(radius^(1/alpha)); the sum loses that many digits
    lost = radius ** (1.0 / alpha) / math.log(10.0)
    with mpmath.workdps(_SPARE_DIGITS + int(lost) + 1):
        tiny = mpmath.mpf(10) ** (-_SPARE_DIGITS)
        peak = 2.0 * radius ** (1.0 / alpha) + 2.0
        coeffs = []
        k = 0
        while True:
            c = mpmath.rgamma(mpmath.mpf(alpha) * k + 1)
            coeffs.append(c)
            if k > peak and abs(c) * mpmath.mpf(radius) ** k < tiny:
                break
            k += 1
        out = np.empty(z.shape)
        for i, zi in enumerate(z.flat):
            x = mpmath.mpf(float(zi))
            acc = mpmath.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            out.flat[i] = float(acc)
    return out


def relaxation(alpha: float, lam: float, mu: float, t: np.ndarray) -> np.ndarray:
    """Solution of the tempered relaxation equation with ``e^(lam t) u(0) = 1``."""
    t = np.asarray(t, dtype=float)
    if alpha == 0.5:
        ml = erfcx(mu * np.sqrt(t))
    else:
        ml = mittag_leffler(alpha, -mu * t**alpha)
    return np.exp(-lam * t) * ml
