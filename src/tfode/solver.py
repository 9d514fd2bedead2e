"""Jacobi predictor-corrector time stepper for tempered fractional ODEs.

Solves single-term initial value problems

    D^(alpha,lam) u(t) = f(t, u(t)),   t in (a, b],   n-1 < alpha <= n <= 2,

with the derivative taken in the Caputo or Riemann-Liouville tempered
sense, via the equivalent second-kind Volterra equation.  Each step applies
an (n_quad+1)-point Gauss-Lobatto rule whose Jacobi weight absorbs the
kernel singularity; the integrand's RHS values at quadrature times come
from Lagrange interpolation on ``n_interp`` neighbouring grid nodes, which
makes ``n_interp`` the design convergence order.  Cost per step does not
grow with the step index, so a whole solve is O(steps): the quadrature
positions and stencil weights depend only on the step index, so one
vectorised build precomputes them for a block of consecutive steps, its
length set by ``_BLOCK_BYTES`` and never changing a result.  Past
``_FAR_FROM`` n_quad^2 steps from the origin (0 < alpha < 1) the rule
covers only the last 2 n_quad steps, with weights built once per solve, and
the older history comes through far sums of decaying exponentials; there a
span of steps with ``Problem.affine`` and one value of q, ``_PARTS_BLOCKS``
blocks long, is one Toeplitz system, as the far sums weigh each f of the
span by its distance alone, solved at once (see :class:`_Stepper`), as
the start's blocks are (:func:`_solve_affine_block`).  The weights also
carry the kernel's tempering e^{-lam (t_n - t_i)} of each sample, a
factor of at most 1, so the history a step reads is the trace's own f
values.  A step's predictor is then one gather of that history and one dot
product, its one numpy call; the corrector's stencils differ only next to
the new node, so its sum is the predictor's plus a window over the last
``n_interp + 1`` nodes, a float sum over the last ``n_interp`` f values
times a factor per step, and each corrector iteration is scalar arithmetic.
One step call advances the trace over one block, and each of the block's
steps reads its row of per-step scalars and writes u and f, with
f = p + q u where the right-hand side is declared affine in u
(``Problem.affine``) and p and q are finite over the step's span of
``_PARTS_BLOCKS`` blocks, else one right-hand-side call.  That arithmetic
is :func:`_pece`, the one predictor-corrector step of a solve: the start's
stepped steps and its steps to the Lobatto nodes take it too, each with
its own sums, and it holds the check that u stays in range
(:func:`_blowup_limit`), which a block solved at once makes of its whole u
(:func:`_solve_affine_block`) before it is taken again step by step.

Both schemes start alike (:func:`_start`): the grid values through
t_{n_start}, n_start = max(j0, n_interp - 1) with j0 the grid index of the
split point (0 without one), come from one product-trapezoidal
predictor-corrector (fractional Adams) run on a refined auxiliary grid, or
from the exact solution with ``exact_start``.  The run's product weights
depend only on the distance in steps, so they are tabulated once, and it
runs in blocks of steps.  Its history, too, is the f values;
each sum over it takes the tempering e^{-lam h d} at distance d about a
pivot of its own, in factors of at most 1.  A step's sums over the history
have two tiers: the history since its chunk of ``_CHUNK`` mesh points began
is summed for all of a block's steps at once, one ``np.correlate`` per
weight table, and older history reaches it through far sums, to which each
finished chunk adds by FFT over doubling spans (Hairer, Lubich and
Schlichte), so that the start costs O(n log n) in its n steps past the near
tier's O(n _CHUNK).  Every block is ``_START_BLOCK`` steps long, and it is
of one of two kinds.  Where the right-hand side is declared affine in u
(``Problem.affine``), f = p + q u, with q one value over a chunk, the
block's predictor-corrector steps are one unit lower-triangular Toeplitz
system, solved by one convolution with taps made once per value of q, the
same solve as the far spans' (:func:`_solve_affine_block`).  Any other
block is stepped, each step two short dot products and one :func:`_pece`
call.  For solutions that are non-smooth at the start, the split scheme
(``split_t0``) integrates the history over ``[a, t0]`` with a fixed
unit-weight Gauss-Lobatto rule, and only the smooth tail ``[t0, t]`` with
the Jacobi-weight rule; that history term is evaluated for a block of
steps at once.  u at each Lobatto node off the
refined grid is one more :func:`_pece` step over the finished grid history
before the node (dense output), which is not fed back into the history.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import mul
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import solve_toeplitz

from .quadrature import exp_sum, gauss_lobatto
from .specfun import rgamma

__all__ = [
    "Problem",
    "SolverConfig",
    "SolutionTrace",
    "SolverError",
    "BlowUpError",
    "NegativeOrderDataError",
    "volterra_forcing",
    "solve",
    "solve_split",
]

CAPUTO = "caputo"
RIEMANN_LIOUVILLE = "rl"

_KIND_ALIASES = {
    "caputo": CAPUTO,
    "rl": RIEMANN_LIOUVILLE,
    "riemann-liouville": RIEMANN_LIOUVILLE,
    "riemann_liouville": RIEMANN_LIOUVILLE,
}

#: Relative offset used to evaluate quantities that are singular exactly at
#: the lower terminal (Riemann-Liouville forcing with nonzero g-data).
_SINGULAR_SHIFT = 1e-8

#: |u| past which a solve has blown up, times the scale of the initial data
#: (see :func:`_blowup_limit`)
_BLOWUP_LIMIT = 1e12


class SolverError(RuntimeError):
    pass


class BlowUpError(SolverError):
    """The numerical solution left the finite range; records the bad step.

    ``phase`` is ``"start"`` for a step of the starting procedure, whose
    ``step`` counts its refined mesh, or ``"step"`` for a grid step.
    """

    def __init__(self, step: int, t: float, value: float, phase: str):
        super().__init__(
            f"solution blew up in the {phase} phase at step {step} (t = {t:.6g}): u = {value!r}"
        )
        self.step = step
        self.t = t
        self.value = value
        self.phase = phase


class NegativeOrderDataError(SolverError, ValueError):
    """Riemann-Liouville data of negative order with a right-hand side that
    reads u: u is unbounded at a, and the scheme does not converge on such
    a problem.  It is also a ``ValueError``, a configuration error."""


@dataclass(frozen=True)
class Problem:
    """One tempered fractional initial value problem.

    ``init`` holds the n = ceil(alpha) initial data: for the Caputo kind the
    values ``d^k/dt^k (e^{lam t} u)`` at ``a`` (k = 0..n-1); for the
    Riemann-Liouville kind the values of the RL derivatives of order
    ``alpha - k - 1`` of ``e^{lam t} u`` at ``a``.  ``rhs(t, u)`` must be
    Lipschitz in ``u`` on the solution's range.  ``exact``, the solution if
    known, is called with a time or with an array of times (see
    :meth:`SolutionTrace.exact_values`).

    ``affine``, if given, is ``(p, q)``: functions of an array of times,
    whose values broadcast against it, with ``rhs(t, u) == p(t) + q(t) * u``.
    The JPC steps take f = p + q u, with p and q evaluated over a span of
    several blocks of steps at once, and the start evaluates them a chunk
    at a time.  Where q takes one value over a start chunk or over a span
    of blocks past the switch to far sums (a 0-d q, or see
    :func:`_one_value`), a block of steps there is solved at once, the
    start's and the far steps' through one solve
    (:func:`_solve_affine_block`); a q that varies is stepped.  Over a
    start chunk or a span of blocks where
    p or q raises, is complex, has the wrong shape or is not finite,
    ``rhs`` serves instead, and it still serves everything else: f at the
    start values, at the split rule's Lobatto nodes and in the start's
    stepped steps.
    """

    kind: str
    alpha: float
    lam: float
    a: float
    b: float
    init: tuple[float, ...]
    rhs: Callable[[float, float], float]
    exact: Callable[[float], float] | None = None
    affine: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __post_init__(self):
        kind = _KIND_ALIASES.get(str(self.kind).lower())
        if kind is None:
            raise ValueError(f"unknown derivative kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError(f"tempering rate must be finite and nonnegative, got {self.lam}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval ends must be finite, got [{self.a}, {self.b}]")
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        object.__setattr__(self, "init", tuple(float(c) for c in self.init))
        if len(self.init) != self.n:
            raise ValueError(
                f"expected {self.n} initial value(s) for alpha={self.alpha}, "
                f"got {len(self.init)}"
            )
        if not all(map(math.isfinite, self.init)):
            raise ValueError(f"initial values must be finite, got {self.init}")
        if self.affine is not None:
            object.__setattr__(self, "affine", tuple(self.affine))
            if len(self.affine) != 2:
                raise ValueError("affine must be a pair (p, q) of functions of t")

    @property
    def n(self) -> int:
        """Smallest integer >= alpha (alpha = 1 is treated with n = 1)."""
        return max(1, math.ceil(self.alpha))


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm parameters for one solve.

    ``steps`` is the number of uniform steps (tau = (b-a)/steps), ``n_quad``
    the Gauss-Lobatto degree, ``n_interp`` the interpolation stencil size
    (the design order).  The starting procedure runs on a grid refined by
    ``start_refine``.  Setting ``split_t0`` switches to the split-interval
    scheme with an ``n_tilde``-degree unit-weight rule on ``[a, split_t0]``.
    With ``exact_start`` the starting values, and with a split the values
    at the Lobatto nodes, are taken from the problem's exact solution,
    which it must have; the start then runs on the grid itself, and a
    Lobatto node within 1e-9 tau of a grid point takes that point's value,
    as on the refined grid.  Each count is an integer, and a numpy integer
    is kept as an int; a float or a bool raises ``ValueError``.
    """

    steps: int
    n_interp: int
    n_quad: int = 20
    start_refine: int = 64
    split_t0: float | None = None
    n_tilde: int = 40
    corrector_iters: int = 1
    exact_start: bool = False

    def __post_init__(self):
        for name in ("steps", "n_interp", "n_quad", "start_refine", "n_tilde", "corrector_iters"):
            value = getattr(self, name)
            # a bool is an int to Python, but no count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a numpy integer as a Python int, which a deque's maxlen needs
            object.__setattr__(self, name, int(value))
        if self.n_interp < 2:
            raise ValueError("n_interp must be at least 2")
        if self.steps < self.n_interp:
            raise ValueError(
                f"steps ({self.steps}) must be at least n_interp ({self.n_interp})"
            )
        if self.n_quad < self.n_interp:
            raise ValueError("n_quad must be at least n_interp")
        if self.start_refine < 1:
            raise ValueError("start_refine must be at least 1")
        if self.n_tilde < 2:
            raise ValueError("n_tilde must be at least 2")
        if self.corrector_iters < 1:
            raise ValueError("corrector_iters must be at least 1")


@dataclass
class SolutionTrace:
    """Uniform-grid solution: times t_0..t_M, values u_j and f(t_j, u_j)."""

    times: np.ndarray
    values: np.ndarray
    rhs_values: np.ndarray
    problem: Problem
    config: SolverConfig
    _exact: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    #: whether :meth:`exact_values` took the node-by-node fallback
    exact_by_node: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def tau(self) -> float:
        return (self.problem.b - self.problem.a) / self.config.steps

    def exact_values(self) -> np.ndarray:
        """The problem's exact solution at the grid times, evaluated once.

        ``exact`` is called once with the array of times.  If that raises
        (as a function of one float does), or gives anything but a finite
        float array of the grid's shape, it is called node by node instead,
        so the values and errors are those of the scalar calls, and
        ``exact_by_node`` is set.
        """
        exact = self.problem.exact
        if exact is None:
            raise ValueError("problem has no exact solution")
        if self._exact is None:
            try:
                with np.errstate(all="ignore"):
                    values = np.asarray(exact(self.times))
            except (ArithmeticError, TypeError, ValueError):
                values = None
            if (
                values is None
                or values.shape != self.times.shape
                or values.dtype != np.float64
                or not np.isfinite(values).all()
            ):
                values = np.array([exact(t) for t in self.times])
                self.exact_by_node = True
            self._exact = values
        return self._exact

    def errors(self) -> np.ndarray:
        """Absolute errors against the problem's exact solution."""
        return np.abs(self.values - self.exact_values())

    def max_error(self) -> float:
        """Max abs error over the grid nodes t_1..t_M (t_0 excluded)."""
        return float(self.errors()[1:].max())


# ---------------------------------------------------------------------------
# Volterra forcing


def _forcing(problem: Problem, t: np.ndarray | float) -> np.ndarray | float:
    """Initial-data forcing of the Volterra equation for u at the times ``t``.

    e^{-lam (t-a)} times, for Caputo data, sum_k c_k e^{-lam a} (t-a)^k / k!,
    and for RL data sum_k g_k e^{-lam a} (t-a)^(alpha-k-1) / Gamma(alpha-k),
    which is singular at t = a whenever the highest-order datum is nonzero.
    """
    acc = np.zeros(np.shape(t))
    if not any(problem.init):  # all-zero data: zeros, which need no tempering
        return acc if acc.shape else 0.0
    dt = np.asarray(t, dtype=float) - problem.a
    scale = math.exp(-problem.lam * problem.a)
    if problem.kind == CAPUTO:
        for k, ck in enumerate(problem.init):
            if ck != 0.0:
                acc += ck * scale / math.factorial(k) * dt**k
    else:
        for k, gk in enumerate(problem.init):
            # skip vanishing data so 0 * inf cannot poison the value at dt = 0
            if gk != 0.0:
                expo = problem.alpha - k - 1
                acc += gk * scale * rgamma(problem.alpha - k) * dt**expo
    acc *= np.exp(-problem.lam * dt)
    return acc if acc.shape else float(acc)


def _negative_order_data(problem: Problem) -> list[tuple[int, float]]:
    """``(k, g_k)`` of each Riemann-Liouville datum of negative order,
    g_k != 0 with alpha - k - 1 < 0, whose forcing term is singular at a."""
    if problem.kind != RIEMANN_LIOUVILLE:
        return []
    return [(k, g) for k, g in enumerate(problem.init) if g != 0.0 and problem.alpha - k - 1 < 0]


def volterra_forcing(problem: Problem, t: float) -> float:
    """Forcing term of the equivalent Volterra equation at time ``t``.

    For Riemann-Liouville problems the forcing is singular at ``t = a``;
    that point is rejected (the solver itself works with a one-sided
    surrogate there, see :func:`solve`), as is a ``t`` that is not finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"t={t} is not finite")
    if t < problem.a:
        raise ValueError(f"t={t} is before the lower terminal a={problem.a}")
    if t == problem.a and _negative_order_data(problem):
        raise ValueError("Riemann-Liouville forcing is singular at t = a")
    return _forcing(problem, t)


def _blowup_limit(problem: Problem) -> float:
    """The |u| past which a solve has blown up: ``_BLOWUP_LIMIT`` times the
    largest |initial datum|, or times 1 if that is smaller, so that a
    solution's scale does not make it blow up."""
    return _BLOWUP_LIMIT * max(1.0, *map(abs, problem.init))


def _pece(rhs, t: float, base: float, pref: float, pred: float, corr: float, w_end: float,
          iters: int, limit: float, step: int, phase: str, p: float = 0.0,
          q: float | None = None) -> float:
    """One predictor-corrector step to u at time ``t``, every step of a solve.

    The predictor is ``base + pref * pred``; each of ``iters`` corrector
    passes is ``base + pref * (corr + w_end * f)``, with ``corr`` the
    corrector's sum over the history, ``w_end`` its weight on the new f,
    and f = ``rhs(t, u)``, or f = p + q u without a call when ``q`` is
    given (an affine right-hand side, whose p and q at t are ``p`` and
    ``q``).  Raises :class:`BlowUpError`, naming ``step`` and ``phase``,
    unless u is finite and |u| is within ``limit`` (:func:`_blowup_limit`).
    """
    u = base + pref * pred
    for _ in range(iters):
        u = base + pref * (corr + w_end * (rhs(t, u) if q is None else p + q * u))
    if not math.isfinite(u) or abs(u) > limit:
        raise BlowUpError(step, t, u, phase)
    return u


# ---------------------------------------------------------------------------
# Lagrange interpolation on uniform stencils


@functools.lru_cache(maxsize=32)
def _bary_weights(n_points: int) -> np.ndarray:
    """Barycentric weights (-1)^j C(n_points-1, j) of n_points equispaced
    nodes, as a read-only column."""
    w = np.array([(-1.0) ** j * math.comb(n_points - 1, j) for j in range(n_points)])[:, None]
    w.flags.writeable = False
    return w


def _stencil_weights(r: np.ndarray, last, n_points: int):
    """Stencil starts and Lagrange weights for uniform-grid coordinates ``r``.

    Stencils are ``n_points`` consecutive indices within [0, last], centred
    on each target as nearly as possible (ties toward earlier nodes);
    targets beyond ``last`` are extrapolated from the clamped stencil.
    ``last`` is at least ``n_points - 1`` and broadcasts against ``r``.
    Returns the starts ``i0`` as floats of ``r``'s shape, the weights ``l``
    with the stencil axis first, over the targets in ``r``'s flat order,
    and ``s`` of ``r``'s shape: the interpolant at target p is
    ``sum_j l[j, p] f[i0.flat[p] + j]``.  A target within 1e-9 of a node
    gets a one-hot column: it returns the sample.

    Where a stencil moves one node right when ``last`` grows by one, its
    weights over the nodes ``i0 .. i0 + n_points`` change by
    ``s * _bary_weights(n_points+1)``: two neighbouring interpolants differ
    by the highest divided difference times a node polynomial, and ``s`` is
    that polynomial's value.  Elsewhere ``s`` is 0.
    """
    i0 = np.ceil(r - 0.5 * n_points)
    np.maximum(i0, 0.0, out=i0)
    top = np.asarray(last, dtype=float) - (n_points - 1)
    moved = i0 > top
    np.minimum(i0, top, out=i0)
    # r - i0 is exact (integer i0 <= r), so the distances below are too
    x = (r - i0).reshape(-1)
    # a target within 1e-9 of a stencil node (a node past the stencil's end
    # leaves it extrapolated) gets a one-hot column and s = 0, as a moved
    # stencil's x is past n_points / 2; its x moves off the node first, so
    # that no weight below divides by zero
    node = np.rint(x)
    np.minimum(node, n_points - 1, out=node)
    gap = x - node
    near = (np.abs(gap, out=gap) < 1e-9).nonzero()[0]
    del gap
    at = node[near]
    del node
    x[near] = 0.5
    # 1/(j - x) rather than 1/(x - j): the sign cancels in the normalisation
    lw = np.subtract.outer(np.arange(n_points, dtype=float), x)
    np.reciprocal(lw, out=lw)
    lw *= _bary_weights(n_points)
    den = np.add.reduce(lw)
    lw /= den
    # den = (n-1)! / prod_{j<n} (j - x), so the node polynomial
    # prod_{0<j<n} (x - j) / (n-1)!, signed to match the (n+1)-point
    # weights, is 1 / (x den)
    s = np.reciprocal(np.multiply(den, x, out=den), out=den)
    del den, x
    lw[:, near] = np.arange(n_points)[:, None] == at
    s = np.where(moved.reshape(-1), s, 0.0)
    s[near] = 0.0
    return i0, lw, s.reshape(r.shape)


# ---------------------------------------------------------------------------
# Starting procedure: fractional Adams PECE on an auxiliary mesh


#: Mesh points per chunk of the start, a multiple of ``_START_BLOCK`` so
#: that its blocks are all full.  A block sums the history since its chunk
#: began directly, in O(_CHUNK) per step; older history reaches it through
#: the far sums, pushed by FFT a chunk at a time (see
#: :func:`_adams_pece_scaled`).
_CHUNK = 1024

#: Steps per block of the start, capped at ``_CHUNK``.  An affine block is
#: one ``np.convolve`` call of its length plus vector work (see
#: :func:`_solve_affine_block`), and a block of either kind adds one
#: ``np.correlate`` per weight table for its near sums.  On the starts of
#: the relax-cli benchmark, affine blocks of 64 gained less than 128, and
#: 256 no more; longer blocks hold more memory.
_START_BLOCK = 128


#: Distances from which the trapezoid's left weight is summed as a series,
#: and the number of its terms: past d = 8 the series' ratio is below
#: (1/15)^2 and six terms reach round-off; nearer, the direct difference
#: loses at most ~2d ulps.
_RL_SERIES_FROM = 8
_RL_SERIES_TERMS = 6


@functools.lru_cache(maxsize=16)
def _rl_series(alpha: float) -> tuple[float, ...]:
    """Coefficients of (rl/r1 - 1/2) / w as a series in w^2, highest
    first (see :func:`_far_rl`).  Over the panel [c - 1/2, c + 1/2],
    r1 = c^(a-1) sum_j a_j w^(2j) with a_j = binom(a-1, 2j)/(2j+1), and
    rl - r1/2 = c^(a-1) w sum_j b_j w^(2j) with b_j = binom(a-1, 2j+1) /
    (2 (2j+3)); these are the quotient's first ``_RL_SERIES_TERMS``
    coefficients."""
    a, b, binom = [1.0], [], 1.0
    for k in range(2 * _RL_SERIES_TERMS - 1):
        binom *= (alpha - 1.0 - k) / (k + 1)
        if k % 2 == 0:
            b.append(binom / (2.0 * (k + 3)))
        else:
            a.append(binom / (k + 2))
    rho = []
    for k, bk in enumerate(b):
        rho.append(bk - sum(a[i] * rho[k - i] for i in range(1, k + 1)))
    return tuple(reversed(rho))


def _near_weights(e: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``r1`` and ``rl`` of unit panels whose near ends lie
    0 < e < ``_RL_SERIES_FROM`` - 1 widths before T, in new arrays of e's
    shape (see :func:`_convolution_tables`): with d = e + 1,
    ``r1 = -d^a expm1(-a log1p(1/e))/a`` and ``rl = i2 - e r1``, with i2 the
    integral of x^a in r1's form; e keeps its digits where e + 1 would not."""
    d = e + 1.0
    lg = -np.log1p(1.0 / e)
    r1 = np.multiply(alpha, lg)
    np.expm1(r1, out=r1)
    r1 *= d**alpha
    r1 /= -alpha
    rl = np.multiply(alpha + 1.0, lg, out=lg)
    np.expm1(rl, out=rl)
    rl *= d ** (alpha + 1.0)
    rl /= -(alpha + 1.0)
    rl -= e * r1
    return r1, rl


def _far_rl(d: np.ndarray, alpha: float, r1: np.ndarray, rl: np.ndarray) -> None:
    """``rl`` of unit panels whose far ends lie ``d >= _RL_SERIES_FROM``
    widths before T, from their ``r1``: with c = d - 1/2 the panel's
    midpoint and w = 1/(2c), rl - r1/2, the integral of (x - c) x^(a-1) over
    x in [d-1, d], is r1 w times a series in w^2 (:func:`_rl_series`).
    ``d`` is overwritten, and one more array as long is made."""
    c = np.subtract(d, 0.5, out=d)
    w = np.divide(0.5, c, out=c)
    w2 = np.multiply(w, w, out=rl)
    rho = _rl_series(alpha)
    acc = np.multiply(rho[0], w2)
    for rj in rho[1:-1]:
        acc += rj
        acc *= w2
    acc += rho[-1]
    acc *= w
    acc += 0.5
    np.multiply(r1, acc, out=rl)


def _convolution_tables(n: int, alpha: float):
    """Unit-step product weights on a uniform grid, by distance, reversed.

    Entry i belongs to the panel whose right end lies e = n - 1 - i steps
    before T, and whose far end d = e + 1: the rectangle weight ``r1`` and
    the trapezoid's left weight ``rl``, in units of h^alpha; entry n
    (e = -1, a panel after T) is 0.  ``rc[i] = wr[i] + rl[i+1]``, with
    ``wr = r1 - rl`` the trapezoid's right weight, is the weight of the node
    e + 1 steps before T, so with g the history, step k's sums are
    ``r1[n-k:n] @ g[:k]`` and ``rc[n-k:] @ g[1:k+1] + rl[n-k] g[0]``.

    No weight is a difference of powers:
    ``r1 = (d^a - (d-1)^a)/a = -d^a expm1(a log1p(-1/d))/a``, and ``rl`` is
    a series from ``_RL_SERIES_FROM`` on (:func:`_far_rl`) and
    :func:`_near_weights` nearer, 1/alpha and 1/(alpha+1) at d = 1.  Each
    weight is within a few ulps of its exact value.
    """
    r1 = np.zeros(n + 1)
    rl = np.zeros(n + 1)
    d = np.arange(n, 0, -1.0)
    far = max(0, n + 1 - _RL_SERIES_FROM)  # entries with d >= _RL_SERIES_FROM
    df, r1f, rlf = d[:far], r1[:far], rl[:far]
    lg = np.divide(-1.0, df, out=rlf)
    np.log1p(lg, out=lg)
    np.multiply(alpha, lg, out=r1f)
    np.expm1(r1f, out=r1f)
    r1f *= np.power(df, alpha, out=rlf)
    r1f /= -alpha
    _far_rl(df, alpha, r1f, rlf)
    if far < n - 1:
        r1[far:n - 1], rl[far:n - 1] = _near_weights(d[far + 1:n], alpha)  # near ends d - 1
    if n:
        r1[n - 1] = 1.0 / alpha
        rl[n - 1] = 1.0 / (alpha + 1.0)
    wr = np.subtract(r1[:n], rl[:n], out=d)
    wr += rl[1:]
    return r1, rl, wr


def _product_sums(g: np.ndarray, theta: float, alpha: float, near: np.ndarray):
    """Product-weight sums over the history ``g`` on the unit-step mesh
    0, 1, .., m-1 at T = m - 1 + theta, 0 < theta < 1, in units of
    step^alpha.

    Returns the rectangle (predictor) sum, the trapezoid (corrector) sum
    without T, and T's trapezoid weight; weights are integrals of
    (T - s)^(alpha-1) times the panel's constant or hat functions, as in
    :func:`_convolution_tables` at d = T - j.  From ``_RL_SERIES_FROM`` on,
    r1 is the difference of powers ((T-j)^a - (T-j-1)^a)/a: the rounding
    error of each power enters two neighbouring weights with opposite
    signs, so in the sums it meets only differences of neighbouring
    samples.  rl is r1 times the series of :func:`_far_rl`; as a difference
    of powers it lost ~d^2 ulps, which did not cancel.  Nearer, ``near``
    holds rows r1 and rl of the panels ending _RL_SERIES_FROM - 2 + theta
    down to theta before T (:func:`_near_weights`).  The last panel,
    [m-1, T], is theta wide: its weights are theta^alpha/alpha,
    theta^alpha/(alpha+1) and the difference of the two.
    """
    m = len(g)
    far = max(0, m - _RL_SERIES_FROM)  # whole panels with d >= _RL_SERIES_FROM
    w = np.empty((2, m - 1))  # rows r1 and rl
    if far:
        r1, rl = w[0, :far], w[1, :far]
        # d from m - 1 + theta down to the last far panel's near end
        d = np.arange(m - 1, _RL_SERIES_FROM - 2, -1.0)
        d += theta
        pa = np.power(d, alpha, out=w[1, :far + 1])
        np.subtract(pa[:-1], pa[1:], out=r1)
        r1 /= alpha
        _far_rl(d[:far], alpha, r1, rl)
        del d
    w[:, far:] = near[:, far + _RL_SERIES_FROM - m:]
    r1_last = theta**alpha / alpha
    rl_last = theta**alpha / (alpha + 1.0)
    # the sums of r1 and rl with g_j and with g_{j+1}; the right weights are r1 - rl
    (rect, left), (r1_next, rl_next) = (w @ g[:-1]).tolist(), (w @ g[1:]).tolist()
    g_last = g.item(-1)
    corr = left + (r1_next - rl_next) + rl_last * g_last
    return rect + r1_last * g_last, corr, r1_last - rl_last


def _tempering(d: np.ndarray, lam: float) -> np.ndarray:
    """e^{-lam d} over the distances ``d``, in place."""
    d *= -lam
    return np.exp(d, out=d)


def _affine_parts(affine, t: np.ndarray):
    """p and q of ``Problem.affine`` over the times ``t``, each an array of
    t's 1-d shape or of one value, for the start's chunks and the steps'
    spans of blocks.  None when p or q raises, is complex, does not broadcast to
    ``t`` or is not finite there; the caller then calls the right-hand
    side."""
    with np.errstate(all="ignore"):
        try:
            p = np.asarray(affine[0](t))
            q = np.asarray(affine[1](t))
        except (ArithmeticError, TypeError, ValueError):
            return None
    # real values of t's 1-d shape, or one value, which broadcasts to t
    for v in (p, q):
        if v.dtype.kind not in "fiu" or v.shape not in ((), (1,), t.shape):
            return None
        if not (math.isfinite(v) if v.ndim == 0 else np.isfinite(v).all()):
            return None
    return p, q


def _one_value(q: np.ndarray) -> float | None:
    """The one value that q of :func:`_affine_parts` takes, as a float, or
    None where it takes more than one: the test of the start's chunks and
    of the steps' spans of blocks for blocks solved at once
    (:func:`_solve_affine_block`)."""
    q0 = q.item(0)
    return None if q.ndim and (q != q0).any() else float(q0)


def _toeplitz_resolvent(kern: np.ndarray, q: float, size: int) -> np.ndarray:
    """The first ``size`` values of the resolvent of ``kern``, whose entry d
    is the weight at distance d (entry 0 unused): the first column of
    (1 - q K)^-1, K the strictly lower-triangular Toeplitz matrix of
    ``kern``.  With x_k = g_k + q sum_{l<k} K(k-l) x_l over a block,
    x = rho * g, * the convolution.  rho is made in pieces of at most
    ``_START_BLOCK`` values, each one call of scipy's Toeplitz solver
    (Levinson recursion, whose work arrays hold some 10 values a row), its
    right-hand side q times the convolution of the earlier pieces with
    ``kern``: O(size^2) time, O(size) memory, and a start block's rho in
    one piece."""
    m = min(size, _START_BLOCK)
    a = kern[:m] * -q
    a[0] = 1.0
    unit = np.zeros(m)
    unit[0] = 1.0
    rho = np.zeros(size)
    rho[0] = 1.0
    for i in range(0, size, m):
        n = min(m, size - i)
        if i:
            rho[i:i + n] = np.convolve(rho[:i], kern[1:i + n])[i - 1:i - 1 + n]
            rho[i:i + n] *= q
        rho[i:i + n] = solve_toeplitz((a[:n], unit[:n]), rho[i:i + n], check_finite=False)
    return rho


def _resolvent_taps(kern: np.ndarray, q: float, size: int) -> np.ndarray:
    """The taps e = (kern * rho)[:size] of :func:`_solve_affine_block`, rho
    the resolvent of ``kern`` for q (:func:`_toeplitz_resolvent`) and * the
    convolution: the product of two lower-triangular Toeplitz matrices is
    that of their convolution, so e is the first column of K (1 - q K)^-1.
    A copy, which does not hold the convolution's other ``size`` values."""
    return np.convolve(kern[:size], _toeplitz_resolvent(kern, q, size))[:size].copy()


def _solve_affine_block(u0: np.ndarray, p, q: float, e: np.ndarray, limit: float):
    """u and f over a block of steps that reads u = u0 + K * f, with
    f = p + q u for one value of q and K the block's kernel, whose taps are
    ``e`` (:func:`_resolvent_taps`): the start's blocks and the steps' far
    spans.  So (1 - q K) f = p + q u0, and u = u0 + e * (p + q u0), one
    convolution; then f = p + q u, as a step's.  ``p`` is 0-d or of u0's
    shape.  None when some u is not finite or past ``limit``, the check
    that :func:`_pece` makes of one u.  The caller holds the errstate
    guard."""
    b = len(u0)
    f = q * u0
    f += p
    u = np.convolve(e[:b], f)[:b]
    u += u0
    # f's values are spent: it holds |u|, then f = p + q u
    if not np.abs(u, out=f).max() <= limit:
        return None
    np.multiply(q, u, out=f)
    f += p
    return u, f


def _resolvent(q: float, hpre: float, r1b: np.ndarray, rcb: np.ndarray, size: int):
    """The taps of the affine start's blocks for a constant q, ``size``
    long (:func:`_resolvent_taps`).

    ``r1b`` and ``rcb`` are tempered in-block weights laid out as ``r1`` and
    ``rc`` of :func:`_convolution_tables`.  With f = p + q u, a block's
    step k reads u_k = g_k + sum_{l<k} K(k-l) f_l, where
    K(d) = hpre (C(d) + c0 q hpre R(d)) holds the corrector's weight C at
    distance d and, through the predictor's f, its weight c0 at distance 0
    times the predictor's R, and g is u less the block's own sums (see
    :func:`_adams_pece_scaled`).
    """
    end = len(rcb)
    kern = np.zeros(size)
    kern[1:] = r1b[end - size + 1:end][::-1]
    kern[1:] *= rcb.item(-1) * q * hpre
    kern[1:] += rcb[end - size:end - 1][::-1]
    kern *= hpre
    return _resolvent_taps(kern, q, size)


def _push_far(gv: np.ndarray, u: np.ndarray, r1: np.ndarray, rc: np.ndarray, p: int, size: int,
              lam_h: float):
    """Add the history f_{p-size} .. f_{p-1} into the far sums of the steps
    p .. p+size-1 that lie on the mesh: the predictor's, kept in ``u``, and
    the corrector's, kept in ``gv`` (see :func:`_adams_pece_scaled`).

    Each is one linear convolution of that history with the weights at
    distances 1 .. size+lt-1, for lt steps, taken by FFT over a period no
    shorter than those weights: the circular wrap then falls only on
    outputs below the ones used.  The tempering e^{-lam_h d} at distance d
    is split at the pivot t_{p-1}: f_j goes in times e^{-lam_h (p-1-j)},
    and step m's sum comes out times e^{-lam_h (m-p+1)}.  Every factor is at
    most 1, and the terms next to the pivot keep 1, so the FFT's error,
    relative to its largest term, stays relative to the sums themselves.
    """
    n = len(gv) - 1
    lt = min(size, n + 1 - p)
    span = size + lt - 1
    nfft = next_fast_len(span, real=True)
    src = rfft(gv[p - size:p] * _tempering(np.arange(size - 1.0, -1.0, -1.0), lam_h), nfft)
    temper = _tempering(np.arange(1.0, lt + 1.0), lam_h)
    # the weights at distance d are r1[n - d] and rc[n - 1 - d]
    for table, end, acc in ((r1, n, u), (rc, n - 1, gv)):
        spec = rfft(table[end - span:end][::-1], nfft)
        spec *= src
        spec = irfft(spec, nfft, overwrite_x=True)[size - 1:span]
        spec *= temper
        acc[p:p + lt] += spec
        del spec  # before the next table's rfft, which would hold both


def _adams_pece_scaled(
    problem: Problem,
    mesh: np.ndarray,
    h: float,
    nodes: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal PECE solve of the Volterra equation.

    Works on the uniform ``mesh`` a + h k, k = 0..n, and returns u at the
    mesh points and at the ``nodes``, which lie strictly off the mesh, in
    (a, mesh[-1] + h) (:func:`_start` keeps the nodes on it).  One predictor
    (product rectangle) and one corrector (product trapezoid) per step;
    their product weights depend only on the distance in steps, so they are
    tabulated once (:func:`_convolution_tables`).  The history is
    gv[j] = f(t_j, u_j), and the kernel's tempering e^{-lam h d} goes into
    the weights at distance d, each sum pivoted at a point of its own so
    that every factor is at most 1.  The name is from when the history was
    scaled by e^{lam t}; it stays, as ``benchmarks/layers.py`` traces the
    start by it.

    The steps after a run in chunks of ``_CHUNK``, each in blocks (see
    below), and a step's history sums have two tiers.  The near tier,
    the history since its chunk began, is summed for all of a block's steps
    at once, one ``np.correlate`` per weight table, pivoted at the block's
    first step's predecessor.  The far tier comes in two far sums per step,
    the predictor's and the corrector's, which u[m] and gv[m] hold until
    step m writes them.  They start with f_0's terms; when chunk i (from 1)
    is done, its last 2^v chunks, 2^v the largest power of 2 dividing i,
    are pushed into the far sums of the next 2^v chunks' steps by FFT
    (:func:`_push_far`).  That counts each point in each later chunk's sums
    exactly once, as in E. Hairer, C. Lubich and M. Schlichte, SIAM J. Sci.
    Stat. Comput. 6(3), 1985, so the far tier costs O(n log n) and the near
    one O(n _CHUNK).

    A chunk runs in blocks of ``_START_BLOCK`` steps (at most ``_CHUNK``).
    The forcing is set up a chunk at a time, and so are p and q of
    ``problem.affine``.  Where q is one finite value over a chunk
    (:func:`_one_value`), a block's steps form a unit lower-triangular
    Toeplitz system: with g, u less the block's own sums, each block is
    one :func:`_solve_affine_block` call, one convolution with the taps
    that :func:`_resolvent` makes once for that q, under one errstate guard
    with g and the taps.  Without ``problem.affine``, where q varies or p
    or q fails over the chunk, and for a block whose solution leaves the
    finite range, the steps are stepped one by one.

    A stepped step, and each node s once the mesh is done, is one
    :func:`_pece` call with one corrector pass; a node's sums are over the
    mesh history before it (:func:`_product_sums`), tempered by
    e^{-lam (s - t_j)}, and its value is not fed back into the history.
    """
    alpha, lam, a, f = problem.alpha, problem.lam, problem.a, problem.rhs
    limit = _blowup_limit(problem)
    n = len(mesh) - 1
    nodes = np.asarray(nodes, dtype=float)

    r1, rl, rc = _convolution_tables(n, alpha)
    hpre = rgamma(alpha) * h**alpha
    u = np.empty(n + 1)
    gv = np.empty(n + 1)
    t_first = mesh.item(0)
    if problem.kind == RIEMANN_LIOUVILLE:
        t_first += _SINGULAR_SHIFT * (mesh.item(1) - mesh.item(0))
    # u and f at t_first, each times e^{lam (t_first - a)}: the weights
    # temper f from a, and u[0] stands at mesh[0] = a
    e = math.exp(lam * (t_first - a))
    u_first = _forcing(problem, t_first)
    u[0] = e * u_first
    gv[0] = e * f(t_first, u_first)
    # the far sums start with f_0's terms, r1 and rl at distance m times e^{-lam h m}
    temper = _tempering(np.arange(1.0, n + 1.0), lam * h)
    temper *= gv.item(0)
    np.multiply(r1[:n][::-1], temper, out=u[1:])
    np.multiply(rl[:n][::-1], temper, out=gv[1:])
    del rl
    # e^{-lam h d} for d = 0 .. _CHUNK, and the in-block weights so tempered
    temper = _tempering(np.arange(_CHUNK + 1.0), lam * h)
    size = min(_START_BLOCK, _CHUNK, n)
    r1b = r1[n - size:] * temper[size::-1]
    rcb = rc[n - size:] * temper[size - 1::-1]
    c0 = rcb.item(-1)
    q_taps = None  # the q of the taps, made when a block first needs them

    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        t_chunk = mesh[lo:hi]
        forc = _forcing(problem, t_chunk)
        parts = None if problem.affine is None else _affine_parts(problem.affine, t_chunk)
        q = None if parts is None else _one_value(parts[1])
        if q is not None:
            p_chunk = np.broadcast_to(parts[0], t_chunk.shape)
        for m0 in range(lo, hi, size):
            m1 = min(m0 + size, hi)
            forc_b = forc[m0 - lo:m1 - lo]
            # the far sums, plus the sums over f_lo .. f_{m0-1} of steps
            # m0 .. m1-1, pivoted at t_{m0-1}
            pred_far = u[m0:m1].copy()
            corr_far = gv[m0:m1].copy()
            if m0 > lo:
                src = gv[lo:m0] * temper[m0 - lo - 1::-1]
                out = temper[1:m1 - m0 + 1]
                pred_far += out * np.correlate(r1[n - m1 + lo + 1:n], src)[::-1]
                corr_far += out * np.correlate(rc[n - m1 + lo:n - 1], src)[::-1]
            if q is not None:
                p = p_chunk[m0 - lo:m1 - lo]
                with np.errstate(all="ignore"):
                    if q != q_taps:
                        q_taps, taps = q, _resolvent(q, hpre, r1b, rcb, size)
                    # u less the block's own sums: the forcing, and hpre times
                    # the corrector's far sums and c0 f at the predictor
                    g = hpre * pred_far
                    g += forc_b
                    g *= q
                    g += p
                    g *= c0
                    g += corr_far
                    g *= hpre
                    g += forc_b
                    solved = _solve_affine_block(g, p, q, taps, limit)
                if solved is not None:
                    u[m0:m1], gv[m0:m1] = solved
                    continue
            for k in range(m1 - m0):
                m = m0 + k
                T = mesh.item(m)
                pred = pred_far.item(k) + float(r1b[size - k:size].dot(gv[m0:m]))
                corr = corr_far.item(k) + float(rcb[size - 1 - k:size - 1].dot(gv[m0:m]))
                u[m] = _pece(f, T, forc_b.item(k), hpre, pred, corr, c0, 1, limit, m, "start")
                gv[m] = f(T, u.item(m))
        if hi <= n:
            i = hi // _CHUNK  # the chunk's number, as hi = 1 + i _CHUNK
            _push_far(gv, u, r1, rc, hi, (i & -i) * _CHUNK, lam * h)

    del r1, rc  # the dense output makes weights of its own
    u_nodes = np.empty(len(nodes))
    if len(nodes):
        due = np.searchsorted(mesh, nodes, side="right")  # the mesh points before each
        forc_nodes = _forcing(problem, nodes)
        # each node's fraction of a step past the last mesh point before it,
        # and the weights of its panels ending fewer than _RL_SERIES_FROM
        # steps before it, theta + 6 .. theta steps
        thetas = (nodes - mesh[due - 1]) / h
        near_nodes = np.stack(_near_weights(
            np.add.outer(thetas, np.arange(_RL_SERIES_FROM - 2, -1, -1.0)), alpha), axis=1)
        for i, (s, m, theta, near, fs) in enumerate(zip(
                nodes.tolist(), due.tolist(), thetas.tolist(), near_nodes, forc_nodes.tolist())):
            g = _tempering(np.subtract(s, mesh[:m]), lam)
            g *= gv[:m]
            u_nodes[i] = _pece(f, s, fs, hpre, *_product_sums(g, theta, alpha, near), 1, limit,
                               m, "start")
    return u, u_nodes


# ---------------------------------------------------------------------------
# The predictor-corrector step

#: Bytes one block build may hold, which sets how many consecutive steps'
#: quadrature stencils and weights one vectorised pass builds.  A build's
#: fixed cost is its some 65 numpy calls: at NI = 7 a one-step block takes
#: 43 us and a 32-step one 80 us (2-CPU Xeon), against 64 and 100 us when
#: each build entered its own buffer scope and made more calls.  Longer
#: blocks amortise that cost over more steps; but a build's peak adds to a
#: solve's.  Per step and quadrature node a build holds 8-byte values:
#: NI + 6 while its stencils are made (the weights and six node-sized
#: temporaries), then 2 NI + 2 (two copies of the weights, or the weights
#: and the gather indices, with the positions and stencil starts); the
#: split scheme's history term, made before them, holds 2 (n_tilde + 1) per
#: step.  A block keeps a row of a few Python floats per step besides, made
#: after the peak.
#: The budget is a 32-step block at NI = 7 and n_quad = 20, 16
#: values a node: 86 KB, and that build peaks at 84 KB under tracemalloc,
#: in ``_BUILD_BUFSIZE``'s buffer scope.  A block is the
#: most steps whose build fits, and at least 32: with n_quad = 20, 64, 56,
#: 51, 42, 36 and 32 steps at NI = 2 to 7.  A build sums each step's row on
#: its own, so the block length never changes a result.
_BLOCK_BYTES = 32 * 21 * 16 * 8

#: Elements per ufunc buffer while a block is built.  At numpy's default
#: (8192) a broadcast operation over a whole block copies its broadcast
#: operands into full-size buffers, which took a build's peak to 1.8 times
#: the block it builds.  ``_march`` enters this scope once around all of a
#: solve's JPC steps: entering and leaving it costs some 9 us, a tenth of
#: a 32-step build.
_BUILD_BUFSIZE = 256

#: Blocks of JPC steps over which p and q of ``Problem.affine`` are
#: evaluated at once (see ``_Stepper._block_parts``), and so the steps of a
#: far span solved at once (``_Stepper._solve_far_block``).  Their cost is
#: mostly per call: for example2, p and q and their checks took 16 us a
#: 32-step block when evaluated block by block, near the 64
#: right-hand-side calls (about 20 us) that they save, and 7 us a block
#: over spans of 8 blocks (2-CPU Xeon).  A span holds at most 16 bytes a
#: step, 4 KB at NI = 7 and n_quad = 20.
_PARTS_BLOCKS = 8

#: The JPC steps take the near window and the far sums (``_Stepper._far_block``)
#: once n - origin > _FAR_FROM n_quad^2, for 0 < alpha < 1.  Past about
#: n_quad^2 steps the whole-span rule's nodes next to t_n lie farther apart
#: than a step, and its corrector's weight on f_n stops shrinking with tau.
#: On D^alpha u = -mu u (alpha 0.5 and 0.8, mu 1 and 16, NI = 2, M = 640,
#: 2560 and 10240) 0.41, 0.5 and 1 gave the same max errors in all 12
#: cells, and 2 gave 3.1e6 at alpha = 0.5, mu = 16, M = 640.  No table
#: solve (n - origin <= 160) reaches 0.5 n_quad^2.
_FAR_FROM = 0.5

#: Steps of the near window per quadrature degree: K = _NEAR_PER_DEGREE n_quad.
#: In those cells K = n_quad gave the same errors, and 4 n_quad 0.135
#: against 0.097 at alpha = 0.5, mu = 16, M = 640.
_NEAR_PER_DEGREE = 2

#: Steps per far-sum block at most, and at most K + 1 - NI + (NI-1)//2, so
#: that every sample a block's far sums read is known at its first step; a
#: block ends at its span's end.  A block's far sums are one (exponentials
#: x block) product that reads the state at its span's checkpoint, decayed
#: to the block, and one convolution of the far kernel with the f values
#: that the state there leaves out.  The state moves from checkpoint to
#: checkpoint a span apart by one (blocks x 32) by (32 x exponentials)
#: product over the span's f values, each row weighed by its decay from a
#: table of one row per 32 values (``_Stepper._advance``); that table, and
#: the state's read into a span, take blocks of this length whatever a far
#: block's, as they read no f value of the block.  At NI = 7 and 20480
#: steps (145 exponentials) the tables hold some 53 KB.  One step call
#: takes a far block of rows, or a span of p and q with one q, solved at
#: once (``_Stepper._solve_far_block``) and written into the trace as one
#: slice; the state is read into the span, its split history term made
#: and the far kernel built a block's length at a time, so that the one
#: table that grows with the span is the decays', a row of exponentials
#: per 32 steps.
_FAR_BLOCK = 32


class _FarTables(NamedTuple):
    """The near window's weights and the far sums' tables, made once per
    solve by ``_Stepper._far_setup``, which defines each of them."""

    near: np.ndarray  # the near window's weights over f_{n-K-NI} .. f_{n-1}
    pref: float  # the near window's rule prefactor, (tau K / 2)^alpha / Gamma(alpha)
    sigma: float  # the corrector's window factor over f_{n-NI} .. f_n
    w_end: float  # sigma times the window's weight on f_n
    c: np.ndarray  # the state's weights in the far sum of step k + K
    rpow: np.ndarray  # rho^d for d < _FAR_BLOCK, (exponentials x _FAR_BLOCK)
    decays: np.ndarray  # rho^(j _FAR_BLOCK), (blocks x exponentials)
    sl: np.ndarray  # rho = e^{-sl}
    ef: np.ndarray  # each f value's weight as it joins the state
    W: np.ndarray  # the far kernel, the far sums' weights by distance
    h: int  # (NI-1)//2
    block: int  # B, the steps of a far block


@functools.lru_cache(maxsize=1)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights of the far sums' panel rule: a 10-point
    Gauss-Legendre rule on each half panel, as a target's stencil may
    change at the panel's midpoint (see ``_Stepper._far_setup``).  Read-only."""
    g, wg = np.polynomial.legendre.leggauss(10)
    y = np.concatenate([0.25 * (g + 1.0), 0.25 * (g + 3.0)])
    wy = 0.25 * np.tile(wg, 2)
    y.flags.writeable = wy.flags.writeable = False
    return y, wy


@contextlib.contextmanager
def _ufunc_bufsize(size: int):
    """Run the body with numpy's ufunc buffers ``size`` elements long (for
    the block builds, around the whole step phase: see ``_BUILD_BUFSIZE``)."""
    # numpy >= 2 restores the size on leaving errstate, and with it the
    # state object that setbufsize made; older numpy needs the finally
    with np.errstate():
        old = np.setbufsize(size)
        try:
            yield
        finally:
            np.setbufsize(old)


class _Stepper:
    """Per-solve state for the Jacobi predictor-corrector iteration.

    Interpolation acts on the samples e^{-lam (t_n - t_i)} f(t_i, u_i), the
    integrand of the Volterra kernel, whose smoothness sets the scheme's
    order.  The history is the f values, and the tempering is in the
    weights: for stencil node i = i0 + j it is e^{-lam tau (n - i0 - NI + 1)}
    e^{-lam tau (NI - 1 - j)}, a factor per step and quadrature node and one
    vector, both at most 1 as the predictor's stencils end at n - 1.

    The origin is grid index ``origin`` (0, or the split point), and
    ``history`` holds ``(nodes, weights, f)`` of the unit-weight rule over
    ``[a, t0]`` for the split scheme.  The steps come in two regimes.

    - While n - origin <= ``_FAR_FROM`` n_quad^2 (and for every step when
      alpha >= 1), quadrature over ``[t_origin, t_n]`` uses the
      Jacobi-weight rule.  Each step's quadrature positions and stencils
      depend only on the step index, so they are built a block of steps at
      a time, of a length fixed once per solve (see ``_BLOCK_BYTES``), the
      last block ending at the switch, inside the buffer scope that
      :func:`_march` holds over all the steps (:meth:`_build_block`).
    - Past it the rule's nodes next to t_n would lie farther apart than a
      step, so the history splits at t_n - K tau, K = ``_NEAR_PER_DEGREE``
      n_quad.  The near window keeps the Jacobi-weight rule over the last K
      steps; its nodes sit at fixed offsets from n, so its stencils,
      tempering and rule weights fold into one weight vector over
      f_{n-K-NI} .. f_{n-1}, with sigma and w_end, built once per solve.
      The far part is a sum over f with weights that depend on the distance
      only, the product integral of the grid's interpolant, taken as a sum
      of about 145 decaying exponentials (:func:`exp_sum`): a state of
      one value per exponential, which leaves out the f values from
      f_{n-K-(NI-1)//2} on, and those f values through the far kernel, the
      sums' weights by distance (:meth:`_far_setup`), in blocks of up to
      ``_FAR_BLOCK`` steps (:meth:`_far_block`).  The state is kept at
      checkpoints a span of p and q apart, counted from the switch, each
      moved on from the last by one product over the span's f values
      (:meth:`_advance`, :meth:`_far_span`), so that it is the same
      whichever way the span's steps are taken.  Every far block lies in
      one span and reads the state at its checkpoint, the f values from
      there on through the far kernel (:meth:`_far_sums`).  Its tables
      hold a block's values per exponential, the decay over each block of
      a span and the far kernel, some 53 KB at NI = 7 and 20480 steps, and
      are made only when a solve reaches the switch.  Spans of p and q
      start afresh at the switch.
      Where p and q of ``Problem.affine`` hold over a span, with one value
      of q, its steps' u and f are a fixed linear recurrence in the f
      values, with the near window's K + NI weights and the far kernel.
      The span is solved at once by the start's block solve
      (:func:`_solve_affine_block`), with taps made once per q, the f
      before it entering through two convolutions and the state's read,
      a block of steps to a row of one product (:meth:`_solve_far_block`),
      in O(span + K + NI) memory; a span whose solution leaves the range
      is taken in blocks of rows, step by step.

    Steps run forward, one step call per block (:meth:`step`), and nothing
    of a block outlives its call.  A span solved at once is written into
    the trace as slices; in any other block each step reads its one row of
    plain floats and writes its u and f.  The predictor's stencils end at
    f_{n-1}; a step's predictor sum is one dot of the weights with the
    history, gathered by index or, past the switch, sliced: the step's one
    numpy call.  The corrector's stencils may reach f_n, and only the tail
    positions whose predictor stencil was clamped to [n-NI, n-1] move
    (to [n-NI+1, n]), so its sum is the predictor's plus a correction over
    the window f_{n-NI..n}: the step's sigma times the fixed tempered
    (NI+1)-point weights.  Over f_{n-NI..n-1} that is sigma times a float
    sum over the last NI f values, which :func:`_march` keeps in a ring;
    the sum is ``math.fsum``, correctly rounded, so it depends on no BLAS
    kernel or summation order.  The weight on f_n, the endpoint's rule
    weight included, is one scalar, so every corrector iteration is scalar
    arithmetic (:func:`_pece`).
    """

    def __init__(
        self,
        problem: Problem,
        config: SolverConfig,
        origin: int = 0,
        history: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.problem = problem
        self.rule = gauss_lobatto(problem.alpha - 1.0, 0.0, config.n_quad)
        self.tau = (problem.b - problem.a) / config.steps
        self.rga = rgamma(problem.alpha)
        self.origin = origin
        self.history = history
        # what every step reads, off the problem and config once
        self.rhs, self.iters = problem.rhs, config.corrector_iters
        self.limit = _blowup_limit(problem)
        self.n_interp = n_interp = config.n_interp
        # 8-byte values per step at a build's peak, and the block length they
        # give (see _BLOCK_BYTES)
        per_step = max(len(self.rule.nodes) * max(2 * n_interp + 2, n_interp + 6),
                       0 if history is None else 2 * len(history[0]))
        self._block = max(32, _BLOCK_BYTES // (8 * per_step))
        # the steps over which p and q are evaluated at once, and a far span's
        # (see _block_parts)
        self._span = _PARTS_BLOCKS * self._block
        lam_tau = problem.lam * self.tau
        self._half_nodes = 0.5 * (self.rule.nodes + 1.0)
        self._offsets = np.tile(np.arange(n_interp), len(self.rule.nodes))
        # the tempering of stencil node j, NI-1-j steps before the stencil's last
        self._stencil_decay = np.exp(-lam_tau * np.arange(n_interp - 1, -1, -1.0))[:, None]
        # and of the window's nodes, NI .. 0 steps before t_n, as floats
        window = (_bary_weights(n_interp + 1).ravel() * np.exp(
            -lam_tau * np.arange(n_interp, -1, -1.0))).tolist()
        self._window_weights, self._end_weight = tuple(window[:-1]), window[-1]
        # p and q over the span of steps _parts_lo .. _parts_hi-1 (see _block_parts)
        self._parts, self._parts_lo, self._parts_hi = None, 0, 0
        # the first step of the near window and far sums, whose set-up waits
        # for it (see _far_block); none for alpha >= 1, whose kernel is no
        # sum of decaying exponentials
        self._near_steps = _NEAR_PER_DEGREE * config.n_quad
        self._switch = origin + 1 + max(int(_FAR_FROM * config.n_quad**2),
                                        self._near_steps + n_interp)
        if problem.alpha >= 1.0:
            self._switch = math.inf
        self._far = None
        # the q of the taps that far spans are solved at once with (see
        # _solve_far_block)
        self._taps_q = self._taps = None

    def _history_part(self, t: np.ndarray) -> np.ndarray:
        """The split scheme's history term over [a, t0] at the times ``t``."""
        nodes, weights, f = self.history
        span = np.subtract.outer(t, nodes)
        kern = span ** (self.problem.alpha - 1.0)
        span *= -self.problem.lam
        kern *= np.exp(span, out=span)
        kern *= f
        # summed row by row, as in _build_block
        kern *= weights
        return self.rga * np.add.reduce(kern, axis=1)

    def _base(self, t: np.ndarray, piece: int) -> np.ndarray:
        """The forcing at the times ``t``, plus the split history term, made
        for at most ``piece`` times at once, as it holds 2 (n_tilde + 1)
        values a time."""
        base = _forcing(self.problem, t)
        if self.history is not None:
            for i in range(0, len(t), piece):
                base[i:i + piece] += self._history_part(t[i:i + piece])
        return base

    def _build_block(self, times: np.ndarray, lo: int):
        """Precompute steps lo..hi-1, under ``_ufunc_bufsize(_BUILD_BUFSIZE)``.

        Returns each step's weights and gather indices, as two arrays of a
        row a step, and the block's rows, one a step, in step order,
        ``(t, base, pref, sigma, w_end, p, q)``: its time, the forcing and
        split history, the rule's prefactor, the window's factor and the
        weight on f_n, and p and q of ``Problem.affine``, both None where
        the step calls the right-hand side (see :meth:`_block_parts`).
        """
        problem, n_interp, origin = self.problem, self.n_interp, self.origin
        hi = min(lo + self._block, len(times))
        if lo < self._switch:
            hi = min(hi, self._switch)
        # p and q over the block, before its arrays
        parts = self._row_parts(self._block_parts(times, lo, hi), hi - lo)
        t = times[lo:hi]
        base = self._base(t, hi - lo)
        span = np.arange(lo - origin, hi - origin, dtype=float)
        r = np.multiply.outer(span, self._half_nodes)
        if origin:
            r += origin
        last = np.arange(lo - 1, hi - 1, dtype=float)[:, None]
        # every temporary goes before the next block-sized array is made, so
        # the peak is the two arrays kept plus the integer starts
        i0, lw, s = _stencil_weights(r, last, n_interp)
        # r takes each stencil's tempering at its last node, n-i0-NI+1
        # steps before t_n, times the node's rule weight
        np.subtract(last - (n_interp - 2), i0, out=r)
        r *= -problem.lam * self.tau
        np.exp(r, out=r)
        r *= self.rule.weights
        i0 = i0.astype(np.intp)
        # the moved stencils change the sum by sigma times the window's
        # (NI+1)-point weights, whose last one multiplies f_n; summed row
        # by row, a step's sigma is its own row's whatever the block
        # length (a BLAS matrix-vector product rounds rows by position)
        s *= self.rule.weights
        sigma = np.add.reduce(s, axis=1)
        del s
        lw *= r.reshape(-1)
        del r
        lw *= self._stencil_decay
        # step-major rows, each quadrature node's stencil contiguous
        c = lw.T.reshape(len(span), -1)
        del lw
        idx = i0.repeat(n_interp).reshape(len(span), -1)
        del i0
        idx += self._offsets
        # plain floats, which a step reads faster than array items, zipped
        # into rows as the steps take them: a list of the block's row
        # tuples would outlive the solve in CPython's tuple free list
        pref = (0.5 * self.tau * span) ** problem.alpha * self.rga
        return c, idx, zip(t.tolist(), base.tolist(), pref.tolist(), sigma.tolist(),
                           (sigma * self._end_weight).tolist(), *parts)

    def _far_setup(self, times: np.ndarray, fs: np.ndarray, lo: int) -> None:
        """The near window's weights and the far sums' tables, once per
        solve, and the far sums' state at lo - K.

        The far part of step n is the integral over [t_origin, t_n - K tau]
        of the grid's NI-point interpolant of the samples
        e^{-lam tau (n-j)} f_j (each target's stencil as in
        :func:`_stencil_weights`) against (n-x)^(alpha-1), in steps, which
        :func:`exp_sum` gives as sum_m w_m e^{-s_m (n-x)}.  Over the unit
        panels before k, that integral of e^{-s_m (k-x)} is H_m, its
        samples tempered to k + NI - 1, so that every factor is at most 1.
        A panel [p, p+1] adds E f over its samples f_{p-h} .. f_{p-h+NI}
        (:meth:`_panel_weights`), and one more panel multiplies H by
        rho_m = e^{-s_m - lam tau}.  Step n reads H at k = n - K through
        c_m = w_m e^{-s_m K} (times the rule's factors), and the panels
        from k on weigh f_i on step n by W(n - i) alone, the far kernel:
        a panel past those clamped at 0 adds Et f, and f_i enters the
        panels i + h - NI .. i + h.

        The state kept is therefore G = H less what the panels before k
        add in the samples from f_{k-h} on, each such panel taken with Et
        whether or not it is clamped or before the origin: step n's far
        sum is sum_m c_m rho_m^(n-K-k) G_m plus sum_{i >= k-h} W(n-i) f_i,
        as the panels that G leaves out are those that W counts.  So every
        sample from f_{k-h} on comes in through W, whatever the panels
        clamped at 0 do, and G moves on over the f values in order, each
        f_i by rho^(k'-1-h-i) times ef = sum_j rho^j Et[:, j] (see
        :meth:`_advance`).  G is made at the first checkpoint, k = lo - K
        at the first far step lo (see :meth:`_far_span`), and the tables
        hold rho^(jT) for the blocks of T = ``_FAR_BLOCK`` values of a span
        (or of the move to it).
        """
        problem, ni, tau, K = self.problem, self.n_interp, self.tau, self._near_steps
        h = (ni - 1) // 2
        B = min(_FAR_BLOCK, K + h + 1 - ni)  # so a block's samples are all known
        lt = problem.lam * tau
        # the near window: the Jacobi-weight rule over the last K steps, as
        # one weight vector over f_{n-K-NI} .. f_{n-1}
        i0, lw, s = _stencil_weights(ni + K * self._half_nodes, K + ni - 1.0, ni)
        lw *= self.rule.weights
        near = np.bincount((i0.astype(np.intp) + np.arange(ni)[:, None]).ravel(), lw.ravel(),
                           K + ni)
        near *= np.exp(-lt * np.arange(K + ni, 0.0, -1.0))
        sigma = float(self.rule.weights @ s)
        sig, w = exp_sum(problem.alpha, K, len(times) - 1 - self.origin)
        E = self._panel_weights(sig)
        # a later panel's E with its samples' tempering to the pivot
        Et = E[h] * np.exp(-lt * np.arange(ni + h, h - 1.0, -1.0))
        # H from the origin over the panels clamped at 0, a panel at a time
        sl = sig + lt
        rho, H = np.exp(-sl), np.zeros(len(sig))
        k = self.origin
        while k < min(h, lo - K):
            H *= rho
            H += E[k] @ (fs[:ni + 1] * np.exp(-lt * np.arange(k + ni, k - 1.0, -1.0)))
            k += 1
        del E
        # rho^d for d < T, rho^(jT) for the blocks of T values of a span and
        # of the move to lo - K below, and rho^B: each an exp, as a power
        # would scale rho's rounding error by d, and the state's decay
        # compounds it.  The tables take blocks of T = _FAR_BLOCK values
        # whatever B, as they read no f value of the far block
        T = _FAR_BLOCK
        rpow = np.multiply.outer(sl, np.arange(0.0, -T, -1.0))
        np.exp(rpow, out=rpow)
        nb = -(-max(self._span, lo - K - k) // T)
        decays = np.exp(np.multiply.outer(np.arange(0.0, -nb * T, -T), sl))
        c = self.rga * tau**problem.alpha * w * np.exp(-sig * K - lt * (K + 1 - ni))
        del sig, w
        # G at k: H less what each panel k-1-r, r < NI, adds in its samples
        # from f_{k-h} on, f_{k-1-r-h+j} for j > r, times rho^r
        for r in range(ni):
            H -= rpow[:, r] * (Et[:, r + 1:] @ fs[k - h:k - h + ni - r])
        # W(D) = sum_j V[j, D - off + j], off = K + 1 + h, with
        # V[j, d] = sum_m c_m rho_m^d Et[m, j] for d >= 0: panel k + l reads
        # f_{k+l-h+j}, which step k + K + 1 + l + d reads through V[j, d].
        # Below off only the j >= off - D count; from off on, W(D) is
        # sum_m c_m rho_m^(D-off) ef_m, T values to a row of one product.
        # It reaches over a span and the K + h f values before it, all that
        # a read inside one span takes
        off = K + 1 + h
        W = np.zeros(self._span + K + h)
        ef = Et[:, ni].copy()
        for j in range(ni, 0, -1):
            W[off - j] = c @ ef
            ef *= rho
            ef += Et[:, j - 1]
        n = len(W) - off
        W[off:] = ((decays[:-(-n // T)] * (c * ef)) @ rpow).ravel()[:n]
        self._far = _FarTables(near, (0.5 * tau * K) ** problem.alpha * self.rga, sigma,
                               sigma * self._end_weight, c, rpow, decays, sl, ef, W, h, B)
        # G at the first checkpoint, k = lo - K (see _far_span)
        self._G, self._Gk = self._advance(H, fs, k, lo - K), lo - K
        # spans of p and q start afresh here, at the same step whatever the
        # block length before the switch
        self._parts_hi = 0

    def _panel_weights(self, sig: np.ndarray) -> np.ndarray:
        """E[p] of the panels p = 0 .. h over their samples 0 .. NI, for the
        exponents ``sig``: the integrals of e^{-sig_m (p+1-x)} times the
        Lagrange weights over the panel [p, p+1], clamped at 0 for p < h,
        and that of every later panel for p = h.  A target's stencil may
        change at the panel's midpoint, so each half takes a 10-point
        Gauss-Legendre rule (:func:`_panel_rule`)."""
        ni = self.n_interp
        h = (ni - 1) // 2
        y, wy = _panel_rule()
        j0, lw, _ = _stencil_weights(np.add.outer(np.arange(h + 1.0), y), 3.0 * ni, ni)
        lag = np.zeros((h + 1, len(y), ni + 1))
        lag[np.arange(h + 1)[:, None, None], np.arange(len(y))[:, None],
            j0.astype(np.intp)[:, :, None] + np.arange(ni)] = lw.T.reshape(h + 1, len(y), ni)
        E = np.multiply.outer(sig, y - 1.0)
        np.exp(E, out=E)
        E *= wy
        return E @ lag

    def _advance(self, G: np.ndarray, fs: np.ndarray, k: int, end: int) -> np.ndarray:
        """The far sums' state G at k moved on to ``end`` over the f values
        in ``fs`` (see :meth:`_far_setup`), as a new array: rho^(end-k) G
        plus ef times sum_i rho^(end-1-h-i) f_i over f_{k-h} .. f_{end-h-1}.
        With the distance d = end-1-h-i = jT + r, T = ``_FAR_BLOCK``,
        rho^d = rho^(jT) rho^r, so the sum is one (blocks x T) by
        (T x exponentials) product over the f values newest first, the
        oldest block padded with zeros, whose rows are weighed by
        rho^(jT) and summed."""
        far, T = self._far, _FAR_BLOCK
        size = end - k
        f = np.zeros(-(-size // T) * T)
        f[:size] = fs[k - far.h:end - far.h][::-1]
        P = f.reshape(-1, T) @ far.rpow.T
        P *= far.decays[:len(P)]
        return G * np.exp(-size * far.sl) + far.ef * np.add.reduce(P, axis=0)

    def _far_span(self, times: np.ndarray, fs: np.ndarray, lo: int):
        """u and f of the far steps from lo to the end of their span of p
        and q, as two arrays, where p and q of ``Problem.affine`` hold over
        it with one value of q (:meth:`_block_parts`): solved at once, as
        the start's affine blocks are (:meth:`_solve_far_block`).  None
        otherwise, or where that solution leaves the range: then the far
        block from lo is stepped (:meth:`_far_block`), so a blow-up names
        its step, and the rest of the span is tried again from the next
        block.  The far sums are set up at the first far step, and their
        state G is moved on to the checkpoint of lo's span, k0 = switch - K
        + j span, each checkpoint from the last by one :meth:`_advance`, so
        that a span solved at once and its steps taken block by block leave
        the same G.
        """
        if self._far is None:
            self._far_setup(times, fs, lo)
        while self._Gk + self._span <= lo - self._near_steps:
            self._G = self._advance(self._G, fs, self._Gk, self._Gk + self._span)
            self._Gk += self._span
        parts = self._block_parts(times, lo, self._far_end(lo, len(times)))
        if parts is None or parts[2] is None:
            return None
        return self._solve_far_block(times, fs, lo, self._parts_hi, parts[0], parts[2])

    def _far_end(self, lo: int, end: int) -> int:
        """The end of the far block from lo: B steps on, cut at the end of
        its span of p and q, switch + j span, and at the grid's ``end``."""
        return min(lo + self._far.block, self._Gk + self._near_steps + self._span, end)

    def _far_block(self, times: np.ndarray, fs: np.ndarray, lo: int):
        """The far block of B steps from lo, cut at the end of its span and
        at the grid's end (:meth:`_far_end`), after :meth:`_far_span`:
        each step's weights and gather slices, and its rows, as
        :meth:`_build_block`'s.

        A step's predictor is the near window's one weight vector over
        f_{n-K-NI} .. f_{n-1}, and its base adds the far sums, read from
        the state at its span's checkpoint k0, with the f values from
        f_{k0-h} on through the far kernel (:meth:`_far_sums`).
        """
        far = self._far
        hi = self._far_end(lo, len(times))
        t = times[lo:hi]
        base = self._base(t, _FAR_BLOCK)
        base += self._far_sums(fs, lo, hi - lo)
        rows = zip(t.tolist(), base.tolist(), repeat(far.pref), repeat(far.sigma),
                   repeat(far.w_end), *self._row_parts(self._block_parts(times, lo, hi), hi - lo))
        near = far.near
        return [near] * (hi - lo), [slice(n - len(near), n) for n in range(lo, hi)], rows

    def _far_sums(self, fs: np.ndarray, lo: int, size: int) -> np.ndarray:
        """The far sums of the steps lo .. lo+size-1 over the f values before
        lo (see :meth:`_far_setup`), all in the span of the state's
        checkpoint k0 (:meth:`_far_span`): G read into them, decayed by
        rho^o, o = lo - K - k0, from the tables, a block of ``_FAR_BLOCK``
        steps to a row of one (rows x exponentials) product, each row's
        decay from the table, and f_{k0-h} .. f_{lo-1} through one
        convolution with the far kernel, size + 1 outputs of L = lo - k0 + h
        products each."""
        far, K, k0, T = self._far, self._near_steps, self._Gk, _FAR_BLOCK
        o = lo - K - k0
        X = far.c * self._G
        X *= far.decays[o // T] * far.rpow[:, o % T]
        if size > T:
            X = far.decays[:-(-size // T)] * X
        sums = (X @ far.rpow).ravel()[:size]
        del X
        L = lo - k0 + far.h
        sums += np.convolve(fs[k0 - far.h:lo], far.W[:L + size], "valid")[1:]
        return sums

    def _far_taps(self, q: float):
        """For f = p + q u with q one value: the factors of base and p in u
        past the switch, u's weights d on the f values at distances
        0 .. K + NI (d_0 = 0), and the taps of a far span, a span long, made
        from d and the far kernel W (:func:`_resolvent_taps`; see
        :meth:`_solve_far_block`)."""
        far = self._far
        kappa = far.pref * far.w_end
        g = kappa * q
        s = sum(g**k for k in range(self.iters))
        gs = g**self.iters + s
        d = np.zeros(len(far.near) + 1)
        np.multiply(far.near[::-1], gs * far.pref, out=d[1:])
        d[1:self.n_interp + 1] += np.array(self._window_weights[::-1]) * (s * far.pref * far.sigma)
        kern = gs * far.W[:self._span]
        n = min(len(d), len(kern))
        kern[:n] += d[:n]
        return gs, s * kappa, d, _resolvent_taps(kern, q, len(kern))

    def _solve_far_block(self, times: np.ndarray, fs: np.ndarray, lo: int, hi: int,
                         p: np.ndarray, q: float):
        """u and f of the far steps lo..hi-1 at once, a span of p and q
        with one value q, for f = p + q u: two arrays, or None when some u
        is not finite or past the blow-up limit.

        With kappa = pref w_end, g = kappa q, i = ``corrector_iters`` and
        S = sum_{k<i} g^k, a step's :func:`_pece` gives
        u_n = (g^i+S)(base_n + pref pred_n) + S (pref sigma W_n + kappa p_n),
        with pred_n the near window's predictor sum and W_n the window's
        sum.  Both are fixed weights on the f values before n, so
        u_n = b_n + sum_{j=1}^{K+NI} d_j f_{n-j} (:meth:`_far_taps`).  The
        far sums in base_n read the state at k = lo - K and weigh each f
        from f_{k-h} on by the far kernel W(n - i) (:meth:`_far_setup`):
        the span's own f among them.  So u0, u less the span's own f,
        takes the f values before lo through one convolution with d and
        their far sums (:meth:`_far_sums`); and f = p + q u makes the span
        one lower-triangular Toeplitz system, whose kernel is d plus
        (g^i+S) W (:func:`_solve_affine_block`).
        """
        size = hi - lo
        with np.errstate(all="ignore"):
            if q != self._taps_q:
                self._taps_q, self._taps = q, self._far_taps(q)
            gs, sk, d, e = self._taps
            u0 = self._far_sums(fs, lo, size)
            u0 += self._base(times[lo:hi], _FAR_BLOCK)
            u0 *= gs
            u0 += sk * p
            J = len(d) - 1
            u0[:J] += np.convolve(fs[lo - J:lo], d)[J:J + size]
            return _solve_affine_block(u0, p, q, e, self.limit)

    def _block_parts(self, times: np.ndarray, lo: int, hi: int):
        """p and q of ``Problem.affine`` from step lo to the end of their
        span, which holds the steps lo..hi-1, each an array or one value,
        and the one value of q over the span, None where it takes more than
        one (:func:`_one_value`); None without them, or where they fail
        over the span (see :func:`_affine_parts`).

        They are evaluated over a span of ``_PARTS_BLOCKS`` blocks at once,
        from the first block past the last span, and where they fail, all
        of the span's steps call the right-hand side.  No block is longer
        than a span, and no far block crosses a span's end.
        """
        affine = self.problem.affine
        if affine is None:
            return None
        if not self._parts_lo <= lo < hi <= self._parts_hi:
            self._parts_lo = lo
            self._parts_hi = min(lo + self._span, len(times))
            parts = _affine_parts(affine, times[lo:self._parts_hi])
            self._parts = None if parts is None else (*parts, _one_value(parts[1]))
        if self._parts is None:
            return None
        p, q, q0 = self._parts
        a = lo - self._parts_lo
        return (p[a:] if p.size > 1 else p), (q[a:] if q.size > 1 else q), q0

    @staticmethod
    def _row_parts(parts, size: int):
        """p and q of the ``size`` rows of a block, as two lists of floats
        (:meth:`_block_parts` gives them from its first step on), or of None
        where the steps call the right-hand side (``parts`` None)."""
        if parts is None:
            return [[None] * size] * 2
        return [v[:size].tolist() if v.size > 1 else [v.item()] * size for v in parts[:2]]

    def step(self, times: np.ndarray, values: np.ndarray, fs: np.ndarray, ring: deque,
             lo: int) -> int:
        """Advance the trace over the block from step lo and return its end.

        ``fs[0..lo-1]`` holds the history f(t_i, u_i), whose last
        ``n_interp`` values ``ring`` holds as floats.  The block is a
        whole-span block (:meth:`_build_block`), a far span solved at once
        (:meth:`_far_span`), written as slices, or a far block of rows
        (:meth:`_far_block`); each row is one step, which writes u into
        ``values`` and f into ``fs`` and ``ring``, with f = p + q u where the
        row has p and q, else one right-hand-side call.
        """
        if lo < self._switch:
            c, idx, rows = self._build_block(times, lo)
        else:
            solved = self._far_span(times, fs, lo)
            if solved is not None:
                u, f = solved
                hi = lo + len(u)
                values[lo:hi] = u
                fs[lo:hi] = f
                ring.extend(f[-self.n_interp:].tolist())
                return hi
            c, idx, rows = self._far_block(times, fs, lo)
        rhs, iters, limit, window = self.rhs, self.iters, self.limit, self._window_weights
        for n, (t, base, pref, sigma, w_end, p, q), c_n, idx_n in zip(count(lo), rows, c, idx):
            pred = float(c_n.dot(fs[idx_n]))
            corr = pred + sigma * math.fsum(map(mul, window, ring))
            u = _pece(rhs, t, base, pref, pred, corr, w_end, iters, limit, n, "step", p, q)
            f = rhs(t, u) if q is None else p + q * u
            values[n] = u
            fs[n] = f
            ring.append(f)
        return lo + len(c)


# ---------------------------------------------------------------------------
# Full solves


def _new_trace(problem: Problem, config: SolverConfig) -> SolutionTrace:
    times = problem.a + (problem.b - problem.a) * np.arange(config.steps + 1) / config.steps
    return SolutionTrace(
        times=times,
        values=np.full(config.steps + 1, np.nan),
        rhs_values=np.full(config.steps + 1, np.nan),
        problem=problem,
        config=config,
    )


def _march(trace: SolutionTrace, u_start: np.ndarray, stepper: _Stepper) -> SolutionTrace:
    """Fill ``trace``: its first values are ``u_start``, the rest come a
    block at a time, each from one step call, which reads the f values
    before it from ``trace.rhs_values``, and the last ``n_interp`` of them
    from a ring of floats, and writes the block's u and f into the trace
    and the ring."""
    rhs, times, values, fs = stepper.rhs, trace.times, trace.values, trace.rhs_values
    for n1, u in enumerate(u_start.tolist()):
        values[n1] = u
        fs[n1] = rhs(times.item(n1), u)
    n1, end, ni = len(u_start), len(times), stepper.n_interp
    # the last n_interp f values, for the corrector's window
    ring = deque(fs[n1 - ni:n1].tolist(), maxlen=ni)
    # one buffer scope for all the steps' block builds (see _BUILD_BUFSIZE)
    with _ufunc_bufsize(_BUILD_BUFSIZE):
        while n1 < end:
            n1 = stepper.step(times, values, fs, ring, n1)
    return trace


def _start(problem: Problem, config: SolverConfig) -> tuple[np.ndarray, _Stepper]:
    """The grid values u_0 .. u_{n_start}, and the stepper that marches on.

    n_start = max(j0, n_interp - 1), with j0 the grid index of ``split_t0``
    (0 without one).  They and u at the split rule's Lobatto nodes come
    from one start mesh: the grid refined by ``start_refine``, or the grid
    itself with ``exact_start``.  A Lobatto node within 1e-9 tau of a mesh
    point takes that point's value.  The mesh values, and u at the other
    nodes, come from one fractional-Adams run (:func:`_adams_pece_scaled`),
    or with ``exact_start`` from ``problem.exact``, at a + _SINGULAR_SHIFT
    tau for t_0 on the Riemann-Liouville kind.
    """
    a, t0 = problem.a, config.split_t0
    tau = (problem.b - a) / config.steps
    j0, s_hist = 0, np.empty(0)
    if t0 is not None:
        if not a < t0 < problem.b:
            raise ValueError(f"split point {t0} must lie inside ({a}, {problem.b})")
        j0 = int(round((t0 - a) / tau))
        if j0 < 1 or abs(a + j0 * tau - t0) > 1e-9 * tau:
            raise ValueError(f"split point {t0} is not aligned with the step {tau}")
        lob = gauss_lobatto(0.0, 0.0, config.n_tilde)
        s_hist = 0.5 * (t0 - a) * (lob.nodes + 1.0) + a
        w_hist = 0.5 * (t0 - a) * lob.weights
    n_start = max(j0, config.n_interp - 1)
    refine = 1 if config.exact_start else config.start_refine
    h = tau / refine
    mesh = a + h * np.arange(n_start * refine + 1)
    # a Lobatto node within 1e-9 tau of a mesh point takes that point's
    # value: far below any legitimate node gap, but wide enough that a node
    # next to a mesh point cannot leave a degenerate panel
    at = np.clip(np.rint((s_hist - a) / h), 0, len(mesh) - 1).astype(np.intp)
    off = np.flatnonzero(np.abs(mesh[at] - s_hist) > 1e-9 * tau)
    if config.exact_start:
        if problem.exact is None:
            raise ValueError("exact_start needs a problem with an exact solution")
        if problem.kind == RIEMANN_LIOUVILLE:
            mesh[0] += _SINGULAR_SHIFT * tau
        u_mesh = np.array([float(problem.exact(t)) for t in mesh])
        u_off = [problem.exact(s) for s in s_hist[off].tolist()]
    else:
        u_mesh, u_off = _adams_pece_scaled(problem, mesh, h, s_hist[off])
    u_hist = u_mesh[at]
    u_hist[off] = u_off
    u_start = u_mesh[::refine].copy()
    if t0 is None:
        return u_start, _Stepper(problem, config)
    f_hist = np.array([problem.rhs(float(s), float(u)) for s, u in zip(s_hist, u_hist)])
    return u_start, _Stepper(problem, config, j0, (s_hist, w_hist, f_hist))


def _check_data(problem: Problem, times: np.ndarray) -> None:
    """Raise :class:`NegativeOrderDataError` for Riemann-Liouville data of
    negative order (:func:`_negative_order_data`) when the right-hand side
    reads u: when q is not zero at every grid time past a where
    ``problem.affine`` gives it, else when ``rhs`` at t_1 differs at two
    values of u."""
    bad = _negative_order_data(problem)
    if not bad:
        return
    parts = None if problem.affine is None else _affine_parts(problem.affine, times[1:])
    if parts is None:
        t1 = times.item(1)
        reads_u = problem.rhs(t1, 1.0) != problem.rhs(t1, 2.0)
    else:
        reads_u = bool(np.any(parts[1] != 0.0))
    if reads_u:
        k, g = bad[0]
        raise NegativeOrderDataError(
            f"Riemann-Liouville datum init[{k}] = {g:g} has negative order "
            f"alpha - {k + 1} = {problem.alpha - k - 1:.6g}, so u is unbounded at a, and the "
            f"scheme does not converge where the right-hand side reads u; "
            f"give init[{k}] = 0, or a right-hand side of t alone"
        )


def solve(problem: Problem, config: SolverConfig) -> SolutionTrace:
    """Solve the problem on the uniform grid with the predictor-corrector.

    With ``config.split_t0`` set, this is :func:`solve_split`'s scheme.
    Raises :class:`BlowUpError` (naming the step) if the solution leaves
    the finite range, :class:`NegativeOrderDataError` before the start for
    Riemann-Liouville data of negative order with a right-hand side that
    reads u (see :func:`_check_data`), and ``ValueError`` for a bad split
    point or an ``exact_start`` without an exact solution.
    """
    trace = _new_trace(problem, config)
    _check_data(problem, trace.times)
    return _march(trace, *_start(problem, config))


def solve_split(problem: Problem, config: SolverConfig) -> SolutionTrace:
    """Split-interval solve for solutions that are non-smooth near ``a``.

    The history integral over ``[a, t0]`` uses a fixed (n_tilde+1)-point
    unit-weight Gauss-Lobatto rule with the kernel inside the integrand;
    the RHS values at those fixed nodes, and the trace values at the grid
    nodes up to ``t0``, come from the start over ``[a, t0]`` (see
    :func:`_start`).  Beyond ``t0`` the scheme proceeds as in
    :func:`solve` with the Jacobi-weight rule on ``[t0, t]``.
    """
    if config.split_t0 is None:
        raise ValueError("solve_split requires config.split_t0")
    return solve(problem, config)
