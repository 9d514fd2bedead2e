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
vectorised build precomputes them for a block of 32 consecutive steps
(``_BLOCK``).  The weights also carry the kernel's tempering
e^{-lam (t_n - t_i)} of each sample, a factor of at most 1, so the history
a step reads is the trace's own f values.  A step's predictor is then one
gather of that history and one dot product; the corrector's stencils
differ only next to the new node, so its sum is the predictor's plus a
window over the last ``n_interp + 1`` nodes, and each corrector iteration
is scalar arithmetic plus the right-hand-side call.

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
system, solved by one convolution with its resolvent, which is computed
once per start.  Any other block is stepped, each step two short dot
products plus the right-hand-side calls.  For solutions that are non-smooth
at the start, the split scheme (``split_t0``) integrates the history over
``[a, t0]`` with a fixed unit-weight Gauss-Lobatto rule, and only the
smooth tail ``[t0, t]`` with the Jacobi-weight rule; that history term is
evaluated for a block of steps at once.  u at each Lobatto node off the
refined grid is one more PECE step over the finished grid history before
the node (dense output), which is not fed back into the history.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .quadrature import gauss_lobatto
from .specfun import rgamma

__all__ = [
    "Problem",
    "SolverConfig",
    "SolutionTrace",
    "SolverError",
    "BlowUpError",
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
    Where q is constant (a 0-d value, or one value over a chunk of the
    start), the starting procedure solves a block of steps at once (see
    :func:`_adams_pece_scaled`); it steps through a q that varies, and
    ``rhs`` still serves everything else.
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
    as on the refined grid.
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

    @property
    def tau(self) -> float:
        return (self.problem.b - self.problem.a) / self.config.steps

    def exact_values(self) -> np.ndarray:
        """The problem's exact solution at the grid times, evaluated once.

        ``exact`` is called once with the array of times.  If that raises
        (as a function of one float does), or gives anything but a finite
        float array of the grid's shape, it is called node by node instead,
        so the values and errors are those of the scalar calls.
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


def _forcing_scaled(problem: Problem, t: np.ndarray | float) -> np.ndarray | float:
    """Initial-data forcing in the scaled variable w = e^{lam (t-a)} u.

    Caputo: sum_k c_k e^{-lam a} (t-a)^k / k!.
    RL:     sum_k g_k e^{-lam a} (t-a)^(alpha-k-1) / Gamma(alpha-k); singular
    at t = a whenever the highest-order datum is nonzero.
    """
    dt = np.asarray(t, dtype=float) - problem.a
    scale = math.exp(-problem.lam * problem.a)
    acc = np.zeros_like(dt)
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
    return acc if acc.shape else float(acc)


def volterra_forcing(problem: Problem, t: float) -> float:
    """Forcing term of the equivalent Volterra equation at time ``t``.

    For Riemann-Liouville problems the forcing is singular at ``t = a``;
    that point is rejected (the solver itself works with a one-sided
    surrogate there, see :func:`solve`).
    """
    if t < problem.a:
        raise ValueError(f"t={t} is before the lower terminal a={problem.a}")
    if problem.kind == RIEMANN_LIOUVILLE and t == problem.a:
        if any(
            gk != 0.0 and problem.alpha - k - 1 < 0
            for k, gk in enumerate(problem.init)
        ):
            raise ValueError("Riemann-Liouville forcing is singular at t = a")
    dt = t - problem.a
    return math.exp(-problem.lam * dt) * float(_forcing_scaled(problem, t))


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
    ``last`` broadcasts against ``r``.  Returns the starts ``i0`` as floats
    of ``r``'s shape, the weights ``l`` with the stencil axis first, over
    the targets in ``r``'s flat order, and ``s`` of ``r``'s shape: the
    interpolant at target p is ``sum_j l[j, p] f[i0.flat[p] + j]``.  A
    target within 1e-9 of a node gets a one-hot column: it returns the
    sample.

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
    # 1/(j - x) rather than 1/(x - j): the sign cancels in the normalisation
    lw = np.subtract.outer(np.arange(n_points, dtype=float), x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.reciprocal(lw, out=lw)
        lw *= _bary_weights(n_points)
        den = np.add.reduce(lw)
        lw /= den
        # den = (n-1)! / prod_{j<n} (j - x), so the node polynomial
        # prod_{0<j<n} (x - j) / (n-1)!, signed to match the (n+1)-point
        # weights, is 1 / (x den)
        s = np.reciprocal(np.multiply(den, x, out=den), out=den)
        del den
    node = np.rint(x)
    # x is done with: it takes the distances to the nearest nodes
    np.subtract(x, node, out=x)
    near = np.flatnonzero(np.abs(x, out=x) < 1e-9)
    del x
    at = node[near]
    del node
    hit = at < n_points
    lw[:, near[hit]] = np.arange(n_points)[:, None] == at[hit]
    s = np.where(moved.reshape(-1), s, 0.0)
    s[near[(at >= 1.0) & hit]] = 0.0
    return i0, lw, s.reshape(r.shape)


# ---------------------------------------------------------------------------
# Starting procedure: fractional Adams PECE on an auxiliary mesh


#: Mesh points per chunk of the start, a multiple of ``_START_BLOCK`` so
#: that its blocks are all full.  A block sums the history since its chunk began directly, in O(_CHUNK) per
#: step; older history reaches it through the far sums, pushed by FFT a
#: chunk at a time (see :func:`_adams_pece_scaled`).
_CHUNK = 1024

#: Steps per block of the start, capped at ``_CHUNK``.  A resolvent block is
#: one or two ``np.convolve`` calls of its length plus vector work (see
#: :func:`_resolvent_block`), and a block of either kind adds one
#: ``np.correlate`` per weight table for its near sums.  On the starts of
#: the relax-cli benchmark, resolvent blocks of 64 gained less than 128, and
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


def _constant_q_parts(affine, t):
    """p over the times ``t`` and the one value of q there, for the start's
    resolvent blocks: p is a float where it is 0-d, else an array of t's
    shape.  None when q takes more than one value or one that is not
    finite, or when p or q raises, is complex or does not broadcast to
    ``t``; the chunk is then stepped."""
    with np.errstate(all="ignore"):
        try:
            p = np.asarray(affine[0](t))
            q = np.asarray(affine[1](t))
            if p.dtype.kind not in "fiu" or q.dtype.kind not in "fiu":
                return None
            # values of t's 1-d shape, or one value, broadcast to t
            if not {p.shape, q.shape} <= {(), (1,), t.shape}:
                return None
        except (ArithmeticError, TypeError, ValueError):
            return None
        q0 = q.item(0)
        if not math.isfinite(q0) or q.ndim and (q != q0).any():
            return None
    return (float(p) if p.ndim == 0 else np.broadcast_to(p, t.shape)), float(q0)


def _resolvent(q: float, hpre: float, r1b: np.ndarray, rcb: np.ndarray, size: int):
    """The in-block kernel of the affine start for a constant q, its running
    sums, and its resolvent, each ``size`` long (see :func:`_resolvent_block`).

    ``r1b`` and ``rcb`` are tempered in-block weights laid out as ``r1`` and
    ``rc`` of :func:`_convolution_tables`.  With f = p + q u, a block's
    step k reads u_k = g_k + sum_{l<k} K(k-l) f_l, where
    K(d) = hpre (C(d) + c0 q hpre R(d)) holds the corrector's weight C at
    distance d and, through the predictor's f, its weight c0 at distance 0
    times the predictor's R.  So (1 - q K) * u = g + K * p, with * the
    convolution, and the resolvent rho is the inverse of 1 - q K as a power series, the first
    column of the unit lower-triangular Toeplitz matrix's inverse.  Newton
    doubling, rho <- rho (2 - (1 - q K) rho), doubles the number of its
    correct terms with two ``np.convolve`` calls.
    """
    end = len(rcb)
    kern = np.zeros(size)
    kern[1:] = r1b[end - size + 1:end][::-1]
    kern[1:] *= rcb.item(-1) * q * hpre
    kern[1:] += rcb[end - size:end - 1][::-1]
    kern *= hpre
    a = kern * -q
    a[0] = 1.0
    rho = np.empty(size)
    rho[0] = 1.0
    k = 1
    while k < size:
        m = min(2 * k, size)
        # a rho - 1 is 0 below k
        res = np.convolve(a[:m], rho[:k])[k:m]
        rho[k:m] = np.convolve(rho[:k], res)[:m - k]
        rho[k:m] *= -1.0
        k = m
    return kern, np.cumsum(kern), rho


def _resolvent_block(p, q, hpre, forc, pred0, corr_far, c0, kern, cum, rho):
    """u over a block of start steps for f = p + q u with q constant, as
    ``rho * (g + K * p)`` (:func:`_resolvent`).

    Step k's predictor is ``pred0[k]`` plus hpre times its in-block
    rectangle sum, and its corrector is ``forc[k]`` plus hpre times
    ``corr_far[k]``, its in-block trapezoid sum and c0 f at the predictor;
    g is u less the in-block sums.  A float p makes K * p the running sums
    ``cum`` times p.  Returns u and f, or None when some u is not finite or
    past the blow-up limit; a p that is not finite makes u so from its
    step on.
    """
    b = len(forc)
    with np.errstate(all="ignore"):
        g = q * pred0
        g += p
        g *= c0
        g += corr_far
        g *= hpre
        g += forc
        if isinstance(p, float):
            g += p * cum[:b]
        else:
            g += np.convolve(kern[:b], p)[:b]
        u = np.convolve(rho[:b], g)[:b]
        if not np.abs(u).max() <= _BLOWUP_LIMIT:
            return None
    f = q * u
    f += p
    return u, f


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
    ``problem.affine``.  Where q is one finite value over a chunk, a
    block's steps form a unit lower-triangular Toeplitz system, so each
    block is one or two convolutions with the kernel and resolvent that
    :func:`_resolvent` makes once for that q (:func:`_resolvent_block`).
    Without ``problem.affine``, where q varies or p or q fails over the
    chunk, and for a block whose solution leaves the finite range, the
    steps are stepped one by one.

    Each node s gets one PECE step over the mesh history before it
    (:func:`_product_sums`), tempered by e^{-lam (s - t_j)}, once the mesh
    is done; its value is not fed back into the history.
    """
    alpha, lam, a, f = problem.alpha, problem.lam, problem.a, problem.rhs
    n = len(mesh) - 1
    nodes = np.asarray(nodes, dtype=float)

    r1, rl, rc = _convolution_tables(n, alpha)
    hpre = rgamma(alpha) * h**alpha
    u = np.empty(n + 1)
    gv = np.empty(n + 1)
    t_first = mesh.item(0)
    if problem.kind == RIEMANN_LIOUVILLE:
        t_first += _SINGULAR_SHIFT * (mesh.item(1) - mesh.item(0))
    u[0] = _forcing_scaled(problem, t_first)  # the forcing of u itself, as mesh[0] = a
    # f at t_first, times e^{lam (t_first - a)}: the weights temper it from a
    e = math.exp(lam * (t_first - a))
    gv[0] = e * f(t_first, u[0] / e)
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
    q_kern = None  # the q of the resolvent, made when a chunk first needs it

    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        t_chunk = mesh[lo:hi]
        forc = np.exp(-lam * (t_chunk - a))
        forc *= _forcing_scaled(problem, t_chunk)
        parts = None if problem.affine is None else _constant_q_parts(problem.affine, t_chunk)
        if parts is not None:
            p_chunk, q = parts
            if q != q_kern:
                kern, cum, rho = _resolvent(q, hpre, r1b, rcb, size)
                q_kern = q
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
            if parts is not None:
                p = p_chunk if isinstance(p_chunk, float) else p_chunk[m0 - lo:m1 - lo]
                solved = _resolvent_block(p, q, hpre, forc_b, forc_b + hpre * pred_far,
                                          corr_far, c0, kern, cum, rho)
                if solved is not None:
                    u[m0:m1], gv[m0:m1] = solved
                    continue
            for k in range(m1 - m0):
                m = m0 + k
                T = mesh.item(m)
                fm = forc_b.item(k)
                pred = fm + hpre * (pred_far.item(k) + float(r1b[size - k:size].dot(gv[m0:m])))
                gv[m] = f(T, pred)
                val = fm + hpre * (corr_far.item(k) + float(rcb[size - 1 - k:].dot(gv[m0:m + 1])))
                if not math.isfinite(val) or abs(val) > _BLOWUP_LIMIT:
                    raise BlowUpError(m, T, val, "start")
                u[m] = val
                gv[m] = f(T, val)
        if hi <= n:
            i = hi // _CHUNK  # the chunk's number, as hi = 1 + i _CHUNK
            _push_far(gv, u, r1, rc, hi, (i & -i) * _CHUNK, lam * h)

    del r1, rc  # the dense output makes weights of its own
    u_nodes = np.empty(len(nodes))
    if len(nodes):
        due = np.searchsorted(mesh, nodes, side="right")  # the mesh points before each
        forc_nodes = np.asarray(_forcing_scaled(problem, nodes), dtype=float)
        forc_nodes *= np.exp(-lam * (nodes - a))
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
            acc_pred, acc, w_end = _product_sums(g, theta, alpha, near)
            pred = fs + hpre * acc_pred
            val = fs + hpre * (acc + w_end * f(s, pred))
            if not math.isfinite(val) or abs(val) > _BLOWUP_LIMIT:
                raise BlowUpError(m, s, val, "start")
            u_nodes[i] = val
    return u, u_nodes


# ---------------------------------------------------------------------------
# The predictor-corrector step

#: Consecutive steps whose quadrature stencils and weights are built in one
#: vectorised pass.  A build's numpy calls cost much the same for any block
#: length, so longer blocks amortise them over more steps.  Each step of a
#: block holds (n_quad+1) n_interp weights and as many gather indices, 2.35 KB
#: at n_quad = 20 and n_interp = 7: 75 KB per block, and a build peaks at
#: 84 KB under tracemalloc, which adds to a solve's peak memory.
_BLOCK = 32

#: Elements per ufunc buffer while a block is built.  At numpy's default
#: (8192) a broadcast operation over a whole block copies its broadcast
#: operands into full-size buffers, which took a build's peak to 1.8 times
#: the block it builds.
_BUILD_BUFSIZE = 256


@contextlib.contextmanager
def _ufunc_bufsize(size: int):
    """Run the body with numpy's ufunc buffers ``size`` elements long."""
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

    Quadrature over ``[t_origin, t_n]`` uses the Jacobi-weight rule; the
    origin is grid index ``origin`` (0, or the split point), and ``history``
    holds ``(nodes, weights, f)`` of the unit-weight rule over ``[a, t0]``
    for the split scheme.  Each step's quadrature positions and stencils
    depend only on the step index, so they are built ``_BLOCK`` steps at a
    time.  The predictor's stencils end at f_{n-1}; a step's predictor sum
    is one gather of the history and one dot with the combined weights.
    The corrector's stencils may reach f_n, and only the tail positions
    whose predictor stencil was clamped to [n-NI, n-1] move (to
    [n-NI+1, n]), so its sum is the predictor's plus a correction over the
    window f_{n-NI..n}.  The window's weight on f_n, the endpoint's rule
    weight included, is one scalar, so every corrector iteration is scalar
    arithmetic.
    """

    def __init__(
        self,
        problem: Problem,
        config: SolverConfig,
        origin: int = 0,
        history: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.problem = problem
        self.config = config
        self.rule = gauss_lobatto(problem.alpha - 1.0, 0.0, config.n_quad)
        self.tau = (problem.b - problem.a) / config.steps
        self.rga = rgamma(problem.alpha)
        self.origin = origin
        self.history = history
        n_interp = config.n_interp
        lam_tau = problem.lam * self.tau
        self._half_nodes = 0.5 * (self.rule.nodes + 1.0)
        self._offsets = np.tile(np.arange(n_interp), len(self.rule.nodes))
        # the tempering of stencil node j, NI-1-j steps before the stencil's last
        self._stencil_decay = np.exp(-lam_tau * np.arange(n_interp - 1, -1, -1.0))[:, None]
        # and of the window's nodes, NI .. 0 steps before t_n
        self._window_weights = _bary_weights(n_interp + 1).ravel() * np.exp(
            -lam_tau * np.arange(n_interp, -1, -1.0))
        self._lo = self._hi = 0

    def _history_part(self, t: np.ndarray) -> np.ndarray:
        """The split scheme's history term over [a, t0] at the times ``t``."""
        nodes, weights, f = self.history
        span = np.subtract.outer(t, nodes)
        kern = span ** (self.problem.alpha - 1.0)
        span *= -self.problem.lam
        kern *= np.exp(span, out=span)
        kern *= f
        return self.rga * (kern @ weights)

    def _build_block(self, times: np.ndarray, lo: int) -> None:
        """Precompute steps lo..hi-1."""
        problem, n_interp = self.problem, self.config.n_interp
        hi = min(lo + _BLOCK, len(times))
        self._c = self._idx = None  # release the last block's first: lowers the peak
        t = times[lo:hi]
        base = np.exp(-problem.lam * (t - problem.a)) * _forcing_scaled(problem, t)
        if self.history is not None:
            base += self._history_part(t)
        self._base = base
        n = np.arange(lo, hi, dtype=float)
        span = n - self.origin
        r = np.multiply.outer(span, self._half_nodes)
        r += self.origin
        # every temporary goes before the next block-sized array is made, so
        # the peak is the two arrays kept plus the integer starts
        with _ufunc_bufsize(_BUILD_BUFSIZE):
            i0, lw, s = _stencil_weights(r, (n - 1.0)[:, None], n_interp)
            # r takes each stencil's tempering at its last node, n-i0-NI+1
            # steps before t_n, times the node's rule weight
            np.subtract((n - (n_interp - 1))[:, None], i0, out=r)
            r *= -problem.lam * self.tau
            np.exp(r, out=r)
            r *= self.rule.weights
            i0 = i0.astype(np.intp)
            # the moved stencils change the sum by sigma times the window's
            # (NI+1)-point weights, whose last one multiplies f_n
            sigma = s @ self.rule.weights
            del s
            lw *= r.reshape(-1)
            del r
            lw *= self._stencil_decay
            # step-major rows, each quadrature node's stencil contiguous
            self._c = lw.T.reshape(len(n), -1)
            del lw
            idx = np.repeat(i0, n_interp).reshape(len(n), -1)
            del i0
            idx += self._offsets
            self._idx = idx
        self._window = np.multiply.outer(sigma, self._window_weights[:-1])
        self._w_end = sigma * self._window_weights[-1]
        self._pref = (0.5 * self.tau * span) ** problem.alpha * self.rga
        self._lo, self._hi = lo, hi

    def step(self, times: np.ndarray, fs: np.ndarray, n1: int) -> float:
        """Advance to times[n1] given the history f(t_i, u_i) in fs[0..n1-1]."""
        if not self._lo <= n1 < self._hi:
            self._build_block(times, n1)
        k = n1 - self._lo
        t_next = times.item(n1)
        base = self._base.item(k)
        pref = self._pref.item(k)

        acc = float(self._c[k].dot(fs[self._idx[k]]))
        u_new = base + pref * acc
        acc += float(self._window[k].dot(fs[n1 - self.config.n_interp:n1]))
        w_end = self._w_end.item(k)
        for _ in range(self.config.corrector_iters):
            u_new = base + pref * (acc + w_end * self.problem.rhs(t_next, u_new))
        if not math.isfinite(u_new) or abs(u_new) > _BLOWUP_LIMIT:
            raise BlowUpError(n1, t_next, u_new, "step")
        return u_new


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
    """Fill ``trace``: its first values are ``u_start``, the rest are stepped,
    each step reading the f values before it from ``trace.rhs_values``."""
    problem, times, fs = trace.problem, trace.times, trace.rhs_values
    for n1 in range(len(times)):
        u = float(u_start[n1]) if n1 < len(u_start) else stepper.step(times, fs, n1)
        trace.values[n1] = u
        fs[n1] = problem.rhs(float(times[n1]), u)
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


def solve(problem: Problem, config: SolverConfig) -> SolutionTrace:
    """Solve the problem on the uniform grid with the predictor-corrector.

    With ``config.split_t0`` set, this is :func:`solve_split`'s scheme.
    Raises :class:`BlowUpError` (naming the step) if the solution leaves
    the finite range, and ``ValueError`` for a bad split point or an
    ``exact_start`` without an exact solution.
    """
    return _march(_new_trace(problem, config), *_start(problem, config))


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
