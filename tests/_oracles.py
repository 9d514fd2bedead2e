"""Independent oracles used by the test suite.

The special-function, quadrature and product-weight oracles are computed
with mpmath at >= 50 significant digits and by construction do not share
code paths with the package: series are summed directly, moments come from
binomial expansions, recurrence coefficients from Gram-Schmidt on
monomials, and product weights from differences of powers.
The fractional-Adams reference (:func:`adams_pece_reference`) is a plain
double-precision O(m^2) loop that rebuilds every product weight from the
mesh at every step.  Two more plain-double references keep earlier forms of
package code that were replaced by faster ones with the same arithmetic:
:func:`ml_series_reference`, the Mittag-Leffler series computing every
coefficient per term, and :func:`evaluate_reference`, the recursive
expression interpreter.  :func:`lagrange_reference` interpolates a stencil
of samples with the Lagrange basis in product form, not with the
solver's barycentric stencil weights.  :class:`BlockStepperReference`
keeps the earlier JPC step operator, which builds the predictor's and the
corrector's stencil weights separately and gathers each through a sliding
window of an exponentially scaled copy of the history, rebased as it grows;
:func:`solve_reference` runs a solve with it, through a march of its own.
"""

import math

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tfode import expr, solver
from tfode.quadrature import gauss_lobatto
from tfode.specfun import MittagLefflerError, rgamma

mp.mp.dps = 50


#: Digits the mpmath Mittag-Leffler oracles keep beyond those they lose.
_SPARE_DIGITS = 50


def ml_series(alpha, beta, z):
    """Mittag-Leffler sum in mpmath arithmetic, with precision matched to
    its cancellation: the largest term is about exp(|z|^(1/alpha)) times
    the size of the result, so the sum carries |z|^(1/alpha) / ln 10 digits
    on top of ``_SPARE_DIGITS``, as ``benchmarks/reference.py`` does."""
    radius = abs(float(z))
    peak = radius ** (1.0 / alpha)
    with mp.workdps(_SPARE_DIGITS + int(peak / math.log(10.0)) + 1):
        x = mp.mpf(z)
        tiny = mp.mpf(10) ** -_SPARE_DIGITS
        total, power, k = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = power * mp.rgamma(mp.mpf(alpha) * k + beta)
            total += term
            if k > 2.0 * peak + 2.0 and abs(term) <= tiny * abs(total):
                return total
            power *= x
            k += 1


def ml_asymptotic(alpha, beta, z, kmax=5000):
    """``-sum_k z^-k / Gamma(beta - alpha k)``, the expansion of
    ``E_{alpha,beta}(z)`` for large negative ``z`` and ``0 < alpha < 1``,
    where it has no exponential part, in mpmath arithmetic.  The expansion
    diverges; it is summed until a term is ``_SPARE_DIGITS`` digits below
    the sum, and raises ``ArithmeticError`` if that takes over ``kmax``
    terms."""
    with mp.workdps(2 * _SPARE_DIGITS):
        x = mp.mpf(z)
        tiny = mp.mpf(10) ** -_SPARE_DIGITS
        total = mp.mpf(0)
        for k in range(1, kmax + 1):
            term = -mp.rgamma(mp.mpf(beta) - mp.mpf(alpha) * k) / x**k
            total += term
            if term != 0 and abs(term) <= tiny * abs(total):
                return total
    raise ArithmeticError(f"asymptotic expansion does not settle at alpha={alpha}, z={z}")


def _ml_term(z, k, x):
    """k-th series term z^k / Gamma(x) without overflowing z**k, and from
    log|Gamma(x)| where 1/Gamma(x) underflows to 0.0."""
    r = rgamma(x)
    if (z == 0.0 and k) or (r == 0.0 and x <= 0.0):
        return 0.0
    lk = 0.0 if z == 0.0 else k * math.log(abs(z))
    if lk < 690.0 and r != 0.0:
        return z**k * r
    mag = math.exp(lk - math.lgamma(x))
    return -mag if (z < 0.0 and k % 2 == 1) else mag


def ml_series_reference(alpha, beta, z, zmax=50.0):
    """Mittag-Leffler series in doubles, each coefficient computed per term.

    The same Neumaier sum, stopping rule and cancellation check as the
    series in ``specfun.mittag_leffler``, so the two agree bit for bit,
    errors included, wherever that function uses its series.
    """
    if alpha <= 0.0:
        raise MittagLefflerError(f"alpha must be positive, got {alpha}")
    if not abs(z) <= zmax:
        raise MittagLefflerError(f"|z| = {abs(z)} exceeds the supported bound {zmax}")
    total = 0.0
    comp = 0.0
    mag = 0.0
    small_streak = 0
    for k in range(100_000):
        term = _ml_term(z, k, alpha * k + beta)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        mag += abs(term)
        if abs(term) <= 1e-16 * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 3:
                total += comp
                if mag == math.inf:
                    raise OverflowError(
                        f"Mittag-Leffler series for alpha={alpha}, beta={beta}, z={z} "
                        f"overflows"
                    )
                if np.finfo(float).eps * mag > 1e-8 * abs(total):
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


def evaluate_reference(node, bindings):
    """Recursive tree-walking evaluation of an expression AST."""
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise expr.EvalError(f"variable {node.name!r} is not bound") from None
    if isinstance(node, expr.Neg):
        return -evaluate_reference(node.operand, bindings)
    if isinstance(node, expr.BinOp):
        x = evaluate_reference(node.left, bindings)
        y = evaluate_reference(node.right, bindings)
        if node.op == "+":
            return x + y
        if node.op == "-":
            return x - y
        if node.op == "*":
            return x * y
        if node.op == "/":
            return x / y
        return x**y
    fn = expr.FUNCTIONS[node.func][1]
    return float(fn(*(evaluate_reference(arg, bindings) for arg in node.args)))


def jacobi_moment(a, b, k):
    """m_k = int_{-1}^{1} (1-z)^a (1+z)^b z^k dz via binomial expansion.

    Expands z^k around z = 1; all arithmetic in mpf (the expansion cancels
    catastrophically in doubles for k beyond ~30).
    """
    am, bm = mp.mpf(a), mp.mpf(b)
    total = mp.mpf(0)
    for j in range(k + 1):
        total += (
            mp.binomial(k, j)
            * (-1) ** j
            * mp.mpf(2) ** (am + bm + j + 1)
            * mp.beta(am + j + 1, bm + 1)
        )
    return total


def monic_recurrence_gs(a, b, kmax):
    """Monic three-term recurrence coefficients by Gram-Schmidt on monomials.

    Returns lists (a_k, b_k) for k = 0..kmax, using exact moment integrals;
    brute force and O(kmax^2), for cross-checking closed forms only.
    """
    moments = [jacobi_moment(a, b, k) for k in range(2 * kmax + 2)]

    def inner(p, q):
        # p, q are coefficient lists (ascending powers)
        total = mp.mpf(0)
        for i, ci in enumerate(p):
            for j, cj in enumerate(q):
                total += ci * cj * moments[i + j]
        return total

    def shift(p):  # multiply by x
        return [mp.mpf(0)] + list(p)

    polys = [[mp.mpf(1)]]
    alphas, betas = [], []
    for k in range(kmax + 1):
        pk = polys[k]
        hk = inner(pk, pk)
        ak = inner(shift(pk), pk) / hk
        if k == 0:
            bk = moments[0]
        else:
            bk = hk / inner(polys[k - 1], polys[k - 1])
        alphas.append(ak)
        betas.append(bk)
        # next monic polynomial: x*p_k - a_k p_k - b_k p_{k-1}
        nxt = shift(pk)
        for i, c in enumerate(pk):
            nxt[i] -= ak * c
        if k > 0:
            for i, c in enumerate(polys[k - 1]):
                nxt[i] -= bk * c
        polys.append(nxt)
    return alphas, betas


def convolution_tables_reference(n, alpha):
    """``solver._convolution_tables(n, alpha)`` as mpmath numbers: the
    differences of powers taken at 50 digits, where they lose at most
    log10(d^2 / alpha) of them."""
    a = mp.mpf(alpha)

    def panel(d):
        d = mp.mpf(d)
        r1 = (d**a - (d - 1) ** a) / a
        i2 = (d ** (a + 1) - (d - 1) ** (a + 1)) / (a + 1)
        return r1, i2 - (d - 1) * r1, d * r1 - i2

    panels = [panel(n - i) for i in range(n)] + [(mp.mpf(0), mp.mpf(0), None)]
    r1 = [p[0] for p in panels]
    rl = [p[1] for p in panels]
    rc = [panels[i][2] + rl[i + 1] for i in range(n)]
    return r1, rl, rc


def product_sums_reference(g, theta, alpha):
    """The sums of ``solver._product_sums`` at 50 digits: each panel's
    weights as differences of powers of T - j, on the mesh 0, 1, .., m-1
    with T = m - 1 + theta exactly."""
    g = np.asarray(g).tolist()
    m = len(g)
    with mp.workdps(50):
        a = mp.mpf(alpha)
        p = [m - 1 - j + mp.mpf(theta) for j in range(m)] + [mp.mpf(0)]
        pa = [x**a for x in p]
        pa1 = [x * y for x, y in zip(p, pa)]
        rect = corr = mp.mpf(0)
        for j, gj in enumerate(g):
            i1 = (pa[j] - pa[j + 1]) / a
            i2 = (pa1[j] - pa1[j + 1]) / (a + 1)
            width = p[j] - p[j + 1]
            rect += i1 * gj
            corr += (i2 - p[j + 1] * i1) / width * gj
            w_right = (p[j] * i1 - i2) / width
            if j + 1 < m:
                corr += w_right * g[j + 1]
        return rect, corr, w_right


def adams_pece_reference(problem, mesh):
    """Product-trapezoid PECE on an arbitrary mesh; u at the mesh points.

    Solves the scaled Volterra equation for w = e^{lam (t-a)} u with one
    product-rectangle predictor and one product-trapezoid corrector per
    step, every weight recomputed from the distances T - t_j.  No rebasing,
    so it needs lam (mesh[-1] - a) well below the double range.
    """
    alpha, lam, a = problem.alpha, problem.lam, problem.a
    rga = 1.0 / math.gamma(alpha)
    teval = np.array(mesh, dtype=float)
    if problem.kind == "rl":
        teval[0] = mesh[0] + 1e-8 * (mesh[1] - mesh[0])
    dt = teval - a
    forc = np.zeros(len(mesh))
    for k, ck in enumerate(problem.init):
        if ck == 0.0:
            continue
        if problem.kind == "caputo":
            forc += ck * math.exp(-lam * a) / math.factorial(k) * dt**k
        else:
            forc += ck * math.exp(-lam * a) / math.gamma(alpha - k) * dt ** (alpha - k - 1)

    def G(t, w):
        e = math.exp(lam * (t - a))
        return e * problem.rhs(t, w / e)

    npts = len(mesh)
    w = np.empty(npts)
    gv = np.empty(npts)
    w[0] = forc[0]
    gv[0] = G(teval[0], w[0])
    h = np.diff(mesh)
    for m in range(1, npts):
        T = mesh[m]
        p = T - mesh[:m + 1]
        pa = p**alpha
        i1 = (pa[:-1] - pa[1:]) / alpha
        pred = forc[m] + rga * float(i1 @ gv[:m])
        pa1 = pa * p
        i2 = (pa1[:-1] - pa1[1:]) / (alpha + 1.0)
        w_left = (i2 - p[1:] * i1) / h[:m]
        w_right = (p[:-1] * i1 - i2) / h[:m]
        known = float(w_left @ gv[:m]) + float(w_right[:-1] @ gv[1:m])
        w[m] = forc[m] + rga * (known + w_right[-1] * G(T, pred))
        gv[m] = G(T, w[m])
    return np.exp(-lam * (np.asarray(mesh) - a)) * w


def lagrange_basis(x, n_points):
    """Lagrange basis on the nodes 0..n_points-1 at x, as products."""
    return np.array([
        math.prod((x - m) / (j - m) for m in range(n_points) if m != j)
        for j in range(n_points)
    ])


def lagrange_reference(samples, x, n_points):
    """The stencil interpolant of ``samples`` at the nodes 0, 1, .. at ``x``.

    The stencil is the ``n_points`` consecutive nodes centred on x as nearly
    as possible, ties toward earlier nodes, clamped to the samples; past the
    last sample it extrapolates.  The basis is :func:`lagrange_basis`, so a
    target on a node returns its sample exactly.
    """
    last = len(samples) - 1
    i0 = min(max(math.ceil(x - 0.5 * n_points), 0), last - n_points + 1)
    return float(lagrange_basis(x - i0, n_points) @ np.asarray(samples[i0:i0 + n_points]))


def _lagrange_weights_reference(r, last, n_points):
    """Stencil starts ``i0`` and weights with a trailing stencil axis: the
    interpolant at ``r[...]`` is ``l[...] @ f[i0[...] : i0[...] + n_points]``."""
    bary = np.array([(-1.0) ** i * math.comb(n_points - 1, i) for i in range(n_points)])
    i0 = np.ceil((r - 0.5 * (n_points - 1)) - 0.5).astype(int)
    np.maximum(i0, 0, out=i0)
    np.minimum(i0, np.asarray(last) - n_points + 1, out=i0)
    x = r - i0
    lw = x[..., None] - np.arange(n_points)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bary, lw, out=lw)
        lw /= lw.sum(axis=-1, keepdims=True)
    node = np.rint(x)
    hit = (np.abs(x - node) < 1e-9) & (node < n_points)
    if hit.any():
        lw[hit] = np.arange(n_points) == node[hit][:, None]
    return i0, lw


#: Largest lam * (t - t_ref) that :class:`BlockStepperReference`'s scaled
#: history may reach before it is rebased onto a later reference time.
_REBASE_EXPONENT = 300.0


class BlockStepperReference:
    """The JPC step with separate predictor and corrector stencils.

    Per block of ``BLOCK`` steps, a length of its own rather than the
    solver's, it builds stencil starts and combined weights w_q l_{q,k} for
    the predictor (stencils clamped to [0, n-1]) and for the corrector
    (clamped to [0, n]).  Its history is g_i = e^{lam (t_i - t_ref)} f_i,
    where the solver reads f_i and tempers through its weights; a block
    rebases g at its start.  A step gathers the history through a sliding
    window once for the predictor and once per corrector iteration, with
    the endpoint's rule weight on the predicted g_n.  The split history
    term is evaluated step by step.
    """

    BLOCK = 16

    def __init__(self, problem, config, origin=0, history=None):
        self.problem = problem
        self.config = config
        self.rule = gauss_lobatto(problem.alpha - 1.0, 0.0, config.n_quad)
        self.tau = (problem.b - problem.a) / config.steps
        self.rga = rgamma(problem.alpha)
        self.origin = origin
        self.history = history
        self.t_ref = problem.a
        self._w_end = float(self.rule.weights[-1])
        self._lo = self._hi = 0
        self._gs = None

    def _history_part(self, t_next):
        nodes, weights, f = self.history
        kern = (t_next - nodes) ** (self.problem.alpha - 1.0)
        kern *= np.exp(-self.problem.lam * (t_next - nodes))
        return self.rga * float(weights @ (kern * f))

    def rebase(self, gs, upto, t_new):
        gs[:upto] *= math.exp(-self.problem.lam * (t_new - self.t_ref))
        self.t_ref = t_new

    def _build_block(self, times, gs, lo):
        problem = self.problem
        hi = min(lo + self.BLOCK, len(gs))
        lam = problem.lam
        if lam * (times[hi - 1] - self.t_ref) > _REBASE_EXPONENT:
            self.rebase(gs, lo, float(times[lo]))
        n = np.arange(lo, hi)
        span = (n - self.origin)[:, None]
        r = self.origin + 0.5 * span * (self.rule.nodes + 1.0)
        last = np.stack([n - 1, n])[:, :, None]
        self._i, self._c = _lagrange_weights_reference(
            np.stack([r, r]), last, self.config.n_interp
        )
        self._c *= self.rule.weights[:, None]
        t = times[lo:hi]
        self._base = solver._forcing(problem, t)
        self._pref = (0.5 * self.tau * span[:, 0]) ** problem.alpha * self.rga
        if gs is not self._gs:
            self._win = sliding_window_view(gs, self.config.n_interp)
            self._gs = gs
        self._lo, self._hi = lo, hi

    def step(self, times, gs, n1):
        if gs is not self._gs or not self._lo <= n1 < self._hi:
            self._build_block(times, gs, n1)
        problem = self.problem
        k = n1 - self._lo
        t_next = float(times[n1])
        decay = math.exp(-problem.lam * (t_next - self.t_ref))
        base = float(self._base[k])
        if self.history is not None:
            base += self._history_part(t_next)
        pref = decay * float(self._pref[k])
        win, i, c = self._win, self._i, self._c
        u_new = base + pref * float(np.vdot(c[0, k], win[i[0, k]]))
        i_corr, c_corr = i[1, k, :-1], c[1, k, :-1]
        for _ in range(self.config.corrector_iters):
            g_end = problem.rhs(t_next, u_new) / decay
            gs[n1] = g_end
            acc = float(np.vdot(c_corr, win[i_corr]))
            u_new = base + pref * (acc + self._w_end * g_end)
        if not math.isfinite(u_new) or abs(u_new) > solver._BLOWUP_LIMIT:
            raise solver.BlowUpError(n1, t_next, u_new, "step")
        return u_new


def solve_reference(problem, config):
    """A solve with :class:`BlockStepperReference` as the stepper: the
    solver's start and split history, and a march of its own over the
    scaled history g_i = e^{lam (t_i - t_ref)} f(t_i, u_i), rebased where
    a step inside a block, or a starting value, takes the exponent past
    ``_REBASE_EXPONENT``."""
    trace = solver._new_trace(problem, config)
    u_start, stepper = solver._start(problem, config)
    reference = BlockStepperReference(problem, config, stepper.origin, stepper.history)
    times, lam = trace.times, problem.lam
    gs = np.empty(len(times))
    for n1, t in enumerate(times.tolist()):
        u = float(u_start[n1]) if n1 < len(u_start) else reference.step(times, gs, n1)
        f = problem.rhs(t, u)
        trace.values[n1], trace.rhs_values[n1] = u, f
        if lam * (t - reference.t_ref) > _REBASE_EXPONENT:
            reference.rebase(gs, n1, t)
        gs[n1] = f * math.exp(lam * (t - reference.t_ref))
    return trace
