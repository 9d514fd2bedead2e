import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz
from scipy.special import erfcx

from _oracles import (
    BlockStepperReference,
    adams_pece_reference,
    convolution_tables_reference,
    jacobi_moment,
    lagrange_basis,
    lagrange_reference,
    product_sums_reference,
    solve_reference,
)
from tfode.problems import (
    exact_example2,
    exact_example3,
    example2,
    example3,
    problem_from_spec,
)
from tfode.quadrature import gauss_lobatto
from tfode.solver import (
    BlowUpError,
    NegativeOrderDataError,
    Problem,
    SolverConfig,
    solve,
    solve_split,
    volterra_forcing,
    _adams_pece_scaled,
    _bary_weights,
    _BLOWUP_LIMIT,
    _BUILD_BUFSIZE,
    _convolution_tables,
    _near_weights,
    _product_sums,
    _resolvent,
    _resolvent_taps,
    _RL_SERIES_FROM,
    _SINGULAR_SHIFT,
    _solve_affine_block,
    _start,
    _Stepper,
    _stencil_weights,
    _toeplitz_resolvent,
    _ufunc_bufsize,
)
from tfode.specfun import gamma, mittag_leffler, rgamma


def _const_problem(alpha=0.5, lam=0.0, c0=1.0, b=1.0):
    return Problem(kind="caputo", alpha=alpha, lam=lam, a=0.0, b=b, init=(c0,),
                   rhs=lambda t, u: 0.0)


class TestForcing:
    def test_caputo_first_order_constant(self):
        p = _const_problem(lam=0.0)
        for t in (0.0, 0.3, 1.0):
            assert volterra_forcing(p, t) == pytest.approx(1.0, abs=1e-15)

    def test_caputo_zero_data(self):
        p = Problem(kind="caputo", alpha=1.5, lam=2.0, a=0.0, b=1.0, init=(0.0, 0.0),
                    rhs=lambda t, u: 0.0)
        for t in (0.0, 0.5, 1.0):
            assert volterra_forcing(p, t) == 0.0

    def test_caputo_decay(self):
        p = _const_problem(lam=2.0)
        assert volterra_forcing(p, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rl_forcing(self):
        p = Problem(kind="rl", alpha=0.5, lam=0.0, a=0.0, b=2.0, init=(1.0,),
                    rhs=lambda t, u: 0.0)
        assert volterra_forcing(p, 1.0) == pytest.approx(1.0 / gamma(0.5), rel=1e-13)

    def test_rl_singular_at_start(self):
        p = Problem(kind="rl", alpha=0.5, lam=0.0, a=0.0, b=2.0, init=(1.0,),
                    rhs=lambda t, u: 0.0)
        with pytest.raises(ValueError):
            volterra_forcing(p, 0.0)
        with pytest.raises(ValueError, match="before the lower terminal"):
            volterra_forcing(p, -0.1)

    def test_rl_zero_data_regular_at_start(self):
        p = Problem(kind="rl", alpha=0.5, lam=0.0, a=0.0, b=2.0, init=(0.0,),
                    rhs=lambda t, u: 0.0)
        assert volterra_forcing(p, 0.0) == 0.0


class TestInterpolation:
    @staticmethod
    def _interpolant(samples, r, n_points):
        """The stencil interpolant of samples at nodes 0, 1, .. at each r."""
        i0, lw, _ = _stencil_weights(np.asarray(r, dtype=float), len(samples) - 1, n_points)
        starts = i0.astype(int)
        return np.array([lw[:, p] @ samples[i:i + n_points] for p, i in enumerate(starts)])

    def test_quadratic_reproduction(self):
        # inside the nodes, and past the last one from the clamped stencil
        r = np.array([0.25, 1.5, 2.0, 2.5, 3.0])
        got = self._interpolant(np.arange(3.0) ** 2, r, 3)
        np.testing.assert_allclose(got, r**2, rtol=0.0, atol=1e-14)

    def test_exact_node_returns_sample(self):
        vals = np.array([1.0, -2.0, 7.0, 0.25])
        for n_points in (2, 3, 4):
            assert np.array_equal(self._interpolant(vals, np.arange(4.0), n_points), vals)

    def test_degree_five_reproduction(self):
        s = np.array([0.05, 0.37, 0.5, 0.93])
        got = self._interpolant(np.linspace(0.0, 1.0, 6) ** 5, 5.0 * s, 6)
        np.testing.assert_allclose(got, s**5, rtol=0.0, atol=1e-12)

    def test_batched_weights_match_single_points(self):
        # one vectorised build over a (steps x nodes) array of positions, with
        # a per-row last index, gives each point's own stencil and basis
        fs = np.cos(0.3 * np.arange(12))
        r = np.array([[0.0, 2.5, 4.0, 6.7], [1.2, 3.0, 7.9, 9.0]])
        last = np.array([[7], [9]])
        i0, lw, _ = _stencil_weights(r, last, 4)
        assert lw.shape == (4, r.size)
        for p, (row, col) in enumerate(np.ndindex(r.shape)):
            start = int(i0[row, col])
            assert 0 <= start <= last[row, 0] - 3
            assert np.allclose(lw[:, p], lagrange_basis(r[row, col] - start, 4), atol=1e-15)
            got = lw[:, p] @ fs[start:start + 4]
            want = lagrange_reference(fs[:last[row, 0] + 1], r[row, col], 4)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("n_points", [2, 3, 4, 7])
    def test_grown_stencil_change(self, n_points):
        # where a stencil moves one node right as last grows by one, the
        # weights change by s times the (n+1)-point weights; elsewhere not
        last = 20.0
        r = np.array([3.0, 10.4, 17.5, 18.25, 19.0, 19.0 + 1e-11, 19.5, 19.999, 20.0, 21.0])
        i0, lw, s = _stencil_weights(r, last, n_points)
        j0, lw1, _ = _stencil_weights(r, last + 1.0, n_points)
        change = s * _bary_weights(n_points + 1)
        for p in range(len(r)):
            if j0[p] == i0[p]:
                assert s[p] == 0.0
                assert np.array_equal(lw1[:, p], lw[:, p])
                continue
            assert j0[p] == i0[p] + 1
            # over the nodes i0 .. i0 + n_points: new weights minus old
            diff = np.append(0.0, lw1[:, p]) - np.append(lw[:, p], 0.0)
            # extrapolated weights reach 2^n in size: compare at their round-off
            assert np.allclose(diff, change[:, p], rtol=0.0, atol=2.0**n_points * 1e-15)
        assert (s != 0.0).any()


class TestStartingValues:
    """The first n_interp values of a solve, which its start gives."""

    def test_zero_rhs_matches_forcing(self):
        p = _const_problem(lam=2.0)
        tr = solve(p, SolverConfig(steps=20, n_interp=4))
        for t, u in zip(tr.times[:4], tr.values[:4]):
            assert u == pytest.approx(volterra_forcing(p, t), abs=1e-13)

    def test_exact_start_mode(self):
        p = example2(0.5, 2.0)
        tr = solve(p, SolverConfig(steps=20, n_interp=4, exact_start=True))
        for j, u in enumerate(tr.values[:4]):
            assert u == exact_example2(0.5, 2.0, j * tr.tau)

    def test_classical_decay(self):
        # alpha=1, f = -u reduces to u' = -u, u = e^{-t}; the refined
        # predictor-corrector start is second order in the substep
        p = Problem(kind="caputo", alpha=1.0, lam=0.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: -u)
        tr = solve(p, SolverConfig(steps=10, n_interp=4, start_refine=64))
        h = 0.1 / 64
        for t, u in zip(tr.times[:4], tr.values[:4]):
            assert abs(u - math.exp(-t)) <= h * h * (t + 1e-6)

    def test_exact_start_with_split(self):
        # the grid values through t0 and the Lobatto nodes' values come from
        # the exact solution; the split scheme used to ignore exact_start
        p = example3(0.5, 5.0, b=1.0)
        config = SolverConfig(steps=32, n_interp=2, split_t0=0.125, exact_start=True)
        tr = solve(p, config)
        assert np.array_equal(tr.values[:5], tr.exact_values()[:5])
        adams = solve(p, dataclasses.replace(config, exact_start=False))
        assert not np.array_equal(tr.values[5:], adams.values[5:])
        # the later values move by about the start's error, far below 1e-4
        assert np.abs(tr.values - adams.values).max() <= 1e-4

    def test_exact_start_rl_shifts_t0_only(self):
        # u = e^{-t} t^(alpha-1) / Gamma(alpha) is singular at a: t_0 takes
        # it at the shifted time, and so does the Lobatto node on a
        alpha = 0.7
        exact = lambda t: math.exp(-t) * t ** (alpha - 1.0) * rgamma(alpha)
        p = Problem(kind="rl", alpha=alpha, lam=1.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: 0.0, exact=exact)
        config = SolverConfig(steps=32, n_interp=3, split_t0=0.25, exact_start=True)
        tr = solve(p, config)
        assert tr.values[0] == exact(1e-8 * tr.tau)
        assert np.array_equal(tr.values[1:9], [exact(j * tr.tau) for j in range(1, 9)])
        with np.errstate(divide="ignore"):
            assert np.abs(tr.values[9:] - tr.exact_values()[9:]).max() <= 1e-12

    @pytest.mark.parametrize("split_t0", [None, 0.1])
    def test_exact_start_needs_an_exact_solution(self, split_t0):
        p = dataclasses.replace(example3(0.5, 5.0), exact=None)
        config = SolverConfig(steps=22, n_interp=2, split_t0=split_t0, exact_start=True)
        with pytest.raises(ValueError, match="exact_start"):
            solve(p, config)
        # nor can a trace of it give exact values
        tr = solve(p, dataclasses.replace(config, exact_start=False))
        with pytest.raises(ValueError, match="problem has no exact solution"):
            tr.exact_values()


def _start_problem(kind, alpha, lam=2.0):
    # Riemann-Liouville data of negative order alpha - k - 1 make the
    # forcing unbounded at a; they are left out here, because g_0 / u then
    # amplifies the cancellation error of the far product weights that the
    # reference takes as differences of powers
    init = [1.0, 0.5][: max(1, math.ceil(alpha))]
    if kind == "rl":
        init = [c if alpha - k - 1 >= 0 else 0.0 for k, c in enumerate(init)]
    return Problem(kind=kind, alpha=alpha, lam=lam, a=0.0, b=1.0, init=tuple(init),
                   rhs=lambda t, u: math.cos(t) - 0.5 * u, affine=(np.cos, lambda t: -0.5))


def _twins(problem):
    """The problem as given, whose affine parts make the start solve a block
    of steps at once and the JPC steps take f as p + q u, and without them,
    so that the start steps one by one and every f is a right-hand-side
    call."""
    assert problem.affine is not None
    return [problem, dataclasses.replace(problem, affine=None)]


def _counting(problem):
    """The problem with its right-hand side calls counted in ``calls``."""
    calls = []

    def rhs(t, u):
        calls.append(t)
        return problem.rhs(t, u)

    return dataclasses.replace(problem, rhs=rhs), calls


def _split_start_mesh(problem, steps, t0=0.1, n_tilde=40, refine=64):
    """The split scheme's start: its uniform refined mesh, its Lobatto nodes,
    the refined step and which nodes lie within 1e-9 tau of a mesh point,
    the ones the start takes from the mesh."""
    tau = (problem.b - problem.a) / steps
    h = tau / refine
    lob = gauss_lobatto(0.0, 0.0, n_tilde)
    s_hist = 0.5 * (t0 - problem.a) * (lob.nodes + 1.0) + problem.a
    mesh = problem.a + h * np.arange(round((t0 - problem.a) / tau) * refine + 1)
    on = np.abs(mesh[np.rint((s_hist - problem.a) / h).astype(int)] - s_hist) <= 1e-9 * tau
    return mesh, s_hist, h, on


class TestConvolutionTables:
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9, 1.0, 1.5, 1.8, 1.99])
    def test_against_mpmath(self, alpha):
        # as differences of powers rl[0] (d = 384) was off by 1.3e-10
        # relative at alpha = 0.2, and by 6.8e-10 at alpha = 0.05
        n = 384
        for got, want in zip(_convolution_tables(n, alpha), convolution_tables_reference(n, alpha)):
            assert len(got) == len(want)
            for i, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= 1e-14 * abs(w), (i, g, float(w))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9])
    def test_short_tables(self, n):
        # around the distance where rl's series takes over from the difference
        for alpha in (0.2, 1.8):
            for got, want in zip(_convolution_tables(n, alpha), convolution_tables_reference(n, alpha)):
                np.testing.assert_allclose(got, np.array(want, dtype=float), rtol=1e-14, atol=0.0)

    def test_product_sums_against_mpmath(self):
        # the dense output's sums over M = 1760's split start history, at a
        # node 0.37 of a step past its last point, where as differences of
        # powers the corrector sum was off by 1.0e-11 relative; and over a
        # short history at nodes just past a mesh point, down to 6.4e-8 of a
        # step (1e-9 tau at a refinement of 64, where a node snaps onto the
        # mesh), where near weights from the panels' far ends lost up to
        # 1.2e-11
        long = np.random.default_rng(1).uniform(0.5, 1.0, 10240)
        short = np.random.default_rng(2).uniform(0.5, 1.0, 256)
        cases = [(long, 0.37, 1e-13)]
        cases += [(short, theta, 1e-14) for theta in (1e-8, 6.4e-8, 1e-6, 0.37, 0.999)]
        for g, theta, rtol in cases:
            near = np.array(_near_weights(np.arange(_RL_SERIES_FROM - 2, -1, -1.0) + theta, 0.2))
            got = _product_sums(g, theta, 0.2, near)
            for x, want in zip(got, product_sums_reference(g, theta, 0.2)):
                assert abs(x - want) <= rtol * abs(want), (len(g), theta)


class TestAdamsStart:
    """The convolution start, and its dense output, against the O(m^2)
    reference PECE, through both of its in-block kernels: each problem has
    an affine twin, solved a block at a time, and a twin without its affine
    parts, stepped."""

    @staticmethod
    def _check(problem, mesh, h):
        want = adams_pece_reference(problem, mesh)
        assert np.isfinite(want).all()
        for twin in _twins(problem):
            got = _adams_pece_scaled(twin, mesh, h)[0]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @staticmethod
    def _check_dense(problem, mesh, h, nodes, rtol=1e-13):
        """u at each node s, which lies off the mesh, against one reference
        PECE over the mesh points before s and s itself, to ``rtol``.  The
        nodes on the mesh never reach the run: :func:`_start` takes them
        from the mesh (see ``test_start_takes_nodes_on_its_mesh``)."""
        assert not np.isin(nodes, mesh).any()
        u_want = adams_pece_reference(problem, mesh)
        node_want = [adams_pece_reference(problem, np.append(mesh[mesh < s], s))[-1] for s in nodes]
        for twin in _twins(problem):
            u, got = _adams_pece_scaled(twin, mesh, h, nodes)
            np.testing.assert_allclose(u, u_want, rtol=rtol, atol=0.0)
            for s, value, want in zip(nodes, got, node_want):
                assert value == pytest.approx(want, rel=rtol, abs=0.0), s

    @pytest.mark.parametrize("kind", ["caputo", "rl"])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 1.5, 1.8])
    def test_uniform_mesh(self, kind, alpha):
        h = 0.1 / 64
        self._check(_start_problem(kind, alpha), h * np.arange(6 * 64 + 1), h)

    @pytest.mark.parametrize("steps", [22, 176])
    def test_split_mesh(self, steps):
        # the split scheme's Lobatto nodes over [0, 0.1]; at alpha = 0.2 a
        # distance off by round-off near s shows at 1e-5
        problem = example3(0.2, 5.0)
        mesh, nodes, h, on = _split_start_mesh(problem, steps)
        # a, the midpoint and t0 are on the mesh, every other node is off it
        assert np.flatnonzero(on).tolist() == [0, 20, 40]
        self._check_dense(problem, mesh, h, nodes[~on])

    def test_nodes_on_and_next_to_grid_nodes(self):
        # the nodes off the mesh; those on it, or within 1e-9 tau of it, are
        # tested through the start in test_start_takes_nodes_on_its_mesh
        h = 1e-3
        mesh = h * np.arange(201)
        tol = 1e-9 * 64 * h
        nodes = np.array([
            mesh[80] - 3 * tol, mesh[81] + 3 * tol,  # just outside tol
            mesh[37] + 0.3 * h, mesh[37] + 0.7 * h,  # two in one panel
            mesh[90] + 0.5 * h, mesh[91] + 0.5 * h,  # in neighbouring panels
            mesh[200] - 0.4 * h,  # in the last panel
        ])
        for alpha in (0.2, 1.5):
            self._check_dense(_start_problem("caputo", alpha), mesh, h, nodes)

    @pytest.mark.parametrize("kind", ["caputo", "rl"])
    @pytest.mark.parametrize("exact_start", [False, True])
    def test_start_takes_nodes_on_its_mesh(self, monkeypatch, kind, exact_start):
        # the split rule's nodes are placed about the start's mesh, the grid
        # refined 4 times or, with exact_start, the grid itself: a node on a
        # mesh point, within 1e-9 tau of one on either side or past the
        # mesh's end, takes that point's value; a node 3e-9 tau from one,
        # or inside a panel, is passed to the fractional-Adams run, or to
        # the exact solution
        steps, refine, t0 = 10, 4, 0.5
        tau = 1.0 / steps
        h = tau if exact_start else tau / refine
        tol = 1e-9 * tau
        mesh = h * np.arange(round(t0 / h) + 1)
        end = len(mesh) - 1
        placed = [  # (node, the mesh point it takes the value of, or None)
            (0.0, 0), (mesh[2], 2),  # the first mesh point, and another
            (mesh[3] - 1e-3 * tol, 3), (mesh[4] + 1e-3 * tol, 4),  # within tol
            (t0 + 1e-3 * tol, end),  # past the end, within tol
            (mesh[1] - 3 * tol, None), (mesh[2] + 3 * tol, None),  # just outside tol
            (mesh[3] + 0.3 * h, None), (mesh[3] + 0.7 * h, None),  # inside a panel
        ]
        x = np.array([2.0 * s / t0 - 1.0 for s, _ in placed])
        rule = dataclasses.replace(gauss_lobatto(0.0, 0.0, 2), nodes=x, weights=np.ones_like(x))
        monkeypatch.setattr("tfode.solver.gauss_lobatto",
                            lambda a, b, n: rule if n == len(x) - 1 else gauss_lobatto(a, b, n))
        runs = []

        def adams(*args):
            runs.append((args, _adams_pece_scaled(*args)))
            return runs[-1][1]

        monkeypatch.setattr("tfode.solver._adams_pece_scaled", adams)
        problem = dataclasses.replace(_start_problem(kind, 0.5), exact=lambda t: math.exp(-t) + t)
        config = SolverConfig(steps=steps, n_interp=2, start_refine=refine, split_t0=t0,
                              n_tilde=len(x) - 1, exact_start=exact_start)
        u_start, stepper = _start(problem, config)
        s_hist, _, f_hist = stepper.history
        off = np.array([k is None for _, k in placed])
        if exact_start:
            assert runs == []
            t_mesh = mesh.copy()
            if kind == "rl":
                t_mesh[0] += _SINGULAR_SHIFT * tau
            u_mesh = np.array([problem.exact(t) for t in t_mesh])
            u_off = [problem.exact(s) for s in s_hist[off]]
        else:
            [((_, run_mesh, run_h, run_nodes), (u_mesh, u_off))] = runs
            np.testing.assert_array_equal(run_mesh, mesh)
            assert run_h == h
            np.testing.assert_array_equal(run_nodes, s_hist[off])
        np.testing.assert_array_equal(u_start, u_mesh[::round(tau / h)])
        u_want = [u_mesh[k] for _, k in placed if k is not None] + list(u_off)
        s_want = np.concatenate([s_hist[~off], s_hist[off]])
        f_want = [problem.rhs(s, u) for s, u in zip(s_want, u_want)]
        np.testing.assert_array_equal(np.concatenate([f_hist[~off], f_hist[off]]), f_want)

    def test_mesh_without_grid(self):
        # no node lies on the mesh: graded nodes, many to a panel near a,
        # and nodes at a fixed offset into every panel, in no given order
        problem = _start_problem("caputo", 0.6)
        h = 1e-3 * math.pi
        mesh = h * np.arange(161)
        for nodes in [
            0.5 * np.linspace(0.0, 1.0, 201)[1:] ** 1.5,
            (h * (np.arange(1, 50) + 0.37))[::-1],
        ]:
            assert (h * np.rint(nodes / h) != nodes).all()
            self._check_dense(problem, mesh, h, nodes)

    @pytest.mark.parametrize("kind", ["caputo", "rl"])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.5, 1.8])
    def test_pushed_far_history(self, monkeypatch, kind, alpha):
        # 64-point chunks: 23 pushes over five levels, 64 to 1024 points,
        # reach the far sums of a 1500-step mesh, and the nodes fall after
        # pushes of 64, 1024 and 128 points, and in the last panel
        monkeypatch.setattr("tfode.solver._CHUNK", 64)
        h = 1e-3
        mesh = h * np.arange(1501)
        nodes = np.array([mesh[65] + 0.3 * h, mesh[1025] + 0.6 * h, mesh[1409] + 0.5 * h,
                          mesh[1500] - 0.2 * h])
        problem = _start_problem(kind, alpha)
        self._check_dense(problem, mesh, h, nodes)

    def test_pushed_far_history_at_large_lam(self, monkeypatch):
        # lam t reaches 600, far past the double range of e^{lam t}: every
        # sum, near, pushed (up to 1024 points) or at a node, tempers the f
        # values by factors of at most 1, taken about a pivot of its own
        monkeypatch.setattr("tfode.solver._CHUNK", 64)
        h = 1e-3
        mesh = h * np.arange(1501)
        nodes = np.array([mesh[700] + 0.5 * h, mesh[800] + 0.5 * h])
        problem = _start_problem("caputo", 0.5, lam=400.0)
        self._check_dense(problem, mesh, h, nodes)

    def test_pushed_far_history_of_a_decaying_solution(self, monkeypatch):
        # u = e^{-400 t} erfcx(sqrt t) falls to 1e-261 on [0, 1.5], and a
        # push's FFT is accurate to round-off of its largest term.  Pivoted
        # at the push's last point, that term decays with the sums; with the
        # weight tables tempered by distance and f untempered, it is of the
        # order of f next to the push and u came out 1e242 times too large.
        # 64-point chunks give pushes of up to 1024 points
        monkeypatch.setattr("tfode.solver._CHUNK", 64)
        h = 1e-3
        mesh = h * np.arange(1501)
        nodes = np.array([mesh[1100] + 0.4 * h, mesh[1490] + 0.7 * h])
        problem = example3(0.5, 400.0)
        self._check_dense(problem, mesh, h, nodes, rtol=1e-12)

    def test_cost_near_linear(self):
        # doubling the start mesh at most 2.5x its time: with the far sums
        # summed directly over the whole history it took 3.0x
        problem = _start_problem("caputo", 0.5)

        def seconds(n):
            mesh = np.arange(n + 1.0) / n
            t0 = time.perf_counter()
            _adams_pece_scaled(problem, mesh, 1.0 / n)
            return time.perf_counter() - t0

        def pair():
            # each size the best of three runs, so that a stall or two does
            # not count; the runs of the two sizes alternate, so that a busy
            # spell slows both alike
            runs = [(seconds(10240), seconds(20480)) for _ in range(3)]
            return min(t1 for t1, _ in runs), min(t2 for _, t2 in runs)

        seconds(1024)  # warm caches
        # the median of five pair ratios is taken, as in criterion 9: with
        # three, one busy spell on a shared machine failed it at 2.66
        pairs = [pair() for _ in range(5)]
        ratio = sorted(t2 / t1 for t1, t2 in pairs)[2]
        assert ratio <= 2.5, pairs

    def test_split_start_peak_memory(self):
        # the start holds five arrays as long as its uniform mesh (mesh, u,
        # the history, two weight tables; u and the history hold the far
        # sums until their steps), the forcing over one chunk (and p, where
        # it varies), the tempering e^{-lam h d} for d up to _CHUNK, and, as
        # q is constant, the affine start's taps, 128 long, and its kernel
        # and resolvent while the taps are made (a q that varies is
        # stepped, and takes none of them).  An FFT push adds about four
        # temporaries as long as the mesh.  The dense output comes after the
        # weight tables are freed, and a PECE at a Lobatto node adds five
        # temporaries as long as its history, the tempered history among
        # them: 9.24 arrays measured, bounded at 12.5.  Merging the nodes
        # into the mesh, with correction rows next to them, took 13.0
        problem = example3(0.5, 5.0)
        config = SolverConfig(steps=1760, n_interp=2, split_t0=0.1, n_tilde=40)
        npts = len(_split_start_mesh(problem, 1760)[0])
        solve_split(problem, SolverConfig(steps=22, n_interp=2, split_t0=0.1))
        tracemalloc.start()
        try:
            solve_split(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12.5 * npts * 8

    @pytest.mark.parametrize("lam", [1200.0, 2000.0])
    def test_large_tempering_rate(self, lam):
        # lam (NI - 1) tau is past the double range of e^{lam (t - a)}; the
        # start's sums temper the f values by factors of at most 1
        for twin in _twins(example2(0.5, lam)):
            tr = solve(twin, SolverConfig(steps=10, n_interp=7))
            exact = np.array([exact_example2(0.5, lam, t) for t in tr.times])
            assert np.abs(tr.values - exact).max() <= 1e-12

    def test_blocks_at_large_lam_h(self):
        # lam h = 90: the tempered in-block weights past distance 8 underflow
        # to 0, and the affine blocks still agree with the stepped ones
        problem = _start_problem("caputo", 0.5, lam=900.0)
        h = 0.1
        mesh = h * np.arange(41)
        affine, stepped = (_adams_pece_scaled(twin, mesh, h)[0] for twin in _twins(problem))
        assert np.isfinite(affine).all() and np.abs(affine[1:]).max() > 1e-4
        np.testing.assert_allclose(affine, stepped, rtol=1e-13, atol=0.0)

    def test_block_length_does_not_depend_on_lam(self, monkeypatch):
        # lam h = 90, 40 steps: with its constant q the affine start solves
        # them in one 40-step block, one call of the shared affine block
        # solve (capped at 1 + 300 / (lam h) steps it took ten); a twin
        # whose q varies is stepped, with two right-hand side calls a step
        blocks = []

        def solve_block(u0, *args):
            blocks.append(len(u0))
            return _solve_affine_block(u0, *args)

        monkeypatch.setattr("tfode.solver._solve_affine_block", solve_block)
        h = 0.1
        mesh = h * np.arange(41)
        problem = _start_problem("caputo", 0.5, lam=900.0)
        counted, calls = _counting(problem)
        _adams_pece_scaled(counted, mesh, h)
        assert (blocks, len(calls)) == ([40], 1)
        del blocks[:]
        varying = dataclasses.replace(problem, rhs=lambda t, u: math.cos(t) - 0.5 * (1.0 + t) * u,
                                      affine=(np.cos, lambda t: -0.5 * (1.0 + t)))
        counted, calls = _counting(varying)
        _adams_pece_scaled(counted, mesh, h)
        assert blocks == [] and calls[1:] == [t for t in mesh[1:] for _ in (0, 1)]

    @pytest.mark.parametrize("kind, alpha", [("caputo", 0.5), ("rl", 1.5)])
    def test_varying_q_is_stepped_as_without_affine(self, kind, alpha):
        # a q that varies takes the stepped path of a right-hand side with
        # no affine parts, so the two starts agree bit for bit, over three
        # chunks and at the split rule's Lobatto nodes
        q = lambda t: -10.0 * (1.0 + t)
        problem = dataclasses.replace(
            _start_problem(kind, alpha, lam=5.0), b=1.1,
            rhs=lambda t, u: math.cos(t) + q(t) * u, affine=(np.cos, q))
        mesh, nodes, h, on = _split_start_mesh(problem, 440)
        assert len(mesh) > 2 * 1024
        (u, u_nodes), (u_want, nodes_want) = (
            _adams_pece_scaled(twin, mesh, h, nodes[~on]) for twin in _twins(problem))
        np.testing.assert_array_equal(u, u_want)
        np.testing.assert_array_equal(u_nodes, nodes_want)

    @pytest.mark.parametrize("size", [1, 2, 127, 128])
    def test_resolvent_against_dense_solve(self, size, monkeypatch):
        # rho, the first column of the inverse of the unit lower-triangular
        # Toeplitz matrix with first column 1, -q K(1), -q K(2), ..., for the
        # kernel K that _resolvent builds, against a dense triangular solve:
        # for q < 0 and q > 0, with rho bounded or growing, and at lam h =
        # 90, where the tempered weights underflow past a few steps.  rho_k
        # sums terms as large as the largest entry before it, so each entry
        # is held to 1e-14 of that one.  The taps e that _resolvent returns
        # are the dense K rho, each entry held to 1e-14 of the sum of |K|
        # times those bounds
        made = []

        def resolvent(kern, q, size):
            rho = _toeplitz_resolvent(kern, q, size)
            made.append((kern, rho))
            return rho

        monkeypatch.setattr("tfode.solver._toeplitz_resolvent", resolvent)
        n = 256
        for alpha, h, lam_h, q in [
            (0.5, 1e-5, 0.0, -400.0), (0.5, 1e-5, 0.05, -400.0), (1.5, 1e-3, 0.0, -400.0),
            (0.2, 1e-5, 0.0, -0.5), (0.5, 1e-3, 0.0, 12.0), (0.2, 1e-5, 0.05, 12.0),
            (0.2, 1e-3, 0.05, 12.0), (0.5, 1e-3, 90.0, -400.0), (1.5, 1e-5, 90.0, 12.0),
        ]:
            r1, _, rc = _convolution_tables(n, alpha)
            d = np.arange(size, -1, -1.0)
            r1b = r1[n - size:] * np.exp(-lam_h * d)
            rcb = rc[n - size:] * np.exp(-lam_h * d[1:])
            e = _resolvent(q, rgamma(alpha) * h**alpha, r1b, rcb, size)
            (kern, rho), = made
            del made[:]
            assert len(rho) == len(e) == size and kern[0] == 0.0
            column = -q * kern
            column[0] = 1.0
            want = solve_triangular(toeplitz(column, np.zeros(size)), np.eye(size)[0],
                                    lower=True, unit_diagonal=True)
            assert np.isfinite(want).all()
            scale = np.maximum.accumulate(np.abs(want))
            assert (np.abs(rho - want) <= 1e-14 * scale).all(), (alpha, h, lam_h, q)
            dense = toeplitz(kern, np.zeros(size))
            assert (np.abs(e - dense @ want) <= 1e-14 * (np.abs(dense) @ scale)).all(), \
                (alpha, h, lam_h, q)

    @pytest.mark.parametrize("growing", [True, False])
    def test_constant_q_split_starts(self, growing):
        # against the stepped twin: u = e^{-5 t} E_(1/2)(12 t^(1/2)) grows to
        # 2.2e6 over three chunks, and the stiff D^(1/2,5) u = 200 cos t - 400 u
        # relaxes from 1 to about 0.5 over ten chunks, through FFT pushes
        if growing:
            steps, p, q, rhs = 440, (lambda t: 0.0), 12.0, (lambda t, u: 12.0 * u)
        else:
            steps, q = 1760, -400.0
            p, rhs = (lambda t: 200.0 * np.cos(t)), (lambda t, u: 200.0 * math.cos(t) - 400.0 * u)
        problem = Problem(kind="caputo", alpha=0.5, lam=5.0, a=0.0, b=1.1, init=(1.0,), rhs=rhs,
                          affine=(p, lambda t: q))
        mesh, nodes, h, on = _split_start_mesh(problem, steps)
        (u, u_nodes), (u_want, nodes_want) = (
            _adams_pece_scaled(twin, mesh, h, nodes[~on]) for twin in _twins(problem))
        assert (np.abs(u_want).max() > 2e6) == growing
        np.testing.assert_allclose(u, u_want, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(u_nodes, nodes_want, rtol=1e-13, atol=0.0)

    def test_blow_up_check_uses_unscaled_solution(self):
        # D^(1/2,50) u = 1: e^{50 t} u passes the blow-up limit inside the
        # start while u = erf(sqrt(50 t)) / sqrt(50) stays below 0.15
        lam = 50.0
        p = Problem(kind="caputo", alpha=0.5, lam=lam, a=0.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 1.0, affine=(lambda t: 1.0, lambda t: 0.0))
        for twin in _twins(p):
            tr = solve(twin, SolverConfig(steps=10, n_interp=7))
            exact = np.array([math.erf(math.sqrt(lam * t)) / math.sqrt(lam) for t in tr.times])
            assert np.abs(tr.values - exact).max() <= 0.05

    def test_affine_blocks_call_no_rhs(self):
        # the affine start calls the right-hand side for g_0 alone; the
        # stepped one twice a step
        h = 0.1 / 64
        mesh = h * np.arange(6 * 64 + 1)
        for twin, want in zip(_twins(_start_problem("caputo", 0.5)), [1, 2 * 6 * 64 + 1]):
            counted, calls = _counting(twin)
            _adams_pece_scaled(counted, mesh, h)
            assert len(calls) == want

    @pytest.mark.parametrize("fault", ["raises", "nan", "complex", "shape"])
    def test_block_whose_parts_fail_is_stepped(self, fault, monkeypatch):
        # in chunks of 64 points, q fails on the third chunk only: that
        # chunk is stepped, the others are solved, and all match the
        # reference
        chunk = 64
        monkeypatch.setattr("tfode.solver._CHUNK", chunk)
        problem = _start_problem("caputo", 0.6)
        h = 1e-3
        mesh = h * np.arange(201)
        lo, hi = mesh[2 * chunk + 1], mesh[3 * chunk]

        def q(t):
            if not (t[0] <= hi and t[-1] >= lo):
                return np.full_like(t, -0.5)
            if fault == "raises":
                raise ZeroDivisionError("float division by zero")
            if fault == "nan":
                return np.where(t > 0.07, np.nan, -0.5)
            if fault == "complex":
                return np.full_like(t, -0.5) + 0j
            return np.full(len(t) + 1, -0.5)

        counted, calls = _counting(dataclasses.replace(problem, affine=(np.cos, q)))
        got = _adams_pece_scaled(counted, mesh, h)[0]
        np.testing.assert_allclose(got, adams_pece_reference(problem, mesh), rtol=1e-13, atol=0.0)
        assert calls[1:] == [t for t in mesh[2 * chunk + 1:3 * chunk + 1] for _ in (0, 1)]

    def test_blow_up_in_an_affine_block(self):
        # D^(1/2) u = 1e5 u leaves the range at the second start step; the
        # block is redone step by step, so both twins report the same step
        p = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: 1e5 * u, affine=(lambda t: 0.0, lambda t: 1e5))
        raised = []
        for twin in _twins(p):
            with pytest.raises(BlowUpError) as info:
                solve(twin, SolverConfig(steps=40, n_interp=4))
            raised.append(info.value)
        assert [(e.step, e.phase) for e in raised] == [(2, "start")] * 2
        assert raised[0].value == raised[1].value

    def test_blow_up_with_a_huge_finite_resolvent(self, monkeypatch):
        # the stiff decaying D^(1/2,5) u = -400 u at q hpre = -1.41: rho
        # stays finite but passes 1e77, the affine block is rejected and
        # stepped again, so both twins blow up at the same step and value
        rhos = []

        def resolvent(*args):
            rho = _toeplitz_resolvent(*args)
            rhos.append(rho)
            return rho

        monkeypatch.setattr("tfode.solver._toeplitz_resolvent", resolvent)
        problem = problem_from_spec(0.5, 5.0, "-400*u", b=1.1, init=(1.0,))
        raised = []
        for twin in _twins(problem):
            with pytest.raises(BlowUpError) as info:
                solve(twin, SolverConfig(steps=440, n_interp=2, split_t0=0.1, n_tilde=40))
            raised.append(info.value)
        assert len(rhos) == 1 and np.isfinite(rhos[0]).all() and np.abs(rhos[0]).max() > 1e77
        assert [(e.step, e.phase) for e in raised] == [(20, "start")] * 2
        assert raised[0].value == raised[1].value == pytest.approx(1465579151584.475, rel=1e-12)

    def test_blow_up_of_a_huge_constant_q(self):
        # D^(1/2) u = 1e200 u: the start's kernel and resolvent overflow,
        # under the same errstate guard as the block's solve, so the block
        # is rejected with no warning and stepped, and both twins blow up
        # at the first step with u = inf
        problem = problem_from_spec(0.5, 0.0, "1e200*u", b=1.0, init=(1.0,))
        for twin in _twins(problem):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BlowUpError) as info:
                    solve(twin, SolverConfig(steps=400, n_interp=2))
            e = info.value
            assert (e.phase, e.step, e.value) == ("start", 1, math.inf)

    def test_blow_up_at_a_lobatto_node(self):
        # f is finite at every mesh time and not a number at one Lobatto
        # node off the mesh: the node's own step reports it, with the index
        # of the first mesh point past the node, before the split history
        # carries it into the grid steps
        steps = 22
        base = dataclasses.replace(_start_problem("caputo", 0.5), b=1.1)
        mesh, nodes, _, on = _split_start_mesh(base, steps)
        s_bad = nodes[~on][5]
        assert mesh[0] < s_bad < mesh[-1]
        rhs = lambda t, u: math.nan if t == s_bad else base.rhs(t, u)
        for twin in _twins(dataclasses.replace(base, rhs=rhs)):
            with pytest.raises(BlowUpError) as info:
                solve(twin, SolverConfig(steps=steps, n_interp=2, split_t0=0.1))
            e = info.value
            assert (e.step, e.t, e.phase) == (np.searchsorted(mesh, s_bad), s_bad, "start")
            assert math.isnan(e.value)


class TestStepOperator:
    """The block-precomputed step against polynomials, the Lagrange oracle
    and the reference stepper."""

    @pytest.mark.parametrize("n_interp, origin", [(7, 0), (4, 0), (2, 8), (5, 8)])
    def test_block_weights_reproduce_polynomials(self, n_interp, origin):
        steps = 128
        lam = 2.0
        problem = example2(0.5, lam)
        config = SolverConfig(steps=steps, n_interp=n_interp)
        stepper = _Stepper(problem, config, origin)
        nodes, wts = stepper.rule.nodes, stepper.rule.weights
        rng = np.random.default_rng(n_interp)
        coef = rng.standard_normal(n_interp)
        poly = lambda x: np.polynomial.polynomial.polyval(x / steps, coef)
        fs = poly(np.arange(steps + 1.0))
        times = np.linspace(0.0, 1.0, steps + 1)
        # the window's weights, without their tempering over its nodes NI
        # .. 1 steps before t_n
        window_weights = np.array(stepper._window_weights) / np.exp(
            -lam * stepper.tau * np.arange(n_interp, 0, -1))
        hits = 0
        lo = max(origin + 1, n_interp)
        while lo <= steps:
            stepper._build_block(times, lo)
            lo = stepper._hi
            rows = list(stepper._rows)
            for k, n in enumerate(range(stepper._lo, lo)):
                sigma, w_end = rows[k][3:5]
                r = origin + 0.5 * (n - origin) * (nodes + 1.0)
                # one row per quadrature node, its stencil's NI entries in order
                idx = stepper._idx[k].reshape(len(r), n_interp)
                # each weight carries the tempering e^{-lam (t_n - t_i)} of
                # its node; divided out, the rows interpolate
                c = stepper._c[k].reshape(len(r), n_interp) / np.exp(-lam * (times[n] - times[idx]))
                assert idx.min() >= 0 and idx.max() <= n - 1
                assert (np.diff(idx, axis=1) == 1).all()
                # the predictor over all nodes, its stencils ending at n-1
                got = (c * fs[idx]).sum(axis=1)
                assert np.allclose(got, wts * poly(r), rtol=0.0, atol=1e-12)
                # the predictor plus the window, node n included, over the
                # corrector's nodes
                window = sigma * window_weights @ fs[n - n_interp:n] + w_end * fs[n]
                assert got.sum() + window == pytest.approx(wts @ poly(r), rel=0.0, abs=1e-12)
                hits += int(((c == 0.0).sum(axis=1) == n_interp - 1).sum())
        assert hits > 0  # the origin node (and x = 0 at even spans) hit the grid

    @pytest.mark.parametrize("n_interp, origin", [(7, 0), (3, 0), (2, 8), (5, 8)])
    def test_window_gives_the_corrector_stencils(self, n_interp, origin):
        # on data no stencil reproduces, the predictor sum plus the window
        # equals the corrector's quadrature node by node: stencils within
        # [0, n], and the endpoint's weight on f_n
        steps = 67
        lam = 2.0
        problem = example2(0.5, lam)
        stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=n_interp), origin)
        nodes, wts = stepper.rule.nodes, stepper.rule.weights
        fs = np.random.default_rng(origin + n_interp).standard_normal(steps + 1)
        times = np.linspace(0.0, 1.0, steps + 1)
        window_weights = np.array(stepper._window_weights) / np.exp(
            -lam * stepper.tau * np.arange(n_interp, 0, -1))
        lo = max(origin + 1, n_interp)
        while lo <= steps:
            stepper._build_block(times, lo)
            lo = stepper._hi
            rows = list(stepper._rows)
            for k, n in enumerate(range(stepper._lo, lo)):
                sigma, w_end = rows[k][3:5]
                r = origin + 0.5 * (n - origin) * (nodes + 1.0)
                idx = stepper._idx[k]
                pred = (stepper._c[k] / np.exp(-lam * (times[n] - times[idx]))) @ fs[idx]
                want = sum(
                    w * lagrange_reference(fs[:n + 1], x, n_interp)
                    for x, w in zip(r[:-1], wts[:-1])
                ) + wts[-1] * fs[n]
                window = sigma * window_weights @ fs[n - n_interp:n]
                got = pred + window + w_end * fs[n]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("steps", [
        10 * BlockStepperReference.BLOCK - 1,
        10 * BlockStepperReference.BLOCK,
        10 * BlockStepperReference.BLOCK + 1,
    ])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("corrector_iters", [1, 2])
    @pytest.mark.parametrize("n_interp", [2, 3, 5, 7])
    @pytest.mark.parametrize("lam", [2.0, 800.0])
    def test_solve_matches_reference_stepper(self, lam, n_interp, corrector_iters, split, steps):
        # the shared-stencil step, tempered through its weights, against the
        # separate predictor and corrector stencils it replaced
        # (tests/_oracles.py), built in blocks of their own length over a
        # scaled history that is rebased as it grows
        problem = example2(0.5, lam)
        config = SolverConfig(
            steps=steps, n_interp=n_interp, corrector_iters=corrector_iters,
            split_t0=8 * (problem.b - problem.a) / steps if split else None,
        )
        got, want = solve(problem, config).values, solve_reference(problem, config).values
        # at lam = 800 the solution leaves the normal double range near t = 0.8
        normal = np.abs(want) > 1e-280
        assert normal.sum() > steps // 2
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0.0)
        assert np.abs(got[~normal] - want[~normal]).max(initial=0.0) <= 1e-280

    def test_block_build_peak_memory(self):
        # one block keeps (n_quad+1) NI weights and indices per step, 75 KB
        # for the 32 steps of NI = 7 here; its build's temporaries stay
        # within a fifth of that.  At NI = 2 a split solve's block is 64
        # steps, whose build, history term included, stays in the same bound,
        # as do the 51 steps of NI = 4 and the 36 of NI = 6.  The build runs
        # in the buffer scope that _march holds over all the steps
        steps = 1024
        problem = example2(0.5, 2.0)
        lob = gauss_lobatto(0.0, 0.0, 40)
        history = (0.05 * (lob.nodes + 1.0), 0.05 * lob.weights, np.ones(41))
        times = np.linspace(0.0, 1.0, steps + 1)
        for n_interp, origin, split, length in ((7, 0, None, 32), (2, 100, history, 64),
                                                (4, 0, None, 51), (6, 100, history, 36)):
            stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=n_interp, n_quad=20),
                               origin, split)
            stepper._build_block(times, 500)  # warm the caches
            with _ufunc_bufsize(_BUILD_BUFSIZE):
                tracemalloc.start()
                try:
                    stepper._build_block(times, stepper._hi)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert stepper._hi - stepper._lo == length
            assert peak < 90_000

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("n_interp", [2, 6, 7])
    def test_block_length_leaves_results_unchanged(self, n_interp, split, lam, iters,
                                                   monkeypatch):
        # each step's sums are its own row's, summed row by row, so every
        # block length gives bit-identical traces.  A block is built only
        # when a step runs past the last one's end
        steps = 150
        problem = example2(0.5, lam)
        config = SolverConfig(steps=steps, n_interp=n_interp, corrector_iters=iters,
                              split_t0=0.08 if split else None)
        n_start = 12 if split else n_interp - 1
        init, build = _Stepper.__init__, _Stepper._build_block
        length, builds = [None], [0]

        def forced_init(self, *args):
            init(self, *args)
            if length[0] is not None:
                self._block = length[0]
            length[0] = self._block

        def counted_build(self, *args):
            builds[0] += 1
            return build(self, *args)

        monkeypatch.setattr(_Stepper, "__init__", forced_init)
        monkeypatch.setattr(_Stepper, "_build_block", counted_build)
        traces = {}
        for forced in (None, 1, 7, 8, 32, 36):
            length[0], builds[0] = forced, 0
            trace = solve(problem, config)
            traces[forced] = np.stack([trace.values, trace.rhs_values])
            assert builds[0] == -(-(steps - n_start) // length[0])
            if forced is None:
                assert length[0] == {2: 64, 6: 36, 7: 32}[n_interp]
        want = traces[32]
        for forced in (None, 1, 7, 8, 36):
            assert traces[forced].tobytes() == want.tobytes()


def _rhs_calls_by_phase(problem, config, monkeypatch):
    """Solve ``problem``, and the times at which its right-hand side was
    called in each phase: the start, the JPC steps (each corrector pass
    and the step's f) and the rest of the march (f at the start values)."""
    phase = ["march"]
    calls = {"start": [], "step": [], "march": []}

    def rhs(t, u):
        calls[phase[-1]].append(t)
        return problem.rhs(t, u)

    def in_phase(name, fn):
        def run(*args):
            phase.append(name)
            try:
                return fn(*args)
            finally:
                phase.pop()
        return run

    monkeypatch.setattr("tfode.solver._adams_pece_scaled", in_phase("start", _adams_pece_scaled))
    monkeypatch.setattr(_Stepper, "step", in_phase("step", _Stepper.step))
    return solve(dataclasses.replace(problem, rhs=rhs), config), calls


class TestAffineSteps:
    """JPC steps that take f = p + q u from ``Problem.affine``."""

    @pytest.mark.parametrize("iters", [1, 3])
    def test_affine_steps_call_no_rhs(self, iters, monkeypatch):
        # D^(1/2) u = -u as in TestSolve.test_rhs_calls_per_phase, with its
        # affine parts: the start calls the right-hand side for f_0 alone
        # (one resolvent chunk), the march for f at the three start values,
        # and the 18 JPC steps not at all
        problem = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(1.0,),
                          rhs=lambda t, u: -u, affine=(lambda t: 0.0, lambda t: -1.0))
        config = SolverConfig(steps=20, n_interp=3, corrector_iters=iters)
        trace, calls = _rhs_calls_by_phase(problem, config, monkeypatch)
        assert {k: len(v) for k, v in calls.items()} == {"start": 1, "step": 0, "march": 3}
        np.testing.assert_array_equal(trace.rhs_values, -trace.values)

    @pytest.mark.parametrize("fault", ["raises", "nan", "complex", "shape"])
    def test_block_whose_parts_fail_calls_rhs(self, fault, monkeypatch):
        # NI = 2 steps 2 .. 200 in blocks of 64, in one span of blocks: q
        # fails over the span, so every step calls the right-hand side twice
        # in the step phase, for its corrector pass and for its f, and the
        # solve matches the non-affine twin's
        steps = 200
        problem = _start_problem("caputo", 0.6)
        times = np.linspace(0.0, 1.0, steps + 1)
        lo, hi = times[66], times[129]

        def q(t):
            if not (t[0] <= hi and t[-1] >= lo):
                return np.full_like(t, -0.5)
            if fault == "raises":
                raise ZeroDivisionError("float division by zero")
            if fault == "nan":
                return np.where(t > 0.5, np.nan, -0.5)
            if fault == "complex":
                return np.full_like(t, -0.5) + 0j
            return np.full(len(t) + 1, -0.5)

        config = SolverConfig(steps=steps, n_interp=2)
        trace, calls = _rhs_calls_by_phase(
            dataclasses.replace(problem, affine=(np.cos, q)), config, monkeypatch)
        assert calls["step"] == [t for t in trace.times[2:].tolist() for _ in (0, 1)]
        assert calls["march"] == trace.times[:2].tolist()
        want = solve(dataclasses.replace(problem, affine=None), config)
        np.testing.assert_allclose(trace.values, want.values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(trace.rhs_values, want.rhs_values, rtol=1e-13, atol=0.0)

    def test_parts_evaluated_per_span_of_blocks(self):
        # NI = 7 steps 7 .. 600 in blocks of 32: p and q are evaluated once
        # for the start's one chunk and once for each of the three spans of
        # 8 blocks (256, 256 and 144 steps).  Spans start afresh at the
        # switch at step 201, so the second span starts there, though the
        # first runs to step 262, and the third at 457 runs to the grid's
        # end
        times = []

        def q(t):
            times.append(np.array(t))
            return -1.0

        problem = dataclasses.replace(example2(0.5, 2.0),
                                      affine=(example2(0.5, 2.0).affine[0], q))
        solve(problem, SolverConfig(steps=600, n_interp=7))
        assert [len(t) for t in times] == [6 * 64, 256, 256, 144]

    @pytest.mark.parametrize("init", [(1.0,), (0.0,)])
    @pytest.mark.parametrize("rhs", ["u/(t-0.5)", "exp(800*t)*u", "1e300*t*1e300*u",
                                     "ln(t-0.3)*u + 1", "(t-0.4)^0.5*u"])
    def test_expression_parts_fail_where_rhs_does(self, rhs, init):
        # an expression's array parts fail only where its scalar value
        # raises or u leaves the range, so a span of steps that calls the
        # right-hand side for want of p and q fails as the twin without
        # them does: u/(t-0.5) at t = 0.5 in the JPC steps, exp(800*t)*u
        # in the start from u(0) = 1 and in the steps from 0, the others in
        # the start
        problem = problem_from_spec(0.5, 0.0, rhs, b=1.0, init=init)
        assert problem.affine is not None
        config = SolverConfig(steps=200, n_interp=3)
        raised = []
        for twin in (problem, dataclasses.replace(problem, affine=None)):
            with pytest.raises(Exception) as info:
                solve(twin, config)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("n_interp", [2, 7])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("make", [
        pytest.param(lambda lam: example2(0.5, lam), id="example2"),
        pytest.param(lambda lam: _start_problem("caputo", 0.5, lam), id="cos"),
    ])
    def test_twins_agree(self, make, split, n_interp, lam):
        # the affine twin's steps (and start) take f from p and q, the
        # other's from the right-hand side, in each of one or three
        # corrector passes and for the step's own f
        for iters in (1, 3):
            config = SolverConfig(steps=150, n_interp=n_interp, corrector_iters=iters,
                                  split_t0=0.08 if split else None)
            affine, plain = (solve(twin, config) for twin in _twins(make(lam)))
            np.testing.assert_allclose(affine.values, plain.values, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(affine.rhs_values, plain.rhs_values, rtol=1e-13, atol=0.0)


def _relaxation_error(alpha, mu, steps, lam=0.0, **config):
    """Max error of D^(alpha,lam) u = -mu u, u(0) = 1, NI = 2, against
    e^{-lam t} E_alpha(-mu t^alpha), on [0, 1.1] with a split, else [0, 1]."""
    b = 1.1 if config.get("split_t0") else 1.0
    problem = Problem(kind="caputo", alpha=alpha, lam=lam, a=0.0, b=b, init=(1.0,),
                      rhs=lambda t, u: -mu * u, affine=(lambda t: 0.0, lambda t: -mu))
    trace = solve(problem, SolverConfig(steps=steps, n_interp=2, **config))
    exact = np.exp(-lam * trace.times) * mittag_leffler(alpha, 1.0, -mu * trace.times**alpha)
    return float(np.abs(trace.values - exact)[1:].max())


def _far_rows(stepper, times, fs, n):
    """Run the stepper's far blocks from its switch, with a set-up of their
    own, over the history ``fs`` to the block holding step n; return that
    step's row and its predictor's weights and slice."""
    lo, stepper._far = stepper._switch, None
    while True:
        stepper._far_block(times, fs, lo)
        rows = list(stepper._rows)
        if n < stepper._hi:
            k = n - stepper._lo
            return rows[k], stepper._c[k], stepper._idx[k]
        lo = stepper._hi


class TestFarHistory:
    """JPC steps past n - origin > c n_quad^2 (0 < alpha < 1): the near
    window's rule over the last K steps, and far sums over the rest, with
    weights built once per solve."""

    def test_relaxation_converges_as_m_grows(self):
        # the whole-span rule gave 3.1e-2, 7.4e-2 and 6.9e-2 at these M
        errs = [_relaxation_error(0.8, 16.0, m) for m in (640, 2560, 10240)]
        assert errs[1] <= errs[0] and errs[2] <= errs[0]
        assert errs[2] < 1e-5

    def test_half_order_relaxation_is_accurate_or_fails_loudly(self):
        # the whole-span rule returned an error of 9.4e9 without a word
        try:
            err = _relaxation_error(0.5, 16.0, 2560)
        except BlowUpError:
            return
        assert err <= 0.05

    def test_split_relaxation_is_accurate_or_fails_loudly(self):
        # alpha = 0.5, lam = 0, mu = 20 through the split scheme at 704
        # steps, which gave 9.5e7 on the whole-span rule; 4.8e-5 here
        try:
            err = _relaxation_error(0.5, 20.0, 704, split_t0=0.1, n_tilde=40)
        except BlowUpError:
            return
        assert err <= 1e-4

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("n_interp, origin", [(2, 0), (4, 0), (7, 0), (3, 6), (5, 9)])
    def test_weights_integrate_polynomials(self, n_interp, origin, lam):
        # f_j = e^{lam (t_n - t_j)} z_j^k with z the position on [t_origin,
        # t_n] mapped to [-1, 1], k < NI: the tempered samples are a
        # polynomial, which every stencil reproduces, so the near and far
        # weights together give its Jacobi moment, in the predictor and in
        # the corrector.  n_quad = 8 makes the switch 33 steps past the
        # origin, and the steps below lie in the first far block and later
        steps, alpha = 400, 0.6
        problem = Problem(kind="caputo", alpha=alpha, lam=lam, a=0.0, b=1.0, init=(0.0,),
                          rhs=lambda t, u: 0.0)
        stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=n_interp, n_quad=8),
                           origin)
        assert stepper._switch == origin + 33
        times = np.linspace(0.0, 1.0, steps + 1)
        for n in (stepper._switch, stepper._switch + 17, 250, steps):
            span = times[n] - times[origin]
            scale = rgamma(alpha) * (span / 2) ** alpha
            for k in range(n_interp):
                z = 2.0 * (times - times[origin]) / span - 1.0
                fs = np.exp(lam * (times[n] - times)) * z**k
                (t, base, pref, sigma, w_end, _, _), c, idx = _far_rows(
                    stepper, times, fs, n)
                want = float(jacobi_moment(alpha - 1.0, 0.0, k)) * scale
                pred = base + pref * (c @ fs[idx])
                window = sigma * np.dot(stepper._window_weights, fs[n - n_interp:n])
                corr = pred + pref * (window + w_end * fs[n])
                assert t == times[n]
                assert pred == pytest.approx(want, rel=0.0, abs=1e-13 * scale), (n, k)
                assert corr == pytest.approx(want, rel=0.0, abs=1e-13 * scale), (n, k)

    @pytest.mark.parametrize("n_interp, origin", [(3, 0), (4, 0), (7, 5)])
    def test_far_sums_against_the_interpolant(self, n_interp, origin):
        # on data no stencil reproduces, the far sums are the integral of
        # the oracle's stencil interpolant of e^{-lam (t_n - t_j)} f_j
        # against the kernel over [t_origin, t_n - K tau], by a 12-point
        # Gauss-Legendre rule on each half step
        steps, alpha, lam = 160, 0.3, 3.0
        problem = Problem(kind="caputo", alpha=alpha, lam=lam, a=0.0, b=1.0, init=(0.0,),
                          rhs=lambda t, u: 0.0)
        stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=n_interp, n_quad=8),
                           origin)
        times = np.linspace(0.0, 1.0, steps + 1)
        fs = np.random.default_rng(n_interp).standard_normal(steps + 1)
        g, wg = np.polynomial.legendre.leggauss(12)
        K = stepper._near_steps
        for n in (stepper._switch + 3, 100, steps):
            samples = fs[:n] * np.exp(-lam * stepper.tau * np.arange(n, 0, -1.0))
            want = 0.0
            for x0 in np.arange(origin, n - K, 0.5):
                for x, wx in zip(x0 + 0.25 * (g + 1.0), 0.25 * wg):
                    want += wx * (n - x) ** (alpha - 1.0) * lagrange_reference(samples, x, n_interp)
            want *= rgamma(alpha) * stepper.tau**alpha
            (_, base, *_), _, _ = _far_rows(stepper, times, fs, n)
            assert base == pytest.approx(want, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("n_interp", [2, 7])
    def test_block_length_leaves_results_unchanged(self, n_interp, split, lam, monkeypatch):
        # the whole-span rule's blocks end at the switch, and the far sums
        # come in blocks of their own from it, so a forced block length
        # leaves the steps past the switch bit-identical too
        problem = example2(0.5, lam)
        config = SolverConfig(steps=150, n_interp=n_interp, n_quad=8,
                              split_t0=0.08 if split else None)
        init = _Stepper.__init__
        length = [None]

        def forced_init(self, *args):
            init(self, *args)
            assert self._switch < 100
            if length[0] is not None:
                self._block = length[0]

        monkeypatch.setattr(_Stepper, "__init__", forced_init)
        traces = []
        for forced in (None, 1, 7, 36):
            length[0] = forced
            trace = solve(problem, config)
            traces.append(np.stack([trace.values, trace.rhs_values]).tobytes())
        assert len(set(traces)) == 1

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("n_interp", [2, 7])
    @pytest.mark.parametrize("split", [False, True])
    def test_twins_agree(self, split, n_interp, lam):
        # as TestAffineSteps.test_twins_agree, past the switch
        for iters in (1, 3):
            config = SolverConfig(steps=150, n_interp=n_interp, n_quad=8, corrector_iters=iters,
                                  split_t0=0.08 if split else None)
            twins = _twins(_start_problem("caputo", 0.5, lam))
            affine, plain = (solve(twin, config) for twin in twins)
            np.testing.assert_allclose(affine.values, plain.values, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(affine.rhs_values, plain.rhs_values, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda lam: example2(0.5, lam), id="example2"),
        pytest.param(lambda lam: Problem(kind="caputo", alpha=0.5, lam=lam, a=0.0, b=1.0,
                                         init=(1.0,), rhs=lambda t, u: math.cos(t),
                                         affine=(np.cos, lambda t: 0.0)), id="q0"),
    ])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("n_interp", [2, 3, 7])
    def test_resolvent_blocks_agree_with_stepped_twin(self, n_interp, iters, lam, split, make,
                                                      monkeypatch):
        # with one q over a span of p and q the affine twin solves the
        # span's far steps at once, through the resolvent of its steps'
        # weights; the twin without affine parts takes every step through
        # _pece.  A span is 8 blocks of at least 32 steps, so at 150 steps
        # the far steps are one span
        solved = []
        solve_block = _Stepper._solve_far_block

        def counted(self, *args):
            solved.append(solve_block(self, *args) is not None)
            return solve_block(self, *args)

        monkeypatch.setattr(_Stepper, "_solve_far_block", counted)
        config = SolverConfig(steps=150, n_interp=n_interp, n_quad=8, corrector_iters=iters,
                              split_t0=0.08 if split else None)
        affine, plain = (solve(twin, config) for twin in _twins(make(lam)))
        assert solved == [True]
        np.testing.assert_allclose(affine.values, plain.values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(affine.rhs_values, plain.rhs_values, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("case", ["q-varies-late", "short-last-block"])
    def test_slice_written_blocks_agree_with_stepped_twin(self, case, lam, monkeypatch):
        # a span of far steps solved at once is written into the trace as
        # slices, and its last NI f values into the ring that the next
        # stepped row reads.  q = -0.5 up to t = 0.6 and varying past it:
        # at 1280 steps the spans of p and q from the switch at step 201 up
        # to step 713 hold one q, so they are solved at once, and the rows
        # from there are stepped.  At 2507 steps the spans of 256 steps
        # from 201 leave a last one of 3 steps, fewer than NI = 7
        blocks = []
        far_block = _Stepper._far_block

        def recorded(self, times, fs, lo):
            solved = far_block(self, times, fs, lo)
            blocks.append((lo, self._hi, solved is not None))
            return solved

        monkeypatch.setattr(_Stepper, "_far_block", recorded)
        if case == "q-varies-late":
            problem = Problem(kind="caputo", alpha=0.5, lam=lam, a=0.0, b=1.0, init=(1.0,),
                              rhs=lambda t, u: math.cos(t) - (0.5 + max(t - 0.6, 0.0)) * u,
                              affine=(np.cos, lambda t: -0.5 - np.maximum(t - 0.6, 0.0)))
            steps = 1280
        else:
            problem, steps = example2(0.5, lam), 2507
        config = SolverConfig(steps=steps, n_interp=7)
        with_parts, without = _twins(problem)
        affine = solve(with_parts, config)
        (lo, hi, _), solved = blocks[-1], [ok for *_, ok in blocks]
        plain = solve(without, config)
        if case == "q-varies-late":
            assert solved[0] and not solved[-1]
            assert solved == sorted(solved, reverse=True)
        else:
            assert all(solved) and (lo, hi) == (2505, 2508)
        np.testing.assert_allclose(affine.values, plain.values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(affine.rhs_values, plain.rhs_values, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lam", [0.0, 2.0, 800.0])
    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("n_interp", [2, 3, 7])
    def test_long_spans_agree_with_stepped_twin(self, n_interp, iters, lam, monkeypatch):
        # at the default n_quad a span of p and q is 8 blocks, 512 steps at
        # NI = 2, 448 at 3 and 256 at 7, and spans start afresh at the
        # switch at step 201: the 1100 steps past it are solved at once in
        # spans of that length and one shorter, through the resolvent of
        # their weights, the near window's and the far sums'.  u and f keep
        # off 0, so each value is held to 1e-13 of itself
        solved = []
        solve_block = _Stepper._solve_far_block

        def recorded(self, times, fs, lo, hi, *args):
            out = solve_block(self, times, fs, lo, hi, *args)
            solved.append((hi - lo, out is not None))
            return out

        monkeypatch.setattr(_Stepper, "_solve_far_block", recorded)
        problem = Problem(kind="caputo", alpha=0.5, lam=lam, a=0.0, b=1.0, init=(1.0,),
                          rhs=lambda t, u: 2.0 + math.cos(t) - 2.0 * u,
                          affine=(lambda t: 2.0 + np.cos(t), lambda t: -2.0))
        config = SolverConfig(steps=1300, n_interp=n_interp, corrector_iters=iters)
        affine, plain = (solve(twin, config) for twin in _twins(problem))
        span = {2: 512, 3: 448, 7: 256}[n_interp]
        assert solved == [(span, True)] * (1100 // span) + [(1100 % span, True)]
        np.testing.assert_allclose(affine.values, plain.values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(affine.rhs_values, plain.rhs_values, rtol=1e-13, atol=0.0)

    def test_split_relaxation_spans_agree_with_stepped_twin(self):
        # D^(1/2, 5) u = -20 u through the split scheme at 1760 steps: the
        # far steps from 361 on come in spans of 512, whose split history
        # term is made a far block's steps at a time
        problem = Problem(kind="caputo", alpha=0.5, lam=5.0, a=0.0, b=1.1, init=(1.0,),
                          rhs=lambda t, u: -20.0 * u, affine=(lambda t: 0.0, lambda t: -20.0))
        config = SolverConfig(steps=1760, n_interp=2, split_t0=0.1, n_tilde=40)
        affine, plain = (solve(twin, config) for twin in _twins(problem))
        np.testing.assert_allclose(affine.values, plain.values, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(affine.rhs_values, plain.rhs_values, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n_interp, offset", [(2, 0), (3, 37), (7, 0), (7, 37)])
    def test_span_against_dense_solve(self, n_interp, offset):
        # one span of far steps solved at once, against its whole system as
        # one dense solve: u_n = gs (e^{-lam t_n} + F_n) + sk p_n
        # + sum_j d_j f_{n-j}, where F_n sums every panel P before n - K,
        # each weighing its samples f_{P-h+j} by
        # V[j, n-K-1-P] = sum_m c_m rho_m^(n-K-1-P) Et[m, j], panel by
        # panel, not through the far sums' state, and f = p + q u over the
        # span.  The f before the span are random, 0 where the
        # panels clamped at 0 read them, and the span's own are NaN, which
        # the solve must not read; the span starts at the switch or 37
        # steps past it
        steps, lam, q = 1200, 2.0, -2.0
        problem = Problem(kind="caputo", alpha=0.5, lam=lam, a=0.0, b=1.0, init=(1.0,),
                          rhs=lambda t, u: math.cos(t) + q * u, affine=(np.cos, lambda t: q))
        stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=n_interp))
        times = np.linspace(0.0, 1.0, steps + 1)
        K, ni = stepper._near_steps, n_interp
        lo = stepper._switch + offset
        hi = min(lo + stepper._span, steps + 1)
        fs = np.random.default_rng(n_interp).standard_normal(steps + 1)
        fs[:ni + 1] = 0.0
        fs[lo:] = np.nan
        stepper._far_setup(times, fs, stepper._switch)
        stepper._advance(fs, lo - K)
        p = np.cos(times[lo:hi])
        u, f = stepper._solve_far_block(times, fs, lo, hi, p, q)

        _, _, _, _, c, _, _, sl, _, _, h = stepper._far
        lt = lam * stepper.tau
        Et = stepper._panel_weights(sl - lt)[h] * np.exp(-lt * np.arange(ni + h, h - 1.0, -1.0))
        gs, sk, d, _ = stepper._far_taps(q)
        J = len(d) - 1
        V = (Et * c[:, None]).T @ np.exp(-np.multiply.outer(sl, np.arange(steps + 1.0)))
        # u over the span is b + A f, A over f_0 .. f_{hi-1}
        A = np.zeros((hi - lo, hi))
        for r, n in enumerate(range(lo, hi)):
            A[r, n - J:n] = d[J:0:-1]
            for j in range(ni + 1):
                # panels P = h .. n-K-1 weigh f_{P-h+j} by V[j, n-K-1-P]
                A[r, j:j + n - K - h] += gs * V[j, n - K - h - 1::-1]
        b = gs * np.exp(-lam * times[lo:hi]) + sk * p + A[:, :lo] @ fs[:lo]
        A = A[:, lo:]
        f_want = np.linalg.solve(np.eye(hi - lo) - q * A, p + q * b)
        u_want = b + A @ f_want
        assert len(u) == {2: 512, 3: 448, 7: 256}[ni]
        assert np.abs(u - u_want).max() <= 1e-13 * np.abs(u_want).max()
        assert np.abs(f - f_want).max() <= 1e-13 * np.abs(f_want).max()

    def test_varying_q_is_stepped_as_without_affine(self):
        # q = -10 (1 + t) varies over every far block past the switch at
        # step 201, so the affine twin takes each step through _pece with
        # f = 0 + q u, which is the right-hand side's value: the traces are
        # byte-identical
        problem = problem_from_spec(0.5, 0.0, "-10*(1+t)*u", b=1.0, init=(1.0,))
        assert problem.affine is not None
        config = SolverConfig(steps=440, n_interp=3)
        affine, plain = (solve(twin, config) for twin in _twins(problem))
        assert np.stack([affine.values, affine.rhs_values]).tobytes() == \
            np.stack([plain.values, plain.rhs_values]).tobytes()

    def test_blow_up_in_a_resolvent_block_names_its_step(self):
        # D^(1/2) u = 7.4 u grows past the blow-up limit at step 1968 of
        # 4000, inside a far block: the block's solution fails its check,
        # and its steps are taken through _pece, which names the step as
        # the twin without affine parts does
        problem = problem_from_spec(0.5, 0.0, "7.4*u", b=1.0, init=(1.0,))
        raised = []
        for twin in _twins(problem):
            with pytest.raises(BlowUpError) as info:
                solve(twin, SolverConfig(steps=4000, n_interp=2))
            raised.append(info.value)
        for err in raised:
            assert (err.phase, err.step) == ("step", 1968)
        assert raised[0].value == pytest.approx(raised[1].value, rel=1e-12, abs=0.0)

    def test_blow_up_in_a_long_span_names_its_step(self, monkeypatch):
        # at NI = 7, D^(1/2) u = 7.4 u passes the blow-up limit at step 1968,
        # 231 steps into the 256-step span from 1737: that span's solution
        # fails its check, and its steps are taken as rows, a far block at
        # a time, through _pece, which names the step as the twin without
        # affine parts does.  The rest of the span is tried again from each
        # next block, and fails too
        spans = []
        solve_block = _Stepper._solve_far_block

        def recorded(self, times, fs, lo, hi, *args):
            out = solve_block(self, times, fs, lo, hi, *args)
            spans.append((lo, hi, out is not None))
            return out

        monkeypatch.setattr(_Stepper, "_solve_far_block", recorded)
        problem = problem_from_spec(0.5, 0.0, "7.4*u", b=1.0, init=(1.0,))
        raised = []
        for twin in _twins(problem):
            with pytest.raises(BlowUpError) as info:
                solve(twin, SolverConfig(steps=4000, n_interp=7))
            raised.append(info.value)
        first = [lo for lo, _, ok in spans].index(1737)
        assert spans[first - 1:first + 2] == [(1481, 1737, True), (1737, 1993, False),
                                              (1769, 1993, False)]
        assert spans[-1] == (1961, 1993, False)
        for err in raised:
            assert (err.phase, err.step) == ("step", 1968)
        assert raised[0].value == pytest.approx(raised[1].value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, n_quad, built", [(0.5, 20, 0), (1.5, 8, 0), (0.5, 8, 1)])
    def test_set_up_only_past_the_switch(self, alpha, n_quad, built, monkeypatch):
        # 150 steps stay within 0.5 n_quad^2 = 200 at the default n_quad,
        # and 1 < alpha < 2 keeps the whole-span rule
        setups = []
        setup = _Stepper._far_setup

        def counted(self, *args):
            setups.append(args[-1])
            return setup(self, *args)

        monkeypatch.setattr(_Stepper, "_far_setup", counted)
        solve(_start_problem("caputo", alpha), SolverConfig(steps=150, n_interp=3, n_quad=n_quad))
        assert setups == [33] * built


class TestSolveAffineBlock:
    """The one solve of an affine block, u = u0 + e * (p + q u0), for the
    start's kernel and for the far steps' weights, against a dense solve."""

    @staticmethod
    def _kernels(q, monkeypatch):
        """(kernel, taps) pairs for q: one from the start's _resolvent, 128
        steps at alpha = 0.5, h = 1e-5 and lam h = 0.05, and one from the
        far steps' taps, a 256-step span at NI = 7 and n_quad = 20."""
        made = []

        def taps(kern, q, size):
            e = _resolvent_taps(kern, q, size)
            made.append((kern[:size], e))
            return e

        monkeypatch.setattr("tfode.solver._resolvent_taps", taps)
        n, size, alpha, h = 256, 128, 0.5, 1e-5
        r1, _, rc = _convolution_tables(n, alpha)
        d = np.arange(size, -1, -1.0)
        _resolvent(q, rgamma(alpha) * h**alpha, r1[n - size:] * np.exp(-0.05 * d),
                   rc[n - size:] * np.exp(-0.05 * d[1:]), size)
        stepper = _Stepper(example2(0.5, 2.0), SolverConfig(steps=400, n_interp=7))
        stepper._far_setup(np.linspace(0.0, 1.0, 401), np.zeros(401), stepper._switch)
        stepper._far_taps(q)
        assert [len(e) for _, e in made] == [128, 256]
        return made

    @pytest.mark.parametrize("q", [-20.0, -2.0, 2.0, 12.0])
    def test_against_dense_solve(self, q, monkeypatch):
        # (1 - q K) f = p + q u0 and u = u0 + K f, K the strictly lower
        # triangular Toeplitz matrix of the kernel, by a dense LU solve; u
        # is held to 1e-13 of its largest value, and f is p + q u.  The far
        # span's u stays below 20 at q = -2 and 2, and grows to 4e39 at
        # q = 12 and 7e88 at q = -20, past any blow-up limit, so the solve
        # takes none here
        rng = np.random.default_rng(3)
        for kern, e in self._kernels(q, monkeypatch):
            b = len(e)
            K = toeplitz(kern, np.zeros(b))
            u0 = 1.0 + rng.random(b)
            for p in (np.asarray(0.3), rng.standard_normal(b)):
                u, f = _solve_affine_block(u0, p, q, e, math.inf)
                f_want = np.linalg.solve(np.eye(b) - q * K, p + q * u0)
                u_want = u0 + K @ f_want
                assert np.abs(u - u_want).max() <= 1e-13 * np.abs(u_want).max(), (b, p.ndim)
                np.testing.assert_array_equal(f, p + q * u)

    @pytest.mark.parametrize("bad", [2.0 * _BLOWUP_LIMIT, -math.inf, math.nan])
    def test_out_of_range_is_none(self, bad, monkeypatch):
        # a u past the blow-up limit, or not finite, rejects the block
        for kern, e in self._kernels(-20.0, monkeypatch):
            u0 = np.ones(len(e))
            u0[5] = bad
            with np.errstate(all="ignore"):
                assert _solve_affine_block(u0, np.asarray(0.0), -20.0, e, _BLOWUP_LIMIT) is None


class TestSolve:
    def test_exact_solution_singular_at_a(self):
        # RL data of negative order: u = e^{-t} t^(alpha-1) / Gamma(alpha) is
        # infinite at a, which max_error() skips
        alpha = 0.7
        p = Problem(kind="rl", alpha=alpha, lam=1.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: 0.0,
                    exact=lambda t: math.exp(-t) * t ** (alpha - 1.0) / gamma(alpha))
        tr = solve(p, SolverConfig(steps=20, n_interp=3))
        with np.errstate(divide="ignore"):
            errs = tr.errors()
            assert errs[0] == np.inf
            assert tr.max_error() <= 1e-13

    def test_zero_rhs_equals_forcing(self):
        for lam in (0.0, 2.0):
            for alpha in (0.5, 1.5):
                n = max(1, math.ceil(alpha))
                p = Problem(kind="caputo", alpha=alpha, lam=lam, a=0.0, b=1.0,
                            init=(1.0, 0.5)[:n], rhs=lambda t, u: 0.0)
                tr = solve(p, SolverConfig(steps=20, n_interp=3))
                want = np.array([volterra_forcing(p, t) for t in tr.times])
                assert np.abs(tr.values - want).max() <= 1e-13

    @pytest.mark.parametrize("iters", [1, 3])
    def test_rhs_calls_per_phase(self, iters, monkeypatch):
        # D^(1/2) u = -u, stepped through its start: f_0 and two calls a
        # step over the 2 * 64 steps of the start, f at each of the three
        # start values, and in each of the 18 JPC steps one call per
        # corrector pass and one for the step's f
        phase = ["march"]
        calls = dict.fromkeys(["start", "step", "march"], 0)

        def rhs(t, u):
            calls[phase[-1]] += 1
            return -u

        def in_phase(name, fn):
            def run(*args):
                phase.append(name)
                try:
                    return fn(*args)
                finally:
                    phase.pop()
            return run

        monkeypatch.setattr("tfode.solver._adams_pece_scaled",
                            in_phase("start", _adams_pece_scaled))
        monkeypatch.setattr(_Stepper, "step", in_phase("step", _Stepper.step))
        problem = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(1.0,), rhs=rhs)
        solve(problem, SolverConfig(steps=20, n_interp=3, corrector_iters=iters))
        assert calls == {"start": 1 + 2 * 128, "step": 18 * iters + 18, "march": 3}
        assert sum(calls.values()) == {1: 296, 3: 332}[iters]

    def test_benchmark_cell(self):
        tr = solve(example2(0.5, 2.0), SolverConfig(steps=40, n_interp=7))
        # reference reports 6.3106e-10 for this configuration
        assert tr.max_error() <= 6.3106e-9

    def test_shifted_interval(self):
        # zero RHS on [1, 2]: u = c0 e^{-lam t} exactly, independent of a
        p = Problem(kind="caputo", alpha=0.5, lam=2.0, a=1.0, b=2.0, init=(1.0,),
                    rhs=lambda t, u: 0.0, exact=lambda t: math.exp(-2.0 * t))
        tr = solve(p, SolverConfig(steps=20, n_interp=4))
        assert tr.max_error() <= 1e-13

    def test_shifted_interval_nontrivial(self):
        # relaxation on [1, 2]; scaled-variable exact solution
        alpha, lam, mu = 0.5, 1.0, 1.0
        from tfode.specfun import mittag_leffler
        exact = lambda t: math.exp(-lam * (t - 1.0) - lam) * mittag_leffler(
            alpha, 1.0, -mu * (t - 1.0) ** alpha
        )
        p = Problem(kind="caputo", alpha=alpha, lam=lam, a=1.0, b=2.0,
                    init=(math.exp(lam) * exact(1.0),), rhs=lambda t, u: -mu * u,
                    exact=exact)
        errs = [solve(p, SolverConfig(steps=m, n_interp=2)).max_error()
                for m in (40, 80)]
        assert errs[1] < errs[0]
        assert errs[1] <= 5e-3

    def test_trace_consistency(self):
        p = example2(0.5, 2.0)
        tr = solve(p, SolverConfig(steps=20, n_interp=5))
        for j in (0, 7, 20):
            assert tr.rhs_values[j] == p.rhs(tr.times[j], tr.values[j])
        assert tr.tau == pytest.approx(0.05)

    def test_tempering_consistency(self):
        # solving with lam > 0 equals solving the conjugated problem at lam = 0
        lam = 2.0
        p = example2(0.5, lam)
        pv = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(0.0,),
                     rhs=lambda t, v: math.exp(lam * t) * p.rhs(t, math.exp(-lam * t) * v))
        cfg = SolverConfig(steps=40, n_interp=7)
        tr = solve(p, cfg)
        trv = solve(pv, cfg)
        diff = np.abs(tr.values - np.exp(-lam * tr.times) * trv.values).max()
        assert diff <= 1e-9

    def test_continuous_dependence(self):
        # perturbing the initial datum of the linear relaxation problem by
        # delta shifts the solution by exactly delta * u_exact
        alpha, lam, mu, delta = 0.9, 5.0, 1.0, 1e-3
        base = example3(alpha, lam, mu)
        bumped = Problem(kind="caputo", alpha=alpha, lam=lam, a=0.0, b=1.1,
                         init=(1.0 + delta,), rhs=base.rhs)
        cfg = SolverConfig(steps=44, n_interp=2, split_t0=0.1, n_tilde=40)
        t1, t2 = solve(base, cfg), solve(bumped, cfg)
        pred = delta * np.array([exact_example3(alpha, lam, mu, t) for t in t1.times])
        assert np.abs((t2.values - t1.values) - pred).max() <= 1e-8

    def test_rl_forcing_only_solve(self):
        # best-effort Riemann-Liouville path: with f = 0 the trace equals the
        # (singular) forcing at every node past the surrogate at t_0
        p = Problem(kind="rl", alpha=0.5, lam=1.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: 0.0)
        tr = solve(p, SolverConfig(steps=20, n_interp=3))
        want = np.array([volterra_forcing(p, t) for t in tr.times[1:]])
        assert np.abs(tr.values[1:] - want).max() <= 1e-10 * np.abs(want).max()
        assert tr.values[0] > 1e3  # one-sided surrogate near the singularity

    @pytest.mark.parametrize("alpha, init, affine, k, probed", [
        (0.7, (1.0,), (lambda t: 0.0, lambda t: -1.0), 0, False),
        (0.7, (1.0,), None, 0, True),
        # q fails to evaluate, so rhs is probed
        (0.7, (1.0,), (lambda t: 0.0, lambda t: t / 0.0), 0, True),
        (1.5, (0.0, 2.0), (lambda t: 0.0, lambda t: -1.0), 1, False),
        (1.5, (1.0, 2.0), None, 1, True),
    ])
    def test_rl_data_of_negative_order(self, alpha, init, affine, k, probed):
        # D^alpha u = -u with a datum g_k != 0 of negative order alpha - k - 1:
        # u is unbounded at a, and the solve is refused before the start;
        # the only right-hand-side calls are the probe's two at t_1
        calls = []

        def rhs(t, u):
            calls.append(t)
            return -u

        p = Problem(kind="rl", alpha=alpha, lam=1.0, a=0.0, b=1.0, init=init, rhs=rhs,
                    affine=affine)
        with pytest.raises(NegativeOrderDataError, match=rf"datum init\[{k}\] = {init[k]:g} "
                           rf"has negative order alpha - {k + 1} = {alpha - k - 1:.6g},"):
            solve(p, SolverConfig(steps=40, n_interp=4))
        assert calls == ([0.025] * 2 if probed else [])

    @pytest.mark.parametrize("alpha, init, rhs, affine", [
        # data of order >= 0: u is bounded at a
        (1.5, (1.0, 0.0), lambda t, u: -u, (lambda t: 0.0, lambda t: -1.0)),
        (1.0, (1.0,), lambda t, u: -u, None),
        # a right-hand side of t alone, declared so by q = 0 or found so
        (0.7, (1.0,), lambda t, u: math.cos(t), (np.cos, lambda t: 0.0)),
        (1.5, (0.0, 1.0), lambda t, u: math.cos(t), None),
    ])
    def test_rl_data_that_are_solved(self, alpha, init, rhs, affine):
        p = Problem(kind="rl", alpha=alpha, lam=1.0, a=0.0, b=1.0, init=init, rhs=rhs,
                    affine=affine)
        assert np.isfinite(solve(p, SolverConfig(steps=40, n_interp=4)).values[1:]).all()

    def test_rl_caputo_coincide_for_zero_data(self):
        rhs = lambda t, u: math.cos(3.0 * t) - u
        cfg = SolverConfig(steps=40, n_interp=5)
        tc = solve(Problem(kind="caputo", alpha=0.5, lam=1.0, a=0.0, b=1.0,
                           init=(0.0,), rhs=rhs), cfg)
        tr = solve(Problem(kind="rl", alpha=0.5, lam=1.0, a=0.0, b=1.0,
                           init=(0.0,), rhs=rhs), cfg)
        assert np.abs(tc.values - tr.values).max() <= 1e-11

    @pytest.mark.parametrize("n_interp", [2, 3, 4, 5, 6, 7])
    def test_design_order(self, n_interp):
        errs = [
            solve(example2(0.5, 2.0), SolverConfig(steps=m, n_interp=n_interp)).max_error()
            for m in (20, 40, 80, 160)
        ]
        order = math.log2(errs[-2] / errs[-1])
        assert n_interp - 0.8 <= order <= n_interp + 1.5

    def test_volterra_residual(self):
        # substituting the trace into the integral equation, with the right
        # side evaluated by an independent composite quadrature, leaves a
        # residual no larger than 10x the reported error
        p = example2(0.5, 2.0)
        cfg = SolverConfig(steps=40, n_interp=5)
        tr = solve(p, cfg)
        err = tr.max_error()
        alpha, lam, tau = 0.5, 2.0, tr.tau
        leg = gauss_lobatto(0.0, 0.0, 10)
        jac = gauss_lobatto(alpha - 1.0, 0.0, 24)

        def residual(j):
            t = tr.times[j]
            fhat = lambda s: lagrange_reference(tr.rhs_values[: j + 1], s / tau, 5)
            total, x = 0.0, 0.0
            while x < t - tau / 2 - 1e-12:
                hi = min(x + tau / 2, t - tau / 2)
                h2 = 0.5 * (hi - x)
                for z, w in zip(leg.nodes, leg.weights):
                    s = h2 * (z + 1.0) + x
                    total += h2 * w * (t - s) ** (alpha - 1.0) * math.exp(-lam * (t - s)) * fhat(s)
                x = hi
            half = tau / 4.0
            for z, w in zip(jac.nodes, jac.weights):
                s = half * (z + 1.0) + (t - tau / 2)
                total += half**alpha * w * math.exp(-lam * (t - s)) * fhat(s)
            return abs(tr.values[j] - rgamma(alpha) * total)

        worst = max(residual(j) for j in (10, 20, 40))
        assert worst <= 10.0 * err

    @pytest.mark.parametrize("lam, steps", [(800.0, 160), (2000.0, 1280)])
    def test_large_tempering_rate(self, lam, steps):
        # lam (b - a) far beyond the double range of e^{lam (t - a)}: the
        # steps' tempering factors are all at most 1, so the solve neither
        # overflows nor reports a spurious blow-up, and stays accurate
        # wherever the exact solution is representable
        tr = solve(example2(0.5, lam), SolverConfig(steps=steps, n_interp=7))
        assert np.isfinite(tr.values).all()
        exact = np.array([exact_example2(0.5, lam, t) for t in tr.times])
        assert np.abs(tr.values - exact).max() <= 1e-16
        big = exact > 1e-280
        assert big.sum() > steps // 10
        assert np.abs(tr.values[big] / exact[big] - 1.0).max() <= 1e-12

    def test_peak_memory_linear_in_steps(self):
        # the block precompute keeps the solve's working set at the trace's
        # three grid-length arrays (times, values, and the f values that the
        # steps read as their history) plus one block's weights and its
        # build, under 110 KB; precomputing every step's stencils would need
        # over 100 grid-length arrays
        steps = 20480
        problem, config = example2(0.5, 2.0), SolverConfig(steps=steps, n_interp=7)
        solve(problem, SolverConfig(steps=64, n_interp=7))  # warm the rule cache
        tracemalloc.start()
        try:
            solve(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (steps + 1) * 8 + 110_000

    def test_blow_up_detection(self):
        p = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=4.0, init=(2.0,),
                    rhs=lambda t, u: u * u)
        with pytest.raises(BlowUpError) as ei:
            solve(p, SolverConfig(steps=64, n_interp=3))
        assert ei.value.step > 0
        # u = 2 with u^2 growth leaves the range within the first step
        # tau = 1/16: the blow-up is in the start, on its refined mesh
        assert ei.value.phase == "start" and ei.value.t < 1 / 16
        assert "in the start phase at step" in str(ei.value)

    def test_blow_up_limit_scales_with_the_solution(self):
        # D^(1/2) u = -u decays from u(0) = 1e13, and its trace is 1e13
        # times the one from u(0) = 1; the start "blew up" at its first step
        p = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: -u)
        config = SolverConfig(steps=20, n_interp=2)
        unit = solve(p, config)
        big = solve(dataclasses.replace(p, init=(1e13,)), config)
        np.testing.assert_allclose(big.values, 1e13 * unit.values, rtol=1e-12, atol=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(steps=5, n_interp=7)
        with pytest.raises(ValueError):
            SolverConfig(steps=20, n_interp=1)
        with pytest.raises(ValueError):
            SolverConfig(steps=20, n_interp=7, n_quad=5)
        for field, value in [("start_refine", 0), ("n_tilde", 1), ("corrector_iters", 0)]:
            with pytest.raises(ValueError, match=f"{field} must be at least"):
                SolverConfig(steps=20, n_interp=7, **{field: value})


class TestSolveSplit:
    def test_zero_rhs_matches_plain_solve(self):
        p = Problem(kind="caputo", alpha=0.9, lam=5.0, a=0.0, b=1.1, init=(1.0,),
                    rhs=lambda t, u: 0.0, exact=lambda t: math.exp(-5.0 * t))
        plain = solve(p, SolverConfig(steps=22, n_interp=2))
        split = solve_split(p, SolverConfig(steps=22, n_interp=2, split_t0=0.1))
        assert np.abs(plain.values - split.values).max() <= 1e-12

    def test_dispatch_through_solve(self):
        cfg = SolverConfig(steps=22, n_interp=2, split_t0=0.1)
        tr = solve(example3(0.9, 5.0), cfg)
        assert tr.max_error() <= 2e-4

    def test_benchmark_cell(self):
        cfg = SolverConfig(steps=44, n_interp=2, split_t0=0.1, n_tilde=40)
        tr = solve_split(example3(0.9, 5.0), cfg)
        # reference reports 4.3478e-6 for this configuration
        assert tr.max_error() <= 4.3478e-5

    def test_stiff_blow_up_is_in_the_step_phase(self):
        # mu = 50: the start over [0, 0.1] stays bounded, and the explicit
        # corrector diverges on the coarse grid afterwards
        with pytest.raises(BlowUpError) as ei:
            solve(example3(0.9, 0.0, mu=50.0), SolverConfig(steps=22, n_interp=2, split_t0=0.1))
        assert ei.value.phase == "step" and ei.value.step == 17
        assert "in the step phase at step 17" in str(ei.value)

    def test_start_tempers_each_lobatto_node_history(self):
        # lam = 3000: e^{lam t} passes the double range at t = 0.24, and each
        # Lobatto node's PECE tempers the history before it by its own
        # distances, e^{-lam (s - t_j)}.  u = e^{-lam t} erfcx(sqrt(t)) (mu = 1)
        lam = 3000.0
        tr = solve(example3(0.5, lam, b=1.0), SolverConfig(steps=20, n_interp=2, split_t0=0.5))
        exact = np.exp(-lam * tr.times) * erfcx(np.sqrt(tr.times))
        big = exact > 1e-280
        assert big.sum() == 5
        assert np.abs(tr.values[big] / exact[big] - 1.0).max() <= 1e-5
        assert np.abs(tr.values[~big] - exact[~big]).max() <= 1e-280

    def test_misaligned_split_point_rejected(self):
        with pytest.raises(ValueError):
            solve_split(example3(0.9, 5.0), SolverConfig(steps=22, n_interp=2, split_t0=0.07))

    def test_split_point_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            solve_split(example3(0.9, 5.0), SolverConfig(steps=22, n_interp=2, split_t0=1.2))
        # and a split solve needs a split point
        with pytest.raises(ValueError, match="requires config.split_t0"):
            solve_split(example3(0.9, 5.0), SolverConfig(steps=22, n_interp=2))


class TestExactValues:
    """``SolutionTrace.exact_values`` calls the exact solution once, with
    the grid, and node by node where that fails."""

    def _trace(self, exact):
        problem = dataclasses.replace(example3(0.5, 5.0), exact=exact)
        return solve_split(problem, SolverConfig(steps=22, n_interp=2, split_t0=0.1))

    def test_one_call_with_the_grid(self):
        calls = []

        def exact(t):
            calls.append(t)
            return exact_example3(0.5, 5.0, 1.0, t)

        tr = self._trace(exact)
        values = tr.exact_values()
        assert len(calls) == 1 and calls[0] is tr.times
        assert tr.exact_values() is values and len(calls) == 1

    def test_scalar_only_callable(self):
        tr = self._trace(lambda t: math.exp(-t))  # raises TypeError on an array
        assert np.array_equal(tr.exact_values(), [math.exp(-t) for t in tr.times])

    @pytest.mark.parametrize("array_value", [math.inf, math.nan, 1j])
    def test_unusable_array_values_fall_back(self, array_value):
        def exact(t):
            if isinstance(t, np.ndarray):
                return np.full(t.shape, array_value)
            return 2.0 * t

        tr = self._trace(exact)
        assert np.array_equal(tr.exact_values(), 2.0 * tr.times)


class TestExactSolutions:
    def test_example2_values(self):
        assert exact_example2(0.5, 2.0, 0.0) == 0.0
        assert exact_example2(0.7, 0.0, 1.0) == pytest.approx(3.25, rel=1e-14)
        assert exact_example2(0.5, 2.0, 1.0) == pytest.approx(3.25 * math.exp(-2.0), rel=1e-14)

    def test_example3_values(self):
        assert exact_example3(0.9, 5.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert exact_example3(1.0, 0.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
        # frozen from the 50-digit series oracle
        assert exact_example3(0.9, 5.0, 1.0, 1.0) == pytest.approx(
            0.0025339129205161767, abs=1e-14
        )

    def test_array_of_times(self):
        t = np.linspace(0.0, 1.1, 89)
        for got, one in (
            (exact_example2(0.5, 2.0, t), lambda x: exact_example2(0.5, 2.0, x)),
            (exact_example3(0.5, 5.0, 20.0, t), lambda x: exact_example3(0.5, 5.0, 20.0, x)),
            (exact_example3(1.8, 5.0, 1.0, t), lambda x: exact_example3(1.8, 5.0, 1.0, x)),
        ):
            want = np.array([one(float(x)) for x in t])
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        with pytest.raises(ValueError, match="nonnegative"):
            exact_example3(0.5, 5.0, 1.0, t - 0.1)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            Problem(kind="caputo", alpha=2.5, lam=0.0, a=0.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 0.0)
        with pytest.raises(ValueError):
            Problem(kind="caputo", alpha=1.5, lam=0.0, a=0.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 0.0)
        with pytest.raises(ValueError):
            Problem(kind="weyl", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 0.0)
        with pytest.raises(ValueError):
            Problem(kind="caputo", alpha=0.5, lam=-1.0, a=0.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 0.0)
        with pytest.raises(ValueError):
            Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 0.0, affine=(np.zeros_like,))
        with pytest.raises(ValueError, match="need b > a"):
            Problem(kind="caputo", alpha=0.5, lam=0.0, a=1.0, b=1.0, init=(0.0,),
                    rhs=lambda t, u: 0.0)

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("a", math.nan), ("a", -math.inf),
        ("b", math.inf), ("b", math.nan), ("init", (math.nan, 0.5)), ("init", (1.0, -math.inf)),
    ])
    def test_problem_rejects_non_finite_data(self, field, value):
        # nan < 0 is False, and a, b and init were not checked: the others
        # passed (a nan a or b failed only b > a), and the start "blew up"
        # at its first step or ran to t = inf
        data = dict(kind="caputo", alpha=1.5, lam=1.0, a=0.0, b=1.0, init=(1.0, 0.5),
                    rhs=lambda t, u: -u)
        Problem(**data)
        data[field] = value
        with pytest.raises(ValueError, match="finite"):
            Problem(**data)
