import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz
from scipy.special import erfcx

from _oracles import (
    BlockStepperReference,
    adams_pece_reference,
    convolution_tables_reference,
    lagrange_basis,
    lagrange_reference,
    product_sums_reference,
    solve_reference,
)
from tfode.problems import exact_example2, exact_example3, example2, example3
from tfode.quadrature import gauss_lobatto
from tfode.solver import (
    BlowUpError,
    Problem,
    SolverConfig,
    solve,
    solve_split,
    volterra_forcing,
    _BLOCK,
    _adams_pece_scaled,
    _bary_weights,
    _convolution_tables,
    _near_weights,
    _product_sums,
    _resolvent,
    _resolvent_block,
    _RL_SERIES_FROM,
    _SINGULAR_SHIFT,
    _start,
    _Stepper,
    _stencil_weights,
)
from tfode.specfun import gamma, rgamma


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
    of steps at once, and without them, so that it steps one by one."""
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
        # q is constant, the affine start's kernel, its running sums and its
        # resolvent, 128 long each (a q that varies is stepped, and takes
        # none of them).  An FFT push adds about four
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
        # them in one 40-step resolvent block (capped at 1 + 300 / (lam h)
        # steps it took ten); a twin whose q varies is stepped, with two
        # right-hand side calls a step
        blocks = []

        def resolvent_block(*args):
            blocks.append(len(args[3]))
            return _resolvent_block(*args)

        monkeypatch.setattr("tfode.solver._resolvent_block", resolvent_block)
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
    def test_resolvent_against_dense_solve(self, size):
        # rho, the first column of the inverse of the unit lower-triangular
        # Toeplitz matrix with first column 1, -q K(1), -q K(2), ..., against
        # a dense triangular solve: for q < 0 and q > 0, with rho bounded or
        # growing, and at lam h = 90, where the tempered weights underflow
        # past a few steps.  rho_k sums terms as large as the largest entry
        # before it, so each entry is held to 1e-14 of that one
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
            kern, cum, rho = _resolvent(q, rgamma(alpha) * h**alpha, r1b, rcb, size)
            assert len(rho) == size and kern[0] == 0.0
            np.testing.assert_array_equal(cum, np.cumsum(kern))
            column = -q * kern
            column[0] = 1.0
            want = solve_triangular(toeplitz(column, np.zeros(size)), np.eye(size)[0],
                                    lower=True, unit_diagonal=True)
            assert np.isfinite(want).all()
            scale = np.maximum.accumulate(np.abs(want))
            assert (np.abs(rho - want) <= 1e-14 * scale).all(), (alpha, h, lam_h, q)

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


class TestStepOperator:
    """The block-precomputed step against polynomials, the Lagrange oracle
    and the reference stepper."""

    @pytest.mark.parametrize("n_interp, origin", [(7, 0), (4, 0), (2, 8), (5, 8)])
    def test_block_weights_reproduce_polynomials(self, n_interp, origin):
        steps = 4 * _BLOCK
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
        # the window's tempering, over its nodes NI .. 1 steps before t_n
        window_decay = np.exp(-lam * stepper.tau * np.arange(n_interp, 0, -1))
        hits = 0
        for lo in range(max(origin + 1, n_interp), steps + 1, _BLOCK):
            stepper._build_block(times, lo)
            for k, n in enumerate(range(lo, stepper._hi)):
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
                window = (stepper._window[k] / window_decay) @ fs[n - n_interp:n] + stepper._w_end[k] * fs[n]
                assert got.sum() + window == pytest.approx(wts @ poly(r), rel=0.0, abs=1e-12)
                hits += int(((c == 0.0).sum(axis=1) == n_interp - 1).sum())
        assert hits > 0  # the origin node (and x = 0 at even spans) hit the grid

    @pytest.mark.parametrize("n_interp, origin", [(7, 0), (3, 0), (2, 8), (5, 8)])
    def test_window_gives_the_corrector_stencils(self, n_interp, origin):
        # on data no stencil reproduces, the predictor sum plus the window
        # equals the corrector's quadrature node by node: stencils within
        # [0, n], and the endpoint's weight on f_n
        steps = 2 * _BLOCK + 3
        lam = 2.0
        problem = example2(0.5, lam)
        stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=n_interp), origin)
        nodes, wts = stepper.rule.nodes, stepper.rule.weights
        fs = np.random.default_rng(origin + n_interp).standard_normal(steps + 1)
        times = np.linspace(0.0, 1.0, steps + 1)
        window_decay = np.exp(-lam * stepper.tau * np.arange(n_interp, 0, -1))
        for lo in range(max(origin + 1, n_interp), steps + 1, _BLOCK):
            stepper._build_block(times, lo)
            for k, n in enumerate(range(lo, stepper._hi)):
                r = origin + 0.5 * (n - origin) * (nodes + 1.0)
                idx = stepper._idx[k]
                pred = (stepper._c[k] / np.exp(-lam * (times[n] - times[idx]))) @ fs[idx]
                want = sum(
                    w * lagrange_reference(fs[:n + 1], x, n_interp)
                    for x, w in zip(r[:-1], wts[:-1])
                ) + wts[-1] * fs[n]
                window = (stepper._window[k] / window_decay) @ fs[n - n_interp:n]
                got = pred + window + stepper._w_end[k] * fs[n]
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
        # for the 32 steps here; its build's temporaries stay within a fifth
        # of that
        steps = 1024
        problem = example2(0.5, 2.0)
        stepper = _Stepper(problem, SolverConfig(steps=steps, n_interp=7, n_quad=20))
        times = np.linspace(0.0, 1.0, steps + 1)
        stepper._build_block(times, 500)  # warm the caches
        tracemalloc.start()
        try:
            stepper._build_block(times, 500 + _BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90_000


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
        # steps read as their history) plus one block's weights; precomputing
        # every step's stencils would need over 100
        steps = 20480
        problem, config = example2(0.5, 2.0), SolverConfig(steps=steps, n_interp=7)
        solve(problem, SolverConfig(steps=64, n_interp=7))  # warm the rule cache
        tracemalloc.start()
        try:
            solve(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (steps + 1) * 8

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

    @pytest.mark.xfail(strict=True, raises=BlowUpError,
                       reason="the blow-up limit is the absolute |u| > 1e12")
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
