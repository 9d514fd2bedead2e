"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
the expected error magnitudes are the stored reference-table values.
"""

import math
import subprocess
import sys
import time

import numpy as np

from tfode.harness import Sweep, run_sweep
from tfode.operators import (
    caputo_derivative,
    laplace_symbol_integral,
    rl_derivative,
    tempered_integral,
    tempered_power_rule,
)
from tfode.problems import example2, example3
from tfode.quadrature import gauss_lobatto
from tfode.solver import SolverConfig, solve
from tfode.specfun import gamma, mittag_leffler, rgamma

from _helpers import cli_env, composition_residual, laplace_transform_of_integral
from _oracles import jacobi_moment


def _check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def test_criterion_01_table1_reproduction():
    taus = (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160)
    reference = (2.3516e-5, 1.4040e-7, 6.3106e-10, 2.5491e-12, 1.2794e-14)
    start = time.perf_counter()
    errs = [
        solve(example2(0.5, 2.0), SolverConfig(steps=round(1 / tau), n_interp=7, n_quad=20)).max_error()
        for tau in taus
    ]
    elapsed = time.perf_counter() - start
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = (
        all(e <= 10.0 * p for e, p in zip(errs, reference))
        and all(7.0 <= o <= 8.7 for o in orders)
        and elapsed < 10.0
    )
    _check(1, "table 1 column (alpha=0.5, lam=2): errors within 10x, orders in [7.0, 8.7]",
           ok, f"  [max ratio {max(e/p for e, p in zip(errs, reference)):.2f}, "
               f"orders {['%.2f' % o for o in orders]}, {elapsed:.1f}s]")


def test_criterion_02_table3_reproduction():
    taus = (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160)
    errs = [
        solve(example2(1.5, 6.0), SolverConfig(steps=round(1 / tau), n_interp=6, n_quad=20)).max_error()
        for tau in taus
    ]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    err80 = errs[taus.index(1 / 80)]
    ok = err80 <= 4e-11 and all(5.4 <= o <= 6.6 for o in orders)
    _check(2, "table 3 column (alpha=1.5, lam=6): err(1/80) <= 4e-11, orders in [5.4, 6.6]",
           ok, f"  [err(1/80) {err80:.2e}, orders {['%.2f' % o for o in orders]}]")


def test_criterion_03_tables4_and_5_reproduction():
    taus = (1 / 20, 1 / 40, 1 / 80, 1 / 160)
    start = time.perf_counter()
    results = {}
    for lam in (5.0, 10.0):
        for alpha in (0.2, 0.9, 1.8):
            errs = [
                solve(
                    example3(alpha, lam, mu=1.0, b=1.1),
                    SolverConfig(steps=round(1.1 / tau), n_interp=2, n_quad=20,
                                 split_t0=0.1, n_tilde=40),
                ).max_error()
                for tau in taus
            ]
            results[(lam, alpha)] = errs
    elapsed = time.perf_counter() - start
    pinned_cell = results[(5.0, 0.9)][taus.index(1 / 40)]
    final_orders = {
        key: math.log2(errs[-2] / errs[-1]) for key, errs in results.items()
    }
    ok = (
        pinned_cell <= 10.0 * 4.3478e-6
        and all(1.6 <= o <= 2.4 for o in final_orders.values())
        and elapsed < 30.0
    )
    _check(3, "tables 4-5 (split scheme): pinned cell within 10x, orders in [1.6, 2.4]",
           ok, f"  [cell {pinned_cell:.2e}, orders "
               f"{['%.2f' % o for o in final_orders.values()]}, {elapsed:.1f}s]")


def test_criterion_04_order_parameter_scaling():
    details = []
    ok = True
    for ni in (3, 4, 5):
        errs = [
            solve(example2(0.5, 2.0), SolverConfig(steps=m, n_interp=ni)).max_error()
            for m in (20, 40, 80, 160)
        ]
        order = math.log2(errs[-2] / errs[-1])
        details.append(f"NI={ni}: {order:.2f}")
        ok = ok and (ni - 0.8 <= order <= ni + 1.5)
    _check(4, "stencil size sets the convergence order (NI in {3,4,5})",
           ok, "  [" + ", ".join(details) + "]")


def test_criterion_05_operator_identities():
    lam = 2.0
    u = lambda t: math.exp(-lam * t) * t**8
    du = lambda t: math.exp(-lam * t) * (8.0 * t**7 - lam * t**8)
    power_worst = max(
        abs(
            caputo_derivative(u, float(t), alpha=0.5, lam=lam, derivs=[du])
            - tempered_power_rule(0.5, lam, 8.0, float(t))
        )
        for t in np.linspace(0.05, 2.0, 20)
    )

    semi_worst = 0.0
    for lam_ in (0.0, 2.0):
        for s1, s2 in ((0.3, 0.4), (0.5, 0.5)):
            def inner(x, s2=s2, lam_=lam_):
                if x <= 0.0:
                    return 0.0
                return tempered_integral(math.sin, x, order=s2, lam=lam_, n_quad=40)

            for t in (0.3, 0.7, 1.0):
                lhs = tempered_integral(inner, t, order=s1, lam=lam_, n_quad=40)
                rhs = tempered_integral(math.sin, t, order=s1 + s2, lam=lam_, n_quad=40)
                semi_worst = max(semi_worst, abs(lhs - rhs))

    comp_worst = max(
        composition_residual(alpha, lam_, t)
        for alpha in (0.5, 1.5) for lam_ in (0.0, 2.0) for t in (0.3, 0.7, 1.0)
    )

    glc_worst = 0.0
    for alpha in (0.4, 1.6):
        n = math.ceil(alpha)
        u2 = lambda t: math.exp(-lam * t) * (1.0 + t + t * t)
        du2 = lambda t: math.exp(-lam * t) * (1.0 + 2.0 * t) - lam * u2(t)
        d2u2 = lambda t: (
            2.0 * math.exp(-lam * t)
            - 2.0 * lam * math.exp(-lam * t) * (1.0 + 2.0 * t)
            + lam * lam * u2(t)
        )
        for t in (0.3, 0.7, 1.2):
            rl = rl_derivative(u2, t, alpha=alpha, lam=lam, derivs=[du2, d2u2][:n])
            cap = caputo_derivative(u2, t, alpha=alpha, lam=lam, derivs=[du2, d2u2][:n])
            corr = sum(
                math.exp(-lam * t) * t ** (k - alpha) * rgamma(k - alpha + 1.0)
                for k in range(n)
            )
            glc_worst = max(glc_worst, abs((rl - cap) - corr))

    ok = power_worst <= 1e-8 and semi_worst <= 1e-8 and comp_worst <= 1e-7 and glc_worst <= 1e-9
    _check(5, "operator identities (power rule 1e-8, semigroup 1e-8, composition 1e-7, RL-Caputo 1e-9)",
           ok, f"  [{power_worst:.1e}, {semi_worst:.1e}, {comp_worst:.1e}, {glc_worst:.1e}]")


def test_criterion_06_special_functions():
    exp_worst = max(
        abs(mittag_leffler(1.0, 1.0, float(z)) - math.exp(float(z)))
        for z in np.linspace(-2.0, 2.0, 81)
    )
    cos_worst = max(
        abs(mittag_leffler(2.0, 1.0, -float(z) ** 2) - math.cos(float(z)))
        for z in np.linspace(-2.0, 2.0, 81)
    )
    rec_worst = max(
        abs(gamma(x + 1.0) - x * gamma(x)) / abs(gamma(x + 1.0))
        for x in (0.3, 0.7, 1.5, 4.2, 10.1)
    )
    ok = exp_worst <= 1e-12 and cos_worst <= 1e-12 and rec_worst <= 1e-12
    _check(6, "Mittag-Leffler exp/cos identities and gamma recurrence to 1e-12",
           ok, f"  [{exp_worst:.1e}, {cos_worst:.1e}, {rec_worst:.1e}]")


def test_criterion_07_quadrature_exactness():
    worst = 0.0
    n = 20
    for alpha in (0.2, 0.5, 0.9, 1.5, 1.8):
        rule = gauss_lobatto(alpha - 1.0, 0.0, n)
        for k in range(2 * n):
            mk = float(jacobi_moment(alpha - 1.0, 0.0, k))
            got = float(rule.weights @ rule.nodes**k)
            worst = max(worst, abs(got - mk) / (1.0 + abs(mk)))
    ok = worst <= 1e-12
    _check(7, "quadrature exact to degree 2N-1 against the moment oracle", ok,
           f"  [worst {worst:.1e}]")


def test_criterion_08_laplace_validation():
    u = lambda t: math.exp(-t)
    worst = 0.0
    for s in (1.0, 2.0, 4.0):
        got = laplace_transform_of_integral(u, 1.0, s, 0.5, 1.0)
        want = laplace_symbol_integral(0.5, 1.0, s) / (s + 1.0)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-6
    _check(8, "numerical Laplace transform matches (s+1)^-1/2/(s+1) to 1e-6", ok,
           f"  [worst {worst:.1e}]")


def test_criterion_09_linear_cost():
    problem = example2(0.5, 2.0)
    solve(problem, SolverConfig(steps=128, n_interp=7))  # warm caches

    def seconds(steps):
        t0 = time.perf_counter()
        solve(problem, SolverConfig(steps=steps, n_interp=7))
        return time.perf_counter() - t0

    # the two sizes alternate and each ratio is taken between two adjacent
    # runs, so a change in machine speed between timing windows cannot bias
    # it; the median of three drops a pair that straddles such a change
    pairs = [(seconds(1280), seconds(2560)) for _ in range(3)]
    ratios = sorted(t2560 / t1280 for t1280, t2560 in pairs)
    ratio = ratios[1]
    ok = ratio <= 2.6
    _check(9, "doubling the step count at most 2.6x the solve time", ok,
           f"  [{min(p[0] for p in pairs):.3f}s -> {min(p[1] for p in pairs):.3f}s, "
           f"pair ratios {', '.join(f'{r:.2f}' for r in ratios)}]")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        r = subprocess.run(
            [sys.executable, "-m", "tfode.cli", "tables", "--which", "1",
             "--out", name],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
        )
        assert r.returncode == 0, r.stderr
        outputs.append((tmp_path / name).read_bytes())
    ok = outputs[0] == outputs[1]
    _check(10, "repeated table-1 runs produce byte-identical CSV", ok,
           f"  [{len(outputs[0])} bytes]")
