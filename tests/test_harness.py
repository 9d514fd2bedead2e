import dataclasses
import io
import math

import pytest

from tfode.harness import (
    Sweep,
    estimate_order,
    load_report_csv,
    report_csv_text,
    run_sweep,
    table_sweep,
    write_trace_csv,
)
from tfode.problems import example2
from tfode.solver import SolverConfig, solve


class TestEstimateOrder:
    def test_clean_halving(self):
        assert estimate_order([1e-2, 2.5e-3]) == [pytest.approx(2.0)]

    def test_benchmark_pair(self):
        got = estimate_order([2.3516e-5, 1.4040e-7])
        assert got[0] == pytest.approx(7.3879, abs=5e-4)

    def test_no_improvement(self):
        assert estimate_order([1e-3, 1e-3]) == [pytest.approx(0.0)]

    def test_flagged_entries(self):
        got = estimate_order([1e-2, 0.0, math.inf, 1e-3])
        assert got == [None, None, None]

    def test_length(self):
        assert estimate_order([1.0]) == []


class TestSweep:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.05, 0.1), n_interp=3,
                  rhs="builtin:example2")
        with pytest.raises(ValueError):
            Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.1, 0.05), n_interp=3)
        with pytest.raises(ValueError):
            Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.1, 0.05), rhs="-u")
        # the name of a built-in is checked where the problem is built
        with pytest.raises(ValueError):
            run_sweep(Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.1,), n_interp=3,
                            rhs="builtin:nonsense"))
        with pytest.raises(TypeError, match="'bogus'"):
            Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.1,), n_interp=3, rhs="-u", bogus=1)

    def test_keywords_go_to_spec_or_options(self):
        sw = Sweep(alphas=[0.5], lambdas=[1], taus=[0.1], rhs="-u", init=(1.0,), a=0.5,
                   n_interp=3, start_refine=8)
        assert sw.alphas == (0.5,) and sw.lambdas == (1.0,) and sw.taus == (0.1,)
        assert dict(sw.spec) == {"rhs": "-u", "init": (1.0,), "a": 0.5, "b": 1.0}
        assert dict(sw.options) == {"n_interp": 3, "start_refine": 8}
        with pytest.raises(TypeError):
            sw.options["n_interp"] = 4
        # the keywords of replace() are routed alike
        other = dataclasses.replace(sw, start_refine=16, b=2.0)
        assert dict(other.options) == {"n_interp": 3, "start_refine": 16}
        assert other.spec["b"] == 2.0 and other.spec["a"] == 0.5
        assert other.make_config(other.make_problem(0.5, 1.0), 0.1).start_refine == 16

    def test_steps_must_divide(self):
        sw = Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.1,), n_interp=3,
                   rhs="builtin:example2", b=1.0)
        problem = sw.make_problem(0.5, 0.0)
        assert sw.make_config(problem, 0.1).steps == 10
        with pytest.raises(ValueError):
            sw.make_config(problem, 0.3)

    def test_run_sweep_builtin(self):
        sw = Sweep(alphas=(0.5,), lambdas=(2.0,), taus=(0.1, 0.05), n_interp=7,
                   rhs="builtin:example2", b=1.0)
        reports = run_sweep(sw)
        assert len(reports) == 1
        rep = reports[0]
        assert len(rep.rows) == 2
        assert rep.rows[0].order is None
        assert rep.rows[1].order == pytest.approx(
            math.log2(rep.rows[0].max_error / rep.rows[1].max_error)
        )
        assert 6.0 <= rep.fitted_order() <= 9.0

    def test_zero_rhs_errors_at_noise_floor(self):
        sw = Sweep(alphas=(0.5,), lambdas=(1.0,), taus=(0.1, 0.05), n_interp=3,
                   rhs="0", exact="exp(-lambda*t)", init=(1.0,), b=1.0)
        rep = run_sweep(sw)[0]
        assert all(r.max_error <= 1e-13 for r in rep.rows)

    def test_reference_fallback_without_exact(self):
        # manufactured so the integrand stays smooth enough for the stencil
        sw = Sweep(alphas=(0.5,), lambdas=(1.0,), taus=(0.1, 0.05), n_interp=4,
                   rhs="t^4-u", init=(0.0,), b=1.0)
        rep = run_sweep(sw)[0]
        assert rep.meta["error_baseline"] == "reference"
        assert rep.rows[1].max_error < rep.rows[0].max_error
        assert rep.fitted_order() > 3.0

    def test_blow_up_recorded_and_continues(self):
        sw = Sweep(alphas=(0.5,), lambdas=(0.0,), taus=(0.25, 0.125), n_interp=3,
                   rhs="u*u", exact="1/(1-t)", init=(1.0,), a=0.0, b=2.0)
        rep = run_sweep(sw)[0]
        assert all(math.isinf(r.max_error) for r in rep.rows)
        assert all(o is None for o in rep.orders)

    def test_inline_expression_problem(self):
        # relaxation via expression matches the builtin to machine precision
        sw_expr = Sweep(alphas=(0.9,), lambdas=(5.0,), taus=(0.05,), n_interp=2,
                        rhs="-u", exact="exp(-lambda*t)*ml(alpha,1,-t^alpha)",
                        init=(1.0,), b=1.1, split_t0=0.1)
        sw_builtin = Sweep(alphas=(0.9,), lambdas=(5.0,), taus=(0.05,), n_interp=2,
                           rhs="builtin:example3", b=1.1, split_t0=0.1)
        e1 = run_sweep(sw_expr)[0].rows[0].max_error
        e2 = run_sweep(sw_builtin)[0].rows[0].max_error
        assert e1 == pytest.approx(e2, rel=1e-9)

    def test_builtin_data_override(self, capsys):
        # sweeps build problems like tfode solve: initial data given for a
        # builtin replace its own, and its exact solution is dropped
        sw = Sweep(alphas=(0.9,), lambdas=(5.0,), taus=(0.05,), n_interp=2,
                   rhs="builtin:example3", init=(2.0,), b=1.1, split_t0=0.1)
        problem = sw.make_problem(0.9, 5.0)
        assert problem.init == (2.0,) and problem.exact is None
        assert capsys.readouterr().err == (
            "note: overriding init of builtin 'example3'; its exact solution is discarded\n"
        )


class TestTables:
    def test_table_configs(self):
        t1 = table_sweep(1)
        assert t1.spec["rhs"] == "builtin:example2" and t1.options["n_interp"] == 7
        assert t1.spec["b"] == 1.0
        assert t1.alphas == (0.5,) and t1.lambdas == (0.0, 2.0, 6.0)
        assert t1.taus == (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160)
        t4 = table_sweep(4)
        assert t4.spec["rhs"] == "builtin:example3" and t4.options["split_t0"] == 0.1
        assert t4.options["n_tilde"] == 40
        assert t4.alphas == (0.2, 0.9, 1.8) and t4.spec["b"] == 1.1
        with pytest.raises(ValueError):
            table_sweep(6)


class TestCsv:
    def _small_reports(self):
        sw = Sweep(alphas=(0.5,), lambdas=(2.0,), taus=(0.1, 0.05), n_interp=7,
                   rhs="builtin:example2", b=1.0)
        return run_sweep(sw)

    def test_roundtrip_and_consistency(self):
        reports = self._small_reports()
        text = report_csv_text(reports, wall_ms=True)
        loaded = load_report_csv(io.StringIO(text))
        assert len(loaded) == 1
        assert [r.tau for r in loaded[0].rows] == [0.1, 0.05]

    def test_inconsistent_order_detected(self):
        reports = self._small_reports()
        text = report_csv_text(reports, wall_ms=True)
        lines = text.splitlines()
        parts = lines[2].split(",")
        parts[4] = "1.0000"
        lines[2] = ",".join(parts)
        with pytest.raises(ValueError):
            load_report_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_determinism_without_wall_clock(self):
        a = report_csv_text(self._small_reports(), wall_ms=False)
        b = report_csv_text(self._small_reports(), wall_ms=False)
        assert a == b

    def test_header_shapes(self):
        reports = self._small_reports()
        with_wall = report_csv_text(reports, wall_ms=True).splitlines()[0]
        without = report_csv_text(reports, wall_ms=False).splitlines()[0]
        assert with_wall == "alpha,lambda,tau,max_error,order,wall_ms"
        assert without == "alpha,lambda,tau,max_error,order"

    def test_trace_csv(self):
        tr = solve(example2(0.5, 2.0), SolverConfig(steps=20, n_interp=5))
        buf = io.StringIO()
        write_trace_csv(buf, tr)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,u,u_exact,abs_error"
        assert len(lines) == 22

    def test_trace_csv_without_exact(self):
        from tfode.solver import Problem

        p = Problem(kind="caputo", alpha=0.5, lam=0.0, a=0.0, b=1.0, init=(1.0,),
                    rhs=lambda t, u: -u)
        tr = solve(p, SolverConfig(steps=10, n_interp=3))
        buf = io.StringIO()
        write_trace_csv(buf, tr)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,u"
        assert len(lines) == 12
