import dataclasses
import io
import math

import numpy as np
import pytest

from tfode import harness
from tfode.harness import (
    TABLES,
    Sweep,
    estimate_order,
    load_report_csv,
    report_csv_text,
    run_sweep,
    table_sweep,
    write_trace_csv,
)
from tfode.problems import example2
from tfode.solver import BlowUpError, SolverConfig, solve


class TestEstimateOrder:
    def test_clean_halving(self):
        assert estimate_order([1e-2, 2.5e-3], [0.1, 0.05]) == [pytest.approx(2.0)]

    def test_benchmark_pair(self):
        got = estimate_order([2.3516e-5, 1.4040e-7], [0.1, 0.05])
        assert got[0] == pytest.approx(7.3879, abs=5e-4)

    def test_no_improvement(self):
        assert estimate_order([1e-3, 1e-3], [0.1, 0.05]) == [pytest.approx(0.0)]

    def test_flagged_entries(self):
        got = estimate_order([1e-2, 0.0, math.inf, 1e-3], [0.1, 0.05, 0.025, 0.0125])
        assert got == [None, None, None]

    def test_length(self):
        assert estimate_order([1.0], [0.1]) == []

    def test_steps_that_do_not_halve(self):
        # the observed order is log(e_prev / e) / log(tau_prev / tau)
        got = estimate_order([1e-2, 1e-3, 1e-4], [0.1, 0.04, 0.02])
        assert got == [pytest.approx(math.log(10.0) / math.log(2.5)),
                       pytest.approx(math.log2(10.0))]
        # halving steps give log2(e_prev / e) exactly
        assert estimate_order([1e-2, 2.5e-3], [0.1, 0.05]) == [math.log2(1e-2 / 2.5e-3)]
        # a step that does not decrease, as a report CSV may give, has no order
        assert estimate_order([1e-2, 1e-3], [0.1, 0.1]) == [None]

    def test_sweep_orders_for_steps_that_do_not_halve(self):
        # these orders used to be log2(e_prev / e): 4.4131 for tau 0.05 -> 0.02
        sw = Sweep(rhs="builtin:example2", alphas=(0.5,), lambdas=(2.0,),
                   taus=(0.1, 0.05, 0.02, 0.01), n_interp=3)
        rep = run_sweep(sw)[0]
        assert rep.orders == [pytest.approx(3.3097, abs=5e-4), pytest.approx(3.3384, abs=5e-4),
                              pytest.approx(3.6800, abs=5e-4)]
        e = rep.errors
        assert rep.orders[1] == math.log2(e[1] / e[2]) / math.log2(0.05 / 0.02)
        # the report's order column passes the re-check when read back
        loaded = load_report_csv(io.StringIO(report_csv_text([rep])))
        assert loaded[0].orders == [pytest.approx(o, abs=5e-5) for o in rep.orders]


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


def _per_row_errors(sweep):
    """The sweep's max errors with the exact solution evaluated on each
    row's own grid, as each row's trace evaluates it."""
    errors = []
    for alpha in sweep.alphas:
        for lam in sweep.lambdas:
            problem = sweep.make_problem(alpha, lam)
            for tau in sweep.taus:
                try:
                    errors.append(solve(problem, sweep.make_config(problem, tau)).max_error())
                except BlowUpError:
                    errors.append(math.inf)
    return errors


def _sweep_errors(sweep):
    return [row.max_error for rep in run_sweep(sweep) for row in rep.rows]


@pytest.fixture
def exact_calls(monkeypatch):
    """The arguments of every call of a sweep problem's exact solution."""
    calls = []
    build = harness.problem_from_spec

    def counting(*args, **kwargs):
        problem = build(*args, **kwargs)
        exact = problem.exact

        def counted(t):
            calls.append(t)
            return exact(t)

        return dataclasses.replace(problem, exact=counted)

    monkeypatch.setattr(harness, "problem_from_spec", counting)
    return calls


class TestExactOncePerColumn:
    """A sweep evaluates each column's exact solution on its finest grid,
    and a coarser grid whose times are those taken with a stride takes
    those values."""

    @pytest.mark.parametrize("which", sorted(TABLES))
    def test_errors_match_per_row_evaluation(self, which):
        assert _sweep_errors(TABLES[which]) == _per_row_errors(TABLES[which])

    def test_one_call_per_column(self, exact_calls):
        # per-row evaluation made four calls a column
        sweep = TABLES[4]
        run_sweep(sweep)
        assert len(exact_calls) == len(sweep.alphas) == 3
        for t in exact_calls:
            np.testing.assert_array_equal(t, 1.1 * np.arange(177) / 176)  # tau 1/160

    def test_finest_row_that_blows_up(self, monkeypatch, exact_calls):
        # the next finest row evaluates the values, and the coarsest takes
        # them with a stride of 2
        sweep = Sweep(rhs="builtin:example2", alphas=(0.5,), lambdas=(2.0,),
                      taus=(0.1, 0.05, 0.025), n_interp=4)

        def solve_but_the_finest(problem, config):
            if config.steps == 40:
                raise BlowUpError(config.steps, problem.b, math.inf, "step")
            return solve(problem, config)

        monkeypatch.setattr(harness, "solve", solve_but_the_finest)
        rep = run_sweep(sweep)[0]
        assert [len(t) for t in exact_calls] == [21]
        assert rep.errors[2] == math.inf and rep.orders == [pytest.approx(4, abs=1), None]
        monkeypatch.setattr(harness, "solve", solve)
        assert rep.errors[:2] == _per_row_errors(sweep)[:2]

    def test_grids_that_do_not_nest(self, exact_calls):
        # 16 steps do not divide 20: that row evaluates its own values, and
        # the 10-step row takes the 20-step row's
        sweep = Sweep(rhs="builtin:example2", alphas=(0.5,), lambdas=(2.0,),
                      taus=(0.1, 0.0625, 0.05), n_interp=4)
        errors = _sweep_errors(sweep)
        assert [len(t) for t in exact_calls] == [21, 17]
        assert errors == _per_row_errors(sweep)

    def test_times_that_nest_only_up_to_round_off(self, exact_calls):
        # over [0, 1.1] the 30-step grid's times, taken every third, miss the
        # 10-step grid's by an ulp, so that row evaluates its own
        sweep = Sweep(rhs="builtin:example2", alphas=(0.5,), lambdas=(2.0,),
                      taus=(0.11, 0.11 / 3), n_interp=4, b=1.1)
        fine, coarse = (1.1 * np.arange(m + 1) / m for m in (30, 10))
        assert not np.array_equal(fine[::3], coarse)
        errors = _sweep_errors(sweep)
        assert [len(t) for t in exact_calls] == [31, 11]
        assert errors == _per_row_errors(sweep)

    def test_rows_after_the_node_by_node_fallback(self, monkeypatch):
        # the finest grid's array pass fails, so its values come node by
        # node; the coarser grid's own array pass would not fail, and its
        # values differ from the scalar calls', so it evaluates its own
        build = harness.problem_from_spec

        def exact(t):
            if isinstance(t, np.ndarray):
                if len(t) == 41:
                    raise ValueError("no array pass on the finest grid")
                return np.exp(-t)
            return math.exp(-t) + 1e-3

        monkeypatch.setattr(harness, "problem_from_spec",
                            lambda *a, **k: dataclasses.replace(build(*a, **k), exact=exact))
        sweep = Sweep(rhs="-u", init=(1.0,), alphas=(1.0,), lambdas=(0.0,),
                      taus=(0.05, 0.025), n_interp=3, exact="exp(-t)")
        errors = _sweep_errors(sweep)
        assert errors == _per_row_errors(sweep)
        assert errors[0] < 1e-5 < 1e-4 < errors[1]


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
