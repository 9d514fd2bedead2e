import contextlib
import dataclasses
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from _helpers import cli_env

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "tfode.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


class TestSolveCommand:
    def test_builtin_problem(self, tmp_path):
        r = run_cli(
            "solve", "--kind", "caputo", "--alpha", "0.5", "--lambda", "2",
            "--rhs", "builtin:example2", "--b", "1", "--steps", "40",
            "--NI", "7", "--out", "trace.csv", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,u,u_exact,abs_error"
        assert len(lines) == 42

    def test_expression_rhs(self, tmp_path):
        r = run_cli(
            "solve", "--alpha", "0.9", "--lambda", "5", "--rhs=-u",
            "--init", "1", "--b", "1.1", "--steps", "22", "--NI", "2",
            "--split-t0", "0.1", "--ntilde", "40",
            "--exact", "exp(-lambda*t)*ml(alpha,1,-t^alpha)",
            "--out", "t.csv", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "max error" in r.stdout

    def test_exact_from_builtin(self, tmp_path):
        r = run_cli(
            "solve", "--alpha", "0.9", "--lambda", "5", "--rhs=-u",
            "--init", "1", "--b", "1.1", "--steps", "22", "--NI", "2",
            "--split-t0", "0.1", "--exact", "builtin:example3",
            "--out", "t.csv", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header == "t,u,u_exact,abs_error"

    def test_relax_alias_with_mu(self, tmp_path):
        r = run_cli(
            "solve", "--alpha", "0.9", "--lambda", "2", "--rhs", "builtin:relax",
            "--mu", "3", "--b", "1.1", "--steps", "22", "--NI", "2",
            "--split-t0", "0.1", "--out", "r.csv", cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "max error" in r.stdout

    def test_exact_column_at_large_mittag_leffler_argument(self, tmp_path):
        # z = -20 t^0.5 reaches -21; the power series alone printed 1.357375e+140
        r = run_cli(
            "solve", "--alpha", "0.5", "--lambda", "5", "--rhs=-20*u", "--init", "1",
            "--b", "1.1", "--steps", "440", "--NI", "2", "--split-t0", "0.1",
            "--ntilde", "40", "--exact", "exp(-lambda*t)*ml(alpha,1,-20*t^alpha)",
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert float(r.stdout.rsplit("=", 1)[1]) <= 1e-4

    def test_parse_error_exit_code(self, tmp_path):
        r = run_cli("solve", "--alpha", "0.5", "--rhs", "t +", "--init", "1",
                    "--b", "1", "--steps", "30", "--NI", "3", cwd=tmp_path)
        assert r.returncode == 4
        assert "offset" in r.stderr

    @pytest.mark.parametrize("problem, where, reason", [
        pytest.param(("--rhs", "1/(u-1)"), "right-hand side '1/(u-1)' at t = 0,",
                     "float division by zero", id="1/(u-1)-float division by zero"),
        # a negative base to a fractional power
        pytest.param(("--rhs", "(0-u)^0.5"), "right-hand side '(0-u)^0.5' at t = 0,",
                     "'complex'", id="(0-u)^0.5-'complex'"),
        pytest.param(("--rhs=-u", "--exact", "1/t"), "exact solution '1/t' at t = 0:",
                     "float division by zero", id="exact-1/t-float division by zero"),
        pytest.param(("--rhs=-u", "--exact", "(0-t)^0.5"),
                     "exact solution '(0-t)^0.5' at t = 0.05:", "'complex'",
                     id="exact-(0-t)^0.5-'complex'"),
    ])
    def test_expression_arithmetic_error_exit_code(self, tmp_path, problem, where, reason):
        r = run_cli("solve", "--alpha", "0.5", *problem, "--init", "1",
                    "--b", "1", "--steps", "20", "--NI", "3", cwd=tmp_path)
        assert r.returncode == 4
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        assert lines[0].startswith(f"expression error: {where}")
        assert reason in lines[0]
        assert not (tmp_path / "trace.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        r = run_cli("solve", "--alpha", "0.9", "--rhs", "builtin:example3",
                    "--b", "1.1", "--steps", "22", "--NI", "2",
                    "--split-t0", "0.013", cwd=tmp_path)
        assert r.returncode == 2

    @pytest.mark.parametrize("option, value", [
        ("--lambda", "nan"), ("--lambda", "inf"), ("--init", "nan"), ("--b", "inf"),
    ])
    def test_non_finite_data_is_a_configuration_error(self, tmp_path, option, value):
        # each used to exit 3, a blow-up in the start phase at step 1
        args = {"--lambda": "0", "--init": "1", "--b": "1", option: value}
        r = run_cli("solve", "--alpha", "0.5", "--rhs=-u", "--steps", "40", "--NI", "2",
                    *(f"{k}={v}" for k, v in args.items()), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("configuration error:") and "finite" in r.stderr
        assert "Warning" not in r.stderr
        assert not (tmp_path / "trace.csv").exists()

    def test_exact_start_without_exact_solution(self, tmp_path):
        # it used to fall back to the fractional-Adams start without a word
        r = run_cli("solve", "--alpha", "0.5", "--rhs=-u", "--init", "1", "--b", "1",
                    "--steps", "20", "--NI", "3", "--exact-start", cwd=tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("configuration error:") and "exact_start" in r.stderr
        assert not (tmp_path / "trace.csv").exists()

    def test_split_exact_start(self, tmp_path):
        # the split scheme used to ignore --exact-start: the two traces were
        # byte-identical
        args = ["solve", "--alpha", "0.5", "--lambda", "5", "--rhs=builtin:relax",
                "--b", "1.1", "--steps", "176", "--NI", "2", "--split-t0", "0.1"]
        for extra, out in (([], "adams.csv"), (["--exact-start"], "exact.csv")):
            r = run_cli(*args, *extra, "--out", out, cwd=tmp_path)
            assert r.returncode == 0, r.stderr
        adams, exact = (np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
                        for name in ("adams.csv", "exact.csv"))
        assert not np.array_equal(adams[:, 1], exact[:, 1])
        # t_0 .. t0 = t_16 come from the exact solution
        assert np.abs(exact[:17, 3]).max() <= 1e-15
        assert np.abs(adams[:17, 3]).max() > 1e-9

    def test_rl_data_of_negative_order(self, tmp_path):
        # it used to exit 0 with u = -24.3, -5.07 and -1.34 at t = 0.1, 0.5
        # and 1, where the solution is 1.046, 0.249 and 0.0774
        r = run_cli("solve", "--kind", "rl", "--alpha", "0.7", "--lambda", "1", "--rhs=-u",
                    "--init", "1", "--b", "1", "--steps", "40", "--NI", "4", cwd=tmp_path)
        assert r.returncode == 2
        assert r.stderr.startswith("configuration error: Riemann-Liouville datum init[0] = 1 "
                                   "has negative order alpha - 1 = -0.3"), r.stderr
        assert not (tmp_path / "trace.csv").exists()

    def test_blow_up_exit_code(self, tmp_path):
        r = run_cli("solve", "--alpha", "0.5", "--rhs", "u*u", "--init", "2",
                    "--b", "4", "--steps", "64", "--NI", "3", cwd=tmp_path)
        assert r.returncode == 3
        assert "blow-up" in r.stderr
        assert "in the start phase at step" in r.stderr

    def test_blow_up_names_step_phase(self, tmp_path, monkeypatch, capsys):
        from tfode import cli

        monkeypatch.chdir(tmp_path)
        code = cli.main([
            "solve", "--alpha", "0.9", "--rhs", "builtin:relax", "--mu", "50",
            "--b", "1.1", "--steps", "22", "--NI", "2", "--split-t0", "0.1",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "solver blow-up: solution blew up in the step phase at step 17" in err

    def test_large_initial_data_is_no_blow_up(self, tmp_path, monkeypatch, capsys):
        # D^(1/2) u = -u decays from u(0) = 1e13, and the blow-up limit
        # scales with the initial data: the absolute limit of 1e12 made this
        # exit 3 in the start phase at step 1.  Its trace is 1e13 times
        # that from u(0) = 1
        from tfode import cli

        monkeypatch.chdir(tmp_path)
        traces = []
        for init, out in (("1e13", "big.csv"), ("1", "unit.csv")):
            code = cli.main(["solve", "--alpha", "0.5", "--rhs=-u", "--init", init, "--b", "1",
                             "--steps", "40", "--NI", "2", "--out", out])
            assert code == 0, capsys.readouterr().err
            traces.append(np.loadtxt(tmp_path / out, delimiter=",", skiprows=1))
        big, unit = traces
        np.testing.assert_allclose(big[:, 1], 1e13 * unit[:, 1], rtol=1e-12, atol=0.0)


class TestSweepCommand:
    def test_sweep_from_config(self, tmp_path):
        cfg = {
            "problem": "example2", "alphas": [0.5], "lambdas": [2.0],
            "taus": [0.1, 0.05], "NI": 7, "T": 1.0, "out": "rep.csv",
        }
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        r = run_cli("sweep", "--config", "sweep.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert lines[0] == "alpha,lambda,tau,max_error,order,wall_ms"
        assert len(lines) == 3

    def test_cli_overrides_config(self, tmp_path):
        cfg = {
            "problem": "example2", "alphas": [0.5], "lambdas": [2.0],
            "taus": [0.1], "NI": 7, "T": 1.0,
        }
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        r = run_cli("sweep", "--config", "sweep.json", "--NI", "3",
                    "--out", "o.csv", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "o.csv").exists()

    def test_failing_exact_names_the_finest_grids_node(self, tmp_path):
        # the exact solution is evaluated on the finest grid first, so its
        # first failing node is named, t = 0.025, not the coarser grid's 0.05
        cfg = {
            "rhs": "-u", "init": [1], "exact": "1/((t-0.025)*(t-0.05))", "alphas": [0.5],
            "lambdas": [0], "taus": [0.05, 0.025], "NI": 3, "T": 1.0,
        }
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        r = run_cli("sweep", "--config", "sweep.json", cwd=tmp_path)
        assert r.returncode == 4
        assert r.stderr.startswith(
            "expression error: exact solution '1/((t-0.025)*(t-0.05))' at t = 0.025:"), r.stderr
        assert not (tmp_path / "report.csv").exists()

    def test_reference_blow_up_names_the_reference_solve(self, tmp_path):
        # no exact solution, so the column is measured against a solve at
        # min(taus)/4, 2560 steps, which diverges though both rows would not
        # (max |u| 3.6 and 1.1e3): for 1 < alpha < 2 the steps keep the
        # whole-span rule, whose N = 2 nodes stop resolving the last step
        # after a few steps
        cfg = {
            "rhs": "-16*u", "init": [1.0, 0.0], "alphas": [1.5], "lambdas": [0.0],
            "taus": [0.003125, 0.0015625], "NI": 2, "N": 2, "b": 1.0,
        }
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        r = run_cli("sweep", "--config", "sweep.json", cwd=tmp_path)
        assert r.returncode == 3
        assert r.stderr.startswith(
            "solver blow-up: the reference solve at tau = min(taus)/4 = 0.000390625 "
            "(2560 steps) of the column alpha = 1.5, lambda = 0: "
            "solution blew up in the step phase at step 2524"), r.stderr
        assert not (tmp_path / "report.csv").exists()

    def test_bad_config_key(self, tmp_path):
        (tmp_path / "sweep.json").write_text(json.dumps({"bogus": 1}))
        r = run_cli("sweep", "--config", "sweep.json", cwd=tmp_path)
        assert r.returncode == 2


class TestTablesCommand:
    def test_table4(self, tmp_path):
        r = run_cli("tables", "--which", "4", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "table4.csv").read_text().splitlines()
        assert lines[0] == "alpha,lambda,tau,max_error,order"
        assert len(lines) == 13  # 3 alphas x 4 taus

    @pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
    def test_tables_byte_for_byte(self, tmp_path, which):
        # tables 4 and 5 have errors of 7.9e-9 and up, so a round-off change
        # in the solver leaves their 6 printed digits alone, and they are
        # pinned byte for byte.  The smallest errors of tables 1 to 3 are
        # round-off, and an ulp moves them, so they move with the CPU's BLAS
        # kernels and numpy's SIMD dispatch, by up to 1e-14 across seven such
        # variants.  There alpha, lambda and tau are pinned as text, each
        # order is checked against its errors, and each max_error of
        # run_sweep is held to 3e-14 absolute of its value at full precision
        # (tables_max_error.json).  The pin is on those values, not on their
        # 7 printed digits: one print step of an error above about 3e-8 is
        # coarser than 3e-14, so a move across a print boundary would fail
        # on one kernel and pass on another.  The printed cell must be the
        # run's value formatted with .6e.  The JSON is the one store of those
        # errors: each max_error cell of the stored CSV must be its value
        # formatted with .6e, so the two cannot drift apart.  A change that
        # moves a cell updates both files and says so
        from tfode.harness import TABLES, load_report_csv, run_sweep

        r = run_cli("tables", "--which", str(which), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        got = (tmp_path / f"table{which}.csv").read_text()
        want = (DATA / f"table{which}.csv").read_text()
        if which >= 4:
            assert got == want
            return
        load_report_csv(io.StringIO(got))
        errors = [row.max_error for rep in run_sweep(TABLES[which]) for row in rep.rows]
        pinned = json.loads((DATA / "tables_max_error.json").read_text())[str(which)]
        assert len(errors) == len(pinned)
        for err, pin in zip(errors, pinned):
            assert abs(err - pin) <= 3e-14, (err, pin)
        got_rows = [line.split(",") for line in got.splitlines()]
        want_rows = [line.split(",") for line in want.splitlines()]
        assert len(got_rows) == len(want_rows) == len(errors) + 1
        assert got_rows[0] == want_rows[0]
        for g, w, err, pin in zip(got_rows[1:], want_rows[1:], errors, pinned):
            assert g[:3] == w[:3]
            assert g[3] == f"{err:.6e}", (g, err)
            assert w[3] == f"{pin:.6e}", (w, pin)

    def test_invalid_table(self, tmp_path):
        r = run_cli("tables", "--which", "9", cwd=tmp_path)
        assert r.returncode == 2


class TestSolveExactColumn:
    @pytest.mark.parametrize("exact", [
        pytest.param("exp(-lambda*t)*ml(alpha,1,-t^alpha)", id="expression"),
        pytest.param("builtin:relax", id="builtin"),
    ])
    def test_exact_solution_evaluated_once_per_trace(self, tmp_path, monkeypatch, capsys,
                                                     exact):
        # the trace CSV's u_exact column and the printed max error share
        # one evaluation of the exact solution, over the whole grid at once
        from tfode import cli

        calls = []
        build = cli._problem_from_args

        def counting_problem(args):
            problem = build(args)
            exact = problem.exact

            def counted(t):
                calls.append(t)
                return exact(t)

            return dataclasses.replace(problem, exact=counted)

        monkeypatch.setattr(cli, "_problem_from_args", counting_problem)
        monkeypatch.chdir(tmp_path)
        steps = 22
        code = cli.main([
            "solve", "--alpha", "0.9", "--lambda", "5", "--rhs=-u", "--init", "1",
            "--b", "1.1", "--steps", str(steps), "--NI", "2", "--split-t0", "0.1",
            "--exact", exact, "--out", "t.csv",
        ])
        assert code == 0
        assert "max error" in capsys.readouterr().out
        assert len(calls) == 1
        assert np.array_equal(calls[0], 1.1 * np.arange(steps + 1) / steps)
        assert len((tmp_path / "t.csv").read_text().splitlines()) == steps + 2


class TestProblemSpec:
    """``tfode solve`` builds its problem with ``problems.problem_from_spec``."""

    def _solve(self, tmp_path, monkeypatch, *argv):
        from tfode import cli

        monkeypatch.chdir(tmp_path)
        return cli.main(["solve", "--b", "1", "--steps", "40", "--NI", "3", *argv])

    def test_builtin_override_note(self, tmp_path, monkeypatch, capsys):
        # at alpha 1.5 the data (1, 0) have orders 0.5 and -0.5, and only
        # the first is nonzero, so the Riemann-Liouville solve runs
        code = self._solve(tmp_path, monkeypatch, "--alpha", "1.5", "--lambda", "2",
                           "--rhs", "builtin:example2", "--init", "1,0", "--kind", "rl")
        assert code == 0
        out = capsys.readouterr()
        assert out.err == (
            "note: overriding init, kind of builtin 'example2'; "
            "its exact solution is discarded\n"
        )
        assert out.out == "wrote trace.csv\n"
        assert (tmp_path / "trace.csv").read_text().startswith("t,u\n")

    def test_builtin_without_override_keeps_exact(self, tmp_path, monkeypatch, capsys):
        code = self._solve(tmp_path, monkeypatch, "--alpha", "0.5", "--lambda", "2",
                           "--rhs", "builtin:example2", "--init", "0")
        assert code == 0
        out = capsys.readouterr()
        assert out.err == "" and "max error" in out.out

    def test_exact_builtin_takes_mu(self, tmp_path, monkeypatch, capsys):
        # the exact solution of builtin relax uses the given decay rate
        code = self._solve(tmp_path, monkeypatch, "--alpha", "0.9", "--lambda", "1",
                           "--rhs=-3*u", "--init", "1", "--exact", "builtin:relax",
                           "--mu", "3")
        assert code == 0
        err = float(capsys.readouterr().out.rsplit("=", 1)[1])
        assert err < 1e-3

    def test_exact_replaces_the_builtins_own(self, tmp_path, monkeypatch, capsys):
        # the built-in's own solution used to be kept, and the given one
        # dropped: "max error over t_1..t_M = 6.016599e-10"
        code = self._solve(tmp_path, monkeypatch, "--alpha", "0.5", "--lambda", "2",
                           "--rhs", "builtin:example2", "--NI", "7", "--exact", "0*t")
        assert code == 0
        out = capsys.readouterr()
        assert out.err == ""
        err = float(out.out.rsplit("=", 1)[1])
        _, u, exact, _ = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1).T
        assert not exact.any()
        assert err == pytest.approx(np.abs(u[1:]).max(), rel=1e-6)

    @pytest.mark.parametrize("argv", [
        ("--rhs", "builtin:example2"),
        ("--rhs", "builtin:example2", "--exact", "0*t"),
        ("--rhs=-u", "--init", "1"),
        ("--rhs=-u", "--init", "1", "--exact", "builtin:example2"),
    ], ids=" ".join)
    def test_mu_that_nothing_reads(self, tmp_path, monkeypatch, capsys, argv):
        # --mu used to be ignored without a word where no built-in reads it
        code = self._solve(tmp_path, monkeypatch, "--alpha", "0.5", *argv, "--mu", "5")
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: mu is read only by")
        assert not (tmp_path / "trace.csv").exists()

    def test_affine_parts_from_expression(self):
        from tfode.problems import problem_from_spec

        t = np.linspace(0.0, 1.0, 5)
        problem = problem_from_spec(0.5, 2.0, "exp(-lambda*t)*(u - t)", b=1.0)
        p, q = problem.affine
        np.testing.assert_allclose(p(t), -np.exp(-2.0 * t) * t, rtol=1e-15)
        np.testing.assert_allclose(q(t), np.exp(-2.0 * t), rtol=1e-15)
        for rhs in ("u*u", "u^1", "exp(u)"):
            assert problem_from_spec(0.5, 2.0, rhs, b=1.0).affine is None

    def test_builtin_override_keeps_affine(self, capsys):
        from tfode.problems import problem_from_spec

        problem = problem_from_spec(0.5, 2.0, "builtin:example2", b=1.0, init=(1.0,), kind="rl")
        assert problem.exact is None and problem.affine is not None
        t = np.linspace(0.1, 1.0, 4)
        p, q = problem.affine
        want = [problem.rhs(ti, 0.3) for ti in t]
        np.testing.assert_allclose(p(t) + q(t) * 0.3, want, rtol=1e-15)


class TestParserCache:
    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        from tfode import cli

        monkeypatch.chdir(tmp_path)
        cli._build_parser.cache_clear()
        argv = ["solve", "--alpha", "0.5", "--rhs=-u", "--init", "1", "--b", "1",
                "--steps", "10", "--NI", "2"]
        outputs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outputs.append((tmp_path / "trace.csv").read_text())
            # a usage error goes to the stderr of the moment, not of the build
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
                cli.main(["tables", "--which", "9"])
            assert exc.value.code == 2
            assert err.getvalue().startswith("usage: tfode tables")
            assert "argument --which: invalid choice: 9" in err.getvalue()
        assert outputs[0] == outputs[1]
        assert cli._build_parser.cache_info().misses == 1


class TestStartUp:
    def test_cli_import_leaves_scipy_signal_out(self, tmp_path):
        # numpy, scipy.fft and scipy.linalg take about 0.6 s to import, and
        # scipy.signal would add about 0.8 s more to every tfode command
        code = "import sys, tfode.cli; sys.exit('scipy.signal' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           cwd=tmp_path, env=cli_env())
        assert r.returncode == 0, r.stderr


class TestAffineStart:
    """Expression right-hand sides affine in u take the start's block solve;
    where p or q fails, or the solution leaves the finite range, the start
    steps as it does for any other right-hand side."""

    ARGV = ["solve", "--alpha", "0.5", "--init", "1", "--b", "1", "--steps", "40", "--NI", "4"]

    def _run(self, tmp_path, monkeypatch, capsys, rhs, out="trace.csv"):
        from tfode import cli

        monkeypatch.chdir(tmp_path)
        code = cli.main([*self.ARGV, f"--rhs={rhs}", "--out", out])
        return code, capsys.readouterr()

    def test_parts_that_need_scalars(self, tmp_path, monkeypatch, capsys):
        # gamma takes no array: every block is stepped, as for u^1
        code, _ = self._run(tmp_path, monkeypatch, capsys, "gamma(t+1)*u", "affine.csv")
        assert code == 0
        assert self._run(tmp_path, monkeypatch, capsys, "gamma(t+1)*u^1", "loop.csv")[0] == 0
        text = (tmp_path / "affine.csv").read_text()
        assert text == (tmp_path / "loop.csv").read_text()
        t, u = map(float, text.splitlines()[-1].split(","))
        assert t == 1.0 and u == pytest.approx(4.3081851725678124, rel=1e-13)

    def test_coefficient_singular_inside_the_start(self, tmp_path, monkeypatch, capsys):
        # q = 1/(t - 0.05) is infinite at a mesh point of the block that
        # blows up; that block is stepped and stops where the steps do
        code, out = self._run(tmp_path, monkeypatch, capsys, "u/(t-0.05)")
        assert code == 3
        prefix = ("solver blow-up: solution blew up in the start phase at step 117 "
                  "(t = 0.0457031): u = ")
        assert out.err.startswith(prefix)
        assert float(out.err[len(prefix):]) == pytest.approx(1184962698531.9304, rel=1e-12)

    def test_stiff_rhs_blows_up_at_the_second_step(self, tmp_path, monkeypatch, capsys):
        code, out = self._run(tmp_path, monkeypatch, capsys, "1e5*u")
        assert code == 3
        assert out.err.startswith(
            "solver blow-up: solution blew up in the start phase at step 2 (t = 0.00078125): u = "
        )

    def test_domain_error_at_a(self, tmp_path, monkeypatch, capsys):
        code, out = self._run(tmp_path, monkeypatch, capsys, "ln(t)*u")
        assert code == 4
        assert out.err == (
            "expression error: right-hand side 'ln(t)*u' at t = 0, u = 1: math domain error\n"
        )
        assert not (tmp_path / "trace.csv").exists()


class _Captured(Exception):
    """Raised in place of a solve, carrying the problem and configuration."""


def _capture(problem, config):
    raise _Captured(problem, config)


class TestOptionsReachTheirDestination:
    """Each flag of ``tfode solve`` and each key of a sweep config reaches
    the Problem or the SolverConfig that is solved."""

    SOLVE = ["solve", "--alpha", "0.9", "--lambda", "2", "--rhs", "builtin:relax",
             "--b", "1.1", "--steps", "22", "--NI", "2"]
    SWEEP = {"alphas": [0.9], "lambdas": [2], "taus": [0.1], "NI": 2, "T": 1.1}

    @pytest.mark.parametrize("argv, probe, want", [
        (["--N", "12"], lambda p, c: c.n_quad, 12),
        (["--NI", "3"], lambda p, c: c.n_interp, 3),
        (["--steps", "44"], lambda p, c: c.steps, 44),
        (["--split-t0", "0.1"], lambda p, c: c.split_t0, 0.1),
        (["--ntilde", "30"], lambda p, c: c.n_tilde, 30),
        (["--start-refine", "8"], lambda p, c: c.start_refine, 8),
        (["--corrector-iters", "2"], lambda p, c: c.corrector_iters, 2),
        (["--exact-start"], lambda p, c: c.exact_start, True),
        ([], lambda p, c: (c.n_quad, c.split_t0, c.start_refine, c.exact_start),
         (20, None, 64, False)),
        (["--alpha", "0.6"], lambda p, c: p.alpha, 0.6),
        (["--lambda", "3"], lambda p, c: p.lam, 3.0),
        (["--b", "2.2"], lambda p, c: p.b, 2.2),
        (["--a", "0.1"], lambda p, c: p.a, 0.1),
        (["--init", "2"], lambda p, c: p.init, (2.0,)),
        (["--kind", "rl"], lambda p, c: p.kind, "rl"),
        (["--mu", "3"], lambda p, c: p.rhs(0.0, 1.0), -3.0),
        (["--rhs=-2*u"], lambda p, c: p.rhs(0.0, 1.0), -2.0),
        (["--rhs=-u", "--exact", "exp(-t)"], lambda p, c: p.exact(0.5), math.exp(-0.5)),
        (["--exact", "exp(-t)"], lambda p, c: p.exact(0.5), math.exp(-0.5)),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_solve(self, monkeypatch, argv, probe, want):
        from tfode import cli

        monkeypatch.setattr(cli, "solve", _capture)
        with pytest.raises(_Captured) as exc:
            cli.main([*self.SOLVE, *argv])
        assert probe(*exc.value.args) == want

    @pytest.mark.parametrize("keys, flags, probe, want", [
        ({"N": 12}, [], lambda p, c: c.n_quad, 12),
        ({"NI": 3}, [], lambda p, c: c.n_interp, 3),
        ({"taus": [0.05]}, [], lambda p, c: c.steps, 22),
        ({"split_t0": 0.1}, [], lambda p, c: c.split_t0, 0.1),
        ({"ntilde": 30}, [], lambda p, c: c.n_tilde, 30),
        ({"start_refine": 8}, [], lambda p, c: c.start_refine, 8),
        ({"corrector_iters": 2}, [], lambda p, c: c.corrector_iters, 2),
        ({"exact_start": True}, [], lambda p, c: c.exact_start, True),
        ({}, ["--N", "12"], lambda p, c: c.n_quad, 12),
        ({"NI": 3}, ["--NI", "4"], lambda p, c: c.n_interp, 4),
        ({"start_refine": 8}, ["--start-refine", "16"], lambda p, c: c.start_refine, 16),
        ({}, [], lambda p, c: (c.n_quad, c.split_t0, c.start_refine, c.exact_start),
         (20, None, 64, False)),
        ({"alphas": [0.6]}, [], lambda p, c: p.alpha, 0.6),
        ({"lambdas": [3]}, [], lambda p, c: p.lam, 3.0),
        ({"T": 2.2}, [], lambda p, c: p.b, 2.2),
        ({"b": 2.2, "T": None}, [], lambda p, c: p.b, 2.2),
        # the override drops the exact solution: the first solve is the
        # reference one, at tau/4 over [0.1, 1.1]
        ({"a": 0.1}, [], lambda p, c: (p.a, c.steps), (0.1, 40)),
        ({"init": [2]}, [], lambda p, c: p.init, (2.0,)),
        ({"kind": "rl"}, [], lambda p, c: p.kind, "rl"),
        ({"mu": 3}, [], lambda p, c: p.rhs(0.0, 1.0), -3.0),
        ({"problem": None, "rhs": "-2*u", "exact": "exp(-t)"}, [],
         lambda p, c: (p.rhs(0.0, 1.0), p.exact(0.5)), (-2.0, math.exp(-0.5))),
        ({"problem": "example2", "exact": "exp(-t)"}, [], lambda p, c: p.exact(0.5),
         math.exp(-0.5)),
    ], ids=lambda v: json.dumps(v) if isinstance(v, (dict, list)) else None)
    def test_sweep(self, tmp_path, monkeypatch, keys, flags, probe, want):
        from tfode import cli, harness

        config = {"problem": "relax", **self.SWEEP, **keys}
        config = {key: value for key, value in config.items() if value is not None}
        (tmp_path / "sweep.json").write_text(json.dumps(config))
        monkeypatch.setattr(harness, "solve", _capture)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(_Captured) as exc:
            cli.main(["sweep", "--config", "sweep.json", *flags])
        assert probe(*exc.value.args) == want


class TestSweepConfigErrors:
    BASE = {"problem": "example2", "alphas": [0.5], "lambdas": [2.0], "taus": [0.1],
            "NI": 3, "T": 1.0}

    def _sweep(self, tmp_path, monkeypatch, config):
        from tfode import cli

        config = {key: value for key, value in config.items() if value is not None}
        (tmp_path / "sweep.json").write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        return cli.main(["sweep", "--config", "sweep.json"])

    @pytest.mark.parametrize("change, key", [
        # each of the first three raised an uncaught TypeError: exit 1 and a traceback
        ({"alphas": 0.5}, "alphas"),
        ({"NI": "3"}, "NI"),
        ({"problem": None, "rhs": "-u", "init": 1}, "init"),
        ({"taus": [0.1, "x"]}, "taus"),
        ({"N": 20.0}, "N"),
        ({"exact_start": 1}, "exact_start"),
        ({"split_t0": "0.1"}, "split_t0"),
        ({"problem": 2}, "problem"),
        ({"out": 3}, "out"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
    def test_bad_value_is_a_configuration_error(self, tmp_path, monkeypatch, capsys,
                                                change, key):
        assert self._sweep(tmp_path, monkeypatch, {**self.BASE, **change}) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: sweep config key {key!r}: expected"), err
        assert list(tmp_path.iterdir()) == [tmp_path / "sweep.json"]

    @pytest.mark.parametrize("change", [
        {"rhs": "-u"}, {"b": 1.0}, {"problem": None, "NI": None},
    ], ids=json.dumps)
    def test_keys_that_clash_or_are_missing(self, tmp_path, monkeypatch, capsys, change):
        # problem and rhs, or T and b, name one setting twice
        assert self._sweep(tmp_path, monkeypatch, {**self.BASE, **change}) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("change", [
        {"mu": 5}, {"mu": 5, "exact": "0*t"}, {"problem": None, "rhs": "-u", "mu": 5},
    ], ids=json.dumps)
    def test_mu_that_nothing_reads(self, tmp_path, monkeypatch, capsys, change):
        # "mu" used to be ignored without a word where no built-in reads it
        assert self._sweep(tmp_path, monkeypatch, {**self.BASE, **change}) == 2
        assert capsys.readouterr().err.startswith("configuration error: mu is read only by")
        assert list(tmp_path.iterdir()) == [tmp_path / "sweep.json"]

    def test_builtin_interval_start_is_overridden_alike(self, tmp_path, monkeypatch, capsys):
        # "problem": NAME used to reject an a != 0, while "rhs": "builtin:NAME"
        # and tfode solve replaced the built-in's a with a note
        base = {"alphas": [0.9], "lambdas": [1.0], "taus": [0.25, 0.125], "NI": 2,
                "a": 0.5, "b": 1.5}
        outputs = []
        for spelling in ({"problem": "relax"}, {"rhs": "builtin:relax"}):
            assert self._sweep(tmp_path, monkeypatch, {**base, **spelling}) == 0
            report = (tmp_path / "report.csv").read_text().splitlines()
            outputs.append((capsys.readouterr(), [row.rsplit(",", 1)[0] for row in report]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].err == (
            "note: overriding a of builtin 'relax'; its exact solution is discarded\n"
        )
        assert len(outputs[0][1]) == 3
