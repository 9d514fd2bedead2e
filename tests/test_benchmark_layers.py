"""The benchmark's tracer (``benchmarks/layers.py``) wraps tfode's functions
by name, so renaming one away breaks the traced benchmark runs; this test
catches that in the test suite."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from tfode import cli, expr, harness, problems, quadrature, solver

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_split_solve_records_the_solver_layers():
    layers = _load_layers()
    # the modules already imported: importing tfode afresh would give later
    # tests exception classes other than the ones they import
    mods = SimpleNamespace(
        solver=solver, quadrature=quadrature, problems=problems, expr=expr,
        harness=harness, cli=cli,
    )
    solve, step = solver.solve, solver._Stepper.step
    tracer = layers.Tracer()
    with layers.traced(mods, tracer):
        problem = problems.example3(0.5, 5.0)
        solver.solve(problem, solver.SolverConfig(steps=22, n_interp=2, split_t0=0.1))
    names = {span[0] for span in tracer.spans}
    want = {"solver.solve", "solver.start", "solver.step", "solver.history",
            "quadrature.rule", "problems.rhs"}
    assert want <= names
    assert solver.solve is solve and solver._Stepper.step is step


def test_traced_plain_solve_records_one_step_span_per_jpc_step():
    # solver.steps counts solver.step spans: one per row stepped and one
    # per span of far steps solved at once.  This solve ends before the switch at
    # step 201, so every step is a row: at NI = 7 it starts through u_6 on
    # a mesh refined 64 times (385 points), then takes one step to each of
    # u_7 .. u_200
    layers = _load_layers()
    mods = SimpleNamespace(
        solver=solver, quadrature=quadrature, problems=problems, expr=expr,
        harness=harness, cli=cli,
    )
    tracer = layers.Tracer()
    with layers.traced(mods, tracer):
        problem = problems.example2(0.5, 2.0)
        solver.solve(problem, solver.SolverConfig(steps=200, n_interp=7))
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["solver.steps"] == 194
    assert metrics["solver.start_mesh_points"] == 385


def test_traced_solve_past_the_switch_records_one_step_span_per_solved_block():
    # the 194 rows to u_200 as above, then u_201 .. u_1280 in spans of p
    # and q from the switch on, 256 steps at NI = 7, each solved at once
    # (example2's q is one value) and handed back by one step call: 1080
    # steps in 5 spans, the last of 56
    layers = _load_layers()
    mods = SimpleNamespace(
        solver=solver, quadrature=quadrature, problems=problems, expr=expr,
        harness=harness, cli=cli,
    )
    tracer = layers.Tracer()
    with layers.traced(mods, tracer):
        problem = problems.example2(0.5, 2.0)
        solver.solve(problem, solver.SolverConfig(steps=1280, n_interp=7))
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["solver.steps"] == 194 + 5


def test_traced_table4_sweep_evaluates_mittag_leffler_once_per_column():
    # each column's exact solution is evaluated on its finest grid, inside
    # SolutionTrace.errors (the harness.errors span): three columns, three
    # Mittag-Leffler calls, where per-row evaluation made twelve
    layers = _load_layers()
    mods = SimpleNamespace(
        solver=solver, quadrature=quadrature, problems=problems, expr=expr,
        harness=harness, cli=cli,
    )
    tracer = layers.Tracer()
    with layers.traced(mods, tracer):
        harness.run_sweep(harness.TABLES[4])
    spans = tracer.spans
    ml = [span for span in spans if span[0] == "specfun.ml"]
    assert len(ml) == 3
    assert all(spans[span[3]][0] == "harness.errors" for span in ml)
