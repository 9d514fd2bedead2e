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
