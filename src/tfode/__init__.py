"""tfode: tempered fractional ODE solver and operator toolkit.

The package provides

* a Jacobi predictor-corrector time stepper for single-term tempered
  fractional initial value problems (Caputo or Riemann-Liouville), with
  adjustable convergence order and per-step cost independent of history
  (:func:`solve`, :func:`solve_split`),
* numerical tempered fractional calculus operators and their Laplace
  symbols (:mod:`tfode.operators`),
* Gauss-Lobatto rules for Jacobi weights (:mod:`tfode.quadrature`) and the
  special functions they lean on (:mod:`tfode.specfun`),
* a convergence-study harness with canned benchmark tables
  (:mod:`tfode.harness`) and a CLI (``tfode solve | sweep | tables``).
"""

from .harness import (
    ConvergenceReport,
    Sweep,
    estimate_order,
    run_sweep,
    table_sweep,
)
from .operators import (
    caputo_derivative,
    laplace_symbol_caputo,
    laplace_symbol_integral,
    rl_derivative,
    tempered_integral,
    tempered_power_rule,
    variant_rl_derivative,
)
from .problems import (
    builtin_problem,
    exact_example2,
    exact_example3,
    example2,
    example3,
)
from .quadrature import GaussLobattoRule, gauss_lobatto, jacobi_recurrence
from .solver import (
    BlowUpError,
    NegativeOrderDataError,
    Problem,
    SolutionTrace,
    SolverConfig,
    SolverError,
    solve,
    solve_split,
    volterra_forcing,
)
from .specfun import gamma, mittag_leffler, rgamma

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConvergenceReport",
    "GaussLobattoRule",
    "NegativeOrderDataError",
    "Problem",
    "SolutionTrace",
    "SolverConfig",
    "SolverError",
    "Sweep",
    "builtin_problem",
    "caputo_derivative",
    "estimate_order",
    "exact_example2",
    "exact_example3",
    "example2",
    "example3",
    "gamma",
    "gauss_lobatto",
    "jacobi_recurrence",
    "laplace_symbol_caputo",
    "laplace_symbol_integral",
    "mittag_leffler",
    "rgamma",
    "rl_derivative",
    "run_sweep",
    "solve",
    "solve_split",
    "table_sweep",
    "tempered_integral",
    "tempered_power_rule",
    "variant_rl_derivative",
    "volterra_forcing",
]
