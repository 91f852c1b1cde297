"""Stationary compressible two-phase mixture flow on a 1-D interval.

A small numerical library built around a singular logarithmic mixing
potential and its C2 regularization: closed-form potential evaluation, a
cell-centered finite-difference mesh with tridiagonal elliptic solves, a
damped fixed-point solver (one stage by default, or a load-factor and
regularization continuation ladder), diagnostics for the
energies/constraints/limit trends of the model, and a deterministic
file-driven command line.
"""

from .mesh import Field, Grid
from .potential import (
    PotentialConstants,
    PotentialParams,
    F_delta,
    dF_delta,
    f2_delta,
    f2_delta_prime,
    f2_delta_prime2,
    f2_singular,
    figure1_table,
    pressure,
)
from .solver import (
    ConvergenceLog,
    FluidParams,
    MmsSources,
    ProblemSpec,
    SolveControls,
    State,
    SweepReport,
    constant_state,
    continuation_solve,
    delta_sweep,
    eps_sweep,
    picard_step,
    solve_c,
    solve_continuity,
    solve_flow_coupled,
    solve_momentum,
    solve_mu,
)
from .diagnostics import DiagnosticsReport, compute_report

__version__ = "0.1.0"
