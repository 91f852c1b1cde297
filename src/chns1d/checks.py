"""Built-in verification suites behind the ``check`` subcommand.

Four suites cover the library bottom-up: closed-form potential properties,
discrete-calculus accuracy of the mesh, exactness of the constant state under
the fixed-point solver, and constraint bookkeeping on a forced solve.  Each
check returns a pass/fail row with a numeric detail, so regressions point at
the failing quantity directly; a solver suite whose solve raises one of
``solver.SOLVER_ERRORS`` returns a single FAIL row naming the error.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diagnostics, mesh, potential, solver
from .config import RunConfig
from .mesh import Grid
from .record import Record

__all__ = ["CheckResult", "run_all_checks"]


class CheckResult(Record):
    """One row of a check suite: its name, pass/fail, and the numeric detail."""

    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _rel_gap(left: float, right: float) -> float:
    return abs(left - right) / max(1.0, abs(left), abs(right))


def _observed_orders(errors: list[float]) -> list[float]:
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


# ---------------------------------------------------------------------------
# Potential suite
# ---------------------------------------------------------------------------

def _potential_checks(p: potential.PotentialParams) -> list[CheckResult]:
    out = []

    worst = 0.0
    for d in potential.DELTA_TEST_GRID:
        pd = potential.PotentialParams(p.theta0, p.thetac, d)
        for _, _, left, right in potential.junction_gaps(pd):
            worst = max(worst, _rel_gap(left, right))
    out.append(_result("potential.c2_junctions", worst <= 1.0e-9, f"max rel gap {worst:.2e}"))

    grid = np.linspace(-4.0, 4.0, 4001)
    sym = 0.0
    for d in potential.DELTA_TEST_GRID:
        pd = potential.PotentialParams(p.theta0, p.thetac, d)
        sym = max(
            sym,
            float(np.max(np.abs(potential.f2_delta(grid, pd) - potential.f2_delta(-grid, pd)))),
            float(np.max(np.abs(potential.f2_delta_prime(grid, pd) + potential.f2_delta_prime(-grid, pd)))),
        )
    out.append(_result("potential.symmetry", sym == 0.0, f"max asymmetry {sym:.2e}"))

    cons = potential.constants(p)
    # The sign/convexity structure is a small-width property, so these two
    # checks run on the test widths that structure_holds admits, and fail if
    # there is none.
    admitted = [
        d for d in potential.DELTA_TEST_GRID
        if potential.structure_holds(potential.PotentialParams(p.theta0, p.thetac, d))
    ]
    ok_sign = bool(admitted)
    convex_min = np.inf
    outer = grid[np.abs(grid) > cons.c_star]
    for d in admitted:
        pd = potential.PotentialParams(p.theta0, p.thetac, d)
        ok_sign &= bool(np.all(potential.dF_delta(outer, pd) * outer > 0.0))
        band = np.linspace(cons.spinodal, 1.0 + d, 1001)
        convex_min = min(
            convex_min, float(np.min(potential.f2_delta_prime2(band, pd) - p.thetac))
        )
    if admitted:
        widths = "widths " + ", ".join(f"{d:g}" for d in admitted)
        sign_detail = f"c_star {cons.c_star:.6f}, {widths}"
        convex_detail = f"min(f2'' - thetac) {convex_min:.2e}, {widths}"
    else:
        sign_detail = convex_detail = (
            f"no width of {potential.DELTA_TEST_GRID} keeps the structure"
        )
    out.append(_result("potential.sign_beyond_cstar", ok_sign, sign_detail))
    bound = cons.bound_M_estimate
    out.append(
        _result("potential.bounded_inside_cstar", bound < 10.0 * p.thetac, f"sup |dF| {bound:.4f}")
    )
    out.append(
        _result(
            "potential.convex_beyond_spinodal",
            bool(admitted) and convex_min >= -1.0e-12,
            convex_detail,
        )
    )

    inner = np.linspace(-0.8, 0.8, 1601)
    pd = potential.PotentialParams(p.theta0, p.thetac, 0.1)
    agree = float(
        np.max(np.abs(potential.f2_delta(inner, pd) - potential.f2_singular(inner, pd)))
    )
    out.append(_result("potential.exact_on_compacta", agree == 0.0, f"max gap {agree:.2e}"))
    return out


# ---------------------------------------------------------------------------
# Mesh suite
# ---------------------------------------------------------------------------

def _mesh_checks() -> list[CheckResult]:
    out = []
    L = 1.0

    errs = []
    for n in (32, 64, 128):
        g = Grid(n, L)
        x = g.cell_centers()
        f = g.field(np.cos(np.pi * x / L))
        exact = -np.pi / L * np.sin(np.pi * x / L)
        errs.append(float(np.max(np.abs(mesh.gradient(f, "neumann").values - exact))))
    orders = _observed_orders(errs)
    out.append(
        _result("mesh.gradient_order", min(orders) >= 1.9, f"orders {['%.2f' % o for o in orders]}")
    )

    errs = []
    for n in (32, 64, 128):
        g = Grid(n, L)
        x = g.cell_centers()
        got = mesh.laplacian_solve(-((np.pi / L) ** 2) * np.cos(np.pi * x / L), g)[0]
        exact = np.cos(np.pi * x / L)
        exact = exact - exact.mean()
        errs.append(float(np.max(np.abs(got - exact))))
    orders = _observed_orders(errs)
    out.append(
        _result(
            "mesh.neumann_solve_order", min(orders) >= 1.9, f"orders {['%.2f' % o for o in orders]}"
        )
    )

    g = Grid(128, L)
    x, h = g.cell_centers(), g.spacing_h
    f = g.field(np.sin(np.pi * x / L) * (1.0 + 0.3 * x))
    w = g.field(np.cos(np.pi * x / L) + 0.1 * x * x)
    sbp = mesh.integral_of(w.values * mesh.gradient(f, "dirichlet0").values, h)
    sbp += mesh.integral_of(f.values * mesh.gradient(w, "neumann").values, h)
    out.append(_result("mesh.summation_by_parts", abs(sbp) <= 1.0e-12, f"defect {sbp:.2e}"))

    cons = mesh.integral_of(mesh.gradient(f, "dirichlet0").values, h)
    out.append(_result("mesh.flux_conservation", abs(cons) <= 1.0e-12, f"defect {cons:.2e}"))

    lin = Grid(100, 1.0)
    val = mesh.integral_of(lin.cell_centers(), lin.spacing_h)
    out.append(_result("mesh.midpoint_exact_linear", abs(val - 0.5) <= 1.0e-14, f"{val:.16f}"))
    return out


# ---------------------------------------------------------------------------
# Solver suites
# ---------------------------------------------------------------------------

# eps of the fixed-point probe.  The constant state is exact at every eps; at
# 1e-3 one Picard step from it moves no field by more than 1.6e-16 on the CI
# configs, as the pair-sum block and the continuity solve, both in running
# sums of the density, return it to the last bit.
FIXED_POINT_EPS = 1.0e-3


def _constant_state_checks(cfg: RunConfig) -> list[CheckResult]:
    out = []
    spec = replace(cfg.spec, g1=cfg.spec.grid.zeros(), g2=cfg.spec.grid.zeros())
    state0 = solver.constant_state(spec, FIXED_POINT_EPS)
    _, res = solver.picard_step(state0, FIXED_POINT_EPS, spec, 1.0)
    out.append(
        _result(
            "solver.constant_fixed_point",
            res <= 1.0e-12,
            f"residual {res:.2e} at eps {FIXED_POINT_EPS:g}",
        )
    )

    state, _ = solver.continuation_solve(spec, cfg.controls)
    mu0 = potential.dF_delta(spec.c0, spec.potential)
    dev = max(
        float(np.max(np.abs(state.rho.values - spec.rho0))) / max(1.0, abs(spec.rho0)),
        float(np.max(np.abs(state.u.values))),
        float(np.max(np.abs(state.mu.values - mu0))) / max(1.0, abs(mu0)),
        float(np.max(np.abs(state.c.values - spec.c0))) / max(1.0, abs(spec.c0)),
    )
    out.append(_result("solver.zero_forcing_constant", dev <= 1.0e-8, f"max deviation {dev:.2e}"))
    return out


def _constraint_checks(cfg: RunConfig) -> list[CheckResult]:
    out = []
    spec = cfg.spec
    if np.all(spec.g1.values == 0.0) and np.all(spec.g2.values == 0.0):
        x = spec.grid.cell_centers()
        spec = replace(spec, g1=spec.grid.field(0.05 * np.sin(np.pi * x / spec.grid.length_L)))
    state, log = solver.continuation_solve(spec, cfg.controls)

    mass_err = log.max_mass_error() / spec.m1
    out.append(_result("solver.mass_every_iterate", mass_err <= 1.0e-12, f"rel err {mass_err:.2e}"))

    err1, err2 = diagnostics.constraint_check(state, spec, eps=log.final_eps)
    tol2 = cfg.controls.tol_rel * max(1.0, abs(spec.m2)) + 1.0e-12
    out.append(_result("solver.relative_mass_constraint", err2 <= tol2, f"err {err2:.2e}"))

    out.append(
        _result(
            "solver.density_nonnegative",
            bool(np.all(state.rho.values >= 0.0)),
            f"min rho {float(np.min(state.rho.values)):.3e}",
        )
    )

    lhs, rhs, slack = diagnostics.energy_inequality(state, spec)
    floor = -diagnostics.EI_SLACK_CONSTANT * spec.grid.spacing_h**2
    out.append(
        _result("solver.energy_inequality", slack >= floor, f"slack {slack:.3e} floor {floor:.3e}")
    )
    return out


def _solver_suite(suite, name: str, cfg: RunConfig) -> list[CheckResult]:
    """Run a solver suite; a solver error becomes one FAIL row named ``name``."""
    try:
        return suite(cfg)
    except solver.SOLVER_ERRORS as err:
        return [_result(name, False, f"solver raised {type(err).__name__}: {err}")]


def run_all_checks(cfg: RunConfig) -> list[CheckResult]:
    """Execute every suite in dependency order; never raises on check failure."""
    results = _potential_checks(cfg.spec.potential)
    results += _mesh_checks()
    results += _solver_suite(_constant_state_checks, "solver.constant_state", cfg)
    results += _solver_suite(_constraint_checks, "solver.forced_solve", cfg)
    return results
