from dataclasses import fields, replace

import numpy as np
import pytest

from chns1d import cli, diagnostics, mesh, potential
from chns1d.diagnostics import (
    DiagnosticsReport,
    bound_violation,
    compute_report,
    constraint_check,
    continuity_residual,
    energy_inequality,
    mean_projection_residuals,
    norms,
    total_energy,
)
from chns1d.mesh import Grid
from chns1d.solver import ProblemSpec, State, constant_state, continuation_solve, lagged, solve_c


def synthetic_state(grid: Grid, rho, u, mu, c) -> State:
    return State(grid.field(rho), grid.field(u), grid.field(mu), grid.field(c))


class TestTotalEnergy:
    def test_constant_state_value(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.3)
        state = constant_state(spec, 1e-2)
        expected = spec.grid.length_L * spec.rho0 * potential.free_energy_delta(
            spec.rho0, spec.c0, fluid, pot
        )
        assert total_energy(state, spec) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_contributes_nothing(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.0)
        x = spec.grid.cell_centers()
        state = synthetic_state(spec.grid, 0.0, 0.0, 0.0, 0.2 * np.cos(np.pi * x))
        dc = mesh.gradient(state.c, "neumann").values
        grad_part = mesh.integrate(spec.grid.field(0.5 * dc * dc))
        assert total_energy(state, spec) == pytest.approx(grad_part, rel=1e-12)

    def test_kinetic_quadratic_scaling(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.0)
        x = spec.grid.cell_centers()
        u = np.sin(np.pi * x)
        s1 = synthetic_state(spec.grid, 1.0, u, 0.0, 0.0)
        s2 = synthetic_state(spec.grid, 1.0, 2.0 * u, 0.0, 0.0)
        kinetic = mesh.integrate(spec.grid.field(0.5 * u * u))
        assert total_energy(s2, spec) - total_energy(s1, spec) == pytest.approx(
            3.0 * kinetic, rel=1e-12
        )


class TestEnergyInequality:
    def test_constant_state_both_zero(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.3)
        lhs, rhs, slack = energy_inequality(constant_state(spec, 1e-2), spec)
        assert lhs == 0.0 and rhs == 0.0 and slack == 0.0

    def test_rest_flow_constant_mu_gives_zero_lhs(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.0)
        x = spec.grid.cell_centers()
        state = synthetic_state(spec.grid, 1.0 + 0.3 * np.cos(np.pi * x), 0.0, 2.5, 0.1)
        lhs, _, _ = energy_inequality(state, spec)
        assert lhs == 0.0

    def test_lhs_invariant_under_mu_shift(self, forced_spec, controls):
        state, _ = continuation_solve(forced_spec, controls)
        lhs0, _, _ = energy_inequality(state, forced_spec)
        shifted = State(
            state.rho, state.u, forced_spec.grid.field(state.mu.values + 3.21), state.c
        )
        lhs1, _, _ = energy_inequality(shifted, forced_spec)
        assert lhs1 == pytest.approx(lhs0, rel=1e-12)

    def test_converged_forced_slack_above_floor(self, forced_spec, controls):
        state, _ = continuation_solve(forced_spec, controls)
        _, _, slack = energy_inequality(state, forced_spec)
        assert slack >= -diagnostics.EI_SLACK_CONSTANT * forced_spec.grid.spacing_h**2


class TestConstraints:
    def test_constant_state_exact(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.3)
        err1, err2 = constraint_check(constant_state(spec, 1e-2), spec, eps=1e-2)
        assert err1 <= 1e-12 and err2 <= 1e-12

    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_solve_c_meets_the_checked_target(self, forced_spec, eps):
        """At a random non-converged state, solve_c imposes the target constraint_check measures."""
        g = forced_spec.grid
        rng = np.random.default_rng(7)
        state = synthetic_state(
            g, 1.0 + 0.5 * rng.random(g.n_cells), 0.1 * rng.standard_normal(g.n_cells),
            rng.standard_normal(g.n_cells), 0.3 + 0.2 * rng.standard_normal(g.n_cells),
        )
        q = state.rho.values, state.u.values, state.mu.values, state.c.values
        c, _ = solve_c(*q, lagged(q[0], q[3], forced_spec), eps, forced_spec)
        _, err2 = constraint_check(State(state.rho, state.u, state.mu, g.field(c)), forced_spec,
                                   eps=eps)
        assert err2 <= 1e-13

    def test_converged_state(self, forced_spec, controls):
        state, log = continuation_solve(forced_spec, controls)
        err1, err2 = constraint_check(state, forced_spec, eps=log.final_eps)
        assert err1 <= 1e-12 * forced_spec.m1
        assert err2 <= controls.tol_rel * max(1.0, abs(forced_spec.m2)) + 1e-12


class TestBoundViolation:
    def test_inside_bounds(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.3)
        assert bound_violation(constant_state(spec, 1e-2), 1e-6) == 0.0

    def test_whole_domain_violates(self, pot, fluid):
        g = Grid(64, 1.0)
        state = synthetic_state(g, 1.0, 0.0, 0.0, 1.5)
        assert bound_violation(state, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_vacuum_region_does_not_count(self, pot, fluid):
        g = Grid(64, 1.0)
        rho = np.zeros(64)
        rho[: 32] = 1.0
        c = np.full(64, 1.5)
        state = synthetic_state(g, rho, 0.0, 0.0, c)
        assert bound_violation(state, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_threshold(self, pot, fluid):
        g = Grid(64, 1.0)
        x = g.cell_centers()
        state = synthetic_state(g, x, 0.0, 0.0, 1.2)
        taus = (0.1, 0.3, 0.6, 0.9)
        vals = [bound_violation(state, t) for t in taus]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_threshold(self, pot, fluid):
        g = Grid(64, 1.0)
        state = synthetic_state(g, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            bound_violation(state, 0.0)


class TestContinuityResidual:
    def test_rest_state(self, pot, fluid):
        g = Grid(64, 1.0)
        x = g.cell_centers()
        state = synthetic_state(g, 1.0 + 0.5 * np.cos(np.pi * x), 0.0, 0.0, 0.0)
        assert continuity_residual(state) == 0.0

    def test_constant_mass_flux(self, pot, fluid):
        g = Grid(128, 1.0)
        state = synthetic_state(g, 0.7, 1.3, 0.0, 0.0)
        assert continuity_residual(state) <= 1e-10


LP_KEYS = ("lp_6over5", "lp_3over2", "lp_gamma", "lp_2", "lp_s")


class TestNorms:
    def test_constant_density(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.3)
        nm = norms(constant_state(spec, 1e-2), spec)
        for key in LP_KEYS:
            assert nm[key] == pytest.approx(spec.rho0, rel=1e-12)

    def test_homogeneity(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.0)
        x = spec.grid.cell_centers()
        rho = 1.0 + 0.4 * np.cos(np.pi * x)
        s1 = synthetic_state(spec.grid, rho, 0.0, 0.0, 0.0)
        s2 = synthetic_state(spec.grid, 3.0 * rho, 0.0, 0.0, 0.0)
        n1, n2 = norms(s1, spec), norms(s2, spec)
        for key in LP_KEYS:
            assert n2[key] == pytest.approx(3.0 * n1[key], rel=1e-12)

    def test_exponent_set(self, pot, fluid):
        grid = Grid(64, 1.0)
        h, x = grid.spacing_h, grid.cell_centers()
        rho = 1.0 + 0.6 * np.cos(np.pi * x)
        state = synthetic_state(grid, rho, 0.0, 0.0, 0.0)
        # at gamma = 2 the columns lp_gamma and lp_2, and lp_s and lp_3over2, share an exponent
        for gam in (fluid.gamma, 2.5):
            spec = ProblemSpec(grid, pot, replace(fluid, gamma=gam), m1=1.0, m2=0.0)
            exps = dict(zip(LP_KEYS, (6 / 5, 3 / 2, gam, 2.0, 3.0 - 3.0 / gam)))
            nm = norms(state, spec)
            assert list(nm) == [*LP_KEYS, "grad_u", "grad_mu", "grad_c"]
            for key, p in exps.items():
                assert nm[key] == pytest.approx((h * np.sum(rho**p)) ** (1.0 / p), rel=1e-12)


class TestReport:
    def test_fields_finite_and_residuals_tiny_on_constant_state(self, pot, fluid):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=1.0, m2=0.3)
        rep = compute_report(constant_state(spec, 1e-2), spec, eps=1e-2)
        for f in fields(rep):
            assert np.isfinite(getattr(rep, f.name)), f.name
        assert rep.continuity_residual <= 1e-12
        assert max(rep.proj_mu, rep.proj_c) <= 1e-12
        assert rep.bound_violation == 0.0

    def test_fields_are_the_columns_in_order(self):
        assert [f.name for f in fields(DiagnosticsReport)] == [
            "total_energy", "ei_lhs", "ei_rhs", "ei_slack", "mass1", "mass2",
            "art_pressure_norm", "lp_6over5", "lp_3over2", "lp_gamma", "lp_2", "lp_s",
            "grad_u", "grad_mu", "grad_c", "bound_violation", "continuity_residual",
            "proj_mu", "proj_c",
        ]

    def test_fields_match_the_report_functions(self, forced_spec, controls):
        state, log = continuation_solve(forced_spec, controls)
        eps = log.final_eps
        rep = compute_report(state, forced_spec, eps=eps)
        lhs, rhs, slack = energy_inequality(state, forced_spec)
        assert (rep.ei_lhs, rep.ei_rhs, rep.ei_slack) == (lhs, rhs, slack)
        assert rep.ei_slack == rep.ei_rhs - rep.ei_lhs
        assert (rep.proj_mu, rep.proj_c) == mean_projection_residuals(state, forced_spec, eps)
        for key, value in norms(state, forced_spec).items():
            assert getattr(rep, key) == value, key

    def test_serialization_roundtrip(self, forced_spec, controls):
        state, log = continuation_solve(forced_spec, controls)
        rep = compute_report(state, forced_spec, eps=log.final_eps)
        lines = cli._kv_text(rep).splitlines()
        names = [f.name for f in fields(rep)]
        assert [ln.split(" = ")[0] for ln in lines] == names
        parsed = {ln.split(" = ")[0]: float(ln.split(" = ")[1]) for ln in lines}
        assert parsed["mass1"] == pytest.approx(rep.mass1, rel=1e-12)
        # every field parses back to its value rounded to the printed 13 digits
        assert parsed == {name: float(f"{getattr(rep, name):.12e}") for name in names}
