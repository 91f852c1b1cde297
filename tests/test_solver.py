import numpy as np
import pytest

from _mms import build_manufactured, observed_orders
from chns1d import mesh, solver
from chns1d.config import parse_config_text
from chns1d.mesh import Grid
from chns1d.potential import dF_delta
from chns1d.solver import (
    FluidParams,
    ProblemSpec,
    SolveControls,
    State,
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
from conftest import make_forced_spec


def zero_forcing_spec(n: int, pot, fluid) -> ProblemSpec:
    return ProblemSpec(Grid(n, 1.0), pot, fluid, m1=1.0, m2=0.3)


class TestParamValidation:
    def test_fluid_invalid(self):
        with pytest.raises(ValueError):
            FluidParams(lambda1=0.0)
        with pytest.raises(ValueError):
            FluidParams(lambda1=1.0, lambda2=-1.0)
        with pytest.raises(ValueError):
            FluidParams(gamma=1.0)
        with pytest.raises(ValueError):
            FluidParams(art_exponent=1)

    def test_fluid_gamma_warning(self):
        with pytest.warns(UserWarning):
            FluidParams(gamma=1.4)

    def test_spec_invalid_masses(self, pot, fluid):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            ProblemSpec(g, pot, fluid, m1=1.0, m2=1.0)
        with pytest.raises(ValueError):
            ProblemSpec(g, pot, fluid, m1=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(g, pot, fluid, m1=1.0, m2=0.0, eps=1.0)

    def test_controls_invalid(self):
        with pytest.raises(ValueError):
            SolveControls(sigma_schedule=(0.5, 0.25, 1.0))
        with pytest.raises(ValueError):
            SolveControls(sigma_schedule=(0.5, 0.75))
        with pytest.raises(ValueError):
            SolveControls(eps_schedule=(1e-2, 1e-1))
        with pytest.raises(ValueError):
            SolveControls(damping=0.0)

    def test_state_rejects_negative_density(self, pot, fluid):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            State(g.field(-1.0), g.zeros(), g.zeros(), g.zeros())


class TestContinuity:
    def test_rest_state_exact(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        rho = solve_continuity(spec.grid.zeros(), 1e-2, spec)
        assert np.max(np.abs(rho.values - spec.rho0)) <= 1e-13

    def test_mass_exact_for_any_velocity(self, pot, fluid):
        spec = zero_forcing_spec(128, pot, fluid)
        x = spec.grid.cell_centers()
        u = spec.grid.field(0.3 * np.sin(2 * np.pi * x) + 0.1 * np.sin(5 * np.pi * x))
        for eps in (0.5, 1e-1, 1e-2, 1e-3):
            rho = solve_continuity(u, eps, spec)
            assert abs(mesh.integrate(rho) - spec.m1) <= 1e-12 * spec.m1

    def test_positivity_under_strong_advection(self, pot, fluid):
        spec = zero_forcing_spec(128, pot, fluid)
        x = spec.grid.cell_centers()
        u = spec.grid.field(2.0 * np.sin(np.pi * x) * np.cos(3 * np.pi * x))
        rho = solve_continuity(u, 1e-2, spec)
        assert np.min(rho.values) >= 0.0


class TestSubSolveTrivialCases:
    def test_momentum_constant_state_is_rest(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        u = solve_momentum(state, 1.0, 1e-2, spec)
        assert np.max(np.abs(u.values)) <= 1e-13

    def test_mu_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        mu, proj = solve_mu(state, 1.0, 1e-2, spec)
        assert proj <= 1e-14
        assert np.max(np.abs(mu.values - dF_delta(spec.c0, pot))) <= 1e-12

    def test_c_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        c, proj = solve_c(state, 1.0, 1e-2, spec)
        assert proj <= 1e-14
        assert np.max(np.abs(c.values - spec.c0)) <= 1e-12

    def test_flow_coupled_keeps_rest_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        rho, u = solve_flow_coupled(state, 1.0, 1e-2, spec)
        assert np.max(np.abs(u.values)) <= 1e-13
        assert np.max(np.abs(rho.values - spec.rho0)) <= 1e-10


class TestFlowCoupledBlock:
    @pytest.mark.parametrize("n", [10, 64])
    def test_solves_linearized_equations(self, pot, fluid, n):
        """Away from rest the returned pair satisfies both equations of the docstring."""
        sigma, eps = 0.75, 0.1
        spec = make_forced_spec(n, pot, fluid)
        g, h = spec.grid, spec.grid.spacing_h
        rng = np.random.default_rng(n)
        rho_t = 1.0 + 0.3 * rng.random(n)
        u_t = 0.05 * rng.standard_normal(n)
        mu_t, c_t = rng.standard_normal(n), 0.3 * rng.random(n)
        state = State(g.field(rho_t), g.field(u_t), g.field(mu_t), g.field(c_t))
        rho, u = solve_flow_coupled(state, sigma, eps, spec)
        assert np.min(rho.values) > 0.0

        rho_f = np.zeros(n + 1)
        rho_f[1:-1] = 0.5 * (rho_t[:-1] + rho_t[1:])
        correction = rho_f * (solver._face_velocities(u.values) - solver._face_velocities(u_t))
        terms = [
            eps**2 * rho.values,
            np.diff(solver._upwind_flux(rho.values, u_t)) / h,
            np.diff(correction) / h,
            -eps**4 * mesh.laplacian_apply(rho, "neumann").values,
            -np.full(n, eps**2 * spec.rho0),
        ]
        assert np.max(np.abs(sum(terms))) <= 1e-10 * max(np.max(np.abs(t)) for t in terms)

        k, gam = fluid.art_exponent, fluid.gamma
        pi_slope = (
            k * rho_t ** (k - 1) / np.log(1.0 / pot.delta)
            + gam * (gam - 1.0) * rho_t ** (gam - 1.0)
            + fluid.H
        )
        terms = [
            fluid.visc * mesh.laplacian_apply(u, "dirichlet0").values,
            -sigma * mesh.gradient(g.field(pi_slope * (rho.values - rho_t)), "neumann").values,
            -sigma * solver._momentum_forcing(state, eps, spec),
        ]
        assert np.max(np.abs(sum(terms))) <= 1e-10 * max(np.max(np.abs(t)) for t in terms)


class TestPicardStep:
    def test_constant_state_is_fixed_point(self, pot, fluid, controls):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        _, res = picard_step(state, 1.0, 1e-2, spec, controls.damping)
        assert res <= 1e-12

    def test_full_damping_equals_composition(self, forced_spec):
        state = constant_state(forced_spec, 1e-1)
        new_full, _ = picard_step(state, 0.5, 1e-1, forced_spec, 1.0)

        # mu and c see the block density; the returned density is the
        # continuity solve for the (undamped) velocity
        rho_star, u_star = solve_flow_coupled(state, 0.5, 1e-1, forced_spec)
        mu_star, _ = solve_mu(
            State(rho_star, u_star, state.mu, state.c), 0.5, 1e-1, forced_spec
        )
        c_star, _ = solve_c(
            State(rho_star, u_star, mu_star, state.c), 0.5, 1e-1, forced_spec
        )
        assert np.array_equal(new_full.u.values, u_star.values)
        assert np.array_equal(new_full.mu.values, mu_star.values)
        assert np.array_equal(new_full.c.values, c_star.values)
        assert np.array_equal(
            new_full.rho.values, solve_continuity(u_star, 1e-1, forced_spec).values
        )

        new_half, _ = picard_step(state, 0.5, 1e-1, forced_spec, 0.5)
        blend = 0.5 * u_star.values + 0.5 * state.u.values
        assert np.array_equal(new_half.u.values, blend)

    def test_one_continuity_solve_per_step(self, forced_spec, monkeypatch):
        state = constant_state(forced_spec, 1e-1)
        calls = []

        def counting(u, eps, spec, real=solver.solve_continuity):
            calls.append(u)
            return real(u, eps, spec)

        monkeypatch.setattr(solver, "solve_continuity", counting)
        new, _ = picard_step(state, 0.5, 1e-1, forced_spec, 0.5)
        assert len(calls) == 1
        assert calls[0] is new.u  # for the damped velocity

    def test_residual_decreases_after_transient(self, forced_spec, controls):
        state = constant_state(forced_spec, 1e-1)
        residuals = []
        for _ in range(25):
            state, res = picard_step(state, 1.0, 1e-1, forced_spec, controls.damping)
            residuals.append(res)
        # strictly decreasing until roundoff; below 1e-12 the residual wanders
        assert all(b < a for a, b in zip(residuals, residuals[1:]) if a > 1e-12)
        assert min(residuals) <= 1e-12

    def test_divergence_detector(self):
        assert not solver._diverged([1.0, 0.5, 0.25])
        assert not solver._diverged([1.0, 2.0, 4.0, 8.0, 16.0, 9.0])
        assert solver._diverged([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        assert not solver._diverged([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_projection_residuals_vanish_at_convergence(self, forced_spec, controls):
        from chns1d.diagnostics import mean_projection_residuals

        state = constant_state(forced_spec, 1e-1)
        first = None
        for _ in range(60):
            state, res = picard_step(state, 1.0, 1e-1, forced_spec, controls.damping)
            if first is None:
                first = mean_projection_residuals(state, forced_spec, 1e-1)
            if res <= 1e-12:
                break
        final = mean_projection_residuals(state, forced_spec, 1e-1)
        assert max(final) <= 1e-12
        assert max(final) <= max(max(first), 1e-12)


def forced_default(extra: str = "", amplitude: float = 0.05):
    """Config of the forced default problem (g1 = 0.05 sin) at n = 256."""
    return parse_config_text(
        f"domain.n_cells = 256\nforcing.g1.kind = sin\nforcing.g1.amplitude = {amplitude}\n"
        + extra
    )


def stage_iterations(log) -> list[int]:
    return [s.iterations for s in log.stages]


class TestAdaptiveDamping:
    def test_factor_halves_on_each_rise_down_to_an_eighth(self, forced_spec, monkeypatch):
        state0 = constant_state(forced_spec, 1e-1)
        scripted = iter([1.0, 2.0, 1.5, 3.0, 2.0, 4.0, 3.0, 5.0, 1e-9])
        used = []

        def scripted_step(state, sigma, eps, spec, damping):
            used.append(damping)
            return state, next(scripted)

        monkeypatch.setattr(solver, "picard_step", scripted_step)
        ctl = SolveControls(sigma_schedule=(1.0,), eps_schedule=(1e-1,))
        _, log = continuation_solve(forced_spec, ctl, initial_state=state0)
        assert used == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25, 0.125, 0.125, 0.125]
        assert log.stages[0].dampings == used

    def test_low_starting_factor_is_not_raised(self, forced_spec, monkeypatch):
        scripted = iter([1.0, 2.0, 1e-9])
        used = []

        def scripted_step(state, sigma, eps, spec, damping):
            used.append(damping)
            return state, next(scripted)

        monkeypatch.setattr(solver, "picard_step", scripted_step)
        ctl = SolveControls(sigma_schedule=(1.0,), eps_schedule=(1e-1,), damping=0.1)
        continuation_solve(forced_spec, ctl)
        assert used == [0.1, 0.1, 0.1]

    @pytest.mark.parametrize("amplitude", [2, 10])
    def test_large_forcing_converges(self, amplitude):
        # a fixed factor 0.5 loses the transport matrix's diagonal dominance here
        cfg = forced_default(amplitude=amplitude)
        state, log = continuation_solve(cfg.spec, cfg.controls)
        assert all(s.residuals[-1] <= cfg.controls.tol_rel for s in log.stages)
        assert log.max_mass_error() <= 1e-12 * cfg.spec.m1
        assert np.min(state.rho.values) >= 0.0

    def test_heavier_mixture_converges_faster_than_fixed_half(self):
        counts = {}
        for damping in (1.0, 0.5):
            cfg = forced_default(f"problem.m1 = 2\nsolver.damping = {damping}\n")
            _, log = continuation_solve(cfg.spec, cfg.controls)
            assert all(s.residuals[-1] <= cfg.controls.tol_rel for s in log.stages)
            counts[damping] = sum(stage_iterations(log))
        assert counts[1.0] < counts[0.5]

    def test_forced_default_iterations(self):
        cfg = forced_default()
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [3, 2, 2, 2, 3, 3]

    def test_half_start_is_the_fixed_half_iteration(self):
        """Without a residual rise the adaptive rule is fixed damping: one path serves both."""
        cfg = forced_default("solver.damping = 0.5\n")
        spec, ctl = cfg.spec, cfg.controls
        state, log = continuation_solve(spec, ctl)
        assert stage_iterations(log) == [17, 10, 8, 8, 25, 25]
        assert all(d == 0.5 for s in log.stages for d in s.dampings)

        # reference: every stage iterated at the fixed factor 0.5
        stages = [(s, ctl.eps_schedule[0]) for s in ctl.sigma_schedule]
        stages += [(1.0, e) for e in ctl.eps_schedule[1:]]
        ref = constant_state(spec, ctl.eps_schedule[0])
        for sigma, eps in stages:
            for _ in range(ctl.max_picard):
                ref, res = picard_step(ref, sigma, eps, spec, 0.5)
                if res <= ctl.tol_rel:
                    break
        for name in ("rho", "u", "mu", "c"):
            assert np.array_equal(getattr(state, name).values, getattr(ref, name).values)


class TestContinuation:
    def test_zero_forcing_returns_constant_state(self, pot, fluid, controls):
        spec = zero_forcing_spec(128, pot, fluid)
        state, log = continuation_solve(spec, controls)
        mu0 = dF_delta(spec.c0, pot)
        assert np.max(np.abs(state.rho.values - spec.rho0)) <= 1e-8
        assert np.max(np.abs(state.u.values)) <= 1e-8
        assert np.max(np.abs(state.mu.values - mu0)) <= 1e-8
        assert np.max(np.abs(state.c.values - spec.c0)) <= 1e-8
        assert log.final_eps == controls.eps_schedule[-1]

    def test_mass_exact_at_every_iterate(self, forced_spec, controls):
        _, log = continuation_solve(forced_spec, controls)
        assert log.max_mass_error() <= 1e-12 * forced_spec.m1

    def test_response_linear_in_forcing(self, pot, fluid, controls):
        norms = []
        for amp in (0.05, 0.025):
            spec = make_forced_spec(96, pot, fluid, g1_amp=amp, g2_amp=0.0)
            state, _ = continuation_solve(spec, controls)
            norms.append(np.max(np.abs(state.rho.values - spec.rho0)))
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.1)

    def test_homotopy_schedule_independence(self, pot, fluid):
        spec = make_forced_spec(96, pot, fluid, g1_amp=0.05)
        tol = 1e-10
        states = []
        for sched in ((1.0,), (0.5, 1.0)):
            ctl = SolveControls(sigma_schedule=sched, eps_schedule=(1e-1,), tol_rel=tol)
            state, _ = continuation_solve(spec, ctl)
            states.append(state)
        for name in ("rho", "u", "mu", "c"):
            a = getattr(states[0], name).values
            b = getattr(states[1], name).values
            assert np.max(np.abs(a - b)) <= 10 * tol * (1.0 + np.max(np.abs(a)))

    def test_sigma_bisection_inserts_stage(self, forced_spec, monkeypatch):
        calls = []
        original = solver._run_stage

        def flaky(state, sigma, eps, spec, controls):
            calls.append(sigma)
            if sigma == 1.0 and 1.0 not in calls[:-1]:
                raise solver.DivergenceError("synthetic stage failure sigma=1, eps=0.1")
            return original(state, sigma, eps, spec, controls)

        monkeypatch.setattr(solver, "_run_stage", flaky)
        ctl = SolveControls(sigma_schedule=(0.5, 1.0), eps_schedule=(1e-1,))
        _, log = continuation_solve(forced_spec, ctl)
        sigmas = [s.sigma for s in log.stages]
        assert sigmas == [0.5, 0.75, 1.0]

    def test_divergence_reports_stage(self, forced_spec, monkeypatch):
        def always_fail(state, sigma, eps, spec, controls):
            raise solver.DivergenceError(
                f"residual diverged at stage sigma={sigma:g}, eps={eps:g}"
            )

        monkeypatch.setattr(solver, "_run_stage", always_fail)
        ctl = SolveControls(sigma_schedule=(1.0,), eps_schedule=(1e-1,))
        with pytest.raises(solver.DivergenceError, match="sigma=.*eps="):
            continuation_solve(forced_spec, ctl)

    def test_max_picard_exhausted_raises_not_converged(self, forced_spec):
        ctl = SolveControls(max_picard=1)
        with pytest.raises(
            solver.NotConverged, match=r"sigma=0\.25, eps=0\.1 ended at residual \S+ after 1 iterations"
        ):
            continuation_solve(forced_spec, ctl)


class TestManufacturedSolutions:
    def test_continuity_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (256, 512, 1024, 2048):
            grid = Grid(n, 1.0)
            spec = mms.spec(grid)
            rho = solve_continuity(grid.field(mms.u(grid.cell_centers())), mms.eps, spec)
            errs.append(np.max(np.abs(rho.values - mms.rho(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 0.9

    def test_momentum_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            u = solve_momentum(mms.state(grid), 1.0, mms.eps, mms.spec(grid))
            errs.append(np.max(np.abs(u.values - mms.u(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 1.9

    def test_mu_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            mu, _ = solve_mu(mms.state(grid), 1.0, mms.eps, mms.spec(grid))
            errs.append(np.max(np.abs(mu.values - mms.mu(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 1.9

    def test_c_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            c, _ = solve_c(mms.state(grid), 1.0, mms.eps, mms.spec(grid))
            errs.append(np.max(np.abs(c.values - mms.c(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 1.9


class TestSweeps:
    def test_delta_sweep_validation(self, forced_spec, controls):
        with pytest.raises(ValueError):
            delta_sweep(forced_spec, [], controls)
        with pytest.raises(ValueError):
            delta_sweep(forced_spec, [0.1, 0.2], controls)

    def test_eps_sweep_validation(self, forced_spec, controls):
        with pytest.raises(ValueError):
            eps_sweep(forced_spec, [1e-2, 1e-1], controls)

    def test_delta_sweep_art_pressure_decreasing(self, pot, fluid):
        spec = make_forced_spec(96, pot, fluid)
        ctl = SolveControls(eps_schedule=(1e-1, 1e-2))
        sweep = delta_sweep(spec, (0.2, 0.1, 0.05), ctl)
        assert sweep.statuses == ["ok", "ok", "ok"]
        arts = [r.art_pressure_norm for r in sweep.reports]
        assert arts[0] > arts[1] > arts[2] > 0.0

    def test_sweep_records_failure_and_continues(self, forced_spec, controls, monkeypatch):
        original = solver.continuation_solve
        calls = {"n": 0}

        def flaky(spec, ctl, initial_state=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise solver.DivergenceError("synthetic failure sigma=1, eps=0.01")
            return original(spec, ctl, initial_state)

        monkeypatch.setattr(solver, "continuation_solve", flaky)
        ctl = SolveControls(eps_schedule=(1e-1, 1e-2))
        sweep = delta_sweep(forced_spec, (0.2, 0.1, 0.05), ctl)
        assert sweep.statuses == ["ok", "failed(DivergenceError)", "ok"]
        assert sweep.reports[1] is None and sweep.states[1] is None
        assert sweep.any_failed

    @pytest.mark.parametrize("run, values", [
        (delta_sweep, (0.2, 0.1, 0.05)),
        (eps_sweep, (1e-1, 5e-2, 2e-2)),
    ])
    def test_later_values_start_from_first_solution(self, forced_spec, monkeypatch, run, values):
        original = solver.continuation_solve
        starts = []

        def recording(spec, ctl, initial_state=None):
            starts.append(initial_state)
            return original(spec, ctl, initial_state)

        monkeypatch.setattr(solver, "continuation_solve", recording)
        sweep = run(forced_spec, values, SolveControls(eps_schedule=(1e-1, 1e-2)))
        assert sweep.statuses == ["ok"] * 3
        assert starts[0] is None
        assert all(s is sweep.states[0] for s in starts[1:])

    def test_failed_first_value_leaves_later_values_cold(self, forced_spec, monkeypatch):
        original = solver.continuation_solve
        starts = []

        def first_fails(spec, ctl, initial_state=None):
            starts.append(initial_state)
            if len(starts) == 1:
                raise solver.NotConverged("synthetic failure sigma=0.25, eps=0.1")
            return original(spec, ctl, initial_state)

        monkeypatch.setattr(solver, "continuation_solve", first_fails)
        sweep = delta_sweep(forced_spec, (0.2, 0.1, 0.05), SolveControls(eps_schedule=(1e-1, 1e-2)))
        assert sweep.statuses == ["failed(NotConverged)", "ok", "ok"]
        assert starts == [None, None, None]


class TestNonUnitDomain:
    def test_forced_solve_on_longer_interval(self):
        from chns1d.potential import PotentialParams
        from chns1d.diagnostics import compute_report

        g = Grid(96, 2.0)
        x = g.cell_centers()
        spec = ProblemSpec(
            g,
            PotentialParams(0.8, 1.9, 0.05),
            FluidParams(gamma=1.7, lambda1=1.0, lambda2=-0.5, H=0.7),
            m1=3.0,
            m2=-1.0,
            g1=g.field(0.1 * np.sin(np.pi * x / 2.0)),
            g2=g.field(-0.05 * np.cos(np.pi * x / 2.0)),
        )
        state, log = continuation_solve(spec, SolveControls())
        rep = compute_report(state, spec, eps=log.final_eps)
        assert abs(rep.mass1 - 3.0) <= 3e-12
        assert rep.ei_slack >= -5.0 * g.spacing_h**2
        assert np.min(state.rho.values) > 0.0
        assert rep.bound_violation == 0.0
