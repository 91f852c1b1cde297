import dataclasses
import pickle
import re

import numpy as np
import pytest
from scipy.linalg import solve_banded

from _mms import build_manufactured, observed_orders
from chns1d import mesh, potential, solver
from chns1d.config import parse_config_text
from chns1d.diagnostics import compute_report
from chns1d.mesh import Grid
from chns1d.potential import PotentialParams, dF_delta
from chns1d.solver import (
    ConvergenceLog,
    FluidParams,
    ProblemSpec,
    SolveControls,
    StageLog,
    State,
    constant_state,
    continuation_solve,
    delta_sweep,
    eps_sweep,
    hydrostatic_state,
    lagged,
    picard_step,
    solve_c,
    solve_continuity,
    solve_flow_coupled,
    solve_momentum,
    solve_mu,
)
from conftest import (
    LADDER, LAPACK_BINDINGS, copies, make_forced_spec, traced_peak, use_binding,
)

FORCED_DEFAULT = "forcing.g1.kind = sin\nforcing.g1.amplitude = 0.05\n"


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
        with pytest.raises(ValueError, match=r"^art_exponent must be an integer >= 2, got 3\.5"):
            FluidParams(art_exponent=3.5)

    def test_max_picard_must_be_integral(self):
        assert type(SolveControls(max_picard=3.0).max_picard) is int
        with pytest.raises(ValueError, match=r"^max_picard must be an integer >= 1, got 2\.5"):
            SolveControls(max_picard=2.5)

    def test_fluid_gamma_warning(self):
        with pytest.warns(UserWarning, match="gamma=1.4") as record:
            FluidParams(gamma=1.4)
        # it points at the constructing line, not into Record.__init__
        assert [w.filename for w in record] == [__file__]

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


def _same(a, b) -> bool:
    """Whether two values hold the same data, field by field for records."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(_same, a, b))
    return a == b


class TestRecords:
    """The parameter, state and log types are frozen records
    (``chns1d.record.Record``) with the behaviour of frozen dataclasses."""

    def test_controls_repr_is_the_dataclass_format(self):
        assert repr(SolveControls()) == (
            "SolveControls(sigma_schedule=(1.0,), damping=1.0, max_picard=500, "
            "tol_rel=1e-08, eps_schedule=(0.001,))"
        )

    @pytest.mark.parametrize("record, change, message", [
        (PotentialParams(), {"delta": 1.5}, r"^delta must lie in \(0, 1\), got 1\.5$"),
        (FluidParams(), {"lambda1": 0.0}, r"^lambda1 must be positive"),
        (SolveControls(), {"max_picard": 2.5}, r"^max_picard must be an integer >= 1"),
        (Grid(64, 1.0), {"n_cells": 4}, r"^n_cells must be an integer >= 8"),
    ], ids=["delta", "lambda1", "max_picard", "n_cells"])
    def test_replace_validates_again(self, record, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(record, **change)

    @pytest.mark.parametrize("record, name", [
        (StageLog(1.0, 1e-3), "residuals"),
        (ConvergenceLog(), "stages"),
    ], ids=["StageLog", "ConvergenceLog"])
    def test_logs_are_frozen_but_their_lists_grow(self, record, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, [])
        getattr(record, name).append(None)
        assert getattr(record, name) == [None]

    def test_default_factories_give_each_log_its_own_list(self):
        a, b = StageLog(1.0, 1e-3), StageLog(sigma=1.0, eps=1e-3)
        a.residuals.append(1.0)
        assert b.residuals == [] and b.dampings == [] and a.dampings is not b.dampings
        assert ConvergenceLog().stages is not ConvergenceLog().stages

    def test_pool_payloads_survive_pickling(self, forced_spec, controls):
        """A worker of the pooled sweep receives a ProblemSpec and returns a
        State and a ConvergenceLog: pickling keeps every field."""
        state, log = continuation_solve(forced_spec, controls)
        for payload in (forced_spec, state, log):
            back = pickle.loads(pickle.dumps(payload))
            assert back is not payload and _same(back, payload)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.stages = []


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
        u = solve_momentum(state, lagged(state, spec), 1.0, 1e-2, spec)
        assert np.max(np.abs(u.values)) <= 1e-13

    def test_mu_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        mu, proj = solve_mu(state, lagged(state, spec), 1.0, 1e-2, spec)
        assert proj <= 1e-14
        assert np.max(np.abs(mu.values - dF_delta(spec.c0, pot))) <= 1e-12

    def test_c_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        c, proj = solve_c(state, lagged(state, spec), 1.0, 1e-2, spec)
        assert proj <= 1e-14
        assert np.max(np.abs(c.values - spec.c0)) <= 1e-12

    def test_flow_coupled_keeps_rest_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        rho, u = solve_flow_coupled(state, lagged(state, spec), 1.0, 1e-2, spec)
        assert np.max(np.abs(u.values)) <= 1e-13
        assert np.max(np.abs(rho.values - spec.rho0)) <= 1e-10


class TestNeumannConstants:
    def test_mu_meets_weighted_constraint(self, pot, fluid):
        spec = ProblemSpec(Grid(128, 1.0), pot, fluid, m1=1.0, m2=0.3)
        x = spec.grid.cell_centers()
        state = State(*(spec.grid.field(v) for v in (
            1.0 + 0.3 * np.cos(np.pi * x), 0.1 * np.sin(np.pi * x),
            np.zeros_like(x), 0.2 * np.cos(2 * np.pi * x))))
        mu, _ = solve_mu(state, lagged(state, spec), 1.0, 1e-2, spec)
        rho, h = state.rho.values, spec.grid.spacing_h
        lhs = mesh.integral_of(rho * mu.values, h)
        rhs = mesh.integral_of(rho * dF_delta(state.c.values, pot), h)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("sub_solve", [solve_mu, solve_c], ids=["mu", "c"])
    def test_zero_density_is_degenerate(self, pot, fluid, sub_solve):
        spec = zero_forcing_spec(32, pot, fluid)
        state = State(spec.grid.zeros(), spec.grid.zeros(), spec.grid.zeros(), spec.grid.field(0.1))
        with pytest.raises(mesh.DegenerateWeightError, match="density-weighted constraint is degenerate"):
            sub_solve(state, lagged(state, spec), 1.0, 1e-2, spec)


def _spiked_state(n: int, **spikes) -> State:
    """rho = 2, u = mu = c = 0, except ``name=(cell, value)`` entries."""
    g = Grid(n, 1.0)
    vals = {"rho": np.full(n, 2.0), "u": np.zeros(n), "mu": np.zeros(n), "c": np.zeros(n)}
    for name, (cell, value) in spikes.items():
        vals[name][cell] = value
    return State(*(g.field(vals[k]) for k in ("rho", "u", "mu", "c")))


class TestNonFiniteRightSide:
    """An overflowing right side names its field and sub-solve, without a numpy warning."""

    @pytest.mark.parametrize("call, spikes, message", [
        (lambda s, spec: solver._momentum_forcing(s, lagged(s, spec), 1e-2, spec), {"u": (32, 1e200)},
         "momentum sub-solve: the momentum right side is not finite in 2 of 64 cells; "
         "incoming max |rho| 2, |u| 1e+200"),
        (lambda s, spec: solve_mu(s, lagged(s, spec), 1.0, 1e-2, spec), {"u": (32, 1e300), "c": (33, 1e10)},
         "mu sub-solve: the mu right side is not finite in 1 of 64 cells; incoming max"),
        (lambda s, spec: solve_c(s, lagged(s, spec), 1.0, 1e-2, spec), {"mu": (32, 1e308)},
         "c sub-solve: the c right side is not finite in 1 of 64 cells; incoming max"),
    ], ids=["momentum", "mu", "c"])
    def test_names_field_and_sub_solve(self, pot, fluid, call, spikes, message):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=2.0)
        with pytest.raises(mesh.NonFiniteError) as info:
            call(_spiked_state(64, **spikes), spec)
        assert str(info.value).startswith(message)


class TestFieldConstructions:
    def test_one_picard_step_wraps_only_sub_solve_results(self, monkeypatch):
        """Counted as bench/spans.py counts them: 12 Field checks per step on the
        forced default.  The flow pair (2); mu and c, each the Laplacian right
        side, its solution and the constant-shifted result (3 + 3); the blended
        u, mu, c (3); the density of the continuity solve (1).  Intermediates
        stay plain arrays.  The first step also probes the grid's bands, once."""
        cfg = parse_config_text(FORCED_DEFAULT)
        spec, eps = cfg.spec, cfg.controls.eps_schedule[0]
        state, _ = picard_step(constant_state(spec, eps), 1.0, eps, spec, 1.0)
        checks = []
        field_init = mesh.Field.__post_init__

        def counted(field):
            checks.append(field)
            field_init(field)

        monkeypatch.setattr(mesh.Field, "__post_init__", counted)
        picard_step(state, 1.0, eps, spec, 1.0)
        assert len(checks) == 12

    def test_one_picard_step_evaluates_each_lagged_coefficient_once(self, monkeypatch):
        """The step's one record is the only place the potential evaluators run."""
        cfg = parse_config_text(FORCED_DEFAULT)
        spec, eps = cfg.spec, cfg.controls.eps_schedule[0]
        state = constant_state(spec, eps)
        names = ("dF_delta", "artificial_pressure", "pressure", "pressure_slope")
        calls = []

        def counting(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in names:
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        picard_step(state, 1.0, eps, spec, 1.0)
        assert sorted(calls) == sorted(names)


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
        rho, u = solve_flow_coupled(state, lagged(state, spec), sigma, eps, spec)
        assert np.min(rho.values) > 0.0

        rho_f = np.zeros(n + 1)
        rho_f[1:-1] = 0.5 * (rho_t[:-1] + rho_t[1:])
        correction = rho_f * (solver._face_means(u.values) - solver._face_means(u_t))
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
            -sigma * solver._momentum_forcing(state, lagged(state, spec), eps, spec),
        ]
        assert np.max(np.abs(sum(terms))) <= 1e-10 * max(np.max(np.abs(t)) for t in terms)

    def test_block_assembly_memory_is_bounded(self):
        """At n = 4096 the (10, 2n) band storage is 640 KB.  The bands are
        written into it as they are computed: with all twelve held in a
        dictionary first, one call peaked at about 1380 KB."""
        cfg = parse_config_text("domain.n_cells = 4096\n" + FORCED_DEFAULT)
        state, _ = continuation_solve(cfg.spec, cfg.controls)
        lag = lagged(state, cfg.spec)
        solve_flow_coupled(state, lag, 1.0, 1e-3, cfg.spec)  # the cached mesh.bands
        assert traced_peak(lambda: solve_flow_coupled(state, lag, 1.0, 1e-3, cfg.spec)) < 1250 * 1024


class TestUpwindFlux:
    def test_flux_divergence_is_the_advective_part_of_the_transport_bands(self):
        """The diagnostics flux and the continuity matrix split the face velocities alike."""
        n, eps = 64, 0.1
        g = Grid(n, 1.0)
        rng = np.random.default_rng(7)
        rho = 1.0 + 0.3 * rng.random(n)
        u = 0.05 * rng.standard_normal(n)
        diag, upper, lower = solver._continuity_bands(solver._face_means(u), eps, g)
        transport = diag * rho
        transport[:-1] += upper * rho[1:]
        transport[1:] += lower * rho[:-1]
        advective = (
            transport - eps**2 * rho + eps**4 * mesh.laplacian_apply(g.field(rho), "neumann").values
        )
        flux_div = np.diff(solver._upwind_flux(rho, u)) / g.spacing_h
        assert np.max(np.abs(advective - flux_div)) <= 1e-13 * np.max(np.abs(flux_div))


def _banded_oracle(solve, args):
    """Solution of one recorded banded system by scipy.linalg.solve_banded."""
    if solve is mesh.solve_tridiagonal:
        dl, d, du, b = args
        return solve_banded((1, 1), np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]]), b)
    _, _, ab, b = args
    assert not ab[:3].any()  # the fill-in rows start empty
    return solve_banded((3, 3), ab[3:], b)


def _forced_default_systems(n, monkeypatch):
    """(name, solve, arguments, solution) of every banded LAPACK solve of one
    forced-default Picard step from its third iterate, in call order; ``solve``
    is :func:`mesh.solve_tridiagonal` or :func:`mesh.solve_banded`."""
    spec = parse_config_text(f"domain.n_cells = {n}\n{FORCED_DEFAULT}").spec
    state = constant_state(spec, 0.1)
    for _ in range(2):
        state, _ = picard_step(state, 1.0, 0.1, spec, 1.0)

    calls = []

    def recording(solve):
        def record(name, *args):
            kept = copies(*args)
            x = solve(name, *args)
            calls.append((name, solve, kept, x.copy()))
            return x
        return record

    with monkeypatch.context() as patch:
        for solve in (mesh.solve_tridiagonal, mesh.solve_banded):
            patch.setattr(mesh, solve.__name__, recording(solve))
        picard_step(state, 1.0, 0.1, spec, 1.0)
    return calls


class TestLapackSolves:
    """The direct LAPACK calls solve the systems scipy.linalg.solve_banded would."""

    @pytest.mark.parametrize("n", [256, 4096])
    def test_forced_default_systems_match_solve_banded(self, n, monkeypatch):
        """Two LAPACK calls per Picard step; the Laplacians need none."""
        calls = _forced_default_systems(n, monkeypatch)
        assert [(name, solve) for name, solve, _, _ in calls] == [
            ("(rho, u) block", mesh.solve_banded),
            ("continuity", mesh.solve_tridiagonal),
        ]
        for name, solve, args, x in calls:
            want = _banded_oracle(solve, args)
            assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("n", [256, 4096])
    def test_forced_default_systems_solve_identically_through_both_bindings(self, n, monkeypatch):
        """numpy's LAPACK and scipy's _flapack, the fallback, give the same bits
        on every system of a step."""
        for name, solve, args, x in _forced_default_systems(n, monkeypatch):
            for binding in sorted(LAPACK_BINDINGS):
                with monkeypatch.context() as patch:
                    use_binding(patch, binding)
                    assert np.array_equal(solve(name, *copies(*args)), x), (name, binding)

    def test_singular_continuity_is_named(self, forced_spec, monkeypatch):
        n = forced_spec.grid.n_cells
        zero = (np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))
        monkeypatch.setattr(solver, "_continuity_bands", lambda uf, eps, g: zero)
        with pytest.raises(solver.SingularSystemError, match="continuity: the matrix is singular"):
            solve_continuity(forced_spec.grid.zeros(), 0.1, forced_spec)

    def test_singular_block_is_named(self, forced_spec, monkeypatch):
        # without the density terms of the continuity rows and the pressure
        # feedback, every rho column of the block is zero
        g, n = forced_spec.grid, forced_spec.grid.n_cells
        zero = (np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))
        monkeypatch.setattr(solver, "_continuity_bands", lambda uf, eps, g: zero)
        monkeypatch.setattr(solver, "pressure_slope", lambda rho, delta, fluid: np.zeros(n))
        state = State(g.field(1.0), g.zeros(), g.zeros(), g.field(0.3))
        with pytest.raises(solver.SingularSystemError, match=r"\(rho, u\) block: the matrix is singular"):
            solve_flow_coupled(state, lagged(state, forced_spec), 1.0, 0.1, forced_spec)
        assert solver.SingularSystemError in solver.SOLVER_ERRORS
        assert mesh.NonFiniteError in solver.SOLVER_ERRORS


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
        lag = lagged(state, forced_spec)  # all three read the incoming state's record
        rho_star, u_star = solve_flow_coupled(state, lag, 0.5, 1e-1, forced_spec)
        mu_star, _ = solve_mu(
            State(rho_star, u_star, state.mu, state.c), lag, 0.5, 1e-1, forced_spec
        )
        c_star, _ = solve_c(
            State(rho_star, u_star, mu_star, state.c), lag, 0.5, 1e-1, forced_spec
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
        # from the constant state: the hydrostatic start is within a few
        # tol_rel of the fixed point here, where m1 = 2 iterates at its noise
        # floor, and the two counts would compare that noise
        counts = {}
        for damping in (1.0, 0.5):
            cfg = forced_default(f"problem.m1 = 2\nsolver.damping = {damping}\n")
            start = constant_state(cfg.spec, cfg.controls.eps_schedule[0])
            _, log = continuation_solve(cfg.spec, cfg.controls, initial_state=start)
            assert all(s.residuals[-1] <= cfg.controls.tol_rel for s in log.stages)
            counts[damping] = sum(stage_iterations(log))
        assert counts[1.0] < counts[0.5]

    def test_forced_default_iterations(self):
        cfg = forced_default(LADDER)
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [2, 2, 2, 2, 3, 3]

    def test_half_start_is_the_fixed_half_iteration(self):
        """Without a residual rise the adaptive rule is fixed damping: one path serves both."""
        cfg = forced_default(LADDER + "solver.damping = 0.5\n")
        spec, ctl = cfg.spec, cfg.controls
        state, log = continuation_solve(spec, ctl)
        assert stage_iterations(log) == [11, 10, 8, 8, 25, 25]
        assert all(d == 0.5 for s in log.stages for d in s.dampings)

        # reference: every stage iterated at the fixed factor 0.5 from the solve's start
        stages = [(s, ctl.eps_schedule[0]) for s in ctl.sigma_schedule]
        stages += [(1.0, e) for e in ctl.eps_schedule[1:]]
        ref = hydrostatic_state(spec, ctl.eps_schedule[0])
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
        # (sigma, eps) schedule pairs that end at the same problem: a sigma
        # ramp at eps 0.1, and one stage against the ladder at eps 1e-3
        cases = [
            (((1.0,), (1e-1,)), ((0.5, 1.0), (1e-1,))),
            (((1.0,), (1e-3,)), ((0.25, 0.5, 0.75, 1.0), (1e-1, 1e-2, 1e-3))),
        ]
        for schedules in cases:
            states = []
            for sigmas, epss in schedules:
                ctl = SolveControls(sigma_schedule=sigmas, eps_schedule=epss, tol_rel=tol)
                state, _ = continuation_solve(spec, ctl)
                states.append(state)
            for name in ("rho", "u", "mu", "c"):
                a = getattr(states[0], name).values
                b = getattr(states[1], name).values
                assert np.max(np.abs(a - b)) <= 10 * tol * (1.0 + np.max(np.abs(a)))

    def test_diverging_stage_is_not_retried(self, forced_spec, monkeypatch):
        calls = []
        original = solver._run_stage

        def flaky(state, sigma, eps, spec, controls):
            calls.append(sigma)
            if sigma == 1.0:
                raise solver.DivergenceError("synthetic stage failure sigma=1, eps=0.1")
            return original(state, sigma, eps, spec, controls)

        monkeypatch.setattr(solver, "_run_stage", flaky)
        ctl = SolveControls(sigma_schedule=(0.5, 1.0), eps_schedule=(1e-1,))
        with pytest.raises(solver.DivergenceError, match="synthetic"):
            continuation_solve(forced_spec, ctl)
        assert calls == [0.5, 1.0]

    def test_large_cos_forcing_diverges_at_its_stage(self):
        # one of the 216-config grid's four divergent configs from the constant
        # state (from the hydrostatic start it converges); the error names its stage
        cfg = parse_config_text(
            "domain.n_cells = 128\nforcing.g1.kind = cos\nforcing.g1.amplitude = 20\n"
            "problem.m1 = 0.5\nproblem.m2 = 0.15\nfluid.lambda1 = 0.1\nsolver.max_picard = 300\n"
        )
        with pytest.raises(solver.DivergenceError, match=r"sigma=1, eps=0\.001 "):
            continuation_solve(cfg.spec, cfg.controls, constant_state(cfg.spec, 1e-3))

    def test_divergence_reports_stage(self, forced_spec, monkeypatch):
        def always_fail(state, sigma, eps, spec, controls):
            raise solver.DivergenceError(
                f"residual diverged at stage sigma={sigma:g}, eps={eps:g}"
            )

        monkeypatch.setattr(solver, "_run_stage", always_fail)
        ctl = SolveControls(sigma_schedule=(1.0,), eps_schedule=(1e-1,))
        with pytest.raises(solver.DivergenceError, match="sigma=.*eps="):
            continuation_solve(forced_spec, ctl)

    def test_forced_default_is_one_stage(self):
        cfg = forced_default()
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert [(s.sigma, s.eps) for s in log.stages] == [(1.0, 1e-3)]
        assert stage_iterations(log) == [2]

    def test_large_cos_forcing_converges_in_one_stage(self):
        # the ladder stalls here: NotConverged at sigma 1, eps 0.01 after 300
        # iterations.  From the hydrostatic start one stage takes 8
        # iterations, 10 from the constant state and 18 from the hydrostatic
        # density at rest (u = 0)
        cfg = parse_config_text(
            "domain.n_cells = 128\nforcing.g1.kind = cos\nforcing.g1.amplitude = 12\n"
            "solver.max_picard = 300\n"
        )
        state, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [8]
        assert log.stages[0].residuals[-1] <= cfg.controls.tol_rel
        assert log.max_mass_error() <= 1e-12 * cfg.spec.m1
        assert np.min(state.rho.values) >= 0.0

    def test_max_picard_exhausted_raises_not_converged(self, forced_spec):
        ctl = SolveControls(max_picard=1)
        with pytest.raises(
            solver.NotConverged, match=r"sigma=1, eps=0\.001 ended at residual \S+ after 1 iterations"
        ):
            continuation_solve(forced_spec, ctl)

    def test_blow_up_is_named_by_the_velocity(self):
        """At amplitude 20, from the constant state, the iterate blows up
        within a few steps, until the advection terms swamp eps^2 in the
        transport matrix; the message gives max|u_face|/h against eps^2, not a
        grid diagnosis.  (From the hydrostatic start it converges.)"""
        cfg = parse_config_text(
            "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 20\n"
            "solver.max_picard = 300\n"
        )
        with pytest.raises(solver.SingularSystemError) as info:
            continuation_solve(cfg.spec, cfg.controls, constant_state(cfg.spec, 1e-3))
        msg = str(info.value)
        found = re.search(r"\(eps=0\.001, n=128\): incoming max\|u_face\|/h (\S+) against eps\^2 (\S+)$", msg)
        assert found, msg
        assert float(found[2]) == 1e-6 and float(found[1]) > 1e12
        assert "grid" not in msg


class TestHydrostaticStart:
    """The eps -> 0 limit at rest, h(rho) = G1 + int g2/rho + C with mass m1,
    where every solve starts."""

    @staticmethod
    def forced(kind: str, amplitude: float, g2: float = 0.0, n: int = 128, extra: str = ""):
        return parse_config_text(
            f"domain.n_cells = {n}\nforcing.g1.kind = {kind}\nforcing.g1.amplitude = {amplitude}\n"
            f"forcing.g2.kind = cos\nforcing.g2.amplitude = {g2}\n" + extra
        )

    def test_zero_forcing_is_the_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(128, pot, fluid)
        state = hydrostatic_state(spec, 1e-3)
        const = constant_state(spec, 1e-3)
        for name in ("rho", "u", "mu", "c"):
            got, want = getattr(state, name).values, getattr(const, name).values
            assert np.max(np.abs(got - want)) <= 1e-14, name

    @pytest.mark.parametrize("g2", [0.0, 0.5])
    @pytest.mark.parametrize("amplitude", [0.05, 5, 15, 30])
    @pytest.mark.parametrize("kind", ["sin", "cos", "bump"])
    def test_positive_with_exact_mass_and_discrete_balance(self, kind, amplitude, g2):
        """rho > 0 with mass m1 to 1e-12 m1, and the discrete balance holds:
        h(rho_i) - h(rho_i-1) is the trapezoid integral of g1 + g2/rho between
        the two cell centres.  The velocity is the one whose continuity solve
        returns rho."""
        spec = self.forced(kind, amplitude, g2).spec
        state = hydrostatic_state(spec, 1e-3)
        rho, h = state.rho.values, spec.grid.spacing_h
        assert rho.min() > 0.0
        assert abs(mesh.integrate(state.rho) - spec.m1) <= 1e-12 * spec.m1
        back = solver.solve_continuity(state.u, 1e-3, spec).values
        assert np.max(np.abs(back - rho)) <= 1e-12 * rho.max(), np.max(np.abs(back - rho))
        assert np.all(state.c.values == spec.c0)
        assert np.all(state.mu.values == dF_delta(spec.c0, spec.potential))
        ent = potential.enthalpy(np.log(rho), spec.potential.delta, spec.fluid)[0]
        f = spec.g1.values + spec.g2.values / rho
        balance = np.diff(ent) - 0.5 * h * (f[:-1] + f[1:])
        assert np.max(np.abs(balance)) <= 1e-10 * np.max(np.abs(ent)), np.max(np.abs(balance))

    def test_start_velocity_saves_the_wall_force_an_iteration(self):
        """A g2 = a cos force is nonzero at the walls.  From the start's
        velocity the solve takes the 2 iterations of a sin-only force; from
        the same density at rest (u = 0) it takes 3, its second residual
        above tol_rel."""
        cfg = parse_config_text(
            "domain.n_cells = 1024\nforcing.g1.kind = sin\nforcing.g1.amplitude = 0.0447\n"
            "forcing.g2.kind = cos\nforcing.g2.amplitude = 0.0079\n"
        )
        start = hydrostatic_state(cfg.spec, cfg.controls.eps_schedule[0])
        assert np.abs(start.u.values).max() > 0.0
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [2]
        at_rest = dataclasses.replace(start, u=cfg.spec.grid.zeros())
        _, log = continuation_solve(cfg.spec, cfg.controls, initial_state=at_rest)
        assert stage_iterations(log) == [3]

    def test_no_positive_limit_is_named(self):
        """With g2 = 5 cos on sin 30 the limit has no positive density: shot
        from the left wall, (Pi(rho))' = rho g1 + g2 gives at least mass 1.14
        for every positive wall density, above m1 = 1.  The start ends in a
        named NotConverged and the solve never runs."""
        cfg = self.forced("sin", 30, g2=5.0)
        with pytest.raises(solver.NotConverged, match=r"^hydrostatic start: .* no positive density"):
            continuation_solve(cfg.spec, cfg.controls)

    def test_forcing_potential_overflow_is_named(self):
        cfg = self.forced("sin", 1e307)
        with pytest.raises(mesh.NonFiniteError, match=r"^hydrostatic start: the potential"):
            hydrostatic_state(cfg.spec, 1e-3)

    @staticmethod
    def exact_G1(kind: str, amplitude: float, x: np.ndarray) -> np.ndarray:
        """A primitive of the continuum g1 at the cell centres."""
        from scipy.special import erf

        if kind == "sin":
            return -amplitude / np.pi * np.cos(np.pi * x)
        if kind == "cos":
            return amplitude / np.pi * np.sin(np.pi * x)
        width = 0.1 * np.sqrt(2.0)
        return amplitude * 0.1 * np.sqrt(np.pi / 2.0) * erf((x - 0.5) / width)

    @pytest.mark.parametrize("kind, low, high", [
        ("sin", 1.9, 2.1),
        ("bump", 1.9, 2.1),
        # cos forcing is +-A at the walls.  The error is largest in a wall
        # cell, where the centred Neumann gradient of the pressure takes the
        # ghost equal to the wall cell, (Pi_1 - Pi_0)/(2h): half a one-sided
        # difference, so balancing rho g1 != 0 there costs an O(h) error.
        # (With one-sided wall differences the orders are 1.93 to 1.96.)
        ("cos", 0.9, 1.1),
    ])
    def test_coupled_solve_converges_to_the_limit(self, kind, low, high):
        """continuation_solve at eps = 1e-4, amplitude 5, n = 128 to 1024,
        against the limit of the continuum G1: max|rho - rho_lim| / max rho_lim
        falls at second order for sin and bump, at first order for cos."""
        errors, worst = [], []
        for n in (128, 256, 512, 1024):
            cfg = self.forced(kind, 5, n=n, extra="solver.eps_schedule = 1e-4\n")
            state, _ = continuation_solve(cfg.spec, cfg.controls)
            x = cfg.spec.grid.cell_centers()
            limit = solver.hydrostatic_density(cfg.spec, self.exact_G1(kind, 5, x))
            gap = np.abs(state.rho.values - limit)
            errors.append(gap.max() / limit.max())
            worst.append(int(gap.argmax()))
        orders = observed_orders(errors)
        assert all(low <= o <= high for o in orders), (errors, orders)
        if kind == "cos":
            assert all(i in (0, n - 1) for i, n in zip(worst, (128, 256, 512, 1024))), worst


class TestCoupledRefinement:
    def test_forced_default_converges_at_second_order(self):
        """The whole continuation solve on the forced default, n = 64 to 512:
        each fine solution, averaged over its cell pairs onto the coarse cells,
        differs from the coarse one by O(h^2) in rho and mu.  (u and c differ
        only at roundoff, 1e-13 to 1e-14, and are left out.)"""
        states = []
        for n in (64, 128, 256, 512):
            cfg = parse_config_text(f"domain.n_cells = {n}\n{FORCED_DEFAULT}")
            states.append(continuation_solve(cfg.spec, cfg.controls)[0])
        for name in ("rho", "mu"):
            diffs = [
                np.max(np.abs(getattr(fine, name).values.reshape(-1, 2).mean(axis=1)
                              - getattr(coarse, name).values))
                for coarse, fine in zip(states, states[1:])
            ]
            orders = observed_orders(diffs)
            assert all(1.9 <= o <= 2.1 for o in orders), (name, diffs, orders)


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
            state, spec = mms.state(grid), mms.spec(grid)
            u = solve_momentum(state, lagged(state, spec), 1.0, mms.eps, spec)
            errs.append(np.max(np.abs(u.values - mms.u(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 1.9

    def test_mu_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            mu, _ = solve_mu(state, lagged(state, spec), 1.0, mms.eps, spec)
            errs.append(np.max(np.abs(mu.values - mms.mu(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 1.9

    def test_c_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            c, _ = solve_c(state, lagged(state, spec), 1.0, mms.eps, spec)
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
        rows = delta_sweep(spec, (0.2, 0.1, 0.05), ctl)
        assert [status for status, *_ in rows] == ["ok", "ok", "ok"]
        arts = [report.art_pressure_norm for _, report, _, _ in rows]
        assert arts[0] > arts[1] > arts[2] > 0.0

    def test_sweep_records_failure_and_continues(self, forced_spec, controls, monkeypatch):
        original = solver.continuation_solve
        calls = {"n": 0}

        def flaky(spec, ctl):
            calls["n"] += 1
            if calls["n"] == 2:
                raise solver.DivergenceError("synthetic failure sigma=1, eps=0.01")
            return original(spec, ctl)

        monkeypatch.setattr(solver, "continuation_solve", flaky)
        ctl = SolveControls(eps_schedule=(1e-1, 1e-2))
        rows = delta_sweep(forced_spec, (0.2, 0.1, 0.05), ctl)
        assert [status for status, *_ in rows] == ["ok", "failed(DivergenceError)", "ok"]
        assert rows[1] == ("failed(DivergenceError)", None, None, None)

    def test_rows_are_one_4_tuple_per_value_in_input_order(self, forced_spec, monkeypatch):
        original = solver.continuation_solve

        def fails_at_005(spec, ctl):
            if spec.potential.delta == 0.05:
                raise solver.SingularSystemError("synthetic singular block")
            return original(spec, ctl)

        monkeypatch.setattr(solver, "continuation_solve", fails_at_005)
        deltas = (0.2, 0.1, 0.05, 0.02)
        rows = delta_sweep(forced_spec, deltas, SolveControls(eps_schedule=(1e-1, 1e-2)))
        assert [len(row) for row in rows] == [4] * len(deltas)
        assert rows[2] == ("failed(SingularSystemError)", None, None, None)
        for delta, (status, report, state, log) in zip(deltas, rows):
            if delta == 0.05:
                continue
            assert status == "ok" and log.final_eps == 1e-2
            pot_v = dataclasses.replace(forced_spec.potential, delta=delta)
            spec_v = dataclasses.replace(forced_spec, potential=pot_v)
            assert report == compute_report(state, spec_v, eps=1e-2)


class TestNonUnitDomain:
    def test_forced_solve_on_longer_interval(self):
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


class TestPlateauSolve:
    """A solve whose concentration sits in the plateau piece (1 - delta, 1), off the core."""

    def test_plateau_solve_and_mirror(self):
        from chns1d.diagnostics import EI_SLACK_CONSTANT, energy_inequality

        states = {}
        for m2 in (0.95, -0.95):
            cfg = parse_config_text(
                "domain.n_cells = 64\nforcing.g1.kind = sin\nforcing.g1.amplitude = 0.05\n"
                f"problem.m2 = {m2}\n"
            )
            spec = cfg.spec
            state, log = continuation_solve(spec, cfg.controls)
            assert all(s.residuals[-1] <= cfg.controls.tol_rel for s in log.stages)
            a = np.abs(state.c.values)
            assert np.all((a > 1.0 - spec.potential.delta) & (a < 1.0))
            assert log.max_mass_error() <= 1e-12 * spec.m1
            _, _, slack = energy_inequality(state, spec)
            assert slack >= -EI_SLACK_CONSTANT * spec.grid.spacing_h**2
            states[m2] = state
        # the potential is even and g2 = 0, so m2 -> -m2 mirrors the state exactly
        plus, minus = states[0.95], states[-0.95]
        assert np.array_equal(plus.rho.values, minus.rho.values)
        assert np.array_equal(plus.u.values, minus.u.values)
        assert np.array_equal(plus.mu.values, -minus.mu.values)
        assert np.array_equal(plus.c.values, -minus.c.values)
