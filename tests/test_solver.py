import dataclasses
import functools
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import solve_banded

from _mms import build_manufactured, observed_orders
from chns1d import mesh, potential, solver
from chns1d.config import parse_config_text
from chns1d.diagnostics import compute_report, constraint_check
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
    solve_mu,
)
from conftest import (
    LADDER, LAPACK_BINDINGS, assert_honest_fixed_point, copies, make_forced_spec, traced_peak,
    use_binding,
)

FORCED_DEFAULT = "forcing.g1.kind = sin\nforcing.g1.amplitude = 0.05\n"
# bench instance 4: a g2 = a cos force beside the sin one
G2_COS_INSTANCE = (
    "forcing.g1.kind = sin\nforcing.g1.amplitude = 0.0447\n"
    "forcing.g2.kind = cos\nforcing.g2.amplitude = 0.0079\n"
)


def zero_forcing_spec(n: int, pot, fluid) -> ProblemSpec:
    return ProblemSpec(Grid(n, 1.0), pot, fluid, m1=1.0, m2=0.3)


def arrays(state: State) -> tuple:
    """The arrays (rho, u, mu, c) of ``state``, as the sub-solves take them."""
    return state.rho.values, state.u.values, state.mu.values, state.c.values


def lag_of(state: State, spec: ProblemSpec) -> solver.Lagged:
    return lagged(state.rho.values, state.c.values, spec)


def quiet(call, *args):
    """``call(*args)`` with numpy's warnings off, as the solver calls its sub-solves."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return call(*args)


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
        # a solve has no load factor: its stages are the eps schedule's
        with pytest.raises(TypeError, match="sigma_schedule"):
            SolveControls(sigma_schedule=(0.5, 0.25, 1.0))
        with pytest.raises(TypeError, match="sigma_schedule"):
            SolveControls(sigma_schedule=(1.0,))
        with pytest.raises(ValueError):
            SolveControls(eps_schedule=(1e-2, 1e-1))
        # nor a starting damping: every stage starts undamped
        with pytest.raises(TypeError, match="damping"):
            SolveControls(damping=0.5)

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
            "SolveControls(max_picard=500, tol_rel=1e-08, eps_schedule=(0.001,))"
        )

    @pytest.mark.parametrize("record, change, message", [
        (PotentialParams(), {"delta": 1.5}, r"^delta must lie in \(0, 1\), got 1\.5$"),
        (FluidParams(), {"lambda1": 0.0}, r"^lambda1 must be positive"),
        (SolveControls(), {"max_picard": 2.5}, r"^max_picard must be an integer >= 1"),
        (Grid(64, 1.0), {"n_cells": 4}, r"^n_cells must be an integer >= 8"),
        (SolveControls(), {"eps_schedule": (1.5,)},
         r"^eps_schedule entries must lie in \(0, 1\), got \(1\.5,\)$"),
        (ProblemSpec(Grid(64, 1.0), PotentialParams(), FluidParams()), {"g1": Grid(32, 1.0).zeros()},
         r"^g1 lives on a different grid$"),
        (State(*[Grid(64, 1.0).zeros()] * 4), {"u": Grid(32, 1.0).zeros()},
         r"^u lives on a different grid than rho$"),
    ], ids=["delta", "lambda1", "max_picard", "n_cells", "eps_schedule", "g1", "u"])
    def test_replace_validates_again(self, record, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(record, **change)

    @pytest.mark.parametrize("record, name", [
        (StageLog(1e-3), "residuals"),
        (ConvergenceLog(), "stages"),
    ], ids=["StageLog", "ConvergenceLog"])
    def test_logs_are_frozen_but_their_lists_grow(self, record, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, [])
        getattr(record, name).append(None)
        assert getattr(record, name) == [None]

    def test_default_factories_give_each_log_its_own_list(self):
        a, b = StageLog(1e-3), StageLog(eps=1e-3)
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
        rho = solve_continuity(np.zeros(64), 1e-2, spec)
        assert np.max(np.abs(rho - spec.rho0)) <= 1e-13

    def test_mass_exact_for_any_velocity(self, pot, fluid):
        spec = zero_forcing_spec(128, pot, fluid)
        x = spec.grid.cell_centers()
        u = 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.sin(5 * np.pi * x)
        for eps in (0.5, 1e-1, 1e-2, 1e-3):
            rho = solve_continuity(u, eps, spec)
            assert abs(mesh.integral_of(rho, spec.grid.spacing_h) - spec.m1) <= 1e-12 * spec.m1

    def test_swamped_transport_matrix_names_the_velocity(self, pot, fluid):
        """Face velocities past 2^52 eps^2 h round eps^2 out of the column
        sums; the message gives max|u_face|/h against eps^2."""
        spec = zero_forcing_spec(128, pot, fluid)
        u = 1e12 * np.sin(np.pi * spec.grid.cell_centers())
        with pytest.raises(solver.SingularSystemError) as info:
            solve_continuity(u, 1e-3, spec)
        found = re.fullmatch(r"transport matrix lost diagonal dominance \(eps=0\.001, n=128\): "
                             r"incoming max\|u_face\|/h (\S+) against eps\^2 (\S+)", str(info.value))
        assert found, str(info.value)
        assert float(found[2]) == 1e-6 and float(found[1]) > 1e14

    def test_negative_density_is_named(self, pot, fluid):
        """A manufactured continuity source of -50 in one cell drives the
        M-matrix solve negative there, which is named with the minimum."""
        spec = zero_forcing_spec(64, pot, fluid)
        source = np.zeros(64)
        source[32] = -50.0
        spec = dataclasses.replace(spec, mms_sources=solver.MmsSources(continuity=spec.grid.field(source)))
        with pytest.raises(solver.SingularSystemError,
                           match=r"^continuity solve produced negative density -4\.95954e\+07$"):
            solve_continuity(np.zeros(64), 1e-3, spec)

    def test_positivity_under_strong_advection(self, pot, fluid):
        spec = zero_forcing_spec(128, pot, fluid)
        x = spec.grid.cell_centers()
        u = 2.0 * np.sin(np.pi * x) * np.cos(3 * np.pi * x)
        rho = solve_continuity(u, 1e-2, spec)
        assert np.min(rho) >= 0.0


class TestSubSolveTrivialCases:
    def test_mu_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        mu, proj = solve_mu(*arrays(state), lag_of(state, spec), 1e-2, spec)
        assert proj <= 1e-14
        assert np.max(np.abs(mu - dF_delta(spec.c0, pot))) <= 1e-12

    def test_c_constant_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        c, proj = solve_c(*arrays(state), lag_of(state, spec), 1e-2, spec)
        assert proj <= 1e-14
        assert np.max(np.abs(c - spec.c0)) <= 1e-12

    def test_flow_coupled_keeps_rest_state(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        rho, u = solve_flow_coupled(*arrays(state), lag_of(state, spec), 1e-2, spec)
        assert np.max(np.abs(u)) <= 1e-13
        assert np.max(np.abs(rho - spec.rho0)) <= 1e-10


class TestNeumannConstants:
    def test_mu_meets_weighted_constraint(self, pot, fluid):
        spec = ProblemSpec(Grid(128, 1.0), pot, fluid, m1=1.0, m2=0.3)
        x = spec.grid.cell_centers()
        state = State(*(spec.grid.field(v) for v in (
            1.0 + 0.3 * np.cos(np.pi * x), 0.1 * np.sin(np.pi * x),
            np.zeros_like(x), 0.2 * np.cos(2 * np.pi * x))))
        mu, _ = solve_mu(*arrays(state), lag_of(state, spec), 1e-2, spec)
        rho, h = state.rho.values, spec.grid.spacing_h
        lhs = mesh.integral_of(rho * mu, h)
        rhs = mesh.integral_of(rho * dF_delta(state.c.values, pot), h)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("sub_solve", [solve_mu, solve_c], ids=["mu", "c"])
    def test_zero_density_is_degenerate(self, pot, fluid, sub_solve):
        spec = zero_forcing_spec(32, pot, fluid)
        state = State(spec.grid.zeros(), spec.grid.zeros(), spec.grid.zeros(), spec.grid.field(0.1))
        with pytest.raises(mesh.DegenerateWeightError, match="density-weighted constraint is degenerate"):
            sub_solve(*arrays(state), lag_of(state, spec), 1e-2, spec)


def _spiked_state(n: int, **spikes) -> State:
    """rho = 2, u = mu = c = 0, except ``name=(cell, value)`` entries."""
    g = Grid(n, 1.0)
    vals = {"rho": np.full(n, 2.0), "u": np.zeros(n), "mu": np.zeros(n), "c": np.zeros(n)}
    for name, (cell, value) in spikes.items():
        vals[name][cell] = value
    return State(*(g.field(vals[k]) for k in ("rho", "u", "mu", "c")))


def _block_at_tiny_viscosity(state: State, spec: ProblemSpec):
    """The (rho, u) block at lambda1 = 1e-300, where the first row's
    f_0 / (2 visc / h^2) passes the float range while its rows do not."""
    spec = dataclasses.replace(spec, fluid=FluidParams(lambda1=1e-300))
    return solve_flow_coupled(*arrays(state), lag_of(state, spec), 1e-2, spec)


def _with_source_at_cell_32(sub_solve, name: str):
    """``sub_solve`` for a spec whose manufactured source of equation ``name``
    is 1.797e308 in cell 32, so that adding it to a right side of 1e305 or
    more there overflows after the builder's own values were finite."""
    def call(state: State, spec: ProblemSpec):
        src = np.zeros(spec.grid.n_cells)
        src[32] = 1.797e308
        spec = dataclasses.replace(
            spec, mms_sources=solver.MmsSources(**{name: spec.grid.field(src)}))
        return sub_solve(*arrays(state), lag_of(state, spec), 1e-2, spec)
    return call


class TestNonFiniteRightSide:
    """An overflowing right side names its field and sub-solve, called with
    numpy's warnings off as the solver calls it."""

    @pytest.mark.parametrize("call, spikes, message", [
        (lambda s, spec: solver._momentum_forcing(*arrays(s), lag_of(s, spec), 1e-2, spec),
         {"u": (32, 1e200)},
         "momentum sub-solve: the momentum right side is not finite in 2 of 64 cells; "
         "incoming max |rho| 2, |u| 1e+200"),
        (lambda s, spec: solve_mu(*arrays(s), lag_of(s, spec), 1e-2, spec),
         {"u": (32, 1e300), "c": (33, 1e10)},
         "mu sub-solve: the mu right side is not finite in 1 of 64 cells; incoming max"),
        (lambda s, spec: solve_c(*arrays(s), lag_of(s, spec), 1e-2, spec), {"mu": (32, 1e308)},
         "c sub-solve: the c right side is not finite in 1 of 64 cells; incoming max"),
        (_block_at_tiny_viscosity, {"u": (32, 1e20)},
         "(rho, u) block: the velocity is not finite in 64 of 64 cells"),
        # eps rho c = 1e305 and -rho mu = 2e306 in cell 32, plus the source there
        (_with_source_at_cell_32(solve_mu, "mu"), {"c": (32, 5e306)},
         "mu sub-solve: the mu right side is not finite in 1 of 64 cells; "
         "incoming max |rho| 2, |u| 0, |mu| 0, |c| 5e+306"),
        (_with_source_at_cell_32(solve_c, "c"), {"mu": (32, -1e306)},
         "c sub-solve: the c right side is not finite in 1 of 64 cells; "
         "incoming max |rho| 2, |u| 0, |mu| 1e+306, |c| 0"),
        # -rho mu c' = 1.28e305 in cell 32, plus the source there
        (_with_source_at_cell_32(solve_flow_coupled, "momentum"),
         {"mu": (32, 1e306), "c": (31, 2e-3)},
         "momentum sub-solve: the momentum right side is not finite in 1 of 64 cells; "
         "incoming max |rho| 2, |u| 0, |mu| 1e+306, |c| 0.002"),
    ], ids=["momentum", "mu", "c", "block-velocity", "mu-source", "c-source", "momentum-source"])
    def test_names_field_and_sub_solve(self, pot, fluid, call, spikes, message):
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=2.0)
        with pytest.raises(mesh.NonFiniteError) as info:
            quiet(call, _spiked_state(64, **spikes), spec)
        assert str(info.value).startswith(message)


class TestNonFiniteConstant:
    """A Neumann constant whose rho-weighted integral overflows names its
    sub-solve, called with numpy's warnings off as the solver calls it."""

    @pytest.mark.parametrize("sub_solve, field", [(solve_mu, "c"), (solve_c, "mu")],
                             ids=["mu", "c"])
    def test_names_the_sub_solve(self, pot, fluid, sub_solve, field):
        """rho = 1e160 and a right side of order 1e300 (from c, or from mu,
        of order 1e140) make a Poisson solution whose product with rho
        passes the float range.  The two sub-solves read only dF and c' of
        the lag, so the pressure is not evaluated at that density."""
        spec = ProblemSpec(Grid(64, 1.0), pot, fluid, m1=2.0)
        g = spec.grid
        fields = {"rho": g.field(1e160), "u": g.zeros(), "mu": g.zeros(), "c": g.field(0.1)}
        fields[field] = g.field(1e140 * np.cos(np.pi * g.cell_centers()))
        state = State(**fields)
        lag = quiet(solver.lagged_phase, state.c.values, spec)
        with pytest.raises(mesh.NonFiniteError) as info:
            quiet(sub_solve, *arrays(state), solver.Lagged(*lag, None, None), 1e-2, spec)
        assert str(info.value) == (
            f"{sub_solve.__name__[6:]} sub-solve: the constant of its density-weighted "
            "constraint is not finite; max |rho| 1e+160"
        )


def field_checks_of_one_step(monkeypatch, damping: float) -> int:
    """The Field checks of one Picard step at ``damping`` on the forced
    default, counted as bench/spans.py counts them, from the state that one
    undamped step off the constant state reaches."""
    cfg = parse_config_text(FORCED_DEFAULT)
    spec, eps = cfg.spec, cfg.controls.eps_schedule[0]
    state, _ = picard_step(constant_state(spec, eps), eps, spec, 1.0)
    checks = []
    field_init = mesh.Field.__post_init__

    def counted(field):
        checks.append(field)
        field_init(field)

    monkeypatch.setattr(mesh.Field, "__post_init__", counted)
    picard_step(state, eps, spec, damping)
    return len(checks)


def scans_and_records_of_one_solve(monkeypatch) -> dict:
    """The np.isfinite scans, the Field and State constructions and the
    np.errstate guards of one forced n = 256 continuation_solve."""
    cfg = parse_config_text("domain.n_cells = 256\n" + FORCED_DEFAULT)
    counts = dict.fromkeys(("isfinite", "Field", "State", "errstate"), 0)

    def counting(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "isfinite", counting("isfinite", np.isfinite))
    monkeypatch.setattr(mesh.Field, "__post_init__", counting("Field", mesh.Field.__post_init__))
    monkeypatch.setattr(State, "__post_init__", counting("State", State.__post_init__))
    monkeypatch.setattr(State, "_from_solve", counting("State", State._from_solve))
    monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
    continuation_solve(cfg.spec, cfg.controls)
    return counts


class TestFieldConstructions:
    def test_one_picard_step_wraps_only_sub_solve_results(self, monkeypatch):
        """4 Field checks per undamped step: the returned (rho, u, mu, c).
        The sub-solves take and return arrays (9 when each returned Fields and
        the mu and c solves wrapped their right sides and Laplacian solutions)."""
        assert field_checks_of_one_step(monkeypatch, 1.0) == 4

    def test_one_damped_picard_step_wraps_the_blends_too(self, monkeypatch):
        """Below damping 1 the blended u, mu and c are the returned fields: 4
        (12 when the proposals were Fields as well)."""
        assert field_checks_of_one_step(monkeypatch, 0.5) == 4

    def test_one_picard_step_evaluates_each_lagged_coefficient_once(self, monkeypatch):
        """The step's one record is the only place the potential evaluators
        run: dF_delta once, and pressure once for both Pi and Pi'."""
        cfg = parse_config_text(FORCED_DEFAULT)
        spec, eps = cfg.spec, cfg.controls.eps_schedule[0]
        state = constant_state(spec, eps)
        names = ("dF_delta", "pressure")
        calls = []

        def counting(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in names:
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        picard_step(state, eps, spec, 1.0)
        assert sorted(calls) == sorted(names)

    def test_one_solve_scans_each_array_once(self, monkeypatch):
        """A forced n = 256 solve, the start and one Picard step, makes 36
        finiteness scans, each by the check that names its array; the two
        velocities' checks read only the last prefix sum (41 when the
        sub-solves returned Fields; 56 before that).  It builds 8 Fields, the
        two returned States' (21 when the sub-solves passed (rho, u, mu, c)
        as States), and 2 States (7).  It enters 6 numpy warning guards: one
        each in hydrostatic_density and the start's continuity velocity, and
        one per start and per step around the sub-solves, with pressure's own
        inside it (18 when each sub-solve and right side entered its own)."""
        assert scans_and_records_of_one_solve(monkeypatch) == {
            "isfinite": 36, "Field": 8, "State": 2, "errstate": 6}

    def test_lagged_takes_one_density_logarithm(self, monkeypatch):
        """Pi and Pi' come from one guarded scan and one logarithm of rho (3
        when pressure_slope, artificial_pressure and pressure each took one)."""
        cfg = parse_config_text(FORCED_DEFAULT)
        spec = cfg.spec
        state = constant_state(spec, cfg.controls.eps_schedule[0])
        sizes, log = [], np.log

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counted)
        lag_of(state, spec)
        assert sizes.count(spec.grid.n_cells) == 1


def frames_of_one_warm_solve() -> dict:
    """The Python frames, per code file, that a forced n = 256
    continuation_solve enters after one solve of the same problem, as
    ``sys.setprofile`` reports them (a generator's every resumption counts)."""
    cfg = parse_config_text("domain.n_cells = 256\n" + FORCED_DEFAULT)
    continuation_solve(cfg.spec, cfg.controls)
    frames = {}

    def count(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            frames[path] = frames.get(path, 0) + 1

    sys.setprofile(count)
    try:
        continuation_solve(cfg.spec, cfg.controls)
    finally:
        sys.setprofile(None)
    return frames


class TestCallBudget:
    """A forced n = 256 solve costs about as much in calls as in arithmetic,
    so its Python frames are budgeted."""

    def test_no_reduction_goes_through_numpy_methods(self):
        """Every reduction calls its ufunc's ``reduce``: ``.sum()``, ``.max()``,
        ``.min()`` and ``.all()`` each entered numpy's ``_methods.py`` first
        (107 of 417 frames)."""
        numpy_dir = Path(np.__file__).parent
        methods = {path: k for path, k in frames_of_one_warm_solve().items()
                   if Path(path).name == "_methods.py" and numpy_dir in Path(path).parents}
        assert methods == {}

    def test_calls_into_the_package_stay_within_budget(self):
        """178 frames in chns1d on CPython 3.11, budgeted at 180 (173 before
        ln(1/delta) and Pi' each had one helper in potential, at 5 and 2
        frames, and the bands took the upwind split in, at -4; 275 when the
        spec's constants were properties, the potential evaluators converted
        scalars in helpers and the LAPACK adapters took each pointer through one)."""
        package = Path(solver.__file__).parent
        calls = sum(k for path, k in frames_of_one_warm_solve().items()
                    if Path(path).parent == package)
        assert calls <= 180


class TestFlowCoupledBlock:
    @pytest.mark.parametrize("n", [10, 64])
    def test_solves_linearized_equations(self, pot, fluid, n):
        """Away from rest the returned pair satisfies both equations of the docstring."""
        eps = 0.1
        spec = make_forced_spec(n, pot, fluid)
        h = spec.grid.spacing_h
        rng = np.random.default_rng(n)
        rho_t = 1.0 + 0.3 * rng.random(n)
        u_t = 0.05 * rng.standard_normal(n)
        mu_t, c_t = rng.standard_normal(n), 0.3 * rng.random(n)
        lag = lagged(rho_t, c_t, spec)
        rho, u = solve_flow_coupled(rho_t, u_t, mu_t, c_t, lag, eps, spec)
        assert np.min(rho) > 0.0

        rho_f, uf = face_means(rho_t), face_means(u)
        correction = rho_f * (uf - face_means(u_t))
        terms = [
            eps**2 * rho,
            np.diff(solver._upwind_flux(rho, u_t)) / h,
            np.diff(correction) / h,
            -eps**4 * mesh.laplacian_of(rho, "neumann", h),
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
            fluid.visc * mesh.laplacian_of(u, "dirichlet0", h),
            -mesh.gradient_of(pi_slope * (rho - rho_t), "neumann", h),
            spec.g1.values * (rho - rho_t),
            -solver._momentum_forcing(rho_t, u_t, mu_t, c_t, lag, eps, spec),
        ]
        assert np.max(np.abs(sum(terms))) <= 1e-10 * max(np.max(np.abs(t)) for t in terms)

    @pytest.mark.parametrize("n", [10, 64])
    def test_density_proposal_keeps_the_mass(self, pot, fluid, n):
        """The continuity rows telescope, and the block solves in their
        running sums: away from rest, at eps = 1e-3, the returned density
        keeps m1 to roundoff (2.2e-16 of it measured; the interleaved LU
        solve kept 3e-11)."""
        spec = make_forced_spec(n, pot, fluid)
        g = spec.grid
        rng = np.random.default_rng(n)
        state = State(g.field(1.0 + 0.3 * rng.random(n)), g.field(0.05 * rng.standard_normal(n)),
                      g.field(rng.standard_normal(n)), g.field(0.3 * rng.random(n)))
        rho, _ = solve_flow_coupled(*arrays(state), lag_of(state, spec), 1e-3, spec)
        assert np.min(rho) > 0.0  # unclipped, so rho is the proposal
        assert abs(mesh.integral_of(rho, g.spacing_h) - spec.m1) <= 1e-14 * spec.m1

    def test_block_assembly_memory_is_bounded(self):
        """At n = 4096 the (7, n - 1) band storage of the pair sums is 224 KB.
        Its rows are written in place, so one call peaks at 642 KB: the band
        storage, one scratch band, the three face-coefficient rows and the
        block's own face arrays alive together (707 KB before the block freed
        the transport coefficients it has read before the band storage)."""
        cfg = parse_config_text("domain.n_cells = 4096\n" + FORCED_DEFAULT)
        state, _ = continuation_solve(cfg.spec, cfg.controls)
        lag = lag_of(state, cfg.spec)
        solve_flow_coupled(*arrays(state), lag, 1e-3, cfg.spec)  # a process's one-time allocations
        peak = traced_peak(lambda: solve_flow_coupled(*arrays(state), lag, 1e-3, cfg.spec))
        assert peak < 740 * 1024

    def test_solve_memory_is_bounded(self):
        """A whole forced solve at n = 4096, the start and one Picard step,
        peaks at 931 KB traced after a first solve."""
        cfg = parse_config_text("domain.n_cells = 4096\n" + FORCED_DEFAULT)
        continuation_solve(cfg.spec, cfg.controls)  # a process's one-time allocations
        assert traced_peak(lambda: continuation_solve(cfg.spec, cfg.controls)) < 1045 * 1024


def face_means(a: np.ndarray) -> np.ndarray:
    """Means of adjacent cell values at the n+1 faces, zero at the walls."""
    out = np.zeros(a.size + 1)
    out[1:-1] = 0.5 * (a[:-1] + a[1:])
    return out


@functools.lru_cache(maxsize=8)
def stencil_matrix(kernel, bc: str, g: Grid):
    """The sparse n x n matrix of the array kernel ``kernel`` (such as
    mesh.gradient_of) under ``bc`` on ``g``: its column j is the kernel
    applied to the j-th column of the identity."""
    n, rows, cols, vals = g.n_cells, [], [], []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        col = kernel(e, bc, g.spacing_h)
        i = np.flatnonzero(col)
        rows.append(i)
        cols.append(np.full(i.size, j))
        vals.append(col[i])
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n))


def interleaved_block(state: State, eps: float, spec: ProblemSpec):
    """The 2n rows of the linearized (rho, u) block, continuity rows first,
    as a sparse matrix in (rho, u) and a right side, assembled from the
    equations of the solve_flow_coupled docstring: the system the solver
    once solved as one interleaved banded LU, kept as the oracle."""
    g, lag = spec.grid, lag_of(state, spec)
    n, h = g.n_cells, g.spacing_h
    rho_t = state.rho.values
    uf, rho_f = face_means(state.u.values), face_means(rho_t)
    up, um = np.maximum(uf, 0.0), np.minimum(uf, 0.0)

    def tri(diag, upper, lower):
        return sparse.diags([lower, diag, upper], [-1, 0, 1], shape=(n, n))

    # eps^2 rho + (F_i+1 - F_i)/h - eps^4 rho'', F the upwind flux at u_old, and
    # the correction flux rho_old (u - u_old) at the faces
    continuity = (eps**2 * sparse.identity(n)
                  + tri((up[1:] - um[:-1]) / h, um[1:-1] / h, -up[1:-1] / h)
                  - eps**4 * stencil_matrix(mesh.laplacian_of, "neumann", g))
    flux = rho_f / (2.0 * h)
    correction = tri(flux[1:] - flux[:-1], flux[1:-1], -flux[1:-1])
    momentum_u = spec.fluid.visc * stencil_matrix(mesh.laplacian_of, "dirichlet0", g)
    # the bulk force rho g1, implicit in rho: a diagonal g1; the pressure's
    # centred Neumann gradient of Pi' times the density
    momentum_rho = (sparse.diags(spec.g1.values)
                    - stencil_matrix(mesh.gradient_of, "neumann", g) @ sparse.diags(lag.pi_slope))
    matrix = sparse.bmat([[continuity, correction], [momentum_rho, momentum_u]])
    old_flux = rho_f * uf
    rhs = np.concatenate([
        solver._continuity_rhs(eps, spec) + np.diff(old_flux) / h,
        solver._momentum_forcing(*arrays(state), lag, eps, spec) + momentum_rho @ rho_t,
    ])
    return matrix.tocsr(), rhs


def block_row_residual(state: State, eps: float, spec: ProblemSpec) -> float:
    """The largest residual of the 2n block rows at solve_flow_coupled's
    (rho, u), each row scaled by the sum of its terms' magnitudes."""
    rho, u = solve_flow_coupled(*arrays(state), lag_of(state, spec), eps, spec)
    matrix, rhs = interleaved_block(state, eps, spec)
    z = np.concatenate([rho, u])
    scale = abs(matrix) @ np.abs(z) + np.abs(rhs)
    return float(np.max(np.abs(matrix @ z - rhs) / scale))


class TestBlockAgainstTheInterleavedRows:
    """solve_flow_coupled solves the n - 1 momentum pair sums in the running
    sums of the density; its (rho, u) meets every one of the 2n rows of the
    interleaved block to roundoff.  Residuals are compared, not solutions:
    u is about 1e-9, and two solves agree on it only to about 1e-9 of that."""

    @staticmethod
    def start(text: str):
        cfg = parse_config_text(text)
        eps = cfg.controls.eps_schedule[0]
        return hydrostatic_state(cfg.spec, eps), eps, cfg.spec

    @pytest.mark.parametrize("text", [
        "domain.n_cells = 256\n" + FORCED_DEFAULT,
        "domain.n_cells = 4096\n" + FORCED_DEFAULT,
        "domain.n_cells = 256\n" + G2_COS_INSTANCE,
        "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 10\n"
        "problem.m1 = 2\nproblem.m2 = 0.6\nfluid.lambda1 = 0.1\n",
    ], ids=["default-256", "default-4096", "g2-cos-256", "m1-2-sin-10"])
    def test_starts_meet_every_row(self, text):
        """At the start and after three undamped steps from it."""
        state, eps, spec = self.start(text)
        for _ in range(4):
            assert block_row_residual(state, eps, spec) <= 1e-12
            state, _ = picard_step(state, eps, spec, 1.0)

    def test_constant_state_meets_every_row(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        assert block_row_residual(constant_state(spec, 1e-3), 1e-3, spec) <= 1e-12

    def test_manufactured_state_meets_every_row(self):
        """The variable-density manufactured state with its four sources."""
        mms = build_manufactured(eps=0.1)
        grid = Grid(128, 1.0)
        assert block_row_residual(mms.state(grid), mms.eps, mms.spec(grid)) <= 1e-12

    def test_heavy_mixture_meets_the_rows_where_the_lu_did_not(self):
        """m1 = 2, lambda1 = 0.1, sin 5 at n = 128, at the start: the
        interleaved LU left continuity residuals of 4.4e-13 against a right
        side of 2.0e-6 (1.1e-7 of a row's terms), the density floor of this
        class; the pair sums leave 6.1e-20."""
        state, eps, spec = self.start(
            "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 5\n"
            "problem.m1 = 2\nproblem.m2 = 0.6\nfluid.lambda1 = 0.1\n")
        rho, u = solve_flow_coupled(*arrays(state), lag_of(state, spec), eps, spec)
        matrix, rhs = interleaved_block(state, eps, spec)
        n = spec.grid.n_cells
        residual = matrix @ np.concatenate([rho, u]) - rhs
        assert np.abs(residual[:n]).max() <= 1e-12 * np.abs(rhs[:n]).max()


class TestUpwindFlux:
    def test_flux_divergence_is_the_advective_part_of_the_transport_bands(self):
        """The diagnostics flux and the continuity solve split the face
        velocities alike: the density that solve_continuity returns meets
        eps^2 rho + (flux)' - eps^4 rho'' = eps^2 rho0 with that flux."""
        n, eps = 64, 0.1
        spec = ProblemSpec(Grid(n, 1.0), PotentialParams(), FluidParams(), m1=1.3)
        rng = np.random.default_rng(7)
        u = 0.05 * rng.standard_normal(n)
        rho = solve_continuity(u, eps, spec)
        terms = [
            eps**2 * rho,
            np.diff(solver._upwind_flux(rho, u)) / spec.grid.spacing_h,
            -eps**4 * mesh.laplacian_of(rho, "neumann", spec.grid.spacing_h),
            -np.full(n, eps**2 * spec.rho0),
        ]
        assert np.max(np.abs(sum(terms))) <= 1e-13 * max(np.max(np.abs(t)) for t in terms)


def _banded_oracle(solve, args):
    """Solution of one recorded banded system by scipy.linalg.solve_banded."""
    if solve is mesh.solve_tridiagonal:
        dl, d, du, b = args
        return solve_banded((1, 1), np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]]), b)
    kl, ku, ab, b = args
    assert not ab[:kl].any()  # the fill-in rows start empty
    return solve_banded((kl, ku), ab[kl:], b)


def _forced_default_systems(n, monkeypatch):
    """(name, solve, arguments, solution) of every banded LAPACK solve of one
    forced-default Picard step from its third iterate, in call order; ``solve``
    is :func:`mesh.solve_tridiagonal` or :func:`mesh.solve_banded`."""
    spec = parse_config_text(f"domain.n_cells = {n}\n{FORCED_DEFAULT}").spec
    state = constant_state(spec, 0.1)
    for _ in range(2):
        state, _ = picard_step(state, 0.1, spec, 1.0)

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
        picard_step(state, 0.1, spec, 1.0)
    return calls


class TestLapackSolves:
    """The direct LAPACK calls solve the systems scipy.linalg.solve_banded would."""

    @pytest.mark.parametrize("n", [256, 4096])
    def test_forced_default_systems_match_solve_banded(self, n, monkeypatch):
        """Two LAPACK calls per Picard step, the Laplacians need none: the
        block's pair sums, bands (2, 2) in n - 1 unknowns, and the continuity
        rows' running sums, tridiagonal in n - 1."""
        calls = _forced_default_systems(n, monkeypatch)
        assert [(name, solve) for name, solve, _, _ in calls] == [
            ("(rho, u) block", mesh.solve_banded),
            ("continuity", mesh.solve_tridiagonal),
        ]
        assert calls[0][2][:2] == [2, 2] and calls[0][2][3].size == n - 1
        assert calls[1][2][1].size == n - 1
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
        # tridiag(1, 0, 1) of odd order n - 1 is singular, and its row sums of
        # 2 pass solve_continuity's diagonal-dominance check
        n = forced_spec.grid.n_cells
        assert (n - 1) % 2 == 1
        zero, one = np.zeros(n - 1), np.ones(n - 1)
        bands = (zero, zero, zero, zero, one, one)  # uf, up, um, diag, upper, lower
        monkeypatch.setattr(solver, "_continuity_bands", lambda u, eps, h: bands)
        with pytest.raises(solver.SingularSystemError, match="continuity: the matrix is singular"):
            solve_continuity(np.zeros(n), 0.1, forced_spec)

    def test_singular_block_is_named(self, forced_spec, monkeypatch):
        # without the pressure feedback and the bulk force g1, and with the
        # face velocities blind to the density (a face density of 1/inv =
        # infinity), the pair sums' matrix is zero
        g, n = forced_spec.grid, forced_spec.grid.n_cells
        spec = dataclasses.replace(forced_spec, g1=g.zeros())
        pair_sums = solver._pair_sum_solve
        monkeypatch.setattr(solver, "_pair_sum_solve", lambda slope, lower, upper, inv, *rest:
                            pair_sums(slope, lower, upper, 0.0 * inv, *rest))
        state = State(g.field(1.0), g.zeros(), g.zeros(), g.field(0.3))
        lag = lag_of(state, spec)._replace(pi_slope=np.zeros(n))
        with pytest.raises(solver.SingularSystemError, match=r"\(rho, u\) block: the matrix is singular"):
            quiet(solve_flow_coupled, *arrays(state), lag, 0.1, spec)
        assert solver.SingularSystemError in solver.SOLVER_ERRORS
        assert mesh.NonFiniteError in solver.SOLVER_ERRORS


class TestPicardStep:
    def test_constant_state_is_fixed_point(self, pot, fluid):
        spec = zero_forcing_spec(64, pot, fluid)
        state = constant_state(spec, 1e-2)
        _, res = picard_step(state, 1e-2, spec, 1.0)
        assert res <= 1e-12

    def test_full_damping_equals_composition(self, forced_spec):
        state = constant_state(forced_spec, 1e-1)
        new_full, _ = picard_step(state, 1e-1, forced_spec, 1.0)

        # mu and c see the block density; the returned density is the
        # continuity solve for the (undamped) velocity
        rho, u, mu, c = arrays(state)
        lag = lagged(rho, c, forced_spec)  # all three read the incoming state's record
        rho_star, u_star = solve_flow_coupled(rho, u, mu, c, lag, 1e-1, forced_spec)
        mu_star, _ = solve_mu(rho_star, u_star, mu, c, lag, 1e-1, forced_spec)
        c_star, _ = solve_c(rho_star, u_star, mu_star, c, lag, 1e-1, forced_spec)
        assert np.array_equal(new_full.u.values, u_star)
        assert np.array_equal(new_full.mu.values, mu_star)
        assert np.array_equal(new_full.c.values, c_star)
        assert np.array_equal(new_full.rho.values, solve_continuity(u_star, 1e-1, forced_spec))

        new_half, _ = picard_step(state, 1e-1, forced_spec, 0.5)
        blend = 0.5 * u_star + 0.5 * u
        assert np.array_equal(new_half.u.values, blend)

    def test_one_continuity_solve_per_step(self, forced_spec, monkeypatch):
        state = constant_state(forced_spec, 1e-1)
        calls = []

        def counting(u, eps, spec, real=solver.solve_continuity):
            calls.append(u)
            return real(u, eps, spec)

        monkeypatch.setattr(solver, "solve_continuity", counting)
        new, _ = picard_step(state, 1e-1, forced_spec, 0.5)
        assert len(calls) == 1
        assert calls[0] is new.u.values  # for the damped velocity

    def test_residual_decreases_after_transient(self, forced_spec):
        state = constant_state(forced_spec, 1e-1)
        residuals = []
        for _ in range(25):
            state, res = picard_step(state, 1e-1, forced_spec, 1.0)
            residuals.append(res)
        # strictly decreasing until roundoff; below 1e-12 the residual wanders
        assert all(b < a for a, b in zip(residuals, residuals[1:]) if a > 1e-12)
        assert min(residuals) <= 1e-12

    def test_divergence_detector(self):
        assert not solver._diverged([1.0, 0.5, 0.25])
        assert not solver._diverged([1.0, 2.0, 4.0, 8.0, 16.0, 9.0])
        assert solver._diverged([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        assert not solver._diverged([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_projection_residuals_vanish_at_convergence(self, forced_spec):
        from chns1d.diagnostics import mean_projection_residuals

        state = constant_state(forced_spec, 1e-1)
        first = None
        for _ in range(60):
            state, res = picard_step(state, 1e-1, forced_spec, 1.0)
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


def momentum_pair_sums(state: State, eps: float, spec: ProblemSpec) -> np.ndarray:
    """Sums of adjacent momentum rows, F - visc u'', at ``state``: the
    equations the block's Newton step in the density solves."""
    rows = solver._momentum_forcing(*arrays(state), lag_of(state, spec), eps, spec)
    rows -= spec.fluid.visc * mesh.laplacian_of(state.u.values, "dirichlet0", spec.grid.spacing_h)
    return rows[:-1] + rows[1:]


class TestAdaptiveDamping:
    def test_factor_halves_on_each_rise_down_to_an_eighth(self, forced_spec, monkeypatch):
        state0 = constant_state(forced_spec, 1e-1)
        scripted = iter([1.0, 2.0, 1.5, 3.0, 2.0, 4.0, 3.0, 5.0, 1e-9])
        used = []

        def scripted_step(state, eps, spec, damping):
            used.append(damping)
            return state, next(scripted)

        monkeypatch.setattr(solver, "picard_step", scripted_step)
        ctl = SolveControls(eps_schedule=(1e-1,))
        _, log = continuation_solve(forced_spec, ctl, initial_state=state0)
        assert used == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25, 0.125, 0.125, 0.125]
        assert log.stages[0].dampings == used

    def test_each_stage_starts_undamped(self, forced_spec, monkeypatch):
        """The factor a stage halved does not carry into the next stage."""
        scripted = iter([1.0, 2.0, 1e-9, 1e-9])
        used = []

        def scripted_step(state, eps, spec, damping):
            used.append(damping)
            return state, next(scripted)

        monkeypatch.setattr(solver, "picard_step", scripted_step)
        ctl = SolveControls(eps_schedule=(1e-1, 1e-2))
        _, log = continuation_solve(forced_spec, ctl, initial_state=constant_state(forced_spec, 1e-1))
        assert used == [1.0, 1.0, 0.5, 1.0]
        assert [s.dampings for s in log.stages] == [[1.0, 1.0, 0.5], [1.0]]

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
        # floor, and the two counts would compare that noise.  Measured: 2
        # iterations adaptive, 8 at the fixed factor 1/2
        cfg = forced_default("problem.m1 = 2\n")
        spec, ctl = cfg.spec, cfg.controls
        eps = ctl.eps_schedule[0]
        start = constant_state(spec, eps)
        _, log = continuation_solve(spec, ctl, initial_state=start)
        assert all(s.residuals[-1] <= ctl.tol_rel for s in log.stages)
        state, res, half = start, np.inf, 0
        while res > ctl.tol_rel and half < ctl.max_picard:
            state, res = picard_step(state, eps, spec, 0.5)
            half += 1
        assert res <= ctl.tol_rel
        assert sum(stage_iterations(log)) < half

    def test_forced_default_iterations(self):
        cfg = forced_default(LADDER)
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [2, 3, 3]

    @pytest.mark.parametrize("text, iterations", [
        ("domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 30\n"
         "problem.m1 = 0.5\nproblem.m2 = 0.15\n", 8),
        ("domain.n_cells = 256\nforcing.g1.kind = sin\nforcing.g1.amplitude = 100\n", 10),
        ("domain.n_cells = 1024\nforcing.g1.kind = sin\nforcing.g1.amplitude = 100\n", 8),
    ], ids=["sin-30-m1-0.5-n128", "sin-100-n256", "sin-100-n1024"])
    def test_near_vacuum_converges_undamped_to_a_fixed_point(self, text, iterations):
        """Near vacuum (rho_min/rho0 1.2e-3 and 6.9e-4) the default settings
        reach an honest fixed point at damping 1.  With the bulk force rho g1
        lagged in the block, sin 30 with m1 = 0.5 wandered until the
        five-rise rule named its divergence (after 269 iterations, from a
        starting damping of 1; 37 from 1/2), and sin 100 ended in a
        SingularSystemError at n = 256 and 1024 (37 and 44 iterations from
        1/2)."""
        cfg = parse_config_text(text)
        state, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [iterations]
        assert log.stages[-1].dampings[-1] == 1.0
        assert_honest_fixed_point(state, log, cfg.spec, cfg.controls)

    def test_without_a_rise_the_stage_is_the_undamped_iteration(self):
        """Without a residual rise the adaptive rule is the plain undamped
        iteration: one path serves both."""
        cfg = forced_default(LADDER)
        spec, ctl = cfg.spec, cfg.controls
        state, log = continuation_solve(spec, ctl)
        assert all(d == 1.0 for s in log.stages for d in s.dampings)

        # reference: every stage iterated undamped from the solve's start
        ref = hydrostatic_state(spec, ctl.eps_schedule[0])
        for eps in ctl.eps_schedule:
            for _ in range(ctl.max_picard):
                ref, res = picard_step(ref, eps, spec, 1.0)
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
        # one stage at eps 1e-3 and the eps ladder that ends there
        states = [continuation_solve(spec, SolveControls(eps_schedule=epss, tol_rel=tol))[0]
                  for epss in ((1e-3,), (1e-1, 1e-2, 1e-3))]
        for name in ("rho", "u", "mu", "c"):
            a = getattr(states[0], name).values
            b = getattr(states[1], name).values
            assert np.max(np.abs(a - b)) <= 10 * tol * (1.0 + np.max(np.abs(a)))

    def test_diverging_stage_is_not_retried(self, forced_spec, monkeypatch):
        calls = []
        original = solver._run_stage

        def flaky(state, eps, spec, controls):
            calls.append(eps)
            if eps == 1e-2:
                raise solver.DivergenceError("synthetic stage failure eps=0.01")
            return original(state, eps, spec, controls)

        monkeypatch.setattr(solver, "_run_stage", flaky)
        ctl = SolveControls(eps_schedule=(1e-1, 1e-2, 1e-3))
        with pytest.raises(solver.DivergenceError, match="synthetic"):
            continuation_solve(forced_spec, ctl)
        assert calls == [1e-1, 1e-2]

    def test_strong_forcing_diverges_at_its_stage(self):
        # sin 15 with m1 = 0.5, lambda1 = 0.1 from the constant state: the
        # five-rise rule fires after 24 iterations (from the hydrostatic start
        # it converges in 3); the error names its stage
        cfg = parse_config_text(
            "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 15\n"
            "problem.m1 = 0.5\nproblem.m2 = 0.15\nfluid.lambda1 = 0.1\nsolver.max_picard = 300\n"
        )
        with pytest.raises(solver.DivergenceError, match=r"stage eps=0\.001 after 24 iterations"):
            continuation_solve(cfg.spec, cfg.controls, constant_state(cfg.spec, 1e-3))

    def test_divergence_reports_stage(self, forced_spec, monkeypatch):
        def always_fail(state, eps, spec, controls):
            raise solver.DivergenceError(f"residual diverged at stage eps={eps:g}")

        monkeypatch.setattr(solver, "_run_stage", always_fail)
        ctl = SolveControls(eps_schedule=(1e-1,))
        with pytest.raises(solver.DivergenceError, match="stage eps=0.1$"):
            continuation_solve(forced_spec, ctl)

    def test_forced_default_is_one_stage(self):
        cfg = forced_default()
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert [s.eps for s in log.stages] == [1e-3]
        assert stage_iterations(log) == [1]

    def test_large_cos_forcing_converges_in_one_stage(self):
        # the eps ladder stalls here: NotConverged at eps 0.01 after 300
        # iterations.  From the hydrostatic start one stage takes 5
        # iterations, 10 from the constant state and 18 from the start at
        # rest (u = 0)
        cfg = parse_config_text(
            "domain.n_cells = 128\nforcing.g1.kind = cos\nforcing.g1.amplitude = 12\n"
            "solver.max_picard = 300\n"
        )
        state, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [5]
        assert log.stages[0].residuals[-1] <= cfg.controls.tol_rel
        assert log.max_mass_error() <= 1e-12 * cfg.spec.m1
        assert np.min(state.rho.values) >= 0.0

    def test_max_picard_exhausted_raises_not_converged(self, pot, fluid):
        # at g1 = 0.1 sin the start is a fixed point within tol_rel; at 15 sin
        # the first residual is 3e-8
        spec = make_forced_spec(128, pot, fluid, g1_amp=15.0)
        ctl = SolveControls(max_picard=1)
        with pytest.raises(
            solver.NotConverged, match=r"stage eps=0\.001 ended at residual \S+ after 1 iterations"
        ):
            continuation_solve(spec, ctl)

    @pytest.mark.parametrize("text", [
        "domain.n_cells = 256\n" + FORCED_DEFAULT + "problem.m1 = 5\nproblem.m2 = 1\n",
        "domain.n_cells = 256\n" + FORCED_DEFAULT + "problem.m1 = 3\n",
        "domain.n_cells = 256\n" + FORCED_DEFAULT + "solver.eps_schedule = 1e-6\n",
        "domain.n_cells = 1024\n" + FORCED_DEFAULT + "problem.m1 = 2\nproblem.m2 = 0.6\n"
        "fluid.lambda1 = 0.1\nsolver.tol_rel = 1e-10\n",
        "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 10\n"
        "problem.m1 = 2\nproblem.m2 = 0.6\nfluid.lambda1 = 0.1\n",
    ], ids=["m1-5-m2-1", "m1-3", "eps-1e-6", "m1-2-tol-1e-10", "m1-2-sin-10"])
    def test_heavy_and_thin_cases_converge_in_one_iteration(self, text):
        """Cases the interleaved block's roundoff kept from a fixed point: at
        m1 = 5 (m2 = 1) and m1 = 3 it ended NotConverged after 500
        iterations (residuals 3.5e-5 and 4.3e-7), at eps = 1e-6 too (1.9e-6),
        at m1 = 2, lambda1 = 0.1 with tol_rel = 1e-10 at 6.8e-9, and sin 10
        there took 297 iterations to a state that one more undamped step
        moved by 3.1e-7.  Each now takes one iteration to a fixed point."""
        cfg = parse_config_text(text)
        state, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [1]
        assert_honest_fixed_point(state, log, cfg.spec, cfg.controls)

    def test_blow_up_is_named_by_the_block(self):
        """From the constant state the interleaved block's iterate blew up
        within a few steps, its density proposal losing the mass at Pi' past
        1e14.  The pair sums keep the mass: at sin 10 with m1 = 0.5, from the
        constant state, the stage runs out of its 300 iterations instead, the
        residual near 0.02 at damping 1/8, named with its stage.  (From the
        hydrostatic start it converges in 3.)"""
        cfg = parse_config_text(
            "domain.n_cells = 128\nforcing.g1.kind = sin\nforcing.g1.amplitude = 10\n"
            "problem.m1 = 0.5\nproblem.m2 = 0.15\nsolver.max_picard = 300\n"
        )
        with pytest.raises(solver.NotConverged) as info:
            continuation_solve(cfg.spec, cfg.controls, constant_state(cfg.spec, 1e-3))
        found = re.fullmatch(r"stage eps=0\.001 ended at residual (\S+) after 300 "
                             r"iterations \(tol_rel 1e-08\)", str(info.value))
        assert found, str(info.value)
        assert float(found[1]) > 1e-3


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
        """rho > 0 with mass m1 to 1e-12 m1.  The limit's density keeps the
        smooth balance: h(rho_i) - h(rho_i-1) is the trapezoid integral of
        g1 + g2/rho between the two cell centres, and its continuity velocity
        returns it from the continuity solve.  The start is one undamped
        pass of the step's sub-solves from there: the block's Newton step in
        the density cuts the sums of adjacent momentum rows by a factor 250
        or more (the largest remaining fraction over these cases is 3.7e-3,
        cos 30), and mu and c are what solve_mu then solve_c return at the
        block's (rho, u) from the limit's (dF_delta(c0), c0): they meet the
        relative-mass constraint, and differ from the limit by O(eps) (at
        most 0.027 eps for mu and 0.0013 eps for c over these cases)."""
        eps = 1e-3
        spec = self.forced(kind, amplitude, g2).spec
        g, h = spec.grid, spec.grid.spacing_h
        state = hydrostatic_state(spec, eps)
        assert state.rho.values.min() > 0.0
        assert abs(mesh.integral_of(state.rho.values, h) - spec.m1) <= 1e-12 * spec.m1
        smooth = solver.hydrostatic_density(spec)
        u = g.field(solver._continuity_velocity(smooth, eps, spec))
        back = solve_continuity(u.values, eps, spec)
        assert np.max(np.abs(back - smooth)) <= 1e-12 * smooth.max(), np.max(np.abs(back - smooth))
        mu0, c0 = g.field(dF_delta(spec.c0, spec.potential)), g.field(spec.c0)
        flow = State(state.rho, state.u, mu0, c0)  # the block's (rho, u), the limit's phase pair
        lag = lag_of(flow, spec)
        mu, _ = solve_mu(*arrays(flow), lag, eps, spec)
        c, _ = solve_c(state.rho.values, state.u.values, mu, c0.values, lag, eps, spec)
        assert np.array_equal(state.mu.values, mu)
        assert np.array_equal(state.c.values, c)
        assert constraint_check(state, spec, eps)[1] <= 1e-15 * spec.m1
        assert np.max(np.abs(state.mu.values - mu0.values)) <= 0.05 * eps
        assert np.max(np.abs(state.c.values - spec.c0)) <= 0.005 * eps
        ent = potential.enthalpy(np.log(smooth), spec.potential.delta, spec.fluid)[0]
        f = spec.g1.values + spec.g2.values / smooth
        balance = np.diff(ent) - 0.5 * h * (f[:-1] + f[1:])
        assert np.max(np.abs(balance)) <= 1e-10 * np.max(np.abs(ent)), np.max(np.abs(balance))
        before = np.abs(momentum_pair_sums(State(g.field(smooth), u, mu0, c0), eps, spec)).max()
        after = np.abs(momentum_pair_sums(flow, eps, spec)).max()
        assert after <= 5e-3 * before, (before, after)

    def test_start_velocity_saves_the_wall_force_an_iteration(self):
        """A g2 = a cos force is nonzero at the walls.  From the start's
        velocity the solve takes 1 iteration; from the same start at rest
        (u = 0) it takes 3, its first two residuals above tol_rel."""
        cfg = parse_config_text("domain.n_cells = 1024\n" + G2_COS_INSTANCE)
        start = hydrostatic_state(cfg.spec, cfg.controls.eps_schedule[0])
        assert np.abs(start.u.values).max() > 0.0
        _, log = continuation_solve(cfg.spec, cfg.controls)
        assert stage_iterations(log) == [1]
        at_rest = dataclasses.replace(start, u=cfg.spec.grid.zeros())
        _, log = continuation_solve(cfg.spec, cfg.controls, initial_state=at_rest)
        assert stage_iterations(log) == [3]

    @pytest.mark.parametrize("n, forcing", [
        (256, FORCED_DEFAULT),
        (1024, FORCED_DEFAULT),
        (4096, FORCED_DEFAULT),
        # with a g2 = a cos force the converged density carries an odd-even
        # mode, which the start's Newton step puts in
        (256, G2_COS_INSTANCE),
        (1024, G2_COS_INSTANCE),
        (4096, G2_COS_INSTANCE),
    ], ids=["default-256", "default-1024", "default-4096", "g2-cos-256", "g2-cos-1024",
            "g2-cos-4096"])
    def test_one_iteration_is_an_honest_fixed_point(self, n, forcing):
        """From the start on the discrete balance with its phase pair solved,
        the forced default and the g2 = a cos bench instance converge in one
        Picard iteration at n = 256 to 4096, and one more undamped step from
        the returned state moves no field by more than tol_rel."""
        cfg = parse_config_text(f"domain.n_cells = {n}\n" + forcing)
        ctl = cfg.controls
        state, log = continuation_solve(cfg.spec, ctl)
        assert stage_iterations(log) == [1]
        after, _ = picard_step(state, ctl.eps_schedule[-1], cfg.spec, 1.0)
        for name in ("rho", "u", "mu", "c"):
            old, new = getattr(state, name).values, getattr(after, name).values
            assert np.abs(new - old).max() <= ctl.tol_rel * (1.0 + np.abs(old).max()), name

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
            rho = solve_continuity(mms.u(grid.cell_centers()), mms.eps, spec)
            errs.append(np.max(np.abs(rho - mms.rho(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 0.9

    def test_flow_coupled_order(self):
        """At constant density the upwind flux is exact to O(h^2), so the
        (rho, u) block, from the exact state, is second order in both fields;
        with the density amplitude 0.3 the upwind continuity makes u first order."""
        mms = build_manufactured(eps=0.1, rho_amp=0.0)
        errs = {"rho": [], "u": []}
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            x = grid.cell_centers()
            rho, u = solve_flow_coupled(*arrays(state), lag_of(state, spec), mms.eps, spec)
            errs["rho"].append(np.max(np.abs(rho - mms.rho(x))))
            errs["u"].append(np.max(np.abs(u - mms.u(x))))
        for name, e in errs.items():
            orders = observed_orders(e)
            assert all(1.9 <= o <= 2.1 for o in orders), (name, orders)

    def test_flow_coupled_order_variable_density(self):
        """With the density amplitude 0.3 the block still converges, but the
        first-order upwind continuity makes both fields first order: measured
        orders 1.06, 1.03, 1.01 in rho and 0.95, 0.97, 0.99 in u."""
        mms = build_manufactured(eps=0.1)
        errs = {"rho": [], "u": []}
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            x = grid.cell_centers()
            rho, u = solve_flow_coupled(*arrays(state), lag_of(state, spec), mms.eps, spec)
            errs["rho"].append(np.max(np.abs(rho - mms.rho(x))))
            errs["u"].append(np.max(np.abs(u - mms.u(x))))
        for name, e in errs.items():
            orders = observed_orders(e)
            assert all(0.9 <= o <= 1.1 for o in orders), (name, orders)

    def test_momentum_right_side_order(self):
        """The lagged momentum right side plus its source is visc u*'' to
        second order on the variable density, which checks the Pi(rho)' and
        eps^4 rho' u' terms that the constant-density block test zeroes."""
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512, 1024):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            x = grid.cell_centers()
            got = solver._momentum_forcing(*arrays(state), lag_of(state, spec), mms.eps, spec)
            want = mms.fluid.visc * -np.pi**2 * mms.u(x)  # u* = 0.1 sin(pi x)
            errs.append(np.max(np.abs(got - want)))
        assert min(observed_orders(errs)) >= 1.9

    def test_mu_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            mu, _ = solve_mu(*arrays(state), lag_of(state, spec), mms.eps, spec)
            errs.append(np.max(np.abs(mu - mms.mu(grid.cell_centers()))))
        assert min(observed_orders(errs)) >= 1.9

    def test_c_order(self):
        mms = build_manufactured(eps=0.1)
        errs = []
        for n in (64, 128, 256, 512):
            grid = Grid(n, 1.0)
            state, spec = mms.state(grid), mms.spec(grid)
            c, _ = solve_c(*arrays(state), lag_of(state, spec), mms.eps, spec)
            errs.append(np.max(np.abs(c - mms.c(grid.cell_centers()))))
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

    def test_unknown_sweep_key(self):
        with pytest.raises(ValueError, match=r"^unknown sweep key 'gamma'$"):
            solver.check_sweep("gamma", [0.1])

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
                raise solver.DivergenceError("synthetic failure eps=0.01")
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
