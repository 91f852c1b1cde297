import gc
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The tests import the package from source and write no bytecode cache into
# the source tree: a stray cache would change the start-up of later uncached runs.
sys.dont_write_bytecode = True

from chns1d import mesh, solver
from chns1d.diagnostics import EI_SLACK_CONSTANT, energy_inequality
from chns1d.mesh import Grid
from chns1d.potential import PotentialParams
from chns1d.solver import FluidParams, ProblemSpec, SolveControls

# Config text of the continuation ladder, the default before one stage:
# eps 0.1 -> 1e-3, one stage per value.
LADDER = "solver.eps_schedule = 1e-1,1e-2,1e-3\n"

# The (dgtsv, dgbsv) adapters of each LAPACK binding: numpy's own, where numpy
# exports the routines, and scipy's f2py wrappers, the fallback.
LAPACK_BINDINGS = {"flapack": (mesh._flapack_gtsv, mesh._flapack_gbsv)}
if mesh._routines is not None:
    LAPACK_BINDINGS["numpy"] = (mesh._numpy_gtsv, mesh._numpy_gbsv)


def use_binding(patch, name: str) -> None:
    """Send mesh's banded solves through the binding ``name`` while the
    monkeypatch ``patch`` holds."""
    patch.setattr(mesh, "_gtsv", LAPACK_BINDINGS[name][0])
    patch.setattr(mesh, "_gbsv", LAPACK_BINDINGS[name][1])


def copies(*args) -> list:
    """``args`` with each array copied in its own memory order: arguments a
    banded solve may overwrite."""
    return [a.copy(order="K") if isinstance(a, np.ndarray) else a for a in args]


def traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak, above what was allocated
    when it started, by ``tracemalloc`` (numpy reports its array buffers to it);
    right also under ``-X tracemalloc``, where tracing is already on."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def assert_honest_fixed_point(state, log, spec: ProblemSpec, controls: SolveControls) -> None:
    """A converged solve ends at a fixed point, not where its update dipped
    below tol_rel: exact mass at every iterate, rho >= 0, the energy
    inequality's floor, and one more Picard step at the last stage's final
    damping that moves no field by more than tol_rel (1 + max|field|)."""
    assert log.max_mass_error() <= 1e-12 * spec.m1
    assert state.rho.values.min() >= 0.0
    assert energy_inequality(state, spec)[2] >= -EI_SLACK_CONSTANT * spec.grid.spacing_h**2
    stage = log.stages[-1]
    after, _ = solver.picard_step(state, stage.eps, spec, stage.dampings[-1])
    for name in ("rho", "u", "mu", "c"):
        old, new = getattr(state, name).values, getattr(after, name).values
        assert np.abs(new - old).max() <= controls.tol_rel * (1.0 + np.abs(old).max()), name


@pytest.fixture(autouse=True)
def _unfreeze_gc():
    """Undo the ``gc.freeze()`` of each in-process ``cli.main`` call, so the
    objects a test leaves behind do not stay alive for the whole session."""
    yield
    gc.unfreeze()


@pytest.fixture
def pot() -> PotentialParams:
    return PotentialParams(theta0=1.0, thetac=1.5, delta=0.1)


@pytest.fixture
def fluid() -> FluidParams:
    return FluidParams(gamma=2.0, lambda1=1.0, lambda2=0.0, H=1.0)


def make_forced_spec(n: int, pot: PotentialParams, fluid: FluidParams,
                     g1_amp: float = 0.1, g2_amp: float = 0.05) -> ProblemSpec:
    grid = Grid(n, 1.0)
    x = grid.cell_centers()
    return ProblemSpec(
        grid,
        pot,
        fluid,
        m1=1.0,
        m2=0.3,
        g1=grid.field(g1_amp * np.sin(np.pi * x)),
        g2=grid.field(g2_amp * np.cos(np.pi * x)),
    )


@pytest.fixture
def forced_spec(pot, fluid) -> ProblemSpec:
    return make_forced_spec(128, pot, fluid)


@pytest.fixture
def controls() -> SolveControls:
    return SolveControls()
