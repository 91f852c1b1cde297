"""The 261-config corpus of ``_corpus.py``, re-solved and compared with its
table, and the invariants of the problem that its converged solves keep."""

import numpy as np
import pytest

from _corpus import GRID_AMPLITUDES, HEADER, KINDS, TABLE, grid_config, rows, solutions, solve
from conftest import assert_honest_fixed_point

# Largest relative mirror defect of a field (see mirror_defect), 8.7 times the
# worst measured: 1.15e-13, in rho, over the 79 converged cos rows, and
# 1.0e-13 over the 8 sin pairs.  Roundoff in the solver's running sums,
# which start at the left wall, grows with n and with the forcing.
MIRROR_BOUND = 1e-12


@pytest.fixture(scope="module")
def solved() -> dict:
    """Every config's solve, by key, once for the module's tests."""
    return solutions()


def converged(solved: dict, prefix: str) -> list:
    """The (spec, controls, state, log) of the converged configs whose key starts with ``prefix``."""
    return [s for key, s in solved.items() if key.startswith(prefix) and not isinstance(s, Exception)]


def mirror_defect(a, b) -> float:
    """The largest defect of state ``a`` against the mirror image x -> L - x
    of state ``b``, relative to max|field| of ``a``: rho, mu and c reflect,
    and the velocity u reflects and changes sign."""
    worst = 0.0
    for name, sign in (("rho", 1.0), ("u", -1.0), ("mu", 1.0), ("c", 1.0)):
        x, y = getattr(a, name).values, getattr(b, name).values
        worst = max(worst, float(np.abs(x - sign * y[::-1]).max() / np.abs(x).max()))
    return worst


def test_every_config_reproduces_its_committed_row(solved):
    """Each config's outcome, iterations, final damping, rho_min/rho0 and
    honesty equal its row of corpus.csv.  The assert lists the movers, old
    row then new; ``python tests/_corpus.py`` rewrites the table."""
    committed = TABLE.read_text().splitlines()
    assert committed[0] == HEADER
    movers = [(old, new) for old, new in zip(committed[1:], rows(solved)) if old != new]
    assert len(committed) == 262 and not movers, movers


@pytest.mark.parametrize("prefix", [
    *(pytest.param(f"grid cos {a:g} ", id=f"grid-{a:g}") for a in GRID_AMPLITUDES),
    pytest.param("vacuum cos ", id="vacuum"),
])
def test_cos_rows_are_their_own_mirror_image(solved, prefix):
    """g1 = a cos(pi x / L) is its own mirror image, -g1(L - x), so a
    converged solve has rho, mu and c even about L/2 and u odd."""
    states = converged(solved, prefix)
    assert states
    for _, _, state, _ in states:
        assert mirror_defect(state, state) <= MIRROR_BOUND


@pytest.mark.parametrize("amplitude", GRID_AMPLITUDES)
def test_opposite_sin_forces_mirror_each_other(solved, amplitude):
    """-g1(L - x) of g1 = a sin(pi x / L) is -a sin(pi x / L), so the grid
    config at m1 = 1 and lambda1 = 1 and its twin of amplitude -a converge to
    each other's mirror image."""
    key, _ = grid_config("sin", amplitude, 1, 1)
    twin = solve(grid_config("sin", -amplitude, 1, 1)[1])
    assert not isinstance(solved[key], Exception) and not isinstance(twin, Exception)
    assert mirror_defect(solved[key][2], twin[2]) <= MIRROR_BOUND


@pytest.mark.parametrize("kind", KINDS)
def test_mass_is_exact_at_every_iterate(solved, kind):
    """Every iterate of every converged solve has mass m1 to 1e-12 m1
    (at most 2.2e-16 m1 measured)."""
    for spec, _, _, log in converged(solved, f"grid {kind} ") + converged(solved, f"vacuum {kind} "):
        assert log.max_mass_error() <= 1e-12 * spec.m1


def test_honesty_takes_the_next_step_undamped(solved):
    """cos 30 at m1 = 1 converges at damping 1/2; the honesty check's next
    step, undamped, moves a field by more than tol_rel (1 + max|field|), so
    the solve is no honest fixed point, as its row says."""
    spec, controls, state, log = solved["grid cos 30 m1=1 lambda1=1"]
    assert log.stages[-1].dampings[-1] == 0.5
    with pytest.raises(AssertionError, match="undamped next step moves"):
        assert_honest_fixed_point(state, log, spec, controls)
