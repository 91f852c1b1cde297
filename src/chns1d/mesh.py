"""Uniform cell-centered 1-D grid with second-order calculus and tridiagonal solves.

Fields live at cell centers x_i = (i + 1/2) h on the interval (0, L).  Ghost
cells implement the two boundary conditions used throughout: ``neumann``
reflects the adjacent cell value (zero normal derivative at the wall) and
``dirichlet0`` negates it (zero wall value).  The discrete gradient, which
doubles as the divergence, satisfies exact summation by parts for these
extensions, and the midpoint quadrature makes flux divergences telescope
exactly, which is what the mass bookkeeping of the solvers relies on.  The
operators are the one place a stencil is written: :func:`bands` reads every
banded matrix off them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "Grid",
    "Field",
    "SolvabilityError",
    "DegenerateWeightError",
    "gradient",
    "laplacian_apply",
    "laplacian_solve",
    "bands",
    "banded",
    "integrate",
    "mean_shift",
    "BOUNDARY_CONDITIONS",
]

BOUNDARY_CONDITIONS = ("neumann", "dirichlet0")

# Compatibility tolerance for the pure-Neumann zero-shift solve.
SOLVABILITY_TOL = 1.0e-10


class SolvabilityError(ValueError):
    """Pure-Neumann problem with a right side that is not mean-free."""


class DegenerateWeightError(ValueError):
    """Weighted mean shift requested against a weight with vanishing integral."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n_cells cells on (0, length_L)."""

    n_cells: int
    length_L: float

    def __post_init__(self) -> None:
        if int(self.n_cells) != self.n_cells or self.n_cells < 8:
            raise ValueError(f"n_cells must be an integer >= 8, got {self.n_cells}")
        if not self.length_L > 0.0:
            raise ValueError(f"length_L must be positive, got {self.length_L}")

    @property
    def spacing_h(self) -> float:
        return self.length_L / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.spacing_h

    def field(self, values) -> "Field":
        """Wrap values (scalar or array of length n_cells) as a Field."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.n_cells, float(arr))
        return Field(self, arr)

    def zeros(self) -> "Field":
        return Field(self, np.zeros(self.n_cells))


@dataclass(frozen=True)
class Field:
    """Grid function stored at cell centers."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field length {arr.shape} does not match grid with {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", arr)


def _check_bc(bc: str) -> None:
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}; expected one of {BOUNDARY_CONDITIONS}")


def _extend(values: np.ndarray, bc: str) -> np.ndarray:
    sign = 1.0 if bc == "neumann" else -1.0
    return np.concatenate(([sign * values[0]], values, [sign * values[-1]]))


def gradient(f: Field, bc: str) -> Field:
    """Second-order central difference with ghost cells by reflection/odd extension."""
    _check_bc(bc)
    ext = _extend(f.values, bc)
    return Field(f.grid, (ext[2:] - ext[:-2]) / (2.0 * f.grid.spacing_h))


def laplacian_apply(f: Field, bc: str) -> Field:
    """Compact three-point Laplacian with the given ghost extension."""
    _check_bc(bc)
    ext = _extend(f.values, bc)
    h2 = f.grid.spacing_h ** 2
    return Field(f.grid, (ext[:-2] - 2.0 * f.values + ext[2:]) / h2)


def integrate(f: Field) -> float:
    """Midpoint quadrature; exact for fields that are linear in x."""
    return float(np.sum(f.values) * f.grid.spacing_h)


def mean_shift(f: Field, target_weighted_mean: float, weight: Field) -> Field:
    """Add the constant s making integrate(weight * (f + s)) equal the target."""
    wint = integrate(weight)
    tol = 1.0e-12 * max(1.0, float(np.max(np.abs(weight.values))) * weight.grid.length_L)
    if wint <= tol:
        raise DegenerateWeightError(
            f"weight integral {wint:g} is not positive enough to pin the constant"
        )
    s = (target_weighted_mean - integrate(Field(f.grid, f.values * weight.values))) / wint
    return Field(f.grid, f.values + s)


def bands(op, g: Grid, bc: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (diag, upper, lower) of the three-point operator ``op``, such as
    :func:`gradient`, with ``upper[i]`` = entry (i, i+1) and ``lower[i]`` = (i+1, i).

    Columns three apart touch disjoint rows, so ``op`` applied to three combs
    (1.0 in every third cell) reads off every column, wall rows included.
    """
    n = g.n_cells
    diag, upper, lower = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    for k in range(3):
        comb = np.zeros(n)
        comb[k::3] = 1.0
        col = op(Field(g, comb), bc).values
        diag[k::3] = col[k::3]
        upper[(k - 1) % 3::3] = col[(k - 1) % 3:-1:3]
        lower[k::3] = col[k + 1::3]
    return diag, upper, lower


def banded(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Pack tridiagonal bands into the (3, n) storage of ``solve_banded((1, 1), ...)``."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


def laplacian_solve(rhs: Field, bc: str, shift: float = 0.0) -> Field:
    """Solve an elliptic two-point problem to machine precision.

    For ``shift == 0`` this inverts the Laplacian: the returned u satisfies
    Lap(u) = rhs for the given boundary condition.  A pure-Neumann problem is
    solvable only for mean-free right sides; the right side is checked against
    :data:`SOLVABILITY_TOL`, the constant null direction is pinned, and the
    solution is returned with zero mean.  For ``shift > 0`` the returned u
    satisfies (shift*I - Lap) u = rhs, which is uniquely solvable for either
    boundary condition.
    """
    _check_bc(bc)
    if shift < 0.0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    g = rhs.grid
    diag, upper, lower = bands(laplacian_apply, g, bc)
    ab = banded(shift - diag, -upper, -lower)
    b = rhs.values if shift > 0.0 else -rhs.values
    if shift > 0.0 or bc == "dirichlet0":
        return Field(g, solve_banded((1, 1), ab, b))

    # Pure Neumann: enforce compatibility, pin one unknown, return mean-zero.
    mean = float(np.mean(rhs.values))
    scale = float(np.sqrt(np.mean(rhs.values**2)))
    if abs(mean) > SOLVABILITY_TOL * max(scale, 1.0e-300):
        raise SolvabilityError(
            f"neumann right side has mean {mean:g}; the zero-shift problem is unsolvable"
        )
    b = b - np.mean(b)
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    b[0] = 0.0
    x = solve_banded((1, 1), ab, b)
    return Field(g, x - np.mean(x))
