"""Uniform cell-centered 1-D grid with second-order calculus and tridiagonal solves.

Fields live at cell centers x_i = (i + 1/2) h on the interval (0, L).  Ghost
cells implement the two boundary conditions used throughout: ``neumann``
reflects the adjacent cell value (zero normal derivative at the wall) and
``dirichlet0`` negates it (zero wall value).  The discrete gradient, which
doubles as the divergence, satisfies exact summation by parts for these
extensions, and the midpoint quadrature makes flux divergences telescope
exactly, which is what the mass bookkeeping of the solvers relies on.  The
array kernels :func:`gradient_of`, :func:`laplacian_of` and :func:`integral_of`
are the one place a stencil is written; :func:`gradient`, :func:`laplacian_apply`
and :func:`integrate` apply them to a :class:`Field`, and :func:`bands` reads
every banded matrix off those, once per grid.  A :class:`Field` checks its
values (length, finiteness) when it is built, so the kernels, which the
solver's inner loop calls on plain arrays, check nothing.  Banded systems go
straight to the LAPACK routines through :func:`lapack_call`, which rejects
non-finite input and names the solve when the matrix is singular.

The routines (``dgtsv``, ``dgttrf``, ``dgttrs``, ``dgbsv``) come from
``scipy.linalg._flapack``, the f2py extension that ``scipy.linalg.lapack``
re-exports, loaded on its own: importing the ``scipy.linalg`` package would
pull in all of it and take most of a command's start-up.  The module is
registered under its canonical name, so a later ``import scipy.linalg``
reuses it and the routines are the very objects ``scipy.linalg.lapack`` holds.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "SolvabilityError",
    "DegenerateWeightError",
    "NonFiniteError",
    "SingularSystemError",
    "gradient",
    "gradient_of",
    "laplacian_apply",
    "laplacian_of",
    "laplacian_solve",
    "bands",
    "lapack_call",
    "integrate",
    "integral_of",
    "mean_shift",
    "BOUNDARY_CONDITIONS",
]

BOUNDARY_CONDITIONS = ("neumann", "dirichlet0")


def _load_flapack():
    """``scipy.linalg._flapack``, executed without importing ``scipy`` or
    ``scipy.linalg``; falls back to the package import if the extension file
    is not in scipy's ``linalg`` directory (an editable build, say)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    roots = importlib.util.find_spec("scipy").submodule_search_locations or []
    loader = (ExtensionFileLoader, EXTENSION_SUFFIXES)
    specs = (FileFinder(os.path.join(r, "linalg"), loader).find_spec(name) for r in roots)
    spec = next(filter(None, specs), None)
    if spec is None:
        from scipy.linalg import _flapack
        return _flapack
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The f2py LAPACK wrappers behind every banded solve.
lapack = _load_flapack()

# Compatibility tolerance for the pure-Neumann solve.
SOLVABILITY_TOL = 1.0e-10


class SolvabilityError(ValueError):
    """Pure-Neumann problem with a right side that is not mean-free."""


class DegenerateWeightError(ValueError):
    """Weighted mean shift requested against a weight with vanishing integral."""


class NonFiniteError(ValueError):
    """A field, or the matrix or right side of a banded solve, holds NaN or infinity."""


class SingularSystemError(RuntimeError):
    """A banded solve met a singular matrix, or a transport matrix lost diagonal dominance."""


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
        if not np.isfinite(arr).all():
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise NonFiniteError(f"field values must be finite ({bad} of {arr.size} are not)")
        object.__setattr__(self, "values", arr)


def _check_bc(bc: str) -> None:
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}; expected one of {BOUNDARY_CONDITIONS}")


def _extend(values: np.ndarray, bc: str) -> np.ndarray:
    sign = 1.0 if bc == "neumann" else -1.0
    ext = np.empty(values.size + 2)
    ext[1:-1] = values
    ext[0], ext[-1] = sign * values[0], sign * values[-1]
    return ext


def gradient_of(values: np.ndarray, bc: str, h: float) -> np.ndarray:
    """Second-order central difference of cell values on a grid of spacing h,
    with ghost cells by reflection (``neumann``) or odd extension."""
    ext = _extend(values, bc)
    return (ext[2:] - ext[:-2]) / (2.0 * h)


def laplacian_of(values: np.ndarray, bc: str, h: float) -> np.ndarray:
    """Compact three-point Laplacian of cell values with the ghost extension of ``bc``."""
    ext = _extend(values, bc)
    return (ext[:-2] - 2.0 * values + ext[2:]) / h**2


def integral_of(values: np.ndarray, h: float) -> float:
    """Midpoint quadrature of cell values; exact for values linear in x."""
    return float(values.sum() * h)


def gradient(f: Field, bc: str) -> Field:
    """:func:`gradient_of` applied to a grid function."""
    _check_bc(bc)
    return Field(f.grid, gradient_of(f.values, bc, f.grid.spacing_h))


def laplacian_apply(f: Field, bc: str) -> Field:
    """:func:`laplacian_of` applied to a grid function."""
    _check_bc(bc)
    return Field(f.grid, laplacian_of(f.values, bc, f.grid.spacing_h))


def integrate(f: Field) -> float:
    """Midpoint quadrature (:func:`integral_of`) of a grid function."""
    return integral_of(f.values, f.grid.spacing_h)


def mean_shift(f: Field, target_weighted_mean: float, weight: Field) -> Field:
    """Add the constant s making integrate(weight * (f + s)) equal the target."""
    w = weight.values
    wint = integrate(weight)
    tol = 1.0e-12 * max(1.0, float(np.abs(w).max()) * weight.grid.length_L)
    if wint <= tol:
        raise DegenerateWeightError(
            f"weight integral {wint:g} is not positive enough to pin the constant"
        )
    s = (target_weighted_mean - integral_of(f.values * w, f.grid.spacing_h)) / wint
    return Field(f.grid, f.values + s)


@lru_cache(maxsize=64)
def bands(op, g: Grid, bc: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (diag, upper, lower) of the three-point operator ``op``, such as
    :func:`gradient`, with ``upper[i]`` = entry (i, i+1) and ``lower[i]`` = (i+1, i).

    Columns three apart touch disjoint rows, so ``op`` applied to three combs
    (1.0 in every third cell) reads off every column, wall rows included.  The
    bands depend on the grid alone, so they are probed once per (op, g, bc)
    and every later call returns the same read-only arrays.
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
    return _read_only(diag, upper, lower)


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def lapack_call(name: str, routine, *args, factors: tuple = (), **kwargs) -> tuple:
    """Call the LAPACK solver ``routine`` (an attribute of :data:`lapack`, the
    same object as in ``scipy.linalg.lapack``) for the solve ``name``.

    Every array argument must be finite (else :class:`NonFiniteError`), and a
    nonzero ``info`` raises :class:`SingularSystemError`; both name the solve.
    ``factors`` go before ``args`` unscanned: they are the outputs of an
    earlier call, checked when they were made.  Returns the routine's outputs
    without ``info``, so the solution is last.
    """
    for a in args:
        if isinstance(a, np.ndarray) and not np.isfinite(a).all():
            raise NonFiniteError(f"{name}: the matrix or right side is not finite")
    *out, info = routine(*factors, *args, **kwargs)
    if info != 0:
        raise SingularSystemError(f"{name}: the matrix is singular (LAPACK info {info})")
    return tuple(out)


@lru_cache(maxsize=64)
def _laplacian_factor(g: Grid, bc: str) -> tuple:
    """Read-only LU factors (``dgttrf``) of the negated Laplacian; for Neumann
    the first row is replaced by the identity row that pins the constant."""
    diag, upper, lower = bands(laplacian_apply, g, bc)
    dl, d, du = -lower, -diag, -upper
    if bc == "neumann":
        d[0], du[0] = 1.0, 0.0
    return _read_only(*lapack_call(f"{bc} Laplacian", lapack.dgttrf, dl, d, du))


def laplacian_solve(rhs: Field, bc: str) -> Field:
    """Invert the Laplacian to machine precision: Lap(u) = rhs for the given
    boundary condition, from the factors computed once per (grid, bc).

    A pure-Neumann problem is solvable only for mean-free right sides; the
    right side is checked against :data:`SOLVABILITY_TOL`, the constant null
    direction is pinned, and the solution is returned with zero mean.
    """
    _check_bc(bc)
    g = rhs.grid
    b = -rhs.values
    n = g.n_cells  # means below as sum / n: what ndarray.mean computes, without its overhead
    if bc == "neumann":
        mean = float(rhs.values.sum() / n)
        scale = float(np.sqrt((rhs.values**2).sum() / n))
        if abs(mean) > SOLVABILITY_TOL * max(scale, 1.0e-300):
            raise SolvabilityError(
                f"neumann right side has mean {mean:g}; the problem is unsolvable"
            )
        b = b - b.sum() / n
        b[0] = 0.0
    x = lapack_call(
        f"{bc} Laplacian", lapack.dgttrs, b, factors=_laplacian_factor(g, bc), overwrite_b=1
    )[-1]
    return Field(g, x if bc == "dirichlet0" else x - x.sum() / n)
