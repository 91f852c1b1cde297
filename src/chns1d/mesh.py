"""Uniform cell-centered 1-D grid with second-order calculus and its direct solves.

Fields live at cell centers x_i = (i + 1/2) h on the interval (0, L).  Ghost
cells implement the two boundary conditions used throughout: ``neumann``
reflects the adjacent cell value (zero normal derivative at the wall) and
``dirichlet0`` negates it (zero wall value).  The discrete gradient, which
doubles as the divergence, satisfies exact summation by parts for these
extensions, and the midpoint quadrature makes flux divergences telescope
exactly, which is what the mass bookkeeping of the solvers relies on.  The
array kernels :func:`gradient_of`, :func:`laplacian_of` and :func:`integral_of`
are the one place a stencil is applied; the solver writes the weights of the
banded matrices it assembles, 1/2h and 1/h^2, in closed form.  A
:class:`Field` checks its values (length, finiteness) when it is built, so
the kernels, which the solver's inner loop calls on plain arrays, check
nothing; :func:`gradient` is :func:`gradient_of` on a :class:`Field`.

The package's reductions on the solve path call the ufunc directly,
``np.add.reduce(x, axis=None)`` for ``x.sum()`` and likewise
``np.maximum``, ``np.minimum`` and ``np.logical_and`` for ``max``, ``min``
and ``all``: the method is a Python wrapper in numpy's ``_methods.py`` around
that same call, so the bits are the same and a forced n = 256 solve, whose
time is mostly per-call overhead, enters about 100 fewer Python frames.  The
prefix sums and products call ``np.add.accumulate`` and
``np.multiply.accumulate`` for the same reason: ``cumsum`` and ``cumprod``
look that method up and call it with keyword arguments on every call.

:func:`laplacian_solve` inverts the Neumann Laplacian on arrays in closed
form, by two prefix sums, on the right side less its mean, and returns the
removed integral with the solution: the one place a Neumann right side is
made compatible.  The other banded systems go to LAPACK through
:func:`solve_tridiagonal` (``dgtsv``) and :func:`solve_banded` (``dgbsv``),
which overwrite their arguments.  Each solve returns its solution, scanned
once, and names itself in every error.

The two routines are numpy's own: numpy's wheels bundle an OpenBLAS that
exports them under their ILP64 names (``scipy_dgtsv_64_`` in numpy 2,
``dgtsv_64_`` in 1.x) in the library of ``numpy.linalg._umath_linalg``,
which ``import numpy`` has already loaded, so a second OpenBLAS (scipy's,
25 MB) is never mapped.  Where numpy exports neither spelling (Windows, a
distro or conda numpy, an LP64 build), scipy's f2py wrappers in
``scipy.linalg._flapack`` solve instead, loaded on their own: importing the
``scipy.linalg`` package would take most of a command's start-up.  That
module is registered under its canonical name, so a later
``import scipy.linalg`` reuses it.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from dataclasses import field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg

from .record import Record

__all__ = [
    "Grid",
    "Field",
    "DegenerateWeightError",
    "NonFiniteError",
    "SingularSystemError",
    "gradient",
    "gradient_of",
    "laplacian_of",
    "laplacian_solve",
    "solve_tridiagonal",
    "solve_banded",
    "integral_of",
    "integer_field",
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


# Argument types of the two routines in numpy's ILP64 LAPACK: every integer
# by reference as int64, every array as a pointer to its first element.
_INT, _DBL = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
_ARGTYPES = {
    "dgtsv": (_INT, _INT, _DBL, _DBL, _DBL, _DBL, _INT, _INT),
    "dgbsv": (_INT, _INT, _INT, _INT, _DBL, _INT, _INT, _DBL, _INT, _INT),
}


def _numpy_lapack():
    """The two routines of the OpenBLAS that numpy bundles, as ctypes functions
    with their argument types set, or None if numpy exports neither ILP64
    spelling (a plain ``dgtsv_`` would not say how wide its integers are)."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for spelling in ("scipy_{}_64_", "{}_64_"):
        try:
            found = {r: getattr(lib, spelling.format(r)) for r in _ARGTYPES}
        except AttributeError:
            continue
        for r, fn in found.items():
            fn.argtypes, fn.restype = _ARGTYPES[r], None
        return SimpleNamespace(**found)
    return None


_ONE = ctypes.c_int64(1)  # every solve has one right side; LAPACK only reads it


# The first element of a writeable, C-ordered float64 array, for LAPACK to get
# by reference: a ctypes view of the array's memory that holds the array while
# it lives, at half the cost of ``a.ctypes``, and called bound, without a frame.
_ref = ctypes.c_double.from_buffer


# One adapter per routine and binding: each takes checked arguments, which
# LAPACK overwrites, and returns (x, info), x being the right side's array.
def _numpy_gtsv(dl, d, du, b):
    n_ref, info = ctypes.c_int64(len(d)), ctypes.c_int64()
    _routines.dgtsv(n_ref, _ONE, _ref(dl), _ref(d), _ref(du), _ref(b), n_ref, info)
    return b, info.value


def _numpy_gbsv(kl, ku, ab, b):
    i64, info = ctypes.c_int64, ctypes.c_int64()
    n_ref, ipiv = i64(len(b)), np.empty(len(b), np.int64)
    # ab.T: the C-ordered view of the Fortran-ordered band storage
    _routines.dgbsv(n_ref, i64(kl), i64(ku), _ONE, _ref(ab.T), i64(len(ab)), i64.from_buffer(ipiv),
                    _ref(b), n_ref, info)
    return b, info.value


def _flapack_gtsv(dl, d, du, b):
    return _load_flapack().dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                                 overwrite_b=1)[-2:]


def _flapack_gbsv(kl, ku, ab, b):
    return _load_flapack().dgbsv(kl, ku, ab, b, overwrite_ab=1, overwrite_b=1)[-2:]


# The binding behind every banded solve: numpy's LAPACK where it exports the
# routines, else scipy's f2py wrappers, loaded at import as numpy's library is.
_routines = _numpy_lapack()
if _routines is None:
    _load_flapack()
_gtsv, _gbsv = (_flapack_gtsv, _flapack_gbsv) if _routines is None else (_numpy_gtsv, _numpy_gbsv)


class DegenerateWeightError(ValueError):
    """A density-weighted constraint cannot pin a Neumann constant: its weight integral vanishes."""


class NonFiniteError(ValueError):
    """A field, or the matrix, right side or solution of a banded solve, holds NaN or infinity."""


class SingularSystemError(RuntimeError):
    """A banded solve met a singular matrix, or a transport matrix lost diagonal dominance."""


def integer_field(obj, name: str, least: int) -> None:
    """Store the field ``name`` of the frozen record ``obj`` as an ``int``,
    or raise a ValueError naming the field unless its value is an integer
    (256 or 256.0, not 2.5 or "256") of at least ``least``."""
    value = getattr(obj, name)
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    object.__setattr__(obj, name, int(value))


class Grid(Record):
    """Uniform grid of n_cells cells on (0, length_L), of spacing ``spacing_h``."""

    n_cells: int
    length_L: float

    def __post_init__(self) -> None:
        integer_field(self, "n_cells", 8)
        if not self.length_L > 0.0:
            raise ValueError(f"length_L must be positive, got {self.length_L}")
        h = self.length_L / self.n_cells
        if not sys.float_info.min <= h * h <= sys.float_info.max:
            # the stencils divide by h^2: it must be a normal float
            raise ValueError(f"length_L {self.length_L:g} over {self.n_cells} cells gives spacing "
                             f"h = {h:g}, whose square is not a finite, positive, normal float")
        object.__setattr__(self, "spacing_h", h)  # every stencil and quadrature reads it

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


class Field(Record):
    """Grid function stored at cell centers."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field length {arr.shape} does not match grid with {self.grid.n_cells} cells"
            )
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise NonFiniteError(f"field values must be finite ({bad} of {arr.size} are not)")
        object.__setattr__(self, "values", arr)


def _check_bc(bc: str) -> None:
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}; expected one of {BOUNDARY_CONDITIONS}")


def gradient_of(values: np.ndarray, bc: str, h: float) -> np.ndarray:
    """Second-order central difference of cell values on a grid of spacing h,
    with ghost cells by reflection (``neumann``) or odd extension."""
    sign, out = (1.0 if bc == "neumann" else -1.0), np.empty(values.size)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[0], out[-1] = values[1] - sign * values[0], sign * values[-1] - values[-2]
    out /= 2.0 * h
    return out


def laplacian_of(values: np.ndarray, bc: str, h: float) -> np.ndarray:
    """Compact three-point Laplacian of cell values with the ghost extension of ``bc``."""
    sign, out = (1.0 if bc == "neumann" else -1.0), values * -2.0
    out[1:] += values[:-1]
    out[0] += sign * values[0]
    out[:-1] += values[1:]
    out[-1] += sign * values[-1]
    out /= h**2
    return out


def integral_of(values: np.ndarray, h: float) -> float:
    """Midpoint quadrature of cell values; exact for values linear in x."""
    return float(np.add.reduce(values, axis=None) * h)


def gradient(f: Field, bc: str) -> Field:
    """:func:`gradient_of` applied to a grid function."""
    _check_bc(bc)
    return Field(f.grid, gradient_of(f.values, bc, f.grid.spacing_h))


def _solve(name: str, routine, *scalars, **arrays) -> np.ndarray:
    """The solution that the adapter ``routine`` returns for ``scalars`` and
    the arrays ``label=(a, shape)``, checked as :func:`solve_tridiagonal` says:
    every array's type and layout first, then each one's finiteness."""
    args, shapes = zip(*arrays.values())
    for label, a, shape in zip(arrays, args, shapes):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
                and a.flags.f_contiguous and a.flags.writeable):
            got = type(a).__name__ if not isinstance(a, np.ndarray) else (
                f"{a.dtype} {a.shape}" + ("" if a.flags.f_contiguous else ", not Fortran-ordered")
                + ("" if a.flags.writeable else ", read-only"))
            raise ValueError(f"{name}: LAPACK argument {label} must be a writeable, Fortran-"
                             f"ordered float64 array of shape {shape}, got {got}")
    for a in args:
        if not np.logical_and.reduce(np.isfinite(a), axis=None):
            raise NonFiniteError(f"{name}: the matrix or right side is not finite")
    x, info = routine(*scalars, *args)
    if info < 0:
        raise ValueError(f"{name}: LAPACK argument {-info} had an illegal value (info {info})")
    if info > 0:
        raise SingularSystemError(f"{name}: the matrix is singular (LAPACK info {info})")
    return _finite_solution(name, x)


def _finite_solution(name: str, x: np.ndarray) -> np.ndarray:
    """``x``, scanned once: :class:`NonFiniteError`, naming solve ``name``, if it is not finite."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        bad = int(np.count_nonzero(~np.isfinite(x)))
        raise NonFiniteError(f"{name}: the solution is not finite in {bad} of {x.size} entries")
    return x


def solve_tridiagonal(name: str, lower, diag, upper, b) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonal
    ``lower``, ``diag``, ``upper`` and right side ``b`` by LAPACK's ``dgtsv``,
    for the solve ``name``.  Overwrites all four and returns the solution, the
    array ``b``.  Each must be a writeable, Fortran-ordered float64 array, of
    length n - 1, n, n - 1 and n, else a ``ValueError`` naming it is raised
    before LAPACK runs, and finite, else :class:`NonFiniteError`.  A singular
    matrix (LAPACK ``info`` > 0) raises :class:`SingularSystemError`, an
    illegal argument (``info`` < 0, a calling bug) ``ValueError``, and a
    solution with NaN or infinite entries (an overflow inside the
    elimination) :class:`NonFiniteError` with their count.  Each error names
    the solve."""
    n = len(diag)
    return _solve(name, _gtsv, lower=(lower, (n - 1,)), diag=(diag, (n,)),
                  upper=(upper, (n - 1,)), b=(b, (n,)))


def solve_banded(name: str, kl: int, ku: int, ab, b) -> np.ndarray:
    """Solve the band system with ``kl`` sub- and ``ku`` superdiagonals by
    LAPACK's ``dgbsv``, for the solve ``name``.  ``ab`` is gbsv's band storage
    of shape (2 kl + ku + 1, n): entry (i, j) sits at ``ab[kl + ku + i - j, j]``
    and the first ``kl`` rows are room for fill-in.  Overwrites ``ab`` and
    ``b`` and returns the solution, the array ``b``; both are checked, and
    failures raised, as :func:`solve_tridiagonal` says."""
    n = len(b)
    return _solve(name, _gbsv, kl, ku, ab=(ab, (2 * kl + ku + 1, n)), b=(b, (n,)))


def laplacian_solve(rhs: np.ndarray, g: Grid) -> tuple[np.ndarray, float]:
    """Solve Lap(u) = rhs - mean(rhs), the three-point Laplacian of ``g`` with
    Neumann walls, in closed form by two prefix sums; return u and |mean(rhs)| L.

    With D_k = u_k - u_{k-1} the difference across face k, row i reads
    D_{i+1} - D_i = h^2 f_i, and the walls give D_0 = 0.  So
    D = h^2 cumsum(f), and u = u_0 + cumsum(D).  The sums carry the
    roundoff of n terms each: relative to max|u|, the error stays below
    1e-14 n, as an LU solve's does (9e-12 at n = 4096 on white-noise solutions).

    The pure-Neumann problem is solvable only for a mean-free right side, so
    this is the one place a right side is made compatible: f is ``rhs`` with
    its mean removed, which lets the last row hold too.  A right side with a
    mean is therefore no error; the removed integral |mean| L is returned
    with the solution, which has zero mean, for the caller to count as a
    residual.  A right side that is not finite, or a solution that
    overflows, raises :class:`NonFiniteError` naming the solve; call it with
    numpy's overflow and invalid-value warnings off where that can happen.
    """
    n = g.n_cells  # means below as sum / n: what ndarray.mean computes, without its overhead
    mean = float(np.add.reduce(rhs, axis=None) / n)
    c = np.add.accumulate(rhs - mean)
    u = np.empty(n)
    u[0] = 0.0
    np.add.accumulate(c[:-1], out=u[1:])  # u_k - u_0, over h^2
    u -= np.add.reduce(u, axis=None) / n
    u *= g.spacing_h**2
    return _finite_solution("Neumann Laplacian solve", u), abs(mean * g.length_L)
