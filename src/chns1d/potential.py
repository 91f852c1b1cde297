"""Closed forms for the singular logarithmic mixing potential and its C2 regularization.

The singular core is the symmetric mixing-entropy function

    f2(c) = (theta0/2) * ((1+c) ln(1+c) + (1-c) ln(1-c)),   |c| < 1,

which blows up at the pure phases c = +-1.  The family ``f2_delta`` extends it
to the whole real line: it agrees with f2 exactly on [-(1-delta), 1-delta],
crosses the singular endpoints through two polynomial transition pieces on
(1-delta, 1] and (1, 1+delta], and ends in an exact quadratic tail of
curvature thetac.  The pieces are glued so the extension is twice continuously
differentiable.  Because the tail curvature equals thetac, the effective
double-well potential F_delta(c) = f2_delta(c) - (thetac/2) c^2 grows only
linearly for large |c|; its derivative dF_delta is constant beyond 1+delta and
of size O(ln(1/delta)) there.

All evaluators accept scalars or numpy arrays, are pure, and are safe to call
from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import xlogy

if TYPE_CHECKING:  # pragma: no cover
    from .solver import FluidParams

__all__ = [
    "DomainError",
    "PotentialParams",
    "PotentialConstants",
    "f2_singular",
    "f2_delta",
    "f2_delta_prime",
    "f2_delta_prime2",
    "dF_delta",
    "F_delta",
    "guarded_power",
    "artificial_pressure",
    "free_energy_delta",
    "rho_free_energy_delta",
    "pressure",
    "pressure_slope",
    "constants",
    "structure_holds",
    "junction_gaps",
    "figure1_table",
    "FIGURE1_COLUMNS",
    "DELTA_TEST_GRID",
    "RHO_MAX_DEFAULT",
]

# Density ceiling for the guarded power evaluations; exponent 11 overflows
# naive powers well below float range limits during solver transients.
RHO_MAX_DEFAULT = 1.0e6

# Regularization widths exercised by the junction / property check suites.
DELTA_TEST_GRID = (0.5, 0.1, 0.01, 1.0e-3)


class DomainError(ValueError):
    """Argument outside the mathematical domain of a closed-form evaluator."""


@dataclass(frozen=True)
class PotentialParams:
    """Temperature scales and regularization width of the mixing potential.

    ``0 < theta0 < thetac`` is required so that the effective potential is a
    genuine double well; ``delta`` in (0, 1) is the regularization width.
    """

    theta0: float = 1.0
    thetac: float = 1.5
    delta: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.theta0 < self.thetac):
            raise ValueError(
                f"require 0 < theta0 < thetac, got theta0={self.theta0}, thetac={self.thetac}"
            )
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"require 0 < delta < 1, got delta={self.delta}")


@dataclass(frozen=True)
class PotentialConstants:
    """Structural constants of the regularized potential.

    ``c_star``: point beyond which dF_delta(c)*c is positive at every width
    that :func:`structure_holds` admits (c_star does not depend on delta;
    at theta0 = 1, thetac = 3/2 the property holds for delta <= 0.2257 and
    fails at c_star itself beyond).  ``spinodal``: boundary
    sqrt(1 - theta0/thetac) of the concave region of the effective potential.
    ``bound_M_estimate``: empirical supremum of |dF_delta| on
    [-c_star, c_star] over the delta test grid.
    """

    c_star: float
    spinodal: float
    bound_M_estimate: float


def _prep(c) -> tuple[np.ndarray, bool]:
    arr = np.asarray(c, dtype=float)
    return arr, arr.ndim == 0


def _ret(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Piece evaluators.  Each takes the folded argument a = |c| restricted to its
# own interval; selection is done by the public functions (intervals closed on
# the right, so a knot value uses the piece to its left).
# ---------------------------------------------------------------------------

def _f2_p1(a, p: PotentialParams):
    return 0.5 * p.theta0 * (xlogy(1.0 + a, 1.0 + a) + xlogy(1.0 - a, 1.0 - a))


def _f2_p2(a, p: PotentialParams):
    d, th0 = p.delta, p.theta0
    t = a - (1.0 - d)
    return (
        th0 / (2.0 * d * (2.0 - d)) * t * t
        + 0.5 * th0 * np.log(2.0 / d - 1.0) * t
        + _f2_p1(1.0 - d, p)
    )


def _f2_p3(a, p: PotentialParams):
    d, th0, thc = p.delta, p.theta0, p.thetac
    t = a - 1.0
    cubic = (thc * d * (2.0 - d) - th0) / (6.0 * d * d * (2.0 - d))
    return (
        cubic * t**3
        + th0 / (2.0 * d * (2.0 - d)) * t * t
        + (th0 / (2.0 - d) + 0.5 * th0 * np.log((2.0 - d) / d)) * t
        + d * th0 / (2.0 * (2.0 - d))
        + th0 * np.log(2.0 - d)
    )


def _f2_p4(a, p: PotentialParams):
    d, th0, thc = p.delta, p.theta0, p.thetac
    t = a - 1.0 - d
    slope = thc * d / 2.0 + 1.5 * th0 / (2.0 - d) + 0.5 * th0 * np.log((2.0 - d) / d)
    const = (
        thc * d * d / 6.0
        + 11.0 * th0 * d / (6.0 * (2.0 - d))
        + 0.5 * th0 * d * np.log((2.0 - d) / d)
        + th0 * np.log(2.0 - d)
    )
    return 0.5 * thc * t * t + slope * t + const


def _f2p_p1(a, p: PotentialParams):
    return p.theta0 * np.arctanh(a)


def _f2p_p2(a, p: PotentialParams):
    d, th0 = p.delta, p.theta0
    return th0 / (d * (2.0 - d)) * (a - (1.0 - d)) + 0.5 * th0 * np.log((2.0 - d) / d)


def _f2p_p3(a, p: PotentialParams):
    d, th0, thc = p.delta, p.theta0, p.thetac
    t = a - 1.0
    quad = (thc * d * (2.0 - d) - th0) / (2.0 * d * d * (2.0 - d))
    return (
        quad * t * t
        + th0 / (d * (2.0 - d)) * t
        + th0 / (2.0 - d)
        + 0.5 * th0 * np.log((2.0 - d) / d)
    )


def _f2p_p4(a, p: PotentialParams):
    d, th0, thc = p.delta, p.theta0, p.thetac
    return (
        thc * (a - 1.0 - d)
        + thc * d / 2.0
        + 1.5 * th0 / (2.0 - d)
        + 0.5 * th0 * np.log((2.0 - d) / d)
    )


def _f2pp_p1(a, p: PotentialParams):
    return p.theta0 / (1.0 - a * a)


def _f2pp_p2(a, p: PotentialParams):
    d = p.delta
    return p.theta0 / (d * (2.0 - d)) * np.ones_like(np.asarray(a, dtype=float))


def _f2pp_p3(a, p: PotentialParams):
    d, th0, thc = p.delta, p.theta0, p.thetac
    return (thc * d * (2.0 - d) - th0) / (d * d * (2.0 - d)) * (a - 1.0) + th0 / (
        d * (2.0 - d)
    )


def _f2pp_p4(a, p: PotentialParams):
    return p.thetac * np.ones_like(np.asarray(a, dtype=float))


_F2_PIECES = (_f2_p1, _f2_p2, _f2_p3, _f2_p4)
_F2P_PIECES = (_f2p_p1, _f2p_p2, _f2p_p3, _f2p_p4)
_F2PP_PIECES = (_f2pp_p1, _f2pp_p2, _f2pp_p3, _f2pp_p4)


def _piecewise(a: np.ndarray, p: PotentialParams, pieces) -> np.ndarray:
    d = p.delta
    out = np.full_like(a, np.nan)  # NaN selects no piece and stays NaN
    masks = (
        a <= 1.0 - d,
        (a > 1.0 - d) & (a <= 1.0),
        (a > 1.0) & (a <= 1.0 + d),
        a > 1.0 + d,
    )
    for mask, piece in zip(masks, pieces):
        if np.any(mask):
            out[mask] = piece(a[mask], p)
    return out


# ---------------------------------------------------------------------------
# Public evaluators
# ---------------------------------------------------------------------------

def f2_singular(c, p: PotentialParams):
    """Singular mixing entropy (theta0/2)((1+c)ln(1+c) + (1-c)ln(1-c)), |c| < 1."""
    arr, scalar = _prep(c)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("f2_singular requires |c| < 1")
    return _ret(_f2_p1(arr, p), scalar)


def f2_delta(c, p: PotentialParams):
    """Regularized extension of f2_singular; defined for all real c, even in c."""
    arr, scalar = _prep(c)
    return _ret(_piecewise(np.abs(arr), p, _F2_PIECES), scalar)


def f2_delta_prime(c, p: PotentialParams):
    """First derivative of f2_delta; odd in c, with value 0 at c = 0."""
    arr, scalar = _prep(c)
    return _ret(np.sign(arr) * _piecewise(np.abs(arr), p, _F2P_PIECES), scalar)


def f2_delta_prime2(c, p: PotentialParams):
    """Second derivative of f2_delta; even in c, constant thetac beyond 1+delta."""
    arr, scalar = _prep(c)
    return _ret(_piecewise(np.abs(arr), p, _F2PP_PIECES), scalar)


def dF_delta(c, p: PotentialParams):
    """Derivative of the effective potential: f2_delta'(c) - thetac*c.

    This is the nonlinearity appearing in the chemical-potential relation.  It
    is odd, constant for |c| > 1+delta, and |dF_delta| is bounded on
    [-c_star, c_star] uniformly in delta.  The sign property dF_delta(c)*c > 0
    for |c| > c_star holds only for the widths that :func:`structure_holds`
    admits.  At theta0 = 1, thetac = 3/2 it first fails at c_star itself for
    delta > 0.22570, and the constant tail value turns negative for delta >
    0.31142 (it is 1 + (1/2) ln 3 - 15/8 at delta = 0.5).
    """
    arr, scalar = _prep(c)
    return _ret(f2_delta_prime(arr, p) - p.thetac * arr, scalar)


def F_delta(c, p: PotentialParams):
    """Effective double-well potential f2_delta(c) - (thetac/2) c^2."""
    arr, scalar = _prep(c)
    return _ret(f2_delta(arr, p) - 0.5 * p.thetac * arr * arr, scalar)


def guarded_power(rho, k: float, rho_max: float = RHO_MAX_DEFAULT):
    """rho**k for rho >= 0 via exp(k ln rho), with an explicit overflow ceiling.

    Raises DomainError for negative or NaN arguments and OverflowError above
    ``rho_max``; 0**k is 0 for k > 0.
    """
    arr, scalar = _prep(rho)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise DomainError("guarded_power requires rho >= 0 (NaN is rejected)")
    if np.any(arr > rho_max):
        raise OverflowError(
            f"density {float(np.max(arr)):g} exceeds rho_max={rho_max:g} in power evaluation"
        )
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = np.exp(k * np.log(arr[pos]))
    return _ret(out, scalar)


def artificial_pressure(rho, delta: float, exponent: int = 11,
                        rho_max: float = RHO_MAX_DEFAULT):
    """Integrability-restoring pressure term rho**exponent / ln(1/delta)."""
    return guarded_power(rho, exponent, rho_max) / np.log(1.0 / delta)


def pressure(rho, fp: "FluidParams"):
    """Total pressure (gamma-1) rho**gamma + H rho; zero at rho = 0."""
    arr, scalar = _prep(rho)
    if np.any(arr < 0.0):
        raise DomainError("pressure requires rho >= 0")
    return _ret((fp.gamma - 1.0) * guarded_power(arr, fp.gamma) + fp.H * arr, scalar)


def pressure_slope(rho, delta: float, fp: "FluidParams"):
    """Slope Pi'(rho) of Pi = artificial_pressure(rho, delta, fp.art_exponent) + pressure(rho, fp).

    Raises DomainError for negative or NaN densities (through guarded_power).
    """
    arr, scalar = _prep(rho)
    k = fp.art_exponent
    out = (
        k * guarded_power(arr, k - 1) / np.log(1.0 / delta)
        + fp.gamma * (fp.gamma - 1.0) * guarded_power(arr, fp.gamma - 1.0)
        + fp.H
    )
    return _ret(out, scalar)


def free_energy_delta(rho, c, fp: "FluidParams", p: PotentialParams):
    """Free energy density rho**(gamma-1) + H ln(rho) + F_delta(c).

    The value is -inf at rho = 0 (the logarithm); energy integrands should use
    :func:`rho_free_energy_delta`, which applies the rho*ln(rho) -> 0 vacuum
    convention.
    """
    arr, scalar = _prep(rho)
    if np.any(arr < 0.0):
        raise DomainError("free_energy_delta requires rho >= 0")
    with np.errstate(divide="ignore"):
        logr = np.log(arr)
    out = guarded_power(arr, fp.gamma - 1.0) + fp.H * logr + F_delta(c, p)
    return _ret(out, scalar)


def rho_free_energy_delta(rho, c, fp: "FluidParams", p: PotentialParams):
    """Energy integrand rho * f_delta(rho, c) with rho*ln(rho) -> 0 at vacuum."""
    arr, scalar = _prep(rho)
    if np.any(arr < 0.0):
        raise DomainError("rho_free_energy_delta requires rho >= 0")
    out = guarded_power(arr, fp.gamma) + fp.H * xlogy(arr, arr) + arr * F_delta(c, p)
    return _ret(out, scalar)


def _c_star(p: PotentialParams) -> float:
    return float(1.0 - 2.0 / (1.0 + np.exp(2.0 * p.thetac / p.theta0)))


def constants(p: PotentialParams, grid_points: int = 2001) -> PotentialConstants:
    """Structural constants: exact c_star and spinodal, empirical sign-zone bound.

    ``bound_M_estimate`` is the maximum of |dF_delta| over a dense grid of
    [-c_star, c_star] and the delta test grid (including p.delta); the
    construction guarantees a finite delta-independent bound but no closed
    form for it.
    """
    c_star = _c_star(p)
    spinodal = float(np.sqrt(1.0 - p.theta0 / p.thetac))
    grid = np.linspace(-c_star, c_star, grid_points)
    bound = 0.0
    for d in sorted(set(DELTA_TEST_GRID) | {p.delta}):
        pd = PotentialParams(p.theta0, p.thetac, d)
        bound = max(bound, float(np.max(np.abs(dF_delta(grid, pd)))))
    return PotentialConstants(c_star, spinodal, bound)


def structure_holds(p: PotentialParams) -> bool:
    """Whether the width p.delta keeps the sign and convexity structure.

    True iff theta0/(delta(2-delta)) >= thetac and dF_delta(c_star) > 0.
    These are enough: under the curvature condition f2_delta'' >= thetac on
    [spinodal, inf) (the core is convex enough beyond the spinodal, the
    plateau clears thetac, the cubic piece interpolates linearly down to
    thetac, and the tail equals it), and c_star = tanh(thetac/theta0) >
    spinodal for every theta0 < thetac, so dF_delta does not decrease beyond
    c_star and dF_delta(c)*c > 0 for |c| > c_star reduces to the sign at
    c_star.  At theta0 = 1, thetac = 3/2 the sign at c_star fails first, for
    delta > 0.22570; convexity alone would allow delta <= 1 - spinodal =
    0.42265.
    """
    d = p.delta
    if p.theta0 / (d * (2.0 - d)) < p.thetac:
        return False
    return bool(dF_delta(_c_star(p), p) > 0.0)


def junction_gaps(p: PotentialParams) -> list[tuple[float, int, float, float]]:
    """One-sided values of f2_delta and its derivatives at the three knots.

    Returns tuples (knot, derivative_order, left_value, right_value) where the
    left value comes from the piece below the knot and the right value from
    the piece above, both evaluated exactly at the knot.  Twice continuous
    differentiability of the extension means every pair agrees.
    """
    knots = (1.0 - p.delta, 1.0, 1.0 + p.delta)
    rows = []
    for order, pieces in enumerate((_F2_PIECES, _F2P_PIECES, _F2PP_PIECES)):
        for j, knot in enumerate(knots):
            a = np.asarray(knot, dtype=float)
            left = float(pieces[j](a, p))
            right = float(pieces[j + 1](a, p))
            rows.append((knot, order, left, right))
    return rows


FIGURE1_COLUMNS = (
    "c",
    "f2d",
    "f2d_minus_quad",
    "f2d_p",
    "f2d_p_minus",
    "f2d_pp",
    "f2d_pp_minus",
)


def figure1_table(p: PotentialParams, grid) -> np.ndarray:
    """Tabulate the regularized potential and both derivatives on a grid.

    Columns follow :data:`FIGURE1_COLUMNS`: the argument c, f2_delta, the
    effective potential f2_delta - (thetac/2) c^2, the first derivative, the
    first derivative minus thetac*c, the second derivative, and the second
    derivative minus thetac (exactly zero beyond |c| = 1+delta).
    """
    c = np.asarray(grid, dtype=float)
    f2pp = f2_delta_prime2(c, p)
    return np.column_stack(
        [c, f2_delta(c, p), F_delta(c, p), f2_delta_prime(c, p), dF_delta(c, p),
         f2pp, f2pp - p.thetac]
    )
