"""Closed forms for the singular logarithmic mixing potential and its C2 regularization.

The singular core is the symmetric mixing-entropy function

    f2(c) = (theta0/2) * ((1+c) ln(1+c) + (1-c) ln(1-c)),   |c| < 1,

which blows up at the pure phases c = +-1.  The family ``f2_delta`` extends it
to the whole real line: it agrees with f2 exactly on [-(1-delta), 1-delta]
and continues in |c| through three polynomial pieces, held in one
coefficient table per parameter set: a plateau of constant curvature
k = theta0/(delta(2-delta)) (the core's curvature at 1-delta) on
(1-delta, 1], a cubic ramp whose curvature goes linearly from k to thetac on
(1, 1+delta], and a quadratic tail of curvature thetac.  Each piece starts
from the value, slope and curvature that the piece before it reaches at the
knot, so the extension is twice continuously differentiable by
construction, and every derivative order is read off the same
coefficients.  Because the tail curvature equals thetac, the effective
double-well potential F_delta(c) = f2_delta(c) - (thetac/2) c^2 grows only
linearly for large |c|; its derivative dF_delta is constant beyond 1+delta and
of size O(ln(1/delta)) there.

All evaluators accept scalars or numpy arrays, are pure, and are safe to call
from any thread.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .record import Record

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
    "guarded_powers",
    "artificial_pressure",
    "free_energy_delta",
    "rho_free_energy_delta",
    "pressure",
    "pressure_slope",
    "enthalpy",
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
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

# Regularization widths exercised by the junction / property check suites.
DELTA_TEST_GRID = (0.5, 0.1, 0.01, 1.0e-3)


class DomainError(ValueError):
    """Argument outside the mathematical domain of a closed-form evaluator."""


class PotentialParams(Record):
    """Temperature scales and regularization width of the mixing potential.

    ``0 < theta0 < thetac`` is required so that the effective potential is a
    genuine double well; ``delta`` in (0, 1) is the regularization width,
    with ``1 - delta`` a float below 1 (delta of 1e-17 rounds it to 1).
    """

    theta0: float = 1.0
    thetac: float = 1.5
    delta: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.theta0 < self.thetac):
            raise ValueError(
                f"theta0 must lie in (0, thetac), got theta0={self.theta0}, thetac={self.thetac}"
            )
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if 1.0 - self.delta == 1.0:  # the core's knot 1 - delta would be the pole c = 1
            raise ValueError(
                f"delta must leave 1 - delta below 1 in floating point, got {self.delta}"
            )


class PotentialConstants(Record):
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


def _xlogx(x):
    """x ln x with its limit 0 at x = 0; NaN (and a negative x) gives NaN, silently."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(x))


# ---------------------------------------------------------------------------
# Pieces of the folded argument a = |c|: the core up to 1 - delta, then the
# plateau, ramp and tail of the table.  Intervals are closed on the right, so
# a knot value uses the piece to its left.
# ---------------------------------------------------------------------------

def _core(a, p: PotentialParams, order: int):
    """Derivative ``order`` (0, 1 or 2) of the singular core at a = |c| < 1."""
    if order == 0:
        return 0.5 * p.theta0 * (_xlogx(1.0 + a) + _xlogx(1.0 - a))
    if order == 1:
        return p.theta0 * np.arctanh(a)
    return p.theta0 / (1.0 - a * a)


def _horner(coeffs, t):
    """Polynomial value by Horner's rule.  Unlike np.polyval it starts from the
    leading coefficient, so a constant piece stays finite at |c| = inf."""
    out = coeffs[0]
    for coeff in coeffs[1:]:
        out = out * t + coeff
    return out


@lru_cache(maxsize=64)
def _table(p: PotentialParams) -> tuple:
    """(knot, coefficients in t = a - knot of f2_delta, f2_delta', f2_delta'') per piece.

    Each piece is the double antiderivative of its curvature, started from the
    value and slope of the piece before it at its knot: the plateau keeps the
    core's curvature k at 1 - delta, the ramp goes linearly from k to thetac,
    and the tail stays at thetac.
    """
    d, thc = p.delta, p.thetac
    knots = (1.0 - d, 1.0, 1.0 + d)
    k = _core(knots[0], p, 2)
    curvatures = ([k], [(thc - k) / d, k], [thc])
    value, slope = _core(knots[0], p, 0), _core(knots[0], p, 1)
    table = []
    for j, (knot, curvature) in enumerate(zip(knots, curvatures)):
        f = np.polyint(curvature, 2, [slope, value])
        orders = tuple(tuple(map(float, np.polyder(f, m))) for m in range(3))
        table.append((knot, orders))
        if j + 1 < len(knots):
            t = knots[j + 1] - knot
            value, slope = _horner(orders[0], t), _horner(orders[1], t)
    return tuple(table)


def _piece(j: int, a, p: PotentialParams, order: int):
    """Piece j (0 the core, then plateau, ramp, tail) of f2_delta^(order) at a."""
    if j == 0:
        return _core(a, p, order)
    knot, orders = _table(p)[j - 1]
    return _horner(orders[order], a - knot)


def _piecewise(a: np.ndarray, p: PotentialParams, order: int) -> np.ndarray:
    if (a <= 1.0 - p.delta).all():  # the core alone: no table needed
        return _core(a, p, order)
    # piece j holds knot_j < a <= knot_j+1; NaN passes no knot, so it falls to
    # the core, which returns it as NaN
    above = [a > knot for knot, _ in _table(p)]
    masks = [~above[0]] + [lo & ~hi for lo, hi in zip(above, above[1:])] + [above[-1]]
    out = np.full_like(a, np.nan)
    for j, mask in enumerate(masks):
        if mask.any():
            out[mask] = _piece(j, a[mask], p, order)
    return out


# ---------------------------------------------------------------------------
# Public evaluators
# ---------------------------------------------------------------------------

def f2_singular(c, p: PotentialParams):
    """Singular mixing entropy (theta0/2)((1+c)ln(1+c) + (1-c)ln(1-c)), |c| < 1."""
    arr, scalar = _prep(c)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("f2_singular requires |c| < 1")
    return _ret(_core(arr, p, 0), scalar)


def f2_delta(c, p: PotentialParams):
    """Regularized extension of f2_singular; defined for all real c, even in c."""
    arr, scalar = _prep(c)
    return _ret(_piecewise(np.abs(arr), p, 0), scalar)


def f2_delta_prime(c, p: PotentialParams):
    """First derivative of f2_delta; odd in c, with value 0 at c = 0."""
    arr, scalar = _prep(c)
    return _ret(np.sign(arr) * _piecewise(np.abs(arr), p, 1), scalar)


def f2_delta_prime2(c, p: PotentialParams):
    """Second derivative of f2_delta; even in c, constant thetac beyond 1+delta."""
    arr, scalar = _prep(c)
    return _ret(_piecewise(np.abs(arr), p, 2), scalar)


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


def guarded_power(rho, k: float):
    """rho**k for rho >= 0 via exp(k ln rho), with an explicit overflow ceiling.

    Raises DomainError for negative or NaN arguments, and OverflowError above
    ``RHO_MAX_DEFAULT`` or where rho**k exceeds the float range; 0**k is 0 for
    k > 0.  The density evaluators below call it first: its one scan is their
    domain check.
    """
    return guarded_powers(rho, (k,))[0]


def guarded_powers(rho, ks: tuple[float, ...]) -> tuple:
    """One :func:`guarded_power` of ``rho`` per exponent in ``ks``, from one
    domain scan, one logarithm and one scan of it, each with the bits of its
    own call."""
    arr, scalar = _prep(rho)
    lo, hi = arr.min(initial=np.inf), arr.max(initial=0.0)  # a NaN reaches both
    if not lo >= 0.0:
        raise DomainError("guarded_power requires rho >= 0 (NaN is rejected)")
    if hi > RHO_MAX_DEFAULT:
        raise OverflowError(f"density {hi:g} exceeds rho_max={RHO_MAX_DEFAULT:g} in power evaluation")
    pos = None if lo > 0.0 else arr > 0.0  # no vacuum cell, no mask
    base = arr if pos is None else arr[pos]
    log_base = np.log(base)
    top = log_base.max(initial=-np.inf)  # k ln rho peaks at k top for every k > 0
    powers = []
    for k in ks:
        log_power = k * log_base
        if (k * top if k > 0 else log_power.max(initial=-np.inf)) > _LOG_FLOAT_MAX:
            worst = base.flat[np.argmax(log_power)]
            raise OverflowError(f"density {worst:g} to the power {k:g} exceeds the float range")
        if pos is None:
            powers.append(_ret(np.exp(log_power), scalar))
        else:
            out = np.zeros_like(arr)
            out[pos] = np.exp(log_power)
            powers.append(_ret(out, scalar))
    return tuple(powers)


def artificial_pressure(rho, delta: float, exponent: int = 11):
    """Integrability-restoring pressure term rho**exponent / ln(1/delta)."""
    return guarded_power(rho, exponent) / np.log(1.0 / delta)


def pressure(rho, fp: "FluidParams", delta: float | None = None):
    """Total pressure (gamma-1) rho**gamma + H rho; zero at rho = 0.  Given
    ``delta``, the pair (Pi, Pi') a Picard step lags instead: Pi this pressure
    plus :func:`artificial_pressure`, summed with overflow warnings off, and
    Pi' its :func:`pressure_slope`, with their bits from one guarded scan."""
    arr, scalar = _prep(rho)
    if delta is None:
        return _ret((fp.gamma - 1.0) * guarded_power(arr, fp.gamma) + fp.H * arr, scalar)
    k, gam, scale = fp.art_exponent, fp.gamma, np.log(1.0 / delta)
    art1, gas1, art, gas = guarded_powers(arr, (k - 1, gam - 1.0, k, gam))
    slope = k * art1 / scale + gam * (gam - 1.0) * gas1 + fp.H
    with np.errstate(over="ignore", invalid="ignore"):
        total = art / scale + ((gam - 1.0) * gas + fp.H * arr)
    return _ret(total, scalar), _ret(slope, scalar)


def pressure_slope(rho, delta: float, fp: "FluidParams"):
    """Slope Pi'(rho) of Pi = artificial_pressure(rho, delta, fp.art_exponent) + pressure(rho, fp)."""
    arr, scalar = _prep(rho)
    k = fp.art_exponent
    art, gas = guarded_powers(arr, (k - 1, fp.gamma - 1.0))
    out = k * art / np.log(1.0 / delta) + fp.gamma * (fp.gamma - 1.0) * gas + fp.H
    return _ret(out, scalar)


def enthalpy(s, delta: float, fp: "FluidParams", rho=None) -> tuple:
    """The enthalpy h, with h' = Pi'(rho)/rho, and its slope dh/ds = Pi'(rho),
    both at rho = exp(s), which a caller that has it passes as ``rho``:

        h = k rho^(k-1) / ((k-1) ln(1/delta)) + gamma rho^(gamma-1) + H s,

    from the powers of :func:`pressure_slope`.  Taken in s = ln rho, h has no
    pole at vacuum; the powers go through :func:`guarded_power`, so a density
    above its ceiling raises OverflowError."""
    arr, scalar = _prep(s)
    k = fp.art_exponent
    art, gas = guarded_powers(np.exp(arr) if rho is None else rho, (k - 1, fp.gamma - 1.0))
    art = art / np.log(1.0 / delta)
    value = k / (k - 1.0) * art + fp.gamma * gas + fp.H * arr
    slope = k * art + fp.gamma * (fp.gamma - 1.0) * gas + fp.H
    return _ret(value, scalar), _ret(slope, scalar)


def free_energy_delta(rho, c, fp: "FluidParams", p: PotentialParams):
    """Free energy density rho**(gamma-1) + H ln(rho) + F_delta(c).

    The value is -inf at rho = 0 (the logarithm); energy integrands should use
    :func:`rho_free_energy_delta`, which applies the rho*ln(rho) -> 0 vacuum
    convention.
    """
    arr, scalar = _prep(rho)
    power = guarded_power(arr, fp.gamma - 1.0)  # before the logarithm can warn
    with np.errstate(divide="ignore"):
        logr = np.log(arr)
    return _ret(power + fp.H * logr + F_delta(c, p), scalar)


def rho_free_energy_delta(rho, c, fp: "FluidParams", p: PotentialParams):
    """Energy integrand rho * f_delta(rho, c) with rho*ln(rho) -> 0 at vacuum."""
    arr, scalar = _prep(rho)
    out = guarded_power(arr, fp.gamma) + fp.H * _xlogx(arr) + arr * F_delta(c, p)
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
    if _piece(1, 1.0, p, 2) < p.thetac:  # the plateau's constant curvature k
        return False
    return bool(dF_delta(_c_star(p), p) > 0.0)


def junction_gaps(p: PotentialParams) -> list[tuple[float, int, float, float]]:
    """One-sided values of f2_delta and its derivatives at the three knots.

    Returns tuples (knot, derivative_order, left_value, right_value) where the
    left value comes from the piece below the knot and the right value from
    the piece above, both evaluated exactly at the knot.  Twice continuous
    differentiability of the extension means every pair agrees.
    """
    rows = []
    for order in range(3):
        for j, (knot, _) in enumerate(_table(p)):
            left, right = _piece(j, knot, p, order), _piece(j + 1, knot, p, order)
            rows.append((knot, order, float(left), float(right)))
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
    f2, f2p, f2pp = f2_delta(c, p), f2_delta_prime(c, p), f2_delta_prime2(c, p)
    # the offset columns use the expressions of F_delta and dF_delta
    return np.column_stack(
        [c, f2, f2 - 0.5 * p.thetac * c * c, f2p, f2p - p.thetac * c, f2pp, f2pp - p.thetac]
    )
