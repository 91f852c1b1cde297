"""Adaptively damped fixed-point solver for the stationary two-phase balance system in 1-D.

The unknown quadruple (rho, u, mu, c) satisfies, on (0, L) with eps in (0, 1):

    eps^2 rho + (rho u)'                    = eps^4 rho'' + eps^2 rho0
    visc u''  = sigma * [ eps^2 rho u + (rho u^2)' + Pi(rho)'
                          + eps^4 rho' u' + rho dF(c) c' - rho mu c'
                          - rho g1 - g2 ]
    mu''      = sigma * [ eps rho c + rho u c' - eps rho0 c0 ]
    c''       = sigma * [ rho dF(c) - rho mu ]

with u = 0 and zero normal derivatives for rho, mu, c at the walls,
visc = 2 lambda1 + lambda2, and Pi the total plus artificial pressure.  Two
integral constraints pin the Neumann constants: the rho-weighted means of c
and mu are prescribed (the c one with eps-dependent corrections), and one
helper, ``_pin_constant``, imposes both.  The load factor sigma in (0, 1]
scales every nonlinear right side.  By default the solver runs one stage,
sigma = 1 at eps = 1e-3, from :func:`hydrostatic_state`, the closed-form
eps -> 0 limit at rest (c = c0, h(rho) = G1 + int g2/rho + C with h the
enthalpy, and the O(eps^2) velocity that keeps its mass balance at eps); a
longer ``sigma_schedule``
ramps sigma to 1 and a longer ``eps_schedule`` walks eps down, as a
continuation ladder for problems the one stage cannot reach.
Every stage gets one attempt: a persistently rising residual raises
:class:`DivergenceError` and a stage that runs out of ``max_picard`` raises
:class:`NotConverged`, each naming the stage's sigma and eps.

Each iteration lags the nonlinear couplings at the previous iterate (no global
Newton linearization), all in one :class:`Lagged` record per step that
:func:`lagged` builds, the one place the lagging is decided, and blends its
proposal with the incoming state by a damping factor that starts each stage
at ``SolveControls.damping`` and is halved on each residual rise, down to
1/8.  The one exception to the lagging, forced by stability, is the
mass-pressure pair: a velocity proposal obtained from the momentum equation
with a frozen-density pressure feeds the continuity solve with a perturbation
gain of order P'(rho0)/(visc * eps^2), which diverges for any useful eps.
:func:`solve_flow_coupled` therefore solves the linearized (rho, u) block as
one banded system per iteration, with the pressure slope Pi'(rho_old) frozen
at the previous iterate; every other coupling stays lagged.  The fixed points
are identical to those of the naive splitting.  Density positivity and exact
mass bookkeeping are preserved because the density actually returned is always
the M-matrix upwind continuity solve for the damped velocity.

The delta and eps sweeps, :func:`delta_sweep` and :func:`eps_sweep`, return
one (status, report, state, log) row per value, first value first; each
value is an independent solve from the hydrostatic start.
"""

from __future__ import annotations

import warnings
from dataclasses import field, replace
from functools import partial, wraps
from itertools import starmap
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import mesh
from .mesh import Field, Grid, SingularSystemError
from .potential import (
    PotentialParams,
    artificial_pressure,
    dF_delta,
    enthalpy,
    pressure,
    pressure_slope,
)
from .record import Record

__all__ = [
    "FluidParams",
    "ProblemSpec",
    "MmsSources",
    "State",
    "SolveControls",
    "SingularSystemError",
    "DivergenceError",
    "NotConverged",
    "SOLVER_ERRORS",
    "Lagged",
    "lagged",
    "lagged_phase",
    "constant_state",
    "hydrostatic_density",
    "hydrostatic_state",
    "solve_continuity",
    "solve_momentum",
    "solve_flow_coupled",
    "solve_mu",
    "solve_c",
    "picard_step",
    "continuation_solve",
    "check_sweep",
    "delta_sweep",
    "eps_sweep",
    "StageLog",
    "ConvergenceLog",
]


class DivergenceError(RuntimeError):
    """Fixed-point residual grew persistently; the message names the stage's sigma and eps."""


class NotConverged(RuntimeError):
    """A stage spent ``max_picard`` iterations with the residual still above tol_rel."""


class FluidParams(Record):
    """Adiabatic exponent, viscosities, mixing coefficient, artificial-pressure exponent."""

    gamma: float = 2.0
    lambda1: float = 1.0
    lambda2: float = 0.0
    H: float = 1.0
    art_exponent: int = 11

    def __post_init__(self) -> None:
        if not self.lambda1 > 0.0:
            raise ValueError(f"lambda1 must be positive, got {self.lambda1}")
        if not 2.0 * self.lambda1 + 3.0 * self.lambda2 >= 0.0:
            raise ValueError(
                "lambda2 must satisfy 2*lambda1 + 3*lambda2 >= 0, "
                f"got lambda1={self.lambda1}, lambda2={self.lambda2}"
            )
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.gamma <= 1.5:
            # level 3 skips Record.__init__ to the constructing line
            warnings.warn(
                f"gamma={self.gamma} <= 3/2 lies outside the regime the analysis covers",
                stacklevel=3,
            )
        if not self.H > 0.0:
            raise ValueError(f"H must be positive, got {self.H}")
        mesh.integer_field(self, "art_exponent", 2)

    @property
    def visc(self) -> float:
        """Coefficient 2*lambda1 + lambda2 of the 1-D viscous operator (always > 0)."""
        return 2.0 * self.lambda1 + self.lambda2


class MmsSources(Record):
    """Optional per-equation manufactured sources (verification mode)."""

    continuity: Optional[Field] = None
    momentum: Optional[Field] = None
    mu: Optional[Field] = None
    c: Optional[Field] = None


class ProblemSpec(Record):
    """Domain, parameters, masses, forcing, and regularization of one problem."""

    grid: Grid
    potential: PotentialParams
    fluid: FluidParams
    m1: float = 1.0
    m2: float = 0.0
    g1: Optional[Field] = None
    g2: Optional[Field] = None
    eps: float = 1.0e-2
    mms_sources: Optional[MmsSources] = None

    def __post_init__(self) -> None:
        if not self.m1 > 0.0:
            raise ValueError(f"m1 must be positive, got {self.m1}")
        if not (-self.m1 < self.m2 < self.m1):
            raise ValueError(f"m2 must lie in (-m1, m1), got m2={self.m2}, m1={self.m1}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        for name in ("g1", "g2"):
            f = getattr(self, name)
            if f is None:
                object.__setattr__(self, name, self.grid.zeros())
            elif f.grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")

    @property
    def rho0(self) -> float:
        """Mean density m1 / L."""
        return self.m1 / self.grid.length_L

    @property
    def c0(self) -> float:
        """Mean concentration m2 / m1."""
        return self.m2 / self.m1


class State(Record):
    """Solution quadruple (rho, u, mu, c) as grid functions."""

    rho: Field
    u: Field
    mu: Field
    c: Field

    def __post_init__(self) -> None:
        g = self.rho.grid
        for name in ("u", "mu", "c"):
            if getattr(self, name).grid != g:
                raise ValueError(f"{name} lives on a different grid than rho")
        if (self.rho.values < 0.0).any():
            raise ValueError("rho must be nonnegative everywhere")


class SolveControls(Record):
    """Continuation schedules and fixed-point iteration controls; ``damping`` is
    the starting factor of each stage, halved on each residual rise, down to 1/8.

    The default schedules make one stage, sigma = 1 at eps = 1e-3; the ladder
    sigma 0.25, 0.5, 0.75, 1 then eps 1e-1, 1e-2, 1e-3 is the pair
    ``sigma_schedule=(0.25, 0.5, 0.75, 1.0), eps_schedule=(1e-1, 1e-2, 1e-3)``.
    """

    sigma_schedule: tuple = (1.0,)
    damping: float = 1.0
    max_picard: int = 500
    tol_rel: float = 1.0e-8
    eps_schedule: tuple = (1.0e-3,)

    def __post_init__(self) -> None:
        sig = tuple(float(s) for s in self.sigma_schedule)
        eps = tuple(float(e) for e in self.eps_schedule)
        object.__setattr__(self, "sigma_schedule", sig)
        object.__setattr__(self, "eps_schedule", eps)
        if not sig or any(not (0.0 < s <= 1.0) for s in sig):
            raise ValueError(f"sigma_schedule entries must lie in (0, 1], got {sig}")
        if any(b <= a for a, b in zip(sig, sig[1:])) or sig[-1] != 1.0:
            raise ValueError(f"sigma_schedule must increase and end at 1, got {sig}")
        if not eps or any(not (0.0 < e < 1.0) for e in eps):
            raise ValueError(f"eps_schedule entries must lie in (0, 1), got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"eps_schedule must be strictly decreasing, got {eps}")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        mesh.integer_field(self, "max_picard", 1)
        if not self.tol_rel > 0.0:
            raise ValueError(f"tol_rel must be positive, got {self.tol_rel}")


# ---------------------------------------------------------------------------
# Elementary sub-solves
# ---------------------------------------------------------------------------

def _face_means(a: np.ndarray) -> np.ndarray:
    """Means of adjacent cell values at the n+1 faces; zero at the walls, u's trace there."""
    out = np.zeros(a.size + 1)
    out[1:-1] = 0.5 * (a[:-1] + a[1:])
    return out


def _upwind_split(uf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max(uf, 0), min(uf, 0)): the velocity carrying the left and the right cell's density."""
    return np.maximum(uf, 0.0), np.minimum(uf, 0.0)


def _upwind_flux(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mass flux at the n+1 faces as the continuity bands assemble it (zero at the walls)."""
    up, um = _upwind_split(_face_means(u))
    flux = np.zeros(up.size)
    flux[1:-1] = up[1:-1] * rho[:-1] + um[1:-1] * rho[1:]
    return flux


def _with_source(rhs: np.ndarray, spec: ProblemSpec, name: str) -> np.ndarray:
    """Add the manufactured source of equation ``name``, if the spec carries one."""
    src = None if spec.mms_sources is None else getattr(spec.mms_sources, name)
    return rhs if src is None else rhs + src.values


def _continuity_rhs(eps: float, spec: ProblemSpec) -> np.ndarray:
    """Right side eps^2 rho0 of the continuity equation, plus its manufactured source."""
    return _with_source(np.full(spec.grid.n_cells, eps**2 * spec.rho0), spec, "continuity")


def _right_side(field: str, sub_solve: str):
    """Evaluate a right-side builder ``build(state, ...)`` with numpy's overflow
    and invalid-value warnings off.  The builder works on plain arrays, so a
    non-finite intermediate reaches the result, where it is checked once: a
    non-finite entry raises :class:`~chns1d.mesh.NonFiniteError` naming
    ``field``, ``sub_solve`` and the number of cells, with the incoming state's
    magnitudes, so a blow-up is named where it starts."""
    def decorate(build):
        @wraps(build)
        def checked(state, *args):
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = build(state, *args)
            if np.isfinite(rhs).all():
                return rhs
            sizes = ", ".join(
                f"|{k}| {np.max(np.abs(getattr(state, k).values)):.3g}"
                for k in ("rho", "u", "mu", "c")
            )
            raise mesh.NonFiniteError(
                f"{sub_solve} sub-solve: the {field} is not finite in "
                f"{np.count_nonzero(~np.isfinite(rhs))} of {rhs.size} cells; incoming max {sizes}"
            )
        return checked
    return decorate


class Lagged(NamedTuple):
    """The coefficients a Picard step freezes at its incoming (rho, c)."""

    dF: np.ndarray        # dF_delta(c)
    dc: np.ndarray        # c', centred, Neumann
    pi: np.ndarray        # Pi(rho), artificial part included
    pi_slope: np.ndarray  # Pi'(rho) of that Pi, so the block's linearization matches F1


def lagged_phase(c: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """dF_delta(c) and c', the concentration's lagged coefficients: the part of
    :func:`lagged` that the mu and c right sides read, and all that the
    diagnostics' projection residuals evaluate.  A non-finite c passes through,
    unwarned, to the right sides' checks, which name it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return dF_delta(c, spec.potential), mesh.gradient_of(c, "neumann", spec.grid.spacing_h)


def lagged(state: State, spec: ProblemSpec) -> Lagged:
    """Evaluate ``state``'s lagged coefficients once."""
    rho, p, fp = state.rho.values, spec.potential, spec.fluid
    pi_slope = pressure_slope(rho, p.delta, fp)
    with np.errstate(over="ignore", invalid="ignore"):
        pi = artificial_pressure(rho, p.delta, fp.art_exponent) + pressure(rho, fp)
    return Lagged(*lagged_phase(state.c.values, spec), pi, pi_slope)


def _continuity_bands(uf: np.ndarray, eps: float, g: Grid):
    """Tridiagonal bands of eps^2 I + upwind advection - eps^4 Lap (Neumann)."""
    n, h = g.n_cells, g.spacing_h
    up, um = _upwind_split(uf)
    e4 = eps**4 / h**2
    diag = eps**2 + (up[1:] - um[:-1]) / h + 2.0 * e4
    diag[0] -= e4
    diag[-1] -= e4
    upper = um[1:-1] / h - e4
    lower = -up[1:-1] / h - e4
    # Column sums telescope to eps^2 exactly; a loss of that excess means the
    # advection terms (|u_face|/h) swamp eps^2 and the matrix is no M-matrix.
    excess = diag.copy()
    excess[:-1] += lower
    excess[1:] += upper
    if excess.min() <= 0.5 * eps**2:
        raise SingularSystemError(
            f"transport matrix lost diagonal dominance (eps={eps:g}, n={n}): incoming "
            f"max|u_face|/h {np.abs(uf).max() / h:.3g} against eps^2 {eps**2:.3g}"
        )
    return diag, upper, lower


def solve_continuity(u: Field, eps: float, spec: ProblemSpec) -> Field:
    """Solve the regularized continuity equation for the density, given u.

    Upwind fluxes with zero wall flux make the assembled operator an M-matrix,
    so the density is nonnegative, and summing the discrete equation
    telescopes the fluxes away, so integrate(rho) = m1 holds to machine
    precision (manufactured sources excepted).
    """
    g = spec.grid
    diag, upper, lower = _continuity_bands(_face_means(u.values), eps, g)
    b = _continuity_rhs(eps, spec)
    rho = mesh.solve_tridiagonal("continuity", lower, diag, upper, b)
    if rho.min() < -1.0e-9 * max(spec.rho0, 1.0):
        raise SingularSystemError(f"continuity solve produced negative density {rho.min():g}")
    return Field(g, np.maximum(rho, 0.0))


@_right_side("momentum right side", "momentum")
def _momentum_forcing(state: State, lag: Lagged, eps: float, spec: ProblemSpec) -> np.ndarray:
    """Lagged right side of the momentum balance (everything but visc*u'')."""
    h, dc = spec.grid.spacing_h, lag.dc
    rho, u, mu = state.rho.values, state.u.values, state.mu.values
    return (
        eps**2 * rho * u
        + mesh.gradient_of(rho * u * u, "dirichlet0", h)
        + mesh.gradient_of(lag.pi, "neumann", h)
        + eps**4 * mesh.gradient_of(rho, "neumann", h) * mesh.gradient_of(u, "dirichlet0", h)
        + rho * lag.dF * dc
        - rho * mu * dc
        - rho * spec.g1.values
        - spec.g2.values
    )


def solve_momentum(state: State, lag: Lagged, sigma: float, eps: float, spec: ProblemSpec) -> Field:
    """Solve visc u'' = sigma * (lagged momentum right side) with u = 0 at the walls.

    All nonlinear terms are evaluated at the incoming state.  This plain
    lagged solve is the verification surface for the momentum discretization;
    the fixed-point iteration itself uses :func:`solve_flow_coupled`, whose
    fixed points satisfy exactly this equation.
    """
    rhs = _with_source(sigma * _momentum_forcing(state, lag, eps, spec), spec, "momentum")
    return mesh.laplacian_solve(Field(spec.grid, rhs / spec.fluid.visc), "dirichlet0")


def solve_flow_coupled(
    state: State, lag: Lagged, sigma: float, eps: float, spec: ProblemSpec
) -> tuple[Field, Field]:
    """One linearized (rho, u) block solve with implicit pressure feedback.

    Solves, as a single banded system in the interleaved unknowns
    (rho_0, u_0, rho_1, u_1, ...):

        eps^2 rho + div_up(rho; u_old) + div(rho_old (u - u_old)) - eps^4 rho''
            = eps^2 rho0
        visc u'' - sigma (Pi'(rho_old) (rho - rho_old))' = sigma F1(state)

    where div_up freezes the upwind face velocities at the incoming state and
    F1, the fully lagged momentum right side, and Pi' come from ``lag``.
    At a fixed point (rho, u) equal the incoming pair and the equations reduce
    to the plain lagged splitting; away from it the implicit pressure-density
    coupling removes the splitting's unstable mass-pressure mode.
    """
    g = spec.grid
    n, h = g.n_cells, g.spacing_h
    rho_t, u_t = state.rho.values, state.u.values
    uf, rho_f = _face_means(u_t), _face_means(rho_t)

    # Interleaved unknowns (rho_0, u_0, rho_1, ...): entry (2i+r, 2j+c) of the
    # full matrix sits at ab[6 + 2i+r - 2j-c, 2j+c] in the (10, 2n) Fortran
    # band storage of LAPACK's gbsv, whose first three rows hold fill-in.
    ab = np.zeros((10, 2 * n), order="F")

    def block(r: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The views of ``ab`` that hold the tridiagonal (diag, upper, lower)
        bands of the block of row field r and column field c, 0 = rho and 1 = u."""
        return ab[6 + r - c, c::2], ab[4 + r - c, 2 + c::2], ab[8 + r - c, c:-2:2]

    # Each block's bands go into their views as they are computed, so beside
    # ab only one block's temporaries are ever alive.
    for view, band in zip(block(0, 0), _continuity_bands(uf, eps, g)):
        view[...] = band
    d, up, lo = block(0, 1)  # the correction flux acts at interior faces
    flux = rho_f / (2.0 * h)
    np.subtract(flux[1:], flux[:-1], out=d)
    up[...] = flux[1:-1]
    np.negative(flux[1:-1], out=lo)
    coef = -sigma * lag.pi_slope
    for view, part, band in zip(block(1, 0), (coef, coef[1:], coef[:-1]),
                                mesh.bands(mesh.gradient, g, "neumann")):
        np.multiply(part, band, out=view)
    for view, band in zip(block(1, 1), mesh.bands(mesh.laplacian_apply, g, "dirichlet0")):
        np.multiply(spec.fluid.visc, band, out=view)

    b = np.empty(2 * n)
    b[0::2] = _continuity_rhs(eps, spec)
    old_flux = rho_f * uf  # the u_old part of the correction flux
    b[0::2] += (old_flux[1:] - old_flux[:-1]) / h
    b[1::2] = _with_source(sigma * _momentum_forcing(state, lag, eps, spec), spec, "momentum")
    b[1::2] -= sigma * mesh.gradient_of(lag.pi_slope * rho_t, "neumann", h)
    z = mesh.solve_banded("(rho, u) block", 3, 3, ab, b)
    return Field(g, np.maximum(z[0::2], 0.0)), Field(g, z[1::2])


def _projection(rhs: np.ndarray, g: Grid) -> tuple[np.ndarray, float]:
    """Remove the mean from a Neumann right side; report the removed integral."""
    mean = float(rhs.sum() / rhs.size)
    return rhs - mean, abs(mean * g.length_L)


def _pin_constant(
    hat: np.ndarray, target: float, rho: np.ndarray, weight_integral: float, spec: ProblemSpec
) -> Field:
    """Fix the Neumann constant of a sub-solve: ``hat + s`` with
    s = (target - integrate(rho hat)) / weight_integral, where weight_integral
    is the coefficient of s in the constraint's rho-weighted integral.  A weight
    integral below 1e-12 max(1, m1) raises :class:`mesh.DegenerateWeightError`."""
    if weight_integral <= 1.0e-12 * max(1.0, spec.m1):
        raise mesh.DegenerateWeightError(
            f"density-weighted constraint is degenerate (integral {weight_integral:g})"
        )
    s = (target - mesh.integral_of(rho * hat, spec.grid.spacing_h)) / weight_integral
    return Field(spec.grid, hat + s)


@_right_side("mu right side", "mu")
def _mu_rhs(state: State, dc: np.ndarray, eps: float, spec: ProblemSpec) -> np.ndarray:
    """eps rho c + rho u c' - eps rho0 c0, c' lagged as ``dc``: the mu right side
    without sigma or source."""
    rho, u, c = state.rho.values, state.u.values, state.c.values
    return eps * rho * c + rho * u * dc - eps * spec.rho0 * spec.c0


@_right_side("c right side", "c")
def _c_rhs(state: State, dF: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """rho dF_delta(c) - rho mu, dF_delta(c) lagged as ``dF``: the c right side
    without sigma or source."""
    rho = state.rho.values
    return rho * dF - rho * state.mu.values


def solve_mu(state: State, lag: Lagged, sigma: float, eps: float, spec: ProblemSpec) -> tuple[Field, float]:
    """Solve the chemical-potential Poisson problem and pin its constant.

    The right side sigma*(eps rho c + rho u c' - eps rho0 c0) is projected to
    zero mean (the projection magnitude is returned as a compatibility
    residual that vanishes as the outer iteration converges), the Neumann
    problem is solved, and the constant is fixed so the rho-weighted mean of
    mu equals that of dF_delta(c).
    """
    g = spec.grid
    rhs0, proj = _projection(_with_source(sigma * _mu_rhs(state, lag.dc, eps, spec), spec, "mu"), g)
    mu_hat = mesh.laplacian_solve(Field(g, rhs0), "neumann").values
    rho, h = state.rho.values, g.spacing_h
    target = mesh.integral_of(rho * lag.dF, h)
    return _pin_constant(mu_hat, target, rho, mesh.integral_of(rho, h), spec), proj


def _c_mass_target(rho: np.ndarray, c: np.ndarray, eps: float, spec: ProblemSpec) -> float:
    """Target of the relative-mass constraint integrate(rho c) = target.

    target = m2 + eps integrate((rho0-rho) c) - eps^3 integrate(rho' c'); solve_c
    imposes it and diagnostics.constraint_check measures the defect against it.
    """
    h = spec.grid.spacing_h
    drho = mesh.gradient_of(rho, "neumann", h)
    dc = mesh.gradient_of(c, "neumann", h)
    i1 = mesh.integral_of((spec.rho0 - rho) * c, h)
    i2 = mesh.integral_of(drho * dc, h)
    return spec.m2 + eps * i1 - eps**3 * i2


def solve_c(state: State, lag: Lagged, sigma: float, eps: float, spec: ProblemSpec) -> tuple[Field, float]:
    """Solve the concentration Poisson problem and impose the relative-mass constraint.

    The right side sigma*(rho dF_delta(c_prev) - rho mu) is mean-projected
    (projection magnitude returned), the Neumann problem is solved, and the
    additive constant s is chosen so that

        integrate(rho (c+s)) = m2 + eps integrate((rho0-rho)(c+s))
                               - eps^3 integrate(rho' c')

    holds exactly (the gradient term does not see s).
    """
    g, h = spec.grid, spec.grid.spacing_h
    rho = state.rho.values
    rhs0, proj = _projection(_with_source(sigma * _c_rhs(state, lag.dF, spec), spec, "c"), g)
    c_hat = mesh.laplacian_solve(Field(g, rhs0), "neumann").values
    weight = mesh.integral_of(rho, h) - eps * mesh.integral_of(spec.rho0 - rho, h)
    return _pin_constant(c_hat, _c_mass_target(rho, c_hat, eps, spec), rho, weight, spec), proj


# ---------------------------------------------------------------------------
# Fixed-point iteration and continuation
# ---------------------------------------------------------------------------

def constant_state(spec: ProblemSpec, eps: float) -> State:
    """The spatially constant quadruple (rho0, 0, dF_delta(c0), c0).

    With zero forcing this is an exact solution for every sigma and eps.
    """
    g = spec.grid
    rho = solve_continuity(g.zeros(), eps, spec)
    mu0 = dF_delta(spec.c0, spec.potential)
    return State(rho, g.zeros(), g.field(mu0), g.field(spec.c0))


def _trapezoid_sums(f: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid integrals of the cell values ``f`` from the first cell centre to each."""
    out = np.empty(f.size)
    out[0] = 0.0
    np.cumsum(0.5 * h * (f[:-1] + f[1:]), out=out[1:])
    return out


def _capped(rise: float, fall: float) -> float:
    """The factor, at most 1, that scales a Newton step in ln rho whose
    largest rise is ``rise`` and largest fall ``fall`` to rise by at most
    1/2 and fall by at most 2: h is convex in ln rho, so rises overshoot."""
    return min(1.0, 0.5 / max(rise, 1.0e-300), 2.0 / max(fall, 1.0e-300))


# Cap of the hydrostatic start's Newton iteration; the positive limits met
# so far take 2 to 26 iterations.
HYDROSTATIC_MAX_NEWTON = 50


def hydrostatic_density(spec: ProblemSpec, G1: Optional[np.ndarray] = None) -> np.ndarray:
    """The density of the eps -> 0 limit at rest: h(rho) = G1 + J + C, where
    h is the :func:`~chns1d.potential.enthalpy`, ``G1`` the potential of g1
    at the cell centres (by default the trapezoid sums of g1's cell values),
    J the trapezoid sums of g2/rho, and C is set by integrate(rho) = m1.

    Newton in s = ln rho, which keeps rho > 0, with C a bordered unknown,
    from its first step off the constant state with J frozen there (whose
    Jacobian is the scalar slope).  Each row less the row before it is lower
    bidiagonal in ds, so ds = x + dC y from two forward recurrences, written
    as products and prefix sums, and the mass row fixes dC.  As h is convex
    in s, a step is scaled so that no cell's s rises by more than 1/2 or
    falls by more than 2.  The iteration ends with a Newton step of at most
    1e-8 while the rows, in s, are at most 1e-6, and the density is rescaled
    to mass m1 exactly.

    No numpy warning escapes.  A forcing potential that is not finite raises
    :class:`~chns1d.mesh.NonFiniteError`, a density above the power ceiling
    OverflowError, and a non-finite step, or :data:`HYDROSTATIC_MAX_NEWTON`
    steps without convergence, :class:`NotConverged`: with a g2 force the
    limit can have no positive density.
    """
    h, n = spec.grid.spacing_h, spec.grid.n_cells
    delta, fp = spec.potential.delta, spec.fluid
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if G1 is None:
            G1 = _trapezoid_sums(spec.g1.values, h)
        P = G1 + _trapezoid_sums(spec.g2.values, h) / spec.rho0
        s0 = np.log(spec.rho0)
        ent0, slope0 = enthalpy(s0, delta, fp)
        C = ent0 - P.sum() / n
        if not (np.isfinite(P).all() and np.isfinite(C)):
            raise mesh.NonFiniteError(
                "hydrostatic start: the potential of the forcing, or its mean, is not finite"
            )
        half_g2, dG1, target = 0.5 * h * spec.g2.values, G1[1:] - G1[:-1], spec.m1 / h
        ds = (P + C - ent0) / slope0
        s = s0 + _capped(float(ds.max()), -float(ds.min())) * ds
        r, ratio = np.empty(n), np.empty(n)
        ratio[0] = 1.0
        for it in range(1, HYDROSTATIC_MAX_NEWTON + 1):
            ent, slope = enthalpy(s, delta, fp)
            rho = np.exp(s)
            w = half_g2 / rho  # J's trapezoid terms
            r[0] = G1[0] + C - ent[0]
            np.add(w[:-1], w[1:], out=r[1:])
            r[1:] += dG1 - (ent[1:] - ent[:-1])
            diag = slope + w
            diag[0] = slope[0]
            np.cumprod((slope[:-1] - w[:-1]) / diag[1:], out=ratio[1:])
            ds = ratio * np.cumsum(r / (diag * ratio))
            y = ratio / diag[0]
            d_c = (target - rho.sum() - (rho * ds).sum()) / (rho * y).sum()
            ds += d_c * y
            rise, fall = float(ds.max()), -float(ds.min())
            size = max(rise, fall)  # NaN if a step is NaN: both are
            if not 1.0e-8 < size < np.inf:  # converged, or a step that is not finite
                break
            scale = _capped(rise, fall)
            s += scale * ds
            C += scale * d_c
        # a step that vanishes while the rows, in s, do not is no convergence
        if size <= 1.0e-8 and np.abs(r / diag).max() <= 1.0e-6:
            rho = np.exp(s + ds)
            return rho * (spec.m1 / mesh.integral_of(rho, h))
    raise NotConverged(
        f"hydrostatic start: Newton step {size:g} in ln rho after {it} iterations; "
        "the eps -> 0 limit may have no positive density"
    )


def _continuity_velocity(rho: np.ndarray, eps: float, spec: ProblemSpec) -> np.ndarray:
    """Cell velocities whose :func:`solve_continuity` at ``eps`` returns ``rho``.

    Summing the continuity rows from the left wall gives the total flux G at
    each interior face, the sum of h (b - eps^2 rho) with b the rows' right
    side (eps^2 rho0 and any manufactured source); adding back the diffusive
    part leaves the advective flux F = G + eps^4 (rho_i+1 - rho_i)/h, which
    is the upwind density times the face velocity, of the sign of F.  The face velocities are the means of the adjacent cell
    values, which fixes u up to a checkerboard (-1)^i t; t puts each wall
    cell at half its face's velocity, as a u linear at the wall would be, in
    the mean of the two walls.  The velocity is O(eps^2) and vanishes where
    rho = rho0.
    """
    h = spec.grid.spacing_h
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flux = np.cumsum(h * (_continuity_rhs(eps, spec) - eps**2 * rho))[:-1]
        flux += eps**4 / h * (rho[1:] - rho[:-1])
        uf = flux / np.where(flux > 0.0, rho[:-1], rho[1:])
        alt = np.ones(rho.size)
        alt[1::2] = -1.0
        u = np.zeros(rho.size)  # u_i+1 = 2 uf_i - u_i from u_0 = 0
        u[1:] = alt[1:] * np.cumsum(-2.0 * alt[:-1] * uf)
        u += 0.25 * (uf[0] + alt[-1] * (uf[-1] - 2.0 * u[-1])) * alt
    if not np.isfinite(u).all():
        raise mesh.NonFiniteError("hydrostatic start: the velocity of its mass flux is not finite")
    return u


def hydrostatic_state(spec: ProblemSpec, eps: float) -> State:
    """The eps -> 0 limit at rest, where every solve starts at ``eps``: the
    :func:`hydrostatic_density`, c = c0, mu = dF_delta(c0), and the O(eps^2)
    :func:`_continuity_velocity` of that density, so that the start keeps the
    discrete mass balance at ``eps``.  With u = 0 instead, a force that does
    not vanish at the walls (g2 = a cos) took a third Picard iteration at
    n = 1024, and the forced default one at n = 256.  With zero forcing it
    is the constant state."""
    g = spec.grid
    mu0 = dF_delta(spec.c0, spec.potential)
    rho = hydrostatic_density(spec)
    u = _continuity_velocity(rho, eps, spec)
    return State(Field(g, rho), Field(g, u), g.field(mu0), g.field(spec.c0))


def _rel_update(new: Field, old: Field) -> float:
    return float(np.abs(new.values - old.values).max() / (1.0 + np.abs(old.values).max()))


def picard_step(
    state: State, sigma: float, eps: float, spec: ProblemSpec, damping: float
) -> tuple[State, float]:
    """One damped sweep over the four sub-solves.

    The flow pair is updated through the pressure-coupled block solve, the
    chemical potential and concentration through their Poisson problems with
    the block's density and velocity and the freshest mu, all three reading
    the one :func:`lagged` record, where the lagging is decided; the proposals
    are blended with the incoming state by ``damping`` (1 takes the proposal;
    :func:`continuation_solve` starts each stage at ``SolveControls.damping``
    and halves it on each residual rise, down to 1/8).  The one continuity
    solve of the step gives the returned density, for the blended velocity,
    so mass and positivity hold at every iterate.  The residual is the
    largest relative field update plus both mean-projection magnitudes.
    """
    g, lag = spec.grid, lagged(state, spec)
    rho_star, u_star = solve_flow_coupled(state, lag, sigma, eps, spec)
    mu_star, proj_mu = solve_mu(State(rho_star, u_star, state.mu, state.c), lag, sigma, eps, spec)
    c_star, proj_c = solve_c(State(rho_star, u_star, mu_star, state.c), lag, sigma, eps, spec)

    u_new = Field(g, damping * u_star.values + (1.0 - damping) * state.u.values)
    mu_new = Field(g, damping * mu_star.values + (1.0 - damping) * state.mu.values)
    c_new = Field(g, damping * c_star.values + (1.0 - damping) * state.c.values)
    new = State(solve_continuity(u_new, eps, spec), u_new, mu_new, c_new)
    update = max(_rel_update(getattr(new, k), getattr(state, k)) for k in ("rho", "u", "mu", "c"))
    return new, update + proj_mu + proj_c


def _diverged(residuals: list[float]) -> bool:
    """Five consecutive residual increases totalling more than a factor ten."""
    if len(residuals) < 6:
        return False
    tail = residuals[-6:]
    rising = all(b > a for a, b in zip(tail, tail[1:]))
    return rising and tail[-1] > 10.0 * tail[0]


class StageLog(Record):
    """Residual, damping and mass history of one (sigma, eps) continuation stage."""

    sigma: float
    eps: float
    residuals: list[float] = field(default_factory=list)
    dampings: list[float] = field(default_factory=list)
    mass_errors: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residuals)


class ConvergenceLog(Record):
    """Per-stage histories of one continuation run."""

    stages: list[StageLog] = field(default_factory=list)

    @property
    def final_eps(self) -> float:
        return self.stages[-1].eps

    def max_mass_error(self) -> float:
        return max((max(s.mass_errors) for s in self.stages if s.mass_errors), default=0.0)


def _run_stage(
    state: State,
    sigma: float,
    eps: float,
    spec: ProblemSpec,
    controls: SolveControls,
) -> tuple[State, StageLog]:
    log = StageLog(sigma, eps)
    damping = controls.damping
    for _ in range(controls.max_picard):
        state, res = picard_step(state, sigma, eps, spec, damping)
        log.residuals.append(res)
        log.dampings.append(damping)
        log.mass_errors.append(abs(mesh.integrate(state.rho) - spec.m1))
        if _diverged(log.residuals):
            raise DivergenceError(
                f"residual diverged at stage sigma={sigma:g}, eps={eps:g} "
                f"after {log.iterations} iterations (residual {res:g})"
            )
        if res <= controls.tol_rel:
            return state, log
        if log.iterations > 1 and res > log.residuals[-2]:
            # halve, but not below 1/8 (nor below a lower starting factor)
            damping = max(0.5 * damping, min(damping, 0.125))
    raise NotConverged(
        f"stage sigma={sigma:g}, eps={eps:g} ended at residual {res:g} "
        f"after {log.iterations} iterations (tol_rel {controls.tol_rel:g})"
    )


def continuation_solve(
    spec: ProblemSpec,
    controls: SolveControls,
    initial_state: Optional[State] = None,
) -> tuple[State, ConvergenceLog]:
    """Ramp sigma to 1 at the largest eps, then walk eps down its schedule.

    With the default schedules this is one stage, sigma = 1 at eps = 1e-3.
    The first stage starts from ``initial_state`` or the
    :func:`hydrostatic_state`, the eps -> 0 limit, and every later stage
    warm-starts from the previous one; each iterates :func:`picard_step`
    until the residual reaches tol_rel; a stage that spends max_picard steps
    above it raises :class:`NotConverged`.  The damping factor starts each
    stage at ``controls.damping`` and is halved, down to 1/8, whenever a
    residual exceeds the one before.  Each stage gets one attempt: five
    consecutive residual rises totalling more than a factor ten raise
    :class:`DivergenceError`, whose message names the stage's sigma and eps,
    as no attribute carries them.
    """
    eps0 = controls.eps_schedule[0]
    stages = [(s, eps0) for s in controls.sigma_schedule]
    stages += [(1.0, e) for e in controls.eps_schedule[1:]]

    state = initial_state if initial_state is not None else hydrostatic_state(spec, eps0)
    log = ConvergenceLog()
    for sigma, eps in stages:
        state, stage_log = _run_stage(state, sigma, eps, spec, controls)
        log.stages.append(stage_log)
    return state, log


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

# Errors that end one solve; sweeps record them per value, commands exit 1.
SOLVER_ERRORS = (
    DivergenceError,
    NotConverged,
    SingularSystemError,
    mesh.NonFiniteError,
    mesh.SolvabilityError,
    mesh.DegenerateWeightError,
    OverflowError,
    FloatingPointError,
)


def check_sweep(key: str, values) -> tuple:
    """Validate a sweep key and its values; return the values as floats.

    The values must be nonempty, lie in (0, 1) (which excludes NaN), and
    decrease strictly toward the limit.
    """
    if key not in ("delta", "eps"):
        raise ValueError(f"unknown sweep key {key!r}")
    vs = tuple(float(v) for v in values)
    if not vs:
        raise ValueError("values list is empty")
    if any(not (0.0 < v < 1.0) for v in vs):
        raise ValueError(f"{key} values must lie in (0, 1), got {vs}")
    if any(b >= a for a, b in zip(vs, vs[1:])):
        raise ValueError(f"{key} values must be strictly decreasing toward the limit, got {vs}")
    return vs


def _sweep_value(spec_base: ProblemSpec, key: str, value: float, controls: SolveControls) -> tuple:
    """Solve one sweep value; returns the row (status, report, state, log).

    The solve runs ``controls``' schedules, for an eps sweep with ``value``
    as the only eps, from the hydrostatic start, as a standalone solve of
    that value does.  The report is taken at the solve's final eps.  A
    solver error becomes the status ``failed(<Type>)`` with None in the
    other three places.
    """
    from .diagnostics import compute_report

    if key == "delta":
        spec_v = replace(spec_base, potential=replace(spec_base.potential, delta=value))
        ctl_v = controls
    else:
        spec_v = replace(spec_base, eps=value)
        ctl_v = replace(controls, eps_schedule=(value,))
    try:
        state, log = continuation_solve(spec_v, ctl_v)
        return "ok", compute_report(state, spec_v, eps=log.final_eps), state, log
    except SOLVER_ERRORS as err:
        return f"failed({type(err).__name__})", None, None, None


def _sweep(
    spec_base: ProblemSpec,
    key: str,
    values: tuple,
    controls: SolveControls,
    map_later: Optional[Callable] = None,
) -> list[tuple]:
    """One :func:`_sweep_value` row per value, first value first.

    Every value is solved on its own, from the hydrostatic start: the first
    in this process, and the later ones through ``map_later``, which maps
    their ``_sweep_value`` argument tuples to rows (a pool's map, say), by
    default in order."""
    first = _sweep_value(spec_base, key, values[0], controls)
    later = [(spec_base, key, v, controls) for v in values[1:]]
    return [first, *(map_later or partial(starmap, _sweep_value))(later)]


def delta_sweep(
    spec_base: ProblemSpec, deltas, controls: SolveControls, map_later: Optional[Callable] = None
) -> list[tuple]:
    """Solve a fixed problem for a decreasing list of regularization widths;
    returns one (status, report, state, log) row per width, as :func:`_sweep`.

    The per-width diagnostics expose the vanishing artificial pressure, the
    width-independent norm bounds, and the shrinking concentration-bound
    violations.
    """
    return _sweep(spec_base, "delta", check_sweep("delta", deltas), controls, map_later)


def eps_sweep(
    spec_base: ProblemSpec, eps_values, controls: SolveControls, map_later: Optional[Callable] = None
) -> list[tuple]:
    """Solve a fixed problem for a decreasing list of eps values; returns one
    (status, report, state, log) row per value, as :func:`_sweep`."""
    return _sweep(spec_base, "eps", check_sweep("eps", eps_values), controls, map_later)
