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
and mu are prescribed (the c one with eps-dependent corrections).  The load
factor sigma in (0, 1] scales every nonlinear right side and is ramped to 1 as
a continuation strategy; a second continuation drives eps down a schedule.

Each iteration lags the nonlinear couplings at the previous iterate (no global
Newton linearization) and blends its proposal with the incoming state by a
damping factor that starts each stage at ``SolveControls.damping`` and is
halved on each residual rise, down to 1/8.  The one exception to the lagging,
forced by stability, is the mass-pressure pair: a velocity proposal obtained
from the momentum equation with a frozen-density pressure feeds the continuity
solve with a perturbation gain of order P'(rho0)/(visc * eps^2), which
diverges for any useful eps.
:func:`solve_flow_coupled` therefore solves the linearized (rho, u) block as
one banded system per iteration, with the pressure slope Pi'(rho_old) frozen
at the previous iterate; every other coupling stays lagged.  The fixed points
are identical to those of the naive splitting.  Density positivity and exact
mass bookkeeping are preserved because the density actually returned is always
the M-matrix upwind continuity solve for the damped velocity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import starmap
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from . import mesh
from .mesh import Field, Grid
from .potential import (
    PotentialParams,
    artificial_pressure,
    dF_delta,
    pressure,
    pressure_slope,
)

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
    "constant_state",
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
    "SweepReport",
]


class SingularSystemError(RuntimeError):
    """Assembled transport matrix lost diagonal dominance (eps too small for the grid)."""


class DivergenceError(RuntimeError):
    """Fixed-point residual grew persistently; carries the failing stage."""


class NotConverged(RuntimeError):
    """A stage spent ``max_picard`` iterations with the residual still above tol_rel."""


@dataclass(frozen=True)
class FluidParams:
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
                f"require 2*lambda1 + 3*lambda2 >= 0, got lambda1={self.lambda1}, lambda2={self.lambda2}"
            )
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.gamma <= 1.5:
            warnings.warn(
                f"gamma={self.gamma} <= 3/2 lies outside the regime the analysis covers",
                stacklevel=2,
            )
        if not self.H > 0.0:
            raise ValueError(f"H must be positive, got {self.H}")
        if int(self.art_exponent) != self.art_exponent or self.art_exponent < 2:
            raise ValueError(f"art_exponent must be an integer >= 2, got {self.art_exponent}")

    @property
    def visc(self) -> float:
        """Coefficient 2*lambda1 + lambda2 of the 1-D viscous operator (always > 0)."""
        return 2.0 * self.lambda1 + self.lambda2


@dataclass(frozen=True)
class MmsSources:
    """Optional per-equation manufactured sources (verification mode)."""

    continuity: Optional[Field] = None
    momentum: Optional[Field] = None
    mu: Optional[Field] = None
    c: Optional[Field] = None


@dataclass(frozen=True)
class ProblemSpec:
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


@dataclass(frozen=True)
class State:
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
        if np.any(self.rho.values < 0.0):
            raise ValueError("rho must be nonnegative everywhere")


@dataclass(frozen=True)
class SolveControls:
    """Continuation schedules and fixed-point iteration controls; ``damping`` is
    the starting factor of each stage, halved on each residual rise, down to 1/8."""

    sigma_schedule: tuple = (0.25, 0.5, 0.75, 1.0)
    damping: float = 1.0
    max_picard: int = 500
    tol_rel: float = 1.0e-8
    eps_schedule: tuple = (1.0e-1, 1.0e-2, 1.0e-3)

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
        if self.max_picard < 1:
            raise ValueError(f"max_picard must be at least 1, got {self.max_picard}")
        if not self.tol_rel > 0.0:
            raise ValueError(f"tol_rel must be positive, got {self.tol_rel}")


# ---------------------------------------------------------------------------
# Elementary sub-solves
# ---------------------------------------------------------------------------

def _face_velocities(u: np.ndarray) -> np.ndarray:
    """Velocity at the n+1 cell faces; wall faces carry the zero trace."""
    uf = np.zeros(u.size + 1)
    uf[1:-1] = 0.5 * (u[:-1] + u[1:])
    return uf


def _upwind_flux(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mass flux at the n+1 faces as the continuity bands assemble it (zero at the walls)."""
    uf = _face_velocities(u)
    flux = np.zeros(uf.size)
    flux[1:-1] = np.maximum(uf[1:-1], 0.0) * rho[:-1] + np.minimum(uf[1:-1], 0.0) * rho[1:]
    return flux


def _with_source(rhs: np.ndarray, spec: ProblemSpec, name: str) -> np.ndarray:
    """Add the manufactured source of equation ``name``, if the spec carries one."""
    src = None if spec.mms_sources is None else getattr(spec.mms_sources, name)
    return rhs if src is None else rhs + src.values


def _continuity_bands(uf: np.ndarray, eps: float, g: Grid):
    """Tridiagonal bands of eps^2 I + upwind advection - eps^4 Lap (Neumann)."""
    n, h = g.n_cells, g.spacing_h
    up = np.maximum(uf, 0.0)
    um = np.minimum(uf, 0.0)
    e4 = eps**4 / h**2
    diag = eps**2 + (up[1:] - um[:-1]) / h + 2.0 * e4
    diag[0] -= e4
    diag[-1] -= e4
    upper = um[1:-1] / h - e4
    lower = -up[1:-1] / h - e4
    # Column sums telescope to eps^2 exactly; a loss of that excess means the
    # assembled matrix is no longer an M-matrix.
    excess = diag.copy()
    excess[:-1] += lower
    excess[1:] += upper
    if np.min(excess) <= 0.5 * eps**2:
        raise SingularSystemError(
            f"transport matrix lost diagonal dominance (eps={eps:g}, n={n}); eps too small for the grid"
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
    ab = mesh.banded(*_continuity_bands(_face_velocities(u.values), eps, g))
    b = _with_source(np.full(g.n_cells, eps**2 * spec.rho0), spec, "continuity")
    rho = solve_banded((1, 1), ab, b)
    if np.min(rho) < -1.0e-9 * max(spec.rho0, 1.0):
        raise SingularSystemError(
            f"continuity solve produced negative density {float(np.min(rho)):g}"
        )
    return Field(g, np.maximum(rho, 0.0))


def _momentum_forcing(state: State, eps: float, spec: ProblemSpec) -> np.ndarray:
    """Lagged right side of the momentum balance (everything but visc*u'')."""
    g = spec.grid
    p, fp = spec.potential, spec.fluid
    rho, u, mu, c = state.rho.values, state.u.values, state.mu.values, state.c.values
    pi = artificial_pressure(rho, p.delta, fp.art_exponent) + pressure(rho, fp)
    dpi = mesh.gradient(Field(g, pi), "neumann").values
    adv = mesh.gradient(Field(g, rho * u * u), "dirichlet0").values
    drho = mesh.gradient(state.rho, "neumann").values
    du = mesh.gradient(state.u, "dirichlet0").values
    dc = mesh.gradient(state.c, "neumann").values
    return (
        eps**2 * rho * u
        + adv
        + dpi
        + eps**4 * drho * du
        + rho * dF_delta(c, p) * dc
        - rho * mu * dc
        - rho * spec.g1.values
        - spec.g2.values
    )


def solve_momentum(state: State, sigma: float, eps: float, spec: ProblemSpec) -> Field:
    """Solve visc u'' = sigma * (lagged momentum right side) with u = 0 at the walls.

    All nonlinear terms are evaluated at the incoming state.  This plain
    lagged solve is the verification surface for the momentum discretization;
    the fixed-point iteration itself uses :func:`solve_flow_coupled`, whose
    fixed points satisfy exactly this equation.
    """
    rhs = _with_source(sigma * _momentum_forcing(state, eps, spec), spec, "momentum")
    return mesh.laplacian_solve(Field(spec.grid, rhs / spec.fluid.visc), "dirichlet0")


def solve_flow_coupled(state: State, sigma: float, eps: float, spec: ProblemSpec) -> tuple[Field, Field]:
    """One linearized (rho, u) block solve with implicit pressure feedback.

    Solves, as a single banded system in the interleaved unknowns
    (rho_0, u_0, rho_1, u_1, ...):

        eps^2 rho + div_up(rho; u_old) + div(rho_old (u - u_old)) - eps^4 rho''
            = eps^2 rho0
        visc u'' - sigma (Pi'(rho_old) (rho - rho_old))' = sigma F1(state)

    where div_up freezes the upwind face velocities at the incoming state and
    F1 is the fully lagged momentum right side.  At a fixed point (rho, u)
    equal the incoming pair and the equations reduce to the plain lagged
    splitting; away from it the implicit pressure-density coupling removes the
    splitting's unstable mass-pressure mode.
    """
    g = spec.grid
    n, h = g.n_cells, g.spacing_h
    rho_t, u_t = state.rho.values, state.u.values

    uf = _face_velocities(u_t)
    rho_f = np.zeros(n + 1)
    rho_f[1:-1] = 0.5 * (rho_t[:-1] + rho_t[1:])

    # Pi'(rho_old) of the full pressure used in F1, artificial part included,
    # keeps the linearization consistent.
    pi_slope = pressure_slope(rho_t, spec.potential.delta, spec.fluid)

    # Tridiagonal (diag, upper, lower) blocks keyed by (row field, column
    # field), 0 = rho and 1 = u; the correction flux acts at interior faces.
    flux = rho_f / (2.0 * h)
    coef = -sigma * pi_slope
    grad = mesh.bands(mesh.gradient, g, "neumann")
    lap = mesh.bands(mesh.laplacian_apply, g, "dirichlet0")
    blocks = {
        (0, 0): _continuity_bands(uf, eps, g),
        (0, 1): (flux[1:] - flux[:-1], flux[1:-1], -flux[1:-1]),
        (1, 0): (coef * grad[0], coef[1:] * grad[1], coef[:-1] * grad[2]),
        (1, 1): tuple(spec.fluid.visc * band for band in lap),
    }
    # Interleaved unknowns (rho_0, u_0, rho_1, ...): entry (2i+r, 2j+c) of the
    # full matrix sits at ab[3 + 2i+r - 2j-c, 2j+c] in (3, 3) banded storage.
    ab = np.zeros((7, 2 * n))
    for (r, c), (d, up, lo) in blocks.items():
        ab[3 + r - c, c::2] = d
        ab[1 + r - c, 2 + c::2] = up
        ab[5 + r - c, c:-2:2] = lo

    b = np.empty(2 * n)
    b[0::2] = _with_source(np.full(n, eps**2 * spec.rho0), spec, "continuity")
    b[0::2] += np.diff(rho_f * uf) / h  # the u_old part of the correction flux
    b[1::2] = _with_source(sigma * _momentum_forcing(state, eps, spec), spec, "momentum")
    b[1::2] -= sigma * mesh.gradient(Field(g, pi_slope * rho_t), "neumann").values
    z = solve_banded((3, 3), ab, b)
    return Field(g, np.maximum(z[0::2], 0.0)), Field(g, z[1::2])


def _projection(rhs: np.ndarray, g: Grid) -> tuple[np.ndarray, float]:
    """Remove the mean from a Neumann right side; report the removed integral."""
    mean = float(np.mean(rhs))
    return rhs - mean, abs(mean * g.length_L)


def _mu_rhs(state: State, eps: float, spec: ProblemSpec) -> np.ndarray:
    """eps rho c + rho u c' - eps rho0 c0: the mu right side without sigma or source."""
    rho, u, c = state.rho.values, state.u.values, state.c.values
    dc = mesh.gradient(state.c, "neumann").values
    return eps * rho * c + rho * u * dc - eps * spec.rho0 * spec.c0


def _c_rhs(state: State, spec: ProblemSpec) -> np.ndarray:
    """rho dF_delta(c) - rho mu: the c right side without sigma or source."""
    rho = state.rho.values
    return rho * dF_delta(state.c.values, spec.potential) - rho * state.mu.values


def solve_mu(state: State, sigma: float, eps: float, spec: ProblemSpec) -> tuple[Field, float]:
    """Solve the chemical-potential Poisson problem and pin its constant.

    The right side sigma*(eps rho c + rho u c' - eps rho0 c0) is projected to
    zero mean (the projection magnitude is returned as a compatibility
    residual that vanishes as the outer iteration converges), the Neumann
    problem is solved, and the constant is fixed so the rho-weighted mean of
    mu equals that of dF_delta(c).
    """
    g = spec.grid
    rhs0, proj = _projection(_with_source(sigma * _mu_rhs(state, eps, spec), spec, "mu"), g)
    mu_hat = mesh.laplacian_solve(Field(g, rhs0), "neumann")
    target = mesh.integrate(Field(g, state.rho.values * dF_delta(state.c.values, spec.potential)))
    return mesh.mean_shift(mu_hat, target, state.rho), proj


def _c_mass_target(rho: Field, c: Field, eps: float, spec: ProblemSpec) -> float:
    """Target of the relative-mass constraint integrate(rho c) = target.

    target = m2 + eps integrate((rho0-rho) c) - eps^3 integrate(rho' c'); solve_c
    imposes it and diagnostics.constraint_check measures the defect against it.
    """
    g = spec.grid
    drho = mesh.gradient(rho, "neumann").values
    dc = mesh.gradient(c, "neumann").values
    i1 = mesh.integrate(Field(g, (spec.rho0 - rho.values) * c.values))
    i2 = mesh.integrate(Field(g, drho * dc))
    return spec.m2 + eps * i1 - eps**3 * i2


def solve_c(state: State, sigma: float, eps: float, spec: ProblemSpec) -> tuple[Field, float]:
    """Solve the concentration Poisson problem and impose the relative-mass constraint.

    The right side sigma*(rho dF_delta(c_prev) - rho mu) is mean-projected
    (projection magnitude returned), the Neumann problem is solved, and the
    additive constant s is chosen so that

        integrate(rho (c+s)) = m2 + eps integrate((rho0-rho)(c+s))
                               - eps^3 integrate(rho' c')

    holds exactly (the gradient term does not see s).
    """
    g = spec.grid
    rho = state.rho.values
    rhs0, proj = _projection(_with_source(sigma * _c_rhs(state, spec), spec, "c"), g)
    c_hat = mesh.laplacian_solve(Field(g, rhs0), "neumann")
    denom = mesh.integrate(state.rho) - eps * mesh.integrate(Field(g, spec.rho0 - rho))
    if denom <= 1.0e-12 * max(1.0, spec.m1):
        raise mesh.DegenerateWeightError(
            f"density-weighted constraint is degenerate (integral {denom:g})"
        )
    target = _c_mass_target(state.rho, c_hat, eps, spec)
    s = (target - mesh.integrate(Field(g, rho * c_hat.values))) / denom
    return Field(g, c_hat.values + s), proj


# ---------------------------------------------------------------------------
# Fixed-point iteration and continuation
# ---------------------------------------------------------------------------

def constant_state(spec: ProblemSpec, eps: float) -> State:
    """The spatially constant quadruple (rho0, 0, dF_delta(c0), c0).

    With zero forcing this is an exact solution for every sigma and eps; it
    seeds the continuation.
    """
    g = spec.grid
    rho = solve_continuity(g.zeros(), eps, spec)
    mu0 = dF_delta(spec.c0, spec.potential)
    return State(rho, g.zeros(), g.field(mu0), g.field(spec.c0))


def _rel_update(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old)) / (1.0 + np.max(np.abs(old))))


def picard_step(
    state: State, sigma: float, eps: float, spec: ProblemSpec, damping: float
) -> tuple[State, float]:
    """One damped sweep over the four sub-solves.

    The flow pair is updated through the pressure-coupled block solve, the
    chemical potential and concentration through their Poisson problems with
    the block's density and velocity and the freshest mu, and the proposals
    are blended with the incoming state by ``damping`` (1 takes the proposal;
    :func:`continuation_solve` starts each stage at ``SolveControls.damping``
    and halves it on each residual rise, down to 1/8).  The one
    continuity solve of the step gives the returned density, for the blended
    velocity, so mass and positivity hold at every iterate.  The residual is
    the largest relative field update plus both mean-projection magnitudes.
    """
    g = spec.grid
    rho_star, u_star = solve_flow_coupled(state, sigma, eps, spec)
    mu_star, proj_mu = solve_mu(
        State(rho_star, u_star, state.mu, state.c), sigma, eps, spec
    )
    c_star, proj_c = solve_c(
        State(rho_star, u_star, mu_star, state.c), sigma, eps, spec
    )

    u_new = Field(g, damping * u_star.values + (1.0 - damping) * state.u.values)
    mu_new = Field(g, damping * mu_star.values + (1.0 - damping) * state.mu.values)
    c_new = Field(g, damping * c_star.values + (1.0 - damping) * state.c.values)
    rho_new = solve_continuity(u_new, eps, spec)

    residual = (
        max(
            _rel_update(rho_new.values, state.rho.values),
            _rel_update(u_new.values, state.u.values),
            _rel_update(mu_new.values, state.mu.values),
            _rel_update(c_new.values, state.c.values),
        )
        + proj_mu
        + proj_c
    )
    return State(rho_new, u_new, mu_new, c_new), residual


def _diverged(residuals: list[float]) -> bool:
    """Five consecutive residual increases totalling more than a factor ten."""
    if len(residuals) < 6:
        return False
    tail = residuals[-6:]
    rising = all(b > a for a, b in zip(tail, tail[1:]))
    return rising and tail[-1] > 10.0 * tail[0]


@dataclass
class StageLog:
    """Residual, damping and mass history of one (sigma, eps) continuation stage."""

    sigma: float
    eps: float
    residuals: list[float] = field(default_factory=list)
    dampings: list[float] = field(default_factory=list)
    mass_errors: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residuals)


@dataclass
class ConvergenceLog:
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

    Every stage warm-starts from the previous one and iterates
    :func:`picard_step` until the residual reaches tol_rel; a stage that spends
    max_picard steps above it raises :class:`NotConverged`.  The damping
    factor starts each stage at ``controls.damping`` and is halved, down to
    1/8, whenever a residual exceeds the one before.  If a sigma stage
    diverges, the sigma step is bisected once before the failure is raised
    with the stage attached.
    """
    eps0 = controls.eps_schedule[0]
    stages = [(s, eps0) for s in controls.sigma_schedule]
    stages += [(1.0, e) for e in controls.eps_schedule[1:]]
    ramp_len = len(controls.sigma_schedule)

    state = initial_state if initial_state is not None else constant_state(spec, eps0)
    log = ConvergenceLog()
    bisected = False
    i = 0
    while i < len(stages):
        sigma, eps = stages[i]
        try:
            state, stage_log = _run_stage(state, sigma, eps, spec, controls)
        except DivergenceError:
            if i < ramp_len and not bisected:
                prev_sigma = stages[i - 1][0] if i > 0 else 0.0
                stages.insert(i, (0.5 * (prev_sigma + sigma), eps))
                ramp_len += 1
                bisected = True
                continue
            raise
        log.stages.append(stage_log)
        i += 1
    return state, log


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    """Per-value outcomes of a regularization sweep."""

    key: str
    values: tuple
    statuses: list[str]
    reports: list  # DiagnosticsReport or None per value
    states: list   # State or None per value
    logs: list     # ConvergenceLog or None per value

    @property
    def any_failed(self) -> bool:
        return any(s != "ok" for s in self.statuses)


# Errors that end one solve; sweeps record them per value, commands exit 1.
SOLVER_ERRORS = (
    DivergenceError,
    NotConverged,
    SingularSystemError,
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


def _sweep_value(
    spec_base: ProblemSpec,
    key: str,
    value: float,
    controls: SolveControls,
    warm: Optional[State],
) -> tuple:
    """Solve one sweep value; returns (status, report, state, log).

    A cold start (``warm`` None) runs the full continuation; a warm start runs
    one stage at the final eps from ``warm``.  A solver error becomes the
    status ``failed(<Type>)`` with None in the other three places.
    """
    from .diagnostics import compute_report

    if key == "delta":
        spec_v = replace(spec_base, potential=replace(spec_base.potential, delta=value))
        eps_final = controls.eps_schedule[-1]
    else:
        spec_v = replace(spec_base, eps=value)
        eps_final = value
    if warm is not None:
        ctl_v = replace(controls, sigma_schedule=(1.0,), eps_schedule=(eps_final,))
    else:
        ctl_v = controls if key == "delta" else replace(controls, eps_schedule=(value,))
    try:
        state, log = continuation_solve(spec_v, ctl_v, initial_state=warm)
        return "ok", compute_report(state, spec_v, eps=eps_final), state, log
    except SOLVER_ERRORS as err:
        return f"failed({type(err).__name__})", None, None, None


def _sweep(
    spec_base: ProblemSpec,
    key: str,
    values: tuple,
    controls: SolveControls,
    map_later: Optional[Callable] = None,
) -> SweepReport:
    """Solve the first value cold and every later value warm from the first
    value's solution (cold if it failed); ``map_later`` maps the later values'
    ``_sweep_value`` argument tuples to rows (a pool's map, say), by default in order."""
    first = _sweep_value(spec_base, key, values[0], controls, None)
    later = [(spec_base, key, v, controls, first[2]) for v in values[1:]]
    rows = [first, *(map_later or partial(starmap, _sweep_value))(later)]
    statuses, reports, states, logs = (list(col) for col in zip(*rows))
    return SweepReport(key, values, statuses, reports, states, logs)


def delta_sweep(
    spec_base: ProblemSpec, deltas, controls: SolveControls, map_later: Optional[Callable] = None
) -> SweepReport:
    """Solve a fixed problem for a decreasing list of regularization widths.

    The first width runs the full continuation and every later width
    warm-starts from its solution (see :func:`_sweep`); the per-width
    diagnostics expose the vanishing artificial pressure, the width-independent
    norm bounds, and the shrinking concentration-bound violations.
    """
    return _sweep(spec_base, "delta", check_sweep("delta", deltas), controls, map_later)


def eps_sweep(
    spec_base: ProblemSpec, eps_values, controls: SolveControls, map_later: Optional[Callable] = None
) -> SweepReport:
    """Solve a fixed problem for a decreasing list of eps values, warm-started
    from the first value's solution as in :func:`_sweep`."""
    return _sweep(spec_base, "eps", check_sweep("eps", eps_values), controls, map_later)
