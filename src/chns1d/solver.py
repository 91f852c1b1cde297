"""Adaptively damped fixed-point solver for the stationary two-phase balance system in 1-D.

The unknown quadruple (rho, u, mu, c) satisfies, on (0, L) with eps in (0, 1):

    eps^2 rho + (rho u)'                    = eps^4 rho'' + eps^2 rho0
    visc u''  = eps^2 rho u + (rho u^2)' + Pi(rho)' + eps^4 rho' u'
                + rho dF(c) c' - rho mu c' - rho g1 - g2
    mu''      = eps rho c + rho u c' - eps rho0 c0
    c''       = rho dF(c) - rho mu

with u = 0 and zero normal derivatives for rho, mu, c at the walls,
visc = 2 lambda1 + lambda2, and Pi the total plus artificial pressure.  Two
integral constraints pin the Neumann constants: the rho-weighted means of c
and mu are prescribed (the c one with eps-dependent corrections), and one
helper, ``_pin_constant``, imposes both.  A solve runs one stage per entry
of ``eps_schedule``, by default one at eps = 1e-3, from
:func:`hydrostatic_state`: the closed-form eps -> 0 limit at rest
(h(rho) = G1 + int g2/rho + C with h the enthalpy) with the O(eps^2)
velocity that keeps its mass balance at eps, after one undamped pass of the
step's own (rho, u) block and phase pair (mu, c).  Every stage gets one
attempt: a persistently rising residual raises :class:`DivergenceError` and
a stage that runs out of ``max_picard`` raises :class:`NotConverged`, each
naming the stage's eps.

Each iteration lags the nonlinear couplings at the previous iterate (no global
Newton linearization), all in one :class:`Lagged` record per step that
:func:`lagged` builds, the one place the lagging is decided, and blends its
proposal with the incoming state by a damping factor that starts each stage
at 1 and is halved on each residual rise, down to 1/8.  The one exception to
the lagging, forced by stability, is the mass-pressure pair: a velocity
proposal obtained from the momentum equation with a frozen-density pressure
feeds the continuity solve with a perturbation gain of order
P'(rho0)/(visc * eps^2), which diverges for any useful eps.
:func:`solve_flow_coupled` therefore solves the linearized (rho, u) block,
with the pressure slope Pi'(rho_old) frozen at the previous iterate and the
bulk force rho g1 implicit, as one (2, 2)-banded system of n - 1 momentum
pair sums per iteration; every other coupling stays lagged.  The fixed points
are identical to those of the naive splitting.  Density positivity and exact
mass hold because the density returned is always the upwind continuity
solve for the damped velocity.

The sub-solves take and return plain arrays; a step, like the start, builds
one :class:`State`, the one it returns.  Both run the sub-solves through
:func:`_proposal`, under one numpy warning guard (divide, overflow and
invalid values off), so a value that is not finite reaches the check that
names it.

The delta and eps sweeps, :func:`delta_sweep` and :func:`eps_sweep`, return
one (status, report, state, log) row per value, first value first; each
value is an independent solve from the hydrostatic start.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import field, replace
from functools import partial, wraps
from itertools import starmap
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import mesh
from .mesh import Field, Grid, SingularSystemError
from .potential import PotentialParams, dF_delta, enthalpy, pressure
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
    """Fixed-point residual grew persistently; the message names the stage's eps."""


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
        if self.rho.values.min() < 0.0:
            raise ValueError("rho must be nonnegative everywhere")

    @classmethod
    def _from_solve(cls, g: Grid, *values: np.ndarray) -> "State":
        """The State of a solve's arrays (rho, u, mu, c) on ``g``, each scanned as its
        Field is built; rho, which the solve has just clipped at 0, is not checked again."""
        state = object.__new__(cls)
        for name, v in zip(cls._names, values):
            object.__setattr__(state, name, Field(g, v))
        return state


class SolveControls(Record):
    """The eps schedule, one stage per entry, and the fixed-point iteration
    controls.  The default is one stage at eps = 1e-3."""

    sigma_schedule = (1.0,)  # every stage at full load; bench/spans.py reads it to count stages

    max_picard: int = 500
    tol_rel: float = 1.0e-8
    eps_schedule: tuple = (1.0e-3,)

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.eps_schedule)
        object.__setattr__(self, "eps_schedule", eps)
        if not eps or any(not (0.0 < e < 1.0) for e in eps):
            raise ValueError(f"eps_schedule entries must lie in (0, 1), got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"eps_schedule must be strictly decreasing, got {eps}")
        mesh.integer_field(self, "max_picard", 1)
        if not self.tol_rel > 0.0:
            raise ValueError(f"tol_rel must be positive, got {self.tol_rel}")


# ---------------------------------------------------------------------------
# Elementary sub-solves
# ---------------------------------------------------------------------------

def _upwind_split(uf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max(uf, 0), min(uf, 0)): the velocity carrying the left and the right cell's density."""
    return np.maximum(uf, 0.0), np.minimum(uf, 0.0)


def _upwind_flux(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mass flux at the n+1 faces as the continuity rows take it (zero at the walls)."""
    up, um = _upwind_split(0.5 * (u[:-1] + u[1:]))
    flux = np.zeros(rho.size + 1)
    flux[1:-1] = up * rho[:-1] + um * rho[1:]
    return flux


def _with_source(rhs: np.ndarray, spec: ProblemSpec, name: str) -> np.ndarray:
    """Add the manufactured source of equation ``name``, if the spec carries one."""
    src = None if spec.mms_sources is None else getattr(spec.mms_sources, name)
    return rhs if src is None else rhs + src.values


def _continuity_rhs(eps: float, spec: ProblemSpec) -> np.ndarray:
    """Right side eps^2 rho0 of the continuity equation, plus its manufactured source."""
    return _with_source(np.full(spec.grid.n_cells, eps**2 * spec.rho0), spec, "continuity")


def _continuity_flux(rho: np.ndarray, eps: float, spec: ProblemSpec) -> np.ndarray:
    """The advective mass flux at the n-1 interior faces that the continuity
    rows at ``eps``, summed from the left wall, give for ``rho``: the sum of
    h (b - eps^2 rho) up to the face plus eps^4 (rho_i+1 - rho_i)/h.  Call it
    with numpy's overflow warnings off."""
    h = spec.grid.spacing_h
    flux = (h * (_continuity_rhs(eps, spec) - eps**2 * rho)).cumsum()[:-1]
    flux += eps**4 / h * (rho[1:] - rho[:-1])
    return flux


def _right_side(sub_solve: str):
    """Check a right-side builder ``build(rho, u, mu, c, ..., spec)``.  A
    non-finite intermediate reaches the result, where one scan raises
    :class:`~chns1d.mesh.NonFiniteError` naming ``sub_solve``'s right side
    and the bad cells, with the incoming fields' magnitudes, so a blow-up is
    named where it starts.  With ``source=True`` the scanned result includes
    ``sub_solve``'s manufactured source: the right side the sub-solve solves with."""
    def decorate(build):
        @wraps(build)
        def checked(*args, source: bool = False) -> np.ndarray:
            rhs = build(*args)
            if source:
                rhs = _with_source(rhs, args[-1], sub_solve)
            if np.isfinite(rhs).all():
                return rhs
            sizes = ", ".join(f"|{k}| {np.max(np.abs(v)):.3g}" for k, v in zip(State._names, args))
            raise mesh.NonFiniteError(
                f"{sub_solve} sub-solve: the {sub_solve} right side is not finite in "
                f"{np.count_nonzero(~np.isfinite(rhs))} of {rhs.size} cells; incoming max {sizes}")
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
    diagnostics' projection residuals evaluate.  Call it with numpy's warnings
    off: a non-finite c passes through to the right sides' checks, which name it."""
    return dF_delta(c, spec.potential), mesh.gradient_of(c, "neumann", spec.grid.spacing_h)


def lagged(rho: np.ndarray, c: np.ndarray, spec: ProblemSpec) -> Lagged:
    """The lagged coefficients of (rho, c), evaluated once; call it with numpy's warnings off."""
    pi, pi_slope = pressure(rho, spec.fluid, spec.potential.delta)
    return Lagged(*lagged_phase(c, spec), pi, pi_slope)


def _continuity_bands(uf: np.ndarray, eps: float, g: Grid):
    """Bands (diag, upper, lower) of the continuity rows summed from the left
    wall, in the unknowns of :func:`solve_continuity`.  A loss of their
    diagonal excess eps^2 h to the advection raises :class:`SingularSystemError`."""
    h = g.spacing_h
    up, um = _upwind_split(uf)
    e4 = eps**4 / h
    lower, upper = -e4 - up, um - e4  # at V_k-1 and V_k+1 in the row of face k
    diag = (up - um) + (2.0 * e4 + eps**2 * h)
    if (diag + lower + upper).min() <= 0.5 * eps**2 * h:
        raise SingularSystemError(
            f"transport matrix lost diagonal dominance (eps={eps:g}, n={g.n_cells}): incoming "
            f"max|u_face|/h {np.abs(uf).max() / h:.3g} against eps^2 {eps**2:.3g}"
        )
    return diag, upper, lower


def solve_continuity(u: np.ndarray, eps: float, spec: ProblemSpec) -> np.ndarray:
    """Solve the regularized continuity equation for the density, given u.

    The rows, summed from the left wall, fix the flux at each interior face
    (:func:`_continuity_flux`), and all n of them the mass.  The solve is for
    V_k, the sum of rho - rho0 left of face k, with V_0 = 0 and V_n the mass:
    integrate(rho) = m1 holds by construction (manufactured sources
    excepted), and rest returns rho0 exactly, however near singular eps^4/h^2
    makes the rows beside eps^2.  It is the upwind M-matrix system in other
    unknowns, so rho >= 0: the density is returned clipped at 0.
    """
    g, h, rho0 = spec.grid, spec.grid.spacing_h, spec.rho0
    uf = 0.5 * (u[:-1] + u[1:])
    diag, upper, lower = _continuity_bands(uf, eps, g)
    # V_0 = 0; V_n and the right sides, the running sums of h (b - eps^2 rho0), hold only a source
    v = np.zeros(g.n_cells + 1)
    src = None if spec.mms_sources is None else spec.mms_sources.continuity
    if src is not None:
        (h * src.values).cumsum(out=v[1:])
        v[-1] /= eps**2 * h
    v[1:-1] -= rho0 * uf
    v[-2] -= upper[-1] * v[-1]  # the solve leaves V_1 .. V_n-1 in place of the right sides
    mesh.solve_tridiagonal("continuity", lower[1:], diag, upper[:-1], v[1:-1])
    rho = rho0 + (v[1:] - v[:-1])
    if rho.min() < -1.0e-9 * max(rho0, 1.0):
        raise SingularSystemError(f"continuity solve produced negative density {rho.min():g}")
    return np.maximum(rho, 0.0)


@_right_side("momentum")
def _momentum_forcing(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray,
                      lag: Lagged, eps: float, spec: ProblemSpec) -> np.ndarray:
    """Lagged right side of the momentum balance (everything but visc*u'')."""
    h, dc = spec.grid.spacing_h, lag.dc
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


def _alternating_sums(uf: np.ndarray, u0: float) -> np.ndarray:
    """The cell velocities from ``u0`` whose adjacent means are the face
    velocities ``uf``: u_i+1 = 2 uf_i - u_i, as alternating prefix sums.  They
    are all finite exactly when the last is: a prefix sum that is not finite
    leaves every later one so, and the sign flips keep finiteness."""
    u = np.empty(uf.size + 1)
    u[0] = u0
    np.multiply(uf, -2.0, out=u[1:])
    u[2::2] *= -1.0
    u.cumsum(out=u)
    u[1::2] *= -1.0
    return u


def _pair_sum_solve(slope: np.ndarray, up: np.ndarray, um: np.ndarray, inv: np.ndarray,
                    b: np.ndarray, mass: float, eps: float,
                    spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The density change d, of sum ``mass``, that meets the n - 1 sums of
    adjacent momentum rows, linear in d, and the change duf of the interior
    face velocities with it:

        (D(slope d) - g1 d)_k-1 + (D(slope d) - g1 d)_k
            - 2 visc (duf_k-1 - 2 duf_k + duf_k+1) / h^2 = b_k,   k = 1 .. n-1,

    D the centred Neumann gradient, so that the rows carry the density
    dependence of the pressure and of the bulk force rho g1.  A row reads u
    only through the face velocities, u_i + u_i+1 = 2 uf_i+1, zero at the
    walls.  Each is the flux of the continuity rows summed from the left
    wall over the face density 1/``inv``, ``up`` and ``um`` the velocities
    carrying the left and right cell's density.  So, with w_k the sum of d
    left of face k, duf_k = inv_k ((-eps^4/h - up_k) d_k-1 +
    (eps^4/h - um_k) d_k - eps^2 h w_k), and the sums are banded (2, 2) in
    w_1 .. w_n-1: one :func:`mesh.solve_banded`, which overwrites ``b``.  The
    rows are written straight into its (7, n - 1) storage: the two fill-in
    rows, which LAPACK need not find set, hold c_0 and c_1 until they are
    zeroed before the solve, and one scratch band holds duf's weight, the
    diagonal, then c_m1 and c_2.  Call it with numpy's overflow warnings off.
    """
    g, visc = spec.grid, spec.fluid.visc
    n, h = g.n_cells, g.spacing_h
    ab, band = np.empty((7, n - 1), order="F"), np.empty(n)
    # duf's coefficients at the n+1 faces, times its weight 2 visc/h^2 in the sums
    e4, weight = eps**4 / h, np.multiply(2.0 * visc / h**2, inv, out=band[:-1])
    left, right, prefix = np.zeros((3, n + 1))
    np.multiply(-e4 - up, weight, out=left[1:-1])
    np.multiply(e4 - um, weight, out=right[1:-1])
    np.multiply(eps**2 * h, weight, out=prefix[1:-1])
    # pair k at d of cells k-2 .. k+1 (c_m1, c_0, c_1, c_2) from the tridiagonal
    # D(slope .) - g1 of each row, then at w_k-2 .. w_k+2 in gbsv's band storage
    gd, gu, gl = mesh.bands(mesh.gradient, g, "neumann")
    c_0, c_1, diag = ab[0], ab[1], np.subtract(gd * slope, spec.g1.values, out=band)
    c_0[:] = diag[:-1] + gl * slope[:-1] - right[:-2] + 2.0 * left[1:-1]
    c_1[:] = gu * slope[1:] + diag[1:] - left[2:] + 2.0 * right[1:-1]
    ab[4] = c_0 - c_1 - 2.0 * prefix[1:-1]
    band[1:-1] = -left[1:-2] + gl[:-1] * slope[:-2]  # c_m1, then c_2, of pair k at band[k]
    ab[5, :-1] = band[1:-1] - c_0[1:] + prefix[1:-2]
    ab[6, :-2] = -band[2:-1]
    band[:-2] = -right[2:-1] + gu[1:] * slope[2:]
    ab[2, 2:] = band[:-3]
    ab[3, 1:] = c_1[:-1] - band[:-2] + prefix[2:-1]
    b[-2], b[-1] = b[-2] - mass * band[-3], b[-1] - mass * c_1[-1]  # the pairs that reach w_n
    ab[:2] = ab[2, :2] = ab[3, 0] = ab[5, -1] = ab[6, -2:] = 0.0
    w = np.empty(n + 1)
    w[0], w[-1] = 0.0, mass
    w[1:-1] = mesh.solve_banded("(rho, u) block", 2, 2, ab, b)
    del ab, band, weight, diag, c_0, c_1  # the band storage, freed before duf's arrays
    d = w[1:] - w[:-1]
    duf = left[1:-1] * d[:-1] + right[1:-1] * d[1:] - prefix[1:-1] * w[1:-1]
    return d, duf * (0.5 * h * h / visc)


def solve_flow_coupled(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray,
                       lag: Lagged, eps: float, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """One linearized (rho, u) block solve with implicit pressure feedback.

    Solves the 2n equations

        eps^2 rho + div_up(rho; u_old) + div(rho_old (u - u_old)) - eps^4 rho''
            = eps^2 rho0
        visc u'' - (Pi'(rho_old) (rho - rho_old))' + g1 (rho - rho_old) = F1(state)

    where div_up freezes the upwind face velocities at the incoming state and
    F1, the fully lagged momentum right side, and Pi' come from ``lag``.
    The bulk force rho g1 is linear in the density and so taken implicitly.
    At a fixed point (rho, u) equal the incoming pair and the equations reduce
    to the plain lagged splitting; away from it the implicit pressure-density
    coupling removes the splitting's unstable mass-pressure mode.

    The continuity rows, summed from the left wall, give each interior face
    velocity from the density, and all of them the mass, which the density
    proposal keeps by construction (m1 without a manufactured source).  The
    n - 1 sums of adjacent momentum rows fix the density, in one
    :func:`_pair_sum_solve`, and the first row u's checkerboard; a velocity
    that is not finite raises :class:`~chns1d.mesh.NonFiniteError`.  The density
    is returned clipped at 0.  Call it with numpy's warnings off.
    """
    g, visc = spec.grid, spec.fluid.visc
    h, s = g.spacing_h, 2.0 * visc / g.spacing_h**2
    # with its source, whose non-finite sum fails the block's input check
    f = _with_source(_momentum_forcing(rho, u, mu, c, lag, eps, spec), spec, "momentum")
    uf_t = 0.5 * (u[:-1] + u[1:])
    up, um = _upwind_split(uf_t)
    inv = 2.0 / (rho[:-1] + rho[1:])  # over the face densities of rho_old
    uf = np.zeros(g.n_cells + 1)  # the face velocities at rho_old, zero at the walls
    flux = _continuity_flux(rho, eps, spec) - up * rho[:-1] - um * rho[1:]
    uf[1:-1] = uf_t + inv * flux
    b = s * (uf[:-2] + uf[2:]) - 2.0 * s * uf[1:-1]
    b -= f[:-1] + f[1:]
    mass = (_continuity_rhs(eps, spec) - eps**2 * rho).sum() / eps**2
    delta, duf = _pair_sum_solve(lag.pi_slope, up, um, inv, b, mass, eps, spec)
    uf = uf[1:-1] + duf
    # the first row, visc (2 uf_1 - 4 u_0) / h^2 = f_0 + (q_1 - q_0) / 2h - g1_0 delta_0,
    # q = Pi' delta
    q0, q1 = lag.pi_slope[:2] * delta[:2]
    f0 = f[0] + (q1 - q0) / (2.0 * h) - spec.g1.values[0] * delta[0]
    u_new = _alternating_sums(uf, 0.5 * uf[0] - f0 / (2.0 * s))
    if not math.isfinite(u_new[-1]):  # finite only if every entry is (_alternating_sums)
        raise mesh.NonFiniteError("(rho, u) block: the velocity is not finite in "
                                  f"{np.count_nonzero(~np.isfinite(u_new))} of {u_new.size} cells")
    return np.maximum(rho + delta, 0.0), u_new


def _pin_constant(hat: np.ndarray, target: float, rho: np.ndarray, weight_integral: float,
                  spec: ProblemSpec, sub_solve: str) -> np.ndarray:
    """Fix the Neumann constant of the sub-solve ``sub_solve``: ``hat + s`` with
    s = (target - integrate(rho hat)) / weight_integral, where weight_integral
    is the coefficient of s in the constraint's rho-weighted integral.  A weight
    integral below 1e-12 max(1, m1) raises :class:`mesh.DegenerateWeightError`,
    and a constant s that is not finite :class:`mesh.NonFiniteError`."""
    if weight_integral <= 1.0e-12 * max(1.0, spec.m1):
        raise mesh.DegenerateWeightError(
            f"density-weighted constraint is degenerate (integral {weight_integral:g})"
        )
    s = (target - mesh.integral_of(rho * hat, spec.grid.spacing_h)) / weight_integral
    if not math.isfinite(s):
        raise mesh.NonFiniteError(f"{sub_solve} sub-solve: the constant of its density-weighted "
                                  f"constraint is not finite; max |rho| {np.abs(rho).max():.3g}")
    return hat + s


@_right_side("mu")
def _mu_rhs(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray,
            dc: np.ndarray, eps: float, spec: ProblemSpec) -> np.ndarray:
    """eps rho c + rho u c' - eps rho0 c0, c' lagged as ``dc``: the mu right side
    without its source."""
    return eps * rho * c + rho * u * dc - eps * spec.rho0 * spec.c0


@_right_side("c")
def _c_rhs(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray,
           dF: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """rho dF_delta(c) - rho mu, dF_delta(c) lagged as ``dF``: the c right side
    without its source."""
    return rho * dF - rho * mu


def solve_mu(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray, lag: Lagged,
             eps: float, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """Solve the chemical-potential Poisson problem and pin its constant (``mu``
    only enters the message of a right side that is not finite).

    :func:`mesh.laplacian_solve` solves with the right side
    eps rho c + rho u c' - eps rho0 c0 less its mean, and the constant
    is fixed so the rho-weighted mean of mu equals that of dF_delta(c).  The
    removed integral, which vanishes as the outer iteration converges, is
    returned as the compatibility residual ``proj``.  Call it with numpy's warnings off.
    """
    rhs = _mu_rhs(rho, u, mu, c, lag.dc, eps, spec, source=True)
    mu_hat, proj = mesh.laplacian_solve(rhs, spec.grid)
    h = spec.grid.spacing_h
    target = mesh.integral_of(rho * lag.dF, h)
    return _pin_constant(mu_hat, target, rho, mesh.integral_of(rho, h), spec, "mu"), proj


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


def solve_c(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray, lag: Lagged,
            eps: float, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """Solve the concentration Poisson problem and impose the relative-mass
    constraint (``u`` and ``c`` only enter the message of a bad right side).

    :func:`mesh.laplacian_solve` solves with the right side
    rho dF_delta(c_prev) - rho mu less its mean (the removed integral
    is returned as ``proj``, as by :func:`solve_mu`), and the additive
    constant s is chosen so that

        integrate(rho (c+s)) = m2 + eps integrate((rho0-rho)(c+s))
                               - eps^3 integrate(rho' c')

    holds exactly (the gradient term does not see s).  Call it with numpy's warnings off.
    """
    h = spec.grid.spacing_h
    c_hat, proj = mesh.laplacian_solve(_c_rhs(rho, u, mu, c, lag.dF, spec, source=True), spec.grid)
    weight = mesh.integral_of(rho, h) - eps * mesh.integral_of(spec.rho0 - rho, h)
    target = _c_mass_target(rho, c_hat, eps, spec)
    return _pin_constant(c_hat, target, rho, weight, spec, "c"), proj


# ---------------------------------------------------------------------------
# Fixed-point iteration and continuation
# ---------------------------------------------------------------------------

def constant_state(spec: ProblemSpec, eps: float) -> State:
    """The spatially constant quadruple (rho0, 0, dF_delta(c0), c0).

    With zero forcing this is an exact solution for every eps.
    """
    g = spec.grid
    rho = solve_continuity(np.zeros(g.n_cells), eps, spec)
    mu0 = dF_delta(spec.c0, spec.potential)
    return State(Field(g, rho), g.zeros(), g.field(mu0), g.field(spec.c0))


def _trapezoid_sums(f: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid integrals of the cell values ``f`` from the first cell centre to each."""
    out = np.empty(f.size)
    out[0] = 0.0
    (0.5 * h * (f[:-1] + f[1:])).cumsum(out=out[1:])
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
            rho = np.exp(s)
            ent, slope = enthalpy(s, delta, fp, rho)
            w = half_g2 / rho  # J's trapezoid terms
            r[0] = G1[0] + C - ent[0]
            np.add(w[:-1], w[1:], out=r[1:])
            r[1:] += dG1 - (ent[1:] - ent[:-1])
            diag = slope + w
            diag[0] = slope[0]
            ((slope[:-1] - w[:-1]) / diag[1:]).cumprod(out=ratio[1:])
            ds = ratio * (r / (diag * ratio)).cumsum()
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

    The face velocities are the :func:`_continuity_flux` over the upwind
    density.  They are the means of the adjacent cell values, which fixes u
    up to a checkerboard; the first cell takes half its face's velocity, as
    a u linear at the wall would.  The velocity is O(eps^2) and vanishes
    where rho = rho0; :func:`hydrostatic_state` checks that it is finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flux = _continuity_flux(rho, eps, spec)
        uf = flux / np.where(flux > 0.0, rho[:-1], rho[1:])
        return _alternating_sums(uf, 0.5 * uf[0])


def hydrostatic_state(spec: ProblemSpec, eps: float) -> State:
    """The eps -> 0 limit at rest, made discrete, where every solve starts at
    ``eps``: the :func:`hydrostatic_density` with its O(eps^2)
    :func:`_continuity_velocity`, its density replaced by the
    :func:`solve_continuity` of that velocity, and then one undamped pass of
    the step's own sub-solves, :func:`solve_flow_coupled`, :func:`solve_mu`
    and :func:`solve_c`, lagged at that state.

    The limit keeps the smooth balance, not the discrete one: the momentum
    rows take the pressure gradient centred, which couples every other cell,
    so the two differ by O(h^2) and, where the force does not vanish at a
    wall (g2 = a cos), by an odd-even mode of O(h).  The block's Newton step
    in the density, with the pressure slope, g1 and the face velocities'
    dependence on the density, removes both, and the phase pair moves mu
    and c by the O(eps) of the mu equation's ``eps rho c`` source, which the
    limit leaves out.  The start's density is the block's proposal, of mass
    m1 by construction.  The continuity solve makes the limit's mass
    balance exact at ``eps``: without it, the limit, rescaled to mass m1,
    can sit a few ulps off rho0, which a stiff block amplifies (at
    ``domain.length = 1e-6``, Pi' near 1e60, into a velocity of 1e27).
    With zero forcing the start is the constant state."""
    n = spec.grid.n_cells
    rho = hydrostatic_density(spec)
    mu, c = np.full(n, dF_delta(spec.c0, spec.potential)), np.full(n, float(spec.c0))
    u = _continuity_velocity(rho, eps, spec)
    if not math.isfinite(u[-1]):  # finite only if every entry is (_alternating_sums)
        raise mesh.NonFiniteError("hydrostatic start: the velocity of its mass flux is not finite")
    rho, u, mu, c, *_ = _proposal(solve_continuity(u, eps, spec), u, mu, c, eps, spec)
    return State._from_solve(spec.grid, rho, u, mu, c)


def _proposal(rho: np.ndarray, u: np.ndarray, mu: np.ndarray, c: np.ndarray, eps: float,
              spec: ProblemSpec) -> tuple:
    """The block's (rho, u), then mu and c with their removed integrals, from
    the incoming (rho, u, mu, c) and its one :func:`lagged` record, under the
    one numpy warning guard of a step: the pass that a step and the start share."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lag = lagged(rho, c, spec)
        rho, u = solve_flow_coupled(rho, u, mu, c, lag, eps, spec)
        mu, proj_mu = solve_mu(rho, u, mu, c, lag, eps, spec)
        c, proj_c = solve_c(rho, u, mu, c, lag, eps, spec)
    return rho, u, mu, c, proj_mu, proj_c


def picard_step(state: State, eps: float, spec: ProblemSpec, damping: float) -> tuple[State, float]:
    """One damped sweep over the four sub-solves.

    The flow pair is updated through the pressure-coupled block solve, the
    chemical potential and concentration through their Poisson problems with
    the block's density and velocity and the freshest mu, all three reading
    the one :func:`lagged` record, where the lagging is decided; the proposals
    are blended with the incoming state by ``damping`` (1 takes the proposals;
    :func:`continuation_solve` starts each stage at 1 and halves it on each
    residual rise, down to 1/8).  The one continuity solve of the step gives
    the returned density, for the blended velocity, so mass and positivity
    hold at every iterate.  The residual is the
    largest relative field update plus both mean-projection magnitudes.  The
    blend, the continuity solve and the update run outside the warning guard.
    """
    old = state.rho.values, state.u.values, state.mu.values, state.c.values
    _, *stars, proj_mu, proj_c = _proposal(*old, eps, spec)  # the block's rho feeds mu and c
    u_new, mu_new, c_new = (star if damping == 1.0 else damping * star + (1.0 - damping) * prev
                            for star, prev in zip(stars, old[1:]))
    new = (solve_continuity(u_new, eps, spec), u_new, mu_new, c_new)
    state = State._from_solve(spec.grid, *new)
    update = max(float(np.abs(a - b).max() / (1.0 + np.abs(b).max())) for a, b in zip(new, old))
    return state, update + proj_mu + proj_c


def _diverged(residuals: list[float]) -> bool:
    """Five consecutive residual increases totalling more than a factor ten."""
    if len(residuals) < 6:
        return False
    tail = residuals[-6:]
    rising = all(b > a for a, b in zip(tail, tail[1:]))
    return rising and tail[-1] > 10.0 * tail[0]


class StageLog(Record):
    """Residual, damping and mass history of one continuation stage, at ``eps``."""

    sigma = 1.0  # every stage at full load; bench/spans.py reads it per stage

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


def _run_stage(state: State, eps: float, spec: ProblemSpec,
               controls: SolveControls) -> tuple[State, StageLog]:
    log = StageLog(eps)
    damping = 1.0
    for _ in range(controls.max_picard):
        state, res = picard_step(state, eps, spec, damping)
        log.residuals.append(res)
        log.dampings.append(damping)
        log.mass_errors.append(abs(mesh.integrate(state.rho) - spec.m1))
        if _diverged(log.residuals):
            raise DivergenceError(
                f"residual diverged at stage eps={eps:g} "
                f"after {log.iterations} iterations (residual {res:g})"
            )
        if res <= controls.tol_rel:
            return state, log
        if log.iterations > 1 and res > log.residuals[-2]:
            damping = max(0.5 * damping, 0.125)
    raise NotConverged(
        f"stage eps={eps:g} ended at residual {res:g} "
        f"after {log.iterations} iterations (tol_rel {controls.tol_rel:g})"
    )


def continuation_solve(
    spec: ProblemSpec,
    controls: SolveControls,
    initial_state: Optional[State] = None,
) -> tuple[State, ConvergenceLog]:
    """Walk eps down its schedule, one stage per entry.

    With the default schedule this is one stage, at eps = 1e-3.
    The first stage starts from ``initial_state`` or the
    :func:`hydrostatic_state`, the eps -> 0 limit, and every later stage
    warm-starts from the previous one; each iterates :func:`picard_step`
    until the residual reaches tol_rel; a stage that spends max_picard steps
    above it raises :class:`NotConverged`.  The damping factor starts each
    stage at 1 and is halved, down to 1/8, whenever a residual exceeds the
    one before.  Each stage gets one attempt: five consecutive residual
    rises totalling more than a factor ten raise :class:`DivergenceError`,
    whose message names the stage's eps, as no attribute carries it.
    """
    eps0 = controls.eps_schedule[0]
    state = initial_state if initial_state is not None else hydrostatic_state(spec, eps0)
    log = ConvergenceLog()
    for eps in controls.eps_schedule:
        state, stage_log = _run_stage(state, eps, spec, controls)
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

    The solve runs ``controls``' schedule, for an eps sweep with ``value``
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
