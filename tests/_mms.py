"""Manufactured-solution machinery for the solver verification tests.

A smooth quadruple compatible with the boundary conditions is fixed once:

    rho*(x) = 1 + a cos(pi x)            (zero wall slope, mean 1; a = 0.3 or 0)
    u*(x)   = 0.1 sin(pi x)              (zero wall values)
    c*(x)   = 0.3 + 0.1 cos(pi x)        (zero wall slope, stays in |c| < 1-delta)
    mu*(x)  = K + 0.2 cos(pi x)

with K chosen so the density-weighted means of mu* and dF_delta(c*) agree.
Per-equation sources are derived symbolically so that each quadruple member
solves its own equation exactly; the masses m1, m2 are set to the values the
manufactured fields actually carry (including the eps-level corrections of
the concentration constraint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import sympy as sp
from scipy.integrate import quad

from chns1d.mesh import Grid
from chns1d.potential import PotentialParams
from chns1d.solver import FluidParams, MmsSources, ProblemSpec, State

_X = sp.symbols("x")


@dataclass(frozen=True)
class Manufactured:
    potential: PotentialParams
    fluid: FluidParams
    eps: float
    m1: float
    m2: float
    rho: Callable
    u: Callable
    mu: Callable
    c: Callable
    s_rho: Callable
    s_u: Callable
    s_mu: Callable
    s_c: Callable

    def spec(self, grid: Grid) -> ProblemSpec:
        x = grid.cell_centers()
        sources = MmsSources(
            continuity=grid.field(self.s_rho(x)),
            momentum=grid.field(self.s_u(x)),
            mu=grid.field(self.s_mu(x)),
            c=grid.field(self.s_c(x)),
        )
        return ProblemSpec(
            grid,
            self.potential,
            self.fluid,
            m1=self.m1,
            m2=self.m2,
            eps=self.eps,
            mms_sources=sources,
        )

    def state(self, grid: Grid) -> State:
        x = grid.cell_centers()
        return State(
            grid.field(self.rho(x)),
            grid.field(self.u(x)),
            grid.field(self.mu(x)),
            grid.field(self.c(x)),
        )


def build_manufactured(eps: float, delta: float = 0.1, rho_amp: float = 0.3) -> Manufactured:
    """The manufactured quadruple at ``eps`` with density amplitude ``rho_amp``.

    At ``rho_amp = 0`` the density is constant, so the first-order upwind
    flux of the continuity equation is exact to O(h^2) and the (rho, u)
    block converges at second order; it also zeroes Pi(rho)' and
    eps^4 rho' u' in the momentum equation."""
    p = PotentialParams(1.0, 1.5, delta)
    fp = FluidParams(gamma=2.0, lambda1=1.0, lambda2=0.0, H=1.0)
    th0, thc = sp.Integer(1), sp.Rational(3, 2)
    es = sp.Float(eps)

    rho = 1 + sp.nsimplify(rho_amp) * sp.cos(sp.pi * _X)
    u = sp.Rational(1, 10) * sp.sin(sp.pi * _X)
    c = sp.Rational(3, 10) + sp.Rational(1, 10) * sp.cos(sp.pi * _X)
    dF = th0 * sp.atanh(c) - thc * c

    m1 = float(sp.integrate(rho, (_X, 0, 1)))
    m2 = float(
        sp.integrate(rho * c, (_X, 0, 1))
        - es * sp.integrate((1 - rho) * c, (_X, 0, 1))
        + es**3 * sp.integrate(sp.diff(rho, _X) * sp.diff(c, _X), (_X, 0, 1))
    )

    # pin the mu offset through the weighted-mean identity
    f_rho_dF = sp.lambdify(_X, rho * dF, "numpy")
    q_dF = quad(f_rho_dF, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)[0]
    r_cos = float(sp.integrate(rho * sp.cos(sp.pi * _X), (_X, 0, 1)))
    K = (q_dF - sp.Rational(1, 5) * r_cos) / m1
    mu = sp.Float(float(K)) + sp.Rational(1, 5) * sp.cos(sp.pi * _X)

    visc = 2 * sp.Integer(1) + sp.Integer(0)
    art = 1 / sp.log(1 / sp.Float(delta))
    pi_total = art * rho**11 + (2 - 1) * rho**2 + 1 * rho
    rho0, c0 = sp.Integer(1), sp.Float(m2 / m1)

    f1 = (
        es**2 * rho * u
        + sp.diff(rho * u * u, _X)
        + sp.diff(pi_total, _X)
        + es**4 * sp.diff(rho, _X) * sp.diff(u, _X)
        + rho * dF * sp.diff(c, _X)
        - rho * mu * sp.diff(c, _X)
    )
    s_rho = es**2 * rho + sp.diff(rho * u, _X) - es**4 * sp.diff(rho, _X, 2) - es**2 * rho0
    s_u = visc * sp.diff(u, _X, 2) - f1
    s_mu = sp.diff(mu, _X, 2) - (es * rho * c + rho * u * sp.diff(c, _X) - es * rho0 * c0)
    s_c = sp.diff(c, _X, 2) - (rho * dF - rho * mu)

    lam = lambda expr: sp.lambdify(_X, expr, "numpy")
    return Manufactured(
        potential=p,
        fluid=fp,
        eps=eps,
        m1=m1,
        m2=m2,
        rho=lam(rho),
        u=lam(u),
        mu=lam(mu),
        c=lam(c),
        s_rho=lam(s_rho),
        s_u=lam(s_u),
        s_mu=lam(s_mu),
        s_c=lam(s_c),
    )


def observed_orders(errors) -> list[float]:
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
