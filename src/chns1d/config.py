"""Strict flat-text configuration for the command-line front end.

The format is one ``key = value`` pair per line, ``#`` starting a comment,
dotted keys for grouping, and no nesting.  Parsing is strict: unknown keys,
duplicate keys, malformed values, and parameter combinations that violate the
model's constraints are all rejected at parse time with the offending key
named.  Every key has a default, so the empty configuration is valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import Field, Grid
from .potential import PotentialParams
from .solver import FluidParams, ProblemSpec, SolveControls

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


DEFAULTS: dict[str, str] = {
    "domain.length": "1.0",
    "domain.n_cells": "256",
    "potential.theta0": "1.0",
    "potential.thetac": "1.5",
    "potential.delta": "0.1",
    "fluid.gamma": "2.0",
    "fluid.lambda1": "1.0",
    "fluid.lambda2": "0.0",
    "fluid.h": "1.0",
    "fluid.art_exponent": "11",
    "problem.m1": "1.0",
    "problem.m2": "0.3",
    "forcing.g1.kind": "zero",
    "forcing.g1.amplitude": "0.0",
    "forcing.g1.mode": "1",
    "forcing.g2.kind": "zero",
    "forcing.g2.amplitude": "0.0",
    "forcing.g2.mode": "1",
    "solver.sigma_schedule": "1.0",
    "solver.eps_schedule": "1e-3",
    "solver.damping": "1.0",
    "solver.tol_rel": "1e-8",
    "solver.max_picard": "500",
    "output.dir": "out",
    "sweep.max_parallel": "1",
    "table.c_min": "-1.5",
    "table.c_max": "1.5",
    "table.points": "601",
}

_FORCING_KINDS = ("zero", "sin", "cos", "bump")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: problem objects plus output options."""

    spec: ProblemSpec
    controls: SolveControls
    output_dir: Path
    max_parallel: int
    table_grid: np.ndarray


def _parse_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{key}: unknown configuration key")
        if key in values:
            raise ConfigError(f"{key}: duplicate key")
        values[key] = value
    return values


def _get(values: dict[str, str], key: str, kind):
    raw = values.get(key, DEFAULTS[key])
    try:
        value = kind(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({err})") from None
    if kind in (float, _float_list) and not np.all(np.isfinite(value)):
        raise ConfigError(f"{key}: must be finite")
    return value


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _forcing_field(grid: Grid, kind: str, amplitude: float, mode: int, key: str) -> Field:
    _require(kind in _FORCING_KINDS, f"{key}.kind", f"must be one of {_FORCING_KINDS}")
    _require(mode >= 1, f"{key}.mode", "must be a positive integer")
    x = grid.cell_centers()
    L = grid.length_L
    if kind == "zero" or amplitude == 0.0:
        return grid.zeros()
    if kind == "sin":
        return grid.field(amplitude * np.sin(mode * np.pi * x / L))
    if kind == "cos":
        return grid.field(amplitude * np.cos(mode * np.pi * x / L))
    return grid.field(amplitude * np.exp(-0.5 * ((x - 0.5 * L) / (0.1 * L)) ** 2))


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    values = _parse_lines(text)

    length = _get(values, "domain.length", float)
    _require(length > 0.0, "domain.length", "must be positive")
    n_cells = _get(values, "domain.n_cells", int)
    _require(n_cells >= 8, "domain.n_cells", "must be at least 8")
    grid = Grid(n_cells, length)

    theta0 = _get(values, "potential.theta0", float)
    thetac = _get(values, "potential.thetac", float)
    delta = _get(values, "potential.delta", float)
    _require(0.0 < theta0 < thetac, "potential.theta0", "must satisfy 0 < theta0 < thetac")
    _require(0.0 < delta < 1.0, "potential.delta", "must lie in (0, 1)")
    pot = PotentialParams(theta0, thetac, delta)

    gamma = _get(values, "fluid.gamma", float)
    lam1 = _get(values, "fluid.lambda1", float)
    lam2 = _get(values, "fluid.lambda2", float)
    hcoef = _get(values, "fluid.h", float)
    art = _get(values, "fluid.art_exponent", int)
    _require(gamma > 1.0, "fluid.gamma", "must exceed 1")
    _require(lam1 > 0.0, "fluid.lambda1", "must be positive")
    _require(2.0 * lam1 + 3.0 * lam2 >= 0.0, "fluid.lambda2", "must satisfy 2*lambda1 + 3*lambda2 >= 0")
    _require(hcoef > 0.0, "fluid.h", "must be positive")
    _require(art >= 2, "fluid.art_exponent", "must be an integer >= 2")
    fluid = FluidParams(gamma, lam1, lam2, hcoef, art)

    m1 = _get(values, "problem.m1", float)
    m2 = _get(values, "problem.m2", float)
    _require(m1 > 0.0, "problem.m1", "must be positive")
    _require(-m1 < m2 < m1, "problem.m2", "must lie in (-m1, m1)")

    g1 = _forcing_field(
        grid,
        _get(values, "forcing.g1.kind", str),
        _get(values, "forcing.g1.amplitude", float),
        _get(values, "forcing.g1.mode", int),
        "forcing.g1",
    )
    g2 = _forcing_field(
        grid,
        _get(values, "forcing.g2.kind", str),
        _get(values, "forcing.g2.amplitude", float),
        _get(values, "forcing.g2.mode", int),
        "forcing.g2",
    )

    sigmas = _get(values, "solver.sigma_schedule", _float_list)
    epss = _get(values, "solver.eps_schedule", _float_list)
    damping = _get(values, "solver.damping", float)
    tol_rel = _get(values, "solver.tol_rel", float)
    max_picard = _get(values, "solver.max_picard", int)
    try:
        controls = SolveControls(sigmas, damping, max_picard, tol_rel, epss)
        spec = ProblemSpec(grid, pot, fluid, m1, m2, g1, g2)
    except ValueError as err:
        raise ConfigError(f"solver/problem: {err}") from None

    max_parallel = _get(values, "sweep.max_parallel", int)
    _require(max_parallel >= 1, "sweep.max_parallel", "must be a positive integer")

    c_min = _get(values, "table.c_min", float)
    c_max = _get(values, "table.c_max", float)
    points = _get(values, "table.points", int)
    _require(c_max > c_min, "table.c_max", "must exceed table.c_min")
    _require(points >= 2, "table.points", "must be at least 2")
    table_grid = np.linspace(c_min, c_max, points)

    return RunConfig(
        spec=spec,
        controls=controls,
        output_dir=Path(_get(values, "output.dir", str)),
        max_parallel=max_parallel,
        table_grid=table_grid,
    )


def load_config(path) -> RunConfig:
    """Read and parse a configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {p}: {err}") from None
    return parse_config_text(text)
