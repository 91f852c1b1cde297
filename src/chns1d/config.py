"""Strict flat-text configuration for the command-line front end.

The format is one ``key = value`` pair per line, ``#`` starting a comment,
dotted keys for grouping, and no nesting.  Unknown, duplicate, malformed and
out-of-range values are rejected at parse time with the offending key named.
Every key has a default, so the empty configuration is valid.

The parameter types (``Grid``, ``PotentialParams``, ``FluidParams``,
``ProblemSpec``, ``SolveControls``) own the defaults and range checks of the
keys that set their fields; this module only maps those keys onto fields.
``problem.m2`` is the one such key whose default (0.3) differs from its
field's.  The forcing, output, sweep and table keys belong to no type.
"""

from __future__ import annotations

from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .mesh import Field, Grid
from .potential import PotentialParams
from .record import Record
from .solver import FluidParams, ProblemSpec, SolveControls

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# Each type-backed key and the field it sets: ``<section>.<field>`` except
# for the two renamed fields.
_FIELDS: dict[str, tuple[type, str]] = {
    "domain.length": (Grid, "length_L"),
    "domain.n_cells": (Grid, "n_cells"),
    "potential.theta0": (PotentialParams, "theta0"),
    "potential.thetac": (PotentialParams, "thetac"),
    "potential.delta": (PotentialParams, "delta"),
    "fluid.gamma": (FluidParams, "gamma"),
    "fluid.lambda1": (FluidParams, "lambda1"),
    "fluid.lambda2": (FluidParams, "lambda2"),
    "fluid.h": (FluidParams, "H"),
    "fluid.art_exponent": (FluidParams, "art_exponent"),
    "problem.m1": (ProblemSpec, "m1"),
    "problem.m2": (ProblemSpec, "m2"),
    "solver.eps_schedule": (SolveControls, "eps_schedule"),
    "solver.tol_rel": (SolveControls, "tol_rel"),
    "solver.max_picard": (SolveControls, "max_picard"),
}
_KEY_OF = {field: key for key, field in _FIELDS.items()}
# The parser of each field's annotation (a string under postponed evaluation).
_KINDS = {"float": float, "int": int, "tuple": _float_list}


def _field(key: str):
    cls, name = _FIELDS[key]
    return cls.__dataclass_fields__[name]


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


DEFAULTS: dict[str, str] = {
    "domain.length": "1.0",  # Grid's fields have no defaults
    "domain.n_cells": "256",
    **{key: _text(_field(key).default) for key in _FIELDS if _field(key).default is not MISSING},
    "problem.m2": "0.3",  # overrides ProblemSpec.m2 = 0: the CLI default mixture is asymmetric
    "forcing.g1.kind": "zero",
    "forcing.g1.amplitude": "0.0",
    "forcing.g1.mode": "1",
    "forcing.g2.kind": "zero",
    "forcing.g2.amplitude": "0.0",
    "forcing.g2.mode": "1",
    "output.dir": "out",
    "sweep.max_parallel": "1",
    "table.c_min": "-1.5",
    "table.c_max": "1.5",
    "table.points": "601",
}

_FORCING_KINDS = ("zero", "sin", "cos", "bump")


class RunConfig(Record):
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


def _build(cls, kwargs: dict, **parts):
    """Construct ``cls``.  Its ValueError message starts with the offending
    field, so the ConfigError it becomes can name that field's key."""
    try:
        return cls(**kwargs, **parts)
    except ValueError as err:
        key = _KEY_OF.get((cls, str(err).split(" ", 1)[0]), cls.__name__)
        raise ConfigError(f"{key}: {err}") from None


def _forcing_field(grid: Grid, values: dict[str, str], key: str) -> Field:
    kind = _get(values, f"{key}.kind", str)
    amplitude = _get(values, f"{key}.amplitude", float)
    mode = _get(values, f"{key}.mode", int)
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
    args: dict[type, dict] = {}
    for key, (cls, name) in _FIELDS.items():
        args.setdefault(cls, {})[name] = _get(values, key, _KINDS[_field(key).type])

    grid = _build(Grid, args[Grid])
    pot = _build(PotentialParams, args[PotentialParams])
    fluid = _build(FluidParams, args[FluidParams])
    g1 = _forcing_field(grid, values, "forcing.g1")
    g2 = _forcing_field(grid, values, "forcing.g2")
    spec = _build(ProblemSpec, args[ProblemSpec],
                  grid=grid, potential=pot, fluid=fluid, g1=g1, g2=g2)
    controls = _build(SolveControls, args[SolveControls])

    max_parallel = _get(values, "sweep.max_parallel", int)
    _require(max_parallel >= 1, "sweep.max_parallel", "must be a positive integer")

    c_min = _get(values, "table.c_min", float)
    c_max = _get(values, "table.c_max", float)
    points = _get(values, "table.points", int)
    _require(c_max > c_min, "table.c_max", "must exceed table.c_min")
    _require(points >= 2, "table.points", "must be at least 2")

    output_dir = Path(_get(values, "output.dir", str))
    return RunConfig(spec, controls, output_dir, max_parallel, np.linspace(c_min, c_max, points))


def load_config(path) -> RunConfig:
    """Read and parse a configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {p}: {err}") from None
    return parse_config_text(text)
