"""Workload definitions and the seeded generator of chns1d configuration files.

Every workload solves the forced default problem of the ROADMAP (a sine bulk
force ``g1`` on the default mixture) through the ``chns1d`` command line.  The
seed picks one of ``N_INSTANCES`` problem instances: instance 0 is exactly the
default ``g1 = 0.05 sin`` with no ``g2``; the others draw the ``g1`` amplitude
from [0.04, 0.06] and, for about half of them, add a ``g2 = a cos`` force with
``a <= 0.02``.  The instance set is finite because the correctness gate
compares every result against a reference stored per instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_INSTANCES = 8

SWEEP_VALUES = (0.2, 0.1, 0.05, 0.02, 0.01)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "solve" or "sweep"
    n_cells: int
    why: str
    max_parallel: int = 1

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_dir]
        if self.command == "sweep":
            args += ["--sweep-key", "delta", "--values", ",".join(f"{v:g}" for v in SWEEP_VALUES)]
        return args

    def values(self) -> tuple:
        """The values an operation is counted over: one per sweep value, one for a solve."""
        return SWEEP_VALUES if self.command == "sweep" else (None,)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_n4096", "solve", 4096,
                 why="one forced solve at n = 4096; the per-cell block assembly dominates"),
        Workload("solve_n256", "solve", 256,
                 why="the same solve at n = 256; per-call overhead and start-up are a large share"),
        Workload("sweep_delta_n1024", "sweep", 1024,
                 why="5-value delta sweep, sequential and warm-started: sweep loop, warm starts, reports"),
        Workload("sweep_delta_par2", "sweep", 1024, max_parallel=2,
                 why="the same sweep as cold solves on a 2-worker process pool: the pool path"),
    )
}


def forcing(instance: int) -> dict[str, str]:
    """Forcing keys of one problem instance; instance 0 is the ROADMAP default."""
    keys = {"forcing.g1.kind": "sin", "forcing.g1.amplitude": "0.05"}
    if instance == 0:
        return keys
    rng = random.Random(instance)
    keys["forcing.g1.amplitude"] = f"{0.04 + 0.02 * rng.random():.4f}"
    if rng.random() < 0.5:
        keys["forcing.g2.kind"] = "cos"
        keys["forcing.g2.amplitude"] = f"{0.02 * rng.random():.4f}"
    return keys


def make_config(workload: Workload, seed: int, n_cells: int | None = None,
                overrides: dict[str, str] | None = None) -> str:
    """The configuration text the CLI receives for this workload and seed."""
    keys = {"domain.n_cells": str(n_cells or workload.n_cells)}
    keys.update(forcing(seed % N_INSTANCES))
    if workload.max_parallel != 1:
        keys["sweep.max_parallel"] = str(workload.max_parallel)
    keys.update(overrides or {})
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def reference_key(workload: Workload, seed: int, n_cells: int | None = None) -> str:
    return f"{workload.name}/n{n_cells or workload.n_cells}/i{seed % N_INSTANCES}"
