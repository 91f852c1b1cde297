"""In-process timing of calls into chns1d, installed from outside the library.

:func:`install` replaces public functions of the ``chns1d`` modules with
wrappers that record a span (name, start, end, parent span) per call.  The
spans stay in memory and are written as one JSON record when the process
ends; forked pool workers reset the buffer and write their own record per
process.  Timestamps come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC and is therefore comparable across processes.

Two levels:

* always: the command handlers, ``continuation_solve`` (with its stage log,
  which the correctness gate needs), ``picard_step``, the process pool and
  the pool worker entry point.  These also time a calibration kernel before
  the first command handler and between Picard steps (see
  ``command.HostClock``);
* ``detailed``: additionally the sub-solves, mesh and potential kernels,
  diagnostics, config loading, and a count of ``Field.__post_init__`` calls.
"""

from __future__ import annotations

import functools
import json
import os
import resource
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter


# Longest stretch of solver work between two calibrations of the host speed.
CAL_INTERVAL_S = 0.1


def calibrate(rounds: int = 50_000) -> list[float]:
    """Time a fixed interpreter-bound loop that uses nothing from chns1d; returns [start, end]."""
    t0 = perf_counter()
    acc = [0.0] * 64

    def add(i: int, v: float) -> None:
        acc[i & 63] += v

    for i in range(rounds):
        add(i, i * 0.5 + 1.0)
        add(i + 3, -0.25 * acc[(i * 7) & 63])
    return [t0, perf_counter()]


class ProbeExit(Exception):
    """Raised at the first command-handler call of a set-up probe."""


class Tracer:
    def __init__(self, path: str, detailed: bool, probe: bool = False):
        self.path = path
        self.detailed = detailed
        self.probe = probe
        self.record: dict = {}
        self._reset(worker=False)
        os.register_at_fork(after_in_child=lambda: self._reset(worker=True))

    def _reset(self, worker: bool) -> None:
        self.worker = worker
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.stack: list[int] = []
        self.solves: list[dict] = []
        self.field_checks = 0
        self.field_check_s = 0.0
        self.pool_workers = 0
        self.calibrations: list[list] = []
        self.next_calibration = 0.0
        if worker:
            self.record = {}

    def calibrate(self, due_only: bool = False) -> None:
        """Time the calibration kernel now, or only when CAL_INTERVAL_S has passed."""
        if due_only and perf_counter() < self.next_calibration:
            return
        self.calibrations.append(calibrate())
        self.next_calibration = self.calibrations[-1][1] + CAL_INTERVAL_S

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return timed

    def write(self, **extra) -> None:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        rec = dict(self.record, pid=os.getpid(), worker=self.worker, maxrss_kb=usage,
                   spans=self.spans, solves=self.solves, field_checks=self.field_checks,
                   field_check_s=self.field_check_s, pool_workers=self.pool_workers,
                   calibration=self.calibrations, **extra)
        path = f"{self.path}.w{os.getpid()}" if self.worker else self.path
        with open(path, "w") as fh:
            json.dump(rec, fh)


def _stage_summary(log) -> list[list]:
    return [[s.sigma, s.eps, s.iterations, s.residuals[-1] if s.residuals else None]
            for s in log.stages]


def install(tracer: Tracer, cli) -> None:
    """Wrap the public entry points of the already imported ``chns1d`` package."""
    from chns1d import config, diagnostics, mesh, potential, solver

    def solve_wrapper(fn):
        @functools.wraps(fn)
        def timed(spec, controls, *args, **kwargs):
            info = {"delta": spec.potential.delta, "eps": spec.eps, "n": spec.grid.n_cells,
                    "m1": spec.m1, "tol_rel": controls.tol_rel,
                    "planned_stages": len(controls.sigma_schedule) + len(controls.eps_schedule) - 1,
                    "eps_steps": len(controls.eps_schedule) - 1}
            tracer.solves.append(info)
            span = tracer.begin("solver.continuation_solve")
            info["span"] = tracer.stack[-1]
            try:
                state, log = fn(spec, controls, *args, **kwargs)
            except BaseException as err:
                info["error"] = type(err).__name__
                raise
            finally:
                tracer.end(span)
            rho = state.rho.values
            info["stages"] = _stage_summary(log)
            info["mass_defect"] = abs(float(rho.sum()) * spec.grid.spacing_h - spec.m1)
            info["rho_min"] = float(rho.min())
            return state, log
        return timed

    def command_wrapper(fn, name):
        timed = tracer.wrap(fn, name)

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if "t_command" not in tracer.record:
                tracer.record["t_command"] = perf_counter()
                if tracer.probe:
                    raise ProbeExit
                tracer.calibrate()
            return timed(*args, **kwargs)
        return entry

    def worker_wrapper(fn):
        timed = tracer.wrap(fn, "cli.sweep_value_cold")

        @functools.wraps(fn)
        def run_and_flush(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.write()
        return run_and_flush

    def step_wrapper(fn):
        timed = tracer.wrap(fn, "solver.picard_step")

        @functools.wraps(fn)
        def calibrated_step(*args, **kwargs):
            tracer.calibrate(due_only=True)
            return timed(*args, **kwargs)
        return calibrated_step

    class TimedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            tracer.pool_workers = self._max_workers
            span = tracer.begin("cli.pool_map")
            try:
                return iter(list(super().map(fn, *iterables, **kwargs)))
            finally:
                tracer.end(span)

        def shutdown(self, *args, **kwargs):
            span = tracer.begin("cli.pool_shutdown")
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                tracer.end(span)

    solver.continuation_solve = solve_wrapper(solver.continuation_solve)
    solver.picard_step = step_wrapper(solver.picard_step)
    cli.cmd_solve = command_wrapper(cli.cmd_solve, "cli.cmd_solve")
    cli.cmd_sweep = command_wrapper(cli.cmd_sweep, "cli.cmd_sweep")
    cli._sweep_value_cold = worker_wrapper(cli._sweep_value_cold)
    cli.ProcessPoolExecutor = TimedPool
    if not tracer.detailed:
        return

    for name in ("solve_flow_coupled", "solve_continuity", "solve_mu", "solve_c", "delta_sweep"):
        setattr(solver, name, tracer.wrap(getattr(solver, name), f"solver.{name}"))
    for name in ("gradient", "laplacian_solve"):
        setattr(mesh, name, tracer.wrap(getattr(mesh, name), f"mesh.{name}"))
    # solver imports these two by name, so wrap each name where it is looked up
    for name in ("dF_delta", "pressure"):
        timed = tracer.wrap(getattr(potential, name), f"potential.{name}")
        setattr(potential, name, timed)
        setattr(solver, name, timed)
    report = tracer.wrap(diagnostics.compute_report, "diagnostics.compute_report")
    diagnostics.compute_report = report
    cli.compute_report = report
    cli.load_config = tracer.wrap(config.load_config, "config.load_config")

    field_init = mesh.Field.__post_init__

    def counted_field_init(self):
        t0 = perf_counter()
        try:
            field_init(self)
        finally:
            tracer.field_checks += 1
            tracer.field_check_s += perf_counter() - t0

    mesh.Field.__post_init__ = counted_field_init

