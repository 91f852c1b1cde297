"""Configuration-driven command line: potential tables, solves, sweeps, checks.

Subcommands:

* ``potential`` writes the potential/derivative table (``potential.csv``) and
  the structural constants (``constants.txt``).
* ``solve`` runs the continuation solver and writes the solution fields
  (``fields.csv``), the diagnostics report (``report.txt``), and the residual
  history (``convergence.csv``).
* ``sweep`` runs a delta or eps sweep and, in one pass over the solver's
  per-value rows, writes one diagnostics row per value (``sweep.csv``) plus
  per-value field files.  Every value is solved on its own, from the
  hydrostatic start, as ``solve`` would solve it, whether the later values
  run in this process or on a pool.
* ``check`` executes the built-in verification suites and exits nonzero on
  any failure.

This module formats every output file, with ``%.12e`` numbers and LF line
endings: :func:`_kv_text` writes a record's fields as ``name = value``
lines (``report.txt``, ``constants.txt``), the one table writer
:func:`_write_table` streams a table of float columns in fixed blocks of
rows (``fields.csv``, the sweep's field files, ``potential.csv``), so no
whole-table text is ever built, and the report's fields
are also the columns of ``sweep.csv``.  Every code path is deterministic:
identical configurations produce byte-identical files, including under
parallel sweep execution (results are buffered and written in input order).

Exit codes: 0 on success, 1 on a solver failure (one of
``solver.SOLVER_ERRORS``, ``NotConverged`` included), an I/O error or an
array too large to allocate (``out of memory: <message>``), 2 on a
configuration or usage error.

:func:`main` is the process entry point.  Its first statement freezes the
heap that the imports built (numpy, the LAPACK wrappers, this package), so
that the collections at interpreter exit skip it and forked sweep workers do
not copy its pages; see :func:`main`.  Only ``check`` imports
:mod:`chns1d.checks`.
"""

from __future__ import annotations

import argparse
import gc
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import potential, solver
from .config import ConfigError, RunConfig, load_config, parse_config_text
from .diagnostics import DiagnosticsReport, compute_report

__all__ = ["main", "cmd_potential", "cmd_solve", "cmd_sweep", "cmd_check"]


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


def _write(path: Path, write) -> None:
    """Call ``write(fh)`` on ``path`` opened for text with LF line endings,
    its directory made first; any OSError becomes ``cannot write <path>: ...``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            write(fh)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from None


def _write_text(path: Path, text: str) -> None:
    _write(path, lambda fh: fh.write(text))


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _kv_text(record) -> str:
    """``name = value`` per field of a record, in field order."""
    return "".join(f"{f.name} = {_fmt(getattr(record, f.name))}\n" for f in fields(record))


# Rows per ``%`` of the table writer: its text, and the Python floats behind
# it, are at most this many rows (44 KB traced at 5 columns), whatever the
# table's length.  Formatting one block costs what a whole-table template
# does per row; np.savetxt, one ``%`` per row, took 1.6 times as long.
_TABLE_BLOCK_ROWS = 128


def _write_table(path: Path, columns, table: np.ndarray) -> None:
    """A CSV of the 2-D float array ``table`` under the header ``columns``,
    streamed in blocks of :data:`_TABLE_BLOCK_ROWS` rows, each formatted by
    one ``%`` over a ``%.12e`` row template: the text is the same as per-cell
    :func:`_fmt`, and no whole-table text is built."""
    row = ",".join(["%.12e"] * table.shape[1]) + "\n"

    def write(fh) -> None:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), _TABLE_BLOCK_ROWS):
            block = table[start:start + _TABLE_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))

    _write(path, write)


def _write_fields(path: Path, state: solver.State) -> None:
    """``fields.csv``: x, rho, u, mu, c per cell."""
    table = np.column_stack((state.rho.grid.cell_centers(), state.rho.values, state.u.values,
                             state.mu.values, state.c.values))
    _write_table(path, ("x", "rho", "u", "mu", "c"), table)


def _fields_name(sweep_key: str, value: float) -> str:
    """File name of one sweep value's fields; values closer than 6 digits share it."""
    return f"fields_{sweep_key}_{value:.6g}.csv"


def cmd_potential(cfg: RunConfig, out_dir: Path) -> int:
    """Write the tabulated potential curves and the structural constants.

    A table that is not finite, where the potential's value overflows at a
    large |c|, raises a ConfigError naming ``table.c_min`` and
    ``table.c_max`` (exit 2), with nothing written."""
    p = cfg.spec.potential
    with np.errstate(over="ignore", invalid="ignore"):
        table = potential.figure1_table(p, cfg.table_grid)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        grid = cfg.table_grid
        raise ConfigError(f"table.c_min = {grid[0]:g}, table.c_max = {grid[-1]:g}: the potential "
                          f"table is not finite in {np.count_nonzero(bad)} of {len(grid)} rows, "
                          f"from c = {grid[bad][0]:g}; its values overflow the float range")
    _write_table(out_dir / "potential.csv", potential.FIGURE1_COLUMNS, table)
    _write_text(out_dir / "constants.txt", _kv_text(potential.constants(p)))
    return 0


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    """Run the continuation solver and write fields, report, and history."""
    try:
        state, log = solver.continuation_solve(cfg.spec, cfg.controls)
    except solver.SOLVER_ERRORS as err:
        print(f"solve failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    _write_fields(out_dir / "fields.csv", state)
    report = compute_report(state, cfg.spec, eps=log.final_eps)
    _write_text(out_dir / "report.txt", _kv_text(report))
    conv_rows = [
        [str(si + 1), str(it + 1), _fmt(res), _fmt(d)]
        for si, stage in enumerate(log.stages)
        for it, (res, d) in enumerate(zip(stage.residuals, stage.dampings))
    ]
    header = ["stage", "iteration", "residual", "damping"]
    _write_csv(out_dir / "convergence.csv", header, conv_rows)
    return 0


def _sweep_value_cold(job) -> tuple:
    """Process-pool entry point: one later sweep value, ``solver._sweep_value(*job)``,
    a cold solve like every value's; ``bench/spans.py`` hooks this name."""
    return solver._sweep_value(*job)


def cmd_sweep(cfg: RunConfig, sweep_key: str, values: list[float], out_dir: Path) -> int:
    """Run a regularization sweep and write per-value diagnostics rows.

    Every value is solved on its own, on the configured schedules and from
    the hydrostatic start, so each row is the ``solve`` of its value;
    ``sweep.max_parallel > 1`` solves the later values on a process pool, with
    the same output files.  One pass over the solver's rows builds the
    ``sweep.csv`` rows and the failure list and writes each solved value's
    field file.
    An invalid key or value list, or values whose field files would share a
    name, exit 2 before anything is solved.
    """
    try:
        values = solver.check_sweep(sweep_key, values)
    except ValueError as err:
        print(f"sweep: {err}", file=sys.stderr)
        return 2
    names = [_fields_name(sweep_key, v) for v in values]
    clash = [repr(v) for v, name in zip(values, names) if names.count(name) > 1]
    if clash:
        print(f"sweep: values {', '.join(clash)} would share a field file name", file=sys.stderr)
        return 2

    run = solver.delta_sweep if sweep_key == "delta" else solver.eps_sweep
    if cfg.max_parallel == 1 or len(values) == 1:
        rows = run(cfg.spec, values, cfg.controls)
    else:
        with ProcessPoolExecutor(max_workers=min(cfg.max_parallel, len(values) - 1)) as pool:
            rows = run(cfg.spec, values, cfg.controls, partial(pool.map, _sweep_value_cold))

    columns = [f.name for f in fields(DiagnosticsReport)]
    csv_rows, failed = [], []
    for value, (status, report, state, _) in zip(values, rows):
        if report is None:
            cells = ["nan"] * len(columns)
            failed.append(f"{value:g}: {status}")
        else:
            cells = [_fmt(getattr(report, name)) for name in columns]
            _write_fields(out_dir / _fields_name(sweep_key, value), state)
        csv_rows.append([_fmt(value), status, *cells])
    _write_csv(out_dir / "sweep.csv", [sweep_key, "status", *columns], csv_rows)
    if failed:
        print("sweep: failures -> " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_check(cfg: RunConfig) -> int:
    """Run the verification suites and print a pass/fail table."""
    from .checks import run_all_checks

    results = run_all_checks(cfg)
    width = max(len(r.name) for r in results)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag}  {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chns1d",
        description="Stationary two-phase mixture flow on a 1-D interval",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("potential", "tabulate the regularized potential and its constants"),
        ("solve", "run the continuation solver on the configured problem"),
        ("sweep", "solve a decreasing list of delta or eps values"),
        ("check", "run the built-in verification suites"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, default=None, help="configuration file")
        if name != "check":
            sp.add_argument("--out", type=Path, default=None, help="output directory")
        if name == "sweep":
            sp.add_argument("--sweep-key", choices=("delta", "eps"), required=True)
            sp.add_argument("--values", type=str, required=True,
                            help="comma-separated decreasing values")
    return parser


def main(argv=None) -> int:
    """Process entry point: run one subcommand on ``argv`` and return its exit code.

    The first statement, ``gc.freeze()``, moves every object alive at that
    point (about 24k, almost all made by the imports) into the permanent
    generation, which no collection walks.  Interpreter finalization then
    no longer collects that heap at exit, which was most of a command's exit
    time, and the forked ``sweep.max_parallel`` workers do not write to its
    GC headers, so fewer of its pages are copied on write.  Frozen objects
    are never collected as cycles: a caller that runs ``main`` many times in
    one process can call ``gc.unfreeze()`` after each run, so that the run's
    leftovers become collectable again.
    """
    gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else parse_config_text("")
        if args.command == "check":
            return cmd_check(cfg)
        out_dir = args.out if args.out is not None else cfg.output_dir
        if args.command == "potential":
            return cmd_potential(cfg, out_dir)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        try:
            values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        except ValueError as err:
            print(f"sweep: cannot parse values: {err}", file=sys.stderr)
            return 2
        return cmd_sweep(cfg, args.sweep_key, values, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
