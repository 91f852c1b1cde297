"""Configuration-driven command line: potential tables, solves, sweeps, checks.

Subcommands:

* ``potential`` writes the potential/derivative table (``potential.csv``) and
  the structural constants (``constants.txt``).
* ``solve`` runs the continuation solver and writes the solution fields
  (``fields.csv``), the diagnostics report (``report.txt``), and the residual
  history (``convergence.csv``).
* ``sweep`` runs a delta or eps sweep and writes one diagnostics row per value
  (``sweep.csv``) plus per-value field files.  The first value runs the full
  continuation and every later value warm-starts from its solution (cold if
  it failed), whether the later values run in this process or on a pool.
* ``check`` executes the built-in verification suites and exits nonzero on
  any failure.

All numeric output uses ``%.12e`` formatting with LF line endings, and every
code path is deterministic: identical configurations produce byte-identical
files, including under parallel sweep execution (results are buffered and
written in input order).

Exit codes: 0 on success, 1 on a solver failure (one of
``solver.SOLVER_ERRORS``, ``NotConverged`` included) or an I/O error, 2 on a
configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import potential, solver
from .config import ConfigError, RunConfig, load_config, parse_config_text
from .checks import run_all_checks
from .diagnostics import DiagnosticsReport, compute_report

__all__ = ["main", "cmd_potential", "cmd_solve", "cmd_sweep", "cmd_check"]


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from None


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _fields_rows(state: solver.State) -> list[list[str]]:
    x = state.rho.grid.cell_centers()
    cols = (x, state.rho.values, state.u.values, state.mu.values, state.c.values)
    return [[_fmt(col[i]) for col in cols] for i in range(x.size)]


def _fields_name(sweep_key: str, value: float) -> str:
    """File name of one sweep value's fields; values closer than 6 digits share it."""
    return f"fields_{sweep_key}_{value:.6g}.csv"


def cmd_potential(cfg: RunConfig, out_dir: Path) -> int:
    """Write the tabulated potential curves and the structural constants."""
    p = cfg.spec.potential
    table = potential.figure1_table(p, cfg.table_grid)
    rows = [[_fmt(v) for v in row] for row in table]
    _write_csv(out_dir / "potential.csv", list(potential.FIGURE1_COLUMNS), rows)
    cons = potential.constants(p)
    _write_text(
        out_dir / "constants.txt",
        f"c_star = {_fmt(cons.c_star)}\n"
        f"spinodal = {_fmt(cons.spinodal)}\n"
        f"bound_M_estimate = {_fmt(cons.bound_M_estimate)}\n",
    )
    return 0


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    """Run the continuation solver and write fields, report, and history."""
    try:
        state, log = solver.continuation_solve(cfg.spec, cfg.controls)
    except solver.SOLVER_ERRORS as err:
        print(f"solve failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    _write_csv(out_dir / "fields.csv", ["x", "rho", "u", "mu", "c"], _fields_rows(state))
    report = compute_report(state, cfg.spec, eps=log.final_eps)
    _write_text(out_dir / "report.txt", report.to_kv_text())
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
    warm-started from the state the job carries; ``bench/spans.py`` hooks this name."""
    return solver._sweep_value(*job)


def cmd_sweep(cfg: RunConfig, sweep_key: str, values: list[float], out_dir: Path) -> int:
    """Run a regularization sweep and write per-value diagnostics rows.

    The first value runs the full continuation and every later value
    warm-starts from its solution (cold if it failed); ``sweep.max_parallel >
    1`` solves the later values on a process pool, with the same output files.
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
    if cfg.max_parallel == 1:
        sweep = run(cfg.spec, values, cfg.controls)
    else:
        workers = min(cfg.max_parallel, max(len(values) - 1, 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sweep = run(cfg.spec, values, cfg.controls, partial(pool.map, _sweep_value_cold))

    header = [sweep_key, "status"] + DiagnosticsReport.csv_header()
    rows = []
    for value, status, report in zip(values, sweep.statuses, sweep.reports):
        cells = [_fmt(value), status]
        if report is None:
            cells += ["nan"] * len(DiagnosticsReport.csv_header())
        else:
            cells += [_fmt(v) for v in report.csv_values()]
        rows.append(cells)
    _write_csv(out_dir / "sweep.csv", header, rows)

    for value, state in zip(values, sweep.states):
        if state is not None:
            path = out_dir / _fields_name(sweep_key, value)
            _write_csv(path, ["x", "rho", "u", "mu", "c"], _fields_rows(state))

    failed = [f"{v:g}: {s}" for v, s in zip(values, sweep.statuses) if s != "ok"]
    if failed:
        print("sweep: failures -> " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_check(cfg: RunConfig) -> int:
    """Run the verification suites and print a pass/fail table."""
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else parse_config_text("")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
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
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
