"""Spawn one ``chns1d`` command, collect its records and outputs, and gate the results.

An operation is one solve command or one value of a sweep.  It passes the
correctness gate only if all of these hold:

* the command exited 0 and the value's sweep status is ``ok``;
* the solver returned, and every continuation stage ended at or below
  ``tol_rel`` (``chns1d solve`` exits 0 even when ``max_picard`` runs out);
* the mass defect ``|integral(rho) - m1|`` is at most ``1e-12 * m1`` and
  ``rho >= 0`` (both on the in-memory state), and ``rho >= 0`` in the file;
* the energy-inequality slack is at least ``-EI_SLACK_CONSTANT * h**2``;
* the report and a fixed set of field samples match the stored reference
  within ``REF_FACTOR * TOL_REL * (1 + |reference|)``, the solver's own
  relative-update norm scaled by REF_FACTOR.
"""

from __future__ import annotations

import bisect
import csv
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Gate constants, frozen at the values of the seed code so that a change to
# the library cannot loosen them.
EI_SLACK_CONSTANT = 5.0
MASS_TOL = 1.0e-12
TOL_REL = 1.0e-8
REF_FACTOR = 10.0
N_SAMPLES = 9
FIELDS = ("rho", "u", "mu", "c")

COMMAND_TIMEOUT_S = 150.0
NO_REFERENCE = "no stored reference for this workload, size and instance"

# Calibration times on a quiet host; reported times are scaled to them.
CAL_LOOP_S = 0.0125     # spans.calibrate()
CAL_IMPORT_S = 0.4      # calibrate_imports()
IMPORT_CALIBRATION = "import numpy, scipy.linalg"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS/OpenMP thread per process, so the load never exceeds nproc
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


class HostClock:
    """Maps one process's ``perf_counter`` readings to time on a host of nominal speed.

    The host's speed varies by up to 2x over seconds (contention from other
    tenants, which the guest does not see as steal time; CPU time slows just
    as wall time does).  Each process of a command times a fixed
    interpreter-bound kernel (``spans.calibrate``) before its command handler
    starts, every ``spans.CAL_INTERVAL_S`` between Picard steps, and after
    the handler returns.  Between two calibrations the clock runs at the
    mean of their speeds, CAL_LOOP_S over the kernel's time; during a
    calibration it stops, so calibration time is excluded from every
    duration.  With ``scaled=False`` it only excludes the calibrations.
    """

    def __init__(self, calibrations: list, scaled: bool = True):
        self.speeds = [CAL_LOOP_S / (b - a) if scaled else 1.0 for a, b in calibrations]
        self.times, self.values = [], []
        now = 0.0
        for i, (a, b) in enumerate(calibrations):
            if i:
                now += (a - self.times[-1]) * 0.5 * (self.speeds[i - 1] + self.speeds[i])
            self.times += [a, b]
            self.values += [now, now]

    def __call__(self, t: float) -> float:
        k = bisect.bisect_right(self.times, t)
        if k == 0:
            return (t - self.times[0]) * self.speeds[0]
        if k == len(self.times):
            return self.values[-1] + (t - self.times[-1]) * self.speeds[-1]
        if k % 2:                                  # inside a calibration
            return self.values[k - 1]
        t0, t1, v0, v1 = self.times[k - 1], self.times[k], self.values[k - 1], self.values[k]
        return v0 + (t - t0) * (v1 - v0) / (t1 - t0)

    @property
    def mean_speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)


@dataclass
class CommandResult:
    exit_code: int
    wall_s: float
    t_spawn: float
    stderr: str
    out_dir: Path
    import_cal_s: float
    records: list = field(default_factory=list)   # parent record first, then workers

    @property
    def parent(self) -> dict:
        return self.records[0] if self.records else {}

    def clocks(self, scaled: bool = True) -> list[HostClock] | None:
        """One clock per record, or None when some process made no calibration."""
        if not self.records or not all(rec["calibration"] for rec in self.records):
            return None
        return [HostClock(rec["calibration"], scaled) for rec in self.records]

    @property
    def import_speed(self) -> float:
        return CAL_IMPORT_S / self.import_cal_s

    def timings(self, scaled: bool = True) -> dict:
        """End-to-end timings of the command, scaled to a host of nominal speed.

        Set-up (interpreter start and imports) slows less than interpreted
        loops do, so it is scaled by its own calibration instead: a fresh
        interpreter importing numpy and scipy.linalg, run just before the
        command.  While a process pool runs, the parent only waits, so that
        part of the wall time is taken on the clock of the slowest worker.
        ``time_to_solution_s`` is taken in the process whose span from first
        solver entry to last solver exit is longest.
        """
        t_command = self.parent.get("t_command")
        out = {"wall_s": None, "setup_s": None, "time_to_solution_s": None}
        if t_command is None:
            return out
        out["setup_s"] = (t_command - self.t_spawn) * (self.import_speed if scaled else 1.0)
        clocks = self.clocks(scaled)
        if clocks is None:
            return out
        parent, t_exit = clocks[0], self.t_spawn + self.wall_s
        pool = [sp for sp in self.parent["spans"] if sp[0].startswith("cli.pool_")]
        if pool and len(clocks) > 1:
            # the parent only waits while the pool runs: time that on the workers' clocks
            t0, t1 = min(sp[1] for sp in pool), max(sp[2] for sp in pool)
            waited = max(clock(t1) - clock(t0) for clock in clocks[1:])
            out["wall_s"] = (out["setup_s"] + parent(t0) - parent(t_command) + waited
                             + parent(t_exit) - parent(t1))
        else:
            out["wall_s"] = out["setup_s"] + parent(t_exit) - parent(t_command)
        spans = [(clock, [rec["spans"][s["span"]] for s in rec["solves"]])
                 for clock, rec in zip(clocks, self.records)]
        out["time_to_solution_s"] = max(
            (clock(max(sp[2] for sp in sps)) - clock(min(sp[1] for sp in sps))
             for clock, sps in spans if sps), default=None)
        return out

    @property
    def solves(self) -> list[dict]:
        return [s for rec in self.records for s in rec["solves"]]

    @property
    def peak_rss_mb(self) -> float:
        return max((rec["maxrss_kb"] for rec in self.records), default=0) / 1024.0


def calibrate_imports() -> float:
    """Time a fresh interpreter that imports the library's dependencies."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CALIBRATION], cwd=ROOT, env=child_env(),
                   check=True, timeout=COMMAND_TIMEOUT_S)
    return perf_counter() - t0


def run_command(workload: Workload, config_path: Path, out_dir: Path, record: Path,
                mode: str) -> CommandResult:
    """Run one chns1d command in a fresh process and wait for it and its workers."""
    import_cal = calibrate_imports()
    for old in record.parent.glob(record.name + "*"):
        old.unlink()
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(record), mode, "--"]
    argv += workload.cli_args(str(config_path), str(out_dir))
    t_spawn = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = perf_counter() - t_spawn
    result = CommandResult(proc.returncode, wall, t_spawn, err, out_dir, import_cal)
    if record.exists():
        result.records.append(json.loads(record.read_text()))
        for path in sorted(record.parent.glob(record.name + ".w*")):
            result.records.append(json.loads(path.read_text()))
    return result


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_fields(path: Path) -> dict[str, list[float]]:
    header, rows = _read_csv(path)
    cols = list(zip(*rows))
    return {name: [float(v) for v in col] for name, col in zip(header, cols)}


def read_outcomes(workload: Workload, out_dir: Path) -> list[dict]:
    """Status, report and fields of each value, in value order (missing files give None)."""
    outcomes = []
    if workload.command == "solve":
        report = None
        if (out_dir / "report.txt").exists():
            report = {}
            for line in (out_dir / "report.txt").read_text().splitlines():
                key, val = (part.strip() for part in line.split("=", 1))
                report[key] = float(val)
        fields = _read_fields(out_dir / "fields.csv") if (out_dir / "fields.csv").exists() else None
        return [{"status": "ok", "report": report, "fields": fields}]
    table = {}
    if (out_dir / "sweep.csv").exists():
        header, rows = _read_csv(out_dir / "sweep.csv")
        table = {float(row[0]): row for row in rows}
    for value in workload.values():
        row = table.get(value)
        if row is None:
            outcomes.append({"status": "missing", "report": None, "fields": None})
            continue
        report = {k: float(v) for k, v in zip(header[2:], row[2:])} if row[1] == "ok" else None
        path = out_dir / f"fields_delta_{value:.6g}.csv"
        fields = _read_fields(path) if path.exists() else None
        outcomes.append({"status": row[1], "report": report, "fields": fields})
    return outcomes


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0


# ---------------------------------------------------------------------------
# Reference samples and the correctness gate
# ---------------------------------------------------------------------------

def sample_indices(n: int) -> list[int]:
    return [(2 * j + 1) * n // (2 * N_SAMPLES) for j in range(N_SAMPLES)]


def reference_entry(outcome: dict) -> dict:
    """The part of one value's outcome that the reference stores."""
    fields = outcome["fields"]
    idx = sample_indices(len(fields["rho"]))
    return {
        "report": outcome["report"],
        "index": idx,
        "samples": {f: [fields[f][i] for i in idx] for f in FIELDS},
        "scale": {f: max(abs(v) for v in fields[f]) for f in FIELDS},
    }


def _solve_for(workload: Workload, value, solves: list[dict]) -> dict | None:
    if workload.command == "solve":
        return solves[0] if len(solves) == 1 else None
    matches = [s for s in solves if s["delta"] == value]
    return matches[0] if len(matches) == 1 else None


def _reference_failures(outcome: dict, ref: dict) -> list[str]:
    bad = []
    for key, want in ref["report"].items():
        got = outcome["report"].get(key)
        if got is None or abs(got - want) > REF_FACTOR * TOL_REL * (1.0 + abs(want)):
            bad.append(f"report {key} = {got!r}, reference {want!r}")
    for f in FIELDS:
        tol = REF_FACTOR * TOL_REL * (1.0 + ref["scale"][f])
        col = outcome["fields"][f]
        for i, want in zip(ref["index"], ref["samples"][f]):
            if i >= len(col) or abs(col[i] - want) > tol:
                bad.append(f"field {f}[{i}] differs from reference {want!r}")
                break
    return bad


def gate(workload: Workload, result: CommandResult, reference: list | None) -> list[list[str]]:
    """Failure reasons of each operation of one command (an empty list passes)."""
    outcomes = read_outcomes(workload, result.out_dir)
    solves = result.solves
    reasons = []
    for k, (value, outcome) in enumerate(zip(workload.values(), outcomes)):
        bad = []
        if result.exit_code != 0:
            bad.append(f"exit code {result.exit_code}")
        if outcome["status"] != "ok":
            bad.append(f"status {outcome['status']}")
        solve = _solve_for(workload, value, solves)
        if solve is None:
            bad.append("no solver record for this value")
        elif "error" in solve:
            bad.append(f"solver raised {solve['error']}")
        else:
            for i, (sigma, eps, iters, res) in enumerate(solve["stages"]):
                if res is None or res > solve["tol_rel"]:
                    bad.append(f"stage {i + 1} (sigma={sigma:g}, eps={eps:g}) ended at "
                               f"residual {res!r} after {iters} iterations")
            if solve["mass_defect"] > MASS_TOL * solve["m1"]:
                bad.append(f"mass defect {solve['mass_defect']:g}")
            if solve["rho_min"] < 0.0:
                bad.append(f"negative density {solve['rho_min']:g}")
        if outcome["report"] is None or outcome["fields"] is None:
            bad.append("missing report or fields file")
        else:
            rho = outcome["fields"]["rho"]
            h = 2.0 * outcome["fields"]["x"][0]
            if min(rho) < 0.0:
                bad.append(f"negative density {min(rho):g} in fields file")
            slack = outcome["report"]["ei_slack"]
            if slack < -EI_SLACK_CONSTANT * h * h:
                bad.append(f"energy-inequality slack {slack:g} below {-EI_SLACK_CONSTANT * h * h:g}")
            if reference is None:
                bad.append(NO_REFERENCE)
            else:
                bad += _reference_failures(outcome, reference[k])
        reasons.append(bad)
    return reasons
