"""Benchmark of the chns1d command line: time to solution, set-up, wall time, memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
                         [--n-cells N] [--set KEY=VALUE ...] [--results FILE]

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed.  The seed selects the problem instance (see
``workloads.py``).  The loop is closed: one client, and the next command
starts only after the previous one has exited.  Commands run until
``--seconds`` have elapsed, at least ``MIN_COMMANDS`` of them.

``--trace 0`` reports the end-to-end metrics from plain commands, in which
only the few entry points ``spans.install`` always wraps are timed; it also
runs ``N_PROBES`` set-up probes, which stop at the first call into a command
handler.  ``--trace 1`` alternates plain and detailed commands and
reports the per-layer metrics of the detailed ones plus the tracing overhead.
Every operation passes through the correctness gate of ``command.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller results file,
with the environment record, goes to ``bench/.run/results/`` or ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from command import BENCH_DIR, ROOT, gate, output_bytes, run_command
from layers import PER_LAYER, WORKLOAD_LAYERS, layer_metrics
from workloads import WORKLOADS, make_config, reference_key

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("peak_rss_mb", "MB"),
)
N_PROBES = 4
MIN_COMMANDS = 3


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n-cells", type=int, default=None, help="override the workload's grid size")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="extra configuration key (e.g. solver.max_picard=3)")
    ap.add_argument("--results", type=Path, default=None, help="results file to write")
    return ap.parse_args(argv)


def _overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--set expects KEY=VALUE, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def environment() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(f"{index}/size")
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "git_commit": commit,
        "threads_pinned": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    }


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def measure(args, workload, work: Path, reference) -> dict:
    config = work / "run.cfg"
    config.write_text(make_config(workload, args.seed, args.n_cells, _overrides(args.set)))
    record = work / "record.json"
    probes, commands = [], []

    def one(mode: str) -> dict:
        out_dir = work / f"out{len(commands)}"
        res = run_command(workload, config, out_dir, record, mode)
        entry = {"mode": mode, "exit_code": res.exit_code, "elapsed_s": res.wall_s + res.import_cal_s,
                 **res.timings(), "peak_rss_mb": res.peak_rss_mb,
                 "raw": dict(res.timings(scaled=False), import_calibration_s=res.import_cal_s),
                 "stage_iters": [[st[2] for st in s.get("stages", [])]
                                 for s in sorted(res.solves, key=lambda s: -s["delta"])],
                 "failures": gate(workload, res, reference)}
        if mode == "detailed":
            entry["layers"] = layer_metrics(res, args.n_cells or workload.n_cells,
                                            output_bytes(out_dir))
        if res.exit_code != 0:
            entry["stderr"] = res.stderr[-2000:]
        shutil.rmtree(out_dir, ignore_errors=True)
        commands.append(entry)
        return entry

    if args.trace == 0:
        for _ in range(N_PROBES):
            res = run_command(workload, config, work / "probe", record, "probe")
            setup = res.timings()["setup_s"]
            if setup is None:
                raise SystemExit(f"set-up probe failed (exit {res.exit_code}): {res.stderr[-2000:]}")
            probes.append(setup)
        modes = ["plain"]
    else:
        modes = ["plain", "detailed"]

    deadline = perf_counter() + args.seconds
    while True:
        one(modes[len(commands) % len(modes)])
        longest = max(c["elapsed_s"] for c in commands)
        if len(commands) >= max(MIN_COMMANDS, len(modes)) and perf_counter() + longest > deadline:
            break
    return {"probes": probes, "commands": commands}


def metrics_of(args, run: dict) -> dict[str, dict]:
    plain = [c for c in run["commands"] if c["mode"] == "plain"]

    def series(name: str, cmds) -> list[float]:
        vals = [c[name] for c in cmds if c[name] is not None]
        if not vals:
            raise SystemExit(f"no command produced {name}; see the results file")
        return vals

    if args.trace == 0:
        samples = {
            "wall_s": series("wall_s", plain),
            "setup_s": run["probes"] + series("setup_s", plain),
            "time_to_solution_s": series("time_to_solution_s", plain),
            "peak_rss_mb": series("peak_rss_mb", plain),
        }
        units = dict(END_TO_END)
    else:
        detailed = [c for c in run["commands"] if c["mode"] == "detailed"]
        layers = [c["layers"] for c in detailed if c["layers"]]
        if not layers:
            raise SystemExit("no detailed command produced a record; see the results file")
        units = dict(PER_LAYER)
        units.update((name, unit) for name, unit, _ in WORKLOAD_LAYERS if name in layers[0])
        samples = {name: [lay[name] for lay in layers]
                   for name in units if name != "trace.overhead_frac"}
        tts_plain = statistics.median(series("time_to_solution_s", plain))
        tts_traced = statistics.median(series("time_to_solution_s", detailed))
        samples["trace.overhead_frac"] = [tts_traced / tts_plain - 1.0]
    return {name: dict(_summary(vals), unit=units[name]) for name, vals in samples.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "chns1d" / "cli.py").is_file():
        print(f"bench: no chns1d sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = json.loads((BENCH_DIR / "reference.json").read_text())["entries"]
    reference = references.get(reference_key(workload, args.seed, args.n_cells))

    run_dir = BENCH_DIR / ".run"
    work = run_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(args, workload, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = metrics_of(args, run)
    failures = [f for c in run["commands"] for f in c["failures"]]
    attempted, failed = len(failures), sum(1 for f in failures if f)
    results = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n_cells": args.n_cells or workload.n_cells,
        "overrides": args.set, "config": make_config(workload, args.seed, args.n_cells,
                                                      _overrides(args.set)),
        "environment": environment(), "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "metrics": metrics, **run,
    }
    path = args.results or run_dir / "results" / \
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")

    print(f"{workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(run['commands'])} commands  results: {path}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['median']:14.6g} {m['unit']:6s} "
              f"(median of {m['n']}, min {m['min']:.6g}, max {m['max']:.6g})")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} frac   ({failed} of {attempted} operations)")
    for c in run["commands"]:
        for reasons in c["failures"]:
            if reasons:
                print("  failed: " + "; ".join(reasons[:3]))
                break
    declared = [name for name, _ in (END_TO_END if args.trace == 0 else PER_LAYER)]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name]["median"], "unit": metrics[name]["unit"]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
