"""Regenerate ``reference.json``, the stored results the correctness gate compares against.

    python3 bench/make_reference.py [--workloads A,B] [--instances 0-7] [--n-cells N]

Runs one command per workload and instance through the CLI, checks it with
every other part of the gate, and stores each value's report and field
samples.  The committed file was made from the seed code; regenerate it only
when the correct answer itself changes, never to make a change pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from command import (BENCH_DIR, NO_REFERENCE, REF_FACTOR, TOL_REL, gate, read_outcomes,
                     reference_entry, run_command)
from workloads import N_INSTANCES, WORKLOADS, make_config, reference_key


def _instances(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--instances", default=f"0-{N_INSTANCES - 1}")
    ap.add_argument("--n-cells", type=int, default=None)
    args = ap.parse_args(argv)

    path = BENCH_DIR / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["about"] = ("Per-value diagnostics report and field samples of each workload, "
                    "problem size and instance, made from the seed code.")
    doc["tolerance"] = f"{REF_FACTOR:g} * {TOL_REL:g} * (1 + |reference|)"
    entries = doc.setdefault("entries", {})

    work = BENCH_DIR / ".run" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for name in args.workloads.split(","):
            workload = WORKLOADS[name]
            for instance in _instances(args.instances):
                config = work / "run.cfg"
                config.write_text(make_config(workload, instance, args.n_cells))
                out_dir = work / "out"
                shutil.rmtree(out_dir, ignore_errors=True)
                res = run_command(workload, config, out_dir, work / "record.json", "plain")
                reasons = [[r for r in rs if r != NO_REFERENCE]
                           for rs in gate(workload, res, None)]
                key = reference_key(workload, instance, args.n_cells)
                iters = [sum(st[2] for st in s["stages"]) for s in res.solves if "stages" in s]
                if any(reasons):
                    print(f"{key}: FAILED {reasons}", file=sys.stderr)
                    status = 1
                    continue
                entries[key] = [reference_entry(o) for o in read_outcomes(workload, out_dir)]
                print(f"{key}: {res.wall_s:.2f} s, iterations {iters}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # one entry per line keeps the file diffable
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in sorted(entries.items())]
    head = json.dumps({k: v for k, v in doc.items() if k != "entries"}, indent=1)[:-2]
    path.write_text(head + ',\n "entries": {\n' + ",\n".join(lines) + "\n }\n}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
