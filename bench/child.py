"""Run one ``chns1d`` command in this process with the benchmark's timers installed.

    python3 bench/child.py RECORD {plain|detailed|probe} -- <chns1d arguments>

Imports ``chns1d.cli`` (timed), wraps the library's public functions (see
``spans.py``), calls ``chns1d.cli.main`` and writes the JSON record to RECORD.
``probe`` stops at the first call into a command handler, so the record
holds only the set-up timestamps.  The exit code is that of the command.

The process also times a fixed calibration kernel before the command handler
starts, between Picard steps and after the handler returns; see
``command.HostClock`` for how the harness uses it.
"""

from __future__ import annotations

import sys
from time import perf_counter

from spans import ProbeExit, Tracer, install


def main(argv: list[str]) -> int:
    record, mode, sep, *cli_args = argv
    if mode not in ("plain", "detailed", "probe") or sep != "--":
        raise SystemExit("usage: child.py RECORD {plain|detailed|probe} -- ARGS...")
    tracer = Tracer(record, detailed=mode == "detailed", probe=mode == "probe")
    t0 = perf_counter()
    import chns1d.cli as cli
    tracer.record["import_s"] = perf_counter() - t0
    install(tracer, cli)
    try:
        code = cli.main(cli_args)
    except ProbeExit:
        code = 0
    if tracer.calibrations:
        tracer.calibrate()
    tracer.write(exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
