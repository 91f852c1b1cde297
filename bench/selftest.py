"""Self-tests of the benchmark (not collected by pytest; run directly).

    python3 bench/selftest.py

* BENCHMARK.json declares exactly the workloads and metrics the code emits;
* a smoke run of every workload at n = 64, plain and traced, prints every
  declared metric with its unit and passes the correctness gate;
* ``solver.max_picard = 3`` makes every operation fail the gate although the
  CLI exits 0;
* the committed baseline shows the seed code's iteration pattern at seed 0,
  n = 256: 17/10/8/8/25/25;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from command import BENCH_DIR, ROOT
from layers import PER_LAYER
from run import END_TO_END
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last, proc.stdout + proc.stderr


def check_declaration() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def check_smoke() -> None:
    for name in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result, log = bench("--workload", name, "--seed", "0", "--seconds", "1",
                                      "--trace", str(trace), "--n-cells", "64")
            assert code == 0 and result is not None, log
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, log
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"smoke {name} trace {trace}: ok ({result['attempted']} operations)")


def check_max_picard_fails() -> None:
    path = BENCH_DIR / ".run" / "selftest-max-picard.json"
    code, result, log = bench("--workload", "solve_n256", "--seed", "0", "--seconds", "1",
                              "--set", "solver.max_picard=3", "--results", str(path))
    assert code == 0 and result is not None, log
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
    for command in json.loads(path.read_text())["commands"]:
        assert command["exit_code"] == 0, "the CLI itself should exit 0"
        (reasons,) = command["failures"]
        assert any(r.startswith("stage ") for r in reasons), reasons
    print(f"max_picard = 3: fail_frac = {result['failed'] / result['attempted']:g}")


def check_baseline() -> None:
    base = json.loads((BENCH_DIR / "baseline" / "solve_n256-seed0-trace0.json").read_text())
    pattern = base["commands"][0]["stage_iters"]
    assert pattern == [[17, 10, 8, 8, 25, 25]], pattern
    print("baseline iteration pattern at seed 0, n = 256: " + "/".join(map(str, pattern[0])))


def check_refuses_without_sources() -> None:
    empty = BENCH_DIR / ".run" / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    empty.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, empty / rel, ignore=shutil.ignore_patterns(".run", "__pycache__"))
        code, result, log = bench("--workload", "solve_n256", "--seed", "0", "--seconds", "1",
                                  "--trace", "0", cwd=empty)
        assert code != 0 and result is None, log
        print(f"without sources: exit {code}, no result")
    finally:
        shutil.rmtree(empty, ignore_errors=True)


if __name__ == "__main__":
    check_declaration()
    check_refuses_without_sources()
    check_baseline()
    check_max_picard_fails()
    check_smoke()
    print("selftest passed")
