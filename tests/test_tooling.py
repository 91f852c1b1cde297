"""Checks on how the package is imported and on the benchmark's timing hooks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import chns1d

SRC = Path(chns1d.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"

# Every library name bench/spans.py replaces with a timing wrapper.  If a
# refactor renames one, or stops looking it up by that name, the wrapper
# would silently time nothing.
SPANS_TARGETS = {
    "cli": ["cmd_solve", "cmd_sweep", "_sweep_value_cold", "compute_report", "load_config"],
    "solver": [
        "continuation_solve", "picard_step", "solve_flow_coupled", "solve_continuity",
        "solve_mu", "solve_c", "delta_sweep", "dF_delta", "pressure",
    ],
    "mesh": ["gradient", "laplacian_solve"],
    "potential": ["dF_delta", "pressure"],
    "diagnostics": ["compute_report"],
}

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from chns1d import cli, diagnostics, mesh, potential, solver
mods = dict(cli=cli, solver=solver, mesh=mesh, potential=potential, diagnostics=diagnostics)
targets = json.loads(sys.argv[2])
before = {f"{m}.{n}": getattr(mods[m], n, None) for m, names in targets.items() for n in names}
field_init = mesh.Field.__post_init__
spans.install(spans.Tracer(sys.argv[3], detailed=True), cli)
wrapped = {k: v is not None and getattr(mods[k.split(".")[0]], k.split(".")[1]) is not v
           for k, v in before.items()}
wrapped["mesh.Field.__post_init__"] = mesh.Field.__post_init__ is not field_init
print(json.dumps(wrapped))
"""


def _run(*args):
    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=env, check=True)
    return proc.stdout


def test_cli_import_leaves_out_scipy_special():
    out = _run("-c", "import sys, chns1d.cli; print('scipy.special' in sys.modules)")
    assert out.strip() == "False"


def test_cli_import_leaves_out_scipy_linalg():
    # the LAPACK wrappers are loaded on their own, not through the scipy package
    out = _run("-c", "import sys, chns1d.cli; "
                     "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.strip() == "['scipy.linalg._flapack']"


ROUTINES_PROBE = """
import sys
first = sys.argv[1]
if first == "scipy":
    import scipy.linalg
from chns1d import mesh, solver
from scipy.linalg import lapack
print(all(getattr(mesh.lapack, name) is getattr(lapack, name)
          for name in ("dgtsv", "dgttrf", "dgttrs", "dgbsv")), solver.lapack is mesh.lapack)
"""


@pytest.mark.parametrize("first", ["scipy", "chns1d"])
def test_lapack_routines_are_scipys_in_either_import_order(first):
    assert _run("-c", ROUTINES_PROBE, first).split() == ["True", "True"]


def test_every_name_spans_wraps_exists(tmp_path):
    wrapped = json.loads(_run("-c", PROBE, str(BENCH), json.dumps(SPANS_TARGETS),
                              str(tmp_path / "trace.json")))
    assert len(wrapped) == sum(map(len, SPANS_TARGETS.values())) + 1
    assert [name for name, ok in wrapped.items() if not ok] == []
