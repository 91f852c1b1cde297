"""Checks on how the package is imported and run as a process, and on the benchmark hooks."""

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


def test_cli_import_leaves_out_checks():
    # only the check command needs the verification suites
    out = _run("-c", "import sys, chns1d.cli; print('chns1d.checks' in sys.modules)")
    assert out.strip() == "False"


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


FORCED_SWEEP = """
domain.n_cells = 64
forcing.g1.kind = sin
forcing.g1.amplitude = 0.05
"""


def test_sweep_pool_after_freeze_matches_sequential(tmp_path):
    """``cli.main`` freezes the start-up heap before the pool forks; in a real
    process, the pool path must still exit 0 and write the sequential bytes."""
    outs = []
    for max_parallel in (1, 2):
        cfg = tmp_path / f"run{max_parallel}.cfg"
        cfg.write_text(FORCED_SWEEP + f"sweep.max_parallel = {max_parallel}\n")
        out = tmp_path / f"out{max_parallel}"
        _run("-m", "chns1d.cli", "sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "delta", "--values", "0.2,0.1,0.05")
        outs.append(out)
    seq, par = outs
    names = sorted(p.name for p in seq.iterdir())
    assert names == ["fields_delta_0.05.csv", "fields_delta_0.1.csv",
                     "fields_delta_0.2.csv", "sweep.csv"]
    assert names == sorted(p.name for p in par.iterdir())
    for name in names:
        assert (seq / name).read_bytes() == (par / name).read_bytes(), name


# Spans a detailed trace of one solve must hold: one per solver sub-solve and
# per potential and mesh kernel the per-layer metrics are read from.
LAYER_SPANS = (
    "solver.solve_flow_coupled", "solver.solve_continuity", "solver.solve_mu", "solver.solve_c",
    "potential.dF_delta", "potential.pressure", "mesh.laplacian_solve",
)


@pytest.fixture(scope="module")
def detailed_spans(tmp_path_factory):
    """Spans [name, start, end, parent index] of a detailed bench/child.py
    solve of the n = 64 forced default."""
    tmp_path = tmp_path_factory.mktemp("detailed")
    cfg = tmp_path / "forced.cfg"
    cfg.write_text(FORCED_SWEEP)
    record = tmp_path / "trace.json"
    _run(str(BENCH / "child.py"), str(record), "detailed", "--",
         "solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    return json.loads(record.read_text())["spans"]


def test_detailed_trace_records_every_layer(detailed_spans):
    names = [span[0] for span in detailed_spans]
    assert [name for name in LAYER_SPANS if name not in names] == []


def test_each_picard_step_evaluates_the_potential_once(detailed_spans):
    """One dF_delta and one pressure span under each picard_step span: the
    step's lagged record is the only place they are evaluated."""
    def enclosing_step(i):
        while i >= 0 and detailed_spans[i][0] != "solver.picard_step":
            i = detailed_spans[i][3]
        return i

    per_step = {i: [] for i, span in enumerate(detailed_spans) if span[0] == "solver.picard_step"}
    for name, _, _, parent in detailed_spans:
        if name in ("potential.dF_delta", "potential.pressure") and enclosing_step(parent) >= 0:
            per_step[enclosing_step(parent)].append(name)
    assert per_step
    assert {i: sorted(names) for i, names in per_step.items()} == {
        i: ["potential.dF_delta", "potential.pressure"] for i in per_step
    }


def test_gamma_warning_names_a_file_not_generated_code(tmp_path):
    """A gamma <= 3/2 warning from the command line points at the line that
    built the parameters, not into the dataclass-generated ``__init__``."""
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text("fluid.gamma = 1.2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "chns1d.cli", "potential", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC), "PATH": ""}, check=True,
    )
    assert "UserWarning: gamma=1.2 <= 3/2" in proc.stderr
    assert "<string>" not in proc.stderr
