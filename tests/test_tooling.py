"""Checks on how the package is imported and run as a process, and on the benchmark hooks."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import chns1d
from chns1d import mesh

NUMPY_LAPACK = mesh._routines is not None
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


# A child process gets no inherited environment; without a bytecode cache
# setting, every import it made would leave a __pycache__ in the source tree.
ENV = {"PYTHONPATH": str(SRC), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}


def _run(*args):
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=ENV, check=True)
    return proc.stdout


def test_cli_import_leaves_out_scipy_special():
    out = _run("-c", "import sys, chns1d.cli; print('scipy.special' in sys.modules)")
    assert out.strip() == "False"


def test_cli_import_loads_no_scipy_module():
    # the LAPACK routines are numpy's own; scipy's f2py wrappers, loaded on their
    # own and not through the scipy package, only where numpy does not export them
    out = _run("-c", "import sys, chns1d.cli; "
                     "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.strip() == ("[]" if NUMPY_LAPACK else "['scipy.linalg._flapack']")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.skipif(not NUMPY_LAPACK, reason="numpy exports no ILP64 LAPACK on this platform")
def test_cli_import_maps_one_openblas():
    """numpy's OpenBLAS is the only one in the process: scipy's (about 25 MB)
    and its _flapack extension are never mapped."""
    out = _run("-c", "import chns1d.cli; print(*{line.split()[-1] for line in "
                     "open('/proc/self/maps') if 'openblas' in line or '_flapack' in line})")
    mapped = [Path(path).name for path in out.split()]
    assert len(mapped) == 1 and mapped[0].startswith("libscipy_openblas"), mapped


def test_cli_import_leaves_out_checks():
    # only the check command needs the verification suites
    out = _run("-c", "import sys, chns1d.cli; print('chns1d.checks' in sys.modules)")
    assert out.strip() == "False"


# Counts the methods dataclasses compiles from generated source while the
# command-line modules and the verification suites load.
CODEGEN_PROBE = """
import dataclasses
generated = 0
create_fn = dataclasses._create_fn
def counted(*args, **kwargs):
    global generated
    generated += 1
    return create_fn(*args, **kwargs)
dataclasses._create_fn = counted
import chns1d.cli, chns1d.checks
print(generated)
"""


@pytest.mark.skipif(not hasattr(dataclasses, "_create_fn"),
                    reason="this Python's dataclasses generate methods another way")
def test_records_compile_no_generated_code():
    """The records share the methods of ``chns1d.record.Record``: importing
    the package execs no generated ``__init__``, ``__eq__`` or ``__repr__``
    (15 ``@dataclass`` classes compiled 81 on every uncached import)."""
    assert _run("-c", CODEGEN_PROBE).strip() == "0"


def test_package_import_loads_no_submodule():
    # the modules are the API: the package root re-exports nothing
    out = _run("-c", "import sys, chns1d; print(sorted(m for m in sys.modules if m.startswith('chns1d.')))")
    assert out.strip() == "[]"


ROUTINES_PROBE = """
import sys
first = sys.argv[1]
if first == "scipy":
    import scipy.linalg
import numpy as np
from chns1d import mesh
from scipy.linalg import lapack
off, d = np.ones(7), np.arange(4.0, 12.0)
print((mesh._gtsv, mesh._gbsv) == ((mesh._numpy_gtsv, mesh._numpy_gbsv) if mesh._routines
                                   else (mesh._flapack_gtsv, mesh._flapack_gbsv)),
      "scipy.linalg._flapack" in sys.modules and sys.modules["scipy.linalg._flapack"] is lapack._flapack,
      np.array_equal(mesh.solve_tridiagonal("probe", off.copy(), d.copy(), off.copy(), np.ones(8)),
                     lapack.dgtsv(off, d, off, np.ones(8))[3]))
"""


@pytest.mark.parametrize("first", ["scipy", "chns1d"])
def test_lapack_binding_is_the_same_in_either_import_order(first):
    """Importing scipy.linalg first changes neither the routines chosen nor their results."""
    assert _run("-c", ROUTINES_PROBE, first).split() == ["True", "True", "True"]


# Makes the lookup of numpy's LAPACK fail, so that mesh falls back to _flapack.
NO_NUMPY_LAPACK = """
import ctypes
class NoSymbols(ctypes.CDLL):
    def __getattr__(self, name):
        raise AttributeError(name)
ctypes.CDLL = NoSymbols
"""

FALLBACK_SOLVE = NO_NUMPY_LAPACK + """
import sys
from chns1d import cli, mesh
assert (mesh._gtsv, mesh._gbsv) == (mesh._flapack_gtsv, mesh._flapack_gbsv)
assert "scipy.linalg._flapack" in sys.modules and "scipy.linalg" not in sys.modules
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("how, args", [
    # where numpy exports no LAPACK, scipy's _flapack solves instead
    pytest.param("fallback", ["-c", FALLBACK_SOLVE], id="fallback"),
    # Python's development mode fills freed memory with 0xDD, so an array
    # address read from freed memory would reach LAPACK as a wild pointer
    pytest.param("dev-mode", ["-X", "dev", "-m", "chns1d.cli"], id="dev-mode"),
])
def test_forced_solve_writes_the_same_bytes(tmp_path, how, args):
    cfg = tmp_path / "forced.cfg"
    cfg.write_text(FORCED_SWEEP.replace("64", "256"))
    outs = {}
    for name, argv in (("plain", ["-m", "chns1d.cli"]), (how, args)):
        outs[name] = tmp_path / name
        _run(*argv, "solve", "--config", str(cfg), "--out", str(outs[name]))
    names = sorted(p.name for p in outs["plain"].iterdir())
    assert names == ["convergence.csv", "fields.csv", "report.txt"]
    for name in names:
        assert (outs["plain"] / name).read_bytes() == (outs[how] / name).read_bytes(), name


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


def test_solve_record_holds_what_spans_reads(tmp_path):
    """bench/spans.py counts a solve's stages from ``SolveControls.sigma_schedule``
    and logs each stage's ``StageLog.sigma``: both stay, at full load, until
    the benchmark stops reading them.  On a 3-stage eps ladder the record
    holds 3 planned stages and one [1.0, eps, iterations, last residual] row
    per stage, as convergence.csv counts them."""
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text(FORCED_SWEEP + "solver.eps_schedule = 1e-1,1e-2,1e-3\n")
    record, out = tmp_path / "trace.json", tmp_path / "out"
    _run(str(BENCH / "child.py"), str(record), "plain", "--",
         "solve", "--config", str(cfg), "--out", str(out))
    [solve] = json.loads(record.read_text())["solves"]
    assert (solve["planned_stages"], solve["eps_steps"]) == (3, 2)
    stages = solve["stages"]
    assert [s[:2] for s in stages] == [[1.0, 0.1], [1.0, 0.01], [1.0, 0.001]]
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert [s[2] for s in stages] == [[r[0] for r in rows].count(k) for k in "123"]
    last = {r[0]: float(r[2]) for r in rows}  # each stage's last residual
    assert [s[3] for s in stages] == pytest.approx([last[k] for k in "123"], rel=1e-11)


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


def test_report_evaluates_no_pressure(detailed_spans):
    """The report's projection residuals lag only dF_delta(c) and c': no
    pressure span sits under diagnostics.compute_report."""
    def ancestors(i):
        while i >= 0:
            yield detailed_spans[i][0]
            i = detailed_spans[i][3]

    reports = [i for i, span in enumerate(detailed_spans) if span[0] == "diagnostics.compute_report"]
    assert len(reports) == 1
    under_report = [name for name, _, _, parent in detailed_spans
                    if "diagnostics.compute_report" in ancestors(parent)]
    assert "potential.dF_delta" in under_report
    assert "potential.pressure" not in under_report


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
    built the parameters, not into ``Record.__init__`` or any generated code."""
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text("fluid.gamma = 1.2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "chns1d.cli", "potential", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=ENV, check=True,
    )
    assert "UserWarning: gamma=1.2 <= 3/2" in proc.stderr
    assert "<string>" not in proc.stderr and "record.py" not in proc.stderr
