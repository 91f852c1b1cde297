import gc
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chns1d import cli, potential, solver
from chns1d.config import DEFAULTS, ConfigError, parse_config_text
from chns1d.diagnostics import DiagnosticsReport
from chns1d.mesh import Grid
from chns1d.solver import SolveControls, State
from conftest import LADDER, traced_peak


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class _SerialExecutor:
    """In-process stand-in for ProcessPoolExecutor in monkeypatched tests."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


REPORT_COLUMNS = [f.name for f in fields(DiagnosticsReport)]


def csv_column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


class TestConfigParsing:
    def test_empty_config_is_valid(self):
        cfg = parse_config_text("")
        assert cfg.spec.grid.n_cells == 256
        assert cfg.controls.sigma_schedule == (1.0,)
        assert cfg.controls.eps_schedule == (1.0e-3,)
        # the solver.* defaults are read from SolveControls, so nothing can drift
        assert cfg.controls == SolveControls()

    def test_comments_and_spacing(self):
        cfg = parse_config_text(
            "# full-line comment\n"
            "potential.theta0 = 0.8  # trailing comment\n"
            "\n"
            "potential.thetac=1.2\n"
        )
        assert cfg.spec.potential.theta0 == 0.8
        assert cfg.spec.potential.thetac == 1.2

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="potential.theta9"):
            parse_config_text("potential.theta9 = 1.0")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("problem.m1 = 1.0\nproblem.m1 = 2.0")

    def test_equal_temperatures_rejected(self):
        with pytest.raises(ConfigError, match="potential.theta0"):
            parse_config_text("potential.theta0 = 1.5\npotential.thetac = 1.5")

    def test_nonpositive_lambda1_rejected(self):
        with pytest.raises(ConfigError, match="fluid.lambda1"):
            parse_config_text("fluid.lambda1 = 0.0")

    def test_m2_equal_m1_rejected(self):
        with pytest.raises(ConfigError, match="problem.m2"):
            parse_config_text("problem.m1 = 1.0\nproblem.m2 = 1.0")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="problem.m1"):
            parse_config_text("problem.m1 = lots")

    def test_problem_eps_is_unknown(self):
        # every solve takes eps from solver.eps_schedule; the key had no reader
        with pytest.raises(ConfigError, match="problem.eps: unknown configuration key"):
            parse_config_text("problem.eps = 1e-2")

    def test_forcing_kinds(self):
        cfg = parse_config_text(
            "forcing.g1.kind = sin\nforcing.g1.amplitude = 0.1\nforcing.g2.kind = bump\n"
            "forcing.g2.amplitude = 0.05\n"
        )
        assert np.max(np.abs(cfg.spec.g1.values)) > 0.0
        assert np.max(cfg.spec.g2.values) == pytest.approx(0.05, rel=1e-3)

    def test_bad_forcing_kind(self):
        with pytest.raises(ConfigError, match="forcing.g1.kind"):
            parse_config_text("forcing.g1.kind = noise")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("forcing.g1.kind = sin\nforcing.g1.amplitude = nan\n", "forcing.g1.amplitude"),
            ("domain.length = inf\n", "domain.length"),
        ],
        ids=["amplitude-nan", "length-inf"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: must be finite\n"
        assert not (tmp_path / "o").exists()

    # one out-of-range value per key whose range a parameter type checks
    @pytest.mark.parametrize("key, value", [
        ("domain.n_cells", "4"),
        ("domain.length", "0"),
        ("potential.theta0", "2.0"),
        ("potential.delta", "1.0"),
        ("fluid.gamma", "1.0"),
        ("fluid.lambda1", "0.0"),
        ("fluid.lambda2", "-1.0"),
        ("fluid.h", "0.0"),
        ("fluid.art_exponent", "1"),
        ("problem.m1", "-1.0"),
        ("problem.m2", "1.0"),
        ("solver.sigma_schedule", "0.5"),
        ("solver.eps_schedule", "1e-3,1e-2"),
        ("solver.damping", "2.0"),
        ("solver.tol_rel", "0.0"),
        ("solver.max_picard", "0"),
    ])
    def test_range_error_names_the_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "o").exists()

    # values inside each key's range whose arithmetic leaves the float range:
    # h^2 of 0 (a ZeroDivisionError traceback from solve) or of inf (an
    # OverflowError), and a delta that rounds the knot 1 - delta to the pole 1
    # (a ZeroDivisionError traceback from potential)
    @pytest.mark.parametrize("command", ["solve", "potential"])
    @pytest.mark.parametrize("key, value, message", [
        ("domain.length", "1e-300", "length_L 1e-300 over 256 cells gives spacing h = 3.90625e-303, "
                                    "whose square is not a finite, positive, normal float"),
        ("domain.length", "1e300", "length_L 1e+300 over 256 cells gives spacing h = 3.90625e+297, "
                                   "whose square is not a finite, positive, normal float"),
        ("potential.delta", "1e-17", "delta must leave 1 - delta below 1 in floating point, "
                                     "got 1e-17"),
    ])
    def test_value_leaving_the_float_range_exits_2(self, tmp_path, capsys, command, key, value,
                                                    message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Configuration keys", 1)[1].split("\n### ", 1)[0]
        listed = dict(re.findall(r"`([a-z0-9_.]+)` \(([^)]*)\)", table))

        def parsed(text):
            try:
                return tuple(float(tok) for tok in text.split(","))
            except ValueError:
                return text

        assert {key: parsed(listed.get(key, "missing")) for key in DEFAULTS} == {
            key: parsed(text) for key, text in DEFAULTS.items()
        }


SOLVE_CONFIG = """
domain.n_cells = 96
forcing.g1.kind = sin
forcing.g1.amplitude = 0.1
forcing.g2.kind = cos
forcing.g2.amplitude = 0.05
solver.eps_schedule = 1e-1,1e-2
"""


class TestCliMain:
    def test_main_freezes_the_start_up_heap(self, tmp_path):
        assert gc.get_freeze_count() == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 32\n")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert gc.get_freeze_count() > 0

    # 1e15 float64 cells are 8 PB, beyond any 64-bit address space: numpy
    # refuses the array at once, without touching memory.
    @pytest.mark.parametrize("key, command", [
        ("domain.n_cells", "solve"),
        ("table.points", "potential"),
    ])
    def test_impossible_array_size_exits_1(self, tmp_path, capsys, key, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1000000000000000\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("out of memory: Unable to allocate")
        assert not (tmp_path / "o").exists()

    def test_memory_error_in_a_command_exits_1(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")

        monkeypatch.setattr(cli.solver, "continuation_solve", exhausted)
        assert cli.main(["solve", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "out of memory: synthetic allocation failure\n"
        assert not (tmp_path / "o").exists()


class TestCliPotential:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["potential", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["potential", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "potential.csv").read_bytes() == (out2 / "potential.csv").read_bytes()
        assert (out1 / "constants.txt").read_bytes() == (out2 / "constants.txt").read_bytes()

    def test_files_equal_per_cell_format(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["potential", "--out", str(out)]) == 0
        cfg = parse_config_text("")
        table = potential.figure1_table(cfg.spec.potential, cfg.table_grid)
        assert table.shape == (601, 7)
        want = ",".join(potential.FIGURE1_COLUMNS) + "\n" + "".join(
            ",".join(f"{v:.12e}" for v in row) + "\n" for row in table
        )
        assert (out / "potential.csv").read_bytes() == want.encode()
        cons = potential.constants(cfg.spec.potential)
        want = (f"c_star = {cons.c_star:.12e}\n"
                f"spinodal = {cons.spinodal:.12e}\n"
                f"bound_M_estimate = {cons.bound_M_estimate:.12e}\n")
        assert (out / "constants.txt").read_bytes() == want.encode()

    def test_curvature_column_zero_in_tail(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        out = tmp_path / "out"
        assert cli.main(["potential", "--config", str(cfg), "--out", str(out)]) == 0
        c = csv_column(out / "potential.csv", "c")
        col = csv_column(out / "potential.csv", "f2d_pp_minus")
        assert np.all(col[np.abs(c) > 1.1] == 0.0)

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential.theta0 = 2.0\npotential.thetac = 1.0\n")
        assert cli.main(["potential", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_table_exits_2_naming_its_range(self, tmp_path, capsys):
        """The quadratic tail's value overflows beyond |c| of about 1e154: no
        numpy warning, no file, and a message that names the range keys."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("table.c_min = -1e300\n")
        assert cli.main(["potential", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: table.c_min = -1e+300, table.c_max = 1.5: the potential table is not "
            "finite in 600 of 601 rows, from c = -1e+300; its values overflow the float range\n"
        )
        assert not (tmp_path / "o").exists()
        cfg.write_text("table.c_min = -1e150\ntable.c_max = 1e150\n")
        assert cli.main(["potential", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


FORCED_N4096 = "domain.n_cells = 4096\nforcing.g1.kind = sin\nforcing.g1.amplitude = 0.05\n"


class TestTableWriter:
    """The one table writer streams ``fields.csv`` and ``potential.csv`` in
    blocks of rows; its bytes are per-cell :func:`cli._fmt` with LF endings."""

    def test_fields_file_matches_per_cell_format(self, tmp_path):
        g = Grid(8, 1.0)
        rho = [0.0, 5e-324, 2.5e-310, 1e-300, 1.0 / 3.0, 1e200, 7.0, 1.0]
        u = [-0.0, 0.0, -5e-324, -1e-300, 1e-5, -1e250, 0.5, -2.0]
        mu = [1.7976931348623157e308, -2.2250738585072014e-308, -0.0, 3.0, 0.0, -1e-99, 1e100, 2.0]
        c = [0.3, -0.3, 1e-320, -1e-320, 123456789.0, -1.7976931348623157e308, 1e-100,
             9.99999999999995e99]
        state = State(g.field(rho), g.field(u), g.field(mu), g.field(c))
        cols = (g.cell_centers(), rho, u, mu, c)
        want = "x,rho,u,mu,c\n" + "".join(
            ",".join(cli._fmt(col[i]) for col in cols) + "\n" for i in range(g.n_cells)
        )
        path = tmp_path / "sub" / "fields.csv"
        cli._write_fields(path, state)
        assert path.read_bytes() == want.encode()
        assert "-0.000000000000e+00" in want and "e-324" in want
        assert "1.797693134862e+308" in want and "-1.797693134862e+308" in want
        assert "1.000000000000e+100" in want  # 9.99999999999995e99 rounds up a decade

    def test_potential_file_matches_per_cell_format(self, tmp_path):
        # a non-default table, two blocks and one row long; TestCliPotential
        # checks the default one
        points = 2 * cli._TABLE_BLOCK_ROWS + 1
        table = (f"table.c_min = -3\ntable.c_max = 2.5e-5\ntable.points = {points}\n"
                 "potential.delta = 1e-3\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(table)
        out = tmp_path / "o"
        assert cli.main(["potential", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = parse_config_text(table)
        rows = potential.figure1_table(cfg.spec.potential, cfg.table_grid)
        want = ",".join(potential.FIGURE1_COLUMNS) + "\n" + "".join(
            ",".join(f"{v:.12e}" for v in row) + "\n" for row in rows
        )
        assert (out / "potential.csv").read_bytes() == want.encode()

    def test_unwritable_path_is_named(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        g = Grid(8, 1.0)
        state = State(g.zeros(), g.zeros(), g.zeros(), g.zeros())
        with pytest.raises(OSError, match=r"^cannot write .*file/fields\.csv: "):
            cli._write_fields(blocker / "fields.csv", state)

    def test_fields_write_memory_is_bounded(self, tmp_path):
        """At n = 4096 the 4096 x 5 table is 160 KB.  A whole-file text template
        peaked at about 1.4 MB; streaming rows stays under half of that."""
        cfg = parse_config_text(FORCED_N4096)
        state, _ = solver.continuation_solve(cfg.spec, cfg.controls)
        assert traced_peak(lambda: cli._write_fields(tmp_path / "fields.csv", state)) < 700 * 1024


class TestCliSolve:
    def test_zero_forcing_fields_constant(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 64\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rho = csv_column(out / "fields.csv", "rho")
        u = csv_column(out / "fields.csv", "u")
        c = csv_column(out / "fields.csv", "c")
        assert np.max(np.abs(rho - 1.0)) <= 1e-8
        assert np.max(np.abs(u)) <= 1e-8
        assert np.max(np.abs(c - 0.3)) <= 1e-8
        report = (out / "report.txt").read_text()
        assert "ei_slack" in report and "mass1" in report
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["stage", "iteration", "residual", "damping"]
        assert [r[0] for r in rows] == ["1"] * len(rows)  # one stage by default

    def test_forced_solve_report(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SOLVE_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = dict(
            line.split(" = ") for line in (out / "report.txt").read_text().splitlines()
        )
        h = 1.0 / 96
        assert float(report["ei_slack"]) >= -5.0 * h * h
        assert abs(float(report["mass1"]) - 1.0) <= 1e-12

    def test_divergence_reports_stage_and_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        from chns1d import solver

        def blow_up(spec, controls, initial_state=None):
            raise solver.DivergenceError("residual diverged at stage sigma=1, eps=0.1")

        monkeypatch.setattr(solver, "continuation_solve", blow_up)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sigma=" in err and "eps=" in err

    def test_solver_error_exits_one_with_named_type(self, tmp_path, monkeypatch, capsys):
        from chns1d import solver

        def singular(spec, controls, initial_state=None):
            raise solver.SingularSystemError("transport matrix lost diagonal dominance")

        monkeypatch.setattr(solver, "continuation_solve", singular)
        rc = cli.main(["solve", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("solve failed: SingularSystemError: transport matrix")
        assert not (tmp_path / "o").exists()

    def test_max_picard_exhausted_exits_one_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FORCED_N64 + "solver.max_picard = 1\n")
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("solve failed: NotConverged: stage sigma=1, eps=0.001 ended at residual ")
        assert "after 1 iterations" in err
        assert not (tmp_path / "o").exists()

    def test_power_overflow_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # 2**1099 (the artificial-pressure slope at rho = m1 = 2) exceeds the float range
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FORCED_N64 + "fluid.art_exponent = 1100\nproblem.m1 = 2\n")
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "solve failed: OverflowError: density 2 to the power 1099 exceeds the float range\n"
        )
        assert not (tmp_path / "o").exists()

    def test_non_finite_iterate_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # at theta ~ 1e200 the first step's c sub-solve leaves c of order
        # 1e180, and rho dF_delta(c) c' in the next momentum right side
        # overflows; no numpy warning is printed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FORCED_N64 + LADDER + HUGE_THETA)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "solve failed: NonFiniteError: momentum sub-solve: the momentum right side is not "
            "finite in "
        )
        assert not (tmp_path / "o").exists()

    def test_non_finite_block_solution_names_the_solve(self, tmp_path, capsys):
        # rho g1 of 1e305 is finite, and with H = 1e303 so is the hydrostatic
        # start (ln rho is about G1/H), but the (rho, u) block's elimination overflows
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 64\nforcing.g1.kind = bump\nforcing.g1.amplitude = 1e305\n"
                       "fluid.h = 1e303\n")
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"solve failed: NonFiniteError: \(rho, u\) block: the solution is not "
                            r"finite in \d+ of 128 entries", lines[0])
        assert not (tmp_path / "o").exists()


FORCED_N64 = "domain.n_cells = 64\nforcing.g1.kind = sin\nforcing.g1.amplitude = 0.05\n"
HUGE_THETA = "potential.theta0 = 1e200\npotential.thetac = 1.5e200\n"


class TestCliSweep:
    def test_empty_values_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--sweep-key", "delta", "--values", ""]
        )
        assert rc == 2

    def test_wrong_direction_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--sweep-key", "delta", "--values", "0.05,0.1"]
        )
        assert rc == 2

    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize("values", ["1.5,0.5", "0.5,0", "nan"])
    def test_invalid_values_usage_error(self, tmp_path, capsys, values, max_parallel):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"domain.n_cells = 64\nsweep.max_parallel = {max_parallel}\n")
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--sweep-key", "delta", "--values", values]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("sweep: delta values must lie in (0, 1)")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("max_parallel", [1, 2])
    def test_colliding_field_files_usage_error(self, tmp_path, capsys, max_parallel):
        """Values that print alike under the field file format would overwrite each other."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"domain.n_cells = 64\nsweep.max_parallel = {max_parallel}\n")
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--sweep-key", "delta", "--values", "0.2,0.1000002,0.1000001"]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "sweep: values 0.1000002, 0.1000001 would share a field file name\n"
        )
        assert not (tmp_path / "o").exists()

    def test_first_value_same_on_both_paths(self, tmp_path):
        """Every row and field file is the same whether or not a pool runs the later values."""
        outs = []
        for max_parallel in (1, 2):
            cfg = tmp_path / f"run{max_parallel}.cfg"
            cfg.write_text(FORCED_N64 + f"sweep.max_parallel = {max_parallel}\n")
            out = tmp_path / f"out{max_parallel}"
            rc = cli.main(
                ["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep-key", "delta", "--values", "0.2,0.1,0.05"]
            )
            assert rc == 0
            outs.append(out)
        seq, par = outs
        _, rows = read_csv(seq / "sweep.csv")
        assert [r[1] for r in rows] == ["ok"] * 3
        names = sorted(p.name for p in seq.iterdir())
        assert names == sorted(p.name for p in par.iterdir())
        assert names == ["fields_delta_0.05.csv", "fields_delta_0.1.csv",
                         "fields_delta_0.2.csv", "sweep.csv"]
        for name in names:
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name

    @pytest.mark.parametrize("max_parallel", [1, 2])
    @pytest.mark.parametrize("key, setting, values", [
        ("delta", "potential.delta", "0.2,0.1,0.05"),
        ("eps", "solver.eps_schedule", "0.1,0.01,0.001"),
    ])
    def test_every_row_is_the_standalone_solve_of_its_value(self, tmp_path, max_parallel, key,
                                                            setting, values):
        """No value starts from another's solution: each field file is, byte
        for byte, ``solve``'s fields.csv for that value, and each sweep.csv
        row holds the text of that solve's report.txt."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FORCED_N64 + f"sweep.max_parallel = {max_parallel}\n")
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                       "--sweep-key", key, "--values", values])
        assert rc == 0
        header, rows = read_csv(out / "sweep.csv")
        for value, row in zip(values.split(","), rows):
            one = tmp_path / f"solve_{value}"
            (tmp_path / "one.cfg").write_text(FORCED_N64 + f"{setting} = {value}\n")
            assert cli.main(["solve", "--config", str(tmp_path / "one.cfg"), "--out", str(one)]) == 0
            fields_file = out / cli._fields_name(key, float(value))
            assert fields_file.read_bytes() == (one / "fields.csv").read_bytes(), value
            report = dict(line.split(" = ") for line in (one / "report.txt").read_text().splitlines())
            assert dict(zip(header[2:], row[2:])) == report, value

    @pytest.mark.parametrize("max_parallel", [1, 2])
    def test_max_picard_exhausted_fails_every_value(self, tmp_path, capsys, max_parallel):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FORCED_N64 + f"solver.max_picard = 1\nsweep.max_parallel = {max_parallel}\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "delta", "--values", "0.2,0.1"]
        )
        assert rc == 1
        _, rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows] == ["failed(NotConverged)"] * 2
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]
        assert "failed(NotConverged)" in capsys.readouterr().err

    def test_non_finite_iterate_fails_the_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FORCED_N64 + LADDER + HUGE_THETA)
        out = tmp_path / "out"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "delta", "--values", "0.1"]
        )
        assert rc == 1
        _, rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows] == ["failed(NonFiniteError)"]
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]
        assert "0.1: failed(NonFiniteError)" in capsys.readouterr().err

    def test_delta_sweep_outputs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SOLVE_CONFIG)
        out = tmp_path / "out"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "delta", "--values", "0.2,0.1"]
        )
        assert rc == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["delta", "status", *REPORT_COLUMNS]
        assert [r[1] for r in rows] == ["ok", "ok"]
        art = csv_column(out / "sweep.csv", "art_pressure_norm")
        assert art[0] > art[1]
        assert (out / "fields_delta_0.2.csv").exists()
        assert (out / "fields_delta_0.1.csv").exists()

    def test_parallel_sweep_matches_columns(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SOLVE_CONFIG + "sweep.max_parallel = 2\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "eps", "--values", "1e-1,1e-2"]
        )
        assert rc == 0
        header, rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows] == ["ok", "ok"]
        res = csv_column(out / "sweep.csv", "continuity_residual")
        assert res[0] > res[1] > 0.0

    def test_eps_sweep_outputs_same_on_both_paths(self, tmp_path):
        """An eps sweep names its first column and field files after eps, and
        writes the same bytes whether or not a pool runs the later values."""
        values = (0.1, 0.01, 0.001)
        outs = []
        for max_parallel in (1, 2):
            cfg = tmp_path / f"run{max_parallel}.cfg"
            cfg.write_text(FORCED_N64 + f"sweep.max_parallel = {max_parallel}\n")
            out = tmp_path / f"out{max_parallel}"
            rc = cli.main(
                ["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep-key", "eps", "--values", ",".join(map(str, values))]
            )
            assert rc == 0
            outs.append(out)
        seq, par = outs
        header, rows = read_csv(seq / "sweep.csv")
        assert header == ["eps", "status", *REPORT_COLUMNS]
        assert [r[:2] for r in rows] == [[f"{v:.12e}", "ok"] for v in values]
        names = sorted(p.name for p in seq.iterdir())
        assert names == ["fields_eps_0.001.csv", "fields_eps_0.01.csv",
                         "fields_eps_0.1.csv", "sweep.csv"]
        assert names == sorted(p.name for p in par.iterdir())
        for name in names:
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name

    @pytest.mark.parametrize("key", ["delta", "eps"])
    def test_one_value_builds_no_pool(self, tmp_path, monkeypatch, key):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a one-value sweep built a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FORCED_N64 + "sweep.max_parallel = 2\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--sweep-key", key, "--values", "0.1"]
        )
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [f"fields_{key}_0.1.csv", "sweep.csv"]

    def test_parallel_sweep_byte_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SOLVE_CONFIG + "sweep.max_parallel = 2\n")
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            rc = cli.main(
                ["sweep", "--config", str(cfg), "--out", str(out),
                 "--sweep-key", "delta", "--values", "0.2,0.1"]
            )
            assert rc == 0
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    def test_sweep_failure_flagged_in_status_column(self, tmp_path, monkeypatch):
        from chns1d import solver

        def blow_up(spec_base, key, value, controls):
            return "failed(DivergenceError)", None, None, None

        # the first value is solved in-process and the second through the
        # pool entry point; both reach solver._sweep_value
        monkeypatch.setattr(solver, "_sweep_value", blow_up)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep.max_parallel = 2\ndomain.n_cells = 64\n")
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialExecutor)
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "delta", "--values", "0.2,0.1"]
        )
        assert rc == 1
        header, rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows] == ["failed(DivergenceError)"] * 2
        assert rows[0][2] == "nan"


class TestCliCheck:
    def test_default_config_passes(self, tmp_path, capsys):
        # the fixed-point probe runs at eps 0.1, not at the schedule's first eps
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 64\n")
        rc = cli.main(["check", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in captured
        assert "checks passed" in captured
        row = next(line for line in captured.splitlines() if "constant_fixed_point" in line)
        assert row.endswith("at eps 0.1")

    def test_solver_error_is_a_fail_row(self, tmp_path, capsys):
        # the zero-forcing constant state converges in one step; the forced
        # suite does not
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 64\nsolver.max_picard = 1\n")
        rc = cli.main(["check", "--config", str(cfg)])
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert rc == 1
        assert len(failed) == 1
        assert failed[0].split()[1] == "solver.forced_solve"
        assert "solver raised NotConverged: stage sigma=1, eps=0.001" in failed[0]

    def test_low_theta0_checks_admitted_widths(self, tmp_path, capsys):
        # at theta0 = 0.5 the sign structure needs delta <= 0.006375, so the
        # potential checks run on the width 1e-3 alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "potential.theta0 = 0.5\ndomain.n_cells = 64\nsolver.eps_schedule = 1e-1,1e-2\n"
        )
        rc = cli.main(["check", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in captured
        sign_row = next(line for line in captured.splitlines() if "sign_beyond_cstar" in line)
        assert sign_row.endswith("widths 0.001")

    def test_no_admitted_width_fails_structure_checks(self, tmp_path, capsys):
        # at theta0 = 0.05 no width of the test grid keeps the sign structure
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "potential.theta0 = 0.05\ndomain.n_cells = 64\nsolver.eps_schedule = 1e-1,1e-2\n"
        )
        rc = cli.main(["check", "--config", str(cfg)])
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert rc == 1
        assert [line.split()[1] for line in failed] == [
            "potential.sign_beyond_cstar",
            "potential.convex_beyond_spinodal",
        ]
        assert all(line.endswith("keeps the structure") for line in failed)
