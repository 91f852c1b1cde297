import numpy as np
import pytest

from chns1d import cli
from chns1d.config import ConfigError, parse_config_text


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


def csv_column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


class TestConfigParsing:
    def test_empty_config_is_valid(self):
        cfg = parse_config_text("")
        assert cfg.spec.grid.n_cells == 256
        assert cfg.controls.sigma_schedule == (0.25, 0.5, 0.75, 1.0)

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


SOLVE_CONFIG = """
domain.n_cells = 96
forcing.g1.kind = sin
forcing.g1.amplitude = 0.1
forcing.g2.kind = cos
forcing.g2.amplitude = 0.05
solver.eps_schedule = 1e-1,1e-2
"""


class TestCliPotential:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["potential", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["potential", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "potential.csv").read_bytes() == (out2 / "potential.csv").read_bytes()
        assert (out1 / "constants.txt").read_bytes() == (out2 / "constants.txt").read_bytes()

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


class TestCliSolve:
    def test_zero_forcing_fields_constant(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 64\nsolver.eps_schedule = 1e-2\n")
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
        assert len(rows) >= 4

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
        assert err.startswith("solve failed: NotConverged: stage sigma=0.25, eps=0.1 ended at residual ")
        assert "after 1 iterations" in err
        assert not (tmp_path / "o").exists()


FORCED_N64 = "domain.n_cells = 64\nforcing.g1.kind = sin\nforcing.g1.amplitude = 0.05\n"


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
        assert header[:2] == ["delta", "status"]
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

        def blow_up(spec_base, key, value, controls, warm):
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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.n_cells = 64\nsolver.eps_schedule = 1e-1,1e-2\n")
        rc = cli.main(["check", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in captured
        assert "checks passed" in captured

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
        assert "solver raised NotConverged: stage sigma=0.25, eps=0.1" in failed[0]

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
