"""Acceptance suite: one test per criterion, each printing its pass line.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion.  The criteria check the regularized-potential structure, the
qualitative potential table, the solver's exactness/conservation properties,
the dissipation inequality, manufactured-solution convergence orders, the
two regularization-limit trends, and bit-level determinism of sweep output.
"""

import numpy as np
import pytest

from _mms import build_manufactured, observed_orders
from chns1d import cli, diagnostics
from chns1d.mesh import Grid
from chns1d.potential import (
    DELTA_TEST_GRID,
    PotentialParams,
    constants,
    dF_delta,
    f2_delta,
    f2_delta_prime,
    f2_delta_prime2,
    junction_gaps,
    structure_holds,
)
from chns1d.solver import (
    SolveControls,
    constant_state,
    continuation_solve,
    eps_sweep,
    lagged,
    solve_c,
    solve_continuity,
    solve_flow_coupled,
    solve_mu,
)
from conftest import make_forced_spec

# logs of every continuation run executed by this suite, for criterion 5
MASS_LOGS: list[tuple[str, object, float]] = []


SWEEP_CONFIG = """
domain.n_cells = 128
forcing.g1.kind = sin
forcing.g1.amplitude = 0.1
forcing.g2.kind = cos
forcing.g2.amplitude = 0.05
"""


def read_columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[cell for cell in line.split(",")] for line in lines[1:]], dtype=object)
    return {name: data[:, i] for i, name in enumerate(header)}


def float_column(cols, name):
    return np.array([float(v) for v in cols[name]])


@pytest.fixture(scope="module")
def delta_sweep_runs(tmp_path_factory):
    """Criterion 8's sweep, executed twice for the determinism criterion."""
    base = tmp_path_factory.mktemp("sweep")
    cfg = base / "run.cfg"
    cfg.write_text(SWEEP_CONFIG)
    dirs = (base / "first", base / "second")
    for out in dirs:
        rc = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--sweep-key", "delta", "--values", "0.2,0.1,0.05,0.02,0.01"]
        )
        assert rc == 0
    return dirs


def test_criterion_01_potential_c2_junctions():
    worst = 0.0
    for delta in DELTA_TEST_GRID:
        p = PotentialParams(1.0, 1.5, delta)
        for knot, order, left, right in junction_gaps(p):
            gap = abs(left - right) / max(1.0, abs(left), abs(right))
            worst = max(worst, gap)
            assert gap <= 1e-9, (delta, knot, order)
        # mirrored knots carry the same one-sided values by symmetry
        for knot in (1.0 - delta, 1.0, 1.0 + delta):
            for fn in (f2_delta, f2_delta_prime, f2_delta_prime2):
                lo, hi = fn(-knot, p), fn(knot, p)
                assert abs(abs(lo) - abs(hi)) == 0.0
    print(f"ACCEPTANCE 01 PASS: C2 junctions, max relative gap {worst:.2e}")


def test_criterion_02_figure_table(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("")  # defaults are the documented figure parameters
    out = tmp_path / "out"
    assert cli.main(["potential", "--config", str(cfg), "--out", str(out)]) == 0
    cols = read_columns(out / "potential.csv")
    c = float_column(cols, "c")

    well = float_column(cols, "f2d_minus_quad")
    minima = c[1:-1][(well[1:-1] < well[:-2]) & (well[1:-1] < well[2:])]
    assert len(minima) == 2
    assert np.all(np.abs(minima) < 1.0)

    curv = float_column(cols, "f2d_pp_minus")
    assert np.all(curv[np.abs(c) > 1.1] == 0.0)

    # the slope column changes sign once per half-axis, inside [-c*, c*],
    # and keeps a fixed sign beyond; dF(c*) ~= 0.1416 > 0 (c* = 0.905 lies on
    # the plateau piece past 1 - delta), so the crossing sits strictly below
    # c* rather than at it
    c_star = constants(PotentialParams(1.0, 1.5, 0.1)).c_star
    slope = float_column(cols, "f2d_p_minus")
    crossings = c[:-1][slope[:-1] * slope[1:] < 0.0]
    assert len(crossings) == 2
    assert crossings[0] == pytest.approx(-crossings[1] - (c[1] - c[0]), abs=1e-12)
    assert np.all(np.abs(crossings) < c_star)
    beyond = np.abs(c) > c_star
    assert np.all(slope[beyond] * c[beyond] > 0.0)
    wells = ", ".join(f"{m:+.3f}" for m in sorted(minima))
    print(f"ACCEPTANCE 02 PASS: figure table, wells at {wells}")


def test_criterion_03_sign_and_convexity_properties():
    """Sign and convexity structure over the full width grid {0.5, 0.1, 0.01, 1e-3}.

    The structure (dF*c > 0 beyond c_star, f2'' >= thetac beyond the
    spinodal) holds only for small regularization widths; structure_holds
    names them.  At theta0 = 1, thetac = 3/2 the sign first fails at c_star
    for delta > 0.22570, the constant tail value 3 theta0/(2(2-delta)) +
    (theta0/2) ln((2-delta)/delta) - thetac (1 + delta/2) turns negative for
    delta > 0.31142, and the plateau curvature theta0/(delta(2-delta)) clears
    thetac only for delta <= 1 - spinodal = 0.42265.  So the structure is
    asserted at 0.1, 0.01 and 1e-3, and its failure is pinned at 0.5.  The
    bound of |dF| inside c_star holds at every width.
    """
    grid = np.linspace(-5.0, 5.0, 10_000)
    c_star = constants(PotentialParams(1.0, 1.5, 0.1)).c_star
    spin = constants(PotentialParams(1.0, 1.5, 0.1)).spinodal
    sup_inner = 0.0
    admitted = []
    for delta in DELTA_TEST_GRID:
        p = PotentialParams(1.0, 1.5, delta)
        inner = np.linspace(-c_star, c_star, 10_000)
        sup_inner = max(sup_inner, float(np.max(np.abs(dF_delta(inner, p)))))
        if not structure_holds(p):
            # the counterexample: sign lost at c_star and in the tail, and
            # the plateau curvature 1/(0.5 * 1.5) = 4/3 below thetac
            assert delta == 0.5
            assert dF_delta(5.0, p) == pytest.approx(1.0 + 0.5 * np.log(3.0) - 15.0 / 8.0,
                                                     rel=1e-12)
            assert dF_delta(c_star, p) < 0.0
            plateau = f2_delta_prime2(1.0, p)
            assert plateau == pytest.approx(4.0 / 3.0, rel=1e-14)
            assert plateau < p.thetac
            continue
        admitted.append(delta)
        outer = grid[np.abs(grid) > c_star]
        assert np.all(dF_delta(outer, p) * outer > 0.0), (
            f"sign property fails at delta={delta}: tail slope {dF_delta(5.0, p):+.4f}"
        )
        band = np.linspace(spin, 1.0 + delta, 10_000)
        assert np.min(f2_delta_prime2(band, p) - p.thetac) >= -1e-12, (
            f"convexity fails at delta={delta}: plateau curvature "
            f"{1.0 / (delta * (2 - delta)):.4f} < thetac"
        )
    assert admitted == [0.1, 0.01, 1e-3]
    assert sup_inner <= 2.0  # one delta-independent constant
    print(f"ACCEPTANCE 03 PASS: sign/convexity at delta {admitted}, fails at 0.5 as pinned, "
          f"sup|dF| inside = {sup_inner:.4f}")


def test_criterion_04_constant_state_exactness(pot, fluid):
    from chns1d.solver import ProblemSpec

    spec = ProblemSpec(Grid(256, 1.0), pot, fluid, m1=1.0, m2=0.3, eps=1e-2)
    controls = SolveControls(eps_schedule=(1e-2,))
    state, log = continuation_solve(spec, controls)
    MASS_LOGS.append(("criterion04", log, spec.m1))
    mu0 = dF_delta(0.3, pot)
    dev = max(
        float(np.max(np.abs(state.rho.values - spec.rho0))) / spec.rho0,
        float(np.max(np.abs(state.u.values))),
        float(np.max(np.abs(state.mu.values - mu0))) / abs(mu0),
        float(np.max(np.abs(state.c.values - 0.3))) / 0.3,
    )
    assert dev <= 1e-8
    print(f"ACCEPTANCE 04 PASS: constant state, max relative deviation {dev:.2e}")


def test_criterion_06_energy_inequality(pot, fluid):
    worst_ratio = np.inf
    for n in (128, 256, 512):
        spec = make_forced_spec(n, pot, fluid, g1_amp=0.1, g2_amp=0.05)
        state, log = continuation_solve(spec, SolveControls())
        MASS_LOGS.append((f"criterion06_n{n}", log, spec.m1))
        _, _, slack = diagnostics.energy_inequality(state, spec)
        floor = -diagnostics.EI_SLACK_CONSTANT * spec.grid.spacing_h**2
        assert slack >= floor, (n, slack, floor)
        worst_ratio = min(worst_ratio, slack / abs(floor))
    print(f"ACCEPTANCE 06 PASS: energy inequality, min slack/|floor| = {worst_ratio:.2e}")


def test_criterion_07_manufactured_convergence():
    mms = build_manufactured(eps=0.1)

    errs = []
    for n in (256, 512, 1024, 2048):
        g = Grid(n, 1.0)
        rho = solve_continuity(mms.u(g.cell_centers()), mms.eps, mms.spec(g))
        errs.append(np.max(np.abs(rho - mms.rho(g.cell_centers()))))
    rho_orders = observed_orders(errs)
    assert min(rho_orders) >= 0.9

    # the momentum equation is solved only in the (rho, u) block, checked at
    # constant density, where the upwind flux is exact to O(h^2)
    flat = build_manufactured(eps=0.1, rho_amp=0.0)
    def on_arrays(sub_solve, st, sp):
        q = st.rho.values, st.u.values, st.mu.values, st.c.values
        return sub_solve(*q, lagged(q[0], q[3], sp), mms.eps, sp)

    field_orders = {}
    for label, mf, name, op in (
        ("block u", flat, "u", lambda st, sp: on_arrays(solve_flow_coupled, st, sp)[1]),
        ("block rho", flat, "rho", lambda st, sp: on_arrays(solve_flow_coupled, st, sp)[0]),
        ("mu", mms, "mu", lambda st, sp: on_arrays(solve_mu, st, sp)[0]),
        ("c", mms, "c", lambda st, sp: on_arrays(solve_c, st, sp)[0]),
    ):
        errs = []
        exact = getattr(mf, name)
        for n in (64, 128, 256, 512):
            g = Grid(n, 1.0)
            got = op(mf.state(g), mf.spec(g))
            errs.append(np.max(np.abs(got - exact(g.cell_centers()))))
        field_orders[label] = observed_orders(errs)
        assert min(field_orders[label]) >= 1.9, (label, field_orders[label])
    assert max(field_orders["block u"] + field_orders["block rho"]) <= 2.1, field_orders
    print(
        "ACCEPTANCE 07 PASS: MMS orders rho "
        f"{['%.2f' % o for o in rho_orders]}, "
        + ", ".join(f"{k} {['%.2f' % o for o in v]}" for k, v in field_orders.items())
    )


def test_criterion_08_delta_limit_trends(delta_sweep_runs):
    cols = read_columns(delta_sweep_runs[0] / "sweep.csv")
    assert list(cols["status"]) == ["ok"] * 5

    art = float_column(cols, "art_pressure_norm")
    assert np.all(np.diff(art) < 0.0)

    # one fitted width-independent constant bounds the monitored norms; every
    # column must stay within 10% of that constant across the sweep
    monitored = {name: float_column(cols, name) for name in ("lp_gamma", "grad_u", "grad_mu")}
    c_fit = max(float(np.max(v)) for v in monitored.values())
    assert np.isfinite(c_fit) and c_fit > 0.0
    for name, vals in monitored.items():
        assert float(np.max(vals)) <= c_fit
        assert float(np.max(vals)) - float(np.min(vals)) <= 0.1 * c_fit, name

    bv = float_column(cols, "bound_violation")
    assert np.all(np.diff(bv) <= 0.0)
    assert bv[-1] <= 1e-3 * 1.0

    mass = float_column(cols, "mass1")
    assert np.max(np.abs(mass - 1.0)) <= 1e-12
    print(f"ACCEPTANCE 08 PASS: delta trends, art norm {art[0]:.3f} -> {art[-1]:.3f}")


def test_criterion_09_eps_limit_trend(pot, fluid):
    spec = make_forced_spec(128, pot, fluid, g1_amp=0.1, g2_amp=0.05)
    values = (1e-1, 1e-2, 1e-3)
    rows = eps_sweep(spec, values, SolveControls())
    assert [status for status, *_ in rows] == ["ok"] * 3
    for name, (_, _, _, log) in zip(("eps1", "eps2", "eps3"), rows):
        MASS_LOGS.append((f"criterion09_{name}", log, spec.m1))
    res = [report.continuity_residual for _, report, _, _ in rows]
    orders = [
        np.log(res[i] / res[i + 1]) / np.log(values[i] / values[i + 1])
        for i in range(2)
    ]
    assert all(1.8 <= o <= 2.2 for o in orders), orders
    print(f"ACCEPTANCE 09 PASS: eps trend orders {['%.3f' % o for o in orders]}")


def test_criterion_10_determinism(delta_sweep_runs):
    first, second = delta_sweep_runs
    b1 = (first / "sweep.csv").read_bytes()
    b2 = (second / "sweep.csv").read_bytes()
    assert b1 == b2
    print(f"ACCEPTANCE 10 PASS: byte-identical sweep.csv ({len(b1)} bytes)")


def test_criterion_05_mass_conservation(pot, fluid):
    # every continuation run recorded above, plus a dedicated forced run
    if not any(name.startswith("criterion") for name, _, _ in MASS_LOGS):
        spec = make_forced_spec(128, pot, fluid)
        _, log = continuation_solve(spec, SolveControls())
        MASS_LOGS.append(("standalone", log, spec.m1))
    worst = 0.0
    for name, log, m1 in MASS_LOGS:
        err = log.max_mass_error() / m1
        worst = max(worst, err)
        assert err <= 1e-12, name
    print(f"ACCEPTANCE 05 PASS: mass exact at every iterate, worst {worst:.2e}")
