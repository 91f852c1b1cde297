import numpy as np
import pytest
from scipy.linalg import solve_banded

from chns1d.mesh import (
    DegenerateWeightError,
    Field,
    Grid,
    SolvabilityError,
    banded,
    bands,
    gradient,
    integrate,
    laplacian_apply,
    laplacian_solve,
    mean_shift,
)


def orders(errors):
    return [np.log2(a / b) for a, b in zip(errors, errors[1:])]


class TestGridField:
    def test_spacing(self):
        g = Grid(100, 2.0)
        assert g.spacing_h * g.n_cells == pytest.approx(g.length_L, rel=1e-15)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid(4, 1.0)

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(16, 0.0)

    def test_field_length_mismatch(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))

    def test_field_rejects_nan(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            Field(g, np.full(16, np.nan))


class TestGradient:
    def test_constant_is_flat(self):
        g = Grid(32, 1.0)
        assert np.array_equal(gradient(g.field(3.7), "neumann").values, np.zeros(32))

    def test_linear_interior(self):
        g = Grid(64, 1.0)
        f = g.field(2.5 * g.cell_centers())
        got = gradient(f, "neumann").values
        assert np.allclose(got[1:-1], 2.5, rtol=0, atol=1e-12)

    def test_neumann_order(self):
        errs = []
        for n in (32, 64, 128, 256):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            got = gradient(g.field(np.cos(np.pi * x)), "neumann").values
            errs.append(np.max(np.abs(got + np.pi * np.sin(np.pi * x))))
        assert min(orders(errs)) >= 1.9

    def test_dirichlet_order(self):
        errs = []
        for n in (32, 64, 128, 256):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            got = gradient(g.field(np.sin(np.pi * x)), "dirichlet0").values
            errs.append(np.max(np.abs(got - np.pi * np.cos(np.pi * x))))
        assert min(orders(errs)) >= 1.9

    def test_unknown_bc(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            gradient(g.field(1.0), "periodic")


class TestDivergenceIdentities:
    def test_zero_flux_conservation(self):
        g = Grid(128, 1.0)
        x = g.cell_centers()
        f = g.field(np.sin(np.pi * x) * (1.0 + x))
        total = integrate(gradient(f, "dirichlet0"))
        assert abs(total) <= 1e-12 * np.max(np.abs(f.values))

    def test_summation_by_parts(self):
        g = Grid(96, 1.0)
        x = g.cell_centers()
        f = g.field(np.sin(np.pi * x) * (2.0 - x))
        w = g.field(np.cos(np.pi * x) + x * x)
        lhs = integrate(Field(g, w.values * gradient(f, "dirichlet0").values))
        rhs = integrate(Field(g, f.values * gradient(w, "neumann").values))
        scale = np.max(np.abs(f.values)) * np.max(np.abs(w.values))
        assert abs(lhs + rhs) <= 1e-12 * scale


class TestBands:
    """The banded matrices are read off the matrix-free operators."""

    @pytest.mark.parametrize("n", [9, 10, 11])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet0"])
    @pytest.mark.parametrize("op", [gradient, laplacian_apply], ids=["gradient", "laplacian"])
    def test_bands_reproduce_operator(self, op, bc, n):
        g = Grid(n, 1.3)
        f = np.random.default_rng(n).standard_normal(n)
        diag, upper, lower = bands(op, g, bc)
        applied = diag * f
        applied[:-1] += upper * f[1:]
        applied[1:] += lower * f[:-1]
        want = op(Field(g, f), bc).values
        assert np.max(np.abs(applied - want)) <= 1e-12 * np.max(np.abs(want))

    def test_banded_storage_inverts_laplacian(self):
        g = Grid(10, 1.0)
        f = np.random.default_rng(1).standard_normal(10)
        lap = laplacian_apply(Field(g, f), "dirichlet0").values
        back = solve_banded((1, 1), banded(*bands(laplacian_apply, g, "dirichlet0")), lap)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestIntegrate:
    def test_constant(self):
        assert integrate(Grid(32, 2.0).field(1.0)) == pytest.approx(2.0, rel=1e-15)

    def test_linear_exact(self):
        g = Grid(100, 1.0)
        assert integrate(g.field(g.cell_centers())) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_second_order(self):
        errs = []
        for n in (50, 100, 200):
            g = Grid(n, 1.0)
            errs.append(abs(integrate(g.field(g.cell_centers() ** 2)) - 1.0 / 3.0))
        assert min(orders(errs)) >= 1.9


class TestMeanShift:
    def test_constant_target(self):
        g = Grid(32, 1.0)
        shifted = mean_shift(g.zeros(), 3.0, g.field(1.0))
        assert np.allclose(shifted.values, 3.0, rtol=0, atol=1e-14)

    def test_already_satisfied(self):
        g = Grid(32, 1.0)
        f = g.field(np.sin(g.cell_centers()))
        w = g.field(1.0 + 0.2 * g.cell_centers())
        target = integrate(Field(g, f.values * w.values))
        assert np.array_equal(mean_shift(f, target, w).values, f.values)

    def test_shift_linearity(self):
        g = Grid(64, 1.0)
        x = g.cell_centers()
        rho = g.field(1.0 + 0.3 * np.cos(np.pi * x))
        f = g.field(np.sin(2 * np.pi * x))
        m1 = integrate(rho)
        base = integrate(Field(g, rho.values * f.values))
        shifted = mean_shift(f, base + 0.7, rho)
        s = shifted.values[0] - f.values[0]
        assert s * m1 == pytest.approx(0.7, rel=1e-12)

    def test_degenerate_weight(self):
        g = Grid(32, 1.0)
        with pytest.raises(DegenerateWeightError):
            mean_shift(g.zeros(), 1.0, g.zeros())


class TestLaplacianSolve:
    def test_zero_rhs(self):
        g = Grid(32, 1.0)
        assert np.array_equal(laplacian_solve(g.zeros(), "neumann").values, np.zeros(32))

    def test_neumann_manufactured_order(self):
        errs = []
        for n in (32, 64, 128, 256):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            rhs = g.field(-np.pi**2 * np.cos(np.pi * x))
            got = laplacian_solve(rhs, "neumann").values
            exact = np.cos(np.pi * x)
            exact -= exact.mean()
            errs.append(np.max(np.abs(got - exact)))
        assert min(orders(errs)) >= 1.9

    def test_dirichlet_parabola(self):
        errs = []
        for n in (32, 64, 128, 256):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            got = laplacian_solve(g.field(1.0), "dirichlet0").values
            errs.append(np.max(np.abs(got - 0.5 * x * (x - 1.0))))
        assert min(orders(errs)) >= 1.9

    def test_exact_discrete_inverse(self):
        g = Grid(128, 1.0)
        x = g.cell_centers()
        rhs_vals = np.sin(3 * np.pi * x) * np.cos(np.pi * x)
        rhs_vals -= rhs_vals.mean()
        rhs = Field(g, rhs_vals)
        u = laplacian_solve(rhs, "neumann")
        back = laplacian_apply(u, "neumann").values
        assert np.max(np.abs(back - rhs_vals)) <= 1e-10 * max(np.max(np.abs(rhs_vals)), 1e-300)

    def test_solvability_error(self):
        g = Grid(32, 1.0)
        with pytest.raises(SolvabilityError):
            laplacian_solve(g.field(1.0), "neumann")

    def test_shifted_solve(self):
        # (shift - Lap) u = rhs with manufactured solution cos(pi x)
        errs = []
        shift = 2.0
        for n in (32, 64, 128):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            exact = np.cos(np.pi * x)
            rhs = g.field((shift + np.pi**2) * exact)
            got = laplacian_solve(rhs, "neumann", shift=shift).values
            errs.append(np.max(np.abs(got - exact)))
        assert min(orders(errs)) >= 1.9

    def test_negative_shift_rejected(self):
        g = Grid(32, 1.0)
        with pytest.raises(ValueError):
            laplacian_solve(g.zeros(), "neumann", shift=-1.0)

    def test_mean_zero_output(self):
        g = Grid(64, 1.0)
        x = g.cell_centers()
        rhs_vals = np.cos(2 * np.pi * x)
        u = laplacian_solve(Field(g, rhs_vals - rhs_vals.mean()), "neumann").values
        assert abs(u.mean()) <= 1e-13
