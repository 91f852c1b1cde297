import ctypes
import dataclasses
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from chns1d import mesh
from chns1d.mesh import (
    Field,
    Grid,
    NonFiniteError,
    SingularSystemError,
    bands,
    gradient,
    gradient_of,
    integral_of,
    integrate,
    laplacian_apply,
    laplacian_of,
    laplacian_solve,
)
from chns1d.solver import SOLVER_ERRORS
from conftest import LAPACK_BINDINGS, copies, use_binding


def orders(errors):
    return [np.log2(a / b) for a, b in zip(errors, errors[1:])]


class TestGridField:
    def test_spacing(self):
        g = Grid(100, 2.0)
        assert g.spacing_h * g.n_cells == pytest.approx(g.length_L, rel=1e-15)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid(4, 1.0)

    def test_integral_cell_count_is_stored_as_int(self):
        g = Grid(256.0, 1.0)
        assert type(g.n_cells) is int and g.zeros().values.shape == (256,)
        for bad in (256.5, "256", float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"^n_cells must be an integer >= 8, got "):
                Grid(bad, 1.0)

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(16, 0.0)

    def test_spacing_square_must_be_a_normal_float(self):
        """The stencils divide by h^2, so 0 (underflow) and inf (overflow) are
        rejected, as is a subnormal h^2; the extremes inside are accepted."""
        for n, length in ((256, 1e-300), (256, 1e300), (8, 1e-154), (8, 1.1e155)):
            with pytest.raises(ValueError, match=r"^length_L .* whose square is not a finite, "
                                                 r"positive, normal float$"):
                Grid(n, length)
        for n, length in ((8, 1.2e-153), (8, 1.07e155)):
            h = Grid(n, length).spacing_h
            assert np.isfinite(h**2) and h**2 > 0.0

    def test_field_length_mismatch(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))

    def test_field_rejects_nan(self):
        g = Grid(16, 1.0)
        with pytest.raises(NonFiniteError, match=r"\(16 of 16 are not\)"):
            Field(g, np.full(16, np.nan))
        assert issubclass(NonFiniteError, ValueError)


class TestRecord:
    """Grid and Field are frozen records (``chns1d.record.Record``): they
    behave as the frozen dataclasses they replace."""

    @pytest.mark.parametrize("change", [
        lambda g: setattr(g, "n_cells", 128),
        lambda g: delattr(g, "length_L"),
        lambda g: setattr(g, "extra", 1),
        lambda g: setattr(g.zeros(), "values", np.ones(64)),
        lambda g: delattr(g.zeros(), "grid"),
    ], ids=["assign", "delete", "add", "assign-field-values", "delete-field-grid"])
    def test_fields_cannot_change(self, change):
        g = Grid(64, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            change(g)
        assert (g.n_cells, g.length_L) == (64, 1.0) and "extra" not in vars(g)

    def test_equal_grids_share_a_hash(self):
        # so that mesh.bands finds one cache entry per grid (test_bands_probed_once_per_grid)
        a, b = Grid(64, 1.0), Grid(n_cells=64, length_L=1.0)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Grid(64, 2.0) and a != Grid(128, 1.0) and a != (64, 1.0)

    @pytest.mark.parametrize("record, text", [
        (Grid(64, 1.0), "Grid(n_cells=64, length_L=1.0)"),
        # the values are declared field(repr=False)
        (Field(Grid(16, 2.5), np.arange(16.0)), "Field(grid=Grid(n_cells=16, length_L=2.5))"),
    ], ids=["Grid", "Field"])
    def test_repr_is_the_dataclass_format(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("args, kwargs, message", [
        ((64,), {}, "Grid() missing required argument(s): 'length_L'"),
        ((), {"length_L": 1.0}, "Grid() missing required argument(s): 'n_cells'"),
        ((64, 1.0), {"h": 0.1}, "Grid() got an unexpected keyword argument 'h'"),
        ((64,), {"length_L": 1.0, "n_cells": 32}, "Grid() got multiple values for argument 'n_cells'"),
        ((64, 1.0, 0.1), {}, "Grid() takes 2 arguments but 3 were given"),
    ], ids=["missing", "missing-first", "unexpected", "repeated", "too-many"])
    def test_wrong_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Grid(*args, **kwargs)


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
        # the dirichlet0 bands, which the (rho, u) block's velocity rows hold,
        # solved as a banded matrix, invert the operator
        g = Grid(10, 1.0)
        f = np.random.default_rng(1).standard_normal(10)
        lap = laplacian_apply(Field(g, f), "dirichlet0").values
        diag, upper, lower = bands(laplacian_apply, g, "dirichlet0")
        back = solve_banded((1, 1), np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]]), lap)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_dirichlet_bands_solve_parabola(self):
        # u'' = 1 with u(0) = u(1) = 0 through the dirichlet0 bands is second
        # order in max norm: the wall rows the block's velocity rows use
        errs = []
        for n in (32, 64, 128, 256):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            diag, upper, lower = bands(laplacian_apply, g, "dirichlet0")
            got = solve_banded((1, 1), np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]]), np.ones(n))
            errs.append(np.max(np.abs(got - 0.5 * x * (x - 1.0))))
        assert min(orders(errs)) >= 1.9

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet0"])
    @pytest.mark.parametrize("op", [gradient, laplacian_apply], ids=["gradient", "laplacian"])
    def test_bands_probed_once_per_grid(self, op, bc):
        g = Grid(11, 1.3)
        first = bands(op, g, bc)
        again = bands(op, Grid(11, 1.3), bc)  # an equal grid hits the same entry
        fresh = bands.__wrapped__(op, g, bc)
        for a, b, c in zip(first, again, fresh):
            assert a is b
            assert not a.flags.writeable
            assert np.array_equal(a, c)
        with pytest.raises(ValueError, match="read-only"):
            first[0][0] = 1.0


class TestArrayKernels:
    """The Field API and the solver's array kernels are one stencil."""

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet0"])
    @pytest.mark.parametrize("op, kernel", [(gradient, gradient_of), (laplacian_apply, laplacian_of)],
                             ids=["gradient", "laplacian"])
    def test_field_api_applies_the_kernel(self, op, kernel, bc):
        g = Grid(37, 1.3)
        v = np.random.default_rng(5).standard_normal(37)
        assert np.array_equal(op(Field(g, v), bc).values, kernel(v, bc, g.spacing_h))
        assert integrate(Field(g, v)) == integral_of(v, g.spacing_h)

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet0"])
    @pytest.mark.parametrize("n", [8, 9, 256])
    def test_kernels_are_the_ghost_cell_formulas_bit_for_bit(self, n, bc):
        """The kernels build no ghost copy, yet equal the stencils on the
        extended values bit for bit, with a non-finite or overflowing value at
        a wall, beside one or inside, and both walls infinite."""
        h, sign = 1.0 / n, 1.0 if bc == "neumann" else -1.0
        rng = np.random.default_rng(n)
        rows = [rng.standard_normal(n)]
        for bad in (np.inf, -np.inf, np.nan, 1e308, -1e308):
            for i in (0, 1, n // 2, n - 2, n - 1):
                rows.append(rng.standard_normal(n))
                rows[-1][i] = bad
        rows.append(rng.standard_normal(n))
        rows[-1][[0, 1, -1]] = np.inf, np.nan, -np.inf
        for values in rows:
            ext = np.concatenate(([sign * values[0]], values, [sign * values[-1]]))
            with np.errstate(all="ignore"):
                grad = (ext[2:] - ext[:-2]) / (2.0 * h)
                lap = (ext[:-2] - 2.0 * values + ext[2:]) / h**2
                got = gradient_of(values, bc, h), laplacian_of(values, bc, h)
            assert got[0].tobytes() == grad.tobytes()
            assert got[1].tobytes() == lap.tobytes()

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet0"])
    @pytest.mark.parametrize("op", [gradient, laplacian_apply], ids=["gradient", "laplacian"])
    def test_bands_are_the_stencil_weights(self, op, bc):
        """The probed bands equal the written-out stencil, wall rows included."""
        n, g = 11, Grid(11, 1.3)
        h, wall = g.spacing_h, 1.0 if bc == "neumann" else -1.0  # the ghost cell's sign
        if op is gradient:
            diag = np.zeros(n)
            diag[0], diag[-1] = -wall / (2.0 * h), wall / (2.0 * h)
            off = (np.full(n - 1, 1.0 / (2.0 * h)), np.full(n - 1, -1.0 / (2.0 * h)))
        else:
            diag = np.full(n, -2.0 / h**2)
            diag[0] = diag[-1] = (wall - 2.0) / h**2
            off = (np.full(n - 1, 1.0 / h**2),) * 2
        for got, want in zip(bands(op, g, bc), (diag, *off)):
            assert np.array_equal(got, want)


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


class TestLaplacianSolve:
    def test_zero_rhs(self):
        g = Grid(32, 1.0)
        u, removed = laplacian_solve(np.zeros(32), g)
        assert np.array_equal(u, np.zeros(32)) and removed == 0.0

    def test_neumann_manufactured_order(self):
        errs = []
        for n in (32, 64, 128, 256):
            g = Grid(n, 1.0)
            x = g.cell_centers()
            got = laplacian_solve(-np.pi**2 * np.cos(np.pi * x), g)[0]
            exact = np.cos(np.pi * x)
            exact -= exact.mean()
            errs.append(np.max(np.abs(got - exact)))
        assert min(orders(errs)) >= 1.9

    def test_exact_discrete_inverse(self):
        """A right side with a mean is solved less its mean, and the removed
        integral |mean| L is returned with the solution."""
        g = Grid(128, 0.7)
        x = g.cell_centers()
        rhs_vals = np.sin(3 * np.pi * x) * np.cos(np.pi * x) + 0.3
        mean = rhs_vals.mean()
        u, removed = laplacian_solve(rhs_vals, g)
        back = laplacian_of(u, "neumann", g.spacing_h)
        assert np.max(np.abs(back - (rhs_vals - mean))) <= 1e-10 * np.max(np.abs(rhs_vals - mean))
        assert removed == pytest.approx(abs(mean) * 0.7, rel=1e-14)

    def test_constant_right_side_gives_zero_and_its_integral(self):
        g = Grid(32, 0.7)
        u, removed = laplacian_solve(np.full(32, -2.5), g)
        assert np.array_equal(u, np.zeros(32))
        assert removed == pytest.approx(2.5 * 0.7, rel=1e-15)

    @pytest.mark.parametrize("mean", [0.0, 1.0])
    def test_huge_right_side_solves_as_its_scaled_copy(self, mean):
        """A right side of order 1e200 squares past the float range; nothing
        in the solve may square it, so no warning escapes, and the solution
        and removed integral are the unit-size copy's, scaled."""
        g = Grid(64, 0.7)
        unit = mean + np.cos(np.pi * g.cell_centers() / 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, removed = laplacian_solve(1e200 * unit, g)
            ref = laplacian_solve(unit, g)[0]
        assert np.allclose(got, 1e200 * ref, rtol=1e-12, atol=0.0)
        assert removed == pytest.approx(1e200 * mean * 0.7, rel=1e-12, abs=1e200 * 1e-15)

    def test_nan_right_side_is_named(self):
        """The solve scans its solution once: a NaN in the right side reaches
        every entry of the solution, and the error names the solve."""
        g = Grid(32, 1.0)
        rhs = np.zeros(32)
        rhs[5] = np.nan
        with pytest.raises(NonFiniteError, match=r"^Neumann Laplacian solve: the solution is not "
                                                 r"finite in 32 of 32 entries$"):
            laplacian_solve(rhs, g)

    def test_mean_zero_output(self):
        g = Grid(64, 1.0)
        x = g.cell_centers()
        rhs_vals = np.cos(2 * np.pi * x)
        u = laplacian_solve(rhs_vals - rhs_vals.mean(), g)[0]
        assert abs(u.mean()) <= 1e-13

    # The prefix sums carry the roundoff of n terms: relative to max|u|, the
    # error of a white-noise solution stays below 1e-14 n (measured 9e-12 at
    # n = 4096; an LU solve of the same system meets this bound as well).
    @staticmethod
    def tol(n):
        return 1e-14 * n

    @staticmethod
    def white_noise(g, seed):
        """A mean-free random solution and its Laplacian."""
        u = np.random.default_rng(seed).standard_normal(g.n_cells)
        u -= u.mean()
        return u, laplacian_of(u, "neumann", g.spacing_h)

    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_round_trip_recovers_the_solution(self, n):
        g = Grid(n, 1.0)
        for seed in range(5):
            u, f = self.white_noise(g, seed)
            got = laplacian_solve(f, g)[0]
            assert np.max(np.abs(got - u)) <= self.tol(n) * np.max(np.abs(u))

    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_agrees_with_solve_banded(self, n):
        """The oracle solves the same banded matrix with its first row pinning
        u_0 = 0; both solutions are compared with zero mean."""
        g = Grid(n, 1.0)
        diag, upper, lower = bands(laplacian_apply, g, "neumann")
        ab = np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]])
        ab[1, 0], ab[0, 1] = 1.0, 0.0
        for seed in range(5):
            _, f = self.white_noise(g, seed)
            f = f - f.mean()
            want = solve_banded((1, 1), ab, np.r_[0.0, f[1:]])
            want -= want.mean()
            got = laplacian_solve(f, g)[0]
            assert np.max(np.abs(got - want)) <= self.tol(n) * np.max(np.abs(want))


@pytest.fixture(params=sorted(LAPACK_BINDINGS))
def binding(request, monkeypatch):
    """Each LAPACK binding in turn: numpy's own, where numpy exports the
    routines, and scipy's f2py wrappers, the fallback."""
    use_binding(monkeypatch, request.param)
    return request.param


def _tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.random(n - 1), 4.0 + rng.random(n), rng.random(n - 1)


def _banded(n, seed):
    """A kl = ku = 3 system in dgbsv's band storage, fill-in rows empty."""
    rng = np.random.default_rng(seed)
    ab = np.zeros((10, n), order="F")
    ab[3:] = rng.random((7, n))
    ab[6] += 8.0
    return ab, rng.random(n)


class TestLapackCall:
    def test_solution_returned_and_checks_named(self, binding):
        d, off = np.full(4, 4.0), np.ones(3)
        a = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
        b = np.ones(4)
        x = mesh.solve_tridiagonal("demo", *copies(off, d, off), b)
        assert x is b  # the array LAPACK wrote
        assert np.allclose(a @ x, 1.0, rtol=0, atol=1e-15)
        with pytest.raises(NonFiniteError, match="demo"):
            mesh.solve_tridiagonal("demo", *copies(off, d, off), np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(NonFiniteError, match="demo"):
            mesh.solve_tridiagonal("demo", *copies(off), np.array([4.0, np.inf, 4.0, 4.0]),
                                   *copies(off), np.ones(4))
        with pytest.raises(SingularSystemError, match=r"demo: the matrix is singular \(LAPACK info 1\)"):
            mesh.solve_tridiagonal("demo", np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4))

    def test_non_finite_solution_is_named(self, binding):
        """A finite diagonal system whose first unknown overflows (1e300 / 1e-300)
        raises NonFiniteError naming the solve and counting the entries.  Back
        substitution reaches that unknown last, so no 0 * inf spreads a NaN."""
        b = np.ones(8)
        b[0] = 1e300
        with pytest.raises(NonFiniteError, match=r"^demo: the solution is not finite in 1 of 8 "
                                                 r"entries$"):
            mesh.solve_tridiagonal("demo", np.zeros(7), np.full(8, 1e-300), *copies(np.zeros(7), b))
        ab = np.zeros((10, 8), order="F")
        ab[6] = 1e-300  # the diagonal alone
        with pytest.raises(NonFiniteError, match=r"^demo: the solution is not finite in 1 of 8 "
                                                 r"entries$"):
            mesh.solve_banded("demo", 3, 3, ab, b)

    def test_singular_band_system_is_named(self, binding):
        ab, b = _banded(8, 0)
        ab[3:, 2] = 0.0  # an empty column
        with pytest.raises(SingularSystemError, match=r"demo: the matrix is singular \(LAPACK info 3\)"):
            mesh.solve_banded("demo", 3, 3, ab, b)

    def test_illegal_argument_is_a_calling_bug_not_a_singular_matrix(self, monkeypatch):
        """A negative info is LAPACK's report that argument -info was illegal:
        a ValueError naming the solve and the position, which no solver
        failure handler catches."""
        for binding in sorted(LAPACK_BINDINGS):
            gtsv = LAPACK_BINDINGS[binding][0]

            def stub(*args):
                return gtsv(*args)[0], -3

            monkeypatch.setattr(mesh, "_gtsv", stub)
            with pytest.raises(ValueError, match=r"demo: LAPACK argument 3 had an illegal value") as info:
                mesh.solve_tridiagonal("demo", *_tridiagonal(8, 0), np.ones(8))
            assert not isinstance(info.value, SOLVER_ERRORS), binding

    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_solutions_match_solve_banded(self, binding, n):
        dl, d, du = _tridiagonal(n, n)
        b = np.random.default_rng(n + 1).random(n)
        want = solve_banded((1, 1), np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]]), b)
        got = mesh.solve_tridiagonal("demo", *copies(dl, d, du, b))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        ab, _ = _banded(n, n + 2)
        want = solve_banded((3, 3), ab[3:], b)
        got = mesh.solve_banded("demo", 3, 3, *copies(ab, b))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_arguments_lapack_cannot_write_are_rejected_unwritten(self, binding):
        """A read-only array (a cached band) or a C-ordered band storage raises
        the same ValueError on either binding, before anything is written."""
        diag, upper, lower = bands(laplacian_apply, Grid(16, 1.0), "dirichlet0")
        b = np.ones(16)
        with pytest.raises(ValueError, match=r"demo: LAPACK argument lower must be a writeable, "
                                             r"Fortran-ordered float64 array of shape \(15,\), "
                                             r"got float64 \(15,\), read-only"):
            mesh.solve_tridiagonal("demo", lower, *copies(diag, upper), b)
        assert np.array_equal(b, np.ones(16))
        ab, b = _banded(8, 0)
        c_ab, kept = np.ascontiguousarray(ab), copies(ab, b)
        with pytest.raises(ValueError, match=r"demo: LAPACK argument ab must be .* shape "
                                             r"\(10, 8\), got float64 \(10, 8\), not Fortran-ordered"):
            mesh.solve_banded("demo", 3, 3, c_ab, b)
        assert np.array_equal(c_ab, kept[0]) and np.array_equal(b, kept[1])


@pytest.mark.skipif("numpy" not in LAPACK_BINDINGS,
                    reason="numpy exports no ILP64 LAPACK on this platform")
class TestNumpyBinding:
    """The ctypes adapters over numpy's LAPACK solve as scipy's f2py wrappers do."""

    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_every_routine_matches_f2py_bit_for_bit(self, n, monkeypatch):
        dl, d, du = _tridiagonal(n, n)
        b = np.random.default_rng(n + 1).random(n)
        ab, _ = _banded(n, n + 2)
        x = {}
        for name in ("numpy", "flapack"):
            use_binding(monkeypatch, name)
            x[name] = (mesh.solve_tridiagonal("demo", *copies(dl, d, du, b)),
                       mesh.solve_banded("demo", 3, 3, *copies(ab, b)))
        for ours, theirs in zip(x["numpy"], x["flapack"]):
            assert ours.shape == theirs.shape and np.array_equal(ours, theirs)

    def test_read_only_arrays_are_never_written(self, monkeypatch):
        """A read-only array (a cached band, say) is rejected, not written."""
        use_binding(monkeypatch, "numpy")
        diag, upper, lower = bands(laplacian_apply, Grid(16, 1.0), "dirichlet0")
        kept = copies(diag, upper, lower)
        with pytest.raises(ValueError, match="LAPACK argument diag must be .* read-only"):
            mesh.solve_tridiagonal("demo", lower.copy(), diag, upper.copy(), np.ones(16))
        assert all(np.array_equal(a, k) for a, k in zip((diag, upper, lower), kept))

    def test_wrong_arguments_never_reach_lapack(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("LAPACK was called")

        monkeypatch.setattr(mesh, "_gtsv", unreachable)
        monkeypatch.setattr(mesh, "_gbsv", unreachable)
        dl, d, du = _tridiagonal(8, 0)
        with pytest.raises(ValueError, match=r"argument lower must be .* \(7,\), got float64 \(6,\)"):
            mesh.solve_tridiagonal("demo", dl[1:], d, du, np.ones(8))
        with pytest.raises(ValueError, match=r"argument b must be .* \(8,\), got float64 \(9,\)"):
            mesh.solve_tridiagonal("demo", dl, d, du, np.ones(9))
        with pytest.raises(ValueError, match=r"argument diag must be .* got float32 \(8,\)"):
            mesh.solve_tridiagonal("demo", dl, d.astype(np.float32), du, np.ones(8))
        with pytest.raises(ValueError, match="argument b must be .* got list"):
            mesh.solve_tridiagonal("demo", dl, d, du, [1.0] * 8)
        with pytest.raises(ValueError, match=r"argument upper must be .* \(7,\), not Fortran-ordered"):
            mesh.solve_tridiagonal("demo", dl, d, np.ones(14)[::2], np.ones(8))
        ab, b = _banded(8, 0)
        with pytest.raises(ValueError, match=r"argument ab must be .* \(10, 8\), got float64 \(9, 8\)"):
            mesh.solve_banded("demo", 3, 3, ab[1:], b)
        with pytest.raises(ValueError, match=r"argument ab must be .* \(10, 8\), not Fortran-ordered"):
            mesh.solve_banded("demo", 3, 3, np.ascontiguousarray(ab), b)

    def test_lookup_falls_back_to_the_numpy_1_spelling(self, monkeypatch):
        real = ctypes.CDLL

        class Numpy1(real):
            """numpy's library as a 1.x wheel names it: dgtsv_64_, no scipy_ prefix."""

            def __getattr__(self, name):
                if name.startswith("scipy_"):
                    raise AttributeError(name)
                return super().__getattr__("scipy_" + name)

        monkeypatch.setattr(ctypes, "CDLL", Numpy1)
        routines = mesh._numpy_lapack()
        assert routines.dgtsv.__name__ == "scipy_dgtsv_64_"

    def test_no_ilp64_export_means_the_fallback(self, monkeypatch):
        class NoSymbols(ctypes.CDLL):
            def __getattr__(self, name):
                raise AttributeError(name)

        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        assert mesh._numpy_lapack() is None
