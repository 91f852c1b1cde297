import numpy as np
import pytest

from chns1d import potential, solver
from chns1d.potential import (
    DELTA_TEST_GRID,
    DomainError,
    PotentialParams,
    F_delta,
    dF_delta,
    f2_delta,
    f2_delta_prime,
    f2_delta_prime2,
    f2_singular,
    figure1_table,
    guarded_power,
    guarded_powers,
    pressure,
    pressure_slope,
    constants,
    junction_gaps,
    structure_holds,
)


# densities for the guarded powers: vacuum cells, none, near the ceiling
# RHO_MAX_DEFAULT (where rho^11 is 1e66), a vacuum scalar, a positive one
DENSITIES = [np.array([0.0, 0.5, 1.7, 0.0, 3.2]), np.array([0.3, 1.0, 2.5]),
             np.array([0.0, 1.0, 9.99e5, potential.RHO_MAX_DEFAULT]), 0.0, 1.3]
DENSITY_IDS = ["vacuum-cells", "positive", "near-ceiling", "vacuum", "scalar"]

# test widths that keep the sign/convexity structure at theta0 = 1, thetac = 3/2
ADMITTED = tuple(d for d in DELTA_TEST_GRID if structure_holds(PotentialParams(1.0, 1.5, d)))


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestSingularCore:
    def test_zero(self, pot):
        assert f2_singular(0.0, pot) == 0.0

    def test_frozen_value(self, pot):
        # oracle: 30-digit evaluation of (1/2)(1.9 ln 1.9 + 0.1 ln 0.1)
        assert f2_singular(0.9, pot) == pytest.approx(0.49463193721407275, rel=1e-14)

    def test_even(self, pot):
        cs = np.linspace(-0.99, 0.99, 397)
        assert np.array_equal(f2_singular(cs, pot), f2_singular(-cs, pot))

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -2.0])
    def test_domain_error(self, pot, bad):
        with pytest.raises(DomainError):
            f2_singular(bad, pot)


class TestRegularizedExtension:
    def test_agrees_with_core_inside(self, pot):
        cs = np.linspace(-0.9, 0.9, 721)
        assert np.array_equal(f2_delta(cs, pot), f2_singular(cs, pot))

    def test_agreement_window_scales_with_delta(self):
        p = PotentialParams(delta=0.02)
        cs = np.linspace(-0.98, 0.98, 393)
        assert np.array_equal(f2_delta(cs, p), f2_singular(cs, p))

    def test_frozen_value_at_one(self, pot):
        # oracle: quadratic piece at its right endpoint, 30-digit arithmetic
        assert f2_delta(1.0, pot) == pytest.approx(0.66816967564607899, rel=1e-14)

    def test_even_everywhere(self, pot):
        cs = np.linspace(-3.0, 3.0, 1201)
        assert np.array_equal(f2_delta(cs, pot), f2_delta(-cs, pot))

    def test_scalar_returns_float(self, pot):
        assert isinstance(f2_delta(0.3, pot), float)

    @pytest.mark.parametrize("fn", [f2_delta, f2_delta_prime, f2_delta_prime2, F_delta, dF_delta])
    def test_nan_maps_to_nan(self, pot, fn):
        """NaN selects no piece; it must come back as NaN, not as stale memory."""
        finite = np.array([0.3, 0.95, 1.05, 1.5])
        mixed = np.insert(finite, [1, 2, 3, 4], np.nan)
        out = fn(mixed, pot)
        assert np.all(np.isnan(out[1::2]))
        assert np.array_equal(out[0::2], fn(finite, pot))
        assert np.isnan(fn(float("nan"), pot))


class TestDerivatives:
    def test_prime_zero_at_origin(self, pot):
        assert f2_delta_prime(0.0, pot) == 0.0

    def test_prime_frozen_value(self, pot):
        # oracle: affine tail formula at c=2, 30-digit arithmetic
        assert f2_delta_prime(2.0, pot) == pytest.approx(3.6866931737937465, rel=1e-14)

    def test_prime_odd(self, pot):
        cs = np.linspace(-2.5, 2.5, 999)
        assert np.array_equal(f2_delta_prime(cs, pot), -f2_delta_prime(-cs, pot))

    def test_prime2_at_origin(self, pot):
        assert f2_delta_prime2(0.0, pot) == pytest.approx(1.0, rel=1e-15)

    def test_prime2_tail_constant(self, pot):
        assert f2_delta_prime2(3.0, pot) == 1.5
        assert f2_delta_prime2(-42.0, pot) == 1.5
        assert f2_delta_prime2(np.inf, pot) == 1.5

    def test_prime2_even(self, pot):
        cs = np.linspace(-2.0, 2.0, 801)
        assert np.array_equal(f2_delta_prime2(cs, pot), f2_delta_prime2(-cs, pot))

    @pytest.mark.parametrize("delta", DELTA_TEST_GRID)
    def test_c2_junctions(self, delta):
        p = PotentialParams(1.0, 1.5, delta)
        for knot, order, left, right in junction_gaps(p):
            assert rel_gap(left, right) <= 1e-9, (delta, knot, order)

    def test_knot_uses_left_piece(self, pot):
        # the value at 1 - delta comes from the singular core exactly
        assert f2_delta(0.9, pot) == f2_singular(0.9, pot)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.01])
    def test_finite_difference_consistency(self, delta):
        p = PotentialParams(1.0, 1.5, delta)
        # sample away from the knots so the stencil never straddles one
        cs = np.linspace(0.05, 0.8 * (1.0 - delta), 41)
        errs = []
        for h in (1e-3, 5e-4):
            fd = (f2_delta(cs + h, p) - f2_delta(cs - h, p)) / (2 * h)
            errs.append(np.max(np.abs(fd - f2_delta_prime(cs, p))))
            fd2 = (f2_delta_prime(cs + h, p) - f2_delta_prime(cs - h, p)) / (2 * h)
            errs.append(np.max(np.abs(fd2 - f2_delta_prime2(cs, p))))
        order1 = np.log2(errs[0] / errs[2])
        order2 = np.log2(errs[1] / errs[3])
        assert order1 >= 1.9 and order2 >= 1.9

    @pytest.mark.parametrize("delta", DELTA_TEST_GRID)
    @pytest.mark.parametrize("piece", ["plateau", "ramp", "tail"])
    def test_finite_difference_inside_pieces(self, delta, piece):
        p = PotentialParams(1.0, 1.5, delta)
        lo, hi = {"plateau": (1.0 - delta, 1.0), "ramp": (1.0, 1.0 + delta),
                  "tail": (1.0 + delta, 3.0)}[piece]
        # interior samples of the piece; the stencil stays clear of its knots
        cs = lo + (hi - lo) * np.linspace(0.1, 0.9, 17)
        h = 1e-3 * (hi - lo)
        fd1 = (f2_delta(cs + h, p) - f2_delta(cs - h, p)) / (2 * h)
        fd2 = (f2_delta_prime(cs + h, p) - f2_delta_prime(cs - h, p)) / (2 * h)
        exact1, exact2 = f2_delta_prime(cs, p), f2_delta_prime2(cs, p)
        assert np.max(np.abs(fd1 - exact1) / np.abs(exact1)) <= 1e-6
        assert np.max(np.abs(fd2 - exact2) / np.abs(exact2)) <= 1e-6


class TestEffectivePotential:
    def test_dF_zero_at_origin(self, pot):
        assert dF_delta(0.0, pot) == 0.0

    def test_dF_constant_beyond_tail(self, pot):
        vals = dF_delta(np.array([1.2, 2.0, 5.0, 40.0]), pot)
        assert np.allclose(vals, vals[0], rtol=0, atol=1e-12)

    # the sign structure is a small-width property: for theta0=1, thetac=1.5
    # dF(c_star) turns negative once delta exceeds 0.2257 (the tail slope
    # follows beyond 0.3114)
    @pytest.mark.parametrize("delta", ADMITTED)
    def test_sign_beyond_cstar(self, delta):
        p = PotentialParams(1.0, 1.5, delta)
        cs = constants(p).c_star
        grid = np.concatenate([np.linspace(-5, -cs - 1e-9, 2000), np.linspace(cs + 1e-9, 5, 2000)])
        assert np.all(dF_delta(grid, p) * grid > 0.0)

    def test_sign_property_fails_for_wide_regularization(self):
        # counterexample pinning the threshold: at delta = 0.5 the constant
        # tail value of dF is 1 + (1/2) ln 3 - 15/8 < 0, so dF(c) * c < 0 for
        # all large c
        p = PotentialParams(1.0, 1.5, 0.5)
        tail = dF_delta(5.0, p)
        assert tail == pytest.approx(1.0 + 0.5 * np.log(3.0) - 1.875, rel=1e-12)
        assert tail < 0.0
        assert f2_delta_prime2(0.9, p) - p.thetac == pytest.approx(-1.0 / 6.0, rel=1e-12)

    def test_structure_holds_on_small_widths_only(self):
        assert ADMITTED == (0.1, 0.01, 1e-3)
        assert not structure_holds(PotentialParams(1.0, 1.5, 0.5))

    @pytest.mark.parametrize("theta0, threshold, tol", [(1.0, 0.22570, 1e-4), (0.5, 0.006375, 1e-6)])
    def test_structure_transition(self, theta0, threshold, tol):
        # bisect the predicate itself; at both temperatures the sign of
        # dF(c_star) is lost before the convexity (1 - spinodal = 0.4226, 0.1835)
        lo, hi = 1e-4, 0.5
        assert structure_holds(PotentialParams(theta0, 1.5, lo))
        assert not structure_holds(PotentialParams(theta0, 1.5, hi))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if structure_holds(PotentialParams(theta0, 1.5, mid)):
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(threshold, abs=tol)
        p_hi = PotentialParams(theta0, 1.5, hi)
        assert dF_delta(constants(p_hi).c_star, p_hi) <= 0.0

    def test_tail_and_convexity_thresholds(self):
        # past the predicate's 0.2257 the tail value of dF turns negative at
        # 0.31142 and the plateau curvature drops below thetac at 1 - spinodal
        def root(fn):
            lo, hi = 0.1, 0.9  # fn > 0 at lo, < 0 at hi
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if fn(mid) > 0.0 else (lo, mid)
            return lo

        tail = root(lambda d: dF_delta(5.0, PotentialParams(1.0, 1.5, d)))
        convex = root(lambda d: f2_delta_prime2(1.0, PotentialParams(1.0, 1.5, d)) - 1.5)
        assert tail == pytest.approx(0.31142, abs=1e-5)
        assert convex == pytest.approx(1.0 - np.sqrt(1.0 - 1.0 / 1.5), abs=1e-12)

    def test_bounded_inside_cstar_uniformly(self):
        sups = []
        for delta in DELTA_TEST_GRID:
            p = PotentialParams(1.0, 1.5, delta)
            cs = constants(p).c_star
            grid = np.linspace(-cs, cs, 4001)
            sups.append(np.max(np.abs(dF_delta(grid, p))))
        assert max(sups) < 10.0  # one constant covers the whole delta grid

    # convexity beyond the spinodal needs the plateau curvature
    # theta0/(delta(2-delta)) to clear thetac, i.e. delta <= 1 - spinodal
    @pytest.mark.parametrize("delta", ADMITTED)
    def test_convexity_beyond_spinodal(self, delta):
        p = PotentialParams(1.0, 1.5, delta)
        spin = constants(p).spinodal
        band = np.linspace(spin, 1.0 + delta, 2001)
        assert np.min(f2_delta_prime2(band, p) - p.thetac) >= -1e-12

    def test_curvature_gap_zero_in_tail(self, pot):
        band = np.linspace(1.1 + 1e-12, 9.0, 500)
        assert np.array_equal(f2_delta_prime2(band, pot) - pot.thetac, np.zeros(500))

    def test_log_divergence_rate(self):
        # dF at the tail knot grows like (theta0/2) ln(1/delta)
        ratios = []
        for delta in (0.1, 0.01, 1e-3, 1e-4):
            p = PotentialParams(1.0, 1.5, delta)
            ratios.append(dF_delta(1.0 + delta, p) / np.log(1.0 / delta))
        assert all(0.25 <= r <= 2.0 for r in ratios)
        assert ratios[-1] == pytest.approx(0.5, abs=0.1)

    def test_F_linear_growth(self, pot):
        cs = np.linspace(1.0 + pot.delta, 100.0, 2000)
        vals = np.abs(F_delta(cs, pot))
        slope = dF_delta(50.0, pot)
        assert np.all(vals <= abs(F_delta(1.0 + pot.delta, pot)) + abs(slope) * cs + 1.0)

    def test_F_matches_singular_form_inside(self, pot):
        cs = np.linspace(-0.9, 0.9, 181)
        exact = f2_singular(cs, pot) - 0.75 * cs**2
        assert np.allclose(F_delta(cs, pot), exact, rtol=0, atol=1e-15)

    def test_F_zero_at_origin(self, pot):
        assert F_delta(0.0, pot) == 0.0


class TestConstants:
    def test_cstar_frozen(self, pot):
        assert constants(pot).c_star == pytest.approx(0.90514825364486644, rel=1e-14)

    def test_spinodal_frozen(self, pot):
        assert constants(pot).spinodal == pytest.approx(0.57735026918962576, rel=1e-14)

    def test_cstar_limit(self):
        p = PotentialParams(1.0, 50.0, 0.1)
        assert constants(p).c_star > 0.9999

    def test_bound_estimate_positive(self, pot):
        assert constants(pot).bound_M_estimate > 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PotentialParams(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            PotentialParams(1.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            PotentialParams(-1.0, 1.5, 0.1)

    def test_delta_must_leave_the_knot_below_the_pole(self):
        """A delta that rounds 1 - delta to 1 puts the core's knot on the pole
        c = 1; the smallest delta that does not still gives a finite table."""
        for delta in (1e-17, 5.55e-17, 2.0**-54):
            with pytest.raises(ValueError, match=r"^delta must leave 1 - delta below 1"):
                PotentialParams(1.0, 1.5, delta)
        p = PotentialParams(1.0, 1.5, 5.6e-17)
        assert 1.0 - p.delta < 1.0
        assert np.isfinite(figure1_table(p, np.linspace(-1.5, 1.5, 601))).all()


class TestPressureAndEnergy:
    def test_pressure_zero_at_vacuum(self, fluid):
        assert pressure(0.0, fluid) == 0.0

    def test_pressure_frozen_value(self, fluid):
        # oracle: (gamma-1) rho^gamma + H rho at rho=2, gamma=2, H=1
        assert pressure(2.0, fluid) == pytest.approx(6.0, rel=1e-14)

    def test_pressure_monotone(self, fluid):
        rhos = np.linspace(0.0, 10.0, 2001)
        vals = pressure(rhos, fluid)
        assert np.all(np.diff(vals) > 0.0)

    def test_pressure_negative_density(self, fluid):
        with pytest.raises(DomainError):
            pressure(-0.1, fluid)

    def test_guarded_power_overflow(self):
        with pytest.raises(OverflowError):
            guarded_power(2.0e6, 11)

    def test_guarded_power_float_range(self):
        # below rho_max, yet rho**k overflows: raised before exp (no RuntimeWarning)
        assert guarded_power(2.0, 1000) == pytest.approx(2.0**1000, rel=1e-12)
        with pytest.raises(OverflowError, match="density 2 to the power 1100 exceeds the float range"):
            guarded_power(2.0, 1100)
        with pytest.raises(OverflowError, match="density 3 to the power"):
            guarded_power(np.array([0.0, 3.0, 2.0]), 1100)

    @pytest.mark.parametrize("rho", DENSITIES, ids=DENSITY_IDS)
    def test_several_exponents_are_the_separate_powers_bit_for_bit(self, rho):
        exponents = (10, 1.0, 2.0, 0.5)
        powers = guarded_powers(rho, exponents)
        assert len(powers) == len(exponents)
        for k, power in zip(exponents, powers):
            one = guarded_power(rho, k)
            assert type(power) is type(one)
            assert np.asarray(power).tobytes() == np.asarray(one).tobytes(), k

    @pytest.mark.parametrize("rho", DENSITIES, ids=DENSITY_IDS)
    def test_lagged_pair_is_the_separate_evaluations_bit_for_bit(self, pot, fluid, rho):
        """pressure given delta is (artificial_pressure + pressure,
        pressure_slope), from one scan and one logarithm."""
        pi, slope = pressure(rho, fluid, pot.delta)
        separate = (potential.artificial_pressure(rho, pot.delta, fluid.art_exponent)
                    + pressure(rho, fluid), pressure_slope(rho, pot.delta, fluid))
        for got, want in zip((pi, slope), separate):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("rho, art_exponent, error, match", [
        (np.array([1.0, 2.0e6]), 11, OverflowError, r"^density 2e\+06 exceeds rho_max=1e\+06 in power"),
        (np.array([0.0, 3.0, 2.0]), 1100, OverflowError, r"^density 3 to the power 1099 exceeds the float"),
    ], ids=["above-rho-max", "float-overflow"])
    def test_lagged_pair_raises_as_the_slope_did(self, pot, rho, art_exponent, error, match):
        """The first power to fail raises, as pressure_slope's did first."""
        fluid = solver.FluidParams(art_exponent=art_exponent)
        with pytest.raises(error, match=match) as separate:
            pressure_slope(rho, pot.delta, fluid)
        with pytest.raises(error) as fused:
            pressure(rho, fluid, pot.delta)
        assert str(fused.value) == str(separate.value)

    def test_pressure_slope_keeps_its_bits(self, pot, fluid):
        """One scan for both powers of the slope, the same bits as two."""
        rho = np.array([0.0, 0.25, 1.0, 1.6, 0.0, 2.2])
        k, gam = fluid.art_exponent, fluid.gamma
        two_scans = (k * guarded_power(rho, k - 1) / np.log(1.0 / pot.delta)
                     + gam * (gam - 1.0) * guarded_power(rho, gam - 1.0) + fluid.H)
        assert pressure_slope(rho, pot.delta, fluid).tobytes() == two_scans.tobytes()

    @pytest.mark.parametrize("rho, error, match", [
        (-0.1, DomainError, r"guarded_power requires rho >= 0 \(NaN is rejected\)"),
        (np.array([1.0, np.nan]), DomainError, r"guarded_power requires rho >= 0"),
        (np.array([1.0, 2.0e6]), OverflowError, r"density 2e\+06 exceeds rho_max=1e\+06"),
        (np.array([0.0, 3.0, 2.0]), OverflowError, r"density 3 to the power 1100 exceeds the float range"),
    ], ids=["negative", "nan", "above-rho-max", "float-overflow"])
    def test_several_exponents_raise_as_the_one_that_fails(self, rho, error, match):
        with pytest.raises(error, match=match) as one:
            guarded_power(rho, 1100)
        with pytest.raises(error) as several:
            guarded_powers(rho, (2.0, 1100, 3.0))
        assert str(several.value) == str(one.value)

    def test_nan_density_rejected(self, fluid):
        with pytest.raises(DomainError):
            guarded_power(np.array([1.0, np.nan]), 2.0)
        with pytest.raises(DomainError):
            guarded_power(float("nan"), 11)
        with pytest.raises(DomainError):
            pressure(float("nan"), fluid)

    @pytest.mark.parametrize("rho", [-0.1, np.nan, np.array([1.0, -0.1]), np.array([1.0, np.nan])],
                             ids=["negative", "nan", "negative-cell", "nan-cell"])
    @pytest.mark.parametrize("evaluator", [
        lambda rho, fp, p: pressure(rho, fp),
        lambda rho, fp, p: pressure(rho, fp, p.delta),
        lambda rho, fp, p: potential.free_energy_delta(rho, 0.0, fp, p),
        lambda rho, fp, p: potential.rho_free_energy_delta(rho, 0.0, fp, p),
    ], ids=["pressure", "lagged-pressure", "free_energy_delta", "rho_free_energy_delta"])
    def test_bad_density_meets_the_one_guarded_scan(self, pot, fluid, evaluator, rho):
        """guarded_power's single pass rejects it, before a logarithm could warn
        (warnings are errors in this suite); no evaluator scans first."""
        with pytest.raises(DomainError, match=r"guarded_power requires rho >= 0 \(NaN is rejected\)"):
            evaluator(rho, fluid, pot)

    def test_pressure_slope_is_derivative(self, pot, fluid):
        """pressure_slope matches a central difference of artificial plus total pressure."""
        rho, h = np.linspace(0.2, 1.6, 15), 1e-6

        def pi(r):
            return potential.artificial_pressure(r, pot.delta, fluid.art_exponent) + pressure(r, fluid)

        fd = (pi(rho + h) - pi(rho - h)) / (2.0 * h)
        assert np.allclose(pressure_slope(rho, pot.delta, fluid), fd, rtol=1e-7, atol=0.0)
        assert isinstance(pressure_slope(1.0, pot.delta, fluid), float)

    def test_enthalpy_is_the_pressure_over_density_primitive(self, pot, fluid):
        """d h / d ln rho is Pi'(rho), which the enthalpy returns as its slope:
        both agree with pressure_slope and with a central difference in ln rho."""
        s, ds = np.linspace(-3.0, 0.5, 15), 1e-6
        value, slope = potential.enthalpy(s, pot.delta, fluid)
        assert np.allclose(slope, pressure_slope(np.exp(s), pot.delta, fluid), rtol=1e-13, atol=0.0)
        fd = (potential.enthalpy(s + ds, pot.delta, fluid)[0]
              - potential.enthalpy(s - ds, pot.delta, fluid)[0]) / (2.0 * ds)
        assert np.allclose(slope, fd, rtol=1e-7, atol=0.0)
        # at rho = 1: k / ((k - 1) ln(1/delta)) + gamma, with H ln 1 = 0
        k = fluid.art_exponent
        assert potential.enthalpy(0.0, pot.delta, fluid)[0] == pytest.approx(
            k / ((k - 1) * np.log(1.0 / pot.delta)) + fluid.gamma, rel=1e-15)
        with pytest.raises(OverflowError, match="exceeds rho_max"):
            potential.enthalpy(np.log(2e6), pot.delta, fluid)

    def test_free_energy_unit_state(self, pot, fluid):
        assert potential.free_energy_delta(1.0, 0.0, fluid, pot) == pytest.approx(1.0, abs=1e-15)

    def test_free_energy_frozen_value(self, pot, fluid):
        assert potential.free_energy_delta(2.0, 0.0, fluid, pot) == pytest.approx(
            2.0 + np.log(2.0), rel=1e-14
        )

    def test_vacuum_product_convention(self, pot, fluid):
        rhos = 10.0 ** -np.arange(3.0, 14.0)
        vals = potential.rho_free_energy_delta(rhos, 0.0, fluid, pot)
        assert abs(vals[-1]) < 1e-11
        assert potential.rho_free_energy_delta(0.0, 0.0, fluid, pot) == 0.0

    def test_xlogx_limit_nan_and_silence(self):
        # warnings are errors in this suite, so a stray divide/invalid warning fails here
        x = np.array([0.0, 1.0, 0.5, 3.0, np.nan, -1.0, np.inf])
        got = potential._xlogx(x)
        assert np.array_equal(got[:4], [0.0, 0.0, 0.5 * np.log(0.5), 3.0 * np.log(3.0)])
        assert np.isnan(got[4]) and np.isnan(got[5]) and got[6] == np.inf
        assert potential._xlogx(np.float64(0.0)) == 0.0


class TestFigureTable:
    def test_columns_and_symmetry(self, pot):
        half = np.linspace(0.0, 1.5, 151)
        grid = np.concatenate([-half[:0:-1], half])  # exactly symmetric
        table = figure1_table(pot, grid)
        assert table.shape == (301, 7)
        f2col = table[:, 1]
        f2pcol = table[:, 3]
        assert np.array_equal(f2col, f2col[::-1])
        assert np.array_equal(f2pcol, -f2pcol[::-1])

    def test_tail_column_exact_zero(self, pot):
        grid = np.linspace(-1.5, 1.5, 301)
        table = figure1_table(pot, grid)
        tail = np.abs(grid) > 1.0 + pot.delta
        assert np.array_equal(table[tail, 6], np.zeros(tail.sum()))

    @pytest.mark.parametrize("delta", [0.5, 0.1, 1.0e-3])
    def test_columns_equal_the_evaluators(self, delta):
        p = PotentialParams(1.0, 1.5, delta)
        grid = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, 1.0 - delta, 1.0, 1.0 + delta]])
        columns = [grid, f2_delta(grid, p), F_delta(grid, p), f2_delta_prime(grid, p),
                   dF_delta(grid, p), f2_delta_prime2(grid, p), f2_delta_prime2(grid, p) - p.thetac]
        assert np.array_equal(figure1_table(p, grid), np.column_stack(columns))

    def test_double_well_minima_inside_unit_interval(self, pot):
        grid = np.linspace(-1.5, 1.5, 601)
        well = figure1_table(pot, grid)[:, 2]
        inner = (well[1:-1] < well[:-2]) & (well[1:-1] < well[2:])
        locs = grid[1:-1][inner]
        assert len(locs) == 2
        assert np.all(np.abs(locs) < 1.0)
