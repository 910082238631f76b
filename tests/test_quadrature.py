"""Quadrature: closed forms, the K = I + J identity, decomposition, probes."""

import math
import warnings
from fractions import Fraction

import pytest

from cselab import (
    Annulus,
    BivariatePoly,
    GaussianRational,
    QuadratureConfig,
    UnivariatePoly,
    annulus_integral,
    convergence_sweep,
    counterexample_record,
    decompose_I,
    exponent_probe_1d,
    fiber_integral_K,
    substitute_fiber,
    uniform_bound_check,
    young_combine,
)
from cselab.quadrature import _AXIS, _GAUSS_PAIR, _NODE_T, _NODE_U

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")
CFG = QuadratureConfig()


def z_poly(*coeffs):
    return UnivariatePoly(list(coeffs))


def power_mass(a, c, r0, radius):
    """Integral of |x^a|^(-2c) over A(r0, R): 2 pi (R^e - r0^e)/e, e = 2 - 2ca."""
    e = 2.0 - 2.0 * c * a
    return 2.0 * math.pi * (radius ** e - r0 ** e) / e


class TestCellRule:
    # the 2x2 (coarse) and 3x3 (fine) Gauss-Legendre rules of a cell, mapped
    # to the rectangle [u0, u1] x [th0, th1]
    U0, U1, TH0, TH1 = -2.0, -0.5, 1.0, 2.5

    @pytest.mark.parametrize("nodes, degree", [(_GAUSS_PAIR[:4], 3),
                                               (_GAUSS_PAIR[4:], 5)])
    def test_exact_on_monomials_up_to_degree(self, nodes, degree):
        du, dth = self.U1 - self.U0, self.TH1 - self.TH0

        def rule(a, b):
            return du * dth * sum(w * (self.U0 + du * fu) ** a * (self.TH0 + dth * ft) ** b
                                  for fu, ft, w in nodes)

        def exact(a, b):
            return ((self.U1 ** (a + 1) - self.U0 ** (a + 1)) / (a + 1)
                    * (self.TH1 ** (b + 1) - self.TH0 ** (b + 1)) / (b + 1))

        for a in range(degree + 1):
            for b in range(degree + 1):
                assert rule(a, b) == pytest.approx(exact(a, b), rel=1e-13)
        assert rule(degree + 1, 0) != pytest.approx(exact(degree + 1, 0), rel=1e-6)

    def test_axis_tables_rebuild_the_pair_exactly(self):
        # the engine evaluates the pair on its axes: 5 abscissae per side
        rebuilt = tuple((_AXIS[i][0], _AXIS[j][0], _AXIS[i][1] * _AXIS[j][1])
                        for i, j in zip(_NODE_U, _NODE_T))
        assert rebuilt == _GAUSS_PAIR
        assert len(set(a for a, _ in _AXIS)) == 5


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(radial_cells_per_decade=2)
        with pytest.raises(ValueError):
            QuadratureConfig(angular_cells=3)
        with pytest.raises(ValueError):
            QuadratureConfig(target_rel_tolerance=0.5)
        with pytest.raises(ValueError):
            QuadratureConfig(precision="quad")


class TestAnnulusIntegral:
    def test_inverse_abs_disc_gives_two_pi(self):
        # integral of |x|^(-1) over the unit disc
        rep = annulus_integral(z_poly(0, 1), 0.5, Annulus(0.0, 1.0), config=CFG)
        assert rep.converged
        assert rep.value == pytest.approx(2 * math.pi, rel=1e-3)

    def test_c_zero_gives_area(self):
        rep = annulus_integral(z_poly(0, 1), 0.0, Annulus(0.5, 1.0), config=CFG)
        assert rep.value == pytest.approx(math.pi * 0.75, rel=1e-3)

    def test_power_closed_form(self):
        # |x^2|^(-2c) over the unit disc: 2*pi/(2-4c)
        c = 0.3
        rep = annulus_integral(z_poly(0, 0, 1), c, Annulus(0.0, 1.0), config=CFG)
        assert rep.value == pytest.approx(2 * math.pi / (2 - 4 * c), rel=1e-3)

    @pytest.mark.parametrize("a, c, r0, radius", [
        (2, 0.3, 1e-3, 1.0), (1, 0.7, 1e-6, 0.5), (3, 0.2, 0.01, 2.0),
        (1, 0.5, 0.0, 1.0)])
    def test_power_closed_form_at_default_config(self, a, c, r0, radius):
        rep = annulus_integral(z_poly(*[0] * a, 1), c, Annulus(r0, radius), config=CFG)
        exact = power_mass(a, c, rep.meta.get("inner_cut", r0), radius)
        assert rep.converged
        assert rep.value == pytest.approx(exact, rel=1e-6)
        assert rep.error_estimate >= abs(rep.value - exact)

    def test_x_y_symmetry_of_line_fiber(self):
        t = Fraction(1, 10 ** 4)
        fib = substitute_fiber(X + Y, t)
        dom = Annulus(float(t), 1.0)
        rep_x = annulus_integral(fib, 0.5, dom, chart="x", config=CFG, t=t)
        rep_y = annulus_integral(fib, 0.5, dom, chart="y", config=CFG, t=t)
        assert rep_x.value == pytest.approx(rep_y.value, rel=1e-6)

    def test_divergent_configuration_flagged(self):
        # double zero at x=1 with c = 0.6: local exponent 2.4 >= 2
        f = z_poly(1, -2, 1)
        rep = annulus_integral(f, 0.6, Annulus(0.5, 2.0), config=CFG)
        assert rep.divergent
        assert rep.value == math.inf
        assert "divergent" in rep.refinement_flags

    def test_grid_halving_within_error_estimate(self):
        fib = substitute_fiber(Y * Y - X ** 3, Fraction(1, 1000))
        dom = Annulus(1e-3 / 0.5, 0.5)
        rep = annulus_integral(fib, 0.3, dom, config=CFG)
        fine_cfg = QuadratureConfig(radial_cells_per_decade=16, angular_cells=64)
        fine = annulus_integral(fib, 0.3, dom, config=fine_cfg)
        assert abs(rep.value - fine.value) <= rep.error_estimate

    def test_monotone_in_c_when_f_below_one(self):
        # scale so |f| <= 1 on the domain: f = x/2 on the unit disc
        f = z_poly(0, Fraction(1, 2))
        dom = Annulus(0.0, 1.0)
        v1 = annulus_integral(f, 0.2, dom, config=CFG)
        v2 = annulus_integral(f, 0.4, dom, config=CFG)
        assert v2.value + v2.error_estimate >= v1.value - v1.error_estimate

    @pytest.mark.parametrize("c", [0.3, 0.0])
    def test_overflowing_region_is_dropped_without_splitting(self, c):
        # r^2 overflows beyond |x| ~ 1e154: no split can resolve those cells,
        # so the number dropped does not grow with the depth cap (splitting
        # them to the cap dropped 23,552 cells at cap 4 and 94,208 at cap 5)
        dom = Annulus(1.0, 1e157)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps = [annulus_integral(z_poly(0, 1), c, dom,
                                     config=QuadratureConfig(max_refinement_depth=cap))
                    for cap in (4, 5)]
        assert reps[0].refinement_flags == reps[1].refinement_flags
        (flag,) = reps[0].refinement_flags
        assert flag.startswith("unresolved-singular-cell:")
        assert not reps[0].converged

    def test_extended_precision_runs(self):
        cfg = QuadratureConfig(precision="extended")
        rep = annulus_integral(z_poly(0, 1), 0.5, Annulus(0.0, 1.0), config=cfg)
        assert rep.value == pytest.approx(2 * math.pi, rel=1e-3)


class TestFiberIntegralK:
    def test_line_central_value(self):
        kr = fiber_integral_K(X + Y, 0, 0.5, 1.0, CFG)
        assert kr.k_report.value == pytest.approx(4 * math.pi, rel=1e-3)
        assert (kr.i_report.chart, kr.j_report.chart) == ("x", "y")

    @pytest.mark.parametrize("f, c, radius, orders", [
        (Y * Y - X ** 3, 0.3, 0.5, (3, 2)), (X + Y, 0.5, 1.0, (1, 1))])
    def test_central_closed_form_at_default_config(self, f, c, radius, orders):
        # K_0 sums the axis masses of x^k and y^l over the cut disc
        kr = fiber_integral_K(f, 0, c, radius, CFG)
        cut = kr.i_report.meta["inner_cut"]
        exact = sum(power_mass(a, c, cut, radius) for a in orders)
        assert kr.k_report.value == pytest.approx(exact, rel=1e-6)
        assert kr.k_report.error_estimate >= abs(kr.k_report.value - exact)

    def test_line_near_limit(self):
        kr = fiber_integral_K(X + Y, Fraction(1, 10 ** 4), 0.5, 1.0, CFG)
        assert kr.k_report.value == pytest.approx(4 * math.pi, rel=0.05)

    def test_identity_on_shared_grid(self):
        for f, t in [(X + Y, Fraction(1, 100)),
                     (Y * Y - X ** 3, Fraction(1, 1000)),
                     (X * X - Y * Y, Fraction(1, 10 ** 4))]:
            kr = fiber_integral_K(f, t, 0.25, 0.5, CFG)
            assert kr.identity_residual <= 1e-6

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError, match="stability"):
            fiber_integral_K(Y * Y - X ** 3, Fraction(1, 100), 0.4, 0.5, CFG)
        with pytest.raises(ValueError, match="stability"):
            fiber_integral_K(X + Y, Fraction(1, 100), 0.0, 1.0, CFG)

    def test_symmetric_function_has_equal_parts(self):
        kr = fiber_integral_K(X + Y, Fraction(1, 100), 0.5, 1.0, CFG)
        assert kr.i_report.value == pytest.approx(kr.j_report.value, rel=1e-9)

    def test_gaussian_rational_t(self):
        kr = fiber_integral_K(Y * Y - X ** 3, GaussianRational(0, Fraction(1, 100)),
                              0.2, 0.5, CFG)
        assert kr.identity_residual <= 1e-6
        kf = fiber_integral_K(Y * Y - X ** 3, 0.01j, 0.2, 0.5, CFG)
        assert kr.k_report.value == pytest.approx(kf.k_report.value, rel=1e-9)

    def test_mixed_family_needs_an_exact_square_root_of_t(self):
        # the float 0.01 is not the square of a rational, so the radial
        # term has no exact value there and no finite K may come back
        family = counterexample_record(1).family
        with pytest.raises(ValueError, match="exact square root"):
            fiber_integral_K(family, 0.01, 0.3, 0.5, CFG)
        kr = fiber_integral_K(family, Fraction(1, 100), 0.3, 0.5, CFG)
        assert kr.k_report.divergent and kr.k_report.value == math.inf
        # the zero at x = s = 1/10 has order 2n+2 = 4: local exponent 2*0.3*4
        assert kr.k_report.meta["multiplicity"] == 4
        assert kr.k_report.meta["local_exponent"] == pytest.approx(2.4)

    def test_central_flags_sum_the_axis_counts(self):
        # both axes force the same number of cells; K_0 reports their sum
        # (at 1e-9 and depth 4 the cell rule forces 484 cells per axis)
        cfg = QuadratureConfig(max_refinement_depth=4, target_rel_tolerance=1e-9)
        kr = fiber_integral_K(X ** 2 + X ** 3 + Y ** 2 + Y ** 3, 0, 0.2, 0.5, cfg)
        (flag,) = kr.i_report.refinement_flags
        assert flag.startswith("max-depth-reached:")
        assert kr.j_report.refinement_flags == (flag,)
        forced = int(flag.split(":")[1])
        assert kr.k_report.refinement_flags == (f"max-depth-reached:{2 * forced}",)


class TestRadiusValidation:
    @pytest.mark.parametrize("radius", [0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("operation", [
        lambda r: fiber_integral_K(X + Y, Fraction(1, 100), 0.5, r, CFG),
        lambda r: fiber_integral_K(X + Y, 0, 0.5, r, CFG),
        lambda r: convergence_sweep(X + Y, 0.5, r, None, CFG),
        lambda r: uniform_bound_check(X + Y, 0.5, r, [Fraction(1, 100)], CFG),
        lambda r: decompose_I(X + Y, Fraction(1, 100), 0.5, r, 5.0, CFG),
    ], ids=["K", "K0", "sweep", "bound", "decompose"])
    def test_radius_must_be_finite_and_positive(self, operation, radius):
        with pytest.raises(ValueError, match="radius R must be finite and > 0"):
            operation(radius)


class TestDecomposeI:
    def test_partition_radii_cover_annulus(self):
        t = Fraction(1, 10 ** 4)
        i1, i2, i3 = decompose_I(X + Y, t, 0.5, 1.0, 5.0, CFG)
        # inner edge of the inner piece = |t|/R; outer edge of outer = R
        assert i3.domain.r_inner == pytest.approx(float(t) / 1.0)
        assert i2.domain.r_outer == pytest.approx(1.0)
        assert i3.domain.r_outer == pytest.approx(i1.domain.r_inner)
        assert i1.domain.r_outer == pytest.approx(i2.domain.r_inner)

    def test_sum_reproduces_I(self):
        t = Fraction(1, 10 ** 4)
        parts = decompose_I(X + Y, t, 0.5, 1.0, 10.0, CFG)
        fib = substitute_fiber(X + Y, t)
        whole = annulus_integral(fib, 0.5, Annulus(float(t), 1.0),
                                 config=CFG, t=t)
        total = sum(p.value for p in parts)
        budget = whole.error_estimate + sum(p.error_estimate for p in parts)
        assert abs(total - whole.value) <= max(budget, 1e-4 * whole.value)

    def test_side_pieces_decay(self):
        ts = [Fraction(1, 100) * Fraction(1, 4) ** j for j in range(6)]
        i1s, i3s, its = [], [], []
        for t in ts:
            i1, i2, i3 = decompose_I(X + Y, t, 0.5, 1.0, 5.0, CFG)
            i1s.append(i1.value)
            i3s.append(i3.value)
            its.append(i1.value + i2.value + i3.value)
        assert all(b < a for a, b in zip(i1s, i1s[1:]))
        assert all(b < a for a, b in zip(i3s, i3s[1:]))
        assert i1s[-1] < 0.1 * its[-1]
        assert i3s[-1] < 0.1 * its[-1]

    def test_r1_guard(self):
        with pytest.raises(ValueError):
            decompose_I(X + Y, Fraction(1, 100), 0.5, 1.0, 0.5, CFG)
        with pytest.raises(ValueError, match="positive real"):
            decompose_I(X + Y, Fraction(-1, 100), 0.5, 1.0, 5.0, CFG)


class TestConvergenceSweep:
    def test_line_converges(self):
        seq = [Fraction(1, 100) * Fraction(1, 4) ** j for j in range(5)]
        rep = convergence_sweep(X + Y, 0.5, 1.0, seq, CFG)
        assert rep.verdict == "converged"
        devs = [abs(r.ratio - 1) for r in rep.rows]
        assert devs[-1] < devs[0]

    def test_single_sample_inconclusive(self):
        rep = convergence_sweep(X + Y, 0.5, 1.0, [Fraction(1, 100)], CFG)
        assert rep.verdict == "inconclusive"

    def test_certifiably_reducible_input_rejected(self):
        # two polygon segments force reducibility; x^2 - y^2 is reducible
        # too but its polygon is a single segment, so it cannot be caught
        f = X * Y + X ** 3 + Y ** 3
        with pytest.raises(ValueError, match="reducible"):
            convergence_sweep(f, 0.2, 0.5, None, CFG)

    def test_hypothesis_note_present(self):
        rep = convergence_sweep(X + Y, 0.5, 1.0,
                                [Fraction(1, 100), Fraction(1, 400)], CFG)
        assert "not sufficient" in rep.hypothesis_note

    def test_rows_strictly_decreasing_in_t(self):
        seq = [Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)]
        rep = convergence_sweep(X + Y, 0.5, 1.0, seq, CFG)
        ts = [float(r.t) for r in rep.rows]
        assert ts == sorted(ts, reverse=True)


class TestUniformBound:
    def test_product_bound_finite_no_growth(self):
        ts = [Fraction(1, 100) * Fraction(1, 4) ** j for j in range(7)]
        rep = uniform_bound_check(X * X - Y * Y, 0.2, 0.5, ts, CFG)
        assert math.isfinite(rep.bound)
        assert not rep.growth_flag

    def test_line_bound_near_central_value(self):
        ts = [Fraction(1, 100), Fraction(1, 10 ** 4), Fraction(1, 10 ** 6)]
        rep = uniform_bound_check(X + Y, 0.5, 1.0, ts, CFG)
        assert rep.bound == pytest.approx(4 * math.pi, rel=0.06)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            uniform_bound_check(X + Y, 0.5, 1.0, [], CFG)

    def test_central_fiber_among_three_samples(self):
        # t = 0 has no log |t|: it is a bound sample but not a trend point
        ts = [Fraction(1, 100), Fraction(1, 400), 0]
        rep = uniform_bound_check(X * X - Y * Y, 0.2, 0.5, ts, CFG)
        assert [r.t for r in rep.rows] == ts
        assert math.isfinite(rep.bound)
        assert not rep.growth_flag

    def test_growth_trend_heuristic(self):
        from cselab.quadrature import SweepRow, growth_trend

        def rows(values):
            ts = [10.0 ** -(2 + j) for j in range(len(values))]
            return [SweepRow(t=t, k_t=v, err=1e-6, i_t=0, j_t=0, ratio=1)
                    for t, v in zip(ts, values)]

        # bounded approach K_0 - C*t^a: slopes decay geometrically
        bounded = [10.0 - 5.0 * (10.0 ** -(2 + j)) ** 0.4 for j in range(5)]
        assert not growth_trend(rows(bounded))
        # log blowup: constant slope per decade
        log_growth = [3.0 + 2.0 * j for j in range(5)]
        assert growth_trend(rows(log_growth))
        # power blowup: accelerating slopes
        power_growth = [(10.0 ** (2 + j)) ** 0.3 for j in range(5)]
        assert growth_trend(rows(power_growth))
        # a t = 0 row after the tail leaves the verdict as it was
        central = SweepRow(t=0, k_t=20.0, err=1e-6, i_t=0, j_t=0, ratio=1)
        assert growth_trend(rows(log_growth) + [central])
        assert not growth_trend(rows(bounded) + [central])


class TestYoungCombine:
    def test_two_smooth_factors(self):
        assert young_combine([(1, 4.0), (1, 6.0)]) == pytest.approx(5.0)

    def test_singleton_identity(self):
        assert young_combine([(3, 7.5)]) == pytest.approx(7.5)

    def test_weighted(self):
        assert young_combine([(2, 10.0), (3, 20.0)]) == pytest.approx(16.0)

    def test_guards(self):
        with pytest.raises(ValueError):
            young_combine([])
        with pytest.raises(ValueError):
            young_combine([(0, 1.0)])
        with pytest.raises(ValueError):
            young_combine([(1, math.inf)])


class TestExponentProbe:
    def test_powers_recovered(self):
        one = GaussianRational(1)
        for m, c in [(1, 0.4), (2, 0.3), (3, 0.3)]:
            f = UnivariatePoly([-one, one]) ** m  # (z-1)^m
            res = exponent_probe_1d(f, 1.0, c, CFG)
            assert res.multiplicity_estimate == pytest.approx(m, rel=0.05)

    def test_constant_has_zero_multiplicity(self):
        res = exponent_probe_1d(z_poly(2), 0.3, 0.3, CFG)
        assert res.slope == pytest.approx(2.0, abs=0.01)
        assert res.multiplicity_estimate == pytest.approx(0.0, abs=0.02)

    def test_product_of_separated_linear_factors(self):
        one = GaussianRational(1)
        f = (UnivariatePoly([-one, one])
             * UnivariatePoly([one * 3, one])
             * UnivariatePoly([one * GaussianRational(0, 4), one]))
        res = exponent_probe_1d(f, 1.0, 0.4, CFG, r0=0.05)
        assert res.multiplicity_estimate == pytest.approx(1, rel=0.05)

    def test_guards(self):
        with pytest.raises(ValueError):
            exponent_probe_1d(z_poly(0, 1), 0.0, 0.0, CFG)
