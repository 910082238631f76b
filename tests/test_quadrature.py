"""Quadrature: closed forms, the K = I + J identity, decomposition, probes."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from cselab import (
    Annulus,
    BivariatePoly,
    GaussianRational,
    IdenticallyZeroError,
    IntegralReport,
    LaurentForm,
    QuadratureConfig,
    UnivariatePoly,
    annulus_integral,
    convergence_sweep,
    counterexample_record,
    decompose_I,
    exponent_probe_1d,
    fiber_exponent,
    fiber_integral_K,
    fiber_zeros,
    parse_expression,
    substitute_fiber,
    uniform_bound_check,
    young_combine,
)
from cselab import degeneration, quadrature
from cselab.quadrature import _AXIS, _G2, _G3, _NODE_T, _NODE_U

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")
CFG = QuadratureConfig()
# the embedded rule pair node by node, (u, theta, weight): 2x2 then 3x3
GAUSS_PAIR = tuple((gu, gt, wu * wt) for g in (_G2, _G3)
                   for (gu, wu) in g for (gt, wt) in g)


def z_poly(*coeffs):
    return UnivariatePoly(list(coeffs))


def power_mass(a, c, r0, radius):
    """Integral of |x^a|^(-2c) over A(r0, R): 2 pi (R^e - r0^e)/e, with
    e = 2 - 2ca formed exactly from the float c, then rounded once."""
    e = float(2 - 2 * Fraction(c) * a)
    return 2.0 * math.pi * (radius ** e - r0 ** e) / e


class TestCellRule:
    # the 2x2 (coarse) and 3x3 (fine) Gauss-Legendre rules of a cell, mapped
    # to the rectangle [u0, u1] x [th0, th1]
    U0, U1, TH0, TH1 = -2.0, -0.5, 1.0, 2.5

    @pytest.mark.parametrize("nodes, degree", [(GAUSS_PAIR[:4], 3),
                                               (GAUSS_PAIR[4:], 5)])
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
        assert rebuilt == GAUSS_PAIR
        assert len(set(a for a, _ in _AXIS)) == 5


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(radial_cells_per_decade=2)
        with pytest.raises(ValueError):
            QuadratureConfig(angular_cells=3)
        with pytest.raises(ValueError):
            QuadratureConfig(target_rel_tolerance=0.5)

    @pytest.mark.parametrize("name", ["radial_cells_per_decade", "angular_cells",
                                      "max_refinement_depth"])
    @pytest.mark.parametrize("value", [8.5, 8.0, "8", None])
    def test_a_non_integral_count_is_rejected(self, name, value):
        # 8.5 was accepted, and the first integral died in numpy
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            QuadratureConfig(**{name: value})

    def test_an_index_is_a_count(self):
        import numpy as np
        cfg = QuadratureConfig(angular_cells=np.int64(8))
        rep = annulus_integral(z_poly(0, 1), 0.5, Annulus(0.5, 1.0), config=cfg)
        assert rep == annulus_integral(z_poly(0, 1), 0.5, Annulus(0.5, 1.0), config=CFG)


class TestIntegralReportState:
    @pytest.mark.parametrize("flags, converged, divergent", [
        ((), True, False), (("divergent",), False, True),
        (("max-depth-reached:3",), False, False), (("float-overflow",), False, False),
        (("divergent", "max-depth-reached:3"), False, True)])
    def test_the_state_is_read_off_the_flags(self, flags, converged, divergent):
        rep = IntegralReport(value=1.0, error_estimate=0.0, cells_used=0, refinement_flags=flags,
                             domain=Annulus(0.5, 1.0), chart="x", c=0.3)
        assert (rep.converged, rep.divergent) == (converged, divergent)
        assert rep.to_json_obj()["converged"] == converged
        assert rep.to_json_obj()["divergent"] == divergent

    def test_the_state_is_not_settable(self):
        with pytest.raises(TypeError):
            IntegralReport(value=1.0, error_estimate=0.0, cells_used=0, refinement_flags=(),
                           domain=Annulus(0.5, 1.0), chart="x", c=0.3, converged=False)


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
        exact = power_mass(a, c, r0, radius)
        assert rep.converged
        assert rep.value == pytest.approx(exact, rel=1e-6)
        assert rep.error_estimate >= abs(rep.value - exact)

    def test_x_y_symmetry_of_line_fiber(self):
        t = Fraction(1, 10 ** 4)
        fib = substitute_fiber(X + Y, t)
        dom = Annulus(float(t), 1.0)
        rep_x = annulus_integral(fib, 0.5, dom, chart="x", config=CFG)
        rep_y = annulus_integral(fib, 0.5, dom, chart="y", config=CFG)
        assert rep_x.value == pytest.approx(rep_y.value, rel=1e-6)

    def test_an_exact_zero_stays_exact_in_the_y_chart(self):
        # x + y at t = 1/100 vanishes at x = +-i/10, so at y = t/x = -+i/10
        fib = substitute_fiber(X + Y, Fraction(1, 100))
        rep = annulus_integral(fib, 1.0, Annulus(0.02, 0.5), chart="y", config=CFG)
        assert rep.divergent and rep.meta["divergent_zero"] == "0.1j"

    @pytest.mark.parametrize("r_inner", [0.0, 0.5])
    def test_the_y_chart_needs_a_nonzero_t(self, r_inner):
        # x = t/y is 0 everywhere at t = 0: that is no chart of the fiber
        with pytest.raises(ValueError, match="nonzero fiber parameter t"):
            annulus_integral(z_poly(0, 1), 0.3, Annulus(r_inner, 1.0), chart="y")

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


class TestFiberIntegralK:
    @pytest.mark.parametrize("t", [Fraction(1, 10 ** 170), Fraction(1, 10 ** 400),
                                   Fraction(3, 10 ** 155) * GaussianRational(0, 1)])
    @pytest.mark.parametrize("operation", [
        lambda t: fiber_integral_K(Y * Y - X ** 3, t, 0.15, 0.5, CFG),
        lambda t: convergence_sweep(Y * Y - X ** 3, 0.15, 0.5, [Fraction(1, 100), t], CFG),
        lambda t: uniform_bound_check(Y * Y - X ** 3, 0.15, 0.5, [Fraction(1, 100), t], CFG),
    ], ids=["K", "sweep", "bound"])
    def test_a_t_whose_square_is_not_a_normal_float_is_refused(self, operation, t):
        # at 10^-170 K read 2.6647 with J = 0.0 against K_0 = 4.3654; at
        # 10^-400 |t| is 0.0 and the run failed with a math domain error
        with pytest.raises(ValueError, match=r"\|t\|\^2 must be a normal float, 1\.49e-154"):
            operation(t)

    def test_a_t_whose_square_is_a_normal_float_runs(self):
        kr = fiber_integral_K(Y * Y - X ** 3, Fraction(1, 10 ** 150), 0.15, 0.5, CFG)
        k0 = fiber_integral_K(Y * Y - X ** 3, 0, 0.15, 0.5, CFG)
        assert kr.k_report.converged and kr.j_report.value > 0
        assert kr.k_report.value == pytest.approx(k0.k_report.value, rel=1e-6)

    def test_line_central_value(self):
        kr = fiber_integral_K(X + Y, 0, 0.5, 1.0, CFG)
        assert kr.k_report.value == pytest.approx(4 * math.pi, rel=1e-3)
        assert (kr.i_report.chart, kr.j_report.chart) == ("x", "y")

    @pytest.mark.parametrize("f, c, radius, orders", [
        (Y * Y - X ** 3, 0.3, 0.5, (3, 2)), (X + Y, 0.5, 1.0, (1, 1))])
    def test_central_closed_form_at_default_config(self, f, c, radius, orders):
        # K_0 sums the axis masses of x^k and y^l over the whole disc
        kr = fiber_integral_K(f, 0, c, radius, CFG)
        exact = sum(power_mass(a, c, 0.0, radius) for a in orders)
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
        # (at 1e-9 and depth 4 the cell rule forces 214 cells per axis on
        # A(rho, R), rho = 1.25e-9 being where the tail's width is 1e-9)
        cfg = QuadratureConfig(max_refinement_depth=4, target_rel_tolerance=1e-9)
        kr = fiber_integral_K(X ** 2 + X ** 3 + Y ** 2 + Y ** 3, 0, 0.2, 0.5, cfg)
        (flag,) = kr.i_report.refinement_flags
        assert flag.startswith("max-depth-reached:")
        assert kr.j_report.refinement_flags == (flag,)
        forced = int(flag.split(":")[1])
        assert kr.k_report.refinement_flags == (f"max-depth-reached:{2 * forced}",)


# the corpus germs with the orders of their x- and y-axis restrictions, each
# of the form +-w^v, so c_0 = 1/max(v) and K_0 has a closed form
CORPUS_AXES = (("y^2 - x^3", (3, 2)), ("x^2 - y^2", (2, 2)), ("(x + y)^2", (2, 2)),
               ("y^3 - x^5", (5, 3)), ("x + y", (1, 1)))
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")


def disc_mass_50(v, c, radius):
    """2 pi R^e / e at 50 digits, e = 2 - 2cv: the mass of |w^v|^(-2c) on |w| < R."""
    with localcontext() as ctx:
        ctx.prec = 50
        e = 2 - 2 * Decimal(c) * v
        return 2 * PI_50 * (e * Decimal(radius).ln()).exp() / e


def series_mass(a_abs, v, b_abs, c, radius):
    """The mass of |a w^v (1 + b w)|^(-2c) on |w| < R for |b| R < 1, from the
    angular mean of |1 + b w|^(-2c) = |(1 + b w)^(-c)|^2 term by term:
    2 pi |a|^(-2c) sum_k ((c)_k/k!)^2 |b|^(2k) R^(2k+e)/(2k+e), e = 2 - 2cv."""
    e = 2.0 - 2.0 * c * v
    total, coef, k = 0.0, 1.0, 0
    while True:
        term = coef * coef * b_abs ** (2 * k) * radius ** (2 * k + e) / (2 * k + e)
        total += term
        if term < 1e-18 * total:
            return 2.0 * math.pi * a_abs ** (-2.0 * c) * total
        coef *= (c + k) / (k + 1)
        k += 1


class TestDiscTail:
    @pytest.mark.parametrize("share", [0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("text, orders", CORPUS_AXES, ids=[t for t, _ in CORPUS_AXES])
    def test_k0_of_a_monomial_axis_pair_is_the_closed_form(self, text, orders, share):
        # near c_0 the disc |w| < R 10^-30 an inner cut dropped is most of K_0
        c = share / max(orders)
        kr = fiber_integral_K(parse_expression(text), 0, c, 0.5, CFG)
        exact = float(sum(disc_mass_50(v, c, 0.5) for v in orders))
        k = kr.k_report
        assert abs(k.value - exact) <= k.error_estimate <= 1e-14 * exact
        assert k.converged and k.cells_used == 0 and k.refinement_flags == ()
        assert kr.i_report.meta == kr.j_report.meta == {"disc": "exact"}

    @pytest.mark.parametrize("fiber, chart, a_abs, v, b_abs, c, radius", [
        # 3 x^2 (1 + x/2) on the unit disc
        (z_poly(0, 0, 3, Fraction(3, 2)), "x", 3.0, 2, 0.5, 0.4, 1.0),
        # a pole: (2 + 2i x/3)/x = 2 x^-1 (1 + i x/3), d = 1
        (LaurentForm(z_poly(2, GaussianRational(0, Fraction(2, 3))), 1, Fraction(1, 4)),
         "x", 2.0, -1, 1 / 3, 0.3, 2.0),
        # the y chart: (1 + 4x)/x^3 at x = t/y, t = 1/2, is 16 y^2 (1 + y/2)
        (LaurentForm(z_poly(1, 4), 3, Fraction(1, 2)), "y", 16.0, 2, 0.5, 0.3, 1.0),
        # S(R) = 1e-6 is below the tolerance's share: the whole disc is tail
        (z_poly(0, 1, Fraction(1, 10 ** 6)), "x", 1.0, 1, 1e-6, 0.3, 1.0),
    ], ids=["x-chart", "pole", "y-chart", "all-tail"])
    def test_a_binomial_disc_matches_its_series(self, fiber, chart, a_abs, v, b_abs, c,
                                                radius):
        rep = annulus_integral(fiber, c, Annulus(0.0, radius), chart=chart, config=CFG)
        oracle = series_mass(a_abs, v, b_abs, c, radius)
        assert abs(rep.value - oracle) <= rep.error_estimate <= CFG.target_rel_tolerance * rep.value
        assert rep.converged and rep.meta["disc"] == "tail"
        lo, hi = rep.meta["tail_interval"]
        rho = rep.meta["tail_radius"]
        assert lo <= series_mass(a_abs, v, b_abs, c, rho) <= hi and rho <= radius
        assert (rep.cells_used == 0) == (rep.meta["tail_radius"] == radius)

    @pytest.mark.parametrize("c", [0.6, 0.5])
    def test_a_disc_divergent_at_its_centre_is_reported_divergent(self, c):
        # |x^2|^(-2c) on the unit disc: a power divergence, logarithmic at c = 1/2
        rep = annulus_integral(z_poly(0, 0, 1), c, Annulus(0.0, 1.0), config=CFG)
        assert rep.divergent and not rep.converged
        assert rep.value == math.inf and rep.refinement_flags == ("divergent",)
        assert rep.meta["multiplicity"] == 2

    def test_a_closed_form_past_the_float_range_is_flagged(self):
        # 2 pi R^1.5/1.5 at R = 1e300 exceeds the largest float
        rep = annulus_integral(z_poly(0, 1), 0.25, Annulus(0.0, 1e300), config=CFG)
        kr = fiber_integral_K(X + Y, 0, 0.25, 1e300, CFG)
        for r in (rep, kr.i_report, kr.j_report, kr.k_report):
            assert r.value == math.inf and not r.converged
            assert r.refinement_flags == ("float-overflow",)

    def test_a_k_past_the_float_range_is_flagged(self):
        # K_0 of x + y at R = 7e153 sums two finite axes of 1.54e308 each; at
        # t = 1/100 and R = 1e154 the engine's K, I and J all pass the range
        k0 = fiber_integral_K(X + Y, 0, 1e-6, 7e153, CFG)
        assert all(math.isfinite(r.value) for r in (k0.i_report, k0.j_report))
        kt = fiber_integral_K(X + Y, Fraction(1, 100), 1e-6, 1e154, CFG)
        for r in (k0.k_report, kt.k_report, kt.i_report, kt.j_report):
            assert r.value == math.inf and not r.converged
            assert r.refinement_flags == ("float-overflow",)


class TestMembershipRule:
    """fiber_zeros' polydisc and an integral's divergence test take a zero by
    one rule: |t|/delta (1 - s) <= |x| <= delta (1 + s), s = 1e-12."""

    T, DELTA = Fraction(1, 1000), 0.1

    @pytest.mark.parametrize("text, kept", [
        ("x - 1/10", ["1/10"]),                  # on |x| = delta
        ("y - 1/10", ["1/100"]),                 # on |x| = |t|/delta
        ("x - 10000000001/100000000000", []),    # 1e-10 past |x| = delta
        ("y - 10000000001/100000000000", []),    # 1e-10 inside |x| = |t|/delta
    ])
    def test_zeros_on_and_past_the_bounds(self, text, kept):
        f = parse_expression(text)
        assert [str(z.location) for z in fiber_zeros(f, self.T, delta=self.DELTA)] == kept
        rep = annulus_integral(substitute_fiber(f, self.T), 1.0,
                               Annulus(float(self.T) / self.DELTA, self.DELTA), config=CFG)
        assert rep.divergent == bool(kept)

    def test_a_double_zero_on_the_radius_makes_K_divergent(self):
        f = parse_expression("(x - 1/2)^2")
        k = fiber_integral_K(f, Fraction(1, 100), 0.5, 0.5, CFG).k_report
        assert k.divergent and k.value == math.inf
        k = fiber_integral_K(f, Fraction(1, 100), 0.49, 0.5, CFG).k_report
        assert not k.divergent and math.isfinite(k.value)


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


class TestIdenticallyZero:
    @pytest.mark.parametrize("chart", ["x", "y"])
    @pytest.mark.parametrize("c", [0.0, 0.3])
    @pytest.mark.parametrize("domain", [Annulus(0.5, 1.0), Annulus(0.0, 1.0)],
                             ids=["annulus", "disc"])
    def test_every_chart_c_and_domain_refuses_a_zero_fiber(self, chart, c, domain):
        # at c = 0 an annulus died with an IndexError, a disc with a plain ValueError
        fibers = [UnivariatePoly([0]), LaurentForm(UnivariatePoly([0]), 2, Fraction(1, 100))]
        for fiber in fibers:
            with pytest.raises(IdenticallyZeroError):
                annulus_integral(fiber, c, domain, chart=chart, config=CFG)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_annulus_integral_rejects_c(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            annulus_integral(z_poly(0, 1), c, Annulus(0.5, 1.0))

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_probe_rejects_c(self, c):
        with pytest.raises(ValueError, match="finite c > 0"):
            exponent_probe_1d(z_poly(-1, 0, 1), [1], c)

    def test_annulus_rejects_an_infinite_radius(self):
        with pytest.raises(ValueError, match="r_out < inf"):
            Annulus(1.0, math.inf)


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
        whole = annulus_integral(fib, 0.5, Annulus(float(t), 1.0), config=CFG)
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

    @pytest.mark.parametrize("text", ["1 + x + y", "x + 1", "2 + x*y"])
    def test_a_germ_off_the_origin_is_rejected(self, text):
        # F(0, 0) != 0 puts (0, 0) on the polygon: k + l = 0 leaves no scale s
        with pytest.raises(ValueError, match=r"needs F\(0, 0\) = 0"):
            decompose_I(parse_expression(text), Fraction(1, 100), 0.5, 1.0, 5.0, CFG)

    def test_a_conjugate_pair_names_one_divergent_zero(self):
        # x + y at t = 1/100 vanishes simply at +-i/10, inside A(1/50, 1/2),
        # so at c = 1 both zeros diverge; each path names -i/10, the first in
        # (modulus, phase) order
        t = Fraction(1, 100)
        i1, _, _ = decompose_I(X + Y, t, 1.0, 1.0, 5.0, CFG)
        whole = annulus_integral(substitute_fiber(X + Y, t), 1.0, i1.domain, config=CFG)
        assert i1.divergent and whole.divergent
        assert i1.meta["divergent_zero"] == whole.meta["divergent_zero"] == "-0.1j"

    def test_each_form_finds_its_zeros_once(self, monkeypatch):
        # x^2 + t has one squarefree factor, so one root search per form
        calls = []
        roots_of = degeneration._roots_of_unipoly

        def spy(p):
            calls.append(p)
            return roots_of(p)

        monkeypatch.setattr(degeneration, "_roots_of_unipoly", spy)
        t = Fraction(1, 100)
        decompose_I(X + Y, t, 0.5, 1.0, 5.0, CFG)
        fib = substitute_fiber(X + Y, t)
        for chart in ("x", "y"):
            annulus_integral(fib, 0.5, Annulus(0.05, 0.5), chart=chart, config=CFG)
        for x0 in (0.1j, -0.1j, 0.5):
            fiber_exponent(fib, t, x0)
        assert len(calls) == 2


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

    def test_samples_of_equal_modulus(self):
        # t and -t share a log |t|: the bound takes every sample, the trend
        # one row per |t|
        ts = [Fraction(1, 100), Fraction(-1, 100), Fraction(1, 400)]
        rep = uniform_bound_check(X * X - Y * Y, 0.2, 0.5, ts, CFG)
        assert [r.t for r in rep.rows] == ts
        assert rep.bound == max(r.k_t + r.err for r in rep.rows)
        assert not rep.growth_flag
        ts += [Fraction(1, 1600), GaussianRational(0, Fraction(1, 1600))]
        assert not uniform_bound_check(X * X - Y * Y, 0.2, 0.5, ts, CFG).growth_flag

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
        # rows of one |t| count once, by their largest K_t
        twin = SweepRow(t=-1e-3, k_t=0.0, err=1e-6, i_t=0, j_t=0, ratio=1)
        logs = rows(log_growth)
        assert growth_trend(logs[:2] + [twin] + logs[2:])
        assert growth_trend(logs[:2] + [logs[1]] + logs[2:])


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
            (res,) = exponent_probe_1d(f, [1.0], c, CFG)
            assert res.multiplicity_estimate == pytest.approx(m, rel=0.05)

    def test_constant_has_zero_multiplicity(self):
        (res,) = exponent_probe_1d(z_poly(2), [0.3], 0.3, CFG)
        assert res.slope == pytest.approx(2.0, abs=0.01)
        assert res.multiplicity_estimate == pytest.approx(0.0, abs=0.02)

    def test_product_of_separated_linear_factors(self):
        one = GaussianRational(1)
        f = (UnivariatePoly([-one, one])
             * UnivariatePoly([one * 3, one])
             * UnivariatePoly([one * GaussianRational(0, 4), one]))
        (res,) = exponent_probe_1d(f, [1.0], 0.4, CFG)
        assert res.multiplicity_estimate == pytest.approx(1, rel=0.05)

    def test_guards(self):
        with pytest.raises(ValueError):
            exponent_probe_1d(z_poly(0, 1), [0.0], 0.0, CFG)

    def test_an_underflowing_fiber_is_named(self):
        # the cusp's zeros at t = 1e-170 lie at |x| = 1e-68: |f| reads 0.0 on
        # every probe annulus, so every cell is dropped and each mass is 0
        t = 1e-170
        fib = substitute_fiber(parse_expression("y^2 - x^3"), t)
        zeros = [z.location_complex() for z in fiber_zeros(fib, t)]
        assert len(zeros) == 5 and abs(zeros[0]) == pytest.approx(1e-68, rel=1e-6)
        with pytest.raises(ValueError, match=r"fewer than 4 usable annuli: \|f\| underflows "
                                             r"on the probe annuli.*every cell is dropped"):
            exponent_probe_1d(fib, zeros, 0.15, CFG)

    def test_too_few_annuli_without_underflow_keep_the_short_message(self, monkeypatch):
        # masses that are not finite, with cells used, are not an underflow
        engine = quadrature._adaptive_polar

        def no_mass(parts, cfg):
            return [([math.inf] * len(m), e, n, f) for m, e, n, f in engine(parts, cfg)]

        monkeypatch.setattr(quadrature, "_adaptive_polar", no_mass)
        with pytest.raises(ValueError, match=r"^fewer than 4 usable annuli$"):
            exponent_probe_1d(z_poly(-1, 1), [1.0], 0.4, CFG)


def sector_meta(m):
    return {"angle": f"1/{m} of the circle, times {m}"}


class TestUpperHalfPlane:
    """A part symmetric under x -> conj(x) (m = 2k, _symmetry) folds the
    reflection as well as its rotations; with no rotation (k = 1) it is
    integrated over theta in [0, pi] and doubled, and a part with no symmetry
    at all (m = 1) runs on the full circle as before."""

    T_IMAG = GaussianRational(0, Fraction(1, 1000))

    @pytest.mark.parametrize("text, t, center, chart, half", [
        ("y^2 - x^3", Fraction(1, 1000), 0j, "x", True),
        ("y^2 - x^3", Fraction(-1, 1000), 0j, "y", True),
        ("y^2 - x^3", Fraction(1, 1000), 0.5j, "x", False),   # a centre off the axis
        ("y^2 - x^3", T_IMAG, 0j, "x", True),                 # t^2 is real
        ("y^2 - x^3", T_IMAG, 0j, "y", False),                # x = t/y is not
        ("(x + y)^2", T_IMAG, 0j, "x", False),
        ("x + y", Fraction(1, 100), 0.25 + 0j, "x", True),
    ])
    def test_the_condition(self, text, t, center, chart, half):
        form = substitute_fiber(parse_expression(text), t)
        k, m = quadrature._symmetry(form, center, chart)
        assert (m == 2 * k) is half

    @pytest.mark.parametrize("text, c, values, cells", [
        # the full-circle engine's reports (I, J, K) before the half-plane
        # path; both fibers fold rotations now ((x + y)^2 by 2, y^3 - x^5 by
        # 8), so _symmetry is held at (1, 1) to pin the m = 1 path
        ("(x + y)^2", 0.3, [(4.2734606681587195, 0.0006743106699558291),
                            (4.2734606681587195, 0.000674310669956192),
                            (8.546921336317444, 0.0011790097271592945)], 344),
        ("y^3 - x^5", 0.15, [(6.042736633434045, 0.0013806241886340997),
                             (2.6309555699669422, 0.00012257218868846705),
                             (8.673692203400984, 0.0014644483384679205)], 152),
    ])
    def test_a_non_real_numerator_runs_as_before(self, text, c, values, cells, monkeypatch):
        monkeypatch.setattr(quadrature, "_symmetry", lambda *_: (1, 1))
        kr = fiber_integral_K(parse_expression(text), self.T_IMAG, c, 0.5)
        reports = (kr.i_report, kr.j_report, kr.k_report)
        assert [(r.value, r.error_estimate) for r in reports] == values
        for r in reports:
            assert (r.cells_used, r.refinement_flags, r.meta) == (cells, (), {})

    def test_a_fiber_with_no_symmetry_runs_as_before(self):
        # the full-circle engine's reports (I, J, K) before the sector fold:
        # at t = (3+4i)/5000 the numerator t^2 + t^2 x - x^5 has exponent
        # gaps 1 and 4 and non-real coefficients, so m = 1
        f = parse_expression("y^2 - x^3 + x*y^2")
        t = GaussianRational(Fraction(3, 5000), Fraction(4, 5000))
        assert quadrature._symmetry(substitute_fiber(f, t), 0j, "x") == (1, 1)
        kr = fiber_integral_K(f, t, 0.2, 0.5)
        reports = (kr.i_report, kr.j_report, kr.k_report)
        assert [(r.value, r.error_estimate) for r in reports] == [
            (3.902691324326717, 0.0006900717143004197),
            (2.256885638508899, 0.00013769890593256294),
            (6.159576962835616, 0.0008161349661888827)]
        for r in reports:
            assert (r.cells_used, r.refinement_flags, r.meta) == (224, (), {})

    def test_a_real_fiber_reports_the_half_plane(self):
        # y^2 - x^3 + x*y^2 has no rotation (its fiber's gaps are 1 and 4)
        f = parse_expression("y^2 - x^3 + x*y^2")
        kr = fiber_integral_K(f, Fraction(1, 1000), 0.2, 0.5)
        for r in (kr.i_report, kr.j_report, kr.k_report):
            assert r.meta == sector_meta(2)
        rep = annulus_integral(substitute_fiber(f, Fraction(1, 100)), 0.3,
                               Annulus(0.05, 0.5), chart="y")
        assert rep.meta == sector_meta(2)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_an_even_half_grid_is_the_upper_full_grid(self, n):
        cfg = QuadratureConfig(angular_cells=n)
        ann = Annulus(0.01, 0.5)
        half, _ = quadrature._initial_grid(ann, cfg, (), 0j, 1, 2)
        full, _ = quadrature._initial_grid(ann, cfg, (), 0j, 1, 1)
        full = full.reshape(-1, n, 4)[:, :n // 2].reshape(-1, 4)
        assert half.tolist() == full.tolist()

    def test_an_odd_cell_count_rounds_up(self):
        cfg = QuadratureConfig(angular_cells=5)
        cells, _ = quadrature._initial_grid(Annulus(0.01, 0.5), cfg, (), 0j, 1, 2)
        edges = sorted(set(cells[:, 2].tolist() + cells[:, 3].tolist()))
        assert edges == pytest.approx([0, math.pi / 3, 2 * math.pi / 3, math.pi], abs=1e-15)
        assert edges[-1] == math.pi

    def test_a_doubled_mass_past_the_float_range_is_flagged(self):
        # |1e-300|^(-1) over A(1, 8920): the half plane holds 1.25e308, the
        # circle 2.5e308; the doubling raises no RuntimeWarning (an error here)
        rep = annulus_integral(z_poly(Fraction(1, 10 ** 300)), 0.5, Annulus(1.0, 8920.0))
        assert rep.meta == sector_meta(2)
        assert (rep.value, rep.converged) == (math.inf, False)
        assert rep.refinement_flags == ("float-overflow",)


class TestSymmetrySector:
    """A part about 0 whose numerator is x^j P(x^k) is invariant under
    x -> exp(2 pi i/k) x, and integrated over one sector of its symmetry
    group, of order m = k or 2k (with x -> conj(x)), times m."""

    T_IMAG = GaussianRational(0, Fraction(1, 1000))

    @pytest.mark.parametrize("text, orders", [
        # (k, m) at t = 1/1000, -1/1000 and i/1000, in the x chart
        ("y^2 - x^3", [(5, 10), (5, 10), (5, 10)]),
        ("x^2 - y^2", [(4, 8), (4, 8), (4, 8)]),
        ("(x + y)^2", [(2, 4), (2, 4), (2, 2)]),
        ("y^3 - x^5", [(8, 16), (8, 16), (8, 8)]),
        ("x + y", [(2, 4), (2, 4), (2, 2)]),
        ("y^2 - x^3 + x*y^2", [(1, 2), (1, 2), (1, 2)]),
    ])
    def test_the_order_about_0(self, text, orders):
        ts = (Fraction(1, 1000), Fraction(-1, 1000), self.T_IMAG)
        got = [quadrature._symmetry(substitute_fiber(parse_expression(text), t), 0j, "x")
               for t in ts]
        assert got == orders

    @pytest.mark.parametrize("text, t, center, chart, order", [
        ("y^2 - x^3", T_IMAG, 0j, "y", (5, 5)),           # x = t/y is not real
        ("y^3 - x^5", Fraction(1, 1000), 0j, "y", (8, 16)),
        ("y^2 - x^3", Fraction(1, 1000), 0.25 + 0j, "x", (1, 2)),
        ("y^2 - x^3", Fraction(1, 1000), 0.5j, "x", (1, 1)),
        ("y^3 - x^5", T_IMAG, 0.25 + 0j, "x", (1, 1)),
    ])
    def test_the_order_on_the_y_chart_and_off_0(self, text, t, center, chart, order):
        form = substitute_fiber(parse_expression(text), t)
        assert quadrature._symmetry(form, center, chart) == order

    def test_a_monomial_takes_no_rotation(self):
        assert quadrature._symmetry(LaurentForm(z_poly(0, 0, 0, 1), 0), 0j, "x") == (1, 2)

    @pytest.mark.parametrize("n, m", [(8, 10), (8, 16), (12, 5), (16, 4), (5, 3)])
    def test_the_sector_grid(self, n, m):
        cfg = QuadratureConfig(angular_cells=n)
        cells, _ = quadrature._initial_grid(Annulus(0.01, 0.5), cfg, (), 0j, m, m)
        edges = sorted(set(cells[:, 2].tolist() + cells[:, 3].tolist()))
        cut = -(-n // m)
        assert edges == pytest.approx([2 * math.pi / m * j / cut for j in range(cut + 1)],
                                      abs=1e-15)
        assert edges[-1] == 2 * math.pi / m

    def test_each_zero_orbit_presplits_its_folded_point(self):
        # the cusp at t = i/100: x^5 = t^2 < 0, zeros at angles pi/5 + 2pi j/5,
        # so the sector [0, pi/5] of (5, 10) holds its one on the far edge
        t = GaussianRational(0, Fraction(1, 100))
        fib = substitute_fiber(parse_expression("y^2 - x^3"), t)
        k, m = quadrature._symmetry(fib, 0j, "x")
        assert (k, m) == (5, 10)
        zeros = [z.location_complex() for z in degeneration._form_zeros(fib)]
        assert len(zeros) == 5
        cells, depth = quadrature._initial_grid(Annulus(0.02, 0.5), CFG, zeros, 0j, k, m)
        for z in zeros:
            theta = math.atan2(z.imag, z.real) % (2 * math.pi / k)
            theta = min(theta, 2 * math.pi / k - theta)
            assert theta == pytest.approx(math.pi / 5, rel=1e-15)
            inside = ((cells[:, 0] <= math.log(abs(z))) & (math.log(abs(z)) <= cells[:, 1])
                      & (cells[:, 2] <= theta) & (theta <= cells[:, 3]))
            assert inside.any() and (depth[inside] == 2).all()

    def test_a_reflected_zero_near_the_axis_is_presplit(self):
        # a zero an angle of 1e-9 below the axis, about a real centre: its
        # mirror above the axis is in the half plane's first cell
        z = complex(math.cos(-1e-9), math.sin(-1e-9)) * 0.1
        cells, depth = quadrature._initial_grid(Annulus(0.02, 0.5), CFG, [z], 0j, 1, 2)
        inside = ((cells[:, 0] <= math.log(0.1)) & (math.log(0.1) <= cells[:, 1])
                  & (cells[:, 2] <= 1e-9) & (1e-9 <= cells[:, 3]))
        assert inside.any() and (depth[inside] == 2).all()

    def test_reports_carry_the_order(self):
        kr = fiber_integral_K(parse_expression("y^2 - x^3"), Fraction(1, 1000), 0.2, 0.5)
        for r in (kr.i_report, kr.j_report, kr.k_report):
            assert r.meta == sector_meta(10)
        rep = annulus_integral(substitute_fiber(X + Y, Fraction(1, 100)), 0.3,
                               Annulus(0.05, 0.5), chart="y")
        assert rep.meta == sector_meta(4)
