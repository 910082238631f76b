"""Exact algebra: field/ring axioms, fiber restriction, vanishing orders."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cselab import (
    BivariatePoly,
    GaussianRational,
    IdenticallyZeroError,
    LaurentForm,
    MixedFunction,
    UnivariatePoly,
    divides_power,
    numeric_fiber,
    poly_gcd,
    squarefree_decomposition,
    substitute_fiber,
    vanishing_order,
)

# the kernel witness for n = 1 (cross-derived in test_counterexamples)
P1 = UnivariatePoly([1, 0, -9, 16, -9, 0, 1])


def gr(re, im=0):
    return GaussianRational(re, im)


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussian = st.builds(GaussianRational, small_fraction, small_fraction)


def bivariate(max_points=5, max_exp=4):
    point = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(point, gaussian, max_size=max_points).map(BivariatePoly)


def univariate(max_deg=5):
    return st.lists(gaussian, max_size=max_deg + 1).map(UnivariatePoly)


class TestGaussianRational:
    def test_exact_equality_lowest_terms(self):
        assert gr(Fraction(2, 4)) == gr(Fraction(1, 2))
        assert gr(1, 2) != gr(1, 3)

    def test_division_exact(self):
        a = gr(Fraction(3, 7), Fraction(-2, 5))
        assert a / a == gr(1)
        assert (a * gr(0, 1)) / gr(0, 1) == a

    def test_pow_negative(self):
        a = gr(2, 1)
        assert a ** -2 == (a * a).inverse()

    @given(a=gaussian, b=gaussian, c=gaussian)
    @settings(max_examples=200, derandomize=True)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == gr(0)
        if not a.is_zero():
            assert a * a.inverse() == gr(1)

    def test_exact_sqrt(self):
        assert gr(Fraction(9, 4)).exact_sqrt() == gr(Fraction(3, 2))
        with pytest.raises(ValueError):
            gr(2).exact_sqrt()


class TestRingOps:
    def test_difference_of_squares(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_power_rule(self):
        z2 = UnivariatePoly.monomial(2)
        assert z2.derivative() == UnivariatePoly.monomial(1, 2)

    def test_derivative_of_constant_is_zero(self):
        assert UnivariatePoly([gr(5, 2)]).derivative().is_zero()
        assert BivariatePoly.monomial(0, 0, 3).derivative("x").is_zero()

    def test_kernel_witness_is_critical_at_one(self):
        # P_1 has a zero of high order at z = 1, so P_1'(1) = 0
        assert P1.derivative().evaluate(1) == gr(0)

    @given(a=bivariate(), b=bivariate(), c=bivariate())
    @settings(max_examples=100, derandomize=True)
    def test_ring_axioms_bivariate(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a + (-a)).is_zero()

    @given(a=univariate(), b=univariate())
    @settings(max_examples=100, derandomize=True)
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs


class TestEvaluate:
    def test_simple_values(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        assert (x + y).evaluate(1, 2) == gr(3)
        assert (y * y - x * x * x).evaluate(0, 0) == gr(0)

    def test_mixed_function_diagonal_cancellation(self):
        # x + y - 2*|xy|^(1/2) vanishes on the positive diagonal
        f = MixedFunction(BivariatePoly.variable("x") + BivariatePoly.variable("y"),
                          -2, 1)
        s = Fraction(3, 7)
        assert f.evaluate(s, s) == gr(0)
        val = f.evaluate_complex(0.25, 0.25)
        assert abs(val) < 1e-15

    def test_mixed_exact_needs_square(self):
        f = MixedFunction(BivariatePoly.variable("x"), 1, 1)
        with pytest.raises(ValueError):
            f.evaluate(2, 1)  # |xy| = 2 has no exact rational root


class TestSubstituteFiber:
    def test_line(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        form = substitute_fiber(x + y, Fraction(1, 100))
        assert form.pole_order == 1
        assert form.numerator == UnivariatePoly([Fraction(1, 100), 0, 1])

    def test_cusp(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        t = Fraction(1, 10)
        form = substitute_fiber(y * y - x ** 3, t)
        assert form.pole_order == 2
        assert form.numerator == UnivariatePoly([t * t, 0, 0, 0, 0, -1])

    def test_radial_collapses_to_square(self):
        # (x + y - 2|xy|^(1/2)) on xy = s^2 is (x - s)^2 / x
        f = MixedFunction(BivariatePoly.variable("x") + BivariatePoly.variable("y"),
                          -2, 1)
        s = Fraction(1, 10)
        form = substitute_fiber(f, s * s, s=s)
        z = UnivariatePoly([-s, 1])
        assert form.combined_numerator() == z * z
        assert form.pole_order == 1

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            substitute_fiber(BivariatePoly.variable("x"), 0)

    def test_float_t_rejected_exact_path(self):
        with pytest.raises(TypeError):
            substitute_fiber(BivariatePoly.variable("x"), 1e-3)

    @given(f=bivariate(max_points=4, max_exp=3),
           t=st.fractions(min_value=Fraction(1, 40), max_value=2,
                          max_denominator=40))
    @settings(max_examples=60, derandomize=True)
    def test_agrees_with_direct_evaluation(self, f, t):
        try:
            form = substitute_fiber(f, t)
        except ValueError:
            return
        rng = np.random.default_rng(7)
        pts = 0.1 + rng.random(20) * 2 + 1j * (rng.random(20) - 0.5)
        direct = f.evaluate_complex(pts, complex(float(t)) / pts)
        via_form = form.evaluate_complex(pts)
        scale = np.maximum(np.abs(direct), 1.0)
        assert np.all(np.abs(direct - via_form) <= 1e-12 * scale)

    @given(f=bivariate(max_points=5, max_exp=4),
           t=st.fractions(min_value=Fraction(1, 30), max_value=1,
                          max_denominator=30))
    @settings(max_examples=60, derandomize=True)
    def test_numerator_not_divisible_by_x(self, f, t):
        try:
            form = substitute_fiber(f, t)
        except ValueError:
            return
        if form.numerator.is_zero() or form.pole_order == 0:
            return
        assert form.numerator.valuation() == 0

    def test_numeric_fiber_matches_exact(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = y * y - x ** 3 + x * y
        exact = substitute_fiber(f, Fraction(1, 8)).to_numeric()
        numeric = numeric_fiber(f, 0.125)
        assert np.allclose(exact.coeffs, numeric.coeffs)
        assert exact.pole_order == numeric.pole_order


class TestVanishingOrder:
    def test_double_zero_after_radial_collapse(self):
        f = MixedFunction(BivariatePoly.variable("x") + BivariatePoly.variable("y"),
                          -2, 1)
        s = Fraction(1, 10)
        form = substitute_fiber(f, s * s, s=s)
        assert vanishing_order(form, s) == 2

    def test_kernel_witness_order_four(self):
        assert vanishing_order(P1, 1) == 4
        # fourth derivative at 1 is 144, so the order is not 5
        d4 = P1.derivative().derivative().derivative().derivative()
        assert d4.evaluate(1) == gr(144)

    def test_nonvanishing_point(self):
        assert vanishing_order(UnivariatePoly.monomial(3), 1) == 0

    def test_identically_zero(self):
        with pytest.raises(IdenticallyZeroError):
            vanishing_order(UnivariatePoly.zero(), 1)

    @given(a=univariate(3), b=univariate(3),
           p=st.fractions(min_value=-3, max_value=3, max_denominator=5))
    @settings(max_examples=100, derandomize=True)
    def test_order_additive_on_products(self, a, b, p):
        if a.is_zero() or b.is_zero():
            return
        lhs = vanishing_order(a * b, p)
        assert lhs == vanishing_order(a, p) + vanishing_order(b, p)


def order_by_derivatives(p, a):
    """Independent oracle: the first k with P^(k)(a) != 0, by exact Horner."""
    k = 0
    while p.evaluate(a).is_zero():
        p = p.derivative()
        k += 1
    return k


# (1+i)/2 = u/d with u = 1+i, d = 2, and gcd(2, 1+i) = 1+i is not a unit
HALF_ONE_PLUS_I = gr(Fraction(1, 2), Fraction(1, 2))
gaussian_point = st.one_of(
    st.sampled_from([HALF_ONE_PLUS_I, gr(0, 1), gr(Fraction(-2, 3), Fraction(1, 3))]),
    gaussian)


class TestVanishingOrderGaussian:
    @given(q=univariate(3), a=gaussian_point, m=st.integers(0, 4))
    @settings(max_examples=150, derandomize=True)
    def test_constructed_order(self, q, a, m):
        assume(not q.evaluate(a).is_zero())
        p = UnivariatePoly([-a, 1]) ** m * q
        assert vanishing_order(p, a) == m == order_by_derivatives(p, a)

    def test_laurent_form_with_radial_constant(self):
        # on xy = 1/4: x + 2i/(4x) - (1+i) = (x - (1+i)/2)^2 / x
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = MixedFunction(x + y.scale(gr(0, 2)), gr(-2, -2), 1)
        form = substitute_fiber(f, Fraction(1, 4), s=Fraction(1, 2))
        assert not form.constant.is_zero()
        assert vanishing_order(form, HALF_ONE_PLUS_I) == 2
        assert order_by_derivatives(form.combined_numerator(), HALF_ONE_PLUS_I) == 2
        assert vanishing_order(form, HALF_ONE_PLUS_I.conjugate()) == 0


class TestDividesPower:
    def test_simple(self):
        sq = UnivariatePoly([1, -2, 1])  # (z-1)^2
        assert divides_power(sq, 1, 2)
        assert not divides_power(sq, 1, 3)

    def test_kernel_witness(self):
        assert divides_power(P1, 1, 4)
        assert not divides_power(P1, 1, 5)

    def test_zeroth_power_vacuous(self):
        assert divides_power(UnivariatePoly.monomial(2), 5, 0)


class TestGcdAndSquarefree:
    def test_gcd_of_shared_factor(self):
        f = UnivariatePoly([-1, 1])  # z - 1
        g = UnivariatePoly([2, 1])   # z + 2
        assert poly_gcd(f * g, f * f) == f

    def test_squarefree_decomposition_structure(self):
        f = UnivariatePoly([-1, 1])
        g = UnivariatePoly([2, 1])
        p = f * f * f * g
        parts = dict()
        for factor, mult in squarefree_decomposition(p):
            parts[mult] = factor.monic()
        assert parts == {1: g.monic(), 3: f.monic()}


class TestLaurentForm:
    def test_constant_folding(self):
        form = LaurentForm(UnivariatePoly([1, 0, 1]), 1, constant=-2)
        combined = form.combined_numerator()
        assert combined == UnivariatePoly([1, -2, 1])

    def test_normalization_strips_common_x(self):
        # (x^2 + x^3)/x^2 should normalize to (1 + x)/x^0... pole fully cancels
        form = LaurentForm(UnivariatePoly([0, 0, 1, 1]), 2)
        assert form.pole_order == 0
        assert form.numerator == UnivariatePoly([1, 1])

    def test_evaluate_matches_combined(self):
        form = LaurentForm(UnivariatePoly([1, 2, 3]), 2, constant=5)
        x = Fraction(3, 2)
        expected = (gr(1) + gr(2) * gr(x) + gr(3) * gr(x) ** 2) / gr(x) ** 2 + gr(5)
        assert form.evaluate(x) == expected
