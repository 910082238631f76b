"""Fiber zeros, exponents, the resolution-data formula, semicontinuity."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cselab import (
    BivariatePoly,
    Divisor,
    Exponent,
    FiberZero,
    GaussianRational,
    IdenticallyZeroError,
    LaurentForm,
    MixedFunction,
    builtin_catalog,
    central_exponent,
    fiber_exponent,
    fiber_zeros,
    lct_from_resolution,
    lct_polygon_estimate,
    load_catalog,
    parse_expression,
    semicontinuity_check,
    substitute_fiber,
)
from cselab import degeneration, polynomials
from cselab.degeneration import _nearest_fraction, _roots_of_unipoly
from cselab.polynomials import UnivariatePoly, squarefree_decomposition
from cselab.reports import render_json

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")


def diag_mixed():
    """x + y - 2|xy|^(1/2): vanishes to order 2 along the diagonal fibers."""
    return MixedFunction(X + Y, -2, 1)


class TestFiberZeros:
    def test_line_exact_conjugate_pair(self):
        zs = fiber_zeros(X + Y, Fraction(1, 100), delta=0.1)
        assert len(zs) == 2
        assert all(z.multiplicity == 1 and z.exactness == "exact" for z in zs)
        locs = sorted(str(z.location) for z in zs)
        assert locs == ["-1/10*i", "1/10*i"]

    def test_radial_double_zero(self):
        s = Fraction(1, 10)
        zs = fiber_zeros(diag_mixed(), s * s, delta=0.2)
        assert len(zs) == 1
        z = zs[0]
        assert z.multiplicity == 2
        assert z.exactness == "exact"
        assert z.location == GaussianRational(s)

    def test_cusp_five_simple_zeros(self):
        zs = fiber_zeros(Y * Y - X ** 3, Fraction(1, 10000), delta=0.1)
        assert len(zs) == 5
        assert all(z.multiplicity == 1 for z in zs)
        radius = abs(zs[0].location_complex())
        assert radius == pytest.approx(float(Fraction(1, 10000)) ** (2 / 5))
        # one modulus for all five: listed by phase, whatever their last bits
        phases = [cmath.phase(z.location_complex()) for z in zs]
        assert phases == sorted(phases)
        assert phases[2] == 0.0 and zs[2].location_complex().imag == 0.0

    def test_polydisc_filter_uses_both_coordinates(self):
        # fiber zeros of y^2 - x^5 sit at |x| = t^(2/7) which is outside
        # the polydisc at t = 1/100 (x large), but inside at t = 1e-5
        f = Y * Y - X ** 5
        assert fiber_zeros(f, Fraction(1, 100), delta=0.1) == []
        assert len(fiber_zeros(f, Fraction(1, 10 ** 5), delta=0.1)) == 7

    def test_a_form_of_another_t_is_rejected(self):
        # the form of y - 1/10 at t = 1/100 has its zero at 1/10; the fiber
        # at t = 1/1000 has it at 1/100, so the pair is refused
        form = substitute_fiber(parse_expression("y - 1/10"), Fraction(1, 100))
        assert [str(z.location) for z in fiber_zeros(form, Fraction(1, 100))] == ["1/10"]
        with pytest.raises(ValueError, match="belongs to t = 1/100"):
            fiber_zeros(form, Fraction(1, 1000))

    def test_exact_location_follows_the_location(self):
        exact = FiberZero(GaussianRational(Fraction(1, 2)), 2)
        numeric = FiberZero(0.5 + 0j, 2)
        assert exact.exact_location and not numeric.exact_location
        assert (exact.exactness, numeric.exactness) == ("exact", "numeric")
        assert exact == numeric and hash(exact) == hash(numeric)

    def test_identically_zero_fiber(self):
        # y^2 + x*y^3 restricted to xy = -1 vanishes identically
        f = Y * Y + X * Y ** 3
        with pytest.raises(IdenticallyZeroError):
            fiber_zeros(f, -1, delta=math.inf)

    def test_numeric_path_matches_exact_multiplicities(self):
        f = (X + Y) ** 2
        exact = fiber_zeros(f, Fraction(1, 1000), delta=0.2)
        numeric = fiber_zeros(f, 1e-3, delta=0.2)
        assert sorted(z.multiplicity for z in exact) == [2, 2]
        assert sorted(z.multiplicity for z in numeric) == [2, 2]
        for ze in exact:
            zn = min(numeric,
                     key=lambda z: abs(z.location_complex() - ze.location_complex()))
            assert abs(ze.location_complex() - zn.location_complex()) < 1e-8
            assert zn.multiplicity == ze.multiplicity

    def test_float_t_takes_the_exact_path(self):
        # a float t is a dyadic rational: its multiplicities are exact too
        f = (X + Y) ** 4 * (Y * Y - X ** 3) ** 2
        zs = fiber_zeros(f, 1e-3)
        assert sorted(z.multiplicity for z in zs) == [2, 2, 2, 2, 2, 4, 4]
        assert zs == fiber_zeros(f, Fraction(1e-3))
        exps = {fiber_exponent(f, 1e-3, z.location) for z in zs}
        assert exps == {Exponent(Fraction(1, 4)), Exponent(Fraction(1, 2))}
        for z in zs:
            assert fiber_exponent(f, 1e-3, z.location) == \
                Exponent(Fraction(1, z.multiplicity))

    def test_each_exact_candidate_is_used_once(self):
        # four simple zeros, two of them 5e-9 from the exact zeros +-1/10
        f = (X - Y) * (X - Fraction(10000001, 10000000) * Y)
        zs = fiber_zeros(f, Fraction(1, 100), delta=1)
        assert [z.multiplicity for z in zs] == [1, 1, 1, 1]
        exact = sorted(str(z.location) for z in zs if z.exact_location)
        assert exact == ["-1/10", "1/10"]
        near = [z.location_complex() for z in zs if not z.exact_location]
        r = math.sqrt(10000001 / 10 ** 9)
        assert sorted(x.real for x in near) == pytest.approx([-r, r], rel=1e-12)
        assert all(abs(x.imag) <= 1e-12 for x in near)
        for z in zs:
            assert fiber_exponent(f, Fraction(1, 100), z.location) == Exponent(1)

    def test_gaussian_fiber_of_a_scan_germ(self, monkeypatch):
        # the degree-17 germ L^4 X^3 C^2 D U of the scan benchmark's first
        # slot at a non-real t: every gcd of its fiber numerator has Gaussian
        # coefficients, so Yun's loop runs on the pseudo-remainder gcd alone
        t = GaussianRational(Fraction(1, 400), Fraction(1, 400))
        one = BivariatePoly.monomial(0, 0)
        factors = [  # (factor, multiplicity, (k, w): its fiber zeros are x^k = w)
            (Y - X * Fraction(9, 4), 4, (2, t / Fraction(9, 4))),
            (X + Y * Fraction(2, 5), 3, (2, -Fraction(2, 5) * t)),
            (Y ** 2 - X ** 3 * Fraction(5, 4), 2, (5, t ** 2 / Fraction(5, 4))),
            (X ** 2 + Y ** 3 * Fraction(5, 2), 1, (5, -Fraction(5, 2) * t ** 3)),
            (one + X + Y, 1, None),  # a unit: its fiber zeros leave the polydisc
        ]
        f = one
        expected = []
        for g, m, kw in factors:
            f = f * g ** m
            if kw:
                k, w = kw[0], kw[1].to_complex()
                r, phi = abs(w) ** (1 / k), cmath.phase(w)
                expected += [(cmath.rect(r, (phi + 2 * math.pi * j) / k), m) for j in range(k)]
        calls = []
        heuristic, prs = polynomials._heuristic_gcd, polynomials._prs_gcd
        monkeypatch.setattr(polynomials, "_heuristic_gcd",
                            lambda a, b: calls.append("heuristic") or heuristic(a, b))
        monkeypatch.setattr(polynomials, "_prs_gcd",
                            lambda a, b: calls.append("prs") or prs(a, b))
        zs = fiber_zeros(f, t, delta=0.5)
        assert calls and set(calls) == {"prs"}
        assert len(zs) == len(expected) == 14
        for z in zs:
            loc = z.location_complex()
            root, m = min(expected, key=lambda e: abs(e[0] - loc))
            assert abs(root - loc) <= 1e-10 * abs(root)
            assert z.multiplicity == m
            expected.remove((root, m))
        assert [str(z.location) for z in zs if z.exact_location] == ["1/10*i"]


# k/d with d <= 6 and |k/d| <= 3
small_fraction = st.integers(1, 6).flatmap(
    lambda d: st.integers(-3 * d, 3 * d).map(lambda k: Fraction(k, d)))


def from_roots(roots, lead=1):
    p = UnivariatePoly([lead])
    for r in roots:
        p = p * UnivariatePoly([-r, 1])
    return p


def assert_same_roots(found, roots, rel=1e-10):
    """found is roots (complex floats) up to order, each within rel."""
    assert len(found) == len(roots)
    left = list(found)
    for r in roots:
        j = min(range(len(left)), key=lambda i: abs(left[i] - r))
        assert abs(left.pop(j) - r) <= rel * max(1.0, abs(r))


def assert_conjugate_closed(roots):
    """Exact conjugate pairs, and real roots with imaginary part +0.0."""
    assert sorted((z.real, z.imag) for z in roots) == \
        sorted((z.real, -z.imag) for z in roots)
    assert all(math.copysign(1.0, z.imag) > 0 for z in roots if z.imag == 0)


@st.composite
def separated_roots(draw, real_coeffs):
    """Distinct Gaussian-rational roots at least 1/10 apart; with real_coeffs,
    real roots and conjugate pairs (x +- iy, y != 0)."""
    if real_coeffs:
        reals = draw(st.lists(small_fraction, max_size=5, unique=True))
        pairs = draw(st.lists(st.tuples(small_fraction, small_fraction.filter(bool)),
                              max_size=3, unique_by=lambda p: (p[0], abs(p[1]))))
        roots = [GaussianRational(x) for x in reals]
        roots += [GaussianRational(x, s * abs(y)) for x, y in pairs for s in (1, -1)]
    else:
        roots = draw(st.lists(st.builds(GaussianRational, small_fraction, small_fraction),
                              min_size=1, max_size=8, unique=True))
    assume(roots)
    cs = [r.to_complex() for r in roots]
    assume(all(abs(a - b) >= 0.1 for i, a in enumerate(cs) for b in cs[i + 1:]))
    return roots


class TestAberthRoots:
    @pytest.mark.parametrize("real_coeffs", [True, False], ids=["Q", "Q(i)"])
    def test_known_separated_roots(self, real_coeffs):
        leads = [1, -3, Fraction(2, 7)] + ([] if real_coeffs else [GaussianRational(1, 2)])

        @given(roots=separated_roots(real_coeffs), lead=st.sampled_from(leads))
        @settings(max_examples=50, derandomize=True, deadline=None)
        def check(roots, lead):
            found = _roots_of_unipoly(from_roots(roots, lead))
            assert_same_roots(found, [r.to_complex() for r in roots])
            if real_coeffs:
                assert_conjugate_closed(found)
                assert sum(z.imag == 0 for z in found) == sum(r.is_real() for r in roots)

        check()

    @given(coeffs=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                           min_size=4, max_size=13),
           real=st.booleans())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_against_numpy_roots(self, coeffs, real):
        p = UnivariatePoly([GaussianRational(a, 0 if real else b) for a, b in coeffs])
        assume(p.degree >= 3 and not p.coeffs[0].is_zero())
        assume(squarefree_decomposition(p) == [(p.monic(), 1)])
        found = _roots_of_unipoly(p)
        expected = np.roots([c.to_complex() for c in reversed(p.coeffs)])
        assert_same_roots(found, list(expected), rel=1e-8)
        if real:
            assert_conjugate_closed(found)

    def test_zero_roots_and_closed_forms(self):
        assert _roots_of_unipoly(UnivariatePoly([0, 2, 1])) == [0j, complex(-2.0, 0.0)]
        # z^2 + 1/10^4: +-i/100 with real part +0.0
        assert _roots_of_unipoly(UnivariatePoly([Fraction(1, 10 ** 4), 0, 1])) == [
            complex(0.0, 0.01), complex(0.0, -0.01)]
        (w,) = _roots_of_unipoly(UnivariatePoly([GaussianRational(1, 1), 2]))
        assert w == complex(-0.5, -0.5)

    def test_roots_of_many_sizes(self):
        # roots from 1e-9 to 1e3 in one factor: the start circles follow
        # the upper hull of log|a_k|, one circle per size
        roots = [Fraction(1, 10 ** 9), Fraction(-3, 10 ** 6), Fraction(7, 10 ** 3),
                 Fraction(1, 2), Fraction(-40), Fraction(900)]
        found = _roots_of_unipoly(from_roots(roots))
        assert sorted(z.real for z in found) == pytest.approx(
            sorted(float(r) for r in roots), rel=1e-13)
        assert all(z.imag == 0 for z in found)

    @pytest.mark.parametrize("p, roots", [
        (UnivariatePoly([Fraction(1, 10 ** 400), 0, 1]), [1e-200j, -1e-200j]),
        (UnivariatePoly([10 ** 400, 0, 1]), [1e200j, -1e200j]),
        (UnivariatePoly([-Fraction(1, 10 ** 340), 0, 0, 0, 0, 1]),
         [1e-68 * cmath.exp(2j * math.pi * k / 5) for k in range(5)]),
    ], ids=["underflow", "overflow", "quintic"])
    def test_a_coefficient_past_the_float_range_is_scaled(self, p, roots):
        # the float image of a_0 is 0.0 or out of range; p(2^s w) has none
        found = _roots_of_unipoly(p)
        assert len(found) == len(roots)
        assert all(min(abs(z - r) for z in found) <= 1e-13 * abs(r) for r in roots)

    def test_coefficients_wider_than_the_float_range_raise(self):
        # 10^-400 stays 10^-400 next to 1 and 1 at every 2^s
        with pytest.raises(ValueError, match="span more than the float range"):
            _roots_of_unipoly(UnivariatePoly([1, Fraction(1, 10 ** 400), 0, 1]))

    def test_unfinished_roots_raise(self, monkeypatch):
        monkeypatch.setattr(degeneration, "ABERTH_MAX_PASSES", 1)
        with pytest.raises(ArithmeticError, match="unresolved"):
            _roots_of_unipoly(from_roots([1, 2, 3, 4, 5]))


SNAP_MAX_DEN = 10 ** 6


@st.composite
def near_small_fraction(draw):
    """A float within 1e-12 of p/q with q <= 10^6."""
    q = draw(st.integers(1, SNAP_MAX_DEN))
    p = draw(st.integers(-10 ** 7, 10 ** 7))
    return p / q + draw(st.floats(-1e-12, 1e-12))


snap_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(min_value=1e6, max_value=1e30).flatmap(lambda x: st.sampled_from((x, -x))),
    st.integers(-10 ** 9, 10 ** 9).map(float),
    st.integers(-10 ** 6, 10 ** 6).map(lambda k: k + 0.5),
    near_small_fraction(),
)


class TestRootSnap:
    @given(x=snap_floats)
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-1.5e-323)
    @example(x=-2.5)
    @example(x=1e6 + 0.5)
    @example(x=-1e300)
    @example(x=1 / 999983)
    @settings(max_examples=2000, derandomize=True)
    def test_int_snap_matches_fraction_limit_denominator(self, x):
        want = Fraction(x).limit_denominator(SNAP_MAX_DEN)
        assert _nearest_fraction(x) == (want.numerator, want.denominator)

    @given(k=st.integers(-50, 50), max_den=st.integers(1, 12))
    @settings(max_examples=300, derandomize=True)
    def test_int_snap_breaks_ties_as_fraction(self, k, max_den):
        # halfway points between fractions with denominators up to max_den,
        # where the two final candidates can be equally near x
        for x in (k / 2, k / (2 * max_den), (k + 0.5) / max_den):
            want = Fraction(x).limit_denominator(max_den)
            assert _nearest_fraction(x, max_den) == (want.numerator, want.denominator)

    @given(roots=separated_roots(False), mults=st.lists(st.integers(1, 3), min_size=8),
           lead=st.sampled_from([1, -3, Fraction(2, 7), GaussianRational(1, 2)]))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_every_gaussian_rational_root_stays_exact(self, roots, mults, lead):
        p = UnivariatePoly([lead])
        for r, m in zip(roots, mults):
            p = p * UnivariatePoly([-r, 1]) ** m
        zs = degeneration._form_zeros(LaurentForm(p, 0))
        assert all(z.exact_location for z in zs)
        assert sorted((str(z.location), z.multiplicity) for z in zs) == \
            sorted((str(r), m) for r, m in zip(roots, mults))

    def test_non_real_roots_of_a_real_t(self):
        # y + 9/4 x on xy = 1/100: x^2 = -t/a = -1/225
        zs = fiber_zeros(Y + Fraction(9, 4) * X, Fraction(1, 100), delta=1)
        assert sorted(str(z.location) for z in zs if z.exact_location) == \
            ["-1/15*i", "1/15*i"]
        assert len(zs) == 2

    def test_roots_of_a_non_real_t(self):
        # y - x on xy = i/50: x^2 = i/50, x = +-(1 + i)/10
        zs = fiber_zeros(Y - X, GaussianRational(0, Fraction(1, 50)), delta=1)
        assert sorted(str(z.location) for z in zs if z.exact_location) == \
            ["-1/10-1/10*i", "1/10+1/10*i"]
        assert len(zs) == 2

    def test_root_with_a_denominator_just_below_the_cap(self):
        # x - 9y on xy = 1/q^2, q = 999983 prime: x = +-3/q, and q divides
        # the factor's denominator q^2
        q = 999983
        zs = fiber_zeros(X - 9 * Y, Fraction(1, q * q), delta=0.1)
        assert sorted(str(z.location) for z in zs if z.exact_location) == \
            [f"-3/{q}", f"3/{q}"]
        assert len(zs) == 2

    def test_one_exact_test_per_exact_root(self, monkeypatch):
        # the scan germ L^4 X^3 C^2 D U at t = 1/43^2: of its 16 fiber roots
        # only the two of y - 9/4 x (x = +-2/129) are Gaussian rationals
        one = BivariatePoly.monomial(0, 0)
        f = ((Y - Fraction(9, 4) * X) ** 4 * (X + Fraction(2, 5) * Y) ** 3
             * (Y ** 2 - Fraction(5, 4) * X ** 3) ** 2
             * (X ** 2 + Fraction(5, 2) * Y ** 3) * (one + X + Y))
        calls = []
        divides_power = degeneration.divides_power
        monkeypatch.setattr(degeneration, "divides_power",
                            lambda *a: calls.append(a) or divides_power(*a))
        zs = fiber_zeros(f, Fraction(1, 43 ** 2), delta=math.inf)
        exact = [z for z in zs if z.exact_location]
        assert sorted(str(z.location) for z in exact) == ["-2/129", "2/129"]
        assert len(zs) == 16
        assert len(calls) == len(exact)


class TestFiberExponent:
    def test_radial_half(self):
        s = Fraction(1, 10)
        assert fiber_exponent(diag_mixed(), s * s, (s, s)) == Exponent(Fraction(1, 2))

    def test_line_simple_zero_exponent_one(self):
        t = Fraction(1, 100)
        zs = fiber_zeros(X + Y, t, delta=0.1)
        for z in zs:
            assert fiber_exponent(X + Y, t, z.location) == Exponent(1)

    def test_float_point_near_simple_zero(self):
        # the zero at x = i*sqrt(t) located numerically still reports 1
        t = Fraction(1, 100)
        x0 = 1j * math.sqrt(float(t))
        assert fiber_exponent(X + Y, t, x0) == Exponent(1)

    def test_nonvanishing_point_infinite(self):
        assert fiber_exponent(X + Y, Fraction(1, 100), Fraction(1, 2)).is_infinite
        assert fiber_exponent(X + Y, Fraction(1, 100), 0.5 + 0.5j).is_infinite

    def test_min_over_components_alias(self):
        f = Y * Y - X ** 3
        assert central_exponent(f, "min-over-components") == \
            central_exponent(f, "min")

    @pytest.mark.parametrize("x0", [Fraction(0), 0, 0.0, 0j])
    def test_point_at_x_zero_rejected(self, x0):
        with pytest.raises(ValueError, match="x != 0"):
            fiber_exponent(X + Y, Fraction(1, 100), x0)

    def test_point_off_fiber_rejected(self):
        with pytest.raises(ValueError):
            fiber_exponent(X + Y, Fraction(1, 100), (Fraction(1, 2), Fraction(1, 2)))

    @pytest.mark.parametrize("x0", [GaussianRational(0, Fraction(1, 10)), 0.1j],
                             ids=["exact", "float"])
    def test_both_paths_take_the_fiber_form(self, x0):
        fib = substitute_fiber(X + Y, Fraction(1, 100))
        assert fiber_exponent(fib, Fraction(1, 100), x0) == Exponent(1)
        with pytest.raises(ValueError, match="belongs to t = 1/100"):
            fiber_exponent(fib, Fraction(1, 1000), x0)


class TestCentralExponent:
    def test_cusp(self):
        f = Y * Y - X ** 3
        assert central_exponent(f, "min") == Exponent(Fraction(1, 3))
        assert central_exponent(f, "x-axis") == Exponent(Fraction(1, 3))
        assert central_exponent(f, "y-axis") == Exponent(Fraction(1, 2))
        assert central_exponent(f, "max") == Exponent(Fraction(1, 2))

    def test_radial_term_vanishes_on_axes(self):
        assert central_exponent(diag_mixed(), "min") == Exponent(1)

    def test_axis_restriction_identically_zero(self):
        assert central_exponent(X, "y-axis") == Exponent(0)
        assert central_exponent(X, "min") == Exponent(0)

    def test_matches_polygon_endpoints(self):
        rng = random.Random(20260809)
        for _ in range(40):
            pts = {(rng.randrange(0, 5), rng.randrange(0, 5))
                   for _ in range(rng.randrange(1, 6))}
            f = BivariatePoly({p: rng.choice([1, -1, 2]) for p in pts})
            rx, ry = f.restrict_x_axis(), f.restrict_y_axis()
            if rx.is_zero() or ry.is_zero() or rx.valuation() == 0 \
                    or ry.valuation() == 0:
                continue
            expected = Exponent(min(Fraction(1, rx.valuation()),
                                    Fraction(1, ry.valuation())))
            assert central_exponent(f, "min") == expected


class TestLctFromResolution:
    def test_order_m_point(self):
        for m in range(1, 6):
            res = lct_from_resolution([Divisor(0, m)], True)
            assert res.value == Exponent(Fraction(1, m))
            assert res.label == "equality"

    def test_smooth_divisor(self):
        assert lct_from_resolution([Divisor(0, 1)], True).value == Exponent(1)

    def test_cusp_blowup_chain(self):
        # three point blowups of the cusp: multiplicities (2, 3, 6) with
        # discrepancies (1, 2, 4) plus the strict transform
        data = [Divisor(0, 1), Divisor(1, 2), Divisor(2, 3), Divisor(4, 6)]
        assert lct_from_resolution(data, True).value == Exponent(Fraction(5, 6))

    def test_upper_bound_label(self):
        res = lct_from_resolution([Divisor(0, 2)], False)
        assert res.label == "upper bound"

    def test_divisors_not_through_point_ignored(self):
        data = [Divisor(0, 5, through=False), Divisor(0, 1, through=True)]
        assert lct_from_resolution(data, True).value == Exponent(1)

    def test_empty_and_all_missing_rejected(self):
        with pytest.raises(ValueError):
            lct_from_resolution([], True)
        with pytest.raises(ValueError):
            lct_from_resolution([Divisor(0, 1, through=False)], True)

    def test_monotone_under_extra_divisors(self):
        base = [Divisor(0, 1), Divisor(1, 2)]
        v0 = lct_from_resolution(base, False).value
        v1 = lct_from_resolution(base + [Divisor(1, 3)], False).value
        assert v1 <= v0

    def test_catalog_agrees_with_polygon_estimate(self):
        for name, entry in builtin_catalog().items():
            res = lct_from_resolution(entry.divisors, entry.is_log_resolution)
            est = lct_polygon_estimate(parse_expression(entry.curve))
            assert res.value == est, name

    def test_catalog_roundtrip_through_json(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(render_json(list(builtin_catalog().values())))
        loaded = load_catalog(path)
        assert loaded == builtin_catalog()
        cusp = loaded["cusp"]
        assert lct_from_resolution(cusp.divisors, cusp.is_log_resolution).value \
            == Exponent(Fraction(5, 6))


class TestSemicontinuity:
    @pytest.mark.parametrize("e, modulus", [(170, 1e-68), (200, 1e-80), (330, 1e-132),
                                            (400, 1e-160)])
    def test_a_tiny_t_finds_the_zeros_at_their_modulus(self, e, modulus):
        # x^5 = t^2 on the cusp's fiber: t^2 has no normal float image
        report = semicontinuity_check(parse_expression("y^2 - x^3"), [Fraction(1, 10 ** e)])
        (row,) = report.rows
        assert [abs(z.location_complex()) for z, _ in row.zeros] == pytest.approx(
            [modulus] * 5, rel=1e-13, abs=0)
        assert report.verdict == "holds"

    def test_a_tiny_t_finds_the_zeros_of_a_product(self):
        # (x + t/x)^2 (t^2/x^2 - x^3) at t = 10^-330: a double pair at
        # +-i 10^-165 and five simple zeros at |x| = 10^-132
        t = Fraction(1, 10 ** 330)
        zeros = fiber_zeros(parse_expression("(x + y)^2*(y^2 - x^3)"), t)
        assert sorted((z.multiplicity, abs(z.location_complex())) for z in zeros) == [
            (1, pytest.approx(1e-132, rel=1e-13, abs=0))] * 5 + [
            (2, pytest.approx(1e-165, rel=1e-13, abs=0))] * 2

    T_SAMPLES = [Fraction(1, 10 ** k) for k in range(2, 6)]

    def test_cusp_holds(self):
        report = semicontinuity_check(Y * Y - X ** 3, self.T_SAMPLES)
        assert report.verdict == "holds"
        assert report.central_max == Exponent(Fraction(1, 2))

    def test_double_line_holds_with_equality(self):
        report = semicontinuity_check((X + Y) ** 2, self.T_SAMPLES)
        assert report.verdict == "holds"
        assert report.central_max == Exponent(Fraction(1, 2))
        exps = {e for row in report.rows for _, e in row.zeros}
        assert exps == {Exponent(Fraction(1, 2))}

    def test_radial_family_violates(self):
        samples = [Fraction(1, 100), Fraction(1, 10 ** 4)]
        report = semicontinuity_check(diag_mixed(), samples)
        assert report.verdict == "violated"
        assert not report.holomorphic
        t, zero, cmax, fexp = report.witness
        assert cmax == Exponent(1)
        assert fexp == Exponent(Fraction(1, 2))

    def test_largest_holding_t_reported(self):
        report = semicontinuity_check(Y * Y - X ** 3, self.T_SAMPLES)
        assert report.largest_t_holding == Fraction(1, 100)

    def test_zero_t_rejected(self):
        with pytest.raises(ValueError):
            semicontinuity_check(X + Y, [0])

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_nonpositive_delta_rejected(self, delta):
        # no polydisc: every row would hold vacuously, with no zeros
        with pytest.raises(ValueError, match="delta must be positive"):
            semicontinuity_check(Y * Y - X ** 3, self.T_SAMPLES, delta=delta)
        with pytest.raises(ValueError, match="delta must be positive"):
            fiber_zeros(Y * Y - X ** 3, Fraction(1, 400), delta=delta)

    def test_vanishing_family_rejected(self):
        with pytest.raises(IdenticallyZeroError):
            semicontinuity_check(BivariatePoly.zero(), [Fraction(1, 10)])

    def test_holomorphic_random_corpus_holds(self):
        # seeded corpus of small polynomials with F(0,0) = 0 and both axis
        # restrictions nonzero; the semicontinuity verdict must be "holds"
        rng = random.Random(1022)
        samples = [Fraction(1, 10 ** k) for k in range(3, 6)]
        tested = 0
        while tested < 25:
            n_terms = rng.randrange(2, 6)
            support = {}
            for _ in range(n_terms):
                m, n = rng.randrange(0, 4), rng.randrange(0, 4)
                if (m, n) == (0, 0):
                    continue
                support[(m, n)] = GaussianRational(
                    rng.choice([1, -1, 2, -2]), rng.choice([0, 0, 1, -1]))
            f = BivariatePoly(support)
            if f.is_zero() or f.restrict_x_axis().is_zero() \
                    or f.restrict_y_axis().is_zero():
                continue
            report = semicontinuity_check(f, samples)
            assert report.verdict == "holds", str(f)
            tested += 1
