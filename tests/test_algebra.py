"""Exact algebra: field/ring axioms, fiber restriction, vanishing orders."""

import ast
import importlib
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cselab
from cselab import (
    BivariatePoly,
    GaussianRational,
    IdenticallyZeroError,
    LaurentForm,
    MixedFunction,
    UnivariatePoly,
    divides_power,
    parse_expression,
    poly_gcd,
    squarefree_decomposition,
    substitute_fiber,
    vanishing_order,
)
from cselab import polynomials
from cselab.polynomials import _heuristic_gcd, _prs_gcd, exact_divide

# the kernel witness for n = 1 (cross-derived in test_counterexamples)
P1 = UnivariatePoly([1, 0, -9, 16, -9, 0, 1])


def gr(re, im=0):
    return GaussianRational(re, im)


# k/d with d <= 6 and |k/d| <= 4: the values of st.fractions(-4, 4,
# max_denominator=6), drawn as integers, which is several times faster
small_fraction = st.integers(1, 6).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda k: Fraction(k, d)))
gaussian = st.builds(GaussianRational, small_fraction, small_fraction)


def bivariate(max_points=5, max_exp=4):
    point = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(point, gaussian, max_size=max_points).map(BivariatePoly)


def univariate(max_deg=5):
    return st.lists(gaussian, max_size=max_deg + 1).map(UnivariatePoly)


@pytest.mark.parametrize("module", ["rationals", "polynomials", "exponents", "newton",
                                    "exact_linalg", "expressions", "degeneration"])
def test_exact_modules_import_no_numpy(module):
    """numpy lives in quadrature and the Hoelder probe, not in the exact layer
    nor in the zero finder."""
    tree = ast.parse((Path(cselab.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "numpy"}


def module_level_imports(tree):
    """The modules a file imports when it is loaded, not inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ([node.module] if node.module else (a.name for a in node.names))
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["__init__", "cli", "reports"])
def test_entry_modules_defer_quadrature_and_counterexamples(module):
    """The package, the CLI and the report writer import the quadrature and
    the counterexample families only inside the functions that run them."""
    tree = ast.parse((Path(cselab.__file__).parent / f"{module}.py").read_text())
    heavy = {m.rsplit(".", 1)[-1] for m in module_level_imports(tree)} & {
        "quadrature", "counterexamples"}
    assert not heavy, f"{module}.py imports {sorted(heavy)} at module level"


EXPORTED = (   # the public names of the package
    "Annulus BivariatePoly BoundReport CatalogEntry CounterexampleRecord Divisor "
    "Exponent ExpressionError FiberZero GaussianRational HolderProbeResult "
    "IdenticallyZeroError IntegralReport KReport LaurentForm LctResult MixedFunction "
    "NewtonPolygon PrincipalPart ProbeResult QuadratureConfig SemicontinuityReport "
    "SweepReport UnivariatePoly ViolationCheckError ViolationReport annulus_integral "
    "build_family builtin_catalog central_exponent compute_polygon convergence_sweep "
    "counterexample_record decompose_I default_t_sequence divides_power emit_report "
    "endpoints exponent_probe_1d fiber_exponent fiber_integral_K fiber_zeros "
    "format_function holder_probe lct_from_resolution lct_polygon_estimate "
    "load_catalog parse_expression poly_gcd principal_part semicontinuity_check "
    "single_segment squarefree_decomposition substitute_fiber uniform_bound_check "
    "vanishing_order verify_violation vn_basis wn_generator "
    "young_combine").split()


class TestPackageExports:
    def test_every_name_is_its_module_attribute(self):
        assert sorted(cselab._MODULE_OF) == sorted(EXPORTED)
        for name, module in cselab._MODULE_OF.items():
            owner = importlib.import_module(f"cselab.{module}")
            assert cselab.__getattr__(name) is getattr(owner, name), name
            assert getattr(cselab, name) is getattr(owner, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cselab.no_such_name
        with pytest.raises(ImportError):
            from cselab import no_such_name  # noqa: F401

    def test_dir_lists_every_export(self):
        assert set(EXPORTED) <= set(dir(cselab))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from cselab import *", namespace)
        del namespace["__builtins__"]
        assert len(EXPORTED) == 60
        assert sorted(namespace) == sorted(EXPORTED)


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

    def test_equality_with_floats(self):
        # a float compares at its binary value; nan is unequal, not an error
        assert gr(1) == 1.0 and gr(Fraction(1, 4)) == 0.25
        assert gr(Fraction(1, 10)) != 0.1
        assert (gr(1) == math.nan) is False

    @given(a=st.floats(allow_nan=False, allow_infinity=False),
           b=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, derandomize=True)
    def test_hash_agrees_with_complex(self, a, b):
        # equal values must hash alike, or a set keeps 1 + 1j and gr(1, 1) apart
        assert hash(GaussianRational(a, b)) == hash(complex(a, b))
        assert len({GaussianRational(a, b), complex(a, b)}) == 1


# scalar -> does the entry point hold it at the exact value `want`?  Each
# coerces through rationals.exact_param.
HOLDS = {
    "GaussianRational": lambda x, want: GaussianRational(x.real, x.imag) == want,
    "UnivariatePoly": lambda x, want: UnivariatePoly([x]) == UnivariatePoly([want]),
    "BivariatePoly": lambda x, want: (BivariatePoly({(0, 0): x})
                                      == BivariatePoly({(0, 0): want})),
    "MixedFunction": lambda x, want: (
        MixedFunction(BivariatePoly.variable("x"), x).radial_coeff == want),
    "vanishing_order": lambda x, want: vanishing_order(UnivariatePoly([-want, 1]), x) == 1,
    # x*y restricts to the constant t on the fiber xy = t
    "substitute_fiber": lambda x, want: want.is_zero() or substitute_fiber(
        BivariatePoly.monomial(1, 1), x).numerator == UnivariatePoly([want]),
}


@given(x=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.complex_numbers(allow_nan=False, allow_infinity=False)))
@settings(max_examples=100, derandomize=True)
def test_entry_points_hold_a_float_at_its_binary_value(x):
    want = GaussianRational(Fraction(x.real), Fraction(x.imag))
    for name, holds in HOLDS.items():
        assert holds(x, want), name


class TestRingOps:
    def test_difference_of_squares(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_power_rule(self):
        z2 = UnivariatePoly.monomial(2)
        assert z2.derivative() == UnivariatePoly.monomial(1, 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            UnivariatePoly.monomial(-2, 3)
        with pytest.raises(ValueError):
            BivariatePoly.monomial(-1, 0)

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
        q = Fraction(1, 4)
        assert f.evaluate(q, q) == gr(0)

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
        form = substitute_fiber(f, s * s)
        z = UnivariatePoly([-s, 1])
        assert form.numerator == z * z
        assert form.pole_order == 1

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            substitute_fiber(BivariatePoly.variable("x"), 0)

    def test_radial_term_that_cancels_is_zero(self):
        # xy - |xy|^(1/2)/2 on xy = 1/4 is 1/4 - 1/4
        form = substitute_fiber(parse_expression("x*y - 1/2*abs(x*y)^(1/2)"),
                                Fraction(1, 4))
        assert form.is_zero()
        assert str(form) == "(0)"

    @given(f=st.builds(MixedFunction, bivariate(max_points=5, max_exp=4),
                       gaussian.filter(lambda c: not c.is_zero()),
                       st.integers(0, 3).map(lambda k: 2 * k + 1)),
           s=st.fractions(min_value=Fraction(1, 30), max_value=3, max_denominator=30))
    @settings(max_examples=100, derandomize=True)
    def test_radial_constant_joins_the_numerator(self, f, s):
        # F = G + c|xy|^(nu/2) on xy = s^2 is G's form N/x^d plus c s^nu x^d / x^d
        form = substitute_fiber(f, s * s)
        holo = substitute_fiber(f.holo, s * s)
        c = f.radial_coeff * gr(s) ** f.radial_half_exp
        radial = UnivariatePoly.monomial(holo.pole_order, c)
        assert form.numerator == holo.numerator + radial
        assert form.pole_order == holo.pole_order

    def test_float_t_gives_the_form_of_its_fraction(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = y * y - x ** 3 + x * y
        for t in (1e-3, 0.125, -2.5e-7, 1e-3 + 2e-4j):
            exact = Fraction(t) if isinstance(t, float) else GaussianRational(
                Fraction(t.real), Fraction(t.imag))
            assert substitute_fiber(f, t) == substitute_fiber(f, exact)

    @given(f=bivariate(max_points=6, max_exp=5), t=gaussian)
    @settings(max_examples=150, derandomize=True)
    def test_equals_the_gaussian_rational_construction(self, f, t):
        assume(not t.is_zero())
        form = substitute_fiber(f, t)
        # the coefficients as sums of GaussianRational products c * t^n
        by_exp = {}
        for (m, n), c in f.support.items():
            by_exp[m - n] = by_exp.get(m - n, gr(0)) + c * t ** n
        by_exp = {e: c for e, c in by_exp.items() if not c.is_zero()}
        d = max(0, -min(by_exp, default=0))
        coeffs = [gr(0)] * (max(by_exp, default=-1) + d + 1)
        for e, c in by_exp.items():
            coeffs[e + d] = c
        expected = LaurentForm(UnivariatePoly(coeffs), d, t=t)
        assert form.numerator.coeffs == expected.numerator.coeffs
        assert (form.pole_order, form.t) == (expected.pole_order, t)

    @pytest.mark.parametrize("entry", HOLDS)
    def test_nonfinite_t_rejected(self, entry):
        # every exact entry point, not only substitute_fiber, rejects nan and inf
        for t in (math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                  complex(math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                HOLDS[entry](t, gr(1))

    @given(f=bivariate(max_points=4, max_exp=3),
           t=st.fractions(min_value=Fraction(1, 40), max_value=2,
                          max_denominator=40),
           x=st.lists(gaussian, min_size=3, max_size=3))
    @settings(max_examples=60, derandomize=True)
    def test_agrees_with_direct_evaluation(self, f, t, x):
        form = substitute_fiber(f, t)
        for xx in x:
            if not xx.is_zero():
                assert f.evaluate(xx, gr(t) / xx) == form.evaluate(xx)

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


class TestVanishingOrder:
    def test_double_zero_after_radial_collapse(self):
        f = MixedFunction(BivariatePoly.variable("x") + BivariatePoly.variable("y"),
                          -2, 1)
        s = Fraction(1, 10)
        form = substitute_fiber(f, s * s)
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
        form = substitute_fiber(f, Fraction(1, 4))
        assert form != substitute_fiber(f.holo, Fraction(1, 4))
        assert vanishing_order(form, HALF_ONE_PLUS_I) == 2
        assert order_by_derivatives(form.numerator, HALF_ONE_PLUS_I) == 2
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


# Leading coefficients of the drawn factors.  Over Q(i) they give the input
# a Gaussian content that is not a rational integer, as in
# (1+i)z + 2 = (1+i)(z + 1 - i), so a gcd whose content is taken over Z
# alone does not divide the input over Z[i].
RATIONAL_LEADS = (gr(1), gr(-3), gr(Fraction(2, 5)), gr(6))
GAUSSIAN_LEADS = (gr(1, 1), gr(2, -1), gr(0, 3), gr(Fraction(1, 2), Fraction(1, 2)), gr(1))
rational_root = small_fraction.map(gr)
Z = UnivariatePoly([0, 1])


@st.composite
def known_factors(draw, gaussian_coeffs):
    """[(factor, multiplicity, roots)]: pairwise coprime squarefree linear
    and quadratic factors, each with its known Gaussian-rational roots, and
    maybe one quadratic (z - a)^2 - q with q in {2, 3} and no root in Q(i)."""
    roots = draw(st.lists(gaussian if gaussian_coeffs else rational_root,
                          min_size=1, max_size=4, unique=True))
    leads = GAUSSIAN_LEADS if gaussian_coeffs else RATIONAL_LEADS
    factors = []
    while roots:
        k = draw(st.integers(1, min(2, len(roots))))
        group, roots = roots[:k], roots[k:]
        f = UnivariatePoly([draw(st.sampled_from(leads))])
        for r in group:
            f = f * (Z - UnivariatePoly([r]))
        factors.append((f, draw(st.integers(1, 3)), tuple(group)))
    if draw(st.booleans()):
        a = draw(rational_root)
        shifted = Z - UnivariatePoly([a])
        factors.append((shifted * shifted - UnivariatePoly([draw(st.sampled_from((2, 3)))]),
                        draw(st.integers(1, 3)), ()))
    return factors


def product(polys):
    out = UnivariatePoly([1])
    for f in polys:
        out = out * f
    return out


class TestGcdAndSquarefree:
    def test_gcd_of_shared_factor(self):
        f = UnivariatePoly([-1, 1])  # z - 1
        g = UnivariatePoly([2, 1])   # z + 2
        assert poly_gcd(f * g, f * f) == f

    def test_exact_divide(self):
        f = UnivariatePoly([2, gr(1, 1)])  # (1+i)z + 2
        g = UnivariatePoly([gr(0, Fraction(1, 3)), 1, 5])
        assert exact_divide(f * g, f) == g
        with pytest.raises(ValueError):
            exact_divide(f * g + UnivariatePoly([1]), f)
        with pytest.raises(ZeroDivisionError):
            exact_divide(f, UnivariatePoly())

    def test_gaussian_content(self):
        # (1+i)z * ((1+i)z + 1 - i) * (z^2 - 2z - 1)^2: a gcd in Yun's loop
        # has content 1+i over Z[i], which must come off before dividing
        p = (UnivariatePoly([0, gr(1, 1)]) * UnivariatePoly([gr(1, -1), gr(1, 1)])
             * UnivariatePoly([-1, -2, 1]) ** 2)
        assert squarefree_decomposition(p) == [
            (UnivariatePoly([0, gr(0, -1), 1]), 1), (UnivariatePoly([-1, -2, 1]), 2)]

    @pytest.mark.parametrize("gaussian_coeffs", [False, True], ids=["Q", "Q(i)"])
    def test_against_known_factorization(self, gaussian_coeffs):
        @given(factors=known_factors(gaussian_coeffs))
        @settings(max_examples=25, derandomize=True, deadline=None)
        def check(factors):
            p = product(f ** m for f, m, _ in factors)
            expected = {}
            for f, m, _ in factors:
                expected[m] = expected.get(m, UnivariatePoly([1])) * f
            parts = squarefree_decomposition(p)
            assert [m for _, m in parts] == sorted(expected)
            assert dict((m, g) for g, m in parts) == {
                m: g.monic() for m, g in expected.items()}
            for g, m in parts:
                assert g.coefficient(g.degree) == gr(1)
                for f, fm, roots in factors:
                    if fm == m:
                        assert all(vanishing_order(g, r) == 1 for r in roots)
            assert product(g ** m for g, m in parts) == p.monic()

        check()

    @pytest.mark.parametrize("gaussian_coeffs", [False, True], ids=["Q", "Q(i)"])
    def test_gcd_of_products_with_a_known_factor(self, gaussian_coeffs):
        @given(factors=known_factors(gaussian_coeffs), split=st.integers(0, 6))
        @settings(max_examples=25, derandomize=True, deadline=None)
        def check(factors, split):
            # f, g, h are coprime products of distinct factors, so gcd(fg, fh) = f
            f = product(f for f, _, _ in factors[: split % 3])
            g = product(f for f, _, _ in factors[split % 3::2])
            h = product(f for f, _, _ in factors[split % 3 + 1::2])
            assert poly_gcd(f * g, f * h) == f.monic()
            assert exact_divide(f * g, g) == f

        check()

    def test_squarefree_decomposition_structure(self):
        f = UnivariatePoly([-1, 1])
        g = UnivariatePoly([2, 1])
        p = f * f * f * g
        parts = dict()
        for factor, mult in squarefree_decomposition(p):
            parts[mult] = factor.monic()
        assert parts == {1: g.monic(), 3: f.monic()}


def int_product(a, b):
    """The product of two int polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pairs(p):
    return [(c, 0) for c in p]


def real_parts(p):
    return [c for c, _ in p]


# coefficients of magnitude 2^256 to 2^264, either sign
big_coeff = st.builds(lambda m, s: s * m,
                      st.integers(2 ** 256, 2 ** 264), st.sampled_from((1, -1)))


def fiber_factor(a, b, j, k):
    """997^j times the fiber numerator of a*y^j - b*x^k + x*y on xy = 1/997:
    a + 997^(j-1) z^j - b*997^j z^(j+k), ascending."""
    p = [0] * (j + k + 1)
    p[0], p[j], p[j + k] = a, 997 ** (j - 1), -b * 997 ** j
    return p


# 32-bit germ coefficients, as in the degree and coefficient-size table
FIBER_FACTORS = [fiber_factor(*c) for c in [
    (2654435761, 1779033703, 1, 2), (3144134277, 1013904242, 2, 1),
    (2773480762, 1359893119, 2, 3), (2600822924, 528734635, 3, 2),
    (1541459225, 3432918353, 3, 3), (3141592653, 2718281828, 1, 3)]]


def fiber_product(*exponents):
    out = [1]
    for factor, e in zip(FIBER_FACTORS, exponents):
        for _ in range(e):
            out = int_product(out, factor)
    return out


class TestHeuristicGcd:
    @given(g=st.lists(big_coeff, min_size=1, max_size=5),
           p=st.lists(big_coeff, min_size=1, max_size=5),
           q=st.lists(big_coeff, min_size=1, max_size=5))
    @settings(max_examples=40, derandomize=True, deadline=None)
    # fiber numerators a = g*p of degree 91 and 136
    @example(g=fiber_product(2, 0, 1, 0, 3, 0), p=fiber_product(3, 3, 2, 2, 2, 3),
             q=fiber_product(0, 2, 3, 3, 1, 4))
    @example(g=fiber_product(2, 1, 2, 0, 3, 2), p=fiber_product(4, 3, 3, 3, 4, 4),
             q=fiber_product(2, 3, 3, 3, 4, 5))
    def test_matches_the_pseudo_remainder_gcd(self, g, p, q):
        a, b = pairs(int_product(g, p)), pairs(int_product(g, q))
        h, ca, cb = _heuristic_gcd(a, b)
        prs = _prs_gcd(a, b)
        assert h in (prs, [(-cr, -ci) for cr, ci in prs])
        assert h[-1][0] > 0
        assert pairs(int_product(real_parts(h), real_parts(ca))) == a
        assert pairs(int_product(real_parts(h), real_parts(cb))) == b

    def test_second_evaluation_point(self, monkeypatch):
        # gcd((z-1)^2, (z-1)^2 (z+1)): at xi = 2*1 + 2 = 4 the values are 9
        # and 45, whose gcd 9 = 2*4 + 1 lifts to 2z + 1, which divides
        # neither; at xi = 4 * 4 = 16 it is 225 = 256 - 2*16 + 1
        a, b = pairs([1, -2, 1]), pairs([1, -1, -1, 1])
        lifts = []
        lift = polynomials._lift
        monkeypatch.setattr(polynomials, "_lift",
                            lambda h, k: lifts.append((1 << k, lift(h, k))) or lift(h, k))
        assert _heuristic_gcd(a, b) == (a, pairs([1]), pairs([1, 1]))
        assert lifts == [(4, [1, 2]), (16, [1, -2, 1])]

    @given(case=st.integers(2, 80).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(1 - (1 << k - 1), 1 << k - 1), max_size=8))))
    @example(case=(2, [2, -1, 0, 0]))
    @example(case=(5, [16, -15, 0, 16, -15]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_lift_inverts_pack(self, case):
        # digits in the symmetric range -2^(k-1) < d <= 2^(k-1) come back,
        # less their trailing zeros
        k, digits = case
        stripped = list(digits)
        while stripped and stripped[-1] == 0:
            stripped.pop()
        assert polynomials._lift(polynomials._pack(digits, k), k) == stripped

    def test_squarefree_falls_back_to_prs(self, monkeypatch):
        prs_calls = []
        monkeypatch.setattr(polynomials, "_prs_gcd",
                            lambda a, b: prs_calls.append(1) or _prs_gcd(a, b))

        @given(factors=known_factors(False))
        @settings(max_examples=25, derandomize=True, deadline=None)
        def check(factors):
            p = product(f ** m for f, m, _ in factors)
            prs_calls.clear()
            heuristic = squarefree_decomposition(p)
            assert not prs_calls
            with monkeypatch.context() as m:
                m.setattr(polynomials, "_heuristic_gcd", lambda a, b: None)
                assert squarefree_decomposition(p) == heuristic
            assert prs_calls

        check()


class TestLaurentForm:
    def test_constant_folding(self):
        # x + y - 2|xy|^(1/2) on xy = 1: the radial constant -2 joins (1 + x^2)/x
        f = MixedFunction(BivariatePoly.variable("x") + BivariatePoly.variable("y"), -2, 1)
        form = substitute_fiber(f, 1)
        assert form.numerator == UnivariatePoly([1, -2, 1])

    def test_negative_pole_order_rejected(self):
        with pytest.raises(ValueError):
            LaurentForm(UnivariatePoly([1, 2]), -1)

    def test_normalization_strips_common_x(self):
        # (x^2 + x^3)/x^2 should normalize to (1 + x)/x^0... pole fully cancels
        form = LaurentForm(UnivariatePoly([0, 0, 1, 1]), 2)
        assert form.pole_order == 0
        assert form.numerator == UnivariatePoly([1, 1])

    def test_evaluate_matches_combined(self):
        form = LaurentForm(UnivariatePoly([1, 2, 3]) + UnivariatePoly.monomial(2, 5), 2)
        x = Fraction(3, 2)
        expected = (gr(1) + gr(2) * gr(x) + gr(3) * gr(x) ** 2) / gr(x) ** 2 + gr(5)
        assert form.evaluate(x) == expected


class TestMixedFunctionHash:
    def test_zero_radial_term_ignores_its_exponent(self):
        # __eq__ ignores radial_half_exp when radial_coeff is zero; so must __hash__
        p = BivariatePoly.variable("x") + BivariatePoly.variable("y")
        a, b = MixedFunction(p, 0, 1), MixedFunction(p, 0, 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({MixedFunction(p, 1, 1), MixedFunction(p, 1, 3)}) == 2


# ---------------------------------------------------------------------------
# integer-numerator storage against Fraction-pair coefficient lists
# ---------------------------------------------------------------------------
# The oracle keeps each coefficient as a pair (re, im) of Fractions, a
# univariate polynomial as a list of pairs by ascending degree and a
# bivariate one as a dict (m, n) -> pair, and does every operation on them
# directly, with no common denominator and no reduction.

pair = st.tuples(small_fraction, small_fraction)
pair_lists = st.lists(pair, max_size=5)
pair_maps = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), pair,
                            max_size=5)
nonzero_pair = pair.filter(lambda c: c != (0, 0))
PAIR_ZERO = (Fraction(0), Fraction(0))


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b, sign=1):
    return (a[0] + sign * b[0], a[1] + sign * b[1])


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == PAIR_ZERO:
        cs.pop()
    return cs


def uni(cs):
    return UnivariatePoly([gr(*c) for c in cs])


def bi(cs):
    return BivariatePoly({k: gr(*c) for k, c in cs.items()})


def uni_pairs(p):
    return [(c.re, c.im) for c in p.coeffs]


def bi_pairs(f):
    return {k: (c.re, c.im) for k, c in f.support.items()}


def nonzero(cs):
    return {k: c for k, c in cs.items() if c != PAIR_ZERO}


def o_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [PAIR_ZERO] * (n - len(a)), b + [PAIR_ZERO] * (n - len(b))
    return trimmed(cadd(x, y, sign) for x, y in zip(a, b))


def o_mul(a, b):
    out = [PAIR_ZERO] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = cadd(out[i + j], cmul(x, y))
    return trimmed(out)


def o_bi_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = cadd(out.get(k, PAIR_ZERO), c, sign)
    return nonzero(out)


def o_bi_mul(a, b):
    out = {}
    for (m1, n1), x in a.items():
        for (m2, n2), y in b.items():
            k = (m1 + m2, n1 + n2)
            out[k] = cadd(out.get(k, PAIR_ZERO), cmul(x, y))
    return nonzero(out)


def assert_canonical(p):
    """den > 0, gcd(den, every numerator part) = 1, no trailing (univariate)
    or stored (bivariate) zero."""
    if isinstance(p, UnivariatePoly):
        stored = list(p.nums)
        assert not stored or stored[-1] != (0, 0)
    else:
        stored = list(p.terms.values())
        assert (0, 0) not in stored
    assert p.den > 0
    assert math.gcd(p.den, *(v for c in stored for v in c)) == 1


class TestIntegerStorage:
    @given(a=pair_lists, b=pair_lists, c=nonzero_pair, k=st.integers(0, 3))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_univariate_against_fraction_pairs(self, a, b, c, k):
        p, q = uni(a), uni(b)
        a, b = trimmed(a), trimmed(b)
        s = gr(*c)
        expected_pow = [(Fraction(1), Fraction(0))]
        for _ in range(k):
            expected_pow = o_mul(expected_pow, a)
        cases = [
            (p + q, o_add(a, b)),
            (p - q, o_add(a, b, -1)),
            (-p, o_add([], a, -1)),
            (p * q, o_mul(a, b)),
            (p.scale(s), trimmed(cmul(x, c) for x in a)),
            (p.derivative(), trimmed((e * x[0], e * x[1]) for e, x in enumerate(a) if e)),
            (p ** k, expected_pow),
        ]
        for got, expected in cases:
            assert_canonical(got)
            assert uni_pairs(got) == expected
            assert [got.coefficient(e) for e in range(-1, len(expected) + 1)] == (
                [gr(0)] + [gr(*x) for x in expected] + [gr(0)])

    @given(a=pair_maps, b=pair_maps, c=nonzero_pair, var=st.sampled_from("xy"))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_bivariate_against_fraction_pairs(self, a, b, c, var):
        f, g = bi(a), bi(b)
        a, b = nonzero(a), nonzero(b)
        i = "xy".index(var)
        shifted = {(m - (i == 0), n - (i == 1)): ((m, n)[i] * x[0], (m, n)[i] * x[1])
                   for (m, n), x in a.items() if (m, n)[i]}
        cases = [
            (f + g, o_bi_add(a, b)),
            (f - g, o_bi_add(a, b, -1)),
            (f * g, o_bi_mul(a, b)),
            (f.scale(gr(*c)), nonzero({k: cmul(x, c) for k, x in a.items()})),
            (f.derivative(var), nonzero(shifted)),
            (f ** 2, o_bi_mul(a, a)),
        ]
        for got, expected in cases:
            assert_canonical(got)
            assert bi_pairs(got) == expected
            assert got.sorted_items() == [(k, gr(*expected[k])) for k in sorted(expected)]
        for axis, restrict in ((0, f.restrict_x_axis), (1, f.restrict_y_axis)):
            on = {k[axis]: x for k, x in a.items() if not k[1 - axis]}
            got = restrict()
            assert_canonical(got)
            assert uni_pairs(got) == trimmed(on.get(e, PAIR_ZERO)
                                             for e in range(1 + max(on, default=-1)))

    @given(a=pair_lists, b=pair_lists, c=nonzero_pair, f=pair_maps, g=pair_maps)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_equal_values_by_different_routes(self, a, b, c, f, g):
        p, q, s = uni(a), uni(b), gr(*c)
        f, g = bi(f), bi(g)
        routes = [
            ((p * q).scale(s.inverse()), p * q.scale(s.inverse())),
            (p + q - q, p),
            ((p * q).derivative(), p.derivative() * q + p * q.derivative()),
            ((f * g).scale(s), f.scale(s) * g),
            (f + g - g, f),
            (f + g, g + f),   # the same terms inserted in another order
        ]
        for x, y in routes:
            assert x == y and hash(x) == hash(y)
            assert (x.den, x.nums if isinstance(x, UnivariatePoly) else x.terms) == (
                y.den, y.nums if isinstance(y, UnivariatePoly) else y.terms)

    @given(a=pair_lists, f=pair_maps)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_scalars_round_trip_through_the_constructor(self, a, f):
        p, q = uni(a), bi(f)
        assert UnivariatePoly(p.coeffs) == p and hash(UnivariatePoly(p.coeffs)) == hash(p)
        assert BivariatePoly(q.support) == q and hash(BivariatePoly(q.support)) == hash(q)
        assert uni_pairs(p) == trimmed(a)
        assert bi_pairs(q) == nonzero(f)
        assert_canonical(p)
        assert_canonical(q)


# ---------------------------------------------------------------------------
# the int-pair scalar writer against a Fraction-pair reference
# ---------------------------------------------------------------------------
# The reference prints a + b*i from the Fractions a and b directly, with
# str(Fraction) for each part; the writer gets (re, im, den) with den a
# multiple of the common denominator, so its input is not in lowest terms.

special_part = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                         small_fraction)


def ref_text(a, b):
    if b == 0:
        return str(a)
    itxt = "i" if abs(b) == 1 else f"{abs(b)}*i"
    if a == 0:
        return ("-" if b < 0 else "") + itxt
    return f"{a}{'-' if b < 0 else '+'}{itxt}"


def ref_signed(a, b, unit):
    if b == 0:
        return ("-" if a < 0 else "+"), ("" if unit and abs(a) == 1 else str(abs(a)))
    if a == 0:
        return ("-" if b < 0 else "+"), ("i" if abs(b) == 1 else f"{abs(b)}*i")
    return "+", f"({ref_text(a, b)})"


class TestScalarWriter:
    @given(a=special_part, b=special_part, k=st.integers(1, 12), unit=st.booleans())
    @settings(max_examples=300, derandomize=True)
    def test_against_fraction_pairs(self, a, b, k, unit):
        from cselab.expressions import parse_expression
        from cselab.rationals import pair_json, pair_signed, pair_text
        from cselab.reports import to_jsonable

        den = math.lcm(a.denominator, b.denominator) * k
        re, im = int(a * den), int(b * den)
        text = ref_text(a, b)
        assert pair_text(re, im, den) == text == str(gr(a, b))
        want_json = int(a) if b == 0 and a.denominator == 1 else text
        assert pair_json(re, im, den) == want_json == to_jsonable(gr(a, b))
        assert type(pair_json(re, im, den)) is type(want_json)
        sign, body = pair_signed(re, im, den, unit=unit)
        assert (sign, body) == ref_signed(a, b, unit)
        if body:
            # a signed term reads back as the scalar it was written from
            value = parse_expression(("-" if sign == "-" else "") + body)
            assert value == BivariatePoly.monomial(0, 0, gr(a, b))

    def test_named_cases(self):
        from cselab.rationals import pair_json, pair_signed, pair_text

        cases = [((0, 0, 1), "0", 0, ("+", "0")), ((6, 0, 3), "2", 2, ("+", "2")),
                 ((0, 2, 2), "i", "i", ("+", "i")), ((0, -3, 3), "-i", "-i", ("-", "i")),
                 ((-3, 0, 3), "-1", -1, ("-", "")), ((0, -3, 2), "-3/2*i", "-3/2*i",
                                                     ("-", "3/2*i")),
                 ((1, -2, 2), "1/2-i", "1/2-i", ("+", "(1/2-i)")),
                 ((-4, 6, 4), "-1+3/2*i", "-1+3/2*i", ("+", "(-1+3/2*i)"))]
        for pair, text, as_json, signed in cases:
            assert pair_text(*pair) == text
            assert pair_json(*pair) == as_json
            assert pair_signed(*pair, unit=True) == signed


# ---------------------------------------------------------------------------
# orders of vanishing at real and Gaussian points, Fraction-pair oracle
# ---------------------------------------------------------------------------

def fraction_pair_value(coeffs, a):
    """Horner on Fraction pairs: the value of sum coeffs[k] z^k at a."""
    acc = PAIR_ZERO
    for c in reversed(coeffs):
        acc = cadd(cmul(acc, a), c)
    return acc


real_point = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                       st.fractions(-5, 5, max_denominator=40))
gaussian_pair = st.tuples(small_fraction, small_fraction.filter(bool))


class TestVanishingOrderAgainstFractionPairs:
    @given(base=pair_lists.filter(lambda cs: trimmed(cs)),
           a=st.one_of(real_point.map(lambda r: (r, Fraction(0))), gaussian_pair),
           m=st.integers(0, 6))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_order_of_base_times_a_power(self, base, a, m):
        assume(fraction_pair_value(base, a) != PAIR_ZERO)
        point = a[0] if a[1] == 0 else gr(*a)
        p = uni(base) * UnivariatePoly([-gr(*a), 1]) ** m
        assert vanishing_order(p, point) == m
        if a != PAIR_ZERO:
            assert vanishing_order(LaurentForm(p, 3), point) == m
