"""Expression grammar: parsing, errors, canonical round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import bivariate, gaussian, univariate

from cselab import (
    BivariatePoly,
    ExpressionError,
    GaussianRational,
    LaurentForm,
    MixedFunction,
    UnivariatePoly,
    format_function,
    parse_expression,
    substitute_fiber,
)

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")


class TestParsing:
    def test_cusp(self):
        f = parse_expression("y^2 - x^3")
        assert f == BivariatePoly({(0, 2): 1, (3, 0): -1})

    def test_diagonal_family(self):
        f = parse_expression("(x+y) - 2*abs(x*y)^(1/2)")
        assert f == MixedFunction(X + Y, -2, 1)

    def test_gaussian_coefficients(self):
        f = parse_expression("i*x + 3/2")
        assert f == BivariatePoly({(1, 0): GaussianRational(0, 1),
                                   (0, 0): Fraction(3, 2)})

    def test_univariate(self):
        p = parse_expression("z^6 - 9*z^4 + 16*z^3 - 9*z^2 + 1")
        assert p == UnivariatePoly([1, 0, -9, 16, -9, 0, 1])

    def test_power_and_products(self):
        assert parse_expression("(x+y)^2") == (X + Y) * (X + Y)
        assert parse_expression("2*x*y^3") == BivariatePoly({(1, 3): 2})

    def test_unary_minus(self):
        assert parse_expression("-x") == -X
        assert parse_expression("- - x") == X

    def test_whitespace_insensitive(self):
        assert parse_expression(" y ^ 2-x^ 3 ") == parse_expression("y^2-x^3")

    def test_constant_expression(self):
        assert parse_expression("3/4 - i") == BivariatePoly(
            {(0, 0): GaussianRational(Fraction(3, 4), -1)})


class TestParseErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x + + y")
        assert "position" in str(err.value)

    def test_unknown_name(self):
        with pytest.raises(ExpressionError):
            parse_expression("x + w")

    def test_float_literal_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("0.5*x")

    def test_mixed_z_with_xy(self):
        with pytest.raises(ExpressionError):
            parse_expression("x + z")

    def test_radial_must_wrap_xy(self):
        with pytest.raises(ExpressionError, match="monomial x\\*y"):
            parse_expression("abs(x)^(1/2)")

    def test_radial_needs_half_integer(self):
        with pytest.raises(ExpressionError, match="denominator 2"):
            parse_expression("abs(x*y)^(1/3)")
        with pytest.raises(ExpressionError, match="odd"):
            parse_expression("abs(x*y)^(2/2)")

    def test_radial_requires_explicit_exponent(self):
        with pytest.raises(ExpressionError):
            parse_expression("abs(x*y)")

    def test_two_radial_terms_rejected(self):
        with pytest.raises(ExpressionError, match="one radial"):
            parse_expression("abs(x*y)^(1/2) + abs(x*y)^(3/2)")

    def test_radial_products_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x*abs(x*y)^(1/2)")
        with pytest.raises(ExpressionError):
            parse_expression("abs(x*y)^(1/2)*abs(x*y)^(1/2)")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x^-2")

    def test_radial_of_z_rejected(self):
        # z is read as a polynomial in x, but the name written still counts
        with pytest.raises(ExpressionError, match="cannot mix z"):
            parse_expression("abs(z*y)^(1/2)")
        with pytest.raises(ExpressionError, match="monomial x\\*y"):
            parse_expression("abs(z*z)^(1/2)")
        with pytest.raises(ExpressionError, match="cannot mix z"):
            parse_expression("0*z + abs(x*y)^(1/2)")

    def test_zero_denominator_has_position(self):
        with pytest.raises(ExpressionError, match="position 4"):
            parse_expression("x + 1/0")

    def test_radial_errors_have_positions(self):
        with pytest.raises(ExpressionError, match="exponentiated.*position 16"):
            parse_expression("(abs(x*y)^(1/2))^2")
        with pytest.raises(ExpressionError, match="scaled.*position 1"):
            parse_expression("x*abs(x*y)^(1/2)")


def corpus():
    """50 canonical expressions covering the grammar."""
    out = [
        "0", "1", "3/2", "i", "-i", "2*i", "-3/4", "(1+2*i)", "(1-2*i)",
        "x", "y", "z", "x + y", "y - x", "x*y", "x^2*y^3", "x^2 - y^2",
        "y^2 - x^3", "y^2 - x^5", "x + y + x^2", "x*y + x^3 + y^3",
        "2*x - 3*y", "x^4 + y^4", "i*x + 3/2", "(1+2*i)*x^2 - i*y",
        "x + y - 2*abs(x*y)^(1/2)", "abs(x*y)^(1/2)", "-abs(x*y)^(3/2)",
        "x^3 - 9*x^2*y - 9*x*y^2 + y^3 + 16*abs(x*y)^(3/2)",
        "z^2 - 2*z + 1", "z^6 - 9*z^4 + 16*z^3 - 9*z^2 + 1",
        "1/2*z^2 + 1/3*z + 1/6", "x^2 + 2*x*y + y^2", "y^5 - x^2",
        "x^2*y + x*y^2", "3*x^3*y^4 - 2/7*x*y", "z", "z^10 - 1",
        "x + y + x*y", "x^2 + y^5", "-x^3 + y^2", "x - 1", "y + 1/2",
        "5/3*abs(x*y)^(5/2) + x^5 + y^5", "z^3 - i*z", "(2+3*i)*x*y",
        "x^6 - y^6", "2/3", "x^3*y^3", "y^4 - 2*x^2*y^2 + x^4",
    ]
    assert len(out) == 50
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("text", corpus())
    def test_parse_print_parse_identity(self, text):
        obj = parse_expression(text)
        printed = format_function(obj)
        again = parse_expression(printed)
        assert again == obj
        assert format_function(again) == printed  # printing is idempotent
        assert str(obj) == printed  # str() is the one printer's text

    def test_canonical_ordering_is_lex(self):
        f = parse_expression("x + y")
        assert format_function(f) == "y + x"  # (0,1) sorts before (1,0)

    def test_signs(self):
        assert format_function(parse_expression("-x^3 + y^2")) == "y^2 - x^3"

    def test_constant_univariate_names_z(self):
        # a constant's text must name z to read back as a UnivariatePoly
        assert format_function(UnivariatePoly([])) == "0*z^0"
        assert format_function(UnivariatePoly([Fraction(-3, 2)])) == "-3/2*z^0"
        assert parse_expression("0*z^0") == UnivariatePoly([])

    def test_laurent_form_prints_its_numerator_in_x(self):
        form = substitute_fiber(parse_expression("y^2 - x^3"), Fraction(1, 4))
        assert str(form) == "(1/16 - x^5) / x^2"
        form = LaurentForm(UnivariatePoly([1, -2, GaussianRational(0, -2)]), 1)
        assert str(form) == "(1 - 2*x - 2*i*x^2) / x^1"


nonzero = gaussian.filter(lambda c: not c.is_zero())
odd = st.integers(0, 4).map(lambda k: 2 * k + 1)
functions = st.one_of(
    bivariate(),
    st.builds(MixedFunction, bivariate(max_points=3), nonzero, odd),
    univariate(),
)


@given(v=functions)
@settings(max_examples=60, derandomize=True)
def test_format_then_parse_reproduces_constructed_values(v):
    assert parse_expression(format_function(v)) == v
