"""Oracle-free checks from a symmetry of xy = t: the rotation (x, y) -> (mu x, conj(mu) y).

For |mu| = 1 the rotation preserves xy, the polydisc and the fiber volume,
so G(x, y) = F(mu x, conj(mu) y) has the fiber function x -> f(mu x): its
zeros are conj(mu) times those of F, with the same multiplicities, and its
K_t is F's.  With mu a Gaussian rational of norm 1, from a Pythagorean
triple, G is exact input.  A real F at a real t is integrated over the upper
half-plane and doubled, while G, whose fiber numerator is not real, runs on
the full circle; so each pair checks one path of the engine against the
other without an oracle.  A flagged run (cells forced at the depth cap or
dropped) carries no bar that bounds its error; such runs are counted as
Hypothesis events (pytest --hypothesis-show-statistics), not compared.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cselab import GaussianRational, fiber_integral_K, parse_expression, substitute_fiber
from cselab.degeneration import _form_zeros, central_exponent

# the corpus germs and a germ that is not binomial
GERMS = ("y^2 - x^3", "x^2 - y^2", "(x + y)^2", "y^3 - x^5", "x + y", "y^2 - x^3 + x*y^2")
MUS = (GaussianRational(Fraction(3, 5), Fraction(4, 5)),
       GaussianRational(Fraction(5, 13), Fraction(12, 13)),
       GaussianRational(Fraction(8, 17), Fraction(-15, 17)))
HALF = "upper half, doubled"


def rotated(text, mu):
    """The text of G(x, y) = F(mu x, conj(mu) y)."""
    def factor(z):
        return f"({z.re}+({z.im})*i)"
    return (text.replace("x", "X").replace("y", f"({factor(mu.conjugate())}*y)")
            .replace("X", f"({factor(mu)}*x)"))


def t_value(q, kind):
    t = Fraction(1, q)
    return {"positive": t, "negative": -t, "imaginary": GaussianRational(0, t)}[kind]


def test_a_rotated_germ_is_the_germ_at_rotated_points():
    f, mu = parse_expression("y^2 - x^3 + x*y^2"), MUS[2]
    g = parse_expression(rotated("y^2 - x^3 + x*y^2", mu))
    x, y = GaussianRational(Fraction(1, 3), Fraction(2, 7)), Fraction(-5, 11)
    assert g.evaluate(x, y) == f.evaluate(mu * x, mu.conjugate() * y)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=st.sampled_from(GERMS), mu=st.sampled_from(MUS), q=st.integers(2, 10 ** 6),
       kind=st.sampled_from(["positive", "negative", "imaginary"]))
def test_the_rotated_fiber_zeros_are_conj_mu_times_the_zeros(text, mu, q, kind):
    t = t_value(q, kind)
    zeros = _form_zeros(substitute_fiber(parse_expression(text), t))
    moved = list(_form_zeros(substitute_fiber(parse_expression(rotated(text, mu)), t)))
    assert len(moved) == len(zeros)
    for z in zeros:
        near = mu.conjugate().to_complex() * z.location_complex()
        w = min(moved, key=lambda w: abs(w.location_complex() - near))
        moved.remove(w)
        assert (w.multiplicity, w.exact_location) == (z.multiplicity, z.exact_location)
        if z.exact_location:
            assert w.location == mu.conjugate() * z.location
        else:   # a root found numerically, within its rounding
            assert abs(w.location_complex() - near) <= 1e-12 * abs(near)


# unflagged pairs (germ, index into MUS, q, kind, c_share, R) whose bars
# miss each other.  A bar is the summed |3x3 - 2x2| disagreement of the
# cells, an estimate and not a bound.  In both, G = F(mu x, conj(mu) y) runs
# on the full circle, as before the half plane, and its bar misses its own
# error against a tolerance-1e-7 run (5.1e-3 against a bar of 3.0e-3, and
# 2.8e-3 against 1.6e-3), while F's half-plane run lies inside its bar
KNOWN_MISSES = [("y^3 - x^5", 0, 51343, "negative", 0.9, 1.0),
                ("y^3 - x^5", 0, 10052, "positive", 0.8437717687263127, 1.0)]


def rotated_pair(text, mu, q, kind, c_share, radius):
    """The K reports of F and of G at t, c = c_share * c_0 and radius."""
    f, g = parse_expression(text), parse_expression(rotated(text, mu))
    c = round(float(central_exponent(f, "min")) * c_share, 4)
    t = t_value(q, kind)
    return fiber_integral_K(f, t, c, radius).k_report, fiber_integral_K(g, t, c, radius).k_report


def within_both_bars(kf, kg):
    return abs(kg.value - kf.value) <= kg.error_estimate + kf.error_estimate


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=st.sampled_from(GERMS), mu=st.sampled_from(MUS), q=st.integers(20, 10 ** 6),
       kind=st.sampled_from(["positive", "negative"]), c_share=st.floats(0.05, 0.95),
       radius=st.sampled_from([0.5, 1.0]))
def test_the_rotated_K_agrees_within_both_bars(text, mu, q, kind, c_share, radius):
    kf, kg = rotated_pair(text, mu, q, kind, c_share, radius)
    assert (kf.meta.get("angle"), kg.meta.get("angle")) == (HALF, None)
    if kf.refinement_flags or kg.refinement_flags:
        event("flagged, not compared")
    elif (text, MUS.index(mu), q, kind, c_share, radius) in KNOWN_MISSES:
        event("a known miss, a strict xfail below")
    else:
        event("compared")
        assert within_both_bars(kf, kg)


@pytest.mark.xfail(strict=True, reason="the engine's bar is an estimate, not a bound "
                                       "(KNOWN_MISSES)")
@pytest.mark.parametrize("text, mu_index, q, kind, c_share, radius", KNOWN_MISSES)
def test_a_known_miss(text, mu_index, q, kind, c_share, radius):
    kf, kg = rotated_pair(text, MUS[mu_index], q, kind, c_share, radius)
    assert not (kf.refinement_flags or kg.refinement_flags)
    assert within_both_bars(kf, kg)
