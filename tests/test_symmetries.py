"""Oracle-free checks from the symmetries of xy = t.

For |mu| = 1 the rotation (x, y) -> (mu x, conj(mu) y) preserves xy, the
polydisc and the fiber volume, so G(x, y) = F(mu x, conj(mu) y) has the fiber
function x -> f(mu x): its zeros are conj(mu) times those of F, with the same
multiplicities, and its K_t is F's.  With mu a Gaussian rational of norm 1,
from a Pythagorean triple, G is exact input.  A real F at a real t is
integrated over one sector of a dihedral group (its rotations by 2pi/k and
x -> conj(x), 1/(2k) of the circle), while G, whose fiber numerator is not
real, runs on a sector of the cyclic group (1/k); so each pair checks one
grid of the engine against another without an oracle.  Conjugation maps
(F, t) to (conj F, conj t), with conjugate zeros and the same K_t, and
F -> aF scales K_t by |a|^(-2c).  The engine's own fold is checked against
the same part on the full circle.  A flagged run (cells forced at the depth
cap or dropped) carries no bar that bounds its error; such runs are counted
as Hypothesis events (pytest --hypothesis-show-statistics), not compared.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cselab import (
    GaussianRational,
    QuadratureConfig,
    fiber_integral_K,
    parse_expression,
    substitute_fiber,
)
from cselab import quadrature
from cselab.degeneration import _form_zeros, central_exponent
from cselab.rationals import exact_param

# the corpus germs and a germ that is not binomial
GERMS = ("y^2 - x^3", "x^2 - y^2", "(x + y)^2", "y^3 - x^5", "x + y", "y^2 - x^3 + x*y^2")
MUS = (GaussianRational(Fraction(3, 5), Fraction(4, 5)),
       GaussianRational(Fraction(5, 13), Fraction(12, 13)),
       GaussianRational(Fraction(8, 17), Fraction(-15, 17)))
# k, the order of the rotations x -> exp(2 pi i/k) x that keep each germ's
# fiber function about 0 (its numerator is x^j P(x^k))
ROTATIONS = {"y^2 - x^3": 5, "x^2 - y^2": 4, "(x + y)^2": 2, "y^3 - x^5": 8, "x + y": 2,
             "y^2 - x^3 + x*y^2": 1}


def sector(m):
    """The "angle" meta of a report from a sector of order m."""
    return None if m == 1 else f"1/{m} of the circle, times {m}"


def gaussian(z):
    """The text of a Gaussian rational, as the parser reads it."""
    return f"({z.re}+({z.im})*i)"


def rotated(text, mu):
    """The text of G(x, y) = F(mu x, conj(mu) y)."""
    return (text.replace("x", "X").replace("y", f"({gaussian(mu.conjugate())}*y)")
            .replace("X", f"({gaussian(mu)}*x)"))


def t_value(q, kind):
    t = Fraction(1, q)
    return {"positive": t, "negative": -t, "imaginary": GaussianRational(0, t),
            "complex": GaussianRational(t * Fraction(3, 5), t * Fraction(4, 5))}[kind]


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
# cells, an estimate and not a bound.  In each, G = F(mu x, conj(mu) y) runs
# on its cyclic sector, 1/8 of the circle, with the values of the full circle
# (8 angular cells make one per sector), and its bar misses its own error
# against a tolerance-1e-7 run (5.1e-3 against a bar of 3.0e-3, 2.8e-3
# against 1.6e-3, 6.1e-3 against 2.6e-3 and 1.9e-3 against 0.9e-3), while
# F's run on its dihedral sector, 1/16, lies inside its bar.  The pairs were
# misses on the half plane too (G's run is unchanged); the last two are new
# examples of the restated test
KNOWN_MISSES = [("y^3 - x^5", 0, 51343, "negative", 0.9, 1.0),
                ("y^3 - x^5", 0, 10052, "positive", 0.8437717687263127, 1.0),
                ("y^3 - x^5", 0, 1636, "negative", 0.9499999999999998, 1.0),
                ("y^3 - x^5", 0, 45343, "negative", 0.7365729666261366, 1.0)]


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
    k = ROTATIONS[text]
    assert (kf.meta.get("angle"), kg.meta.get("angle")) == (sector(2 * k), sector(k))
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


# ---------------------------------------------------------------------------
# conjugation and scaling
# ---------------------------------------------------------------------------

def assert_same_zeros(zeros, moved, image):
    """moved are the zeros image(z) of zeros, with their multiplicities; an
    exact zero maps exactly, a root found numerically within its rounding."""
    moved = list(moved)
    assert len(moved) == len(zeros)
    for z in zeros:
        near = (exact_param(image(z.location)).to_complex() if z.exact_location
                else image(z.location_complex()))
        w = min(moved, key=lambda w: abs(w.location_complex() - near))
        moved.remove(w)
        assert (w.multiplicity, w.exact_location) == (z.multiplicity, z.exact_location)
        if z.exact_location:
            assert w.location == image(z.location)
        else:
            assert abs(w.location_complex() - near) <= 1e-12 * abs(near)


T_KINDS = ["positive", "negative", "imaginary", "complex"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=st.sampled_from(GERMS), mu=st.sampled_from(MUS), q=st.integers(2, 10 ** 6),
       kind=st.sampled_from(T_KINDS))
# x^2 = -conj(mu)^2 t = (-7 - 24i)/10000 has the exact roots +-(3 - 4i)/100
@example(text="x + y", mu=MUS[0], q=400, kind="negative")
def test_the_conjugate_fiber_zeros_are_the_conjugate_zeros(text, mu, q, kind):
    # G = F(mu x, conj(mu) y) has non-real coefficients; conj G is the
    # rotation by conj(mu)
    t = t_value(q, kind)
    g, g_bar = (parse_expression(rotated(text, m)) for m in (mu, mu.conjugate()))
    zeros = _form_zeros(substitute_fiber(g, t))
    moved = _form_zeros(substitute_fiber(g_bar, t.conjugate()))
    assert_same_zeros(zeros, moved, lambda z: z.conjugate())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=st.sampled_from(GERMS), mu=st.sampled_from(MUS), q=st.integers(20, 10 ** 6),
       kind=st.sampled_from(T_KINDS), c_share=st.floats(0.05, 0.95),
       radius=st.sampled_from([0.5, 1.0]))
def test_the_conjugate_K_agrees_within_both_bars(text, mu, q, kind, c_share, radius):
    g, g_bar = (parse_expression(rotated(text, m)) for m in (mu, mu.conjugate()))
    c = round(float(central_exponent(g, "min")) * c_share, 4)
    t = t_value(q, kind)
    kg = fiber_integral_K(g, t, c, radius).k_report
    kb = fiber_integral_K(g_bar, t.conjugate(), c, radius).k_report
    if kg.refinement_flags or kb.refinement_flags:
        event("flagged, not compared")
    else:
        event("compared")
        assert within_both_bars(kg, kb)


SCALES = (GaussianRational(3), GaussianRational(Fraction(-1, 4)), GaussianRational(0, 2),
          GaussianRational(Fraction(1, 3), Fraction(-2, 3)))


def scaled(text, a):
    return f"{gaussian(a)}*({text})"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=st.sampled_from(GERMS), a=st.sampled_from(SCALES), q=st.integers(2, 10 ** 6),
       kind=st.sampled_from(T_KINDS))
def test_a_scaled_germ_has_the_same_fiber_zeros(text, a, q, kind):
    t = t_value(q, kind)
    zeros = _form_zeros(substitute_fiber(parse_expression(text), t))
    moved = _form_zeros(substitute_fiber(parse_expression(scaled(text, a)), t))
    assert_same_zeros(zeros, moved, lambda z: z)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=st.sampled_from(GERMS), a=st.sampled_from(SCALES), q=st.integers(20, 10 ** 6),
       kind=st.sampled_from(T_KINDS), c_share=st.floats(0.05, 0.95),
       radius=st.sampled_from([0.5, 1.0]))
def test_a_scaled_germ_scales_K_by_a_power_of_a(text, a, q, kind, c_share, radius):
    # |aF|^(-2c) = |a|^(-2c) |F|^(-2c); a non-real a also turns a dihedral
    # sector into a cyclic one, so the two runs need not share a grid
    f = parse_expression(text)
    c = round(float(central_exponent(f, "min")) * c_share, 4)
    t = t_value(q, kind)
    kf = fiber_integral_K(f, t, c, radius).k_report
    ka = fiber_integral_K(parse_expression(scaled(text, a)), t, c, radius).k_report
    factor = a.norm2() ** -c
    if kf.refinement_flags or ka.refinement_flags:
        event("flagged, not compared")
    else:
        event("compared")
        assert abs(ka.value - factor * kf.value) <= ka.error_estimate + factor * kf.error_estimate


# ---------------------------------------------------------------------------
# the engine's fold against the full circle
# ---------------------------------------------------------------------------

COEFFS = (GaussianRational(1), GaussianRational(2), GaussianRational(Fraction(-1, 3)),
          GaussianRational(0, 1), *MUS[:2])
quasi_homogeneous = st.one_of(
    st.builds(lambda p, q, b: f"y^{p} - {gaussian(b)}*x^{q}",
              st.integers(1, 5), st.integers(1, 5), st.sampled_from(COEFFS)),
    st.builds(lambda p, q, b: f"x^{p} - {gaussian(b)}*y^{q}",
              st.integers(1, 5), st.integers(1, 5), st.sampled_from(COEFFS)),
    st.builds(lambda a, n: f"(x + {gaussian(a)}*y)^{n}",
              st.sampled_from(COEFFS), st.integers(1, 3)))


# unflagged cases (germ, q, kind, c_share, R) where the full circle misses
# its own error: y + x^2/3 at t = 1/20, R = 0.5 has its three fiber zeros just
# outside |x| = 0.5, and at c = 0.25 the full-circle run (and the half
# plane's, bit for bit) is 4.3e-3 off a tolerance-1e-9 run with a bar of
# 1.1e-3, while the folded run (m = 6) is 1.4e-5 off with a bar of 3.4e-4;
# at c = 0.1875 the full circle is 2.0e-3 off with a bar of 8.0e-4
FOLD_MISSES = [("y^1 - (-1/3+(0)*i)*x^2", 20, "positive", 0.5, 0.5),
               ("y^1 - (-1/3+(0)*i)*x^2", 20, "positive", 0.375, 0.5)]
REFERENCE = QuadratureConfig(target_rel_tolerance=1e-9, max_refinement_depth=20)


def folded_and_full(text, q, kind, c_share, radius, config=None):
    """m and the K reports of the germ at t on its sector and on the full circle."""
    f = parse_expression(text)
    c = round(float(central_exponent(f, "min")) * c_share, 4)
    t = t_value(q, kind)
    _, m = quadrature._symmetry(substitute_fiber(f, t), 0j, "x")
    folded = fiber_integral_K(f, t, c, radius, config).k_report
    with mock.patch.object(quadrature, "_symmetry", lambda *_: (1, 1)):
        full = fiber_integral_K(f, t, c, radius, config).k_report
    return m, folded, full


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=quasi_homogeneous, q=st.integers(20, 10 ** 6),
       kind=st.sampled_from(["positive", "negative", "imaginary"]),
       c_share=st.floats(0.05, 0.95), radius=st.sampled_from([0.5, 1.0]))
@example(text=FOLD_MISSES[0][0], q=20, kind="positive", c_share=0.5, radius=0.5)
def test_the_folded_K_agrees_with_the_full_circle(text, q, kind, c_share, radius):
    m, folded, full = folded_and_full(text, q, kind, c_share, radius)
    assert m > 1 and folded.meta.get("angle") == sector(m)
    assert full.meta.get("angle") is None
    if folded.refinement_flags or full.refinement_flags:
        event("flagged, not compared")
    elif within_both_bars(folded, full):
        event("compared")
    else:
        # a bar is an estimate, not a bound (FOLD_MISSES): a tolerance-1e-9
        # full-circle run decides which side missed, and it is not the fold
        event("the full circle missed its bar, the fold checked against a reference")
        ref = folded_and_full(text, q, kind, c_share, radius, REFERENCE)[2]
        assert not ref.refinement_flags
        assert abs(folded.value - ref.value) <= folded.error_estimate
        assert abs(full.value - ref.value) > full.error_estimate


@pytest.mark.xfail(strict=True, reason="the engine's bar is an estimate, not a bound "
                                       "(FOLD_MISSES)")
@pytest.mark.parametrize("text, q, kind, c_share, radius", FOLD_MISSES)
def test_a_known_fold_miss(text, q, kind, c_share, radius):
    _, folded, full = folded_and_full(text, q, kind, c_share, radius)
    assert not (folded.refinement_flags or full.refinement_flags)
    assert within_both_bars(folded, full)
