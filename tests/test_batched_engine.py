"""One adaptive run per operation: a batched run against its parts' solo runs.

The engine refines the parts of one run in shared rounds, but each part
keeps its own cells, absolute floor and counts, so a part must come out of a
batched run with the cells, flags and convergence of its solo run and the
same masses to rounding.  Sweeps, bounds, probes and the decomposition of
I_t make one run for their t != 0 integrals.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cselab import (
    Annulus,
    GaussianRational,
    LaurentForm,
    QuadratureConfig,
    UnivariatePoly,
    convergence_sweep,
    decompose_I,
    exponent_probe_1d,
    fiber_integral_K,
    fiber_zeros,
    parse_expression,
    substitute_fiber,
    uniform_bound_check,
)
from cselab import quadrature
from cselab.cli import main
from cselab.quadrature import PROBE_ANNULI, _adaptive_polar, _base_fn, _symmetry
from cselab.rationals import exact_param, param_modulus

# the corpus germs with their central exponents c_0
GERMS = (("y^2 - x^3", Fraction(1, 3)), ("x^2 - y^2", Fraction(1, 2)),
         ("(x + y)^2", Fraction(1, 2)), ("y^3 - x^5", Fraction(1, 5)),
         ("x + y", Fraction(1)))
# x^2 - 3x/20 + y has c_0 = 1, but its fiber at t = 1/2000 has the double zero
# x = 1/10 (x^3 - 3x^2/20 + t = 0), so K_t diverges there at c = 0.6
DOUBLE_ZERO_F = "x^2 - 3/20*x + y"
DOUBLE_ZERO_TS = (Fraction(1, 1000), Fraction(1, 2000), Fraction(1, 4000))
MASS_REL = 1e-12
ERROR_REL = 1e-9
Y_CHART_T = Fraction(1, 100)
# a low depth cap, so that some parts end with max-depth-reached
CFG = QuadratureConfig(max_refinement_depth=8)


def t_value(q, kind):
    t = Fraction(1, q)
    return {"positive": t, "negative": -t, "imaginary": GaussianRational(0, t)}[kind]


def build_part(spec):
    """An engine part from its spec.

    ("K", germ, q, kind, c_share, R) is the part of K_t: the x-chart annulus
    A(|t|/R, R) of the germ's fiber with the weight t^2, at c = c_share * c_0.
    ("A", roots, c, r_in, r_out, chart, center) is prod (z - a) over
    A(r_in, r_out) about center with no weight, in the y chart evaluated at
    x = t/y.  A part runs on the sector grid of its symmetry group
    (_symmetry), so a run may mix sectors of different orders."""
    if spec[0] == "K":
        _, germ, q, kind, c_share, radius = spec
        text, c0 = GERMS[germ]
        t = t_value(q, kind)
        fib = substitute_fiber(parse_expression(text), t)
        tt = exact_param(t)
        t_abs = param_modulus(tt)
        zeros = fiber_zeros(fib, tt, delta=radius)
        return (_base_fn(fib, float(c0) * c_share), Annulus(t_abs / radius, radius),
                [z.location_complex() for z in zeros], t_abs * t_abs, 0j,
                *_symmetry(fib, 0j, "x"))
    _, roots, c, r_in, r_out, chart, center = spec
    fiber = UnivariatePoly([1])
    for re, im in roots:
        fiber = fiber * UnivariatePoly([-GaussianRational(Fraction(re, 8), Fraction(im, 8)), 1])
    zs = [complex(re, im) / 8 for re, im in roots]
    if chart == "y":
        zs = [float(Y_CHART_T) / z for z in zs if z]
    form = LaurentForm(fiber, 0, Y_CHART_T)
    return (_base_fn(form, c, chart=chart), Annulus(r_in, r_out), zs, None, center,
            *_symmetry(form, center, chart))


k_specs = st.tuples(st.just("K"), st.integers(0, len(GERMS) - 1), st.integers(20, 10 ** 6),
                    st.sampled_from(["positive", "negative", "imaginary"]),
                    st.floats(0.05, 0.95), st.sampled_from([0.5, 1.0]))
roots = st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16)), min_size=1, max_size=3)


@st.composite
def a_specs(draw):
    r_in = draw(st.floats(1e-4, 0.05))
    return ("A", tuple(draw(roots)), draw(st.floats(0.05, 0.45)), r_in,
            r_in * draw(st.floats(1.5, 40.0)), draw(st.sampled_from(["x", "y"])),
            draw(st.sampled_from([0j, 0.25 + 0.5j, -0.375j])))


runs = st.one_of(st.lists(k_specs, min_size=1, max_size=4),
                 st.lists(a_specs(), min_size=1, max_size=4))


def assert_part_matches_solo(batched, solo):
    masses, errs, cells, flags = batched
    assert (cells, flags) == solo[2:]
    assert masses == pytest.approx(solo[0], rel=MASS_REL, abs=0)
    assert errs == pytest.approx(solo[1], rel=ERROR_REL, abs=0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(run=runs, tol=st.sampled_from([1e-3, 1e-5]))
# parts of different degree and pole order: the cusp, the line and y^3 - x^5
@example(run=[("K", 0, 1000, "positive", 0.5, 0.5), ("K", 4, 10 ** 4, "negative", 0.9, 1.0),
              ("K", 3, 400, "imaginary", 0.7, 0.5)], tol=1e-3)
# two probed zeros' annuli, each about its own zero, and an origin annulus in the y chart
@example(run=[("A", ((2, 4), (-3, 1)), 0.4, 0.01, 0.02, "x", 0.25 + 0.5j),
              ("A", ((2, 4), (-3, 1)), 0.4, 0.005, 0.01, "x", 0.25 + 0.5j),
              ("A", ((2, 4), (-3, 1)), 0.4, 0.005, 0.01, "x", -0.375 + 0.125j),
              ("A", ((2, 4),), 0.3, 0.02, 0.5, "y", 0j)], tol=1e-5)
# R = 1e300: r^2 overflows, and each part counts its own dropped cells
@example(run=[("K", 0, 100, "positive", 0.45, 1e300), ("K", 4, 7, "positive", 0.5, 1e300)],
         tol=1e-3)
# tiny radii: r^2 underflows to 0; these parts carry no t^2 weight, so no 0/0
@example(run=[("A", ((4, 0), (-4, 0)), 0.3, 1e-300, 1e-200, "x", 0j),
              ("A", ((4, 0),), 0.2, 1e-250, 1e-100, "x", 0j)], tol=1e-3)
def test_a_batched_run_gives_each_part_its_solo_run(run, tol):
    cfg = QuadratureConfig(max_refinement_depth=8, target_rel_tolerance=tol)
    parts = [build_part(spec) for spec in run]
    batched = _adaptive_polar(parts, cfg)
    assert len(batched) == len(parts)
    for part, result in zip(parts, batched):
        assert_part_matches_solo(result, _adaptive_polar([part], cfg)[0])


def test_a_probe_of_two_zeros_gives_each_its_one_zero_probe():
    # (z - 1)(z + 1)(z - 2i) about 1 and -1: no radius cut, no pole
    fiber = UnivariatePoly([-1, 0, 1]) * UnivariatePoly([GaussianRational(0, -2), 1])
    both = exponent_probe_1d(fiber, [1, -1], 0.3, CFG)
    assert both == [exponent_probe_1d(fiber, [z], 0.3, CFG)[0] for z in (1, -1)]


def test_an_unresolved_region_stays_with_its_own_part():
    # only the R = 1e300 part has cells whose r^2 overflows
    parts = [build_part(("K", 0, 100, "positive", 0.45, 1e300)),
             build_part(("K", 4, 100, "positive", 0.5, 0.5))]
    huge, small = _adaptive_polar(parts, CFG)
    assert any(f.startswith("unresolved-singular-cell:") for f in huge[3])
    assert small[3] == ()


def assert_row_is(row, old):
    assert row.flags == old.refinement_flags
    assert row.k_t == pytest.approx(old.value, rel=MASS_REL, abs=0)
    assert row.err == pytest.approx(old.error_estimate, rel=ERROR_REL, abs=0)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(germ=st.integers(0, len(GERMS) - 1), c_share=st.floats(0.1, 0.9),
       qs=st.lists(st.integers(20, 10 ** 5), min_size=1, max_size=4, unique=True),
       with_zero=st.booleans())
@example(germ=0, c_share=0.5, qs=[100, 1000], with_zero=True)   # t = 0 inside a bound
@example(germ=len(GERMS), c_share=0.6, qs=[1000, 2000, 4000], with_zero=False)  # divergent row
def test_sweep_and_bound_rows_are_their_solo_K(germ, c_share, qs, with_zero):
    text, c0 = (GERMS + ((DOUBLE_ZERO_F, Fraction(1)),))[germ]
    f = parse_expression(text)
    c = round(float(c0) * c_share, 4)
    ts = [Fraction(1, q) for q in qs]
    solo = {t: fiber_integral_K(f, t, c, 0.5, CFG).k_report for t in ts + [Fraction(0)]}
    bound = uniform_bound_check(f, c, 0.5, ts + [Fraction(0)] * with_zero, CFG)
    for row in bound.rows:
        assert_row_is(row, solo[row.t])
    sweep = convergence_sweep(f, c, 0.5, ts, CFG)
    assert (sweep.k0, sweep.k0_flags) == (solo[0].value, solo[0].refinement_flags)
    for row in sweep.rows:
        assert_row_is(row, solo[row.t])


class Spy:
    """Records the parts of every engine run."""

    def __init__(self, monkeypatch):
        self.runs = []
        engine = quadrature._adaptive_polar

        def spy(parts, cfg):
            self.runs.append(list(parts))
            return engine(parts, cfg)

        monkeypatch.setattr(quadrature, "_adaptive_polar", spy)

    def weighted(self):
        """The runs of t != 0 integrals: their parts carry a t^2 weight."""
        return [run for run in self.runs if run and run[0][3] is not None]



def test_a_divergent_row_is_not_run_and_leaves_the_others_alone(monkeypatch):
    f = parse_expression(DOUBLE_ZERO_F)
    solo = [fiber_integral_K(f, t, 0.6, 0.5, CFG) for t in DOUBLE_ZERO_TS]
    spy = Spy(monkeypatch)
    rep = convergence_sweep(f, 0.6, 0.5, list(DOUBLE_ZERO_TS), CFG)
    (run,) = spy.weighted()
    assert len(run) == 2
    fast, divergent, slow = rep.rows
    assert divergent.flags == ("divergent",) and divergent.k_t == float("inf")
    assert solo[1].k_report.divergent and solo[1].k_report.cells_used == 0
    for row, kr in ((fast, solo[0]), (slow, solo[2])):
        assert_row_is(row, kr.k_report)
        assert (row.i_t, row.j_t) == pytest.approx((kr.i_report.value, kr.j_report.value),
                                                   rel=MASS_REL, abs=0)
    assert rep.verdict == "inconclusive"


class TestOneRunPerOperation:
    def test_sweep(self, monkeypatch):
        spy = Spy(monkeypatch)
        ts = [Fraction(1, 100), Fraction(1, 400), Fraction(1, 1600)]
        convergence_sweep(parse_expression("x + y"), 0.5, 1.0, ts, CFG)
        assert [len(run) for run in spy.weighted()] == [3]
        # K_0 of the line is exact: its monomial axes need no engine
        assert len(spy.runs) == 1

    @pytest.mark.parametrize("text, parts", [("y^2 - x^3", []), ("x + y", []),
                                             ("(y^2 - x^3)*(1 + x + y)", [2])])
    def test_central_k(self, monkeypatch, text, parts):
        # monomial axes make no engine run; two non-monomial axes share one
        spy = Spy(monkeypatch)
        fiber_integral_K(parse_expression(text), 0, 0.3, 0.5, CFG)
        assert [len(run) for run in spy.runs] == parts

    def test_bound(self, monkeypatch):
        spy = Spy(monkeypatch)
        ts = [Fraction(1, 100), Fraction(1, 1000), Fraction(0), Fraction(1, 10 ** 4)]
        uniform_bound_check(parse_expression("x^2 - y^2"), 0.2, 0.5, ts, CFG)
        assert [len(run) for run in spy.weighted()] == [3]

    def test_probe(self, monkeypatch):
        spy = Spy(monkeypatch)
        fiber = UnivariatePoly([-1, 0, 1])
        exponent_probe_1d(fiber, [1], 0.3, CFG)
        assert [len(run) for run in spy.runs] == [PROBE_ANNULI]

    def test_cli_probe(self, monkeypatch, capsys):
        # (x + y)^2 has two double zeros on the fiber t = 1/1000
        spy = Spy(monkeypatch)
        assert main(["probe", "--kind", "multiplicity", "--f", "(x + y)^2",
                     "--t", "1/1000"]) == 0
        assert len(json.loads(capsys.readouterr().out)["probes"]) == 2
        assert [len(run) for run in spy.runs] == [2 * PROBE_ANNULI]
        assert [part[4] for part in spy.runs[0][::PROBE_ANNULI]] == pytest.approx(
            [-1j * 1e-3 ** 0.5, 1j * 1e-3 ** 0.5])

    def test_decompose_I(self, monkeypatch):
        spy = Spy(monkeypatch)
        decompose_I(parse_expression("x + y"), Fraction(1, 100), 0.5, 1.0, 5.0, CFG)
        assert [len(run) for run in spy.runs] == [3]


def test_a_flagged_K0_makes_the_sweep_inconclusive(monkeypatch):
    # a flagged row does too: see tests/test_cli.py, TestSweepCommand
    f = parse_expression("x + y")
    assert convergence_sweep(f, 0.5, 1.0, None).verdict == "converged"
    central = quadrature._central_k

    def flagged_central(*args):
        kr = central(*args)
        kr.k_report.refinement_flags = ("max-depth-reached:1",)
        return kr

    monkeypatch.setattr(quadrature, "_central_k", flagged_central)
    rep = convergence_sweep(f, 0.5, 1.0, None)
    assert not any(r.flags for r in rep.rows)
    assert rep.verdict == "inconclusive"
