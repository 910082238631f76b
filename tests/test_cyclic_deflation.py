"""The fiber's cyclic order against frozen copies of the full-degree code.

A fiber numerator x^j P(x^k) with k > 1 has its zeros found from P's
squarefree factors g lifted to g(x^k) (degeneration._deflated_roots), and
the initial grid of a part finds the cells that hold a zero by bisection on
its edges (quadrature._initial_grid).  The frozen_* functions below are the
code as it was before: squarefree decomposition and root search on the
whole numerator, and a pre-split that tests every zero against every cell
with numpy broadcasts.  They are kept here as oracles: the deflated search
must give the same multiplicities, exactness and exact locations, and
numeric locations within NUMERIC_REL, and the index pre-split the same
cells in the same order.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cselab import (
    Annulus,
    GaussianRational,
    LaurentForm,
    QuadratureConfig,
    UnivariatePoly,
    parse_expression,
    substitute_fiber,
)
from cselab import degeneration
from cselab.degeneration import (
    FiberZero,
    _cyclic_order,
    _deflated_roots,
    _form_zeros,
    _roots_of_unipoly,
    _snap_gaussian,
    _zero_order,
)
from cselab.polynomials import divides_power, exact_divide, squarefree_decomposition
from cselab.quadrature import _initial_grid, _split_cells, _symmetry

NUMERIC_REL = 1e-12


# ---------------------------------------------------------------------------
# the frozen full-degree zero search
# ---------------------------------------------------------------------------

def frozen_form_zeros(form):
    zeros = []
    for factor, mult in squarefree_decomposition(form.numerator):
        claimed, found, collided = set(), [], False
        for root in _roots_of_unipoly(factor):
            cand = _snap_gaussian(root, factor.den)
            if (cand is not None and cand not in claimed
                    and divides_power(factor, cand, 1)):
                claimed.add(cand)
                found.append(FiberZero(cand, mult))
            else:
                collided = collided or cand in claimed
                found.append(FiberZero(complex(root), mult))
        if collided:
            rest = factor
            for cand in claimed:
                rest = exact_divide(rest, UnivariatePoly([-cand, 1]))
            found = [z for z in found if z.exact_location] + [
                FiberZero(complex(r), mult) for r in _roots_of_unipoly(rest)]
        zeros += found
    return tuple(sorted(zeros, key=_zero_order))


def assert_same_zeros(new, old):
    """Equal multisets of exact (location, multiplicity); each numeric zero
    of either list has one of the other's with its multiplicity within
    NUMERIC_REL of its modulus, and both lists have as many of each."""
    assert sorted(z.multiplicity for z in new) == sorted(z.multiplicity for z in old)
    exact = [sorted((str(z.location), z.multiplicity) for z in zs if z.exact_location)
             for zs in (new, old)]
    assert exact[0] == exact[1]
    numeric = [[z for z in zs if not z.exact_location] for zs in (new, old)]
    assert len(numeric[0]) == len(numeric[1])
    for ours, theirs in (numeric, numeric[::-1]):
        for z in ours:
            x = z.location_complex()
            gap = min(abs(x - o.location_complex()) for o in theirs
                      if o.multiplicity == z.multiplicity)
            assert gap <= NUMERIC_REL * abs(x), (x, gap)


def lifted_form(j, k, coeffs):
    """LaurentForm(x^j P(x^k), 0) for P with the given ascending coefficients."""
    nums = [GaussianRational(0)] * (j + k * (len(coeffs) - 1) + 1)
    nums[j::k] = coeffs
    return LaurentForm(UnivariatePoly(nums), 0)


def product(factors):
    p = UnivariatePoly([1])
    for g, e in factors:
        p = p * g ** e
    return p


small = st.integers(-6, 6)
gaussian = st.builds(GaussianRational, small, small)
real = st.builds(GaussianRational, small)


@st.composite
def cyclic_numerators(draw):
    """(j, k, P): P a product of up to three powers of factors of degree 1
    or 2 with small real or Gaussian integer coefficients and g(0) != 0,
    dilated to P(2^s w), s <= 1100, so that a monic factor's coefficients
    or its roots can leave the float range (the roots' is the fall-back).
    A root past 2^53 is exact only if its float is, so s > -53 here."""
    coeff = gaussian if draw(st.booleans()) else real
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        low = draw(coeff.filter(lambda c: not c.is_zero()))
        rest = draw(st.lists(coeff, min_size=1, max_size=2))
        rest[-1] = rest[-1] if not rest[-1].is_zero() else GaussianRational(1)
        factors.append((UnivariatePoly([low] + rest), draw(st.integers(1, 3))))
    s = draw(st.sampled_from([0, 0, 0, 1, -3, -40, 40, 200, 600, 1100]))
    p = product(factors)
    scale = Fraction(2) ** s
    return (draw(st.integers(0, 3)), draw(st.integers(2, 8)),
            [c * scale ** i for i, c in enumerate(p.coeffs)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=cyclic_numerators())
@example(case=(0, 2, [GaussianRational(Fraction(1, 100)), GaussianRational(1)]))
@example(case=(1, 3, [GaussianRational(-4), GaussianRational(0, 2), GaussianRational(1)]))
@example(case=(2, 8, [GaussianRational(Fraction(1, 2 ** 600)), GaussianRational(1)]))
def test_deflated_zeros_match_the_full_degree_search(case):
    j, k, coeffs = case
    form = lifted_form(j, k, coeffs)
    jj, kk = _cyclic_order(form.numerator)
    assert jj == j and kk % k == 0     # P may have a cyclic order of its own
    zeros = _form_zeros(form)
    assert_same_zeros(zeros, frozen_form_zeros(form))
    if all(c.is_real() for c in coeffs):   # exact conjugate pairs, as before
        locs = [z.location_complex() for z in zeros]
        assert sorted(map(repr, locs)) == sorted(repr(x.conjugate() + 0.0) for x in locs)


@pytest.mark.parametrize("f, t", [
    ("y^2 - x^3", Fraction(1, 100)), ("y^3 - x^5", Fraction(-1, 3000)),
    ("x^2 - y^2", Fraction(1, 7)), ("(x + y)^2", Fraction(1, 50)),
    ("x + y", Fraction(1, 10 ** 6)), ("(y^3 - 2*x^5)^6", Fraction(1, 1000)),
    ("y^2 - x^3", Fraction(3, 10 ** 170)), ("y^2 - x^3", Fraction(1, 2 ** 600)),
    ("(x^2 - y^2)^2", GaussianRational(Fraction(1, 30), Fraction(1, 40))),
    ("y^3 - x^5", GaussianRational(Fraction(3, 5000), Fraction(-4, 5000)))])
def test_corpus_fibers_match_the_full_degree_search(f, t):
    form = substitute_fiber(parse_expression(f), t)
    assert _cyclic_order(form.numerator)[1] > 1
    assert_same_zeros(_form_zeros(form), frozen_form_zeros(form))


def test_a_root_past_the_float_range_falls_back():
    # x^5 - t^2 with t^2 = 2^-1200: the root w = t^2 of g has no normal float image
    form = substitute_fiber(parse_expression("y^2 - x^3"), Fraction(1, 2 ** 600))
    num = form.numerator
    assert _deflated_roots(num, *_cyclic_order(num)) is None
    assert _form_zeros(form) == frozen_form_zeros(form)


def test_a_degree_one_p_skips_the_decomposition(monkeypatch):
    monkeypatch.setattr(degeneration, "squarefree_decomposition", None)
    form = substitute_fiber(parse_expression("y^3 - x^5"), Fraction(1, 3000))
    (big, mult, roots), = _deflated_roots(form.numerator, 0, 8)
    assert mult == 1 and big == form.numerator.monic() and len(roots) == 8


def test_axis_roots_are_exact():
    # x^8 = t^3 > 0: the roots at angles 0, pi/2, pi and 3pi/2 have a zero part
    form = substitute_fiber(parse_expression("y^3 - x^5"), Fraction(1, 3000))
    on_axis = [z for z in (z.location_complex() for z in _form_zeros(form))
               if z.real == 0 or z.imag == 0]
    assert len(on_axis) == 4
    assert {(math.copysign(1, z.real), math.copysign(1, z.imag)) for z in on_axis
            if z.imag == 0} == {(1.0, 1.0), (-1.0, 1.0)}


# ---------------------------------------------------------------------------
# the frozen broadcast pre-split
# ---------------------------------------------------------------------------

def frozen_initial_grid(annulus, cfg, zero_points, center, k, m):
    u_lo = math.log(annulus.r_inner)
    u_hi = math.log(annulus.r_outer)
    decades = (u_hi - u_lo) / math.log(10.0)
    n_u = max(4, int(math.ceil(decades * cfg.radial_cells_per_decade)))
    n_th, span, turn = -(-max(4, cfg.angular_cells) // m), 2.0 * math.pi / m, 2.0 * math.pi / k
    ue = np.arange(n_u + 1.0) * ((u_hi - u_lo) / n_u) + u_lo
    te = np.arange(n_th + 1.0) * (span / n_th)
    ue[-1], te[-1] = u_hi, span
    cells = np.empty((n_u, n_th, 4))
    cells[..., 0], cells[..., 1] = ue[:-1, None], ue[1:, None]
    cells[..., 2], cells[..., 3] = te[:-1], te[1:]
    cells = cells.reshape(-1, 4)
    depth = np.zeros(len(cells), dtype=np.int32)

    zs = [complex(z) - complex(center) for z in zero_points]
    zs = np.array([(math.log(abs(z)), math.atan2(z.imag, z.real) % turn)
                   for z in zs if abs(z) > 0]).reshape(-1, 2)
    uz, tz = zs[:, :1], zs[:, 1:]
    if m > k:
        tz = np.minimum(tz, turn - tz)
    for _ in range(2 if len(zs) else 0):
        u0, u1, t0, t1 = cells.T
        hit = ((u0 <= uz) & (uz <= u1) & (t0 <= tz) & (tz <= t1)).any(axis=0)
        if not hit.any():
            break
        kids, kid_depth = _split_cells(cells[hit], depth[hit])
        cells = np.concatenate([cells[~hit], kids])
        depth = np.concatenate([depth[~hit], kid_depth])
    return cells, depth


def assert_same_grid(*args):
    cells, depth = _initial_grid(*args)
    old_cells, old_depth = frozen_initial_grid(*args)
    assert cells.dtype == old_cells.dtype and depth.dtype == old_depth.dtype
    assert np.array_equal(cells, old_cells) and np.array_equal(depth, old_depth)
    return cells, depth


CFG = QuadratureConfig()


@pytest.mark.parametrize("f, t, radius", [
    ("y^3 - x^5", Fraction(1, 3000), 0.5),       # 8 zeros, one orbit: duplicate points
    ("y^2 - x^3", Fraction(1, 100), 0.5),
    ("(x + y)^2", Fraction(-1, 50), 1.0),
    ("x^2 - y^2", Fraction(1, 7), 0.5),
    ("(y^3 - 2*x^5)^6", Fraction(1, 1000), 0.5)])
def test_fiber_grids_match_the_broadcast_presplit(f, t, radius):
    form = substitute_fiber(parse_expression(f), t)
    annulus = Annulus(float(abs(t)) / radius, radius)
    zeros = [z.location_complex() for z in _form_zeros(form)]
    assert_same_grid(annulus, CFG, zeros, 0j, *_symmetry(form, 0j, "x"))


def test_a_zero_at_the_geometric_centre():
    # the zeros +-i sqrt(t) of x + y lie on the middle radial edge of an even
    # n_u: both cells beside it, and their children beside it, are split
    t, radius = Fraction(1, 10 ** 6), 1.0
    annulus = Annulus(float(t) / radius, radius)
    zeros = [1e-3j, -1e-3j]
    cells, depth = assert_same_grid(annulus, CFG, zeros, 0j, 2, 4)
    assert math.log(1e-3) in cells[:, :2]
    assert (depth == 2).sum() == 8


@pytest.mark.parametrize("zero, k, m", [
    (2e-2, 1, 2),                 # theta = 0, the near edge
    (-2e-2, 1, 2),                # theta = pi, the far edge of [0, pi]
    (2e-2j, 2, 4),                # theta = pi/2 = pi/k, the far edge of [0, pi/k]
    (complex(1e-2, 1e-2), 4, 8),  # theta = pi/4 = 2pi/k: folds to 0 or an ulp short
    (-2e-2j, 1, 1)])              # theta = 3pi/2 on the full circle, an inner edge
def test_zeros_on_sector_edges(zero, k, m):
    assert_same_grid(Annulus(1e-4, 0.5), CFG, [zero], 0j, k, m)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(r_in=st.floats(1e-9, 1e-2), span=st.floats(1.5, 1e7),
       km=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 4), (3, 6), (5, 10), (8, 16)]),
       radial=st.sampled_from([4, 5, 8]), angular=st.sampled_from([4, 8, 13]),
       picks=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 15), st.booleans()),
                      max_size=6),
       center=st.sampled_from([0j, 0.3, complex(0.1, -0.2)]))
def test_random_grids_match_the_broadcast_presplit(r_in, span, km, radial, angular, picks,
                                                   center):
    # zeros at random places, at cell corners (to an ulp, after log and
    # atan2) and repeated, with the orbits of the group
    k, m = km
    cfg = QuadratureConfig(radial_cells_per_decade=radial, angular_cells=angular)
    annulus = Annulus(r_in, r_in * span)
    corners, _ = frozen_initial_grid(annulus, cfg, (), 0j, k, m)
    zeros = []
    for share, q, on_corner in picks:
        if on_corner:
            u0, _, th0, _ = corners[q % len(corners)]
            z = math.exp(u0) * complex(math.cos(th0), math.sin(th0))
        else:
            z = annulus.r_inner ** (1 - share) * annulus.r_outer ** share * complex(
                math.cos(7 * share), math.sin(7 * share))
        zeros += [z * complex(math.cos(2 * math.pi * p / k), math.sin(2 * math.pi * p / k))
                  for p in range(k)] + [z]
    assert_same_grid(annulus, cfg, [z + center for z in zeros], center, k, m)
