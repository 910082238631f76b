"""Newton polygons: hull correctness against a brute-force oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cselab import (
    BivariatePoly,
    Exponent,
    IdenticallyZeroError,
    compute_polygon,
    endpoints,
    lct_polygon_estimate,
    principal_part,
    single_segment,
    vanishing_order,
)
from cselab.newton import _pareto_minimal


def poly_from_points(points):
    return BivariatePoly({p: 1 for p in points})


# -- oracle ------------------------------------------------------------------
#
# A support point p is a vertex of the lower-left hull iff it is not
# dominated by any single other point nor by any convex combination of two
# other points (in 2D the dominance region of the remaining points is built
# from pairs).  Exact rational interval arithmetic, no geometry shared with
# the implementation.

def _dominated_by_pair(p, a, b):
    lo, hi = Fraction(0), Fraction(1)
    for i in (0, 1):
        d = a[i] - b[i]
        bound = Fraction(p[i] - b[i])
        if d == 0:
            if bound < 0:
                return False
        elif d > 0:
            hi = min(hi, bound / d)
        else:
            lo = max(lo, bound / d)
    return lo <= hi


def oracle_hull_vertices(points):
    points = sorted(set(points))
    verts = []
    for p in points:
        others = [q for q in points if q != p]
        if any(q[0] <= p[0] and q[1] <= p[1] for q in others):
            continue
        if any(_dominated_by_pair(p, a, b)
               for i, a in enumerate(others) for b in others[i + 1:]):
            continue
        verts.append(p)
    return verts


supports = st.sets(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=12)


class TestComputePolygon:
    def test_cusp(self):
        polygon = compute_polygon(poly_from_points([(0, 2), (3, 0)]))
        assert polygon.vertices == ((0, 2), (3, 0))
        assert len(polygon.segments) == 1

    def test_three_vertices(self):
        polygon = compute_polygon(poly_from_points([(1, 1), (3, 0), (0, 3)]))
        assert polygon.vertices == ((0, 3), (1, 1), (3, 0))
        assert len(polygon.segments) == 2

    def test_single_point(self):
        polygon = compute_polygon(poly_from_points([(1, 0)]))
        assert polygon.vertices == ((1, 0),)
        assert polygon.segments == ()

    def test_zero_poly_rejected(self):
        with pytest.raises(IdenticallyZeroError):
            compute_polygon(BivariatePoly.zero())

    def test_collinear_interior_point_not_a_vertex(self):
        # (1,1) sits on the segment from (0,2) to (2,0)
        polygon = compute_polygon(poly_from_points([(0, 2), (1, 1), (2, 0)]))
        assert polygon.vertices == ((0, 2), (2, 0))

    @given(pts=supports)
    @settings(max_examples=300, derandomize=True)
    def test_matches_bruteforce_oracle(self, pts):
        polygon = compute_polygon(poly_from_points(pts))
        assert list(polygon.vertices) == oracle_hull_vertices(pts)

    @given(pts=st.sets(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                       min_size=1, max_size=60))
    @settings(max_examples=300, derandomize=True)
    def test_staircase_sweep_matches_quadratic_filter(self, pts):
        # the minimal points by the all-pairs test the sweep replaced
        quadratic = sorted(p for p in pts if not any(
            q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts))
        assert _pareto_minimal(list(pts)) == quadratic


class TestSingleSegment:
    def test_examples(self):
        assert single_segment(compute_polygon(poly_from_points([(0, 2), (3, 0)])))
        assert not single_segment(
            compute_polygon(poly_from_points([(1, 1), (3, 0), (0, 3)])))
        assert single_segment(compute_polygon(poly_from_points([(1, 0), (0, 1)])))

    def test_single_point_polygon_is_not_a_segment(self):
        assert not single_segment(compute_polygon(poly_from_points([(2, 3)])))


class TestEndpoints:
    def test_examples(self):
        assert endpoints(compute_polygon(poly_from_points([(0, 2), (3, 0)]))) == (3, 2)
        assert endpoints(compute_polygon(poly_from_points([(1, 0), (0, 1)]))) == (1, 1)
        assert endpoints(compute_polygon(poly_from_points([(2, 0), (0, 5)]))) == (2, 5)

    def test_missing_axis_is_an_error(self):
        with pytest.raises(IdenticallyZeroError):
            endpoints(compute_polygon(poly_from_points([(1, 1), (0, 2)])))

    @given(pts=supports)
    @settings(max_examples=200, derandomize=True)
    def test_endpoints_are_axis_vanishing_orders(self, pts):
        f = poly_from_points(pts)
        rx, ry = f.restrict_x_axis(), f.restrict_y_axis()
        if rx.is_zero() or ry.is_zero():
            return
        k, l = endpoints(compute_polygon(f))
        assert k == vanishing_order(rx, 0) == rx.valuation()
        assert l == vanishing_order(ry, 0) == ry.valuation()


class TestPrincipalPart:
    def test_cusp_with_fat_point(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = y * y - x ** 3 + (x * y) ** 2
        pp = principal_part(f, (3, 2))
        assert pp.poly == y * y - x ** 3

    def test_quasi_homogeneous_is_fixed(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = y ** 2 - x ** 3
        assert principal_part(f, (3, 2)).poly == f

    def test_line_plus_square(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        pp = principal_part(x + y + x * x, (1, 1))
        assert pp.poly == x + y

    def test_idempotent(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = y * y - x ** 3 + x * x * y * y + x ** 5
        pp = principal_part(f).poly
        assert principal_part(pp).poly == pp

    def test_contains_axis_monomials(self):
        x = BivariatePoly.variable("x")
        y = BivariatePoly.variable("y")
        f = y ** 3 + x * y + x ** 4
        k, l = endpoints(compute_polygon(f))
        pp = principal_part(f, (k, l)).poly
        assert (k, 0) in pp.support and (0, l) in pp.support


class TestPolygonEstimate:
    def test_cusp(self):
        f = poly_from_points([(0, 2)]) - BivariatePoly.monomial(3, 0)
        assert lct_polygon_estimate(f) == Exponent(Fraction(5, 6))

    def test_smooth_clamps_to_one(self):
        f = poly_from_points([(1, 0), (0, 1)])
        assert lct_polygon_estimate(f) == Exponent(1)

    def test_circle_pair(self):
        f = poly_from_points([(2, 0), (0, 2)])
        assert lct_polygon_estimate(f) == Exponent(1)

    def test_nonvanishing_is_infinite(self):
        f = poly_from_points([(0, 0), (1, 0)])
        assert lct_polygon_estimate(f).is_infinite

    def test_monomial_axis_power(self):
        # x^m alone: the axis direction carries the estimate
        for m in range(1, 6):
            f = BivariatePoly.monomial(m, 0)
            assert lct_polygon_estimate(f) == Exponent(Fraction(1, m)) \
                or (m == 1 and lct_polygon_estimate(f) == Exponent(1))

    def test_pure_power_family_reciprocal_sum(self):
        # independent recomputation: for x^a + y^b the threshold candidate
        # is the reciprocal sum 1/a + 1/b, clamped at 1
        for a in range(2, 6):
            for b in range(2, 6):
                f = BivariatePoly.monomial(a, 0) + BivariatePoly.monomial(0, b)
                expected = min(Fraction(1), Fraction(1, a) + Fraction(1, b))
                assert lct_polygon_estimate(f) == Exponent(expected)

    @given(pts=supports)
    @settings(max_examples=200, derandomize=True)
    def test_estimate_in_unit_interval(self, pts):
        f = poly_from_points(pts)
        if (0, 0) in f.support:
            return
        value = lct_polygon_estimate(f)
        assert Exponent(0) < value <= Exponent(1)

    @given(pts=supports)
    @settings(max_examples=200, derandomize=True)
    def test_estimate_matches_brute_force_over_support(self, pts):
        # N(a, b) as the minimum over every support point, with the normals of
        # the oracle hull; (a+b)/N(a,b) does not change when (a, b) is scaled
        if (0, 0) in pts:
            return
        verts = oracle_hull_vertices(pts)
        normals = [(n1 - n2, m2 - m1) for (m1, n1), (m2, n2) in zip(verts, verts[1:])]
        best = Fraction(1)
        for a, b in normals + [(1, 0), (0, 1)]:
            n_ab = min(a * m + b * n for m, n in pts)
            if n_ab:
                best = min(best, Fraction(a + b, n_ab))
        assert lct_polygon_estimate(poly_from_points(pts)) == Exponent(best)
